//! Property tests pinning the executor's behavior on degenerate inputs.
//!
//! Empty and single-element slices exercise the inline fast path
//! (`bounds.len() <= 1`), where an off-by-one in chunking would silently
//! drop or duplicate work. Every primitive must match its serial
//! equivalent exactly, at every thread count.

use proptest::prelude::*;
use sudc_par::{
    par_chunks_mut_threads, par_map_threads, par_max_by, par_reduce_threads, set_threads,
};

/// Adds `global index + 1` to every element of each chunk and returns
/// `(chunk index, chunk length)`: an element written twice, or skipped,
/// ends up with the wrong value.
fn stamp(chunk: usize) -> impl Fn(usize, &mut [u64]) -> (usize, usize) + Sync {
    move |i, c| {
        for (k, x) in c.iter_mut().enumerate() {
            *x += (i * chunk + k) as u64 + 1;
        }
        (i, c.len())
    }
}

/// The serial form of [`stamp`] over `len` zeroed elements.
fn stamp_serial(len: usize, chunk: usize) -> (Vec<u64>, Vec<(usize, usize)>) {
    let mut out = vec![0; len];
    let results = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, c)| stamp(chunk)(i, c))
        .collect();
    (out, results)
}

proptest! {
    #[test]
    fn par_map_on_empty_input_is_empty(workers in 1usize..16) {
        let items: Vec<f64> = Vec::new();
        let got = par_map_threads(workers, &items, |_, &x: &f64| x * 2.0);
        prop_assert!(got.is_empty());
    }

    #[test]
    fn par_map_on_single_element_matches_serial(
        workers in 1usize..16,
        x in -1e9..1e9f64,
    ) {
        let got = par_map_threads(workers, &[x], |i, &v| (i, v * 3.0));
        prop_assert_eq!(got, vec![(0usize, x * 3.0)]);
    }

    #[test]
    fn par_reduce_on_empty_input_returns_init(workers in 1usize..16) {
        let items: Vec<u64> = Vec::new();
        let sum = par_reduce_threads(workers, &items, || 7u64, |a, _, &x| a + x, |a, b| a + b);
        prop_assert_eq!(sum, 7);
    }

    #[test]
    fn par_reduce_on_single_element_matches_serial_fold(
        workers in 1usize..16,
        x in 0u64..1_000_000,
    ) {
        let serial = [x].iter().fold(1u64, |a, &v| a + v);
        let parallel =
            par_reduce_threads(workers, &[x], || 1u64, |a, _, &v| a + v, |a, b| a + b);
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn par_max_by_on_empty_input_is_none(workers in 1usize..16) {
        set_threads(workers);
        let result = par_max_by::<f64, _>(&[], |_, &x| x);
        set_threads(0);
        prop_assert!(result.is_none());
    }

    #[test]
    fn par_max_by_on_single_element_returns_it(
        workers in 1usize..16,
        x in -1e9..1e9f64,
    ) {
        set_threads(workers);
        let result = par_max_by(&[x], |_, &v| v);
        set_threads(0);
        prop_assert_eq!(result, Some((0usize, x)));
    }

    #[test]
    fn small_inputs_match_serial_at_every_worker_count(
        workers in 1usize..16,
        values in proptest::collection::vec(-1e6..1e6f64, 0..3),
    ) {
        // The general small-slice property: map preserves order, reduce
        // matches a left fold, max matches the first-maximum scan.
        let mapped = par_map_threads(workers, &values, |_, &v| v.abs());
        let serial_map: Vec<f64> = values.iter().map(|v| v.abs()).collect();
        prop_assert_eq!(mapped, serial_map);

        let folded = par_reduce_threads(workers, &values, || 0.0, |a, _, &v| a + v, |a, b| a + b);
        let serial_fold: f64 = values.iter().sum();
        prop_assert!((folded - serial_fold).abs() < 1e-9);

        set_threads(workers);
        let max = par_max_by(&values, |_, &v| v);
        set_threads(0);
        let serial_max = values
            .iter()
            .enumerate()
            .fold(None::<(usize, f64)>, |best, (i, &v)| match best {
                Some((_, b)) if v > b => Some((i, v)),
                None if !v.is_nan() => Some((i, v)),
                _ => best,
            });
        prop_assert_eq!(max, serial_max);
    }

    #[test]
    fn par_chunks_mut_on_empty_input_calls_nothing(
        workers in 1usize..16,
        chunk in 1usize..64,
    ) {
        let mut out: Vec<u64> = Vec::new();
        let results = par_chunks_mut_threads(workers, &mut out, chunk, |_, _| -> () {
            panic!("no chunk to visit")
        });
        prop_assert!(results.is_empty());
    }

    #[test]
    fn par_chunks_mut_with_chunk_past_the_end_is_one_call(
        workers in 1usize..16,
        len in 1usize..64,
        extra in 1usize..64,
    ) {
        let mut out = vec![0u64; len];
        let results = par_chunks_mut_threads(workers, &mut out, len + extra, stamp(len + extra));
        prop_assert_eq!(results, vec![(0, len)]);
        prop_assert_eq!(out, (1..=len as u64).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_matches_the_serial_chunk_loop(
        workers in 1usize..=16,
        len in 0usize..300,
        chunk in 1usize..40,
    ) {
        // Covers chunks that do not divide the length (a short last
        // chunk), results in chunk order, and every element written
        // exactly once, at 1 to 16 workers.
        let mut out = vec![0u64; len];
        let results = par_chunks_mut_threads(workers, &mut out, chunk, stamp(chunk));
        let (serial_out, serial_results) = stamp_serial(len, chunk);
        prop_assert_eq!(results.len(), len.div_ceil(chunk));
        prop_assert_eq!(&out, &(1..=len as u64).collect::<Vec<_>>());
        prop_assert_eq!(out, serial_out);
        prop_assert_eq!(results, serial_results);
    }
}
