//! The parallel sweep engine must be *bit-identical* to its serial oracles.
//!
//! The headline guarantee of the executor (`sudc-par`) is that chunked
//! parallel folds with an ordered merge reproduce the serial left fold
//! exactly — same winners, same floating-point bits, at every thread
//! count. These tests pin that guarantee on the full 7,168-design DSE and
//! on the executor primitives themselves.

use proptest::prelude::*;
use space_udc::accel::design::design_space;
use space_udc::accel::dse::{full_dse, run_dse_serial, run_dse_threads, DseCache};
use space_udc::accel::energy::EnergyTable;
use space_udc::par::{chunk_bounds, par_map_threads, par_reduce_threads};

/// The acceptance-criterion test: the *full* 7,168-point sweep picks
/// bit-identical winners (global, per-network, per-layer energies) in
/// serial and at several parallel widths, and the process-wide outcome
/// every experiment shares ([`full_dse`], also behind [`DseCache`]) is
/// that same sweep, computed once however many threads ask for it first.
#[test]
fn full_design_space_sweep_is_bit_identical_serial_vs_parallel() {
    let space = design_space();
    assert_eq!(space.len(), 7_168, "paper's design-space size");
    let table = EnergyTable::default();
    let reference = run_dse_serial(&space, &table);
    for workers in [1usize, 2, 4, 11] {
        let got = run_dse_threads(workers, &space, &table);
        assert_eq!(got, reference, "workers={workers}");
    }

    let start = std::sync::Barrier::new(4);
    let shared: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    full_dse()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcome in shared {
        assert!(
            std::ptr::eq(outcome, full_dse()),
            "concurrent first callers must share one outcome"
        );
    }
    assert_eq!(*full_dse(), reference);

    let mut cache = DseCache::new();
    assert_eq!(cache.run_full(), *full_dse());
    assert_eq!((cache.lookups(), cache.hits()), (1, 0));
}

#[test]
fn chunk_bounds_partition_exactly() {
    for len in [0usize, 1, 7, 64, 7_168] {
        for workers in [1usize, 2, 3, 16, 10_000] {
            let bounds = chunk_bounds(len, workers);
            let mut covered = 0;
            let mut prev_end = 0;
            for &(start, end) in &bounds {
                assert_eq!(start, prev_end, "chunks must be contiguous");
                assert!(end > start, "chunks must be non-empty");
                covered += end - start;
                prev_end = end;
            }
            assert_eq!(covered, len, "len={len} workers={workers}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// par_map preserves order and values at any thread count.
    #[test]
    fn par_map_matches_sequential_map(
        len in 0usize..200,
        seed in 0u64..1_000,
        workers in 1usize..9,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(seed + 1)).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.wrapping_add(i as u64))
            .collect();
        let got = par_map_threads(workers, &items, |i, &x| x.wrapping_add(i as u64));
        prop_assert_eq!(got, expected);
    }

    /// A chunked parallel sum over floats with ordered merge equals the
    /// serial left fold bit for bit — the property the Monte-Carlo and DSE
    /// determinism rests on (per-item work is kept within one chunk; only
    /// chunk accumulators cross threads, merged left to right).
    #[test]
    fn par_reduce_max_matches_serial_fold(
        values in proptest::collection::vec(-1.0e6..1.0e6f64, 0..300),
        workers in 1usize..9,
    ) {
        // First-wins argmax with strict `>` — the DSE's selection rule.
        let serial = values
            .iter()
            .enumerate()
            .fold(None::<(usize, f64)>, |best, (i, &v)| match best {
                Some((_, b)) if v > b => Some((i, v)),
                None => Some((i, v)),
                _ => best,
            });
        let parallel = par_reduce_threads(
            workers,
            &values,
            || None::<(usize, f64)>,
            |best, i, &v| match best {
                Some((_, b)) if v > b => Some((i, v)),
                None => Some((i, v)),
                _ => best,
            },
            |a, b| match (a, b) {
                (Some((ai, av)), Some((bi, bv))) => {
                    if bv > av { Some((bi, bv)) } else { Some((ai, av)) }
                }
                (x, None) | (None, x) => x,
            },
        );
        prop_assert_eq!(parallel, serial);
    }

    /// Integer reduction (associative) is invariant to the chunking.
    #[test]
    fn par_reduce_sum_matches_serial_sum(
        values in proptest::collection::vec(0u64..1_000_000, 0..300),
        workers in 1usize..9,
    ) {
        let serial: u64 = values.iter().sum();
        let parallel = par_reduce_threads(
            workers,
            &values,
            || 0u64,
            |acc, _, &v| acc + v,
            |a, b| a + b,
        );
        prop_assert_eq!(parallel, serial);
    }
}
