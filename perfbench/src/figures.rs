//! `figures`: every experiment of `sudc_bench`, run the way the
//! `figures all` command runs them, each report diffed byte for byte
//! against its committed snapshot in `results/`.
//!
//! The experiments take no random input, so the seed changes nothing
//! here; it is recorded with the result like on every workload.

use sudc_accel::dse::{run_full_dse, DseCache};
use sudc_bench::{all_experiments, run_experiment};

use crate::pass::{Fnv, PassOutput};
use crate::spans::{SpanId, Tracer};

/// The groups `figures.<group>_s` sums experiment host times over; every
/// experiment not named here is `figures.static_s`.
const GROUPS: [(&str, &[&str]); 7] = [
    ("dse", &["fig17", "dse", "fig21", "extE"]),
    ("sim", &["sim"]),
    ("chaos", &["chaos"]),
    ("health", &["health"]),
    ("router", &["router"]),
    ("bus", &["bus"]),
    ("mc", &["extB", "fig24"]),
];

/// The experiment list and the committed snapshots.
#[derive(Debug)]
pub struct Inputs {
    ids: Vec<&'static str>,
    expected: Vec<Option<String>>,
}

/// Reads the experiment registry and every `results/<id>.txt`; a missing
/// snapshot is a failed check later, not an error here.
#[must_use]
pub fn setup() -> Inputs {
    let ids: Vec<&'static str> = all_experiments().into_iter().map(|(id, _)| id).collect();
    let expected = ids
        .iter()
        .map(|id| std::fs::read_to_string(format!("results/{id}.txt")).ok())
        .collect();
    Inputs { ids, expected }
}

/// Runs every experiment on the executor, as `figures all` does, and
/// returns the reports with each one's host time.
fn run_all(ids: &[&'static str], tracer: &Tracer, parent: SpanId) -> Vec<(Option<String>, f64)> {
    sudc_par::par_map(ids, |_, id| {
        tracer.time(&format!("bench.run_experiment.{id}"), Some(parent), |_| {
            run_experiment(id)
        })
    })
}

/// One pass.
#[must_use]
pub fn pass(inputs: &Inputs, tracer: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let (reports, wall) = tracer.time("perfbench.pass", None, |root| {
        run_all(&inputs.ids, tracer, root)
    });
    out.wall_s = wall;

    let mut static_s = 0.0;
    let mut group_s = [0.0; GROUPS.len()];
    for (id, (_, secs)) in inputs.ids.iter().zip(&reports) {
        match GROUPS.iter().position(|(_, members)| members.contains(id)) {
            Some(g) => group_s[g] += secs,
            None => static_s += secs,
        }
    }
    for ((group, _), secs) in GROUPS.iter().zip(group_s) {
        out.metric(&format!("figures.{group}_s"), secs);
    }
    out.metric("figures.static_s", static_s);

    out.count("figures.experiments", inputs.ids.len() as u64);
    for ((id, (report, _)), expected) in inputs.ids.iter().zip(&reports).zip(&inputs.expected) {
        let fingerprint = report.as_ref().map_or_else(String::new, |r| {
            let mut h = Fnv::new();
            h.bytes(r.as_bytes());
            h.hex()
        });
        out.observe(&format!("figures.report_fnv.{id}"), fingerprint);
        out.check(
            &format!("figures.snapshot.{id}"),
            report.is_some() && report == expected,
        );
    }

    out
}

/// The traced run's accelerator part, run in a process of its own so a
/// process-wide cache filled by the pass cannot warm it: one full sweep,
/// then the same sweep twice through a [`DseCache`].
#[must_use]
pub fn accel_part(tracer: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let ((), wall) = tracer.time("perfbench.accel_part", None, |root| {
        let (full, sweep_s) = tracer.time("accel.run_full_dse", Some(root), |_| run_full_dse());
        out.metric("accel.full_sweep_s", sweep_s);
        out.metric(
            "accel.schedules_evaluated",
            full.stats.schedules_evaluated as f64,
        );
        out.metric("accel.prune_rate", full.stats.prune_rate());
        out.metric("accel.memo_hit_rate", full.stats.memo_hit_rate());
        let mut cache = DseCache::new();
        let (cold, _) = tracer.time("accel.DseCache::run_full", Some(root), |_| cache.run_full());
        let (warm, warm_s) =
            tracer.time("accel.DseCache::run_full", Some(root), |_| cache.run_full());
        out.metric("accel.cache_warm_s", warm_s);
        out.check(
            "accel.cache_replays_the_sweep",
            cold == full && warm == full,
        );
    });
    out.wall_s = wall;
    out
}
