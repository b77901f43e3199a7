//! Property tests for the fault-injection layer: cold-spare monotonicity
//! and report determinism through the `space_udc::chaos` facade.
//!
//! The monotonicity property is the backbone of the resilience report's
//! spares sweep: every destructive draw in the kernel comes from a stream
//! indexed by *entity* (node, storm, link), never from a shared sequential
//! stream, so installing more cold spares replays the exact same fault
//! history over a superset of hardware. If a spare count ever *lowered*
//! delivered work, the sweep's "spares needed to recover the target"
//! answer would be meaningless.
//!
//! Case counts honour `SUDC_PROPTEST_CASES` so CI can run a reduced smoke
//! pass (see `.github/workflows/ci.yml`).

use proptest::prelude::*;
use space_udc::chaos::{Campaign, ChaosSummary, StormSpec, CLAIM4_AVAILABILITY_TARGET};
use space_udc::core::dynamics::DynamicScenario;
use space_udc::core::Scenario;
use space_udc::sim::{RunTrace, SimConfig};
use space_udc::units::Seconds;

/// Property case count, overridable for CI smoke runs.
fn cases() -> u32 {
    std::env::var("SUDC_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

/// The resilience grid's configuration of one cell: the reference
/// operations scenario with `spares` cold spares, faulted by `campaign`.
fn grid_config(campaign: &Campaign, duration: Seconds, spares: u32) -> SimConfig {
    let scenario = DynamicScenario::from_scenario(Scenario::Reference, 64)
        .expect("reference scenario must size")
        .with_cold_spares(spares, 0.1);
    let cfg = campaign.apply(
        &SimConfig::try_from_dynamic(&scenario, 0.1, duration)
            .expect("reference scenario must quantize"),
    );
    cfg.try_validate().expect("campaign must apply cleanly");
    cfg
}

/// One faulted run of the reference operations scenario with `spares`
/// cold spares. Upsets stay off: corrupted-image retries are the one
/// fault process whose *count* depends on processing order, so they are
/// exercised by the report tests instead of the monotonicity property.
/// `batch_target` is pinned to 1 so delivered work tracks capability
/// directly instead of batch-formation timing.
fn faulted_run(campaign: &Campaign, duration: Seconds, spares: u32, seed: u64) -> RunTrace {
    let mut campaign = *campaign;
    campaign.upset_probability = 0.0;
    let mut cfg = grid_config(&campaign, duration, spares);
    cfg.batch_target = 1;
    space_udc::sim::run(&cfg, seed)
}

/// A deliberately violent storm campaign: frequent windows, a 30% chance
/// each is a major event latching up most of the powered pool at once.
fn violent_storms(run: Seconds) -> Campaign {
    let mut c = Campaign::solar_storm(run);
    c.storm = Some(StormSpec {
        period: Seconds::new(0.3 * run.value()),
        duration: Seconds::new(0.05 * run.value()),
        offset: Seconds::new(0.1 * run.value()),
        seu_multiplier: 1.0,
        node_kill_probability: 0.25,
        major_probability: 0.3,
        major_multiplier: 3.0,
    });
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn more_cold_spares_never_deliver_less_work_under_storms(
        spares in 0u32..6, extra in 1u32..6, seed in 0u64..1_000_000,
    ) {
        let duration = Seconds::new(1200.0);
        let campaign = violent_storms(duration);
        let lean = faulted_run(&campaign, duration, spares, seed);
        let fat = faulted_run(&campaign, duration, spares + extra, seed);
        prop_assert!(
            fat.delivered_fraction() >= lean.delivered_fraction(),
            "spares {} -> {}: delivered fell {} -> {}",
            spares,
            spares + extra,
            lean.delivered_fraction(),
            fat.delivered_fraction(),
        );
        prop_assert!(
            fat.availability() >= lean.availability(),
            "spares {} -> {}: availability fell {} -> {}",
            spares,
            spares + extra,
            lean.availability(),
            fat.availability(),
        );
    }

    #[test]
    fn more_cold_spares_never_deliver_less_work_under_independent_failures(
        spares in 0u32..6, extra in 1u32..6, seed in 0u64..1_000_000,
    ) {
        let duration = Seconds::new(1200.0);
        // A hot independent process: two expected failures per node.
        let mut campaign = Campaign::independent(duration);
        campaign.node_mttf = Some(Seconds::new(duration.value() / 2.0));
        let lean = faulted_run(&campaign, duration, spares, seed);
        let fat = faulted_run(&campaign, duration, spares + extra, seed);
        prop_assert!(
            fat.delivered_fraction() >= lean.delivered_fraction(),
            "spares {} -> {}: delivered fell {} -> {}",
            spares,
            spares + extra,
            lean.delivered_fraction(),
            fat.delivered_fraction(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The spare-ladder sharing the resilience grid relies on: a cold
    /// spare draws nothing and schedules nothing until it is popped, so a
    /// run that popped (promoted or found dead) at most `spares` of its
    /// `spares + extra` spares is the `spares` run, trace for trace.
    #[test]
    fn a_run_that_never_drains_the_smaller_pool_is_the_smaller_run(
        which in 0usize..8, spares in 0u32..12, extra in 1u32..6, seed in 0u64..1_000_000,
    ) {
        let duration = Seconds::new(1200.0);
        let mut hot = Campaign::independent(duration);
        hot.node_mttf = Some(duration);
        let mut campaigns = Campaign::suite(duration);
        campaigns.push(violent_storms(duration));
        campaigns.push(hot);
        let campaign = &campaigns[which];
        let run = |spares| space_udc::sim::run(&grid_config(campaign, duration, spares), seed);
        let fat = run(spares + extra);
        if fat.promotions + fat.dormant_deaths <= u64::from(spares) {
            let lean = run(spares);
            prop_assert!(
                fat == lean,
                "{}: the {}-spare run popped {} spares but differs from the {}-spare run",
                campaign.name,
                spares + extra,
                fat.promotions + fat.dormant_deaths,
                spares,
            );
        }
    }
}

#[test]
fn chaos_report_is_reproducible_through_the_facade() {
    let duration = Seconds::new(900.0);
    let campaigns = [
        Campaign::independent(duration),
        Campaign::solar_storm(duration),
    ];
    let render = || {
        use space_udc::par::json::ToJson;
        ChaosSummary::try_run_campaigns(&campaigns, duration, &[0, 2], 2, 99)
            .expect("grid must run")
            .to_json()
            .to_string_pretty()
    };
    assert_eq!(render(), render());
}

#[test]
fn spares_to_recover_is_consistent_with_the_cells_it_summarizes() {
    let duration = Seconds::new(1800.0);
    let campaigns = [Campaign::independent(duration)];
    let s = ChaosSummary::try_run_campaigns(&campaigns, duration, &[0, 4, 16], 3, 7)
        .expect("grid must run");
    if let Some(needed) = s.spares_to_recover("independent", CLAIM4_AVAILABILITY_TARGET) {
        let cell = s
            .cell("independent", needed)
            .expect("reported spare count must exist");
        assert!(cell.availability >= CLAIM4_AVAILABILITY_TARGET);
        // Minimality: every smaller swept count stays below the target.
        for &smaller in s.spare_counts.iter().filter(|&&c| c < needed) {
            assert!(
                s.cell("independent", smaller)
                    .expect("swept cell")
                    .availability
                    < CLAIM4_AVAILABILITY_TARGET
            );
        }
    }
}
