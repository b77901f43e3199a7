//! Property tests for the per-layer mapping search.
//!
//! Two invariants hold the search to the pre-search model and to its own
//! unpruned reference:
//!
//! 1. **Search dominates the fixed dataflows.** The canonical RS and WS
//!    mappings are exact points of the searched space, so the best searched
//!    mapping can never cost more than either — on any layer of any
//!    Table III network, at any design point.
//! 2. **Pruning and hoisting are lossless.** The pruned search, which costs
//!    schedules from hoisted per-shape terms, must return results
//!    bit-identical to the exhaustive reference, which costs every schedule
//!    through `count_accesses_mapped` + `picojoules_of`: same winning
//!    schedule, same energy bits.
//!
//! Both properties draw the energy table from every table the figures cost
//! with: the default same-node table, the Eyeriss reference, and the four
//! precision-rescaled tables of Ext. E.
//!
//! Case counts honour `SUDC_PROPTEST_CASES` (see `.github/workflows/ci.yml`).

use proptest::prelude::*;
use sudc_accel::dataflow::{count_accesses_with, picojoules_of, Dataflow};
use sudc_accel::design::design_space;
use sudc_accel::energy::EnergyTable;
use sudc_accel::mapping::{best_schedule, best_schedule_unpruned, SearchCounters};
use sudc_accel::Engine;
use sudc_compute::networks::NetworkId;
use sudc_compute::precision::Precision;

fn cases() -> u32 {
    std::env::var("SUDC_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

/// The default table, the Eyeriss reference, then Ext. E's precisions.
fn table(idx: usize) -> EnergyTable {
    let precisions = Precision::all();
    match idx % (2 + precisions.len()) {
        0 => EnergyTable::default(),
        1 => EnergyTable::eyeriss_45nm(),
        i => EnergyTable::default().for_precision(precisions[i - 2]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Invariant 1: on every layer of every Table III network, the searched
    /// best mapping is at least as cheap as both canonical dataflows (the
    /// two points the pre-search model hardwired).
    #[test]
    fn searched_best_dominates_both_fixed_dataflows(
        config_idx in 0usize..7168, net_idx in 0usize..10, table_idx in 0usize..6,
    ) {
        let table = table(table_idx);
        let space = design_space();
        let config = space[config_idx % space.len()];
        let network = NetworkId::all()[net_idx % NetworkId::all().len()].network();
        let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
        for layer in &network.layers {
            let (best, _) = sudc_accel::mapping::best_mapping_energy(config, &table, layer);
            for dataflow in Dataflow::all() {
                let c = count_accesses_with(config, layer, dataflow);
                let fixed = picojoules_of(config, &table, glb_pj, &c) * 1e-12;
                prop_assert!(
                    best.value() <= fixed,
                    "search lost to fixed {dataflow:?} on {config}: {} > {fixed}",
                    best.value()
                );
            }
        }
    }

    /// Invariant 2: the pruned, hoisted search and the unpruned reference
    /// return bit-identical winners (schedule and energy) for every engine
    /// on every layer of a sampled network.
    #[test]
    fn pruned_search_matches_unpruned_reference(
        config_idx in 0usize..7168, net_idx in 0usize..10, table_idx in 0usize..6,
    ) {
        let table = table(table_idx);
        let space = design_space();
        let config = space[config_idx % space.len()];
        let network = NetworkId::all()[net_idx % NetworkId::all().len()].network();
        let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
        for layer in &network.layers {
            for engine in Engine::all() {
                let mut counters = SearchCounters::default();
                let pruned =
                    best_schedule(config, &table, glb_pj, layer, engine, &mut counters);
                let reference =
                    best_schedule_unpruned(config, &table, glb_pj, layer, engine);
                prop_assert_eq!(pruned.schedule, reference.schedule);
                prop_assert_eq!(pruned.picojoules.to_bits(), reference.picojoules.to_bits());
            }
        }
    }
}
