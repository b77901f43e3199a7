//! The per-layer mapping space — loop orders × output-row tilings ×
//! spatial projections × dataflows — and the pruned best-schedule search.
//!
//! Timeloop's advantage over a fixed-dataflow analytical model is mapping
//! choice. We split that choice along the hardware/software boundary:
//!
//! - an [`Engine`] (dataflow × spatial projection) is **silicon** — wired
//!   multicast trees and PE-local control. It is part of the design point:
//!   the DSE sweeps `config × engine`, and a global accelerator must commit
//!   to one engine for every layer it will ever run. This is what opens the
//!   Fig. 17 heterogeneity gap: no single engine is good at both
//!   spatially-rich convolutions and reuse-free dense layers.
//! - a [`Schedule`] (DRAM loop order × output-row tiling) is **software** —
//!   a compiler decision taken per layer on *any* engine. Every
//!   architecture, global included, gets the best schedule per layer, so
//!   the gap measures hardware specialization, not compiler quality.
//!
//! The schedule search is exhaustive over a tiny, shape-deduplicated
//! candidate list with an energy lower-bound prune: a schedule whose
//! MAC + leakage + DRAM + tiling-traffic floor already loses to the
//! incumbent is skipped without a full evaluation. Pruning is exact: the
//! floor is a sum of a subset of the exact evaluation's terms (guarded by
//! a relative margin for summation-order rounding), and ties keep the
//! earliest candidate in canonical order, so the pruned search returns
//! bit-identical winners to the unpruned reference — asserted by proptest.
//!
//! The search costs each candidate from terms hoisted per `(config,
//! shape)` and per engine, written with the cost model's own expressions
//! in its own summation order; only the tile-dependent terms are computed
//! per candidate. The unpruned reference costs every candidate through
//! [`count_accesses_mapped`] + [`picojoules_of`] instead, so the same
//! proptest holds pruning and hoisting bit-exact together.

use sudc_compute::networks::Layer;
use sudc_units::Joules;

use crate::dataflow::{count_accesses_mapped, dram_traffic, picojoules_of, Dataflow, PSUM_BYTES};
use crate::design::AcceleratorConfig;
use crate::energy::EnergyTable;

/// How the layer's parallel dimensions project onto the physical PE grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialMap {
    /// Output channels (filters) along x, output rows along y — the
    /// canonical Eyeriss projection the pre-mapping model hardwired.
    FilterRow,
    /// The transpose: output rows along x, filters along y. Rescues
    /// layers whose channel/row extents match the grid the other way.
    RowFilter,
    /// Output channels across the whole flattened array, no row
    /// parallelism — the matrix-engine projection that keeps reuse-free
    /// dense and pointwise layers fully utilized.
    FilterGrid,
}

impl SpatialMap {
    /// All spatial projections, in canonical order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::FilterRow, Self::RowFilter, Self::FilterGrid]
    }

    /// Effective parallelism `(m_par, row_par)` of a layer on a grid.
    /// Dimension quantization matters: a 28-wide axis running 64 filters
    /// needs `ceil(64/28) = 3` passes, so effective parallelism is
    /// `64/3 ≈ 21.3`.
    #[must_use]
    pub fn parallelism(self, config: AcceleratorConfig, out_c: f64, out_h: f64) -> (f64, f64) {
        let quantized = |dim: f64, pe: f64| dim / (dim / pe).ceil();
        match self {
            Self::FilterRow => (
                quantized(out_c, f64::from(config.pe_x)),
                quantized(out_h, f64::from(config.pe_y)),
            ),
            Self::RowFilter => (
                quantized(out_c, f64::from(config.pe_y)),
                quantized(out_h, f64::from(config.pe_x)),
            ),
            Self::FilterGrid => (quantized(out_c, f64::from(config.pes())), 1.0),
        }
    }
}

impl core::fmt::Display for SpatialMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::FilterRow => "filter-row",
            Self::RowFilter => "row-filter",
            Self::FilterGrid => "filter-grid",
        })
    }
}

/// Which tensor the outermost DRAM loop holds resident: the other tensor
/// is the one that streams (and re-streams, once per pass of the resident
/// tensor's tiles, when it does not fit its buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Weights tile in the outer loop; the ifmap re-streams once per
    /// weight tile beyond the first.
    WeightsOuter,
    /// Ifmap tiles in the outer loop; weights re-stream once per ifmap
    /// tile beyond the first.
    IfmapOuter,
}

impl LoopOrder {
    /// Both loop orders, in canonical order.
    #[must_use]
    pub fn all() -> [Self; 2] {
        [Self::WeightsOuter, Self::IfmapOuter]
    }
}

/// A hardwired mapping engine: dataflow × spatial projection. Part of the
/// design point (swept by the DSE alongside [`AcceleratorConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Engine {
    /// Temporal reuse pattern wired into the PE control.
    pub dataflow: Dataflow,
    /// Physical projection wired into the multicast network.
    pub spatial: SpatialMap,
}

/// Number of engines in the hardware mapping space.
pub const ENGINE_COUNT: usize = 6;

impl Engine {
    /// All engines, in canonical (dataflow-major) order. The sweep's
    /// tie-break resolves to the lowest index in this order.
    #[must_use]
    pub fn all() -> [Self; ENGINE_COUNT] {
        let mut out = [Self {
            dataflow: Dataflow::RowStationary,
            spatial: SpatialMap::FilterRow,
        }; ENGINE_COUNT];
        let mut i = 0;
        for dataflow in Dataflow::all() {
            for spatial in SpatialMap::all() {
                out[i] = Self { dataflow, spatial };
                i += 1;
            }
        }
        out
    }

    /// Index of this engine in [`Engine::all`].
    #[must_use]
    pub fn index(self) -> usize {
        let df = match self.dataflow {
            Dataflow::RowStationary => 0,
            Dataflow::WeightStationary => 1,
        };
        let sp = match self.spatial {
            SpatialMap::FilterRow => 0,
            SpatialMap::RowFilter => 1,
            SpatialMap::FilterGrid => 2,
        };
        df * SpatialMap::all().len() + sp
    }

    /// The engine the pre-mapping model hardwired for a dataflow.
    #[must_use]
    pub fn canonical(dataflow: Dataflow) -> Self {
        Self {
            dataflow,
            spatial: SpatialMap::FilterRow,
        }
    }
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let df = match self.dataflow {
            Dataflow::RowStationary => "RS",
            Dataflow::WeightStationary => "WS",
        };
        write!(f, "{df}/{}", self.spatial)
    }
}

/// Output-row tiling factors the scheduler may pick.
pub const OW_TILE_OPTIONS: [u32; 4] = [1, 2, 4, 8];

/// A software schedule: per-layer compiler decisions available on every
/// engine — the DRAM loop order and the output-row tiling factor (which
/// shrinks the psum working set at the price of extra weight re-fetch
/// under RS / ifmap halo re-reads under WS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Outermost DRAM loop.
    pub order: LoopOrder,
    /// Output-row tiling factor (1 = untiled, the canonical schedule).
    pub ow_tile: u32,
}

impl Schedule {
    /// All schedules in canonical (order-major, tile-ascending) order.
    #[must_use]
    pub fn all() -> [Self; 8] {
        let mut out = [Self {
            order: LoopOrder::WeightsOuter,
            ow_tile: 1,
        }; 8];
        let mut i = 0;
        for order in LoopOrder::all() {
            for ow_tile in OW_TILE_OPTIONS {
                out[i] = Self { order, ow_tile };
                i += 1;
            }
        }
        out
    }

    /// The untiled weights-outer schedule.
    #[must_use]
    pub fn canonical() -> Self {
        Self {
            order: LoopOrder::WeightsOuter,
            ow_tile: 1,
        }
    }
}

impl core::fmt::Display for Schedule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let order = match self.order {
            LoopOrder::WeightsOuter => "w-outer",
            LoopOrder::IfmapOuter => "i-outer",
        };
        write!(f, "{order}/t{}", self.ow_tile)
    }
}

/// One point of the full per-layer mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// The hardwired engine.
    pub engine: Engine,
    /// The software schedule.
    pub schedule: Schedule,
}

impl core::fmt::Display for Mapping {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} {}", self.engine, self.schedule)
    }
}

/// Schedule candidates for a layer shape, deduplicated: tiling factors
/// clamp at `out_w`, so factors beyond the first clamped one re-evaluate
/// an identical mapping and are dropped (a dense layer keeps only the two
/// loop orders).
#[must_use]
pub fn schedule_candidates(layer: &Layer) -> Vec<Schedule> {
    let out_w = f64::from(layer.output_w()).max(1.0);
    let mut out = Vec::with_capacity(8);
    for schedule in Schedule::all() {
        let t_eff = f64::from(schedule.ow_tile).min(out_w);
        let duplicate = out.last().is_some_and(|prev: &Schedule| {
            prev.order == schedule.order && f64::from(prev.ow_tile).min(out_w) >= t_eff
        });
        if !duplicate {
            out.push(schedule);
        }
    }
    out
}

/// Counters from one pruned schedule search (accumulated across the whole
/// sweep into [`crate::dse::SweepStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Schedules fully evaluated through the cost model.
    pub evaluated: u64,
    /// Schedules skipped by the energy lower bound.
    pub pruned: u64,
}

/// Relative margin on the pruning comparison: the floor is a sum of a
/// subset of the exact evaluation's terms, so it is mathematically a lower
/// bound, but f64 summation order can perturb it by ~1e-16 relative. A
/// 1e-9 guard keeps the prune sound (never discards a strict winner) at a
/// negligible cost in prune rate.
const PRUNE_MARGIN: f64 = 1.0 + 1e-9;

/// Result of a best-schedule search on one `(config, engine, layer)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleChoice {
    /// The winning schedule (earliest in canonical order on ties).
    pub schedule: Schedule,
    /// Its layer energy, picojoules.
    pub picojoules: f64,
}

impl ScheduleChoice {
    /// The winning energy in joules.
    #[must_use]
    pub fn energy(&self) -> Joules {
        Joules::new(self.picojoules * 1e-12)
    }
}

/// Exhaustive-with-pruning search for the cheapest schedule of `layer` on
/// `config` under `engine`.
///
/// `glb_pj` is the config's buffer access energy
/// ([`EnergyTable::glb_access_pj`]), hoisted out by the sweep; pass
/// `table.glb_access_pj(config.total_buffer_kib() as f64)` when calling
/// standalone.
#[must_use]
pub fn best_schedule(
    config: AcceleratorConfig,
    table: &EnergyTable,
    glb_pj: f64,
    layer: &Layer,
    engine: Engine,
    counters: &mut SearchCounters,
) -> ScheduleChoice {
    let cost = ShapeCost::new(config, table, glb_pj, layer);
    search(&cost, engine, &schedule_candidates(layer), counters)
}

/// The unpruned reference search: costs every candidate through the
/// documented model ([`count_accesses_mapped`] + [`picojoules_of`]), not
/// through the hoisted kernel. [`best_schedule`] must return bit-identical
/// results; the accel proptests hold pruning and hoisting to it together.
#[must_use]
pub fn best_schedule_unpruned(
    config: AcceleratorConfig,
    table: &EnergyTable,
    glb_pj: f64,
    layer: &Layer,
    engine: Engine,
) -> ScheduleChoice {
    let mut best: Option<ScheduleChoice> = None;
    for schedule in schedule_candidates(layer) {
        let counts = count_accesses_mapped(config, layer, Mapping { engine, schedule });
        let picojoules = picojoules_of(config, table, glb_pj, &counts);
        if best.is_none_or(|b| picojoules < b.picojoules) {
            best = Some(ScheduleChoice {
                schedule,
                picojoules,
            });
        }
    }
    best.expect("schedule_candidates is never empty")
}

/// The schedule- and engine-independent terms of the cost model for one
/// layer shape on one configuration, built once per `(config, shape)` and
/// shared by every engine's [`search`]. Each field is the exact
/// subexpression [`count_accesses_mapped`] + [`picojoules_of`] (or the
/// prune floor) compute, so hoisting it changes no bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShapeCost {
    config: AcceleratorConfig,
    noc_pj: f64,
    glb_pj: f64,
    macs: f64,
    k: f64,
    out_w: f64,
    out_h: f64,
    out_c: f64,
    weights: f64,
    /// MAC + RF energy, the head of both the exact sum and the floor.
    head_pj: f64,
    psum_capacity: f64,
    /// `2·macs/k²`: buffer psum accesses per unit of spill.
    psum_per_spill: f64,
    /// DRAM energy per loop order.
    dram_pj: [f64; 2],
    /// Memory-bound cycles per loop order as the floor writes them
    /// (`dram_pj / dram_pj / words_per_cycle`).
    floor_mem_cycles: [f64; 2],
    /// Memory-bound cycles per loop order as the exact model writes them
    /// (`effective words / words_per_cycle`).
    exact_mem_cycles: [f64; 2],
    leak_pj_per_cycle: f64,
    /// NoC hop energy scale with array extent (wire length).
    wire_scale: f64,
}

impl ShapeCost {
    pub(crate) fn new(
        config: AcceleratorConfig,
        table: &EnergyTable,
        glb_pj: f64,
        layer: &Layer,
    ) -> Self {
        let macs = layer.macs() as f64;
        let k = f64::from(layer.kernel).max(1.0);
        let dram_words = LoopOrder::all().map(|order| {
            let (words, refetch) = dram_traffic(config, layer, order);
            table.dram_effective_words(words, refetch)
        });
        let dram_pj = dram_words.map(|words| words * table.dram_pj);
        Self {
            config,
            noc_pj: table.noc_pj,
            glb_pj,
            macs,
            k,
            out_w: f64::from(layer.output_w()).max(1.0),
            out_h: f64::from(layer.output_h()).max(1.0),
            out_c: f64::from(layer.out_channels).max(1.0),
            weights: layer.weights() as f64,
            head_pj: macs * table.mac_pj + 3.0 * macs * table.rf_pj,
            psum_capacity: f64::from(config.psum_kib) * 1024.0,
            psum_per_spill: 2.0 * macs / (k * k),
            dram_pj,
            floor_mem_cycles: dram_pj.map(|pj| pj / table.dram_pj / table.dram_words_per_cycle),
            exact_mem_cycles: dram_words.map(|words| words / table.dram_words_per_cycle),
            leak_pj_per_cycle: table.leakage_pj_per_cycle(
                f64::from(config.pes()),
                f64::from(config.total_buffer_kib()),
            ),
            wire_scale: f64::from(config.pe_x.max(config.pe_y)) / 16.0,
        }
    }
}

/// The sweep's hot kernel: the pruned best-schedule search on one engine,
/// costed from the shape's hoisted invariants ([`ShapeCost`]).
///
/// Per engine it computes only the spatial parallelism, the cycle count
/// and, per loop order, the wall-clock leakage of the floor and of the
/// exact cost. Per candidate it computes only the tile-dependent terms:
/// the tiling traffic term (RS weight re-fetch `macs / (row_par·tile_w)`,
/// WS ifmap halo `(macs/m_par)·halo`) — one value that is both the prune
/// floor's tiling term and the exact cost's glb term — and the psum
/// spill. Every expression and summation order is the one
/// [`count_accesses_mapped`] + [`picojoules_of`] write, so each energy is
/// bit-identical to [`best_schedule_unpruned`]'s.
pub(crate) fn search(
    cost: &ShapeCost,
    engine: Engine,
    candidates: &[Schedule],
    counters: &mut SearchCounters,
) -> ScheduleChoice {
    let macs = cost.macs;
    let (m_par, row_par) = engine
        .spatial
        .parallelism(cost.config, cost.out_c, cost.out_h);
    let cycles = macs / (m_par * row_par);
    // The buffer term tiling leaves alone: RS ifmap, WS weights.
    let fixed_glb = match engine.dataflow {
        Dataflow::RowStationary => macs / (m_par * cost.k),
        Dataflow::WeightStationary => cost.weights,
    };
    let ws_ifmap = macs / m_par;

    // Per loop order: wall-clock cycles are compute- or memory-bound,
    // whichever binds, and DRAM traffic is tile-independent. The floor
    // keeps its own memory term, so its schedule-independent part is
    // MAC + RF + DRAM + leakage, summed in the floor's order.
    let floor_by_order = [0, 1].map(|o| {
        cost.head_pj
            + cost.dram_pj[o]
            + cycles.max(cost.floor_mem_cycles[o]) * cost.leak_pj_per_cycle
    });
    let leak_by_order = cost
        .exact_mem_cycles
        .map(|mem_cycles| cycles.max(mem_cycles) * cost.leak_pj_per_cycle);

    let mut best: Option<ScheduleChoice> = None;
    for &schedule in candidates {
        let oi = match schedule.order {
            LoopOrder::WeightsOuter => 0,
            LoopOrder::IfmapOuter => 1,
        };
        let t_eff = f64::from(schedule.ow_tile).min(cost.out_w);
        let tile_w = cost.out_w / t_eff;
        // The term that *grows* with the tile factor: weight re-fetch
        // under RS, ifmap halo under WS.
        let tile_term = match engine.dataflow {
            Dataflow::RowStationary => macs / (row_par * tile_w),
            Dataflow::WeightStationary => {
                ws_ifmap * (1.0 + (t_eff - 1.0) * (cost.k - 1.0) / cost.out_w)
            }
        };
        if let Some(incumbent) = best {
            let floor = floor_by_order[oi] + tile_term * cost.glb_pj;
            if floor >= incumbent.picojoules * PRUNE_MARGIN {
                counters.pruned += 1;
                continue;
            }
        }
        // glb_ifmap + glb_weight, in the model's operand order.
        let noc_transfers = match engine.dataflow {
            Dataflow::RowStationary => fixed_glb + tile_term,
            Dataflow::WeightStationary => tile_term + fixed_glb,
        };
        let psum_spill = (tile_w * m_par * PSUM_BYTES / cost.psum_capacity).max(1.0);
        let glb_accesses = noc_transfers + cost.psum_per_spill * psum_spill;
        let picojoules = cost.head_pj
            + noc_transfers * cost.noc_pj * cost.wire_scale
            + glb_accesses * cost.glb_pj
            + cost.dram_pj[oi]
            + leak_by_order[oi];
        counters.evaluated += 1;
        // Strictly-less keeps the earliest candidate on ties, matching the
        // unpruned reference.
        if best.is_none_or(|b| picojoules < b.picojoules) {
            best = Some(ScheduleChoice {
                schedule,
                picojoules,
            });
        }
    }
    best.expect("schedule_candidates is never empty")
}

/// Energy of `layer` on `config` hardwired to `engine`, with the best
/// software schedule — the quantity the DSE's geomean scoring consumes.
#[must_use]
pub fn engine_layer_energy(
    config: AcceleratorConfig,
    engine: Engine,
    table: &EnergyTable,
    layer: &Layer,
) -> Joules {
    let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
    let mut c = SearchCounters::default();
    best_schedule(config, table, glb_pj, layer, engine, &mut c).energy()
}

/// Energy of one inference of `network` on `config` hardwired to `engine`,
/// best schedule per layer — how the DSE costs a committed design point on
/// a whole workload.
#[must_use]
pub fn engine_network_energy(
    config: AcceleratorConfig,
    engine: Engine,
    table: &EnergyTable,
    network: &sudc_compute::networks::Network,
) -> Joules {
    let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
    let mut c = SearchCounters::default();
    network
        .layers
        .iter()
        .map(|layer| best_schedule(config, table, glb_pj, layer, engine, &mut c).energy())
        .sum()
}

/// Energy of `layer` with full mapping freedom (best engine × schedule) —
/// what a per-layer design gets to exploit.
#[must_use]
pub fn best_mapping_energy(
    config: AcceleratorConfig,
    table: &EnergyTable,
    layer: &Layer,
) -> (Joules, Mapping) {
    let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
    let cost = ShapeCost::new(config, table, glb_pj, layer);
    let candidates = schedule_candidates(layer);
    let mut c = SearchCounters::default();
    let mut best: Option<(f64, Mapping)> = None;
    for engine in Engine::all() {
        let choice = search(&cost, engine, &candidates, &mut c);
        if best.is_none_or(|(pj, _)| choice.picojoules < pj) {
            best = Some((
                choice.picojoules,
                Mapping {
                    engine,
                    schedule: choice.schedule,
                },
            ));
        }
    }
    let (pj, mapping) = best.expect("Engine::all is never empty");
    (Joules::new(pj * 1e-12), mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_compute::networks::NetworkId;

    #[test]
    fn engine_indices_match_canonical_order() {
        for (i, engine) in Engine::all().into_iter().enumerate() {
            assert_eq!(engine.index(), i);
        }
    }

    #[test]
    fn dense_layers_collapse_the_tile_ladder() {
        let dense = Layer::dense(2048, 1000);
        let cands = schedule_candidates(&dense);
        assert_eq!(cands.len(), 2, "one per loop order");
        assert!(cands.iter().all(|s| s.ow_tile == 1));
        let conv = Layer::conv(56, 56, 64, 128, 3, 1);
        assert_eq!(schedule_candidates(&conv).len(), 8);
        let narrow = Layer::conv(4, 4, 256, 256, 3, 1);
        // out_w = 4: t = 8 clamps to 4 and is dropped.
        assert_eq!(schedule_candidates(&narrow).len(), 6);
    }

    #[test]
    fn filter_grid_keeps_dense_layers_utilized() {
        let config = AcceleratorConfig::reference();
        let dense = Layer::dense(2048, 1000);
        let out_c = f64::from(dense.out_channels);
        let (fr_m, fr_r) = SpatialMap::FilterRow.parallelism(config, out_c, 1.0);
        let (fg_m, fg_r) = SpatialMap::FilterGrid.parallelism(config, out_c, 1.0);
        let pes = f64::from(config.pes());
        assert!(fr_m * fr_r / pes < 0.1, "row projection starves dense");
        assert!(fg_m * fg_r / pes > 0.9, "grid projection fills the array");
    }

    #[test]
    fn pruned_search_matches_unpruned_on_the_suite() {
        let table = EnergyTable::default();
        for config in [
            AcceleratorConfig::reference(),
            AcceleratorConfig {
                pe_x: 28,
                pe_y: 4,
                ifmap_kib: 8,
                weight_kib: 8,
                psum_kib: 8,
            },
        ] {
            let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
            for layer in &NetworkId::ResNet50.network().layers {
                for engine in Engine::all() {
                    let mut c = SearchCounters::default();
                    let pruned = best_schedule(config, &table, glb_pj, layer, engine, &mut c);
                    let full = best_schedule_unpruned(config, &table, glb_pj, layer, engine);
                    assert_eq!(pruned, full, "{engine} on {layer:?}");
                }
            }
        }
    }

    #[test]
    fn pruning_actually_fires() {
        let table = EnergyTable::default();
        let config = AcceleratorConfig::reference();
        let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
        let mut c = SearchCounters::default();
        for layer in &NetworkId::ResNet50.network().layers {
            for engine in Engine::all() {
                let _ = best_schedule(config, &table, glb_pj, layer, engine, &mut c);
            }
        }
        assert!(c.pruned > 0, "no schedules pruned across ResNet-50");
        assert!(c.evaluated > 0);
    }

    #[test]
    fn best_mapping_is_at_least_as_good_as_any_engine() {
        let table = EnergyTable::default();
        let config = AcceleratorConfig::reference();
        let layer = Layer::conv(28, 28, 256, 256, 3, 1);
        let (best, _) = best_mapping_energy(config, &table, &layer);
        for engine in Engine::all() {
            assert!(best <= engine_layer_energy(config, engine, &table, &layer));
        }
    }
}
