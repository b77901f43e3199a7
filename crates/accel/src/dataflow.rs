//! Row-stationary dataflow access counting — the Timeloop role.
//!
//! For each layer we count, analytically, the actions at every level of the
//! storage hierarchy under a row-stationary mapping (Eyeriss):
//!
//! - **RF**: every MAC reads two operands and updates a partial sum in the
//!   PE register file;
//! - **Global buffers**: ifmap reads are multicast across the filters
//!   mapped in the x-dimension and reused across `K` kernel rows inside the
//!   RF; weight reads are reused across the output rows mapped in the
//!   y-dimension and across an output row (`OW`) inside the RF; partial
//!   sums spill at kernel granularity, inflated when the accumulation
//!   buffer cannot hold a full output-row working set;
//! - **DRAM**: each tensor moves at least once; whichever of the
//!   ifmap/weight tensors does not fit its buffer forces re-fetching of the
//!   other, and the model picks the cheaper loop order;
//! - **Leakage**: PEs burn static energy every cycle, and under-utilized
//!   arrays (layer shape smaller than the grid) stretch cycle counts —
//!   this is what makes *per-layer* accelerators beat a single global
//!   design.

use sudc_compute::networks::{Layer, Network};
use sudc_units::Joules;

use crate::design::AcceleratorConfig;
use crate::energy::EnergyTable;
use crate::mapping::{Engine, LoopOrder, Mapping, Schedule};

/// The temporal reuse pattern wired into the PE control.
///
/// Together with a spatial projection this forms a hardwired
/// [`Engine`]; the full mapping space (engine ×
/// software [`Schedule`]) lives in
/// [`crate::mapping`]. [`count_accesses_with`] evaluates the canonical
/// engine of a dataflow — the two points the pre-search model hardwired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Eyeriss-style row stationary: kernel rows held in PE register files,
    /// weights reused across an output row, ifmaps multicast across the
    /// filters mapped on the array.
    RowStationary,
    /// Weight stationary: weights pinned in the PE array; ifmap activations
    /// stream past and are broadcast across mapped filters. Favors layers
    /// with little weight reuse (1x1 convolutions, dense layers).
    WeightStationary,
}

impl Dataflow {
    /// Both mapping families.
    #[must_use]
    pub fn all() -> [Self; 2] {
        [Self::RowStationary, Self::WeightStationary]
    }
}

/// Bytes per activation/weight word (16-bit).
const WORD_BYTES: f64 = 2.0;
/// Bytes per partial sum (32-bit accumulator).
pub(crate) const PSUM_BYTES: f64 = 4.0;

/// Detailed action counts for one layer on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCounts {
    /// Multiply-accumulates.
    pub macs: f64,
    /// PE register-file accesses.
    pub rf_accesses: f64,
    /// NoC word transfers.
    pub noc_transfers: f64,
    /// Global-buffer accesses (ifmap + weight + psum).
    pub glb_accesses: f64,
    /// DRAM word transfers.
    pub dram_words: f64,
    /// The portion of `dram_words` that is multi-pass re-fetch of a
    /// streaming tensor (as opposed to compulsory first-touch traffic).
    /// Re-fetch is strided re-streaming with poor row-buffer locality,
    /// so the energy table may charge it a premium per word.
    pub dram_refetch_words: f64,
    /// Execution cycles (one MAC per PE per cycle, utilization-limited).
    pub cycles: f64,
    /// Fraction of PEs doing useful work.
    pub utilization: f64,
}

/// Counts the storage-hierarchy actions for `layer` on `config` under the
/// cheaper of the two canonical dataflows (see [`count_accesses_with`]).
#[must_use]
pub fn count_accesses(config: AcceleratorConfig, layer: &Layer) -> AccessCounts {
    let rs = count_accesses_with(config, layer, Dataflow::RowStationary);
    let ws = count_accesses_with(config, layer, Dataflow::WeightStationary);
    if ws.glb_accesses + ws.dram_words < rs.glb_accesses + rs.dram_words {
        ws
    } else {
        rs
    }
}

/// Counts the storage-hierarchy actions for `layer` on `config` under a
/// specific dataflow's *canonical* mapping: the filter-row spatial
/// projection, no output-row tiling, and the cheaper DRAM loop order —
/// exactly the two points of the mapping space the pre-search model
/// hardwired (asserted bit-identical in the tests below).
#[must_use]
pub fn count_accesses_with(
    config: AcceleratorConfig,
    layer: &Layer,
    dataflow: Dataflow,
) -> AccessCounts {
    let engine = Engine::canonical(dataflow);
    let at_order = |order| {
        count_accesses_mapped(
            config,
            layer,
            Mapping {
                engine,
                schedule: Schedule { order, ow_tile: 1 },
            },
        )
    };
    let wo = at_order(LoopOrder::WeightsOuter);
    let io = at_order(LoopOrder::IfmapOuter);
    // Loop order only moves DRAM traffic, so this reproduces the old
    // model's min-refetch term.
    if io.dram_words < wo.dram_words {
        io
    } else {
        wo
    }
}

/// Counts the storage-hierarchy actions for `layer` on `config` under an
/// arbitrary point of the mapping space — the generalization of
/// [`count_accesses_with`] the per-layer search sweeps.
#[must_use]
pub fn count_accesses_mapped(
    config: AcceleratorConfig,
    layer: &Layer,
    mapping: Mapping,
) -> AccessCounts {
    let macs = layer.macs() as f64;
    let k = f64::from(layer.kernel).max(1.0);
    let out_w = f64::from(layer.output_w()).max(1.0);
    let out_h = f64::from(layer.output_h()).max(1.0);
    let out_c = f64::from(layer.out_channels).max(1.0);

    // Spatial projection: the engine decides how layer parallelism lands
    // on the grid. Dimension quantization matters: a 28-wide axis running
    // a 64-filter layer needs ceil(64/28) = 3 passes, so the *effective*
    // parallelism is 64/3 = 21.3 — mismatched shapes waste cycles (and
    // therefore leakage), which is what per-layer specialization recovers.
    let (m_par, row_par) = mapping.engine.spatial.parallelism(config, out_c, out_h);
    let utilization = (m_par * row_par) / f64::from(config.pes());

    // RF traffic: two operand reads plus one accumulator update per MAC.
    let rf_accesses = 3.0 * macs;

    // Output-row tiling: processing each output row in `t` segments
    // shrinks the psum working set by `t` but forfeits cross-segment
    // array-level reuse — weights re-fetch per segment under RS, ifmap
    // halo columns re-read under WS.
    let t_eff = f64::from(mapping.schedule.ow_tile).min(out_w);
    let tile_w = out_w / t_eff;

    // Global-buffer traffic with RF- and array-level reuse, per dataflow.
    let (glb_ifmap, glb_weight) = match mapping.engine.dataflow {
        // RS: ifmaps reused across k kernel rows in the RF and multicast to
        // m_par filters; weights reused along a tile of an output row and
        // across the row_par output rows mapped on the array.
        Dataflow::RowStationary => (macs / (m_par * k), macs / (row_par * tile_w)),
        // WS: weights pinned in PEs stream from the buffer exactly once —
        // multi-pass re-fetch happens at the DRAM level, where the loop
        // order charges it (formerly an always-1.0 pass factor here).
        // Ifmap activations stream once per kernel window, with k-1
        // overlap columns re-read at every tile seam.
        Dataflow::WeightStationary => {
            let weights = layer.weights() as f64;
            let halo = 1.0 + (t_eff - 1.0) * (k - 1.0) / out_w;
            ((macs / m_par) * halo, weights)
        }
    };
    // Partial sums leave the RF once per kernel-row accumulation; if the
    // psum buffer cannot hold one output-row tile for every mapped filter
    // the spill factor grows.
    let psum_working_set = tile_w * m_par * PSUM_BYTES;
    let psum_capacity = f64::from(config.psum_kib) * 1024.0;
    let psum_spill = (psum_working_set / psum_capacity).max(1.0);
    let glb_psum = 2.0 * macs / (k * k) * psum_spill;
    let glb_accesses = glb_ifmap + glb_weight + glb_psum;

    // NoC transfers mirror buffer-to-array traffic.
    let noc_transfers = glb_ifmap + glb_weight;

    // DRAM: every tensor at least once, plus the loop order's re-fetch.
    let (dram_words, dram_refetch_words) = dram_traffic(config, layer, mapping.schedule.order);

    // Cycles: utilization-limited MAC issue.
    let cycles = macs / (m_par * row_par);

    AccessCounts {
        macs,
        rf_accesses,
        noc_transfers,
        glb_accesses,
        dram_words,
        dram_refetch_words,
        cycles,
        utilization,
    }
}

/// DRAM traffic of `layer` on `config` under a loop order, in words:
/// `(total, re-fetch)`. Every tensor moves at least once; the outer loop's
/// resident tensor forces re-fetching of the streaming one once per
/// resident tile beyond the first. Engine- and tile-independent, so the
/// mapping search computes it once per `(config, shape)`.
pub(crate) fn dram_traffic(
    config: AcceleratorConfig,
    layer: &Layer,
    order: LoopOrder,
) -> (f64, f64) {
    let ifmap_bytes = layer.input_activations() as f64 * WORD_BYTES;
    let weight_bytes = layer.weights() as f64 * WORD_BYTES;
    let output_bytes = layer.output_activations() as f64 * WORD_BYTES;
    let ifmap_passes = (ifmap_bytes / (f64::from(config.ifmap_kib) * 1024.0))
        .ceil()
        .max(1.0);
    let weight_passes = (weight_bytes / (f64::from(config.weight_kib) * 1024.0))
        .ceil()
        .max(1.0);
    let refetch = match order {
        LoopOrder::WeightsOuter => ifmap_bytes * (weight_passes - 1.0),
        LoopOrder::IfmapOuter => weight_bytes * (ifmap_passes - 1.0),
    };
    let dram_bytes = ifmap_bytes + weight_bytes + output_bytes + refetch;
    (dram_bytes / WORD_BYTES, refetch / WORD_BYTES)
}

/// Energy for one inference of `layer` on `config`.
///
/// # Examples
///
/// ```
/// use sudc_accel::dataflow::layer_energy;
/// use sudc_accel::design::AcceleratorConfig;
/// use sudc_accel::energy::EnergyTable;
/// use sudc_compute::networks::Layer;
///
/// let layer = Layer::conv(56, 56, 64, 128, 3, 1);
/// let e = layer_energy(AcceleratorConfig::reference(), &EnergyTable::eyeriss_45nm(), &layer);
/// assert!(e.value() > 0.0);
/// ```
#[must_use]
pub fn layer_energy(config: AcceleratorConfig, table: &EnergyTable, layer: &Layer) -> Joules {
    let c = count_accesses(config, layer);
    let glb_pj = table.glb_access_pj(f64::from(config.total_buffer_kib()));
    Joules::new(picojoules_of(config, table, glb_pj, &c) * 1e-12)
}

/// Energy of a set of access counts on a design, picojoules — the one
/// formula every energy path (canonical, mapped, sweep, pruning floor)
/// shares. `glb_pj` is the config's buffer access energy, hoisted out so
/// the sweep computes the square root once per config.
#[must_use]
pub fn picojoules_of(
    config: AcceleratorConfig,
    table: &EnergyTable,
    glb_pj: f64,
    c: &AccessCounts,
) -> f64 {
    // NoC hop energy grows with array extent (wire length).
    let wire_scale = f64::from(config.pe_x.max(config.pe_y)) / 16.0;
    // Re-fetch words cost a row-buffer-locality premium in both energy
    // and effective bandwidth.
    let dram_eff = table.dram_effective_words(c.dram_words, c.dram_refetch_words);
    // Roofline: a memory-bound layer stalls the array for the full DRAM
    // transfer, and the whole design leaks for that long — re-fetch from
    // an undersized buffer costs access energy *and* stall time.
    let wall_cycles = c.cycles.max(dram_eff / table.dram_words_per_cycle);
    c.macs * table.mac_pj
        + c.rf_accesses * table.rf_pj
        + c.noc_transfers * table.noc_pj * wire_scale
        + c.glb_accesses * glb_pj
        + dram_eff * table.dram_pj
        + wall_cycles
            * table.leakage_pj_per_cycle(
                f64::from(config.pes()),
                f64::from(config.total_buffer_kib()),
            )
}

/// Energy for one inference of a whole network on `config` (the pipelined
/// per-layer designs of Fig. 18 sum layer energies the same way; pipelining
/// changes latency, not energy).
#[must_use]
pub fn network_energy(config: AcceleratorConfig, table: &EnergyTable, network: &Network) -> Joules {
    network
        .layers
        .iter()
        .map(|l| layer_energy(config, table, l))
        .sum()
}

/// Energy-efficiency of a layer on a config, MACs per joule (higher is
/// better) — the quantity whose geometric mean drives design selection.
#[must_use]
pub fn layer_efficiency(config: AcceleratorConfig, table: &EnergyTable, layer: &Layer) -> f64 {
    let e = layer_energy(config, table, layer);
    layer.macs() as f64 / e.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_compute::networks::NetworkId;

    fn table() -> EnergyTable {
        EnergyTable::eyeriss_45nm()
    }

    #[test]
    fn energy_is_positive_for_all_layers_of_all_networks() {
        let cfg = AcceleratorConfig::reference();
        for id in NetworkId::all() {
            for layer in &id.network().layers {
                let e = layer_energy(cfg, &table(), layer);
                assert!(e.value() > 0.0 && e.is_finite());
            }
        }
    }

    #[test]
    fn network_energy_is_sum_of_layers() {
        let cfg = AcceleratorConfig::reference();
        let net = NetworkId::ResNet50.network();
        let total = network_energy(cfg, &table(), &net);
        let sum: Joules = net
            .layers
            .iter()
            .map(|l| layer_energy(cfg, &table(), l))
            .sum();
        assert!((total - sum).abs() < Joules::new(1e-12));
    }

    #[test]
    fn utilization_is_a_fraction() {
        let cfg = AcceleratorConfig::reference();
        for layer in &NetworkId::UNet.network().layers {
            let c = count_accesses(cfg, layer);
            assert!(c.utilization > 0.0 && c.utilization <= 1.0);
        }
    }

    #[test]
    fn small_layers_underutilize_big_arrays() {
        let big = AcceleratorConfig {
            pe_x: 28,
            pe_y: 32,
            ..AcceleratorConfig::reference()
        };
        // A 1x1x16-channel layer cannot fill 28 columns.
        let tiny = Layer::conv(32, 32, 128, 16, 1, 1);
        let c = count_accesses(big, &tiny);
        assert!(c.utilization < 0.6);
    }

    #[test]
    fn fc_layers_get_no_weight_reuse() {
        let cfg = AcceleratorConfig::reference();
        let fc = Layer::dense(2048, 1000);
        let c = count_accesses(cfg, &fc);
        // Every weight must be fetched at least once from the buffer.
        assert!(c.glb_accesses >= fc.weights() as f64);
    }

    #[test]
    fn bigger_weight_buffer_reduces_dram_refetch() {
        let small = AcceleratorConfig {
            weight_kib: 16,
            ..AcceleratorConfig::reference()
        };
        let big = AcceleratorConfig {
            weight_kib: 128,
            ..AcceleratorConfig::reference()
        };
        // A weight-heavy layer that exceeds 16 KiB of weights.
        let layer = Layer::conv(14, 14, 512, 512, 3, 1);
        let c_small = count_accesses(small, &layer);
        let c_big = count_accesses(big, &layer);
        assert!(c_big.dram_words <= c_small.dram_words);
    }

    #[test]
    fn accelerator_energy_per_mac_is_a_few_picojoules() {
        let cfg = AcceleratorConfig::reference();
        let net = NetworkId::ResNet50.network();
        let e = network_energy(cfg, &table(), &net);
        let pj_per_mac = e.value() * 1e12 / net.total_macs() as f64;
        assert!(
            pj_per_mac > 3.0 && pj_per_mac < 40.0,
            "expected single-digit-to-tens pJ/MAC, got {pj_per_mac}"
        );
    }

    #[test]
    fn weight_stationary_wins_on_pointwise_convolutions() {
        // 1x1 convs have no kernel-row reuse for RS to exploit, while WS
        // fetches each weight exactly once.
        let cfg = AcceleratorConfig::reference();
        let pointwise = Layer::conv(56, 56, 256, 64, 1, 1);
        let rs = count_accesses_with(cfg, &pointwise, Dataflow::RowStationary);
        let ws = count_accesses_with(cfg, &pointwise, Dataflow::WeightStationary);
        assert!(ws.glb_accesses < rs.glb_accesses);
        let chosen = count_accesses(cfg, &pointwise);
        assert!((chosen.glb_accesses - ws.glb_accesses).abs() < 1.0);
    }

    #[test]
    fn row_stationary_wins_on_large_kernel_convolutions() {
        let cfg = AcceleratorConfig::reference();
        let spatial = Layer::conv(112, 112, 64, 64, 7, 1);
        let rs = count_accesses_with(cfg, &spatial, Dataflow::RowStationary);
        let ws = count_accesses_with(cfg, &spatial, Dataflow::WeightStationary);
        assert!(rs.glb_accesses < ws.glb_accesses);
    }

    #[test]
    fn mapper_choice_never_exceeds_either_dataflow() {
        let cfg = AcceleratorConfig::reference();
        for layer in &NetworkId::DenseNet121.network().layers {
            let best = count_accesses(cfg, layer);
            for df in Dataflow::all() {
                let fixed = count_accesses_with(cfg, layer, df);
                assert!(
                    best.glb_accesses + best.dram_words
                        <= fixed.glb_accesses + fixed.dram_words + 1e-9
                );
            }
        }
    }

    /// The pre-mapping-search model, verbatim (including the
    /// algebraically-inert WS pass factor): the oracle proving the two
    /// canonical dataflows are *exact special cases* of the mapped model.
    fn legacy_counts(config: AcceleratorConfig, layer: &Layer, dataflow: Dataflow) -> AccessCounts {
        let macs = layer.macs() as f64;
        let k = f64::from(layer.kernel).max(1.0);
        let out_w = f64::from(layer.output_w()).max(1.0);
        let out_h = f64::from(layer.output_h()).max(1.0);
        let out_c = f64::from(layer.out_channels).max(1.0);
        let m_par = out_c / (out_c / f64::from(config.pe_x)).ceil();
        let row_par = out_h / (out_h / f64::from(config.pe_y)).ceil();
        let utilization = (m_par * row_par) / f64::from(config.pes());
        let rf_accesses = 3.0 * macs;
        let (glb_ifmap, glb_weight) = match dataflow {
            Dataflow::RowStationary => (macs / (m_par * k), macs / (row_par * out_w)),
            Dataflow::WeightStationary => {
                let weights = layer.weights() as f64;
                (
                    macs / m_par,
                    weights * (macs / (weights * out_w * out_h)).max(1.0),
                )
            }
        };
        let psum_working_set = out_w * m_par * PSUM_BYTES;
        let psum_capacity = f64::from(config.psum_kib) * 1024.0;
        let psum_spill = (psum_working_set / psum_capacity).max(1.0);
        let glb_psum = 2.0 * macs / (k * k) * psum_spill;
        let glb_accesses = glb_ifmap + glb_weight + glb_psum;
        let noc_transfers = glb_ifmap + glb_weight;
        let ifmap_bytes = layer.input_activations() as f64 * WORD_BYTES;
        let weight_bytes = layer.weights() as f64 * WORD_BYTES;
        let output_bytes = layer.output_activations() as f64 * WORD_BYTES;
        let ifmap_passes = (ifmap_bytes / (f64::from(config.ifmap_kib) * 1024.0))
            .ceil()
            .max(1.0);
        let weight_passes = (weight_bytes / (f64::from(config.weight_kib) * 1024.0))
            .ceil()
            .max(1.0);
        let refetch =
            (ifmap_bytes * (weight_passes - 1.0)).min(weight_bytes * (ifmap_passes - 1.0));
        let dram_bytes = ifmap_bytes + weight_bytes + output_bytes + refetch;
        let dram_words = dram_bytes / WORD_BYTES;
        let cycles = macs / (m_par * row_par);
        AccessCounts {
            macs,
            rf_accesses,
            noc_transfers,
            glb_accesses,
            dram_words,
            dram_refetch_words: refetch / WORD_BYTES,
            cycles,
            utilization,
        }
    }

    #[test]
    fn canonical_dataflows_are_exact_special_cases_of_the_mapped_model() {
        let configs = [
            AcceleratorConfig::reference(),
            AcceleratorConfig {
                pe_x: 28,
                pe_y: 4,
                ifmap_kib: 8,
                weight_kib: 8,
                psum_kib: 8,
            },
            AcceleratorConfig {
                pe_x: 4,
                pe_y: 32,
                ifmap_kib: 128,
                weight_kib: 128,
                psum_kib: 64,
            },
        ];
        for config in configs {
            for id in NetworkId::all() {
                for layer in &id.network().layers {
                    for df in Dataflow::all() {
                        let legacy = legacy_counts(config, layer, df);
                        let mapped = count_accesses_with(config, layer, df);
                        assert_eq!(mapped, legacy, "{df:?} on {layer:?} @ {config}");
                    }
                }
            }
        }
    }

    #[test]
    fn ws_glb_weight_is_exactly_one_pass_even_when_weights_exceed_the_buffer() {
        // 512×512×3×3 weights = 4.5 MiB ≫ any weight buffer in the space,
        // so the old "pass count" factor would be the natural place for
        // re-fetch inflation — but it was algebraically always 1.0
        // (macs = weights · out_w · out_h identically). The simplified
        // model pins GLB weight traffic to exactly one pass and charges
        // multi-pass re-fetch at the DRAM level via the loop order.
        let config = AcceleratorConfig {
            weight_kib: 8,
            ..AcceleratorConfig::reference()
        };
        let layer = Layer::conv(14, 14, 512, 512, 3, 1);
        assert!(layer.weights() as f64 * 2.0 > f64::from(config.weight_kib) * 1024.0);
        let ws = count_accesses_with(config, &layer, Dataflow::WeightStationary);
        let weights = layer.weights() as f64;
        // Canonical projection: m_par = quantized(out_c = 512, pe_x = 16).
        let m_par = 512.0 / (512.0_f64 / 16.0).ceil();
        // noc = glb_ifmap + glb_weight and glb_ifmap = macs / m_par here.
        let glb_weight = ws.noc_transfers - ws.macs / m_par;
        assert!(
            (glb_weight - weights).abs() <= 1e-6 * weights,
            "glb_weight {glb_weight} vs weights {weights}"
        );
        // The legacy expression agrees (its pass factor was inert).
        let legacy = legacy_counts(config, &layer, Dataflow::WeightStationary);
        assert_eq!(ws, legacy);
        // And the DRAM side *does* see the multi-pass cost.
        let compulsory =
            (layer.input_activations() + layer.weights() + layer.output_activations()) as f64;
        assert!(ws.dram_words > compulsory, "re-fetch must appear in DRAM");
    }

    #[test]
    fn output_row_tiling_trades_psum_spill_for_refetch() {
        // A wide layer with many mapped filters overflows a small psum
        // buffer; tiling the output row shrinks the working set (fewer
        // GLB psum spills) while inflating RS weight traffic.
        let config = AcceleratorConfig {
            psum_kib: 8,
            ..AcceleratorConfig::reference()
        };
        let layer = Layer::conv(112, 112, 64, 64, 3, 1);
        // Grid projection maps all 64 filters at once: the untiled psum
        // working set (112 · 64 · 4 B = 28 KiB) overflows the 8 KiB
        // buffer, while a 4-way tile (7 KiB) fits.
        let engine = Engine {
            dataflow: Dataflow::RowStationary,
            spatial: crate::mapping::SpatialMap::FilterGrid,
        };
        let at_tile = |t| {
            count_accesses_mapped(
                config,
                &layer,
                Mapping {
                    engine,
                    schedule: Schedule {
                        order: LoopOrder::WeightsOuter,
                        ow_tile: t,
                    },
                },
            )
        };
        let untiled = at_tile(1);
        let tiled = at_tile(4);
        assert!(tiled.noc_transfers > untiled.noc_transfers, "re-fetch cost");
        assert!(
            tiled.glb_accesses - tiled.noc_transfers < untiled.glb_accesses - untiled.noc_transfers,
            "psum spill benefit"
        );
        assert_eq!(tiled.cycles, untiled.cycles, "tiling is traffic-only");
    }

    #[test]
    fn efficiency_is_reciprocal_of_energy_per_mac() {
        let cfg = AcceleratorConfig::reference();
        let layer = Layer::conv(28, 28, 256, 256, 3, 1);
        let eff = layer_efficiency(cfg, &table(), &layer);
        let e = layer_energy(cfg, &table(), &layer);
        assert!((eff - layer.macs() as f64 / e.value()).abs() / eff < 1e-12);
    }
}
