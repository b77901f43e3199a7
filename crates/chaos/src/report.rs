//! The resilience report: a campaign × spare-count × replication grid.
//!
//! Every cell of the grid runs the same reference operations scenario —
//! same traffic, same seeds — under a different fault campaign and cold-
//! spare count. Replication `r` uses one seed across *every* cell (common
//! random numbers), so a cell-to-cell difference is the effect of the
//! campaign or the spares, never sampling noise from different draws.
//!
//! Each distinct history is simulated once. A cold spare draws nothing
//! and schedules nothing until it is popped, so a run that never popped
//! more than `S` spares is also the `S`-spare run. One job per
//! `(campaign, rep)` walks the spare ladder from the largest count down,
//! reruns the kernel only for a rung whose pool the last run would have
//! drained, and hands the other rungs the last run's trace by index. The
//! jobs form one `sudc_par::par_map` batch whose results come back in
//! input order, and each job is a pure function of
//! `(campaign, spare counts, rep, base_seed)`, so the aggregated
//! [`ChaosSummary`] is byte-identical at any thread count.

use sudc_core::dynamics::DynamicScenario;
use sudc_core::tco::TcoLine;
use sudc_core::Scenario;
use sudc_errors::{Diagnostics, SudcError};
use sudc_par::json::{Json, ToJson};
use sudc_par::rng::Rng64;
use sudc_sim::{RunTrace, SimConfig};
use sudc_sscm::subsystems::Subsystem;
use sudc_units::Seconds;

use crate::campaign::Campaign;

/// The availability the paper's claim #4 (near-zero-cost overprovisioning)
/// promises: the overprovisioned pool keeps full capability essentially
/// the whole mission. The report quantifies the cold spares each campaign
/// needs to hold SLA availability at or above this target.
pub const CLAIM4_AVAILABILITY_TARGET: f64 = 0.99;

/// Dormant-spare aging rate used by every grid cell (the paper's cold
/// spares are powered off; 10% residual aging is the workspace default).
const DORMANT_AGING: f64 = 0.1;

/// One cell of the grid: one campaign at one spare count, aggregated over
/// all replications.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Campaign name ([`Campaign::name`]).
    pub campaign: &'static str,
    /// Cold spares installed over the required node count.
    pub spares: u32,
    /// Mean fraction of arrived work delivered to the ground.
    pub delivered_fraction: f64,
    /// Mean fraction of the run at full capability (the SLA availability).
    pub availability: f64,
    /// Fraction of replications still at full capability at run end.
    pub end_full_fraction: f64,
    /// Mean capture → ground p99 latency, seconds, over replications that
    /// delivered anything; 0 when none did.
    pub delivery_p99_s: f64,
    /// Mean time-average downlink backlog.
    pub mean_downlink_backlog: f64,
    /// Mean delivered insights per simulated hour.
    pub delivered_per_hour: f64,
    /// Upset-corrupted processings, summed over replications.
    pub corrupted: u64,
    /// Retry attempts scheduled, summed.
    pub retries: u64,
    /// Images abandoned after exhausting the retry budget, summed.
    pub retry_exhausted: u64,
    /// Images shed by queue bounds or freshness deadlines, summed.
    pub shed: u64,
    /// Nodes destroyed by storm latch-ups, summed.
    pub storm_node_kills: u64,
    /// ISL link-down transitions, summed.
    pub isl_flaps: u64,
    /// Ground-contact windows lost to blackouts, summed.
    pub blackout_windows: u64,
    /// Mission TCO (reference design + this cell's spares priced at the
    /// per-node compute-payload share) per delivered insight, USD, using
    /// the cell's delivery rate extrapolated over the design lifetime.
    /// Infinite when the cell delivers nothing — the cost of a dead
    /// pipeline is unbounded, which is the point.
    pub tco_per_insight_usd: f64,
}

/// The full resilience report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSummary {
    /// Simulated span of every run, seconds.
    pub duration_s: f64,
    /// Replications per cell.
    pub reps: u32,
    /// Spare counts swept, in grid order.
    pub spare_counts: Vec<u32>,
    /// All cells, campaign-major in [`Campaign::suite`] order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosSummary {
    /// Runs the standard campaign suite over `spare_counts` with `reps`
    /// replications per cell.
    ///
    /// # Panics
    ///
    /// Panics on invalid grid parameters (see [`ChaosSummary::try_run`]).
    #[must_use]
    pub fn run(duration: Seconds, spare_counts: &[u32], reps: u32, base_seed: u64) -> Self {
        match Self::try_run(duration, spare_counts, reps, base_seed) {
            Ok(summary) => summary,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`ChaosSummary::run`]: validates the grid and
    /// every campaign-applied configuration before launching any work.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `duration` is not positive,
    /// `spare_counts` is empty, `reps` is zero, any faulted configuration
    /// fails [`SimConfig::try_validate`], or the reference TCO pipeline
    /// fails.
    pub fn try_run(
        duration: Seconds,
        spare_counts: &[u32],
        reps: u32,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        Self::try_run_campaigns(
            &Campaign::suite(duration),
            duration,
            spare_counts,
            reps,
            base_seed,
        )
    }

    /// Runs an explicit campaign list instead of the standard suite — the
    /// workhorse behind [`ChaosSummary::try_run`], exposed for focused
    /// studies (e.g. a high-replication independent-vs-storm comparison).
    ///
    /// # Errors
    ///
    /// Same contract as [`ChaosSummary::try_run`]; additionally errors on
    /// an empty campaign list.
    pub fn try_run_campaigns(
        campaigns: &[Campaign],
        duration: Seconds,
        spare_counts: &[u32],
        reps: u32,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("chaos campaign grid");
        d.positive("duration", duration.value());
        d.positive_count("reps", u64::from(reps));
        d.ensure(
            !spare_counts.is_empty(),
            "spare_counts.len()",
            spare_counts.len(),
            "at least one spare count",
        );
        d.ensure(
            !campaigns.is_empty(),
            "campaigns.len()",
            campaigns.len(),
            "at least one campaign",
        );
        d.finish()?;

        // Build and validate every cell's configuration up front so the
        // parallel grid below cannot panic.
        let mut configs: Vec<SimConfig> = Vec::with_capacity(campaigns.len() * spare_counts.len());
        for campaign in campaigns {
            for &spares in spare_counts {
                configs.push(cell_config(campaign, spares, duration)?);
            }
        }

        // Common random numbers: replication r uses one seed everywhere.
        let rep_seeds: Vec<u64> = (0..u64::from(reps))
            .map(|rep| Rng64::stream(base_seed, rep).next_u64())
            .collect();

        // One job per (campaign, rep) walks that campaign's spare ladder
        // (see `run_ladder`). Jobs are replication-major: `par_map` hands
        // each worker one contiguous run of jobs, so the campaign whose
        // ladder re-runs most (infant mortality) is spread over the
        // workers instead of landing on one. `par_map` preserves input
        // order, so the aggregation below is thread-count independent.
        let rungs = spare_counts.len();
        let jobs: Vec<(usize, usize)> = (0..reps as usize)
            .flat_map(|rep| (0..campaigns.len()).map(move |campaign| (campaign, rep)))
            .collect();
        let ladders = sudc_par::par_map(&jobs, |_, &(campaign, rep)| {
            let configs = &configs[campaign * rungs..(campaign + 1) * rungs];
            run_ladder(configs, rep_seeds[rep])
        });

        let (per_spare_usd, tco_total_usd, lifetime_hours) = spare_pricing()?;
        let mut cells = Vec::with_capacity(configs.len());
        for (c, campaign) in campaigns.iter().enumerate() {
            for (rung, &spares) in spare_counts.iter().enumerate() {
                let traces: Vec<&RunTrace> = ladders[c..]
                    .iter()
                    .step_by(campaigns.len())
                    .map(|l| &l.traces[l.rung_trace[rung]])
                    .collect();
                let adjusted_tco = tco_total_usd + per_spare_usd * f64::from(spares);
                cells.push(aggregate(
                    campaign.name,
                    spares,
                    &traces,
                    adjusted_tco,
                    lifetime_hours,
                ));
            }
        }

        Ok(Self {
            duration_s: duration.value(),
            reps,
            spare_counts: spare_counts.to_vec(),
            cells,
        })
    }

    /// Looks up one cell by campaign name and spare count.
    #[must_use]
    pub fn cell(&self, campaign: &str, spares: u32) -> Option<&ChaosCell> {
        self.cells
            .iter()
            .find(|c| c.campaign == campaign && c.spares == spares)
    }

    /// The smallest swept spare count whose availability under `campaign`
    /// reaches `target`, or `None` if no swept count recovers it.
    #[must_use]
    pub fn spares_to_recover(&self, campaign: &str, target: f64) -> Option<u32> {
        let mut counts: Vec<u32> = self.spare_counts.clone();
        counts.sort_unstable();
        counts.into_iter().find(|&s| {
            self.cell(campaign, s)
                .is_some_and(|c| c.availability >= target)
        })
    }
}

impl ToJson for ChaosSummary {
    fn to_json(&self) -> Json {
        let spares: Vec<Json> = self.spare_counts.iter().map(|&s| Json::from(s)).collect();
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::object()
                    .with("campaign", c.campaign)
                    .with("spares", c.spares)
                    .with("delivered_fraction", c.delivered_fraction)
                    .with("availability", c.availability)
                    .with("end_full_fraction", c.end_full_fraction)
                    .with("delivery_p99_s", c.delivery_p99_s)
                    .with("mean_downlink_backlog", c.mean_downlink_backlog)
                    .with("delivered_per_hour", c.delivered_per_hour)
                    .with("corrupted", c.corrupted as f64)
                    .with("retries", c.retries as f64)
                    .with("retry_exhausted", c.retry_exhausted as f64)
                    .with("shed", c.shed as f64)
                    .with("storm_node_kills", c.storm_node_kills as f64)
                    .with("isl_flaps", c.isl_flaps as f64)
                    .with("blackout_windows", c.blackout_windows as f64)
                    .with("tco_per_insight_usd", c.tco_per_insight_usd)
            })
            .collect();
        Json::object()
            .with("duration_s", self.duration_s)
            .with("reps", self.reps)
            .with("claim4_availability_target", CLAIM4_AVAILABILITY_TARGET)
            .with("spare_counts", Json::Arr(spares))
            .with("cells", Json::Arr(cells))
    }
}

/// Prices one cold spare at the per-node share of the reference design's
/// compute payload (spares are powered off, so they carry no extra power
/// or thermal cost — the heart of the near-zero-cost claim). Returns
/// `(per-spare USD, reference TCO USD, design lifetime in hours)`.
fn spare_pricing() -> Result<(f64, f64, f64), SudcError> {
    let design = Scenario::Reference.design()?;
    let tco = design.try_tco()?;
    let compute_usd = tco
        .lines()
        .into_iter()
        .find_map(|(line, usd)| {
            (line == TcoLine::Satellite(Subsystem::ComputePayload)).then(|| usd.value())
        })
        .unwrap_or(0.0);
    let per_node = compute_usd / f64::from(sudc_core::dynamics::REQUIRED_NODES);
    let lifetime_hours = design.lifetime.to_seconds().value() / 3600.0;
    Ok((per_node, tco.total().value(), lifetime_hours))
}

/// The validated configuration of one grid cell: the reference operations
/// scenario with `spares` cold spares, faulted by `campaign`.
fn cell_config(
    campaign: &Campaign,
    spares: u32,
    duration: Seconds,
) -> Result<SimConfig, SudcError> {
    let scenario = DynamicScenario::from_scenario(Scenario::Reference, 64)?
        .with_cold_spares(spares, DORMANT_AGING);
    let cfg = campaign.apply(&SimConfig::try_from_dynamic(&scenario, 0.1, duration)?);
    cfg.try_validate()?;
    Ok(cfg)
}

/// One (campaign, rep) run down the spare ladder: the distinct traces it
/// simulated, and for each rung the index of the trace that rung shares.
struct Ladder {
    traces: Vec<RunTrace>,
    rung_trace: Vec<usize>,
}

/// Runs one campaign's spare ladder (`configs`, one per rung) at one
/// seed, visiting the rungs from the most installed nodes down.
///
/// Every fault is drawn from an entity-indexed stream and a cold spare
/// pushes no event and draws nothing until it is popped from the pool, so
/// a run with `S'` spares that popped (promoted or found dead) at most
/// `S < S'` of them is the `S`-spare run, trace for trace. The last
/// simulated trace is therefore reused while its pops fit the next rung's
/// pool, and the kernel runs only when they do not. Reuse also requires
/// the two configurations to differ in `nodes` alone.
fn run_ladder(configs: &[SimConfig], seed: u64) -> Ladder {
    let mut order: Vec<usize> = (0..configs.len()).collect();
    order.sort_by_key(|&rung| std::cmp::Reverse(configs[rung].nodes));
    let mut traces: Vec<RunTrace> = Vec::new();
    let mut rung_trace = vec![0; configs.len()];
    let mut last: Option<&SimConfig> = None;
    for rung in order {
        let cfg = &configs[rung];
        let shared = last.zip(traces.last()).is_some_and(|(prev, trace)| {
            SimConfig { nodes: 0, ..*prev } == SimConfig { nodes: 0, ..*cfg }
                && trace.promotions + trace.dormant_deaths <= u64::from(cfg.nodes - cfg.required)
        });
        if !shared {
            traces.push(sudc_sim::run(cfg, seed));
            last = Some(cfg);
        }
        rung_trace[rung] = traces.len() - 1;
    }
    Ladder { traces, rung_trace }
}

/// Aggregates one cell's replications.
fn aggregate(
    campaign: &'static str,
    spares: u32,
    traces: &[&RunTrace],
    adjusted_tco_usd: f64,
    lifetime_hours: f64,
) -> ChaosCell {
    let n = traces.len() as f64;
    let mean = |f: &dyn Fn(&RunTrace) -> f64| traces.iter().map(|t| f(t)).sum::<f64>() / n;
    let total = |f: &dyn Fn(&RunTrace) -> u64| traces.iter().map(|t| f(t)).sum::<u64>();
    let (p99_sum, p99_reps) = traces
        .iter()
        .map(|t| t.delivery_latency())
        .filter(|s| s.count > 0)
        .fold((0.0, 0u32), |(sum, n), s| (sum + s.p99, n + 1));
    let delivered_per_hour = mean(&RunTrace::delivered_per_hour);
    let lifetime_insights = delivered_per_hour * lifetime_hours;
    ChaosCell {
        campaign,
        spares,
        delivered_fraction: mean(&RunTrace::delivered_fraction),
        availability: mean(&RunTrace::availability),
        end_full_fraction: mean(&|t| f64::from(u8::from(t.ends_at_full_capability()))),
        delivery_p99_s: if p99_reps == 0 {
            0.0
        } else {
            p99_sum / f64::from(p99_reps)
        },
        mean_downlink_backlog: mean(&RunTrace::mean_downlink_backlog),
        delivered_per_hour,
        corrupted: total(&|t| t.corrupted),
        retries: total(&|t| t.retries),
        retry_exhausted: total(&|t| t.retry_exhausted),
        shed: total(&|t| t.shed_batch_overflow + t.shed_downlink_overflow + t.shed_deadline),
        storm_node_kills: total(&|t| t.storm_node_kills),
        isl_flaps: total(&|t| t.isl_flaps),
        blackout_windows: total(&|t| t.blackout_windows),
        tco_per_insight_usd: if lifetime_insights > 0.0 {
            adjusted_tco_usd / lifetime_insights
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but non-trivial grid shared by the tests (each run of it is
    /// ~a second of work, so tests reuse one instance where possible).
    fn small_grid() -> ChaosSummary {
        ChaosSummary::run(Seconds::new(1800.0), &[0, 2, 16], 3, 42)
    }

    #[test]
    fn grid_covers_every_campaign_and_spare_count() {
        let s = small_grid();
        assert_eq!(s.cells.len(), 6 * 3);
        for c in Campaign::suite(Seconds::new(1800.0)) {
            for &spares in &[0, 2, 16] {
                let cell = s.cell(c.name, spares).unwrap();
                assert!((0.0..=1.0).contains(&cell.availability), "{}", c.name);
                assert!((0.0..=1.0).contains(&cell.delivered_fraction), "{}", c.name);
            }
        }
    }

    #[test]
    fn report_bytes_are_identical_at_every_thread_count() {
        let render = |threads: usize| {
            sudc_par::set_threads(threads);
            let json = ChaosSummary::run(Seconds::new(900.0), &[0, 4], 2, 11)
                .to_json()
                .to_string_pretty();
            sudc_par::set_threads(0);
            json
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(8));
    }

    #[test]
    fn correlated_storms_are_worse_than_rate_matched_independent_failures() {
        // The heart of the study: the same expected kills per node,
        // delivered as cross-node-correlated storm shocks, must cost more
        // availability than the independent process at equal spares. A
        // focused high-replication grid keeps the comparison out of
        // sampling noise: rare major storms carry most of the damage.
        let duration = Seconds::new(3600.0);
        let campaigns = [
            Campaign::independent(duration),
            Campaign::solar_storm(duration),
        ];
        let s = ChaosSummary::try_run_campaigns(&campaigns, duration, &[2], 32, 0xc0_44e1).unwrap();
        let ind = s.cell("independent", 2).unwrap();
        let storm = s.cell("solar_storm", 2).unwrap();
        assert!(storm.storm_node_kills > 0, "storms must actually kill");
        assert!(
            storm.availability < ind.availability - 0.02,
            "storm {} vs independent {}",
            storm.availability,
            ind.availability
        );
    }

    #[test]
    fn enough_spares_recover_the_claim4_target() {
        let s = small_grid();
        for campaign in ["independent", "solar_storm"] {
            // Degraded at zero spares...
            let bare = s.cell(campaign, 0).unwrap();
            assert!(
                bare.availability < CLAIM4_AVAILABILITY_TARGET,
                "{campaign} bare availability {}",
                bare.availability
            );
            // ...recovered somewhere in the sweep.
            let needed = s
                .spares_to_recover(campaign, CLAIM4_AVAILABILITY_TARGET)
                .unwrap_or_else(|| panic!("{campaign} never recovers"));
            assert!(needed > 0, "{campaign} should need spares");
        }
    }

    #[test]
    fn fault_counters_land_in_the_campaigns_that_arm_them() {
        let s = small_grid();
        assert!(s.cell("isl_flaps", 0).unwrap().isl_flaps > 0);
        assert!(s.cell("ground_blackouts", 0).unwrap().blackout_windows > 0);
        assert!(s.cell("independent", 0).unwrap().storm_node_kills == 0);
        let combined = s.cell("combined", 0).unwrap();
        assert!(combined.storm_node_kills > 0);
        assert!(combined.blackout_windows > 0);
    }

    #[test]
    fn spare_tco_grows_but_buys_delivered_work() {
        let s = small_grid();
        let bare = s.cell("solar_storm", 0).unwrap();
        let spared = s.cell("solar_storm", 16).unwrap();
        assert!(spared.delivered_fraction >= bare.delivered_fraction);
        // Spares are priced: at *equal* delivery the spared cell would
        // cost more per insight, so if it costs less it must deliver more.
        assert!(spared.tco_per_insight_usd.is_finite());
    }

    #[test]
    fn shared_ladder_traces_equal_a_direct_run_per_cell() {
        // Infant mortality and a one-MTTF independent process drain small
        // pools, so some rungs re-run while others share a larger run's
        // trace, including runs whose promoted spares fail again before
        // the end. Either way every rung must hold exactly the trace a
        // direct run of its own cell produces.
        let duration = Seconds::new(1800.0);
        let spare_counts = [0, 2, 4, 8, 16, 32];
        let mut hot = Campaign::independent(duration);
        hot.node_mttf = Some(duration);
        let (mut shared, mut rerun) = (0, 0);
        for campaign in [Campaign::infant_mortality(duration), hot] {
            let configs: Vec<SimConfig> = spare_counts
                .iter()
                .map(|&s| cell_config(&campaign, s, duration).unwrap())
                .collect();
            for seed in 0..6 {
                let l = run_ladder(&configs, seed);
                rerun += l.traces.len() - 1;
                shared += spare_counts.len() - l.traces.len();
                for (rung, cfg) in configs.iter().enumerate() {
                    assert!(
                        l.traces[l.rung_trace[rung]] == sudc_sim::run(cfg, seed),
                        "{} seed {seed}: {} spares",
                        campaign.name,
                        spare_counts[rung]
                    );
                }
            }
        }
        assert!(shared > 0, "no rung shared a trace");
        assert!(rerun > 0, "no rung re-ran the kernel");
    }

    #[test]
    fn invalid_grids_are_structured_errors() {
        let err = ChaosSummary::try_run(Seconds::new(0.0), &[0], 1, 1).unwrap_err();
        assert!(err.to_string().contains("duration"), "{err}");
        let err = ChaosSummary::try_run(Seconds::new(900.0), &[], 1, 1).unwrap_err();
        assert!(err.to_string().contains("spare_counts"), "{err}");
        let err = ChaosSummary::try_run(Seconds::new(900.0), &[0], 0, 1).unwrap_err();
        assert!(err.to_string().contains("reps"), "{err}");
    }
}
