//! Controller-on vs controller-off: what the closed loop buys under chaos.
//!
//! The resilience grid in [`crate::report`] promotes spares through an
//! instant oracle — the kernel reacts to a node death in the same tick it
//! happens. A real health plane has to *detect* the death first: powered
//! nodes heartbeat once per lease, the `sudc-health` failure detector
//! walks silent nodes SUSPECT → DEAD, and only a DEAD declaration may
//! promote a cold spare. This module runs every campaign twice with the
//! same detector contract — once with the actuator connected
//! (`closed_loop`), once monitor-only — at equal spares with common
//! random numbers, so the availability and freshness-SLO gap between the
//! two arms is exactly the value of closing the loop, and the detection
//! latency / false-suspicion columns price what the detector itself
//! costs. The whole report is one flat `sudc_par::par_map` batch and
//! byte-identical at any thread count.

use sudc_core::dynamics::DynamicScenario;
use sudc_core::Scenario;
use sudc_errors::{Diagnostics, SudcError};
use sudc_health::HealthConfig;
use sudc_par::json::{Json, ToJson};
use sudc_par::rng::Rng64;
use sudc_sim::{RunTrace, SimConfig, STANDARD_FRESHNESS_DEADLINE_S};
use sudc_units::Seconds;

use crate::campaign::Campaign;

/// Dormant-spare aging rate, matching [`crate::report`]'s grid cells so
/// the two studies price the same spares.
const DORMANT_AGING: f64 = 0.1;

/// One arm of one campaign: the detector contract ran with the actuator
/// either connected (`closed_loop`) or disconnected, aggregated over all
/// replications.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthCell {
    /// Campaign name ([`Campaign::name`]).
    pub campaign: &'static str,
    /// Whether DEAD declarations drove spare promotion in this arm.
    pub closed_loop: bool,
    /// Mean fraction of the run at full capability.
    pub availability: f64,
    /// Mean fraction of deliveries inside the standing 900 s freshness
    /// SLO ([`STANDARD_FRESHNESS_DEADLINE_S`]).
    pub slo_attainment: f64,
    /// Mean fraction of arrived work delivered to the ground.
    pub delivered_fraction: f64,
    /// Heartbeats published, summed over replications.
    pub heartbeats: u64,
    /// SUSPECT declarations, summed.
    pub suspects: u64,
    /// Suspicions later contradicted by a heartbeat, summed.
    pub false_suspects: u64,
    /// False suspicions per suspicion over the whole arm (0 when nothing
    /// was ever suspected).
    pub false_suspicion_rate: f64,
    /// DEAD declarations (detections), summed.
    pub detections: u64,
    /// Cold spares promoted, summed. Zero in the monitor-only arm.
    pub promotions: u64,
    /// Quarantined nodes readmitted after probation, summed.
    pub readmissions: u64,
    /// Mean failure → DEAD-declaration latency, seconds, over
    /// replications that detected anything; 0 when none did.
    pub detection_latency_mean_s: f64,
    /// Mean p99 of the same latency, seconds, same convention.
    pub detection_latency_p99_s: f64,
}

/// The closed-loop health study: every campaign, both arms.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Simulated span of every run, seconds.
    pub duration_s: f64,
    /// Replications per arm.
    pub reps: u32,
    /// Cold spares installed in every cell (equal across arms — the
    /// comparison prices the controller, not the spares).
    pub spares: u32,
    /// Heartbeat lease of the shared detector contract, seconds.
    pub lease_s: f64,
    /// All cells, campaign-major in the campaign list's order, the
    /// monitor-only arm before the closed-loop arm.
    pub cells: Vec<HealthCell>,
}

impl HealthReport {
    /// Runs the standard campaign suite with the
    /// [`HealthConfig::standard`] contract.
    ///
    /// # Panics
    ///
    /// Panics on invalid grid parameters (see [`HealthReport::try_run`]).
    #[must_use]
    pub fn run(duration: Seconds, spares: u32, reps: u32, base_seed: u64) -> Self {
        match Self::try_run(duration, spares, reps, base_seed) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`HealthReport::run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`HealthReport::try_run_campaigns`] over
    /// [`Campaign::suite`] and [`HealthConfig::standard`].
    pub fn try_run(
        duration: Seconds,
        spares: u32,
        reps: u32,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        Self::try_run_campaigns(
            &Campaign::suite(duration),
            duration,
            spares,
            reps,
            HealthConfig::standard(),
            base_seed,
        )
    }

    /// Runs an explicit campaign list under `contract`, each campaign in
    /// both arms (`contract` with `closed_loop` forced off, then on) at
    /// `spares` cold spares, `reps` replications per arm with common
    /// random numbers.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `duration` is not positive, `reps`
    /// is zero, `campaigns` is empty, or any arm's configuration fails
    /// [`SimConfig::try_validate`] (which folds in the health contract).
    pub fn try_run_campaigns(
        campaigns: &[Campaign],
        duration: Seconds,
        spares: u32,
        reps: u32,
        contract: HealthConfig,
        base_seed: u64,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("health study grid");
        d.positive("duration", duration.value());
        d.positive_count("reps", u64::from(reps));
        d.ensure(
            !campaigns.is_empty(),
            "campaigns.len()",
            campaigns.len(),
            "at least one campaign",
        );
        d.finish()?;

        // Build and validate every arm's configuration up front so the
        // parallel grid below cannot panic. Arm order within a campaign
        // is monitor-only first, closed-loop second.
        let arms = [false, true];
        let mut configs: Vec<SimConfig> = Vec::with_capacity(campaigns.len() * arms.len());
        for campaign in campaigns {
            for &closed_loop in &arms {
                let scenario = DynamicScenario::from_scenario(Scenario::Reference, 64)?
                    .with_cold_spares(spares, DORMANT_AGING);
                let cfg = campaign
                    .apply(&SimConfig::try_from_dynamic(&scenario, 0.1, duration)?)
                    .with_health(HealthConfig {
                        closed_loop,
                        ..contract
                    });
                cfg.try_validate()?;
                configs.push(cfg);
            }
        }

        // Common random numbers: replication r uses one seed everywhere,
        // so the off-vs-on gap is the controller's effect, not sampling
        // noise.
        let rep_seeds: Vec<u64> = (0..u64::from(reps))
            .map(|rep| Rng64::stream(base_seed, rep).next_u64())
            .collect();

        let jobs: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|cell| (0..reps as usize).map(move |rep| (cell, rep)))
            .collect();
        let traces = sudc_par::par_map(&jobs, |_, &(cell, rep)| {
            sudc_sim::run(&configs[cell], rep_seeds[rep])
        });

        let mut cells = Vec::with_capacity(configs.len());
        for (cell_idx, chunk) in traces.chunks(reps as usize).enumerate() {
            let campaign = campaigns[cell_idx / arms.len()].name;
            let closed_loop = arms[cell_idx % arms.len()];
            cells.push(aggregate(campaign, closed_loop, chunk));
        }

        Ok(Self {
            duration_s: duration.value(),
            reps,
            spares,
            lease_s: contract.lease_s,
            cells,
        })
    }

    /// Looks up one arm of one campaign.
    #[must_use]
    pub fn cell(&self, campaign: &str, closed_loop: bool) -> Option<&HealthCell> {
        self.cells
            .iter()
            .find(|c| c.campaign == campaign && c.closed_loop == closed_loop)
    }

    /// The controller's availability gain under `campaign`: closed-loop
    /// minus monitor-only availability, `None` if either arm is missing.
    #[must_use]
    pub fn availability_gain(&self, campaign: &str) -> Option<f64> {
        Some(self.cell(campaign, true)?.availability - self.cell(campaign, false)?.availability)
    }
}

impl ToJson for HealthReport {
    fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::object()
                    .with("campaign", c.campaign)
                    .with("closed_loop", c.closed_loop)
                    .with("availability", c.availability)
                    .with("slo_attainment", c.slo_attainment)
                    .with("delivered_fraction", c.delivered_fraction)
                    .with("heartbeats", c.heartbeats as f64)
                    .with("suspects", c.suspects as f64)
                    .with("false_suspects", c.false_suspects as f64)
                    .with("false_suspicion_rate", c.false_suspicion_rate)
                    .with("detections", c.detections as f64)
                    .with("promotions", c.promotions as f64)
                    .with("readmissions", c.readmissions as f64)
                    .with("detection_latency_mean_s", c.detection_latency_mean_s)
                    .with("detection_latency_p99_s", c.detection_latency_p99_s)
            })
            .collect();
        Json::object()
            .with("duration_s", self.duration_s)
            .with("reps", self.reps)
            .with("spares", self.spares)
            .with("lease_s", self.lease_s)
            .with("slo_deadline_s", STANDARD_FRESHNESS_DEADLINE_S)
            .with("cells", Json::Arr(cells))
    }
}

/// Aggregates one arm's replications.
fn aggregate(campaign: &'static str, closed_loop: bool, traces: &[RunTrace]) -> HealthCell {
    let n = traces.len() as f64;
    let mean = |f: &dyn Fn(&RunTrace) -> f64| traces.iter().map(f).sum::<f64>() / n;
    let total = |f: &dyn Fn(&RunTrace) -> u64| traces.iter().map(f).sum::<u64>();
    let (lat_mean_sum, lat_p99_sum, lat_reps) = traces
        .iter()
        .map(RunTrace::detection_latency)
        .filter(|s| s.count > 0)
        .fold((0.0, 0.0, 0u32), |(m, p, n), s| {
            (m + s.mean, p + s.p99, n + 1)
        });
    let suspects = total(&|t| t.suspects);
    let false_suspects = total(&|t| t.false_suspects);
    HealthCell {
        campaign,
        closed_loop,
        availability: mean(&RunTrace::availability),
        slo_attainment: mean(&|t| t.delivery_within(Seconds::new(STANDARD_FRESHNESS_DEADLINE_S))),
        delivered_fraction: mean(&RunTrace::delivered_fraction),
        heartbeats: total(&|t| t.heartbeats),
        suspects,
        false_suspects,
        false_suspicion_rate: if suspects == 0 {
            0.0
        } else {
            false_suspects as f64 / suspects as f64
        },
        detections: total(&|t| t.detections),
        promotions: total(&|t| t.promotions),
        readmissions: total(&|t| t.readmissions),
        detection_latency_mean_s: if lat_reps == 0 {
            0.0
        } else {
            lat_mean_sum / f64::from(lat_reps)
        },
        detection_latency_p99_s: if lat_reps == 0 {
            0.0
        } else {
            lat_p99_sum / f64::from(lat_reps)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate for the health plane: under the combined
    /// campaign at equal spares, connecting the actuator must strictly
    /// improve availability or 900 s SLO attainment over monitor-only.
    #[test]
    fn closed_loop_strictly_beats_monitor_only_under_combined_chaos() {
        let duration = Seconds::new(3600.0);
        let report = HealthReport::try_run_campaigns(
            &[Campaign::combined(duration)],
            duration,
            4,
            8,
            HealthConfig::standard(),
            0x0004_ea17,
        )
        .unwrap();
        let off = report.cell("combined", false).unwrap();
        let on = report.cell("combined", true).unwrap();
        assert!(off.detections > 0, "campaign must actually kill nodes");
        assert_eq!(off.promotions, 0, "monitor-only must never promote");
        assert!(on.promotions > 0, "closed loop must promote");
        assert!(
            on.availability > off.availability || on.slo_attainment > off.slo_attainment,
            "closed loop must strictly improve availability ({} vs {}) or SLO ({} vs {})",
            on.availability,
            off.availability,
            on.slo_attainment,
            off.slo_attainment
        );
    }

    #[test]
    fn detector_columns_are_sane_across_the_suite() {
        let report = HealthReport::run(Seconds::new(1800.0), 2, 3, 42);
        assert_eq!(report.cells.len(), 6 * 2);
        for cell in &report.cells {
            assert!(cell.heartbeats > 0, "{}", cell.campaign);
            assert!(
                cell.promotions <= cell.detections,
                "{}: promotions {} > detections {}",
                cell.campaign,
                cell.promotions,
                cell.detections
            );
            // Heartbeats are only missed on real failure in this model,
            // so the detector never cries wolf.
            assert_eq!(cell.false_suspects, 0, "{}", cell.campaign);
            assert_eq!(cell.false_suspicion_rate, 0.0, "{}", cell.campaign);
            if !cell.closed_loop {
                assert_eq!(cell.promotions, 0, "{}", cell.campaign);
            }
            if cell.detections > 0 {
                // Silence is measured from the last heartbeat, which may
                // trail the failure by up to one lease; the standard
                // contract therefore detects no earlier than
                // (dead_missed - 1) leases after the death.
                let floor = report.lease_s * 3.0;
                assert!(
                    cell.detection_latency_mean_s >= floor,
                    "{}: mean latency {} below floor {}",
                    cell.campaign,
                    cell.detection_latency_mean_s,
                    floor
                );
            }
        }
    }

    #[test]
    fn report_bytes_are_identical_at_every_thread_count() {
        let render = |threads: usize| {
            sudc_par::set_threads(threads);
            let duration = Seconds::new(900.0);
            let json = HealthReport::try_run_campaigns(
                &[
                    Campaign::independent(duration),
                    Campaign::combined(duration),
                ],
                duration,
                2,
                2,
                HealthConfig::standard(),
                11,
            )
            .unwrap()
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
    fn invalid_grids_are_structured_errors() {
        let err = HealthReport::try_run(Seconds::new(0.0), 2, 1, 1).unwrap_err();
        assert!(err.to_string().contains("duration"), "{err}");
        let err = HealthReport::try_run(Seconds::new(900.0), 2, 0, 1).unwrap_err();
        assert!(err.to_string().contains("reps"), "{err}");
        let duration = Seconds::new(900.0);
        let err = HealthReport::try_run_campaigns(&[], duration, 2, 1, HealthConfig::standard(), 1)
            .unwrap_err();
        assert!(err.to_string().contains("campaigns"), "{err}");
        // A hostile detector contract surfaces through config validation.
        let bad = HealthConfig {
            lease_s: f64::NAN,
            ..HealthConfig::standard()
        };
        let err = HealthReport::try_run_campaigns(
            &[Campaign::independent(duration)],
            duration,
            2,
            1,
            bad,
            1,
        )
        .unwrap_err();
        assert!(err.to_string().contains("lease_s"), "{err}");
    }
}
