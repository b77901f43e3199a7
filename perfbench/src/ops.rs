//! `ops-loop`: the closed recovery loop on the 64-satellite reference
//! fleet, which fits in cache.
//!
//! 1. The controller-on/off health grid over every chaos campaign.
//! 2. One recorded health-on run of the independent campaign that
//!    declares at least one node DEAD. Its bus log goes to bytes and back,
//!    is replayed against the live trace, and is re-published through a
//!    passthrough and a recording bus; then it is folded into a pool
//!    timeline.
//! 3. A tasking stream at five times the reference capture rate, routed
//!    with full pools on the sharded path and with the observed degraded
//!    pools on the sequential deferral-readmission path.
//! 4. The degraded load recorded through the sim and re-audited from its
//!    bus log; the two audits must be equal.

use sudc_bus::{Bus, BusConfig, BusLog, Payload, Sample, Subscriber, TopicId};
use sudc_chaos::{Campaign, HealthReport};
use sudc_core::dynamics::DynamicScenario;
use sudc_core::Scenario;
use sudc_health::{HealthConfig, HealthController, PoolTimeline};
use sudc_par::rng::Rng64;
use sudc_router::{
    ReplayReport, RoutedLoad, Router, RouterConfig, RoutingOutcome, StreamConfig, Tier, Verdict,
};
use sudc_sim::{replay, run_recorded, RunTrace, SimConfig};
use sudc_units::Seconds;

use crate::pass::{ns_per, Fnv, PassOutput};
use crate::spans::{SpanId, Tracer};

/// Simulated span of every grid run and of the recorded run, seconds.
const DURATION_S: f64 = 3600.0;
/// Cold spares in every grid cell.
const SPARES: u32 = 4;
/// Replications per grid arm.
const GRID_REPS: u32 = 4;
/// Offered load, as a multiple of the reference capture rate.
const LOAD: f64 = 5.0;
/// Requests in the tasking stream.
const REQUESTS: u64 = 2_000_000;
/// Replication seeds tried, in order, for a recorded run with a DEAD
/// verdict before the workload is refused.
const DEAD_SEED_TRIES: u64 = 64;
/// Seed of the stream those replication seeds are drawn from. It does not
/// follow the workload seed: which node dies when sets the degraded pools,
/// and with them how much work the readmission path does (up to a third
/// more or less between seeds), so every workload seed routes against the
/// same fault history while its traffic, grid and audit seeds vary.
const FAULT_SEED: u64 = 1;
/// Simulated span of the recorded audit run, seconds.
const AUDIT_S: f64 = 1800.0;

/// Configurations, pricing and seeds of one pass.
#[derive(Debug)]
pub struct Inputs {
    router: Router,
    recorded: SimConfig,
    stream: StreamConfig,
    grid_seed: u64,
    fault_seeds: Rng64,
    audit_seed: u64,
}

/// Prices the reference router and builds every configuration; every
/// seed but the fault history's is drawn from the workload seed.
#[must_use]
pub fn setup(seed: u64) -> Inputs {
    let duration = Seconds::new(DURATION_S);
    let reference = DynamicScenario::from_scenario(Scenario::Reference, 64)
        .expect("the reference scenario sizes");
    let recorded = Campaign::independent(duration)
        .apply(&SimConfig::reference_operations(duration))
        .with_health(HealthConfig::standard());
    let mut seeds = Rng64::stream(seed, 1);
    Inputs {
        router: Router::reference(),
        recorded,
        stream: StreamConfig::new(REQUESTS, seeds.next_u64(), LOAD * reference.arrival_rate()),
        grid_seed: seeds.next_u64(),
        audit_seed: seeds.next_u64(),
        fault_seeds: Rng64::stream(FAULT_SEED, 0),
    }
}

/// One pass. The decision fingerprints are taken after the pass, outside
/// its timing.
#[must_use]
pub fn pass(inputs: &Inputs, tracer: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let (routed, wall) = tracer.time("perfbench.pass", None, |root| {
        grid(inputs, tracer, root, &mut out);
        let fractions = recorded_run(inputs, tracer, root, &mut out)?;
        let (full, degraded) = route(inputs, tracer, root, &fractions, &mut out)?;
        audit(inputs, tracer, root, &degraded, &mut out);
        Some((full, degraded))
    });
    out.wall_s = wall;
    if let Some((full, degraded)) = routed {
        out.observe("router.decisions_fnv", fingerprint(&full));
        out.observe("router.readmit_decisions_fnv", fingerprint(&degraded));
    }
    out
}

/// Fingerprint of every decision, field by field.
fn fingerprint(outcome: &RoutingOutcome) -> String {
    let mut h = Fnv::new();
    for d in &outcome.decisions {
        let verdict = match d.verdict {
            Verdict::Placed(tier) => tier.index() as u8,
            Verdict::Deferred => 0xfd,
            Verdict::Rejected => 0xfe,
            Verdict::Shed => 0xff,
        };
        h.bytes(&d.id.to_le_bytes());
        h.bytes(&[verdict]);
        h.bytes(&d.latency_s.to_bits().to_le_bytes());
        h.bytes(&d.cost_usd.to_bits().to_le_bytes());
    }
    h.hex()
}

/// Step 1: every chaos campaign, controller off and on.
fn grid(inputs: &Inputs, tracer: &Tracer, root: SpanId, out: &mut PassOutput) {
    let (report, grid_s) = tracer.time("chaos.HealthReport::try_run", Some(root), |_| {
        HealthReport::try_run(
            Seconds::new(DURATION_S),
            SPARES,
            GRID_REPS,
            inputs.grid_seed,
        )
    });
    out.metric("chaos.grid_s", grid_s);
    let Ok(report) = report else {
        out.check("chaos.grid_runs", false);
        return;
    };
    out.check("chaos.grid_runs", true);
    out.count("chaos.cells", report.cells.len() as u64);
    let total = |f: fn(&sudc_chaos::HealthCell) -> u64| report.cells.iter().map(f).sum::<u64>();
    out.count("health.heartbeats", total(|c| c.heartbeats));
    out.count("health.detections", total(|c| c.detections));
    out.count("health.false_suspects", total(|c| c.false_suspects));
    out.observe("chaos.report_fnv", Fnv::of_debug(&report));
}

/// Step 2: the recorded health-on run, its pool timeline, and a fresh
/// detector fed the run's heartbeats. Returns the per-block pool
/// fractions for the stream.
fn recorded_run(
    inputs: &Inputs,
    tracer: &Tracer,
    root: SpanId,
    out: &mut PassOutput,
) -> Option<Vec<f64>> {
    let cfg = &inputs.recorded;
    let mut seeds = inputs.fault_seeds.clone();
    let (mut record_s, mut events, mut peak_queue) = (0.0, 0, 0);
    let mut tries = 0;
    let (trace, log) = loop {
        tries += 1;
        let (run, secs) = tracer.time("sim.run_recorded", Some(root), |_| {
            run_recorded(cfg, seeds.next_u64())
        });
        record_s += secs;
        events += run.0.events;
        peak_queue = peak_queue.max(run.0.peak_event_queue);
        if run.0.detections > 0 || tries == DEAD_SEED_TRIES {
            break run;
        }
    };
    out.metric("sim.record_s", record_s);
    out.count("sim.events", events);
    out.metric("sim.ns_per_event", ns_per(record_s, events));
    out.count("sim.peak_event_queue", peak_queue as u64);
    out.metric("sim_events_per_s", events as f64 / record_s);
    out.count("sim.recorded_runs", tries);
    out.count("health.recorded_detections", trace.detections);
    out.guard(
        "health.recorded_run_has_a_dead_verdict",
        trace.detections > 0,
    );
    log_round_trip(cfg, &trace, &log, tracer, root, out);

    let (timeline, timeline_s) =
        tracer.time("health.PoolTimeline::try_from_log", Some(root), |_| {
            PoolTimeline::try_from_log(&log, cfg.required)
        });
    out.metric("health.timeline_s", timeline_s);
    let Ok(timeline) = timeline else {
        out.check("health.timeline_builds", false);
        return None;
    };
    out.check("health.timeline_builds", true);

    let contract = HealthConfig::standard();
    let Ok(mut detector) =
        HealthController::try_new(cfg.nodes, cfg.required, &contract, cfg.tick_seconds)
    else {
        out.check("health.detector_builds", false);
        return None;
    };
    out.check("health.detector_builds", true);
    let lease = detector.config().lease_ticks;
    let (fed, detector_s) = tracer.time("health.HealthController", Some(root), |_| {
        let mut verdicts = Vec::new();
        let mut next_scan = lease;
        let mut beats = 0u64;
        let visited = log.try_visit(|s| {
            while s.tick > next_scan {
                detector.scan(next_scan, &mut verdicts);
                next_scan += lease;
            }
            if let Payload::Heartbeat { node } = s.payload {
                if node < cfg.nodes {
                    detector.heartbeat(node, s.tick);
                    beats += 1;
                }
            }
        });
        visited.map(|_| beats)
    });
    let beats = fed.unwrap_or(0);
    out.check(
        "health.detector_sees_every_heartbeat",
        beats == trace.heartbeats,
    );
    out.metric(
        "health.detector_ns_per_heartbeat",
        ns_per(detector_s, beats),
    );

    let fractions = timeline.try_fractions(inputs.stream.blocks() as usize).ok();
    out.check("health.fractions_build", fractions.is_some());
    let fractions = fractions?;
    out.guard(
        "health.degraded_fractions_below_one",
        fractions.iter().any(|&f| f < 1.0),
    );
    Some(fractions)
}

/// Step 3: the stream routed twice. Returns both outcomes.
fn route(
    inputs: &Inputs,
    tracer: &Tracer,
    root: SpanId,
    fractions: &[f64],
    out: &mut PassOutput,
) -> Option<(RoutingOutcome, RoutingOutcome)> {
    let stream = &inputs.stream;
    let degraded_cfg = inputs
        .router
        .config()
        .clone()
        .try_with_degraded_pools(fractions)
        .map(|cfg| RouterConfig {
            readmit_deferred: true,
            ..cfg
        })
        .and_then(Router::try_new);
    let Ok(degraded_router) = degraded_cfg else {
        out.check("router.degraded_config_builds", false);
        return None;
    };
    out.check("router.degraded_config_builds", true);

    let (full, route_s) = tracer.time("router.route_stream", Some(root), |_| {
        inputs.router.route_stream(stream)
    });
    let (degraded, readmit_s) = tracer.time("router.route_stream_readmit", Some(root), |_| {
        degraded_router.route_stream(stream)
    });

    let s = &full.stats;
    let decisions = full.decisions.len() as u64 + degraded.decisions.len() as u64;
    out.metric("router.route_s", route_s);
    out.metric("router.readmit_route_s", readmit_s);
    out.metric(
        "router.ns_per_decision",
        ns_per(route_s + readmit_s, decisions),
    );
    out.metric(
        "route_decisions_per_s",
        decisions as f64 / (route_s + readmit_s),
    );
    for (name, tier) in [
        ("onboard", Tier::Onboard),
        ("sudc", Tier::OrbitalSudc),
        ("ground", Tier::GroundEdge),
        ("cloud", Tier::Cloud),
    ] {
        out.count(
            &format!("router.placed.{name}"),
            s.tier_counts[tier.index()],
        );
    }
    out.count("router.deferred", s.deferred);
    out.count("router.rejected", s.rejected);
    out.metric("router.acceptance_rate", s.acceptance_rate());
    out.count("router.readmit.placed", degraded.stats.placed);
    out.count("router.readmit.deferred", degraded.stats.deferred);
    out.check(
        "router.every_request_decided",
        full.decisions.len() as u64 == stream.requests
            && degraded.decisions.len() as u64 == stream.requests,
    );

    let tiers = s.tier_counts.iter().filter(|&&n| n > 0).count();
    out.guard("router.places_on_three_tiers", tiers >= 3);
    out.guard(
        "router.defers_and_rejects",
        s.deferred > 0 && s.rejected > 0,
    );
    Some((full, degraded))
}

/// Step 4: record the degraded load through the sim, re-audit it from
/// the log, and require equal audits.
fn audit(
    inputs: &Inputs,
    tracer: &Tracer,
    root: SpanId,
    degraded: &RoutingOutcome,
    out: &mut PassOutput,
) {
    let load = RoutedLoad::from_outcome(degraded);
    let duration = Seconds::new(AUDIT_S);
    let (recorded, _) = tracer.time("router.RoutedLoad::try_record", Some(root), |_| {
        load.try_record(duration, inputs.audit_seed, None)
    });
    let Ok((live_trace, log)) = recorded else {
        out.check("router.audit_records", false);
        return;
    };
    out.check("router.audit_records", true);
    let live = ReplayReport::try_from_traces("nominal", load.sudc_share, vec![live_trace]);
    let (audited, _) = tracer.time("router.RoutedLoad::try_replay_from_log", Some(root), |_| {
        load.try_replay_from_log(duration, None, &log)
    });
    out.check(
        "router.live_audit_equals_replayed_audit",
        matches!((&live, &audited), (Ok(a), Ok(b)) if a == b),
    );
    out.count("router.audit_log_records", log.records());
}

/// A subscriber that drops every sample, so re-publishing times the bus
/// alone.
struct Discard;

impl Subscriber for Discard {
    fn deliver(&mut self, _topic: TopicId, _sample: &Sample) {}
}

/// Takes the recorded log to bytes and back through
/// [`BusLog::try_from_bytes`], replays it against the live trace, and
/// re-publishes it via `try_visit` through a passthrough and a recording
/// bus; the re-recorded log must equal the original byte for byte.
fn log_round_trip(
    cfg: &SimConfig,
    trace: &RunTrace,
    log: &BusLog,
    tracer: &Tracer,
    root: SpanId,
    out: &mut PassOutput,
) {
    let bytes = log.as_bytes().to_vec();
    let records = log.records();
    out.count("bus.log_records", records);
    out.count("bus.log_bytes", bytes.len() as u64);
    let (decoded, decode_s) = tracer.time("bus.BusLog::try_from_bytes", Some(root), |_| {
        BusLog::try_from_bytes(&bytes)
    });
    out.metric("bus.decode_ns_per_record", ns_per(decode_s, records));
    let Ok(decoded) = decoded else {
        out.check("bus.log_decodes", false);
        return;
    };
    out.check("bus.log_decodes", decoded.as_bytes() == bytes.as_slice());

    let (replayed, replay_s) = tracer.time("sim.replay", Some(root), |_| replay(cfg, &decoded));
    out.metric("sim.replay_s", replay_s);
    out.check(
        "sim.replay_equals_live",
        matches!(&replayed, Ok(t) if t == trace),
    );

    let mut passthrough = Bus::passthrough(BusConfig::standard(), Discard);
    let (visited, publish_s) = tracer.time("bus.publish_passthrough", Some(root), |_| {
        decoded.try_visit(|s| passthrough.publish(*s))
    });
    let mut recording = Bus::recording(BusConfig::standard(), Discard);
    let (revisited, rerecord_s) = tracer.time("bus.publish_recording", Some(root), |_| {
        decoded.try_visit(|s| recording.publish(*s))
    });
    out.metric("bus.publish_ns_per_sample", ns_per(publish_s, records));
    out.metric("bus.record_ns_per_sample", ns_per(rerecord_s, records));
    let (_, relog, stats) = recording.into_parts();
    out.check(
        "bus.republish_counts_every_record",
        matches!(visited, Ok(n) if n == records)
            && matches!(revisited, Ok(n) if n == records)
            && passthrough.stats().total() == records
            && stats.total() == records,
    );
    out.check(
        "bus.rerecorded_log_is_identical",
        relog.is_some_and(|l| l.as_bytes() == bytes.as_slice()),
    );
}
