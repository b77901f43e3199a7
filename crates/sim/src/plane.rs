//! The sim's attachment to the `sudc-bus` data plane.
//!
//! The kernel no longer mutates its [`RunTrace`] directly: every
//! pipeline hop — capture, filter verdict, batch dispatch, compute
//! completion, downlink delivery, fault event, telemetry settlement —
//! is published as a typed [`Payload`] on the standard topic table, and
//! [`TraceBuilder`] is the subscriber that folds the stream back into a
//! `RunTrace`. Because the builder performs *exactly* the mutations the
//! kernel used to perform inline, in the same order, a passthrough bus
//! is trace-equal to the frozen [`crate::baseline`] — the equivalence
//! tests in `kernel.rs` hold that line.
//!
//! The payoff is [`replay`]: a recorded [`BusLog`] re-drives a fresh
//! `TraceBuilder` and reproduces the live run's `RunTrace` byte for
//! byte, without re-executing the kernel — the foundation for shipping
//! topic streams across process (or shard) boundaries.

use sudc_bus::{
    Bus, BusConfig, BusLog, BusStats, FaultKind, HealthEvent, Payload, Sample, Subscriber, TopicId,
};
use sudc_errors::SudcError;

use crate::config::SimConfig;
use crate::event::Tick;
use crate::metrics::RunTrace;

/// Bus subscriber that folds the standard topic stream into a
/// [`RunTrace`], mutation-for-mutation identical to the pre-bus kernel.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: RunTrace,
    duration_ticks: Tick,
}

impl TraceBuilder {
    /// A builder for a run of `cfg` (the trace's integrals and
    /// serialization gates come from the config, so replaying a log
    /// against a different config is meaningless).
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            trace: RunTrace::new(cfg),
            duration_ticks: cfg.duration_ticks,
        }
    }

    /// The folded trace (complete only after a `Finish` sample).
    #[must_use]
    pub fn into_trace(self) -> RunTrace {
        self.trace
    }

    fn apply(&mut self, s: &Sample) {
        match s.payload {
            Payload::Capture { filtered, .. } => {
                self.trace.captured += 1;
                if filtered {
                    self.trace.filtered_out += 1;
                } else {
                    self.trace.arrived += 1;
                }
            }
            Payload::Processed { capture } => {
                self.trace.processed += 1;
                self.trace.record_processing_latency(s.tick - capture);
            }
            Payload::Delivered { capture } => {
                self.trace.delivered += 1;
                self.trace.record_delivery_latency(s.tick - capture);
            }
            Payload::Settle {
                events,
                busy,
                batch_queue,
                downlink_queue,
                full,
            } => {
                self.trace.advance_to(
                    s.tick,
                    busy,
                    batch_queue as usize,
                    downlink_queue as usize,
                    full,
                );
                self.trace.events += events;
            }
            Payload::QueueDepth { downlink, len } => {
                if downlink {
                    self.trace.note_downlink_queue_len(len as usize);
                } else {
                    self.trace.note_batch_queue_len(len as usize);
                }
            }
            Payload::Backlog {
                isl,
                batch,
                downlink,
                oldest_age,
            } => {
                self.trace.record_backlog_sample(
                    isl as usize,
                    batch as usize,
                    downlink as usize,
                    oldest_age,
                );
            }
            Payload::BatchDispatched { timeout, .. } => {
                if timeout {
                    self.trace.timeout_batches += 1;
                }
                self.trace.batches += 1;
            }
            Payload::Finish {
                busy,
                batch_queue,
                downlink_queue,
                full,
                peak_event_queue,
            } => {
                self.trace.peak_event_queue = peak_event_queue as usize;
                self.trace.finish(
                    self.duration_ticks,
                    busy,
                    batch_queue as usize,
                    downlink_queue as usize,
                    full,
                );
            }
            Payload::Fault { kind, count } => match kind {
                FaultKind::BatchOverflow => self.trace.shed_batch_overflow += count,
                FaultKind::DownlinkOverflow => self.trace.shed_downlink_overflow += count,
                FaultKind::DeadlineShed => self.trace.shed_deadline += count,
                FaultKind::Corrupted => self.trace.corrupted += count,
                FaultKind::Retry => self.trace.retries += count,
                FaultKind::RetryExhausted => self.trace.retry_exhausted += count,
                FaultKind::NodeFailure => self.trace.failures += count,
                FaultKind::Promotion => self.trace.promotions += count,
                FaultKind::DormantDeath => self.trace.dormant_deaths += count,
                FaultKind::StormKill => {
                    // A storm latch-up is both a node failure and a storm
                    // statistic — one event, two counters.
                    self.trace.failures += count;
                    self.trace.storm_node_kills += count;
                }
                FaultKind::IslFlap => self.trace.isl_flaps += count,
                FaultKind::Blackout => self.trace.blackout_windows += count,
            },
            Payload::Heartbeat { .. } => self.trace.heartbeats += 1,
            Payload::Health { event, value, .. } => match event {
                HealthEvent::Suspect => self.trace.suspects += 1,
                HealthEvent::FalseSuspect => self.trace.false_suspects += 1,
                HealthEvent::Dead => {
                    self.trace.detections += 1;
                    // `value` carries the ground-truth failure → DEAD
                    // declaration gap, so replay reproduces the latency
                    // population without re-running the detector.
                    self.trace.record_detection_latency(value);
                }
                HealthEvent::Readmit => self.trace.readmissions += 1,
            },
        }
    }
}

impl Subscriber for TraceBuilder {
    fn deliver(&mut self, _topic: TopicId, sample: &Sample) {
        self.apply(sample);
    }
}

/// The kernel's handle on the data plane: a bus over the standard topic
/// table with a [`TraceBuilder`] attached.
pub(crate) struct SimBus {
    bus: Bus<TraceBuilder>,
}

impl SimBus {
    pub(crate) fn new(cfg: &SimConfig, record: bool) -> Self {
        let config = BusConfig::standard();
        let builder = TraceBuilder::new(cfg);
        Self {
            bus: if record {
                Bus::recording(config, builder)
            } else {
                Bus::passthrough(config, builder)
            },
        }
    }

    #[inline]
    pub(crate) fn publish(&mut self, tick: Tick, payload: Payload) {
        self.bus.publish(Sample { tick, payload });
    }

    pub(crate) fn into_run(self) -> BusRun {
        let (builder, log, stats) = self.bus.into_parts();
        BusRun {
            trace: builder.into_trace(),
            log,
            stats,
        }
    }
}

/// Outcome of one bus-routed kernel run.
#[derive(Debug)]
pub struct BusRun {
    /// The folded measurement record (identical to [`crate::run`]'s).
    pub trace: RunTrace,
    /// The recorded topic stream, if the run was recording.
    pub log: Option<BusLog>,
    /// Per-topic publish counters.
    pub stats: BusStats,
}

/// Re-drives a recorded topic stream through a fresh [`TraceBuilder`],
/// reproducing the live run's [`RunTrace`] byte for byte. `cfg` must be
/// the configuration the log was recorded under.
///
/// # Errors
///
/// Returns a [`SudcError`] if the log is malformed (see
/// [`BusLog::try_visit`]).
pub fn replay(cfg: &SimConfig, log: &BusLog) -> Result<RunTrace, SudcError> {
    let mut builder = TraceBuilder::new(cfg);
    log.try_visit(|s| builder.apply(s))?;
    Ok(builder.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, GroundBlackouts, IslFlaps, StormModel};
    use crate::kernel;
    use sudc_bus::{TOPIC_CAPTURES, TOPIC_TELEMETRY};
    use sudc_units::Seconds;

    fn stress_faults() -> FaultConfig {
        let mut f = FaultConfig::quiet();
        f.upset_probability = 0.05;
        f.storm = Some(StormModel {
            period_ticks: 4000,
            duration_ticks: 600,
            offset_ticks: 1000,
            seu_multiplier: 20.0,
            node_kill_probability: 0.2,
            major_probability: 0.25,
            major_multiplier: 3.0,
        });
        f.isl = Some(IslFlaps {
            links: 3,
            mean_up_ticks: 2000.0,
            mean_down_ticks: 400.0,
        });
        f.ground = Some(GroundBlackouts {
            blackout_probability: 0.3,
        });
        f
    }

    #[test]
    fn recorded_replay_reproduces_the_live_trace() {
        for cfg in [
            SimConfig::reference_operations(Seconds::new(1800.0)),
            // The 1 000-satellite weak-scaling point, past the 64-sat presets.
            SimConfig::scaled_fleet(1000, Seconds::new(1800.0)),
        ] {
            let run = kernel::run_on_bus(&cfg, 7, true);
            let log = run.log.expect("recording run keeps a log");
            assert!(log.records() > 0);
            assert_eq!(replay(&cfg, &log).unwrap(), run.trace);
        }
    }

    #[test]
    fn recorded_replay_survives_every_fault_process() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let run = kernel::run_on_bus(&cfg, 21, true);
        let log = run.log.expect("recording run keeps a log");
        assert_eq!(replay(&cfg, &log).unwrap(), run.trace);
        // The wire format round-trips the stream exactly.
        let reparsed = sudc_bus::BusLog::try_from_bytes(log.as_bytes()).unwrap();
        assert_eq!(replay(&cfg, &reparsed).unwrap(), run.trace);
    }

    #[test]
    fn recording_does_not_perturb_the_trace() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let live = kernel::run(&cfg, 3);
        let recorded = kernel::run_on_bus(&cfg, 3, true);
        assert_eq!(live, recorded.trace);
    }

    #[test]
    fn topic_counters_track_the_pipeline() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0));
        let run = kernel::run_on_bus(&cfg, 5, false);
        assert_eq!(run.stats.published(TOPIC_CAPTURES), run.trace.captured);
        assert!(run.stats.published(TOPIC_TELEMETRY) > 0);
        assert!(run.stats.total() >= run.trace.captured);
    }
}
