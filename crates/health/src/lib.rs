//! Closed-loop health plane for the SuDC constellation.
//!
//! The chaos layer (`sudc-chaos`) injects faults and the sim measures
//! the aftermath, but nothing in the stack *observes* a failure while
//! the run is live and feeds a decision back into the system. This
//! crate closes that loop:
//!
//! * [`HealthConfig`] — the recovery controller's contract: heartbeat
//!   lease, tick-quantized suspicion thresholds (SUSPECT → DEAD), and
//!   readmission probation.
//! * [`HealthController`] — a deterministic phi-accrual-style failure
//!   detector per monitored node. Heartbeats arrive from the
//!   `ops/telemetry` topic; periodic scans quantize the elapsed silence
//!   into missed leases and walk each node through
//!   ALIVE → SUSPECT → DEAD (quarantine) with bounded readmission
//!   probation. No randomness anywhere: the detector is a pure function
//!   of the heartbeat/scan schedule, so a run is byte-identical at any
//!   thread count.
//! * [`PoolTimeline`] — the degraded-mode view: replaying a recorded
//!   `ops/faults` stream (a [`sudc_bus::BusLog`]) through the detector's
//!   published verdicts yields a per-interval alive-fraction timeline
//!   that the router consumes as per-block SµDC pool fractions
//!   (`RouterConfig::try_with_degraded_pools`).
//!
//! The sim kernel (`sudc-sim`) hosts the controller when
//! `SimConfig.health` is set: powered nodes heartbeat every lease, the
//! detector scans at the same cadence, and in closed-loop mode a cold
//! spare is promoted only when the detector declares a node DEAD —
//! detection latency becomes promotion latency, the quantity the
//! `health` figures experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod detector;
mod timeline;

pub use config::{HealthConfig, LoweredHealth};
pub use detector::{HealthController, HealthCounters, NodeHealth, ScanVerdict};
pub use timeline::PoolTimeline;
