//! QoS-contracted publish/subscribe data plane for the SuDC
//! constellation pipeline.
//!
//! The operations pipeline of the paper — capture → edge filter → ISL
//! transfer → batch compute → downlink — is a chain of *deliveries*
//! with very different guarantees: a lost telemetry sample costs
//! nothing, a lost insight costs a captured observation, and a stale
//! insight is worthless even if delivered. This crate makes those
//! guarantees explicit, in the DDS DataWriter/DataReader shape:
//!
//! * [`BusConfig`] registers named topics, each with a [`QosContract`]
//!   (reliability / deadline / durability / history).
//! * [`Bus`] publishes typed [`Sample`]s to a synchronous
//!   [`Subscriber`]; in passthrough mode the overhead over direct state
//!   mutation is a counter and a match.
//! * [`BusLog`] records a session as a compact delta-encoded binary
//!   stream that can re-drive any subscriber deterministically.
//!
//! The bus declares the contracts; it does not execute them. Each
//! policy lowers onto a physical model that already exists in the
//! workspace (see [`QosContract::try_lower`] and `docs/MODELING.md`
//! § Data plane), and the sim kernel's `RecoveryPolicy` is its one
//! executor: `RELIABLE` becomes the bounded ISL retry budget,
//! `DEADLINE` becomes the standing freshness SLO
//! ([`STANDARD_FRESHNESS_DEADLINE_S`]), and `TRANSIENT_LOCAL` becomes
//! the downlink queue that stores insights until the next contact
//! window, bounded by `RecoveryPolicy.downlink_queue_limit`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod qos;
mod record;
mod sample;
mod topic;

pub use bus::{Bus, BusStats, Subscriber};
pub use qos::{Durability, LoweredQos, QosContract, Reliability, STANDARD_FRESHNESS_DEADLINE_S};
pub use record::BusLog;
pub use sample::{FaultKind, HealthEvent, Payload, Sample, Tick};
pub use topic::{
    BusConfig, TopicId, TopicSpec, MAX_TOPICS, TOPIC_CAPTURES, TOPIC_FAULTS, TOPIC_INSIGHTS,
    TOPIC_TELEMETRY,
};
