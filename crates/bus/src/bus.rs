//! The bus core: synchronous publish with per-topic accounting and
//! optional recording.
//!
//! [`Bus`] is deliberately minimal on the hot path — a publish is a
//! topic lookup (static, from the payload), a counter increment, an
//! optional log append, and a synchronous [`Subscriber::deliver`]. In
//! passthrough mode (no recorder) this is what lets the sim kernel
//! route every pipeline hop through the bus while staying trace-equal
//! to the frozen baseline.

use crate::record::BusLog;
use crate::sample::Sample;
use crate::topic::{BusConfig, TopicId};

/// A synchronous sample sink attached to the bus.
pub trait Subscriber {
    /// Receives one published sample. `topic` is derived from the
    /// payload, so demultiplexing needs no side table.
    fn deliver(&mut self, topic: TopicId, sample: &Sample);
}

/// Per-topic publish counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusStats {
    counts: Vec<u64>,
}

impl BusStats {
    /// Samples published on `topic`.
    #[must_use]
    pub fn published(&self, topic: TopicId) -> u64 {
        self.counts.get(topic.index()).copied().unwrap_or(0)
    }

    /// Total samples published across all topics.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A typed pub/sub bus with one attached subscriber.
#[derive(Debug)]
pub struct Bus<S> {
    config: BusConfig,
    stats: BusStats,
    recorder: Option<BusLog>,
    subscriber: S,
}

impl<S: Subscriber> Bus<S> {
    /// A bus that forwards samples straight to `subscriber` with no
    /// recording — zero-copy passthrough mode.
    #[must_use]
    pub fn passthrough(config: BusConfig, subscriber: S) -> Self {
        Self::build(config, subscriber, false)
    }

    /// A bus that additionally appends every sample to a [`BusLog`].
    #[must_use]
    pub fn recording(config: BusConfig, subscriber: S) -> Self {
        Self::build(config, subscriber, true)
    }

    fn build(config: BusConfig, subscriber: S, record: bool) -> Self {
        let stats = BusStats {
            counts: vec![0; config.len()],
        };
        Self {
            config,
            stats,
            recorder: record.then(BusLog::new),
            subscriber,
        }
    }

    /// Publishes one sample: count, optionally record, deliver.
    #[inline]
    pub fn publish(&mut self, sample: Sample) {
        let topic = sample.payload.topic();
        debug_assert!(
            topic.index() < self.config.len(),
            "payload routed to an unregistered topic"
        );
        self.stats.counts[topic.index()] += 1;
        if let Some(log) = &mut self.recorder {
            log.push(&sample);
        }
        self.subscriber.deliver(topic, &sample);
    }

    /// Per-topic publish counters so far.
    #[must_use]
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Tears the bus down into its subscriber, recorded log (if
    /// recording), and counters.
    #[must_use]
    pub fn into_parts(self) -> (S, Option<BusLog>, BusStats) {
        (self.subscriber, self.recorder, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Payload;
    use crate::topic::{TOPIC_CAPTURES, TOPIC_TELEMETRY};

    #[derive(Default)]
    struct Tally(Vec<(TopicId, Sample)>);
    impl Subscriber for Tally {
        fn deliver(&mut self, topic: TopicId, sample: &Sample) {
            self.0.push((topic, *sample));
        }
    }

    #[test]
    fn passthrough_counts_and_delivers_in_order() {
        let mut bus = Bus::passthrough(BusConfig::standard(), Tally::default());
        bus.publish(Sample {
            tick: 1,
            payload: Payload::Capture {
                sat: 0,
                filtered: false,
            },
        });
        bus.publish(Sample {
            tick: 2,
            payload: Payload::QueueDepth {
                downlink: false,
                len: 1,
            },
        });
        assert_eq!(bus.stats().published(TOPIC_CAPTURES), 1);
        assert_eq!(bus.stats().published(TOPIC_TELEMETRY), 1);
        assert_eq!(bus.stats().total(), 2);
        let (tally, log, _) = bus.into_parts();
        assert!(log.is_none());
        assert_eq!(tally.0.len(), 2);
        assert_eq!(tally.0[0].0, TOPIC_CAPTURES);
    }

    #[test]
    fn recording_mode_captures_the_stream() {
        let mut bus = Bus::recording(BusConfig::standard(), Tally::default());
        let samples = [
            Sample {
                tick: 3,
                payload: Payload::Capture {
                    sat: 4,
                    filtered: true,
                },
            },
            Sample {
                tick: 9,
                payload: Payload::Processed { capture: 3 },
            },
        ];
        for s in samples {
            bus.publish(s);
        }
        let (_, log, stats) = bus.into_parts();
        let log = log.expect("recording mode keeps a log");
        assert_eq!(log.records(), 2);
        let mut decoded = Vec::new();
        assert_eq!(log.try_visit(|s| decoded.push(*s)).unwrap(), 2);
        assert_eq!(decoded, samples);
        assert_eq!(stats.total(), 2);
    }
}
