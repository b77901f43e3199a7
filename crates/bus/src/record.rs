//! Compact binary recording of a bus session (the hdds-recording
//! idiom): every published sample appended to a delta-encoded log that
//! can re-drive any subscriber deterministically.
//!
//! ## Wire format
//!
//! A log is a flat byte stream of records. Each record is:
//!
//! ```text
//! tag:u8  dtick:varint  fields…
//! ```
//!
//! `dtick` is the tick delta since the previous record (publication
//! ticks are nondecreasing, so deltas are small and LEB128-friendly).
//! Integers are unsigned LEB128 varints; booleans are one byte, `0` or
//! `1`. Latency-bearing payloads (`Processed`, `Delivered`) encode the
//! capture tick as an *age* (`tick - capture`), which is tiny compared
//! to the absolute tick. Decoding validates every tag, boolean, and
//! varint terminator and reports structured [`SudcError`]s, so a
//! truncated or corrupted log is rejected rather than misread.

use crate::sample::{FaultKind, HealthEvent, Payload, Sample, Tick};
use sudc_errors::SudcError;

const TAG_CAPTURE: u8 = 1;
const TAG_PROCESSED: u8 = 2;
const TAG_DELIVERED: u8 = 3;
const TAG_SETTLE: u8 = 4;
const TAG_QUEUE_DEPTH: u8 = 5;
const TAG_BACKLOG: u8 = 6;
const TAG_BATCH_DISPATCHED: u8 = 7;
const TAG_FAULT: u8 = 8;
const TAG_FINISH: u8 = 9;
const TAG_HEARTBEAT: u8 = 10;
const TAG_HEALTH: u8 = 11;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// Streaming decoder state over a log's bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, path: &str, value: impl std::fmt::Display, allowed: &str) -> SudcError {
        SudcError::single(
            "BusLog",
            format!("{path} (byte offset {})", self.pos),
            value,
            allowed,
        )
    }

    fn byte(&mut self, path: &str) -> Result<u8, SudcError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err(path, "end of log", "at least one more byte"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self, path: &str) -> Result<u64, SudcError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte(path)?;
            if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
                return Err(self.err(path, b, "a varint that fits in 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint that must fit a `u32` field (`sat`, `busy`). The wire
    /// format carries u64 varints, so a hostile or corrupt log can
    /// encode values above `u32::MAX`; a plain `as u32` cast would wrap
    /// silently past full-decode validation.
    fn varint_u32(&mut self, path: &str) -> Result<u32, SudcError> {
        let v = self.varint(path)?;
        u32::try_from(v).map_err(|_| self.err(path, v, "a varint that fits in 32 bits"))
    }

    fn boolean(&mut self, path: &str) -> Result<bool, SudcError> {
        match self.byte(path)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(path, other, "a boolean byte (0 or 1)")),
        }
    }
}

/// An append-only binary log of every sample published on a bus.
///
/// Comparing two logs with `==` compares the encoded bytes — two runs
/// that produce equal logs published identical streams.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusLog {
    bytes: Vec<u8>,
    records: u64,
    last_tick: Tick,
}

impl BusLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    ///
    /// Publication ticks must be nondecreasing, and latency-bearing
    /// payloads must carry `capture <= tick` — both hold for every
    /// stream the sim kernel publishes, and both are `debug_assert`ed.
    pub fn push(&mut self, sample: &Sample) {
        debug_assert!(
            sample.tick >= self.last_tick,
            "publication ticks must be nondecreasing"
        );
        let out = &mut self.bytes;
        let dtick = sample.tick.saturating_sub(self.last_tick);
        match sample.payload {
            Payload::Capture { sat, filtered } => {
                out.push(TAG_CAPTURE);
                put_varint(out, dtick);
                put_varint(out, u64::from(sat));
                put_bool(out, filtered);
            }
            Payload::Processed { capture } => {
                debug_assert!(capture <= sample.tick);
                out.push(TAG_PROCESSED);
                put_varint(out, dtick);
                put_varint(out, sample.tick.saturating_sub(capture));
            }
            Payload::Delivered { capture } => {
                debug_assert!(capture <= sample.tick);
                out.push(TAG_DELIVERED);
                put_varint(out, dtick);
                put_varint(out, sample.tick.saturating_sub(capture));
            }
            Payload::Settle {
                events,
                busy,
                batch_queue,
                downlink_queue,
                full,
            } => {
                out.push(TAG_SETTLE);
                put_varint(out, dtick);
                put_varint(out, events);
                put_varint(out, u64::from(busy));
                put_varint(out, batch_queue);
                put_varint(out, downlink_queue);
                put_bool(out, full);
            }
            Payload::QueueDepth { downlink, len } => {
                out.push(TAG_QUEUE_DEPTH);
                put_varint(out, dtick);
                put_bool(out, downlink);
                put_varint(out, len);
            }
            Payload::Backlog {
                isl,
                batch,
                downlink,
                oldest_age,
            } => {
                out.push(TAG_BACKLOG);
                put_varint(out, dtick);
                put_varint(out, isl);
                put_varint(out, batch);
                put_varint(out, downlink);
                put_bool(out, oldest_age.is_some());
                if let Some(age) = oldest_age {
                    put_varint(out, age);
                }
            }
            Payload::BatchDispatched { size, timeout } => {
                out.push(TAG_BATCH_DISPATCHED);
                put_varint(out, dtick);
                put_varint(out, size);
                put_bool(out, timeout);
            }
            Payload::Fault { kind, count } => {
                out.push(TAG_FAULT);
                put_varint(out, dtick);
                out.push(kind.wire_tag());
                put_varint(out, count);
            }
            Payload::Finish {
                busy,
                batch_queue,
                downlink_queue,
                full,
                peak_event_queue,
            } => {
                out.push(TAG_FINISH);
                put_varint(out, dtick);
                put_varint(out, u64::from(busy));
                put_varint(out, batch_queue);
                put_varint(out, downlink_queue);
                put_bool(out, full);
                put_varint(out, peak_event_queue);
            }
            Payload::Heartbeat { node } => {
                out.push(TAG_HEARTBEAT);
                put_varint(out, dtick);
                put_varint(out, u64::from(node));
            }
            Payload::Health { event, node, value } => {
                out.push(TAG_HEALTH);
                put_varint(out, dtick);
                out.push(event.wire_tag());
                put_varint(out, u64::from(node));
                put_varint(out, value);
            }
        }
        self.last_tick = sample.tick;
        self.records += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded log.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses and validates a log from raw bytes (a full decode pass —
    /// a truncated or corrupt log is rejected up front).
    ///
    /// # Errors
    /// Returns a [`SudcError`] naming the byte offset and field of the
    /// first malformed record.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, SudcError> {
        let mut log = Self {
            bytes: bytes.to_vec(),
            records: 0,
            last_tick: 0,
        };
        let mut records = 0u64;
        let mut last = 0u64;
        Self::visit_bytes(bytes, |s| {
            records += 1;
            last = s.tick;
        })?;
        log.records = records;
        log.last_tick = last;
        Ok(log)
    }

    /// Decodes every sample in order, invoking `f` on each.
    ///
    /// # Errors
    /// Returns a [`SudcError`] naming the byte offset and field of the
    /// first malformed record.
    pub fn try_visit(&self, f: impl FnMut(&Sample)) -> Result<u64, SudcError> {
        Self::visit_bytes(&self.bytes, f)?;
        Ok(self.records)
    }

    fn visit_bytes(bytes: &[u8], mut f: impl FnMut(&Sample)) -> Result<(), SudcError> {
        let mut c = Cursor { bytes, pos: 0 };
        let mut tick: Tick = 0;
        while c.pos < c.bytes.len() {
            let tag = c.byte("tag")?;
            if !(TAG_CAPTURE..=TAG_HEALTH).contains(&tag) {
                return Err(c.err("tag", tag, "a known record tag (1..=11)"));
            }
            tick += c.varint("dtick")?;
            let payload = match tag {
                TAG_CAPTURE => Payload::Capture {
                    sat: c.varint_u32("sat")?,
                    filtered: c.boolean("filtered")?,
                },
                TAG_PROCESSED => Payload::Processed {
                    capture: tick.saturating_sub(c.varint("age")?),
                },
                TAG_DELIVERED => Payload::Delivered {
                    capture: tick.saturating_sub(c.varint("age")?),
                },
                TAG_SETTLE => Payload::Settle {
                    events: c.varint("events")?,
                    busy: c.varint_u32("busy")?,
                    batch_queue: c.varint("batch_queue")?,
                    downlink_queue: c.varint("downlink_queue")?,
                    full: c.boolean("full")?,
                },
                TAG_QUEUE_DEPTH => Payload::QueueDepth {
                    downlink: c.boolean("downlink")?,
                    len: c.varint("len")?,
                },
                TAG_BACKLOG => {
                    let isl = c.varint("isl")?;
                    let batch = c.varint("batch")?;
                    let downlink = c.varint("downlink")?;
                    let oldest_age = if c.boolean("has_age")? {
                        Some(c.varint("oldest_age")?)
                    } else {
                        None
                    };
                    Payload::Backlog {
                        isl,
                        batch,
                        downlink,
                        oldest_age,
                    }
                }
                TAG_BATCH_DISPATCHED => Payload::BatchDispatched {
                    size: c.varint("size")?,
                    timeout: c.boolean("timeout")?,
                },
                TAG_FAULT => {
                    let raw = c.byte("fault kind")?;
                    let kind = FaultKind::from_wire_tag(raw)
                        .ok_or_else(|| c.err("fault kind", raw, "a known FaultKind wire tag"))?;
                    Payload::Fault {
                        kind,
                        count: c.varint("count")?,
                    }
                }
                TAG_FINISH => Payload::Finish {
                    busy: c.varint_u32("busy")?,
                    batch_queue: c.varint("batch_queue")?,
                    downlink_queue: c.varint("downlink_queue")?,
                    full: c.boolean("full")?,
                    peak_event_queue: c.varint("peak_event_queue")?,
                },
                TAG_HEARTBEAT => Payload::Heartbeat {
                    node: c.varint_u32("node")?,
                },
                TAG_HEALTH => {
                    let raw = c.byte("health event")?;
                    let event = HealthEvent::from_wire_tag(raw).ok_or_else(|| {
                        c.err("health event", raw, "a known HealthEvent wire tag")
                    })?;
                    Payload::Health {
                        event,
                        node: c.varint_u32("node")?,
                        value: c.varint("value")?,
                    }
                }
                other => return Err(c.err("tag", other, "a known record tag (1..=11)")),
            };
            f(&Sample { tick, payload });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(samples: &[Sample]) {
        let mut log = BusLog::new();
        for s in samples {
            log.push(s);
        }
        let reparsed = BusLog::try_from_bytes(log.as_bytes()).expect("valid log");
        assert_eq!(reparsed, log);
        let mut decoded = Vec::new();
        reparsed.try_visit(|s| decoded.push(*s)).unwrap();
        assert_eq!(decoded, samples);
    }

    #[test]
    fn every_payload_roundtrips() {
        roundtrip(&[
            Sample {
                tick: 0,
                payload: Payload::Settle {
                    events: 3,
                    busy: 0,
                    batch_queue: 0,
                    downlink_queue: 0,
                    full: true,
                },
            },
            Sample {
                tick: 0,
                payload: Payload::Capture {
                    sat: 17,
                    filtered: false,
                },
            },
            Sample {
                tick: 5,
                payload: Payload::Capture {
                    sat: 300,
                    filtered: true,
                },
            },
            Sample {
                tick: 9,
                payload: Payload::QueueDepth {
                    downlink: false,
                    len: 4,
                },
            },
            Sample {
                tick: 9,
                payload: Payload::BatchDispatched {
                    size: 16,
                    timeout: false,
                },
            },
            Sample {
                tick: 40,
                payload: Payload::Processed { capture: 0 },
            },
            Sample {
                tick: 41,
                payload: Payload::QueueDepth {
                    downlink: true,
                    len: 1,
                },
            },
            Sample {
                tick: 50,
                payload: Payload::Backlog {
                    isl: 1,
                    batch: 2,
                    downlink: 3,
                    oldest_age: Some(10),
                },
            },
            Sample {
                tick: 51,
                payload: Payload::Backlog {
                    isl: 0,
                    batch: 0,
                    downlink: 0,
                    oldest_age: None,
                },
            },
            Sample {
                tick: 60,
                payload: Payload::Fault {
                    kind: FaultKind::StormKill,
                    count: 2,
                },
            },
            Sample {
                tick: 90,
                payload: Payload::Delivered { capture: 5 },
            },
            Sample {
                tick: 93,
                payload: Payload::Heartbeat { node: 7 },
            },
            Sample {
                tick: 95,
                payload: Payload::Health {
                    event: HealthEvent::Dead,
                    node: 7,
                    value: 120,
                },
            },
            Sample {
                tick: 95,
                payload: Payload::Health {
                    event: HealthEvent::Readmit,
                    node: 2,
                    value: 0,
                },
            },
            Sample {
                tick: 100,
                payload: Payload::Finish {
                    busy: 0,
                    batch_queue: 0,
                    downlink_queue: 0,
                    full: true,
                    peak_event_queue: 12,
                },
            },
        ]);
    }

    #[test]
    fn truncated_and_corrupt_logs_are_rejected() {
        let mut log = BusLog::new();
        log.push(&Sample {
            tick: 7,
            payload: Payload::Capture {
                sat: 1,
                filtered: false,
            },
        });
        let bytes = log.as_bytes();
        // Truncation at every prefix must fail (except the empty log).
        for cut in 1..bytes.len() {
            assert!(BusLog::try_from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // An unknown tag fails with a structured error naming the offset.
        let err = BusLog::try_from_bytes(&[0xEE]).unwrap_err();
        assert!(err.violations()[0].path.contains("tag"));
        // A non-boolean boolean byte fails.
        let mut bad = bytes.to_vec();
        *bad.last_mut().unwrap() = 7;
        assert!(BusLog::try_from_bytes(&bad).is_err());
    }

    #[test]
    fn out_of_range_u32_varints_are_rejected_not_wrapped() {
        // Hand-encode records whose `sat`/`busy` varints exceed
        // u32::MAX. These are valid 64-bit varints, so the old `as u32`
        // cast would have wrapped them silently (e.g. u32::MAX + 1 → 0).
        let overflowing = [u64::from(u32::MAX) + 1, u64::MAX];
        for value in overflowing {
            // TAG_CAPTURE: tag, dtick=0, sat=value, filtered=0.
            let mut capture = vec![TAG_CAPTURE, 0];
            put_varint(&mut capture, value);
            put_bool(&mut capture, false);
            let err = BusLog::try_from_bytes(&capture).unwrap_err();
            let v = &err.violations()[0];
            assert!(v.path.contains("sat"), "path={}", v.path);
            assert!(v.value.contains(&value.to_string()), "value={}", v.value);

            // TAG_SETTLE: tag, dtick=0, events=1, busy=value, …
            let mut settle = vec![TAG_SETTLE, 0, 1];
            put_varint(&mut settle, value);
            settle.extend_from_slice(&[0, 0, 1]);
            let err = BusLog::try_from_bytes(&settle).unwrap_err();
            assert!(err.violations()[0].path.contains("busy"));

            // TAG_FINISH: tag, dtick=0, busy=value, …
            let mut finish = vec![TAG_FINISH, 0];
            put_varint(&mut finish, value);
            finish.extend_from_slice(&[0, 0, 1, 0]);
            let err = BusLog::try_from_bytes(&finish).unwrap_err();
            assert!(err.violations()[0].path.contains("busy"));
        }
        // The boundary value itself still decodes.
        let mut ok = vec![TAG_CAPTURE, 0];
        put_varint(&mut ok, u64::from(u32::MAX));
        put_bool(&mut ok, true);
        let log = BusLog::try_from_bytes(&ok).unwrap();
        let mut decoded = Vec::new();
        log.try_visit(|s| decoded.push(s.payload)).unwrap();
        assert_eq!(
            decoded,
            [Payload::Capture {
                sat: u32::MAX,
                filtered: true,
            }]
        );
    }

    #[test]
    fn unknown_health_event_tags_are_rejected() {
        // TAG_HEALTH: tag, dtick=0, event tag beyond HealthEvent::ALL.
        let bad = [TAG_HEALTH, 0, HealthEvent::ALL.len() as u8, 0, 0];
        let err = BusLog::try_from_bytes(&bad).unwrap_err();
        assert!(err.violations()[0].path.contains("health event"));
    }

    #[test]
    fn empty_log_is_valid() {
        let log = BusLog::try_from_bytes(&[]).unwrap();
        assert_eq!(log.records(), 0);
        assert_eq!(log.byte_len(), 0);
    }
}
