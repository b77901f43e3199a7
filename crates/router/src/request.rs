//! The synthetic tasking stream and block admission.
//!
//! Requests are generated as a pure function of `(seed, block index)`
//! through [`sudc_par::rng::Rng64::stream`], so any block can be
//! materialized independently on any worker thread and the stream is
//! bit-identical at every `--jobs` count. [`admit`] then partitions a
//! block into the requests its bounded queue sheds and the order the
//! rest drain in.

use sudc_errors::{Diagnostics, SudcError};
use sudc_par::rng::Rng64;

use crate::config::APPS;

/// Scheduling class of a request, derived from its deadline.
///
/// Lower discriminant drains first; within a class the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Priority {
    /// Deadline under five minutes (disaster response, tip-and-cue).
    Urgent = 0,
    /// Deadline under an hour (routine monitoring).
    Standard = 1,
    /// Deadline measured in hours (archival, mosaics).
    Bulk = 2,
}

impl Priority {
    /// All classes, in drain order.
    pub const ALL: [Self; 3] = [Self::Urgent, Self::Standard, Self::Bulk];

    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Index into per-class tables.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable identifier used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Urgent => "urgent",
            Self::Standard => "standard",
            Self::Bulk => "bulk",
        }
    }
}

/// One tasking request: "run application `app` over a capture of
/// `size_gbit` at (`lat_deg`, `lon_deg`), insight needed within
/// `deadline_s`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stream-unique id (position in the generated stream).
    pub id: u64,
    /// Capture latitude, degrees (positive north).
    pub lat_deg: f64,
    /// Capture longitude, degrees (positive east).
    pub lon_deg: f64,
    /// Index into the Table III workload suite, `0..APPS`.
    pub app: u8,
    /// Raw payload size, Gbit.
    pub size_gbit: f64,
    /// Freshness deadline from capture to delivered insight, seconds.
    pub deadline_s: f64,
    /// Scheduling class (derived from the deadline at generation).
    pub priority: Priority,
}

/// Parameters of the synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Total requests to generate.
    pub requests: u64,
    /// Stream seed; each block draws from `Rng64::stream(seed, block)`.
    pub seed: u64,
    /// Requests per generation block (the admission-queue and scoring
    /// granularity; also the `sudc-par` sharding unit).
    pub block: usize,
    /// Admission-queue capacity per block; when a block's carried work
    /// plus arrivals exceed it, the oldest of them are shed (see
    /// [`admit`]).
    pub queue_capacity: usize,
    /// Modeled arrival rate of the tasking stream, requests/second. Sets
    /// how much ground-segment downlink budget each block's time-span
    /// earns (see `RouterConfig::ground_capacity_gbit_per_s`).
    pub arrival_per_s: f64,
}

impl StreamConfig {
    /// A stream of `requests` tasking requests with the reference
    /// defaults: 4096-request blocks, an admission queue sized to the
    /// block, and the reference scenario's EO capture rate.
    #[must_use]
    pub fn new(requests: u64, seed: u64, arrival_per_s: f64) -> Self {
        Self {
            requests,
            seed,
            block: 4096,
            queue_capacity: 4096,
            arrival_per_s,
        }
    }

    /// Validates the stream parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] naming each violation.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("StreamConfig");
        d.positive_count("requests", self.requests);
        d.positive_count("block", self.block as u64);
        d.positive_count("queue_capacity", self.queue_capacity as u64);
        d.positive("arrival_per_s", self.arrival_per_s);
        d.finish()
    }

    /// Number of generation blocks.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.requests.div_ceil(self.block.max(1) as u64)
    }

    /// Length of block `b` (the last block may be short).
    #[must_use]
    pub fn block_len(&self, b: u64) -> usize {
        let start = b * self.block as u64;
        let end = (start + self.block as u64).min(self.requests);
        end.saturating_sub(start) as usize
    }

    /// Generates block `b` of the stream — a pure function of
    /// `(seed, b)`.
    #[must_use]
    pub fn generate_block(&self, b: u64) -> Vec<Request> {
        let mut rng = Rng64::stream(self.seed, b);
        let start = b * self.block as u64;
        let len = self.block_len(b);
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(draw_request(&mut rng, start + i as u64));
        }
        out
    }
}

/// Draws one request from the stream RNG. Draws are inlined
/// `lo + u*(hi-lo)` rather than `next_range` calls: this runs once per
/// generated request and must stay allocation-free.
fn draw_request(rng: &mut Rng64, id: u64) -> Request {
    // EO tasking concentrates in the imaging band.
    let lat_deg = -66.0 + rng.next_f64() * 132.0;
    let lon_deg = -180.0 + rng.next_f64() * 360.0;
    let app = rng.next_below(APPS as u64) as u8;
    // Payload from a quarter frame (chips) to a four-frame strip.
    let size_frames = 0.25 + rng.next_f64() * 3.75;
    // Deadline class mix: 20% urgent, 60% standard, 20% bulk.
    let class = rng.next_f64();
    let (priority, deadline_s) = if class < 0.2 {
        (Priority::Urgent, 30.0 + rng.next_f64() * 270.0)
    } else if class < 0.8 {
        (Priority::Standard, 300.0 + rng.next_f64() * 3300.0)
    } else {
        (Priority::Bulk, 3600.0 + rng.next_f64() * 18_000.0)
    };
    Request {
        id,
        lat_deg,
        lon_deg,
        app,
        size_gbit: size_frames, // scaled to Gbit by the engine's image size
        deadline_s,
        priority,
    }
}

/// Admits one block: the bounded, priority-classed admission queue as a
/// pure partition of the requests pushed into it.
///
/// `priorities` lists the block's requests in push order (carried work
/// first, then arrivals). Every request is pushed before any is popped,
/// so a queue of `capacity` slots that sheds its globally oldest entry
/// on overflow reduces to two rules:
///
/// - the oldest `max(0, len - capacity)` requests are shed, in push
///   order — that count is the first value returned, and the shed
///   requests are push indices `0..shed`;
/// - the survivors drain stably by class, `Urgent` before `Standard`
///   before `Bulk`, FIFO within a class — the second value lists their
///   push indices in that order.
///
/// `tests/router_model.rs` holds this to a flat-scan queue model.
#[must_use]
pub fn admit(priorities: &[Priority], capacity: usize) -> (usize, Vec<usize>) {
    let shed = priorities.len().saturating_sub(capacity);
    let survivors = &priorities[shed..];
    // Counting sort: each class starts where the classes ahead of it end.
    let mut next = [0usize; Priority::COUNT];
    for p in survivors {
        next[p.index()] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        (*slot, start) = (start, start + *slot);
    }
    let mut order = vec![0; survivors.len()];
    for (i, p) in survivors.iter().enumerate() {
        order[next[p.index()]] = shed + i;
        next[p.index()] += 1;
    }
    (shed, order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_by_class_then_fifo() {
        use Priority::{Bulk, Standard, Urgent};
        assert_eq!(
            admit(&[Bulk, Urgent, Standard, Urgent], 8),
            (0, vec![1, 3, 2, 0])
        );
    }

    #[test]
    fn overflow_sheds_the_oldest_whatever_their_class() {
        use Priority::{Bulk, Standard, Urgent};
        // Request 0 entered first; it is the oldest even though it has
        // the highest priority.
        assert_eq!(admit(&[Urgent, Bulk, Standard], 2), (1, vec![2, 1]));
        assert_eq!(admit(&[Urgent, Bulk], 0), (2, vec![]));
    }

    #[test]
    fn stream_blocks_are_pure_functions_of_seed_and_index() {
        let s = StreamConfig::new(20_000, 7, 1.0);
        let a = s.generate_block(3);
        let b = s.generate_block(3);
        assert_eq!(a, b);
        assert_ne!(s.generate_block(2), a);
        // Ids are globally unique and contiguous.
        assert_eq!(a[0].id, 3 * 4096);
    }

    #[test]
    fn last_block_is_short() {
        let s = StreamConfig::new(5000, 1, 1.0);
        assert_eq!(s.blocks(), 2);
        assert_eq!(s.block_len(0), 4096);
        assert_eq!(s.block_len(1), 5000 - 4096);
        assert_eq!(s.generate_block(1).len(), 5000 - 4096);
    }

    #[test]
    fn stream_validation_catches_zeroes() {
        let mut s = StreamConfig::new(0, 1, 0.0);
        s.block = 0;
        s.queue_capacity = 0;
        let err = s.try_validate().unwrap_err();
        assert_eq!(err.violations().len(), 4);
    }
}
