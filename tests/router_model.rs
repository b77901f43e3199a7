//! Property tests holding the router's block admission ([`admit`]) to a
//! brute-force reference queue.
//!
//! The engine pushes a block's whole carry, then all of its arrivals,
//! into a bounded priority-classed queue before it pops anything. The
//! queue contract it relies on:
//!
//! - pops drain the highest priority class first, FIFO within a class;
//! - occupancy never exceeds the configured capacity;
//! - a push into a full queue sheds exactly the **globally oldest**
//!   queued request (smallest admission sequence across all classes);
//! - no request is ever lost or duplicated — everything pushed comes
//!   back exactly once, as a pop or as a shed victim.
//!
//! The reference model is a flat `Vec` scanned per operation: obviously
//! correct, never fast. Pushing everything into it and then draining it
//! must give exactly the shed prefix and the drain order `admit`
//! computes, at capacities below, at and above the block length.

use proptest::collection;
use proptest::prelude::*;
use space_udc::router::{admit, Priority};

/// Brute-force queue: a flat list of `(admission sequence, id, class)`
/// scanned linearly for every decision.
struct ModelQueue {
    entries: Vec<(u64, u64, Priority)>,
    capacity: usize,
    next_seq: u64,
}

impl ModelQueue {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// Enqueues; on overflow removes and returns the entry with the
    /// smallest admission sequence, regardless of class.
    fn push(&mut self, id: u64, priority: Priority) -> Option<u64> {
        let victim = if self.entries.len() == self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(seq, _, _))| seq)
                .map(|(i, _)| i)
                .expect("full queue is non-empty");
            Some(self.entries.remove(oldest).1)
        } else {
            None
        };
        self.entries.push((self.next_seq, id, priority));
        self.next_seq += 1;
        assert!(
            self.entries.len() <= self.capacity,
            "occupancy above capacity"
        );
        victim
    }

    /// Dequeues the entry minimizing `(class, admission sequence)`.
    fn pop(&mut self) -> Option<u64> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(seq, _, p))| (p.index(), seq))
            .map(|(i, _)| i)?;
        Some(self.entries.remove(best).1)
    }
}

/// Pushes every request (ids are push indices) into the model, then
/// drains it: returns the shed victims in shedding order and the drained
/// ids in pop order.
fn model_admission(priorities: &[Priority], capacity: usize) -> (Vec<usize>, Vec<usize>) {
    let mut model = ModelQueue::new(capacity);
    let shed = priorities
        .iter()
        .enumerate()
        .filter_map(|(id, &p)| model.push(id as u64, p))
        .map(|id| id as usize)
        .collect();
    let drained = core::iter::from_fn(|| model.pop())
        .map(|id| id as usize)
        .collect();
    (shed, drained)
}

fn classes(raw: &[usize]) -> Vec<Priority> {
    raw.iter().map(|&c| Priority::ALL[c]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_is_indistinguishable_from_the_flat_scan_model(
        carry in collection::vec(0usize..3, 0..24),
        arrivals in collection::vec(0usize..3, 0..48),
        room in 0usize..3,
        slack in 0usize..32,
    ) {
        // Carry first, then arrivals, as the engine pushes them; the
        // capacity lands below, at or above the block length.
        let pushed = classes(&[carry, arrivals].concat());
        let capacity = match room {
            0 => pushed.len().saturating_sub(slack + 1).max(1),
            1 => pushed.len().max(1),
            _ => pushed.len() + slack + 1,
        };
        let (shed, order) = admit(&pushed, capacity);
        let (model_shed, model_order) = model_admission(&pushed, capacity);
        prop_assert_eq!(shed, pushed.len().saturating_sub(capacity));
        prop_assert_eq!(&(0..shed).collect::<Vec<_>>(), &model_shed);
        prop_assert_eq!(&order, &model_order);
        // Conservation: every push index comes back exactly once.
        let mut seen: Vec<usize> = model_shed.into_iter().chain(order).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..pushed.len()).collect::<Vec<_>>());
    }

    #[test]
    fn same_class_bursts_pop_in_push_order(
        burst in 2usize..64,
        class in 0usize..3,
    ) {
        // FIFO within one class in isolation: a pure burst must come
        // back in exactly the order it went in.
        let priorities = vec![Priority::ALL[class]; burst];
        prop_assert_eq!(admit(&priorities, burst), (0, (0..burst).collect::<Vec<_>>()));
    }

    #[test]
    fn overflow_sheds_exactly_the_oldest_prefix(
        capacity in 1usize..16,
        overflow in 1usize..16,
    ) {
        // Same-class pushes past capacity shed the oldest ids in order:
        // ids 0..overflow are the victims, the newest `capacity` survive.
        let total = capacity + overflow;
        let (shed, survivors) = admit(&vec![Priority::Standard; total], capacity);
        prop_assert_eq!(shed, overflow);
        prop_assert_eq!(survivors, (overflow..total).collect::<Vec<_>>());
    }
}
