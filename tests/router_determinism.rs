//! Acceptance tests for the placement engine: exact reproducibility of
//! routing decisions across worker counts, and stability of the
//! decision stream against a committed fingerprint — on the sharded
//! path and on the sequential deferral-readmission path.

use space_udc::router::{Router, RouterConfig, RoutingOutcome, StreamConfig, Verdict};
use space_udc::sim::DEFAULT_SEED;

/// Routes the same reference stream at a given thread count.
fn routed(threads: usize, stream: &StreamConfig) -> RoutingOutcome {
    routed_by(&Router::reference(), threads, stream)
}

/// Routes `stream` through `router` at a given thread count.
fn routed_by(router: &Router, threads: usize, stream: &StreamConfig) -> RoutingOutcome {
    space_udc::par::set_threads(threads);
    let out = router.route_stream(stream);
    space_udc::par::set_threads(0);
    out
}

/// Routes `stream` at 1, 2 and 8 threads, asserts the three outcomes are
/// equal, and returns the single-thread one.
fn routed_at_1_2_8(router: &Router, stream: &StreamConfig) -> RoutingOutcome {
    let one = routed_by(router, 1, stream);
    assert_eq!(one, routed_by(router, 2, stream), "1 vs 2 threads diverged");
    assert_eq!(one, routed_by(router, 8, stream), "1 vs 8 threads diverged");
    let s = &one.stats;
    assert_eq!(s.placed + s.deferred + s.rejected + s.shed, s.requests);
    assert_eq!(one.decisions.len() as u64, s.requests);
    one
}

/// The reference router with deferral readmission armed, over the given
/// per-block SµDC pool fractions.
fn readmitting(pools: &[f64]) -> Router {
    let mut cfg = RouterConfig::reference()
        .try_with_degraded_pools(pools)
        .expect("valid fractions");
    cfg.readmit_deferred = true;
    Router::new(cfg)
}

/// FNV-1a over the raw decision fields: any drift in a verdict, tier,
/// latency, or cost anywhere in the stream moves the digest.
fn fingerprint(out: &RoutingOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in &out.decisions {
        eat(d.id);
        let (tag, tier) = match d.verdict {
            Verdict::Placed(t) => (0u64, t.index() as u64),
            Verdict::Deferred => (1, 0),
            Verdict::Rejected => (2, 0),
            Verdict::Shed => (3, 0),
        };
        eat(tag);
        eat(tier);
        eat(d.latency_s.to_bits());
        eat(d.cost_usd.to_bits());
    }
    h
}

#[test]
fn fixed_seed_routing_is_identical_at_1_2_and_8_threads() {
    // Enough requests for several 4096-request blocks, including a short
    // tail block, at the reference capture rate.
    let stream = StreamConfig::new(30_000, DEFAULT_SEED, 3.83);
    let one = routed(1, &stream);
    let two = routed(2, &stream);
    let eight = routed(8, &stream);
    assert_eq!(one, two, "1-thread and 2-thread decisions diverged");
    assert_eq!(one, eight, "1-thread and 8-thread decisions diverged");
    // And the run is non-trivial: every request decided exactly once.
    // (Within a block, decisions follow the admission queue's
    // priority-class drain order, not raw id order.)
    assert_eq!(one.decisions.len(), 30_000);
    let mut ids: Vec<u64> = one.decisions.iter().map(|d| d.id).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..30_000));
}

#[test]
fn decision_stream_fingerprint_is_stable() {
    // Snapshot of the full decision stream for the documented seed. A
    // change here means placements moved for everyone: the committed
    // `results/router.txt` and `EXPERIMENTS.md` narratives are stale,
    // and downstream replay SLOs shift. Update all three together.
    let stream = StreamConfig::new(10_000, DEFAULT_SEED, 3.83);
    let out = routed(1, &stream);
    assert_eq!(
        fingerprint(&out),
        0x99d5_a665_978b_6969,
        "decision stream drifted for seed {DEFAULT_SEED:#x}"
    );
}

#[test]
fn stressed_stream_fingerprint_is_stable() {
    // Same gate at 10_000x load, where shedding, deferral, and rejection
    // paths all carry traffic — pins the overload semantics too.
    let stream = StreamConfig::new(10_000, DEFAULT_SEED, 3.83e4);
    let out = routed(1, &stream);
    let s = &out.stats;
    assert!(
        s.deferred + s.rejected + s.shed > 0,
        "overload produced no pressure"
    );
    assert_eq!(
        fingerprint(&out),
        0x9e07_b474_575e_667a,
        "stressed decision stream drifted for seed {DEFAULT_SEED:#x}"
    );
}

#[test]
fn readmit_with_degraded_pools_fingerprint_is_stable() {
    // Deferral readmission over a degraded SµDC pool, with the admission
    // queue sized to the block: every full block sheds the work carried
    // into it, and only the short last block can place carried work.
    let stream = StreamConfig::new(30_000, DEFAULT_SEED, 3.83 * 5.0);
    let out = routed_at_1_2_8(&readmitting(&[1.0, 0.5, 0.25, 0.75]), &stream);
    let s = &out.stats;
    assert!(s.deferred > 0 && s.shed > 0, "readmission must carry work");
    assert_eq!(
        fingerprint(&out),
        0x2f25_44bf_a3ae_8e57,
        "readmit decision stream drifted: {:#x}",
        fingerprint(&out)
    );
}

#[test]
fn readmit_with_room_for_carried_work_fingerprint_is_stable() {
    // A queue twice the block holds every carried request, so carried
    // work competes for the next block's budgets instead of being shed,
    // and some of it is placed there.
    let mut stream = StreamConfig::new(30_000, DEFAULT_SEED, 3.83 * 5.0);
    stream.queue_capacity = 2 * stream.block;
    let out = routed_at_1_2_8(&readmitting(&[1.0]), &stream);
    let bounced = routed(1, &stream);
    assert!(bounced.stats.deferred > 0, "the stream must defer");
    assert!(
        out.stats.placed > bounced.stats.placed,
        "carried work must be placed: {} -> {}",
        bounced.stats.placed,
        out.stats.placed
    );
    assert_eq!(out.stats.shed, 0, "a 2-block queue never overflows");
    assert_eq!(
        fingerprint(&out),
        0xd75c_58f6_e2bc_2c9e,
        "readmit decision stream drifted: {:#x}",
        fingerprint(&out)
    );
}

#[test]
fn short_queue_with_short_last_block_fingerprint_is_stable() {
    // Readmission off, a queue far below the block: each block sheds its
    // oldest arrivals down to the queue capacity, the short last block too.
    let mut stream = StreamConfig::new(30_000, DEFAULT_SEED, 3.83e2);
    stream.queue_capacity = 1000;
    assert!(stream.block_len(stream.blocks() - 1) < stream.block);
    let out = routed_at_1_2_8(&Router::reference(), &stream);
    assert!(
        out.stats.shed > 20_000,
        "heavy shedding: {}",
        out.stats.shed
    );
    assert_eq!(
        fingerprint(&out),
        0xc041_c240_cea6_ac07,
        "short-queue decision stream drifted: {:#x}",
        fingerprint(&out)
    );
}
