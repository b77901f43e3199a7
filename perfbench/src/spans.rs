//! Timing of public calls, with optional span recording.
//!
//! Every timed call goes through [`Tracer::time`], which always measures
//! the call's host time. When tracing is on it also keeps a span — name,
//! start, end, parent span and run id — in memory; [`Tracer::finish`]
//! hands them over at the end of the pass, when they are written out.
//! A span's layer is its name up to the first `.` (`sim.run_recorded`
//! belongs to `sim`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sudc_par::json::Json;

/// Identifier of one span, unique within a pass.
pub type SpanId = u64;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id.
    pub id: SpanId,
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The layer this span belongs to.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Times calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for one pass; `enabled` decides whether spans are kept.
    #[must_use]
    pub fn new(enabled: bool, run_id: &str) -> Self {
        Self {
            enabled,
            run_id: run_id.to_string(),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` as span `name` under `parent`, returning its result and
    /// its host time in seconds. `f` receives the span's own id.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        // Allocated before the call starts, so the call's children can name
        // it as their parent. A plain counter: the id publishes no other data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            let span = Span {
                id,
                name: name.to_string(),
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
            };
            self.spans
                .lock()
                .expect("a thread panicked while recording a span")
                .push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// The recorded spans, sorted by start time, and the run id.
    #[must_use]
    pub fn finish(self) -> (Vec<Span>, String) {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a thread panicked while recording a span");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        (spans, self.run_id)
    }
}

/// Self time per layer, seconds: each span's duration minus the part of
/// its interval that its child spans cover (children running in parallel
/// are merged, so covered time is never counted twice).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer().to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// The spans as a JSON document.
#[must_use]
pub fn to_json(spans: &[Span], run_id: &str) -> Json {
    let rows: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::object()
                .with("id", s.id as f64)
                .with("name", s.name.as_str())
                .with("start_ns", s.start_ns as f64)
                .with("end_ns", s.end_ns as f64)
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                )
                .with("run_id", run_id)
        })
        .collect();
    Json::object()
        .with("run_id", run_id)
        .with("spans", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            id,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, "perfbench.pass", 0, 100, None),
            span(2, "bench.a", 10, 60, Some(1)),
            span(3, "bench.b", 40, 80, Some(1)),
            span(4, "sim.run", 20, 30, Some(2)),
        ];
        let t = self_times(&spans);
        assert!((t["perfbench"] - 30e-9).abs() < 1e-15);
        assert!((t["bench"] - (40e-9 + 40e-9)).abs() < 1e-15);
        assert!((t["sim"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let tracer = Tracer::new(false, "r");
        let (v, secs) = tracer.time("sim.x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.finish().0.is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tracer = Tracer::new(true, "r");
        tracer.time("perfbench.pass", None, |id| {
            tracer.time("sim.x", Some(id), |_| ());
        });
        let (spans, run) = tracer.finish();
        assert_eq!(run, "r");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].layer(), "sim");
    }
}
