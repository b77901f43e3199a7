//! What one pass of a workload reports, and the helpers every workload
//! shares.

use std::fmt;

use sudc_par::json::Json;

/// Everything one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Host seconds of the pass taken whole (the root span).
    pub wall_s: f64,
    /// Per-layer metrics, `<layer>.<metric>` → value.
    pub metrics: Vec<(String, f64)>,
    /// Deterministic outputs compared against the expected-output
    /// manifest at the default seed.
    pub observed: Vec<(String, Json)>,
    /// Seed-independent correctness checks (`true` = passed).
    pub checks: Vec<(String, bool)>,
    /// Mechanism guards: conditions without which the timed path would
    /// skip the mechanism it is meant to measure.
    pub guards: Vec<(String, bool)>,
}

impl PassOutput {
    /// Records a per-layer metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a deterministic count for the manifest; it is also a
    /// per-layer metric.
    pub fn count(&mut self, name: &str, value: u64) {
        self.metric(name, value as f64);
        self.observe(name, Json::Num(value as f64));
    }

    /// Records a deterministic output for the manifest.
    pub fn observe(&mut self, name: &str, value: impl Into<Json>) {
        self.observed.push((name.to_string(), value.into()));
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Records a mechanism guard.
    pub fn guard(&mut self, name: &str, ok: bool) {
        self.guards.push((name.to_string(), ok));
    }
}

/// Nanoseconds per item, 0 when there are no items.
#[must_use]
pub fn ns_per(secs: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        secs * 1e9 / items as f64
    }
}

/// 64-bit FNV-1a, fed with bytes or with `Debug`/`Display` output, for
/// fingerprints of outputs too large to commit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty-input state.
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The fingerprint as 16 hex digits (a JSON number cannot hold 64
    /// bits exactly).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Fingerprint of a value's `Debug` rendering.
    #[must_use]
    pub fn of_debug(value: &impl fmt::Debug) -> String {
        let mut h = Self::new();
        fmt::write(&mut h, format_args!("{value:?}")).expect("hashing never fails");
        h.hex()
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.hex(), "cbf29ce484222325");
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
    }

    #[test]
    fn debug_fingerprint_is_stable_and_discriminating() {
        assert_eq!(Fnv::of_debug(&(1, "x")), Fnv::of_debug(&(1, "x")));
        assert_ne!(Fnv::of_debug(&(1, "x")), Fnv::of_debug(&(2, "x")));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
