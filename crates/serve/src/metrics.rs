//! The serve-mode metrics registry: request and route distribution
//! counters, cache hit/miss accounting, and per-backend latency
//! percentiles — exposed live via the `metrics` request and dumped as JSON
//! on shutdown — plus the process's interned-name counts
//! ([`cqa_model::symbol_counts`]).

use parking_lot::Mutex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Duration;

/// Latency samples kept per backend; older samples are overwritten
/// ring-buffer style so a long-lived server's percentiles track recent
/// behavior at bounded memory.
const SAMPLE_CAP: usize = 4096;

#[derive(Default)]
struct Latency {
    /// Microsecond samples, ring-buffered.
    samples: Vec<u64>,
    /// Next write slot once `samples` is full.
    cursor: usize,
    total: u64,
}

impl Latency {
    fn record(&mut self, micros: u64) {
        self.total += 1;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(micros);
        } else {
            self.samples[self.cursor] = micros;
            self.cursor = (self.cursor + 1) % SAMPLE_CAP;
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (p * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

#[derive(Default)]
struct Counters {
    /// Requests seen, per protocol op (including malformed ones under
    /// `"invalid"` and lines over the byte cap under `"oversize"`).
    requests: BTreeMap<String, u64>,
    /// Plan-cache hits and misses.
    hits: u64,
    misses: u64,
    /// Requests refused by admission control (over budget / too large).
    rejected: u64,
    /// Requests that errored (parse failures, unknown ops, …).
    errors: u64,
    /// Solve verdicts per backend label ("compiled plan", "dual-Horn", …).
    routes: BTreeMap<String, u64>,
    /// Latency samples per backend label.
    latency: BTreeMap<String, Latency>,
}

/// Shared, thread-safe registry of everything the server counts.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Counters>,
}

impl MetricsRegistry {
    /// A fresh registry with every counter at zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Counts one incoming request of the given op.
    pub fn record_request(&self, op: &str) {
        *self.inner.lock().requests.entry(op.to_string()).or_insert(0) += 1;
    }

    /// Counts a plan-cache hit (`true`) or miss (`false`).
    pub fn record_cache(&self, hit: bool) {
        let mut c = self.inner.lock();
        if hit {
            c.hits += 1;
        } else {
            c.misses += 1;
        }
    }

    /// Counts an admission-control rejection.
    pub fn record_rejection(&self) {
        self.inner.lock().rejected += 1;
    }

    /// Counts an errored request.
    pub fn record_error(&self) {
        self.inner.lock().errors += 1;
    }

    /// Records a completed solve: which backend answered and how long it
    /// took.
    pub fn record_solve(&self, backend: &str, elapsed: Duration) {
        let mut c = self.inner.lock();
        *c.routes.entry(backend.to_string()).or_insert(0) += 1;
        c.latency
            .entry(backend.to_string())
            .or_default()
            .record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// The full registry as a JSON value — the `metrics` response body and
    /// the shutdown dump. Per-backend latency is summarized as
    /// `{count, p50_us, p99_us}` over the ring-buffered samples, and
    /// `symbols` counts the interner's `pinned` and `leased` names: leased
    /// names belong to requests in flight, so between requests the count
    /// is 0, and pinned names grow only when a plan is built.
    pub fn snapshot(&self) -> Value {
        let c = self.inner.lock();
        let mut root = BTreeMap::new();
        root.insert(
            "requests".to_string(),
            Value::Object(
                c.requests
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                    .collect(),
            ),
        );
        let mut cache = BTreeMap::new();
        cache.insert("hits".to_string(), Value::Number(c.hits as f64));
        cache.insert("misses".to_string(), Value::Number(c.misses as f64));
        root.insert("cache".to_string(), Value::Object(cache));
        root.insert("rejected".to_string(), Value::Number(c.rejected as f64));
        root.insert("errors".to_string(), Value::Number(c.errors as f64));
        root.insert(
            "routes".to_string(),
            Value::Object(
                c.routes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                    .collect(),
            ),
        );
        let mut backends = BTreeMap::new();
        for (name, lat) in &c.latency {
            let mut sorted = lat.samples.clone();
            sorted.sort_unstable();
            let mut entry = BTreeMap::new();
            entry.insert("count".to_string(), Value::Number(lat.total as f64));
            entry.insert(
                "p50_us".to_string(),
                Value::Number(Latency::percentile(&sorted, 0.50) as f64),
            );
            entry.insert(
                "p99_us".to_string(),
                Value::Number(Latency::percentile(&sorted, 0.99) as f64),
            );
            backends.insert(name.clone(), Value::Object(entry));
        }
        root.insert("latency".to_string(), Value::Object(backends));
        let names = cqa_model::symbol_counts();
        let mut symbols = BTreeMap::new();
        symbols.insert("pinned".to_string(), Value::Number(names.pinned as f64));
        symbols.insert("leased".to_string(), Value::Number(names.leased as f64));
        root.insert("symbols".to_string(), Value::Object(symbols));
        Value::Object(root)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_counts_and_percentiles() {
        let m = MetricsRegistry::new();
        m.record_request("solve");
        m.record_request("solve");
        m.record_request("ping");
        m.record_cache(false);
        m.record_cache(true);
        m.record_cache(true);
        for us in [100u64, 200, 300, 400] {
            m.record_solve("compiled plan", Duration::from_micros(us));
        }
        m.record_rejection();
        let snap = m.snapshot();
        assert_eq!(
            snap.get("requests").and_then(|r| r.get("solve")).and_then(Value::as_u64),
            Some(2)
        );
        let cache = snap.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(2));
        assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
        assert_eq!(snap.get("rejected").and_then(Value::as_u64), Some(1));
        let lat = snap
            .get("latency")
            .and_then(|l| l.get("compiled plan"))
            .unwrap();
        assert_eq!(lat.get("count").and_then(Value::as_u64), Some(4));
        let symbols = snap.get("symbols").unwrap();
        assert!(symbols.get("pinned").and_then(Value::as_u64).is_some());
        assert!(symbols.get("leased").and_then(Value::as_u64).is_some());
        let p50 = lat.get("p50_us").and_then(Value::as_u64).unwrap();
        let p99 = lat.get("p99_us").and_then(Value::as_u64).unwrap();
        assert!((100..=400).contains(&p50));
        assert!(p99 >= p50);
    }

    #[test]
    fn latency_ring_buffer_is_bounded() {
        let mut lat = Latency::default();
        for i in 0..(SAMPLE_CAP as u64 + 100) {
            lat.record(i);
        }
        assert_eq!(lat.samples.len(), SAMPLE_CAP);
        assert_eq!(lat.total, SAMPLE_CAP as u64 + 100);
        // The oldest samples (0..100) were overwritten by the newest.
        assert!(lat.samples.contains(&(SAMPLE_CAP as u64 + 99)));
        assert!(!lat.samples.contains(&0));
    }
}
