//! Hand-rolled operation metrics: lock-free counters and log-scale latency
//! histograms, dumpable as JSON (the `metrics` protocol request) or as a
//! Prometheus-style text exposition.
//!
//! The daemon records, per operation kind: requests served, errors
//! answered, and a latency histogram with power-of-two nanosecond buckets
//! (bucket `i` counts latencies in `[2^i, 2^(i+1))` ns — 32 buckets span
//! 1 ns to ~4.3 s, with the last bucket catching everything beyond).  All
//! cells are relaxed atomics: recording from worker and connection threads
//! never takes a lock, and a snapshot is a plain read (monotonic but not
//! instantaneous — good enough for operational metrics, and the same
//! trade-off Prometheus client libraries make).
//!
//! On top of the per-operation table sit daemon-wide gauges fed by the
//! engines' execution statistics: jobs submitted/completed/cancelled,
//! store cache hits and executed tasks, and frame-level rejections.

use moard_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets.
pub const LATENCY_BUCKETS: usize = 32;

/// A latency histogram with power-of-two nanosecond buckets.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, ns: u64) {
        let index = (63 - ns.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        match self.count() {
            0 => 0,
            n => self.sum_ns() / n,
        }
    }

    /// Current per-bucket counts.
    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// The inclusive upper bound of bucket `index` in nanoseconds.
    pub fn bucket_bound_ns(index: usize) -> u64 {
        1u64 << (index as u32 + 1).min(63)
    }

    fn to_json(&self) -> Json {
        let counts = self.snapshot();
        Json::object([
            ("count", Json::from(self.count())),
            ("sum_ns", Json::from(self.sum_ns())),
            ("mean_ns", Json::from(self.mean_ns())),
            (
                "buckets",
                Json::array(counts.iter().map(|&c| Json::from(c))),
            ),
        ])
    }
}

/// The operation kinds the daemon meters — one row per protocol request
/// kind that reaches the dispatcher.
pub const OPS: [&str; 8] = [
    "ping", "metrics", "cancel", "shutdown", "analyze", "sweep", "validate", "minimize",
];

/// Per-operation counters and latency.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests of this kind served (successfully or not).
    pub requests: AtomicU64,
    /// Requests of this kind answered with an error response.
    pub errors: AtomicU64,
    /// End-to-end latency: dispatch for immediate operations, queue-entry
    /// to completion for jobs.
    pub latency: LatencyHistogram,
}

/// The daemon's full metrics registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    ops: [OpMetrics; OPS.len()],
    /// Jobs that entered the queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs that completed with a result.
    pub jobs_completed: AtomicU64,
    /// Jobs that left via cooperative cancellation.
    pub jobs_cancelled: AtomicU64,
    /// Engine cells/tasks answered from the shared result store.
    pub cache_hits: AtomicU64,
    /// Engine cells/tasks actually executed.
    pub tasks_executed: AtomicU64,
    /// Frames rejected at the framing layer (oversized announcements).
    pub frames_rejected: AtomicU64,
    /// Frames whose JSON failed to parse into a request.
    pub bad_requests: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The metrics row of operation `op` (must be one of [`OPS`]).
    pub fn op(&self, op: &str) -> &OpMetrics {
        let index = OPS
            .iter()
            .position(|&o| o == op)
            .expect("operation kind is metered");
        &self.ops[index]
    }

    /// Record a served request of kind `op` with its latency; `ok` is false
    /// when the answer was an error response.
    pub fn record(&self, op: &str, ns: u64, ok: bool) {
        let row = self.op(op);
        row.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            row.errors.fetch_add(1, Ordering::Relaxed);
        }
        row.latency.record(ns);
    }

    /// Snapshot as a JSON document.  `store` carries the shared result
    /// store's current occupancy (`None` when the daemon runs storeless);
    /// `harnesses` the warm-harness cache's canonical workload names.
    pub fn to_json(&self, store_len: Option<usize>, harnesses: &[String]) -> Json {
        let ops = Json::object(OPS.iter().enumerate().map(|(i, &name)| {
            let row = &self.ops[i];
            (
                name,
                Json::object([
                    ("requests", Json::from(row.requests.load(Ordering::Relaxed))),
                    ("errors", Json::from(row.errors.load(Ordering::Relaxed))),
                    ("latency", row.latency.to_json()),
                ]),
            )
        }));
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::object([
            ("ops", ops),
            ("jobs_submitted", load(&self.jobs_submitted)),
            ("jobs_completed", load(&self.jobs_completed)),
            ("jobs_cancelled", load(&self.jobs_cancelled)),
            ("cache_hits", load(&self.cache_hits)),
            ("tasks_executed", load(&self.tasks_executed)),
            ("frames_rejected", load(&self.frames_rejected)),
            ("bad_requests", load(&self.bad_requests)),
            ("connections", load(&self.connections)),
            (
                "store_entries",
                match store_len {
                    Some(n) => Json::from(n),
                    None => Json::Null,
                },
            ),
            (
                "warm_harnesses",
                Json::array(harnesses.iter().map(|h| Json::from(h.as_str()))),
            ),
        ])
    }

    /// Prometheus-style text exposition of the same snapshot.  Renders
    /// through [`exposition_from_json`] so a client holding only the wire
    /// document produces byte-identical output.
    pub fn to_text(&self, store_len: Option<usize>, harnesses: &[String]) -> String {
        exposition_from_json(&self.to_json(store_len, harnesses))
            .expect("a registry snapshot always renders")
    }
}

/// Render a metrics snapshot document (the `metrics` response payload) as
/// the Prometheus-style text exposition.  This is the *only* rendering
/// path — the daemon's own [`MetricsRegistry::to_text`] goes through it —
/// so a dump taken in-process and one taken over the wire never drift.
pub fn exposition_from_json(doc: &Json) -> Result<String, moard_json::JsonError> {
    let ops = doc.field("ops")?;
    let mut out = String::new();
    out.push_str("# TYPE moard_requests_total counter\n");
    for name in OPS {
        let row = ops.field(name)?;
        out.push_str(&format!(
            "moard_requests_total{{op=\"{name}\"}} {}\n",
            row.u64_field("requests")?
        ));
    }
    out.push_str("# TYPE moard_errors_total counter\n");
    for name in OPS {
        let row = ops.field(name)?;
        out.push_str(&format!(
            "moard_errors_total{{op=\"{name}\"}} {}\n",
            row.u64_field("errors")?
        ));
    }
    out.push_str("# TYPE moard_latency_ns histogram\n");
    for name in OPS {
        let latency = ops.field(name)?.field("latency")?;
        if latency.u64_field("count")? == 0 {
            continue;
        }
        let mut cumulative = 0u64;
        for (b, bucket) in latency.arr_field("buckets")?.iter().enumerate() {
            let count = bucket.as_u64().ok_or(moard_json::JsonError::WrongType {
                field: "buckets".into(),
                expected: "an array of unsigned integers",
            })?;
            cumulative += count;
            if count > 0 {
                out.push_str(&format!(
                    "moard_latency_ns_bucket{{op=\"{name}\",le=\"{}\"}} {cumulative}\n",
                    LatencyHistogram::bucket_bound_ns(b)
                ));
            }
        }
        out.push_str(&format!(
            "moard_latency_ns_sum{{op=\"{name}\"}} {}\n",
            latency.u64_field("sum_ns")?
        ));
        out.push_str(&format!(
            "moard_latency_ns_count{{op=\"{name}\"}} {}\n",
            latency.u64_field("count")?
        ));
    }
    for name in [
        "jobs_submitted",
        "jobs_completed",
        "jobs_cancelled",
        "cache_hits",
        "tasks_executed",
        "frames_rejected",
        "bad_requests",
        "connections",
    ] {
        let value = doc.u64_field(name)?;
        out.push_str(&format!(
            "# TYPE moard_{name}_total counter\nmoard_{name}_total {value}\n"
        ));
    }
    if let Ok(n) = doc.u64_field("store_entries") {
        out.push_str(&format!(
            "# TYPE moard_store_entries gauge\nmoard_store_entries {n}\n"
        ));
    }
    out.push_str(&format!(
        "# TYPE moard_warm_harnesses gauge\nmoard_warm_harnesses {}\n",
        doc.arr_field("warm_harnesses")?.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_and_totals_track() {
        let h = LatencyHistogram::default();
        h.record(0); // clamps into bucket 0
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        h.record(u64::MAX / 2); // clamps into the last bucket
        let counts = h.snapshot();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[10], 1);
        assert_eq!(counts[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_ns(), 1 + 2 + 3 + 1024 + u64::MAX / 2);
        assert!(h.mean_ns() > 0);
        assert_eq!(LatencyHistogram::bucket_bound_ns(0), 2);
        assert_eq!(LatencyHistogram::bucket_bound_ns(10), 2048);
    }

    #[test]
    fn registry_records_and_dumps_both_formats() {
        let m = MetricsRegistry::new();
        m.record("analyze", 1_500, true);
        m.record("analyze", 3_000, false);
        m.record("ping", 200, true);
        m.cache_hits.fetch_add(5, Ordering::Relaxed);
        let doc = m.to_json(Some(3), &["MM".to_string()]);
        let analyze = doc.field("ops").unwrap().field("analyze").unwrap();
        assert_eq!(analyze.u64_field("requests").unwrap(), 2);
        assert_eq!(analyze.u64_field("errors").unwrap(), 1);
        assert_eq!(doc.u64_field("cache_hits").unwrap(), 5);
        assert_eq!(doc.u64_field("store_entries").unwrap(), 3);

        let text = m.to_text(Some(3), &["MM".to_string()]);
        assert!(text.contains("moard_requests_total{op=\"analyze\"} 2"));
        assert!(text.contains("moard_errors_total{op=\"analyze\"} 1"));
        assert!(text.contains("moard_latency_ns_count{op=\"ping\"} 1"));
        assert!(text.contains("moard_cache_hits_total 5"));
        assert!(text.contains("moard_store_entries 3"));
        // Cumulative bucket counts end at the total.
        assert!(text.contains("moard_latency_ns_bucket{op=\"analyze\",le=\"4096\"} 2"));
    }
}
