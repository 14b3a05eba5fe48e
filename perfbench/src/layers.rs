//! Layer tracing from outside the program: wrappers around the two trait
//! seams the analyzer accepts (`DfiResolver` and `TraceStorage`), the
//! metric tables, and the semantic digest that decides correctness.
//!
//! Every counter here is a statistic that publishes no other data, so the
//! atomics use `Relaxed` ordering.

use moard_core::{fnv1a, AdvfReport, DfiResolver};
use moard_inject::DeterministicInjector;
use moard_vm::{
    FaultSpec, OutcomeClass, TraceError, TraceIndex, TraceRead, TraceRecord, TraceStats,
    TraceStorage,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The end-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), as `(name, unit)`.  Every workload
/// prints all of them; a layer a workload does not reach reads 0.  Metrics
/// with unit `count` must repeat exactly across passes of one seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    // inject.injector: DFI through the `DfiResolver` wrapper.
    ("inject.dfi.calls", "count"),
    ("inject.dfi_s", "s"),
    ("inject.dfi.steps", "count"),
    ("inject.dfi.identical", "count"),
    ("inject.dfi.acceptable", "count"),
    ("inject.dfi.incorrect", "count"),
    ("inject.dfi.crashed", "count"),
    ("inject.dfi.cache_hits", "count"),
    ("inject.dfi.cache_hit_ratio", "ratio"),
    // inject.harness + vm.interp: harness preparation.
    ("inject.prepare_s", "s"),
    ("vm.golden_steps", "count"),
    ("vm.traced_s", "s"),
    ("vm.trace_records", "count"),
    // vm.trace / vm.paged: through the `TraceStorage` wrapper.
    ("vm.storage.readers", "count"),
    ("vm.storage.run_from_calls", "count"),
    ("vm.storage.records_served", "count"),
    ("vm.storage.read_s", "s"),
    ("vm.paged.spill_bytes", "B"),
    // core.sites
    ("core.sites.count", "count"),
    ("core.sites_s", "s"),
    // core.op_rules (probe)
    ("core.op_rules.evals", "count"),
    ("core.op_rules_s", "s"),
    ("core.op_rules.masked", "count"),
    ("core.op_rules.not_masked", "count"),
    ("core.op_rules.propagate", "count"),
    ("core.op_rules.overshadow", "count"),
    ("core.op_rules.needs_dfi", "count"),
    // core.propagation (probe)
    ("core.propagation.lanes", "count"),
    ("core.propagation_s", "s"),
    ("core.propagation.masked", "count"),
    ("core.propagation.unresolved.window", "count"),
    ("core.propagation.unresolved.control", "count"),
    ("core.propagation.unresolved.address", "count"),
    ("core.propagation.unresolved.trap", "count"),
    ("core.propagation.unresolved.trace_end", "count"),
    ("core.propagation.resolved_ratio", "ratio"),
    // core.analysis
    ("core.analysis_s", "s"),
    ("core.analysis.self_s", "s"),
    ("core.analysis.resolved_analytically", "count"),
    ("core.analysis.sites_analyzed", "count"),
    // inject.store (daemon-mixed)
    ("inject.store.entries", "count"),
    ("inject.store.bytes", "B"),
    ("inject.store.save_s", "s"),
    ("inject.store.load_s", "s"),
    // server (daemon-mixed)
    ("server.start_s", "s"),
    ("server.exec_s", "s"),
    ("server.cache_hits", "count"),
    ("server.tasks_executed", "count"),
    ("server.accept_ms_p50", "ms"),
    ("server.wait_s", "s"),
    ("server.bytes", "B"),
    ("server.codec_s", "s"),
    // accounting of the traced pass
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.other_s", "s"),
    ("bench.probe_s", "s"),
];

/// Named values of one traced pass.
pub type Sample = BTreeMap<&'static str, f64>;

/// Add `value` to the metric `name` of `sample`.
pub fn add(sample: &mut Sample, name: &'static str, value: f64) {
    *sample.entry(name).or_default() += value;
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// `num / den`, or 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Semantic digest of a report: the integer masking tallies per pattern
/// class, the participation count, `sites_analyzed`, `dfi_runs` and
/// `resolved_analytically`.  It ignores the JSON layout, so a report-schema
/// change that keeps the verdicts does not read as a wrong answer.
pub fn digest(report: &AdvfReport) -> String {
    let mut canon = format!(
        "participations={};sites={};dfi_runs={};resolved={}",
        report.accumulator.participations,
        report.sites_analyzed,
        report.dfi_runs,
        report.resolved_analytically
    );
    for t in &report.pattern_tallies {
        canon.push_str(&format!(
            ";w{}:{}/{}/{}/{}/{}/{}",
            t.flipped_bits,
            t.evaluated,
            t.overwriting,
            t.logic_compare,
            t.overshadowing,
            t.propagation,
            t.algorithm
        ));
    }
    format!("{:016x}", fnv1a(canon.as_bytes()))
}

/// Counters of the `TraceStorage` seam.
#[derive(Default)]
pub struct StorageCounters {
    readers: AtomicU64,
    run_from_calls: AtomicU64,
    records_served: AtomicU64,
    read_ns: AtomicU64,
}

impl StorageCounters {
    /// Seconds spent inside `run_from` so far.
    pub fn read_s(&self) -> f64 {
        self.read_ns.load(Relaxed) as f64 / 1e9
    }

    /// Fold the counters into `sample`.
    pub fn record(&self, sample: &mut Sample) {
        add(
            sample,
            "vm.storage.readers",
            self.readers.load(Relaxed) as f64,
        );
        add(
            sample,
            "vm.storage.run_from_calls",
            self.run_from_calls.load(Relaxed) as f64,
        );
        add(
            sample,
            "vm.storage.records_served",
            self.records_served.load(Relaxed) as f64,
        );
        add(sample, "vm.storage.read_s", self.read_s());
    }
}

/// A `TraceStorage` that forwards to another and counts what readers ask
/// for: readers made, `run_from` calls, records handed out (the length of
/// each returned run: the whole tail on the memory backend, the rest of the
/// decoded segment on the paged one) and time spent inside `run_from`.
pub struct CountingStorage<'a> {
    inner: &'a dyn TraceStorage,
    counters: &'a StorageCounters,
}

impl<'a> CountingStorage<'a> {
    pub fn new(inner: &'a dyn TraceStorage, counters: &'a StorageCounters) -> Self {
        CountingStorage { inner, counters }
    }
}

impl TraceStorage for CountingStorage<'_> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn index(&self) -> &TraceIndex {
        self.inner.index()
    }

    fn stats(&self) -> TraceStats {
        self.inner.stats()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn new_reader(&self) -> Box<dyn TraceRead + '_> {
        self.counters.readers.fetch_add(1, Relaxed);
        Box::new(CountingReader {
            inner: self.inner.new_reader(),
            counters: self.counters,
        })
    }

    fn poisoned(&self) -> Option<TraceError> {
        self.inner.poisoned()
    }
}

struct CountingReader<'a> {
    inner: Box<dyn TraceRead + 'a>,
    counters: &'a StorageCounters,
}

impl TraceRead for CountingReader<'_> {
    fn run_from(&mut self, id: u64) -> &[TraceRecord] {
        let counters = self.counters;
        let started = Instant::now();
        let run = self.inner.run_from(id);
        counters
            .read_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        counters.run_from_calls.fetch_add(1, Relaxed);
        counters.records_served.fetch_add(run.len() as u64, Relaxed);
        run
    }
}

/// Counters of the `DfiResolver` seam.
#[derive(Default)]
pub struct DfiCounters {
    calls: AtomicU64,
    ns: AtomicU64,
    steps: AtomicU64,
    classes: [AtomicU64; 4],
}

impl DfiCounters {
    /// Seconds spent in injections so far.
    pub fn dfi_s(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / 1e9
    }

    /// Injections run so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Fold the counters into `sample`.
    pub fn record(&self, sample: &mut Sample) {
        add(sample, "inject.dfi.calls", self.calls() as f64);
        add(sample, "inject.dfi_s", self.dfi_s());
        add(sample, "inject.dfi.steps", self.steps.load(Relaxed) as f64);
        for (name, count) in [
            "inject.dfi.identical",
            "inject.dfi.acceptable",
            "inject.dfi.incorrect",
            "inject.dfi.crashed",
        ]
        .into_iter()
        .zip(&self.classes)
        {
            add(sample, name, count.load(Relaxed) as f64);
        }
    }
}

/// A `DfiResolver` doing what `DeterministicInjector`'s own does (`run`,
/// then the workload's `classify` against the golden run) while timing each
/// injection and counting its steps and outcome class.
pub struct CountingDfi<'a> {
    pub injector: &'a DeterministicInjector,
    pub counters: &'a DfiCounters,
}

impl DfiResolver for CountingDfi<'_> {
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        let started = Instant::now();
        let outcome = self.injector.run(fault);
        let class = self
            .injector
            .workload()
            .classify(self.injector.golden(), &outcome);
        let c = self.counters;
        c.ns.fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        c.calls.fetch_add(1, Relaxed);
        c.steps.fetch_add(outcome.steps, Relaxed);
        let slot = match class {
            OutcomeClass::Identical => 0,
            OutcomeClass::Acceptable => 1,
            OutcomeClass::Incorrect => 2,
            OutcomeClass::Crashed => 3,
        };
        c.classes[slot].fetch_add(1, Relaxed);
        class
    }

    fn name(&self) -> &str {
        DfiResolver::name(self.injector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
