//! The `bench-smoke` suite: fixed-configuration micro-benchmarks of the
//! trace-engine hot paths (aDVF analysis and propagation replay) and of one
//! deterministic fault injection on the MM and PF workloads, with a JSON
//! report and a regression gate.
//!
//! The suite is what the `bench-smoke` CI job runs: it times each benchmark,
//! writes a schema-versioned `BENCH_*.json` document (embedding the exact
//! analysis-configuration fingerprint and the trace length of every workload
//! measured, so numbers from different configurations or workload sizes are
//! never conflated), and compares the medians against a committed
//! `BENCH_baseline.json`, failing on a configurable regression threshold
//! (default 25%).
//!
//! Baseline entries may carry a `pre_pr_median_ns` field recording the
//! pre-trace-engine numbers; when present, the report also materializes the
//! speedup of the current engine over that reference.

use crate::micro::{bench, black_box, BenchStats};
use moard_core::{
    analyze_operation, enumerate_sites, fingerprint_hex, parse_fingerprint, replay,
    trace_stats_to_json, AdvfAnalyzer, AnalysisConfig, CorruptSeeds, ErrorPattern, OpVerdict,
};
use moard_inject::{
    DeterministicInjector, Parallelism, Runner, StudySpec, ValidationSpec, WorkloadSelector,
};
use moard_json::{Json, JsonError};
use moard_vm::{run_traced, run_traced_with, FaultSpec, Trace, TraceBackendSpec, TraceStats, Vm};
use moard_workloads::{MatMul, MmConfig, Pf, Registry, Workload};

/// Version of the `BENCH_*.json` schema this build writes and reads.
///
/// History: 2 records `warmup_iters` per bench (the aDVF cases warm up
/// longer — `advf_analysis/pf` used to spike to ~1.8× its median on a cold
/// cache, which made the regression gate noisy); 1 is the initial shape.
/// Version-1 documents still parse as baselines.
pub const SMOKE_SCHEMA_VERSION: u32 = 2;

/// Untimed warmup iterations of the aDVF-analysis cases.  These walk the
/// whole strided site population, so the first iterations also fault the
/// trace pages and heat the allocator; two warmups left cold-start spikes
/// inside the timed window.
const ADVF_WARMUP: u32 = 4;

/// Default regression threshold: fail when a median is more than 25% slower
/// than its baseline.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// The analysis configuration every smoke benchmark runs under (analytic
/// mode: the suite measures the trace engine, not the fault injector).
pub fn smoke_config() -> AnalysisConfig {
    AnalysisConfig {
        site_stride: 4,
        ..Default::default()
    }
}

/// The multi-bit configuration of the `patterns/mm` case: the same suite
/// settings with adjacent double-bit bursts (§VII-B) instead of single-bit
/// flips, so the pattern-generalized hot path — mask-keyed classification,
/// per-pattern-class tallies, one-XOR fault application — is
/// regression-gated alongside the single-bit engine.
pub fn multibit_config() -> AnalysisConfig {
    AnalysisConfig {
        patterns: moard_core::ErrorPatternSet::AdjacentBits { width: 2 },
        ..smoke_config()
    }
}

/// One prepared workload of the suite: its trace and the target object.
pub struct SmokeWorkload {
    /// Lower-case suite name (`mm`, `pf`).
    pub key: &'static str,
    /// Workload display name (`MM`, `PF`).
    pub workload: String,
    /// The recorded dynamic trace.
    pub trace: Trace,
    /// Target object id within the trace.
    pub object: moard_vm::ObjectId,
    /// Target object name.
    pub object_name: &'static str,
}

/// Build the fixed MM and PF instances the suite measures.
pub fn smoke_workloads() -> Vec<SmokeWorkload> {
    let mut out = Vec::new();
    let mm = MatMul::with_config(MmConfig {
        n: 6,
        ..Default::default()
    });
    let module = mm.build();
    let (_, trace) = run_traced(&module).expect("MM builds and runs");
    let vm = Vm::with_defaults(&module).expect("MM loads");
    let object = vm.objects().by_name("C").expect("MM has C").id;
    out.push(SmokeWorkload {
        key: "mm",
        workload: mm.name().to_string(),
        trace,
        object,
        object_name: "C",
    });

    let pf = Pf::default();
    let module = pf.build();
    let (_, trace) = run_traced(&module).expect("PF builds and runs");
    let vm = Vm::with_defaults(&module).expect("PF loads");
    let object = vm.objects().by_name("xe").expect("PF has xe").id;
    out.push(SmokeWorkload {
        key: "pf",
        workload: pf.name().to_string(),
        trace,
        object,
        object_name: "xe",
    });
    out
}

fn mm_small() -> Box<dyn Workload> {
    Box::new(MatMul::with_config(MmConfig {
        n: 6,
        ..Default::default()
    }))
}

fn pf_default() -> Box<dyn Workload> {
    Box::new(Pf::default())
}

/// Registry holding exactly the suite's fixed MM/PF instances — the sweep
/// smoke case runs the study driver against it, so the scheduler is
/// measured over the same workloads the per-path benches time.
pub fn smoke_registry() -> Registry {
    let mut r = Registry::empty();
    r.register(&[], mm_small);
    r.register(&[], pf_default);
    r
}

/// The study the sweep smoke case executes: both suite workloads, their
/// target objects, the suite's analysis configuration, analytic mode (the
/// bench measures the sweep scheduler and trace engine, not the injector).
pub fn sweep_spec() -> StudySpec {
    let config = smoke_config();
    StudySpec::default()
        .workloads(WorkloadSelector::All)
        .windows(vec![config.propagation_window])
        .strides(vec![config.site_stride])
        .without_dfi()
}

/// The jobs the `serve/mm+pf` smoke case submits: one analytic analyze
/// cell per suite workload, coarse-strided so the cold (store-filling)
/// round stays CI-sized against the daemon's full-size registry.  The
/// timed rounds are pure warm round-trips — connect, frame, schedule,
/// store lookup, respond — which is exactly the surface `moard serve`
/// adds over the local engines.
pub fn serve_jobs() -> Vec<moard_server::Request> {
    ["mm", "pf"]
        .into_iter()
        .map(|workload| moard_server::Request::Analyze {
            workload: workload.into(),
            objects: vec![],
            config: AnalysisConfig {
                site_stride: 32,
                ..smoke_config()
            },
            use_dfi: false,
            priority: moard_server::Priority::Normal,
        })
        .collect()
}

/// The campaign the validate smoke case executes: both suite workloads,
/// their target objects, an adaptive shard-deterministic RFI leg with a
/// CI-sized budget, and an analytic aDVF leg (the bench times the
/// validation engine's scheduling, sampling, and injection loop — the DFI
/// resolver has its own cases).
pub fn validate_smoke_spec() -> ValidationSpec {
    ValidationSpec::default()
        .workloads(WorkloadSelector::All)
        .stride(8)
        .without_dfi()
        .target_margin(0.15)
        .max_trials(64)
        .shards(16, 2)
}

/// The minimization the `minimize/mm` smoke case executes: an unpinned
/// cell of the suite's MM instance, so the finder scan, both ddmin axes,
/// and the window bisection are all on the clock.
pub fn minimize_smoke_spec() -> moard_inject::MinimizeSpec {
    moard_inject::MinimizeSpec::cell("mm", "C").stride(smoke_config().site_stride)
}

/// The fault the `dfi/pf` case injects: bit 31 of the middle participation
/// site of the target object, so the injected run re-executes the whole
/// program with the corruption live for its second half.
pub fn dfi_smoke_fault(trace: &Trace, object: moard_vm::ObjectId) -> FaultSpec {
    let sites = enumerate_sites(trace, object);
    sites[sites.len() / 2].fault_bit(31)
}

/// Collect up to `cap` propagation seeds for the object: participation sites
/// whose operation-level verdict leaves corrupted locations to replay.
pub fn propagation_seeds(
    trace: &Trace,
    object: moard_vm::ObjectId,
    cap: usize,
) -> Vec<(usize, CorruptSeeds)> {
    let mut seeds = Vec::new();
    for site in enumerate_sites(trace, object) {
        let rec = trace.record(site.record_id).expect("site in trace");
        let bit = 62 % site.bit_width();
        match analyze_operation(rec, site.slot, &ErrorPattern::single(bit)) {
            OpVerdict::Propagate { corrupt } | OpVerdict::OvershadowCandidate { corrupt } => {
                seeds.push((site.record_id as usize + 1, corrupt));
            }
            _ => {}
        }
        if seeds.len() >= cap {
            break;
        }
    }
    seeds
}

/// The result of one suite run.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// Per-benchmark timing statistics, in suite order.
    pub benches: Vec<BenchStats>,
    /// Trace statistics (record count, index sizes) per measured workload,
    /// in suite order.
    pub traces: Vec<(String, TraceStats)>,
    /// Fingerprint of the [`smoke_config`] the timings were taken under.
    pub config_fingerprint: u64,
}

/// Run the full suite: `advf_analysis/{mm,pf}` (analytic aDVF of the target
/// object), `propagation_k/{mm,pf}/k=50` (replay of every collected
/// propagation seed with the paper's default window),
/// `patterns/mm/adjacent-bits:2` (the multi-bit analysis hot path — same
/// MM instance, adjacent double-bit bursts), `paged/pf` (the same analytic
/// PF analysis streamed through the paged on-disk trace backend with
/// deliberately small segments, gating segment decode, checksum
/// verification, and seam handling), `dfi/pf` (one classified deterministic
/// fault injection into default PF — the per-step cost of the
/// interpreter's fault-injection runs), `sweep/mm+pf`
/// (the study driver end to end: spec expansion, harness preparation, and
/// per-task scheduling over both workloads, single-threaded so the timing
/// gates the scheduler's overhead rather than the machine's core count),
/// `validate/mm+pf` (the validation engine end to end: analytic aDVF
/// legs plus adaptive shard-deterministic RFI campaigns, single-threaded
/// for the same reason), and `minimize/mm` (the fault-scenario minimizer
/// end to end: finder scan, site/bit ddmin fixpoint, and window bisection
/// against the live injection oracle).
pub fn run_suite() -> SmokeReport {
    let config = smoke_config();
    let k = config.propagation_window;
    let mut benches = Vec::new();
    let mut traces = Vec::new();
    let workloads = smoke_workloads();
    for wl in &workloads {
        traces.push((wl.workload.clone(), wl.trace.stats()));
        benches.push(bench(
            &format!("advf_analysis/{}", wl.key),
            ADVF_WARMUP,
            10,
            || {
                let analyzer = AdvfAnalyzer::new(&wl.trace, config.clone());
                black_box(analyzer.analyze(wl.object, wl.object_name, &wl.workload, None));
            },
        ));
        let seeds = propagation_seeds(&wl.trace, wl.object, 256);
        assert!(
            !seeds.is_empty(),
            "{} must expose at least one propagation seed",
            wl.workload
        );
        benches.push(bench(
            &format!("propagation_k/{}/k={k}", wl.key),
            2,
            20,
            || {
                for (start, corrupt) in &seeds {
                    black_box(replay(&wl.trace, *start, corrupt, k));
                }
            },
        ));
    }
    // The multi-bit hot path: analytic aDVF of MM's C under adjacent
    // double-bit bursts (pattern enumeration, mask-keyed classification,
    // and per-pattern-class tallies all on the clock), reusing the already
    // prepared MM instance.
    let multibit = multibit_config();
    let mm = &workloads[0];
    assert_eq!(mm.key, "mm", "the suite's first workload is MM");
    benches.push(bench(
        "patterns/mm/adjacent-bits:2",
        ADVF_WARMUP,
        10,
        || {
            let analyzer = AdvfAnalyzer::new(&mm.trace, multibit.clone());
            black_box(analyzer.analyze(mm.object, mm.object_name, &mm.workload, None));
        },
    ));
    // The out-of-core hot path: the same analytic PF analysis as
    // `advf_analysis/pf`, but streamed through the paged trace backend —
    // segment decode, checksum verification, and the per-reader LRU are
    // all on the clock.  The spill is written off the clock; segments far
    // below the default size force every replay window across seams, so
    // the timing gates the backend's seam handling, not just its decoder.
    let pf = &workloads[1];
    assert_eq!(pf.key, "pf", "the suite's second workload is PF");
    let pf_module = pf_default().build();
    let (_, paged_pf) = run_traced_with(
        &pf_module,
        &TraceBackendSpec::Paged {
            dir: None,
            segment_records: 1024,
        },
    )
    .expect("PF builds and runs on the paged backend");
    assert_eq!(paged_pf.len() as u64, pf.trace.stats().records);
    benches.push(bench("paged/pf", 2, 10, || {
        let analyzer = AdvfAnalyzer::new(paged_pf.storage(), config.clone());
        black_box(analyzer.analyze(pf.object, pf.object_name, &pf.workload, None));
    }));
    assert!(
        moard_vm::TraceStorage::poisoned(&paged_pf).is_none(),
        "the paged PF spill must stay healthy across the timed rounds"
    );
    // One deterministic fault injection, the unit of work of every DFI,
    // RFI, minimize and exhaustive campaign: a whole-program re-execution of
    // default PF with a mid-trace `xe` site corrupted, then classified
    // against the golden run.  Module build and golden run are off the
    // clock.
    let injector = DeterministicInjector::new(pf_default()).expect("PF prepares");
    let fault = dfi_smoke_fault(&pf.trace, pf.object);
    benches.push(bench("dfi/pf", 2, 20, || {
        black_box(injector.run_classified(&fault));
    }));
    let registry = smoke_registry();
    let spec = sweep_spec();
    // Each iteration builds its runner, and with it a fresh harness cache,
    // so every iteration prepares its workloads again.
    let sequential = || Runner {
        parallelism: Parallelism::Sequential,
        ..Runner::default()
    };
    benches.push(bench("sweep/mm+pf", 1, 5, || {
        let report = sequential()
            .sweep(&spec, &registry)
            .expect("the smoke sweep covers only known workloads");
        black_box(report);
    }));
    let spec = validate_smoke_spec();
    benches.push(bench("validate/mm+pf", 1, 5, || {
        let report = sequential()
            .validate(&spec, &registry)
            .expect("the smoke campaign covers only known workloads");
        black_box(report);
    }));
    // The scenario minimizer end to end: finder scan, site/bit ddmin
    // fixpoint, and window bisection over the suite's MM instance.  The
    // harness is prepared off the clock; the memo cache is per-call, so
    // every iteration re-probes the oracle.
    let cache = moard_inject::HarnessCache::new();
    let harness = cache
        .get_or_prepare(&registry, "mm")
        .expect("the smoke registry serves MM");
    let spec = minimize_smoke_spec();
    benches.push(bench("minimize/mm", 1, 5, || {
        let report = moard_inject::minimize(&harness, &spec, &moard_inject::CancelToken::new())
            .expect("the suite's MM instance has a minimizable failure");
        black_box(report);
    }));
    // The daemon round-trip: an in-process `moard serve` on an ephemeral
    // port, its store pre-filled by one unclocked cold round, answering
    // both suite jobs per iteration over a fresh TCP connection.
    let store = std::env::temp_dir().join(format!("moard-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let daemon = moard_server::Daemon::start(moard_server::DaemonConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        store: Some(store.clone()),
        ..Default::default()
    })
    .expect("the smoke daemon binds an ephemeral port");
    let addr = daemon.addr();
    let jobs = serve_jobs();
    benches.push(bench("serve/mm+pf", 1, 10, || {
        let mut client = moard_server::Client::connect(addr).expect("the smoke daemon is serving");
        for job in &jobs {
            let (_, response) = client.submit(job).expect("the smoke jobs are well-formed");
            assert!(
                matches!(response, moard_server::Response::Result { .. }),
                "smoke job answered with `{}`",
                response.kind()
            );
            black_box(response);
        }
    }));
    daemon.shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&store);
    SmokeReport {
        benches,
        traces,
        config_fingerprint: config.fingerprint(),
    }
}

impl SmokeReport {
    /// The schema-versioned JSON document of this run.  `speedup_vs_pre_pr`
    /// is materialized per bench when `reference` (a parsed baseline with
    /// `pre_pr_median_ns` entries) provides a matching name.
    pub fn to_json(&self, reference: Option<&Baseline>) -> Json {
        Json::object([
            ("schema_version", Json::from(SMOKE_SCHEMA_VERSION)),
            ("kind", Json::from("moard-bench-smoke")),
            (
                "config_fingerprint",
                Json::from(fingerprint_hex(self.config_fingerprint)),
            ),
            (
                "traces",
                Json::object(
                    self.traces
                        .iter()
                        .map(|(name, stats)| (name.as_str(), trace_stats_to_json(stats))),
                ),
            ),
            (
                "benches",
                Json::array(self.benches.iter().map(|b| {
                    let mut fields = vec![
                        ("name", Json::from(b.name.as_str())),
                        ("median_ns", Json::from(b.median_ns as u64)),
                        ("min_ns", Json::from(b.min_ns as u64)),
                        ("max_ns", Json::from(b.max_ns as u64)),
                        ("iters", Json::from(b.iters)),
                        ("warmup_iters", Json::from(b.warmup_iters)),
                    ];
                    if let Some(pre) = reference.and_then(|r| r.pre_pr_median_ns(&b.name)) {
                        fields.push(("pre_pr_median_ns", Json::from(pre)));
                        fields.push((
                            "speedup_vs_pre_pr",
                            Json::from(pre as f64 / b.median_ns.max(1) as f64),
                        ));
                    }
                    Json::object(fields)
                })),
            ),
        ])
    }
}

/// One committed baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineBench {
    /// Benchmark name (matches [`BenchStats::name`]).
    pub name: String,
    /// Committed reference median, in nanoseconds.
    pub median_ns: u64,
    /// Median of the pre-trace-engine implementation, when recorded.
    pub pre_pr_median_ns: Option<u64>,
}

/// A parsed `BENCH_baseline.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Fingerprint of the analysis configuration the baseline was taken
    /// under; comparing against a different configuration is rejected.
    pub config_fingerprint: u64,
    /// Baseline entries.
    pub benches: Vec<BaselineBench>,
}

impl Baseline {
    /// Parse a baseline document.
    pub fn from_json_str(text: &str) -> Result<Baseline, JsonError> {
        let doc = Json::parse(text)?;
        let version = doc.u32_field("schema_version")?;
        // Every version only ever added fields the baseline reader does not
        // need (`warmup_iters` in 2), so older documents remain valid
        // baselines — refusing them would force a blind refresh that loses
        // the `pre_pr_median_ns` references they carry.
        if !(1..=SMOKE_SCHEMA_VERSION).contains(&version) {
            return Err(JsonError::WrongType {
                field: "schema_version".into(),
                expected: "a supported bench-smoke schema version",
            });
        }
        let config_fingerprint = parse_fingerprint(doc.str_field("config_fingerprint")?)?;
        let benches = doc
            .arr_field("benches")?
            .iter()
            .map(|b| {
                Ok(BaselineBench {
                    name: b.str_field("name")?.to_string(),
                    median_ns: b.u64_field("median_ns")?,
                    pre_pr_median_ns: match b.field("pre_pr_median_ns") {
                        Ok(v) => v.as_u64(),
                        Err(_) => None,
                    },
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Baseline {
            config_fingerprint,
            benches,
        })
    }

    /// The committed median for a benchmark name.
    pub fn median_ns(&self, name: &str) -> Option<u64> {
        self.benches
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.median_ns)
    }

    /// The recorded pre-PR median for a benchmark name.
    pub fn pre_pr_median_ns(&self, name: &str) -> Option<u64> {
        self.benches
            .iter()
            .find(|b| b.name == name)
            .and_then(|b| b.pre_pr_median_ns)
    }
}

/// One line of the regression gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// Benchmark name.
    pub name: String,
    /// Median of the current run, in nanoseconds.
    pub current_ns: u64,
    /// Committed baseline median, in nanoseconds.
    pub baseline_ns: u64,
    /// `current / baseline`; above `1 + tolerance` is a regression.
    pub ratio: f64,
    /// True if this benchmark regressed beyond the tolerance.
    pub regressed: bool,
}

/// Compare a run against a committed baseline.  The comparison must be
/// total in both directions: a baseline entry missing from the run would
/// silently disable its gate, and a run bench missing from the baseline
/// would never be gated at all — both are errors, not passes.
pub fn gate(
    report: &SmokeReport,
    baseline: &Baseline,
    tolerance: f64,
) -> Result<Vec<GateLine>, String> {
    if baseline.config_fingerprint != report.config_fingerprint {
        return Err(format!(
            "baseline config fingerprint {} does not match the current suite ({}); \
             regenerate the baseline",
            fingerprint_hex(baseline.config_fingerprint),
            fingerprint_hex(report.config_fingerprint)
        ));
    }
    let mut lines = Vec::new();
    for entry in &baseline.benches {
        let current = report
            .benches
            .iter()
            .find(|b| b.name == entry.name)
            .ok_or_else(|| {
                format!(
                    "baseline bench `{}` missing from the current run",
                    entry.name
                )
            })?;
        let current_ns = current.median_ns as u64;
        let ratio = current_ns as f64 / entry.median_ns.max(1) as f64;
        lines.push(GateLine {
            name: entry.name.clone(),
            current_ns,
            baseline_ns: entry.median_ns,
            ratio,
            regressed: ratio > 1.0 + tolerance,
        });
    }
    for bench in &report.benches {
        if baseline.median_ns(&bench.name).is_none() {
            return Err(format!(
                "bench `{}` has no baseline entry; refresh BENCH_baseline.json \
                 (bench_smoke --write-baseline) so it is gated",
                bench.name
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SmokeReport {
        SmokeReport {
            benches: vec![
                BenchStats {
                    name: "advf_analysis/mm".into(),
                    median_ns: 500,
                    min_ns: 400,
                    max_ns: 600,
                    iters: 10,
                    warmup_iters: 4,
                },
                BenchStats {
                    name: "propagation_k/mm/k=50".into(),
                    median_ns: 90,
                    min_ns: 80,
                    max_ns: 100,
                    iters: 20,
                    warmup_iters: 2,
                },
            ],
            traces: vec![(
                "MM".into(),
                TraceStats {
                    records: 1234,
                    indexed_objects: 3,
                    index_entries: 400,
                },
            )],
            config_fingerprint: smoke_config().fingerprint(),
        }
    }

    fn sample_baseline(mm_ns: u64, prop_ns: u64) -> Baseline {
        Baseline {
            config_fingerprint: smoke_config().fingerprint(),
            benches: vec![
                BaselineBench {
                    name: "advf_analysis/mm".into(),
                    median_ns: mm_ns,
                    pre_pr_median_ns: Some(2 * mm_ns),
                },
                BaselineBench {
                    name: "propagation_k/mm/k=50".into(),
                    median_ns: prop_ns,
                    pre_pr_median_ns: None,
                },
            ],
        }
    }

    #[test]
    fn report_json_round_trips_as_a_baseline() {
        let report = sample_report();
        let text = report.to_json(None).to_pretty();
        let baseline = Baseline::from_json_str(&text).unwrap();
        assert_eq!(baseline.config_fingerprint, report.config_fingerprint);
        assert_eq!(baseline.median_ns("advf_analysis/mm"), Some(500));
        assert_eq!(baseline.pre_pr_median_ns("advf_analysis/mm"), None);
    }

    #[test]
    fn speedup_is_materialized_against_a_reference() {
        let report = sample_report();
        let reference = sample_baseline(450, 100);
        let doc = report.to_json(Some(&reference));
        let benches = doc.arr_field("benches").unwrap();
        assert_eq!(benches[0].u64_field("pre_pr_median_ns").unwrap(), 900);
        let speedup = benches[0].f64_field("speedup_vs_pre_pr").unwrap();
        assert!((speedup - 900.0 / 500.0).abs() < 1e-12);
        // No pre-PR record for the propagation bench: fields absent.
        assert!(benches[1].field("pre_pr_median_ns").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let report = sample_report();
        // 500 vs 450 is an 11% regression: inside the default 25% tolerance.
        let lines = gate(&report, &sample_baseline(450, 100), DEFAULT_TOLERANCE).unwrap();
        assert!(lines.iter().all(|l| !l.regressed));
        // 500 vs 300 is a 67% regression: flagged.
        let lines = gate(&report, &sample_baseline(300, 100), DEFAULT_TOLERANCE).unwrap();
        assert!(lines[0].regressed);
        assert!(!lines[1].regressed);
    }

    #[test]
    fn gate_rejects_mismatched_fingerprint_and_missing_benches() {
        let report = sample_report();
        let mut baseline = sample_baseline(450, 100);
        baseline.config_fingerprint ^= 1;
        assert!(gate(&report, &baseline, DEFAULT_TOLERANCE).is_err());

        // A baseline entry with no matching bench in the run.
        let mut baseline = sample_baseline(450, 100);
        baseline.benches.push(BaselineBench {
            name: "advf_analysis/ghost".into(),
            median_ns: 1,
            pre_pr_median_ns: None,
        });
        assert!(gate(&report, &baseline, DEFAULT_TOLERANCE).is_err());

        // A run bench with no baseline entry must fail too, or it would
        // never be gated.
        let mut baseline = sample_baseline(450, 100);
        baseline.benches.pop();
        let err = gate(&report, &baseline, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("no baseline entry"), "{err}");
    }

    #[test]
    fn sweep_smoke_case_covers_both_suite_workloads() {
        use moard_workloads::WorkloadRegistry;
        let registry = smoke_registry();
        let tasks = sweep_spec().expand(&registry).unwrap();
        // MM targets C, PF targets xe: one analytic aDVF task each.
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().any(|t| t.workload == "MM" && t.object == "C"));
        assert!(tasks.iter().any(|t| t.workload == "PF" && t.object == "xe"));
        // Analytic mode: the bench must never touch the fault injector.
        assert!(tasks.iter().all(|t| matches!(
            t.kind,
            moard_inject::StudyTaskKind::Advf { use_dfi: false, .. }
        )));
        // The smoke registry's MM is the same reduced instance the other
        // benches measure.
        let mm = registry.create("mm").unwrap();
        assert_eq!(mm.name(), "MM");
    }

    #[test]
    fn validate_smoke_case_covers_both_suite_workloads() {
        let registry = smoke_registry();
        let spec = validate_smoke_spec();
        let cells = spec.expand(&registry).unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| c.workload == "MM" && c.object == "C"));
        assert!(cells.iter().any(|c| c.workload == "PF" && c.object == "xe"));
        // The aDVF leg is analytic (the injection loop the bench times is
        // the adaptive RFI campaign, not the DFI resolver)…
        assert!(!spec.use_dfi);
        // …and the campaign budget is CI-sized.
        assert!(spec.max_trials <= 64);
    }

    #[test]
    fn minimize_smoke_case_targets_the_suite_mm_cell() {
        let spec = minimize_smoke_spec();
        spec.validate().unwrap();
        assert_eq!(spec.workload, "mm");
        assert_eq!(spec.object, "C");
        assert_eq!(spec.stride, smoke_config().site_stride);
        // Unpinned: the bench times the finder scan too.
        assert!(spec.site.is_none() && spec.expected.is_none());
    }

    #[test]
    fn dfi_smoke_case_injects_a_whole_mid_trace_run() {
        let pf = smoke_workloads().remove(1);
        let fault = dfi_smoke_fault(&pf.trace, pf.object);
        let len = pf.trace.stats().records;
        assert!(fault.dyn_id > len / 4 && fault.dyn_id < 3 * len / 4);
        // The corrupted run completes, so every iteration times a full
        // re-execution rather than an early crash.
        let injector = DeterministicInjector::new(pf_default()).unwrap();
        let outcome = injector.run(&fault);
        assert!(outcome.status.is_completed());
        assert_eq!(outcome.steps, injector.golden().steps);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Baseline::from_json_str("{not json").is_err());
        assert!(Baseline::from_json_str(r#"{"schema_version": 99}"#).is_err());
        assert!(Baseline::from_json_str(r#"{"schema_version": 0}"#).is_err());
    }

    #[test]
    fn version_1_baselines_still_parse() {
        // Pre-`warmup_iters` documents must remain valid baselines, or a
        // schema bump would silently drop their pre-PR references.
        let text = format!(
            r#"{{
              "schema_version": 1,
              "kind": "moard-bench-smoke",
              "config_fingerprint": "{}",
              "benches": [
                {{"name": "advf_analysis/mm", "median_ns": 500, "min_ns": 1,
                  "max_ns": 2, "iters": 10, "pre_pr_median_ns": 1000}}
              ]
            }}"#,
            fingerprint_hex(smoke_config().fingerprint())
        );
        let baseline = Baseline::from_json_str(&text).unwrap();
        assert_eq!(baseline.median_ns("advf_analysis/mm"), Some(500));
        assert_eq!(baseline.pre_pr_median_ns("advf_analysis/mm"), Some(1000));
    }
}
