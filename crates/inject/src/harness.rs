//! End-to-end analysis harness: workload → trace → aDVF → campaigns.
//!
//! This ties the whole MOARD pipeline together for one workload instance:
//! build the module, run the golden execution, record the dynamic trace,
//! resolve the data-object table **once**, construct the deterministic fault
//! injector, and expose aDVF analysis and injection campaigns per data
//! object.  Every fallible entry point returns `Result<_, MoardError>`.
//!
//! Most callers want the builder façade in [`crate::session`] instead; the
//! figure/table binaries in `moard-bench`, the CLI, and the examples are all
//! thin wrappers over one of the two.

use crate::campaign::Parallelism;
use crate::exhaustive::{run_exhaustive, ExhaustiveConfig};
use crate::injector::DeterministicInjector;
use crate::random::{run_rfi, RfiConfig};
use crate::stats::CampaignStats;
use moard_core::{
    enumerate_sites, run_indexed, AdvfAnalyzer, AdvfReport, AnalysisConfig, MoardError,
    ParticipationSite, ReplayBatch,
};
use moard_vm::{
    DataObjectRegistry, ExecOutcome, ObjectId, TraceBackendSpec, TraceData, Vm, VmConfig,
};
use moard_workloads::Workload;

/// A fully prepared workload: module, golden run, trace, object table, and
/// injector.
///
/// The dynamic trace lives in the backend selected at construction
/// ([`WorkloadHarness::new_with`]): the in-memory default, or the paged
/// on-disk backend that streams fixed-size record segments through a small
/// per-reader LRU — reports are bit-identical either way (the backend is an
/// execution-resource choice, never an analysis input).
pub struct WorkloadHarness {
    injector: DeterministicInjector,
    trace: TraceData,
    traced_outcome: ExecOutcome,
    /// Replay-engine selection applied to every analyzer this harness
    /// constructs.  An execution-resource choice like the trace backend —
    /// never an analysis input (reports are bit-identical either way).
    replay_batch: ReplayBatch,
}

impl WorkloadHarness {
    /// Prepare the harness for a workload (builds, runs, and traces it) with
    /// the trace held in memory.
    pub fn new(workload: Box<dyn Workload>) -> Result<Self, MoardError> {
        Self::new_with(workload, &TraceBackendSpec::Memory)
    }

    /// Prepare the harness with the trace recorded into the given backend.
    pub fn new_with(
        workload: Box<dyn Workload>,
        backend: &TraceBackendSpec,
    ) -> Result<Self, MoardError> {
        let injector = DeterministicInjector::new(workload)?;
        let vm = Vm::new(
            injector.module(),
            VmConfig {
                max_steps: injector.workload().max_steps(),
                ..VmConfig::default()
            },
        )?;
        let (traced_outcome, trace) = vm.execute_traced_with(backend)?;
        if !traced_outcome.bits_identical(injector.golden()) {
            return Err(MoardError::TracePerturbed {
                workload: injector.workload().name().to_string(),
            });
        }
        Ok(WorkloadHarness {
            injector,
            trace,
            traced_outcome,
            replay_batch: ReplayBatch::default(),
        })
    }

    /// Select the replay engine (lane-batched width or `Off`) for every
    /// analysis this harness runs.  Verdicts are bit-identical regardless.
    pub fn set_replay_batch(&mut self, replay_batch: ReplayBatch) {
        self.replay_batch = replay_batch;
    }

    /// The replay-engine selection in use.
    pub fn replay_batch(&self) -> ReplayBatch {
        self.replay_batch
    }

    /// Prepare the harness for a workload selected by name from the built-in
    /// registry.
    pub fn by_name(name: &str) -> Result<Self, MoardError> {
        Self::by_name_in(moard_workloads::builtin_registry(), name)
    }

    /// Prepare the harness for a workload selected by name from a caller
    /// supplied registry (e.g. one extended with the ABFT variants).
    pub fn by_name_in(
        registry: &dyn moard_workloads::WorkloadRegistry,
        name: &str,
    ) -> Result<Self, MoardError> {
        WorkloadHarness::new(create_workload(registry, name)?)
    }

    /// [`WorkloadHarness::by_name_in`] with an explicit trace backend.
    pub fn by_name_in_with(
        registry: &dyn moard_workloads::WorkloadRegistry,
        name: &str,
        backend: &TraceBackendSpec,
    ) -> Result<Self, MoardError> {
        WorkloadHarness::new_with(create_workload(registry, name)?, backend)
    }

    /// The workload under study.
    pub fn workload(&self) -> &dyn Workload {
        self.injector.workload()
    }

    /// The deterministic injector (usable as a `DfiResolver`).
    pub fn injector(&self) -> &DeterministicInjector {
        &self.injector
    }

    /// The golden outcome.
    pub fn golden(&self) -> &ExecOutcome {
        self.injector.golden()
    }

    /// The recorded dynamic trace (either backend).
    pub fn trace(&self) -> &TraceData {
        &self.trace
    }

    /// Surface any I/O or corruption error the paged backend recorded while
    /// an (infallible) replay loop was streaming segments.  The in-memory
    /// backend never poisons, so this is free on the default path.
    fn check_trace(&self) -> Result<(), MoardError> {
        match moard_vm::TraceStorage::poisoned(&self.trace) {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Summary statistics of the trace and its per-object index.
    pub fn trace_stats(&self) -> moard_vm::TraceStats {
        self.trace.stats()
    }

    /// The traced outcome (bit-identical to the golden outcome).
    pub fn traced_outcome(&self) -> &ExecOutcome {
        &self.traced_outcome
    }

    /// The data-object table of this harness's memory image.
    pub fn objects(&self) -> &DataObjectRegistry {
        self.injector.objects()
    }

    /// Resolve a data-object name in the cached object table.
    pub fn object_id(&self, name: &str) -> Result<ObjectId, MoardError> {
        self.objects()
            .by_name(name)
            .map(|o| o.id)
            .ok_or_else(|| MoardError::UnknownObject {
                workload: self.workload().name().to_string(),
                object: name.to_string(),
                available: self.objects().iter().map(|o| o.name.clone()).collect(),
            })
    }

    /// Participation sites of a data object.
    pub fn sites(&self, object: &str) -> Result<Vec<ParticipationSite>, MoardError> {
        let id = self.object_id(object)?;
        let sites = enumerate_sites(&self.trace, id);
        self.check_trace()?;
        Ok(sites)
    }

    /// The strided site subset an analysis with `stride` covers — the same
    /// selection [`moard_core::AdvfAnalyzer`] makes internally, so campaigns
    /// sampling from it (the validation engine's RFI leg) stay on exactly
    /// the site population of the corresponding aDVF report.
    pub fn strided_sites(
        &self,
        object: &str,
        stride: usize,
    ) -> Result<Vec<ParticipationSite>, MoardError> {
        let id = self.object_id(object)?;
        let sites = moard_core::enumerate_strided_sites(&self.trace, id, stride);
        self.check_trace()?;
        Ok(sites)
    }

    /// Run the aDVF analysis for one data object, using deterministic fault
    /// injection to resolve what the trace analysis cannot.
    pub fn analyze(&self, object: &str, config: AnalysisConfig) -> Result<AdvfReport, MoardError> {
        self.analyze_inner(object, config, true)
    }

    /// Run the aDVF analysis without any deterministic fault injection
    /// (purely analytical lower bound).
    pub fn analyze_without_dfi(
        &self,
        object: &str,
        config: AnalysisConfig,
    ) -> Result<AdvfReport, MoardError> {
        self.analyze_inner(object, config, false)
    }

    fn analyze_inner(
        &self,
        object: &str,
        config: AnalysisConfig,
        use_dfi: bool,
    ) -> Result<AdvfReport, MoardError> {
        config.validate()?;
        let id = self.object_id(object)?;
        if !moard_core::has_sites(&self.trace, id) {
            // A backend read failure looks like "no sites" to the analytic
            // layer; surface the recorded trace error over the empty result.
            self.check_trace()?;
            return Err(MoardError::NoParticipationSites {
                workload: self.workload().name().to_string(),
                object: object.to_string(),
            });
        }
        let analyzer = AdvfAnalyzer::new(&self.trace, config).with_replay_batch(self.replay_batch);
        let resolver = use_dfi.then_some(&self.injector as &dyn moard_core::DfiResolver);
        let report = analyzer.analyze(id, object, self.workload().name(), resolver);
        self.check_trace()?;
        Ok(report)
    }

    /// Run the aDVF analysis for every target data object of the workload,
    /// fanning the objects out over worker threads.
    ///
    /// Each object's analysis is self-contained (its own analyzer and
    /// equivalence cache), so the reports are **bit-identical** to a
    /// sequential run regardless of thread count, and arrive in target-object
    /// order.
    pub fn analyze_targets(
        &self,
        config: &AnalysisConfig,
        parallelism: Parallelism,
    ) -> Result<Vec<AdvfReport>, MoardError> {
        let objects: Vec<String> = self
            .workload()
            .target_objects()
            .iter()
            .map(|s| s.to_string())
            .collect();
        self.analyze_objects(&objects, config, parallelism)
    }

    /// Run the aDVF analysis for an explicit list of data objects, fanning
    /// the objects out over worker threads (see [`Self::analyze_targets`]).
    pub fn analyze_objects(
        &self,
        objects: &[String],
        config: &AnalysisConfig,
        parallelism: Parallelism,
    ) -> Result<Vec<AdvfReport>, MoardError> {
        self.analyze_many(objects, config, parallelism, true)
    }

    /// [`Self::analyze_objects`] without deterministic fault injection
    /// (purely analytical lower bound, same fan-out).
    pub fn analyze_objects_without_dfi(
        &self,
        objects: &[String],
        config: &AnalysisConfig,
        parallelism: Parallelism,
    ) -> Result<Vec<AdvfReport>, MoardError> {
        self.analyze_many(objects, config, parallelism, false)
    }

    fn analyze_many(
        &self,
        objects: &[String],
        config: &AnalysisConfig,
        parallelism: Parallelism,
        use_dfi: bool,
    ) -> Result<Vec<AdvfReport>, MoardError> {
        config.validate()?;
        // Fail fast on unknown objects before spending any analysis time.
        for object in objects {
            self.object_id(object)?;
        }
        let workers = parallelism.worker_count();
        // A single analytic object offers no across-object parallelism;
        // shard its participation sites across the workers instead.  The
        // report stays bit-identical to a sequential run (ordered fold; see
        // `AdvfAnalyzer::analyze_sharded`).  With DFI the objects fan out
        // whole, and each object's analysis runs its own planned
        // injections on every core (`AdvfAnalyzer::analyze`), so its
        // run/hit tallies never depend on scheduling.
        if !use_dfi && objects.len() == 1 && workers > 1 {
            return Ok(vec![self.analyze_sharded_inner(
                &objects[0],
                config,
                workers,
            )?]);
        }
        run_indexed(workers, objects.len(), |i| {
            self.analyze_inner(&objects[i], config.clone(), use_dfi)
        })
        .into_iter()
        .collect()
    }

    fn analyze_sharded_inner(
        &self,
        object: &str,
        config: &AnalysisConfig,
        workers: usize,
    ) -> Result<AdvfReport, MoardError> {
        let id = self.object_id(object)?;
        if !moard_core::has_sites(&self.trace, id) {
            // See analyze_inner: a poisoned trace outranks an empty result.
            self.check_trace()?;
            return Err(MoardError::NoParticipationSites {
                workload: self.workload().name().to_string(),
                object: object.to_string(),
            });
        }
        let analyzer =
            AdvfAnalyzer::new(&self.trace, config.clone()).with_replay_batch(self.replay_batch);
        let report = analyzer.analyze_sharded(id, object, self.workload().name(), workers);
        self.check_trace()?;
        Ok(report)
    }

    /// Exhaustive (or strided) fault-injection campaign over one object.
    pub fn exhaustive(
        &self,
        object: &str,
        config: &ExhaustiveConfig,
    ) -> Result<CampaignStats, MoardError> {
        Ok(run_exhaustive(&self.injector, &self.sites(object)?, config))
    }

    /// Random fault-injection campaign over one object.
    pub fn rfi(&self, object: &str, config: &RfiConfig) -> Result<CampaignStats, MoardError> {
        Ok(run_rfi(&self.injector, &self.sites(object)?, config))
    }

    /// Convenience: exhaustive campaign over the site × pattern population
    /// with strides chosen so the total number of injections stays near
    /// `budget`.
    pub fn exhaustive_with_budget(
        &self,
        object: &str,
        budget: u64,
        patterns: &moard_core::ErrorPatternSet,
    ) -> Result<CampaignStats, MoardError> {
        let sites = self.sites(object)?;
        let total: u64 = sites.iter().map(|s| s.pattern_count(patterns) as u64).sum();
        let stride = (total / budget.max(1)).max(1) as usize;
        Ok(run_exhaustive(
            &self.injector,
            &sites,
            &ExhaustiveConfig {
                site_stride: stride,
                pattern_stride: 1,
                patterns: patterns.clone(),
                parallelism: Parallelism::Auto,
            },
        ))
    }
}

/// A thread-safe cache of prepared (warm) workload harnesses, keyed by
/// canonical workload name.
///
/// Preparing a [`WorkloadHarness`] — building the module, running the golden
/// execution, recording and indexing the trace — is the dominant fixed cost
/// of most analyses, and it is identical for every job over the same
/// workload.  A long-running host (the `moard-daemon` service) prepares each
/// workload once and shares the warm harness across every subsequent job;
/// the sweep and validation runners accept a cache via their
/// `harness_cache` builder hooks and then look harnesses up instead of
/// re-tracing.  Harness preparation is deterministic, so a cached harness is
/// indistinguishable from a fresh one — reports stay bit-identical.
#[derive(Default)]
pub struct HarnessCache {
    map: std::sync::RwLock<std::collections::HashMap<String, std::sync::Arc<WorkloadHarness>>>,
    backend: TraceBackendSpec,
    replay_batch: ReplayBatch,
}

impl HarnessCache {
    /// An empty cache preparing harnesses with the in-memory trace backend.
    pub fn new() -> HarnessCache {
        HarnessCache::default()
    }

    /// An empty cache preparing every harness with the given trace backend.
    pub fn with_backend(backend: TraceBackendSpec) -> HarnessCache {
        HarnessCache {
            backend,
            ..HarnessCache::default()
        }
    }

    /// Select the replay engine every harness this cache prepares will use.
    pub fn with_replay_batch(mut self, replay_batch: ReplayBatch) -> HarnessCache {
        self.replay_batch = replay_batch;
        self
    }

    /// The trace backend this cache prepares harnesses with.
    pub fn backend(&self) -> &TraceBackendSpec {
        &self.backend
    }

    /// The replay engine this cache's harnesses analyze with.
    pub fn replay_batch(&self) -> ReplayBatch {
        self.replay_batch
    }

    /// The canonical cache key of a workload name or alias: aliases of the
    /// same workload (`mm`, `matmul`, `MM`) must share one warm harness.
    fn canonical_key(registry: &dyn moard_workloads::WorkloadRegistry, name: &str) -> String {
        registry
            .descriptor(name)
            .map(|d| d.name.to_string())
            .unwrap_or_else(|| name.to_string())
    }

    /// The warm harness for a workload, preparing (and caching) it on first
    /// use.  Unknown names surface the usual typed
    /// [`MoardError::UnknownWorkload`].
    pub fn get_or_prepare(
        &self,
        registry: &dyn moard_workloads::WorkloadRegistry,
        name: &str,
    ) -> Result<std::sync::Arc<WorkloadHarness>, MoardError> {
        let key = Self::canonical_key(registry, name);
        if let Some(harness) = self.map.read().expect("harness cache poisoned").get(&key) {
            return Ok(harness.clone());
        }
        // Prepare outside the lock: tracing a workload can take seconds and
        // must not serialize lookups of already-warm harnesses.  Two racing
        // preparers of the same workload build identical harnesses (the
        // pipeline is deterministic); the first insert wins and the loser's
        // copy is dropped.
        let mut harness = WorkloadHarness::by_name_in_with(registry, name, &self.backend)?;
        harness.set_replay_batch(self.replay_batch);
        let harness = std::sync::Arc::new(harness);
        let mut map = self.map.write().expect("harness cache poisoned");
        Ok(map.entry(key).or_insert(harness).clone())
    }

    /// The warm harness for a canonical workload name, if already prepared.
    pub fn get(&self, canonical_name: &str) -> Option<std::sync::Arc<WorkloadHarness>> {
        self.map
            .read()
            .expect("harness cache poisoned")
            .get(canonical_name)
            .cloned()
    }

    /// Number of warm harnesses currently held.
    pub fn len(&self) -> usize {
        self.map.read().expect("harness cache poisoned").len()
    }

    /// True if no harness has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical names of the warm harnesses, sorted.
    pub fn prepared(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .map
            .read()
            .expect("harness cache poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

/// Instantiate a workload from a registry, or produce the typed
/// [`MoardError::UnknownWorkload`] carrying the registered names.  Shared by
/// every by-name entry point (`WorkloadHarness::by_name_in`,
/// `AnalysisSession::for_workload_in`).
pub(crate) fn create_workload(
    registry: &dyn moard_workloads::WorkloadRegistry,
    name: &str,
) -> Result<Box<dyn Workload>, MoardError> {
    registry
        .create(name)
        .ok_or_else(|| MoardError::UnknownWorkload {
            name: name.to_string(),
            available: registry.names().iter().map(|n| n.to_string()).collect(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_workloads::MatMul;

    #[test]
    fn harness_end_to_end_on_matmul() {
        let h = WorkloadHarness::new(Box::new(MatMul::default())).unwrap();
        assert_eq!(h.workload().name(), "MM");
        assert!(h.trace().len() > 100);
        assert!(h.object_id("C").is_ok());
        assert!(matches!(
            h.object_id("nope"),
            Err(MoardError::UnknownObject { .. })
        ));

        // Unprotected MM: the aDVF of C should be very low (paper: 0.0172)
        // because C's elements are written once and any corruption that is
        // not overwritten survives into the output.
        let report = h
            .analyze(
                "C",
                AnalysisConfig {
                    site_stride: 16,
                    max_dfi_per_object: Some(300),
                    ..Default::default()
                },
            )
            .unwrap();
        let advf = report.advf();
        assert!(
            advf < 0.3,
            "unprotected MM aDVF should be small, got {advf}"
        );
        assert!(report.sites_analyzed > 0);
    }

    #[test]
    fn harness_by_name() {
        assert!(WorkloadHarness::by_name("mm").is_ok());
        match WorkloadHarness::by_name("not-a-workload") {
            Err(MoardError::UnknownWorkload { name, available }) => {
                assert_eq!(name, "not-a-workload");
                assert!(available.iter().any(|n| n == "MM"));
            }
            other => panic!("expected UnknownWorkload, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn object_table_is_cached_and_consistent_with_the_vm() {
        let h = WorkloadHarness::new(Box::new(MatMul::default())).unwrap();
        let vm = Vm::with_defaults(h.injector().module()).unwrap();
        for obj in vm.objects().iter() {
            assert_eq!(h.object_id(&obj.name).unwrap(), obj.id);
        }
        assert_eq!(h.objects().len(), vm.objects().len());
    }

    #[test]
    fn parallel_target_analysis_is_bit_identical_to_sequential() {
        let h = WorkloadHarness::new(Box::new(MatMul::default())).unwrap();
        let config = AnalysisConfig {
            site_stride: 16,
            max_dfi_per_object: Some(200),
            ..Default::default()
        };
        let seq = h.analyze_targets(&config, Parallelism::Sequential).unwrap();
        let par = h.analyze_targets(&config, Parallelism::Fixed(4)).unwrap();
        assert_eq!(seq, par);
        assert!(!seq.is_empty());
    }

    #[test]
    fn sharded_single_object_analytic_run_is_bit_identical_to_sequential() {
        let h = WorkloadHarness::new(Box::new(MatMul::default())).unwrap();
        let config = AnalysisConfig {
            site_stride: 8,
            ..Default::default()
        };
        let objects = vec!["C".to_string()];
        let seq = h
            .analyze_objects_without_dfi(&objects, &config, Parallelism::Sequential)
            .unwrap();
        let sharded = h
            .analyze_objects_without_dfi(&objects, &config, Parallelism::Fixed(4))
            .unwrap();
        assert_eq!(seq, sharded);
        assert_eq!(sharded[0].dfi_runs, 0);
    }

    #[test]
    fn trace_stats_expose_the_index() {
        let h = WorkloadHarness::new(Box::new(MatMul::default())).unwrap();
        let stats = h.trace_stats();
        assert_eq!(stats.records, h.trace().len() as u64);
        assert!(stats.indexed_objects >= 3, "A, B and C are all touched");
        assert!(stats.index_entries > 0);
        let c = h.object_id("C").unwrap();
        let mem = h.trace().as_memory().expect("default backend is memory");
        assert_eq!(
            h.trace().touching_ids(c).len(),
            mem.records_touching(c).count()
        );
    }

    #[test]
    fn harness_cache_shares_one_harness_across_aliases() {
        let registry = moard_workloads::builtin_registry();
        let cache = HarnessCache::new();
        assert!(cache.is_empty());
        assert!(cache.get("MM").is_none());
        let a = cache.get_or_prepare(registry, "mm").unwrap();
        let b = cache.get_or_prepare(registry, "matmul").unwrap();
        let c = cache.get_or_prepare(registry, "MM").unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert!(std::sync::Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.prepared(), vec!["MM".to_string()]);
        assert!(std::sync::Arc::ptr_eq(&a, &cache.get("MM").unwrap()));
        assert!(matches!(
            cache.get_or_prepare(registry, "warp-drive"),
            Err(MoardError::UnknownWorkload { .. })
        ));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn rfi_success_rate_roughly_matches_exhaustive_on_small_object() {
        // On the same fault population, RFI with enough tests should land
        // within a few points of the strided-exhaustive ground truth.
        let h = WorkloadHarness::new(Box::new(MatMul::default())).unwrap();
        let exhaustive = h
            .exhaustive_with_budget("C", 400, &moard_core::ErrorPatternSet::SingleBit)
            .unwrap();
        let rfi = h
            .rfi(
                "C",
                &RfiConfig {
                    tests: 400,
                    ..Default::default()
                },
            )
            .unwrap();
        let diff = (exhaustive.success_rate() - rfi.success_rate()).abs();
        assert!(
            diff < 0.15,
            "exhaustive {} vs RFI {} differ by {diff}",
            exhaustive.success_rate(),
            rfi.success_rate()
        );
    }
}
