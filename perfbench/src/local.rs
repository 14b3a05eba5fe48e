//! The local workloads: `exact-dfi`, `analytic-memory` and
//! `analytic-paged`.  One pass prepares every workload its cells touch (the
//! set-up) and then analyzes every cell once, sequentially, in an order
//! drawn from the seed for that pass (the timed phase).

use crate::layers::{
    add, digest, ratio, secs, CountingDfi, CountingStorage, DfiCounters, Sample, StorageCounters,
};
use crate::{Pass, SplitMix};
use moard_core::{
    analyze_operation, fingerprint_hex, AdvfAnalyzer, AdvfReport, AnalysisConfig, DfiResolver,
    OpVerdict, ParticipationSite, PropagationResult, ReplayCursor, UnresolvedReason,
};
use moard_inject::DeterministicInjector;
use moard_vm::{
    DataObjectRegistry, ObjectId, TraceBackendSpec, TraceData, TraceStorage, Vm, VmConfig,
};
use moard_workloads::{
    builtin_registry, MatMul, MmConfig, Pf, PfConfig, Workload, WorkloadRegistry,
};
use std::path::Path;
use std::time::Instant;

/// Stride of the `exact-dfi` cells.
const EXACT_STRIDE: usize = 4;

/// `exact-dfi` cells and their DFI budgets: every budget is exhausted, so a
/// pass runs exactly this many injections per cell.
/// The budgets keep the three cell times apart (CG < MM < PF), so the
/// median cell is the same one in every pass.
const EXACT_CELLS: [(&str, &str, u64); 3] = [("PF", "xe", 120), ("CG", "r", 140), ("MM", "C", 800)];

/// One analysis cell: a workload (canonical registry name), a data object
/// and the analysis settings.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: &'static str,
    pub object: &'static str,
    pub config: AnalysisConfig,
    pub use_dfi: bool,
}

impl Cell {
    /// Key of the cell in digests and the reference file.
    pub fn key(&self) -> String {
        let dfi = match (self.use_dfi, self.config.max_dfi_per_object) {
            (false, _) => "off".to_string(),
            (true, None) => "all".to_string(),
            (true, Some(n)) => n.to_string(),
        };
        format!(
            "{}/{}/s{}/k{}/dfi-{}",
            self.workload,
            self.object,
            self.config.site_stride,
            self.config.propagation_window,
            dfi
        )
    }
}

/// A workload instance for `name`: MM and PF take their input data from
/// the benchmark seed, every other workload is the registry's default.
pub fn instance(name: &str, seed: Option<u64>) -> Box<dyn Workload> {
    match (name, seed) {
        ("MM", Some(seed)) => Box::new(MatMul::with_config(MmConfig {
            seed: SplitMix::mix(seed ^ 0x4d4d),
            ..MmConfig::default()
        })),
        ("PF", Some(seed)) => Box::new(Pf::with_config(PfConfig {
            seed: SplitMix::mix(seed ^ 0x5046),
            ..PfConfig::default()
        })),
        _ => builtin_registry()
            .create(name)
            .expect("cells name registered workloads"),
    }
}

/// A prepared workload: injector (module + golden run) and trace.
pub struct Prepared {
    pub name: &'static str,
    pub injector: DeterministicInjector,
    pub trace: TraceData,
    objects: DataObjectRegistry,
}

impl Prepared {
    fn object_id(&self, object: &str) -> Result<ObjectId, String> {
        self.objects
            .by_name(object)
            .map(|o| o.id)
            .ok_or_else(|| format!("{} has no object {object}", self.name))
    }
}

/// Set a workload up for analysis: `DeterministicInjector::new` (module
/// build and golden run), then `Vm::execute_traced_with` into `backend`.
/// With `sample`, the two steps are timed and counted.
pub fn prepare(
    workload: Box<dyn Workload>,
    backend: &TraceBackendSpec,
    sample: Option<&mut Sample>,
) -> Result<Prepared, String> {
    let name = workload.name();
    let started = Instant::now();
    let injector = DeterministicInjector::new(workload).map_err(|e| e.to_string())?;
    let prepare_s = secs(started);
    let started = Instant::now();
    let vm = Vm::new(
        injector.module(),
        VmConfig {
            max_steps: injector.workload().max_steps(),
            ..VmConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let objects = vm.objects().clone();
    let (outcome, trace) = vm.execute_traced_with(backend).map_err(|e| e.to_string())?;
    let traced_s = secs(started);
    if !outcome.bits_identical(injector.golden()) {
        return Err(format!(
            "{name}: the traced run differs from the golden run"
        ));
    }
    if let Some(s) = sample {
        add(s, "inject.prepare_s", prepare_s);
        add(s, "vm.golden_steps", injector.golden().steps as f64);
        add(s, "vm.traced_s", traced_s);
        add(s, "vm.trace_records", trace.len() as f64);
        if let Some(paged) = trace.as_paged() {
            add(s, "vm.paged.spill_bytes", dir_bytes(paged.dir()) as f64);
        }
    }
    Ok(Prepared {
        name,
        injector,
        trace,
        objects,
    })
}

/// The prepared workload named `workload` (which must be prepared).
pub fn prepared_for<'a>(prepared: &'a [Prepared], workload: &str) -> &'a Prepared {
    prepared
        .iter()
        .find(|p| p.name == workload)
        .expect("every cell's workload is prepared before its cells run")
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn check_trace(p: &Prepared) -> Result<(), String> {
    match p.trace.poisoned() {
        Some(e) => Err(format!("{}: trace read failed: {e}", p.name)),
        None => Ok(()),
    }
}

/// Analyze `cell` the way `moard analyze` does, with no tracing.
pub fn analyze(p: &Prepared, cell: &Cell) -> Result<AdvfReport, String> {
    let id = p.object_id(cell.object)?;
    let analyzer = AdvfAnalyzer::new(p.trace.storage(), cell.config.clone());
    let resolver = cell.use_dfi.then_some(&p.injector as &dyn DfiResolver);
    let report = analyzer.analyze(id, cell.object, p.name, resolver);
    check_trace(p)?;
    Ok(report)
}

/// What a traced cell left for the probes and the accounting.
pub struct TracedCell {
    pub report: AdvfReport,
    pub sites: Vec<ParticipationSite>,
    /// Layer self time of this cell: sites and analysis minus the DFI and
    /// storage time inside them (those are their own layers).
    pub core_self_s: f64,
    /// Time inside the DFI and storage seams.
    pub seam_s: f64,
}

/// Analyze `cell` through the counting seams: `pattern_sites` and
/// `analyze` are timed from outside, DFI and trace reads inside the
/// wrappers.
pub fn analyze_traced(p: &Prepared, cell: &Cell, s: &mut Sample) -> Result<TracedCell, String> {
    let id = p.object_id(cell.object)?;
    let storage_counters = StorageCounters::default();
    let dfi_counters = DfiCounters::default();
    let storage = CountingStorage::new(p.trace.storage(), &storage_counters);
    let dfi = CountingDfi {
        injector: &p.injector,
        counters: &dfi_counters,
    };
    let analyzer = AdvfAnalyzer::new(&storage, cell.config.clone());

    let started = Instant::now();
    let sites = analyzer.pattern_sites(id);
    let sites_s = secs(started);
    let sites_read_s = storage_counters.read_s();

    let started = Instant::now();
    let resolver = cell.use_dfi.then_some(&dfi as &dyn DfiResolver);
    let report = analyzer.analyze(id, cell.object, p.name, resolver);
    let analysis_s = secs(started);
    check_trace(p)?;
    let analysis_read_s = storage_counters.read_s() - sites_read_s;
    if dfi_counters.calls() != report.dfi_runs {
        return Err(format!(
            "{}: the DFI seam saw {} injections, the report counts {}",
            cell.key(),
            dfi_counters.calls(),
            report.dfi_runs
        ));
    }
    let analysis_self_s = analysis_s - dfi_counters.dfi_s() - analysis_read_s;

    add(s, "core.sites.count", sites.len() as f64);
    add(s, "core.sites_s", sites_s);
    add(s, "core.analysis_s", analysis_s);
    add(s, "core.analysis.self_s", analysis_self_s);
    add(
        s,
        "core.analysis.resolved_analytically",
        report.resolved_analytically as f64,
    );
    add(
        s,
        "core.analysis.sites_analyzed",
        report.sites_analyzed as f64,
    );
    add(s, "inject.dfi.cache_hits", report.dfi_cache_hits as f64);
    dfi_counters.record(s);
    storage_counters.record(s);
    Ok(TracedCell {
        sites,
        core_self_s: (sites_s - sites_read_s) + analysis_self_s,
        seam_s: dfi_counters.dfi_s() + storage_counters.read_s(),
        report,
    })
}

/// Probe of `core.op_rules` and `core.propagation`: `analyze_operation` on
/// every site × pattern, then one replay on every propagate/overshadow lane
/// (through one reused `ReplayCursor`).  Reads the trace directly, so the
/// storage counters see none of it.
pub fn probe_rules(
    trace: &dyn TraceStorage,
    sites: &[ParticipationSite],
    config: &AnalysisConfig,
    s: &mut Sample,
) {
    let started = Instant::now();
    let mut reader = trace.new_reader();
    let mut lanes = Vec::new();
    let mut counts = [0u64; 5];
    for site in sites {
        let Some(rec) = reader.fetch(site.record_id) else {
            continue;
        };
        for pattern in config.patterns.patterns_for(site.value.ty()) {
            let slot = match analyze_operation(&rec, site.slot, &pattern) {
                OpVerdict::Masked(_) => 0,
                OpVerdict::NotMasked => 1,
                OpVerdict::Propagate { corrupt } => {
                    lanes.push((rec.id as usize + 1, corrupt));
                    2
                }
                OpVerdict::OvershadowCandidate { corrupt } => {
                    lanes.push((rec.id as usize + 1, corrupt));
                    3
                }
                OpVerdict::NeedsDfi => 4,
            };
            counts[slot] += 1;
        }
    }
    drop(reader);
    add(s, "core.op_rules_s", secs(started));
    add(s, "core.op_rules.evals", counts.iter().sum::<u64>() as f64);
    for (name, n) in [
        "core.op_rules.masked",
        "core.op_rules.not_masked",
        "core.op_rules.propagate",
        "core.op_rules.overshadow",
        "core.op_rules.needs_dfi",
    ]
    .into_iter()
    .zip(counts)
    {
        add(s, name, n as f64);
    }

    let started = Instant::now();
    let mut cursor = ReplayCursor::new(trace);
    let mut reasons = [0u64; 6];
    for (start, corrupt) in &lanes {
        let slot = match cursor.replay(*start, corrupt, config.propagation_window) {
            PropagationResult::AllMasked { .. } => 0,
            PropagationResult::Unresolved { reason, .. } => match reason {
                UnresolvedReason::WindowExhausted => 1,
                UnresolvedReason::ControlDivergence => 2,
                UnresolvedReason::AddressDivergence => 3,
                UnresolvedReason::EvalTrap => 4,
                UnresolvedReason::TraceEnded => 5,
            },
        };
        reasons[slot] += 1;
    }
    add(s, "core.propagation_s", secs(started));
    add(s, "core.propagation.lanes", lanes.len() as f64);
    for (name, n) in [
        "core.propagation.masked",
        "core.propagation.unresolved.window",
        "core.propagation.unresolved.control",
        "core.propagation.unresolved.address",
        "core.propagation.unresolved.trap",
        "core.propagation.unresolved.trace_end",
    ]
    .into_iter()
    .zip(reasons)
    {
        add(s, name, n as f64);
    }
}

/// Derived ratios, computed once every count of a pass is in.
pub fn finish_ratios(s: &mut Sample) {
    let get = |s: &Sample, k: &str| s.get(k).copied().unwrap_or(0.0);
    let hits = get(s, "inject.dfi.cache_hits");
    let runs = get(s, "inject.dfi.calls");
    s.insert("inject.dfi.cache_hit_ratio", ratio(hits, hits + runs));
    let masked = get(s, "core.propagation.masked");
    let lanes = get(s, "core.propagation.lanes");
    s.insert("core.propagation.resolved_ratio", ratio(masked, lanes));
}

/// A local workload: its cells, its backend and its seed.
pub struct LocalBench {
    cells: Vec<Cell>,
    backend: TraceBackendSpec,
    seed: u64,
}

impl LocalBench {
    /// `exact-dfi`: PF/xe, CG/r and MM/C at stride 4 with fixed DFI budgets.
    pub fn exact_dfi(seed: u64) -> LocalBench {
        let cells = EXACT_CELLS
            .iter()
            .map(|&(workload, object, budget)| Cell {
                workload,
                object,
                config: AnalysisConfig {
                    site_stride: EXACT_STRIDE,
                    max_dfi_per_object: Some(budget),
                    ..AnalysisConfig::default()
                },
                use_dfi: true,
            })
            .collect();
        LocalBench {
            cells,
            backend: TraceBackendSpec::Memory,
            seed,
        }
    }

    /// `analytic-memory` / `analytic-paged`: every Table-1 cell at stride
    /// 1, no DFI, recorded into `backend`.
    pub fn analytic(seed: u64, backend: TraceBackendSpec) -> LocalBench {
        let cells = builtin_registry()
            .descriptors()
            .into_iter()
            .filter(|d| d.table1)
            .flat_map(|d| {
                d.targets.into_iter().map(move |object| Cell {
                    workload: d.name,
                    object,
                    config: AnalysisConfig::default(),
                    use_dfi: false,
                })
            })
            .collect();
        LocalBench {
            cells,
            backend,
            seed,
        }
    }

    /// Cell keys whose inputs depend on the seed (MM and PF data).
    pub fn seeded_keys(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|c| matches!(c.workload, "MM" | "PF"))
            .map(Cell::key)
            .collect()
    }

    /// Workloads the cells touch, in cell order.
    fn workloads(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for cell in &self.cells {
            if !names.contains(&cell.workload) {
                names.push(cell.workload);
            }
        }
        names
    }

    /// Pass number `n`: set-up, then every cell once.
    pub fn pass(&self, n: u64, traced: bool) -> Pass {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        SplitMix::new(self.seed ^ SplitMix::mix(n)).shuffle(&mut order);
        let mut pass = Pass::default();
        let mut s = Sample::new();
        let started = Instant::now();
        let mut prepared = Vec::new();
        for name in self.workloads() {
            let sample = traced.then_some(&mut s);
            match prepare(instance(name, Some(self.seed)), &self.backend, sample) {
                Ok(p) => prepared.push(p),
                Err(e) => {
                    pass.attempted = self.cells.len() as u64;
                    pass.failed = pass.attempted;
                    pass.problems.push(e);
                    return pass;
                }
            }
        }
        let setup_s = secs(started);
        pass.setup_s.push(setup_s);

        let mut traced_cells = Vec::new();
        let mut core_self_s = 0.0;
        let mut seam_s = 0.0;
        // Latencies by cell, not by execution order, so that slot `i` is
        // the same cell in every pass.
        pass.op_ms = vec![0.0; self.cells.len()];
        let started = Instant::now();
        for &i in &order {
            let cell = &self.cells[i];
            let p = prepared_for(&prepared, cell.workload);
            let op = Instant::now();
            let result = if traced {
                analyze_traced(p, cell, &mut s).map(|t| {
                    core_self_s += t.core_self_s;
                    seam_s += t.seam_s;
                    let report = t.report.clone();
                    traced_cells.push((i, t));
                    report
                })
            } else {
                analyze(p, cell)
            };
            pass.op_ms[i] = op.elapsed().as_secs_f64() * 1e3;
            pass.attempted += 1;
            match result {
                Ok(report) => {
                    pass.digests.insert(cell.key(), digest(&report));
                }
                Err(e) => {
                    pass.failed += 1;
                    pass.problems.push(e);
                }
            }
        }
        pass.wall_s = secs(started);

        pass.context = self
            .cells
            .iter()
            .map(|cell| {
                let records = prepared_for(&prepared, cell.workload).trace.len();
                format!(
                    "{{\"cell\":\"{}\",\"config_fingerprint\":\"{}\",\"trace_records\":{records}}}",
                    cell.key(),
                    fingerprint_hex(cell.config.fingerprint())
                )
            })
            .collect();

        if traced {
            let probe = Instant::now();
            for (i, t) in &traced_cells {
                let cell = &self.cells[*i];
                let p = prepared_for(&prepared, cell.workload);
                probe_rules(p.trace.storage(), &t.sites, &cell.config, &mut s);
            }
            add(&mut s, "bench.probe_s", secs(probe));
            let wall = setup_s + pass.wall_s;
            let prepare_s = s["inject.prepare_s"] + s["vm.traced_s"];
            s.insert("bench.traced_wall_s", wall);
            s.insert("bench.other_s", wall - prepare_s - core_self_s - seam_s);
            finish_ratios(&mut s);
            pass.layers = Some(s);
        }
        pass
    }
}
