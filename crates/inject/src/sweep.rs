//! The study driver: declarative, resumable multi-workload parameter sweeps.
//!
//! MOARD's evaluation is not one object on one workload — it is the full
//! cross-product of the Table I workloads × their data objects × aDVF model
//! parameters, which the paper ran as a batched campaign on a cluster.  This
//! module is the local orchestration layer for that study:
//!
//! * [`StudySpec`] — a declarative specification: which workloads
//!   ([`WorkloadSelector`]), which data objects ([`ObjectSelector`]), and a
//!   grid of analysis parameters (propagation windows, site strides, DFI
//!   caps), plus an optional random-fault-injection validation leg
//!   ([`RfiLeg`], the paper's Fig. 7 comparison);
//! * [`StudySpec::expand`] — deterministic expansion into the flat task
//!   matrix ([`StudyTask`]), one task per cell;
//! * [`Runner::sweep`] — executes the matrix across the runner's worker
//!   pool with **per-task scheduling** (a slow workload's last object
//!   does not serialize the whole sweep behind it), optionally persisting
//!   every completed task to its [`ResultStore`](crate::ResultStore) so a
//!   killed sweep resumes with cache hits;
//! * the fold — results are assembled into a
//!   [`moard_core::StudyReport`] in task-matrix order, so the report is
//!   byte-identical whether the sweep ran sequentially, in parallel, cold,
//!   or resumed from a partial store.
//!
//! ```no_run
//! use moard_inject::{ResultStore, Runner, StudySpec, WorkloadSelector};
//!
//! let spec = StudySpec::default()
//!     .workloads(WorkloadSelector::All)
//!     .strides(vec![4])
//!     .max_dfis(vec![Some(5_000)]);
//! let runner = Runner {
//!     store: Some(ResultStore::open("sweep-store")?), // persist completed tasks
//!     resume: true,                                   // reuse anything already there
//!     ..Runner::default()
//! };
//! let (report, _stats) = runner.sweep(&spec, moard_workloads::builtin_registry())?;
//! println!("{}", report.to_json().to_pretty());
//! # Ok::<(), moard_core::MoardError>(())
//! ```

use crate::campaign::Parallelism;
use crate::harness::{create_workload, WorkloadHarness};
use crate::random::RfiConfig;
use crate::runner::Runner;
use moard_core::{
    fingerprint_hex, run_indexed, AdvfReport, AnalysisConfig, ErrorPatternSet, MoardError,
    RfiEntry, RfiSummary, StudyEntry, StudyReport,
};
use moard_json::{FromJson, Json, JsonError, ToJson};
use moard_workloads::WorkloadRegistry;

/// Which workloads a study covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSelector {
    /// Every workload the registry knows (Table I plus case studies).
    All,
    /// Only the eight Table I benchmarks.
    Table1,
    /// An explicit list of names or aliases (case-insensitive).
    Named(Vec<String>),
}

impl WorkloadSelector {
    pub(crate) fn canonical(&self) -> String {
        match self {
            WorkloadSelector::All => "all".into(),
            WorkloadSelector::Table1 => "table1".into(),
            WorkloadSelector::Named(names) => format!("named:{}", names.join(",")),
        }
    }

    /// Parse the canonical rendering back (`all`, `table1`, `named:a,b`) —
    /// the wire format of the daemon protocol.  Empty name items are
    /// dropped, so a degenerate `named:` parses to an empty list that the
    /// spec validation rejects with its usual typed error.
    pub fn from_canonical(text: &str) -> Option<WorkloadSelector> {
        match text {
            "all" => Some(WorkloadSelector::All),
            "table1" => Some(WorkloadSelector::Table1),
            _ => text.strip_prefix("named:").map(|names| {
                WorkloadSelector::Named(
                    names
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect(),
                )
            }),
        }
    }
}

/// Which data objects of each selected workload a study covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectSelector {
    /// Each workload's declared target data objects (Table I's last column).
    Targets,
    /// An explicit list of object names, applied to every selected workload.
    Named(Vec<String>),
}

impl ObjectSelector {
    pub(crate) fn canonical(&self) -> String {
        match self {
            ObjectSelector::Targets => "targets".into(),
            ObjectSelector::Named(names) => format!("named:{}", names.join(",")),
        }
    }

    /// Parse the canonical rendering back (`targets`, `named:o1,o2`) — the
    /// wire format of the daemon protocol (see
    /// [`WorkloadSelector::from_canonical`]).
    pub fn from_canonical(text: &str) -> Option<ObjectSelector> {
        match text {
            "targets" => Some(ObjectSelector::Targets),
            _ => text.strip_prefix("named:").map(|names| {
                ObjectSelector::Named(
                    names
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect(),
                )
            }),
        }
    }
}

/// The random-fault-injection validation leg of a study (Fig. 7): for every
/// (workload, object) cell, one campaign per entry of `tests`, seeded
/// `seed + index` so the campaigns are independent but reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfiLeg {
    /// Campaign sizes (number of injection tests each).
    pub tests: Vec<usize>,
    /// Base RNG seed; campaign `i` uses `seed + i`.
    pub seed: u64,
}

/// Declarative specification of a study: the workload/object selection and
/// the parameter grids whose cross-product forms the task matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// Workload selection.
    pub workloads: WorkloadSelector,
    /// Data-object selection per workload.
    pub objects: ObjectSelector,
    /// Propagation-window grid (the paper's `k`).
    pub windows: Vec<usize>,
    /// Site-stride grid.
    pub strides: Vec<usize>,
    /// DFI-cap grid (`None` = unbounded).
    pub max_dfis: Vec<Option<u64>>,
    /// Error-pattern-set grid: one full analysis (and one RFI campaign per
    /// leg entry) per pattern set, next to the window/stride/cap axes —
    /// the §VII-B "DVF vs pattern" study axis.
    pub patterns: Vec<ErrorPatternSet>,
    /// Whether the aDVF analysis may consult deterministic fault injection.
    pub use_dfi: bool,
    /// Optional RFI validation leg.
    pub rfi: Option<RfiLeg>,
}

impl Default for StudySpec {
    /// Every workload, its target objects, the paper's default window, no
    /// striding, unbounded DFI, single-bit errors, no RFI leg.
    fn default() -> Self {
        StudySpec {
            workloads: WorkloadSelector::All,
            objects: ObjectSelector::Targets,
            windows: vec![AnalysisConfig::default().propagation_window],
            strides: vec![1],
            max_dfis: vec![None],
            patterns: vec![ErrorPatternSet::SingleBit],
            use_dfi: true,
            rfi: None,
        }
    }
}

impl StudySpec {
    /// The one-configuration study of one workload analysis: `objects` of
    /// `workload` (its target objects when empty; request order, repeats
    /// kept) under `config`.  [`Runner::analyze`] and the daemon's
    /// `analyze` job both run it, so they share study fingerprints and
    /// store keys.
    pub fn analysis(
        workload: &str,
        objects: &[String],
        config: &AnalysisConfig,
        use_dfi: bool,
    ) -> StudySpec {
        StudySpec {
            workloads: WorkloadSelector::Named(vec![workload.to_string()]),
            objects: if objects.is_empty() {
                ObjectSelector::Targets
            } else {
                ObjectSelector::Named(objects.to_vec())
            },
            windows: vec![config.propagation_window],
            strides: vec![config.site_stride],
            max_dfis: vec![config.max_dfi_per_object],
            patterns: vec![config.patterns.clone()],
            use_dfi,
            rfi: None,
        }
    }

    /// Select the workloads to sweep.
    pub fn workloads(mut self, selector: WorkloadSelector) -> Self {
        self.workloads = selector;
        self
    }

    /// Select the data objects to sweep (per workload).
    pub fn objects(mut self, selector: ObjectSelector) -> Self {
        self.objects = selector;
        self
    }

    /// Set the propagation-window grid.
    pub fn windows(mut self, windows: Vec<usize>) -> Self {
        self.windows = windows;
        self
    }

    /// Set the site-stride grid.
    pub fn strides(mut self, strides: Vec<usize>) -> Self {
        self.strides = strides;
        self
    }

    /// Set the DFI-cap grid (`None` = unbounded).
    pub fn max_dfis(mut self, max_dfis: Vec<Option<u64>>) -> Self {
        self.max_dfis = max_dfis;
        self
    }

    /// Set the error-pattern-set grid.
    pub fn patterns(mut self, patterns: Vec<ErrorPatternSet>) -> Self {
        self.patterns = patterns;
        self
    }

    /// Disable deterministic fault injection (purely analytical sweep).
    pub fn without_dfi(mut self) -> Self {
        self.use_dfi = false;
        self
    }

    /// Attach an RFI validation leg.
    pub fn rfi_leg(mut self, tests: Vec<usize>, seed: u64) -> Self {
        self.rfi = Some(RfiLeg { tests, seed });
        self
    }

    /// Check the specification is well-formed: non-empty grids, every grid
    /// point a valid [`AnalysisConfig`], non-degenerate selections, and a
    /// non-degenerate RFI leg if one is attached.
    pub fn validate(&self) -> Result<(), MoardError> {
        if let WorkloadSelector::Named(names) = &self.workloads {
            if names.is_empty() {
                return Err(MoardError::InvalidConfig(
                    "study selects no workloads (empty name list)".into(),
                ));
            }
        }
        if let ObjectSelector::Named(names) = &self.objects {
            if names.is_empty() {
                return Err(MoardError::InvalidConfig(
                    "study selects no data objects (empty name list)".into(),
                ));
            }
        }
        if self.windows.is_empty()
            || self.strides.is_empty()
            || self.max_dfis.is_empty()
            || self.patterns.is_empty()
        {
            return Err(MoardError::InvalidConfig(
                "study parameter grids must be non-empty (windows, strides, max_dfis, patterns)"
                    .into(),
            ));
        }
        for config in self.configs() {
            config.validate()?;
        }
        if let Some(rfi) = &self.rfi {
            if rfi.tests.is_empty() || rfi.tests.contains(&0) {
                return Err(MoardError::InvalidConfig(
                    "RFI leg must request at least one test per campaign".into(),
                ));
            }
        }
        Ok(())
    }

    /// The analysis-configuration grid: the cross-product
    /// windows × strides × max_dfis × patterns, in that nesting order.
    pub fn configs(&self) -> Vec<AnalysisConfig> {
        let mut out = Vec::new();
        for &window in &self.windows {
            for &stride in &self.strides {
                for &max_dfi in &self.max_dfis {
                    for patterns in &self.patterns {
                        out.push(AnalysisConfig {
                            propagation_window: window,
                            site_stride: stride,
                            max_dfi_per_object: max_dfi,
                            patterns: patterns.clone(),
                        });
                    }
                }
            }
        }
        out
    }

    /// Stable 64-bit fingerprint of the whole specification (FNV-1a over a
    /// canonical rendering).  The result store keys every completed task
    /// under it, and the produced [`StudyReport`] embeds it, so results from
    /// different studies are never conflated.
    pub fn fingerprint(&self) -> u64 {
        // Pattern canonicals may themselves contain commas (explicit
        // lists), so the grid joins on `|` to keep the rendering injective.
        let canonical = format!(
            "v2;workloads={};objects={};k={};stride={};max_dfi={};patterns={};dfi={};rfi={}",
            self.workloads.canonical(),
            self.objects.canonical(),
            join(&self.windows),
            join(&self.strides),
            self.max_dfis
                .iter()
                .map(|m| m.map_or("unbounded".to_string(), |n| n.to_string()))
                .collect::<Vec<_>>()
                .join(","),
            self.patterns
                .iter()
                .map(|p| p.canonical())
                .collect::<Vec<_>>()
                .join("|"),
            self.use_dfi as u8,
            match &self.rfi {
                None => "none".to_string(),
                Some(leg) => format!("tests:{};seed:{}", join(&leg.tests), leg.seed),
            },
        );
        moard_core::fnv1a(canonical.as_bytes())
    }

    /// Resolve the selectors against a registry and expand the grids into
    /// the flat task matrix, in deterministic order: every aDVF task
    /// (workload-major, then object, then grid point), followed by every RFI
    /// task.  Unknown workload names surface here as typed errors — before
    /// any analysis time is spent.
    pub fn expand(&self, registry: &dyn WorkloadRegistry) -> Result<Vec<StudyTask>, MoardError> {
        self.validate()?;
        let configs = self.configs();
        let cells = resolve_cells(registry, &self.workloads, &self.objects)?;
        let mut tasks = Vec::new();
        for (workload, objects) in &cells {
            for object in objects {
                for config in &configs {
                    tasks.push(StudyTask {
                        workload: workload.clone(),
                        object: object.clone(),
                        kind: StudyTaskKind::Advf {
                            config: config.clone(),
                            use_dfi: self.use_dfi,
                        },
                    });
                }
            }
        }
        if let Some(leg) = &self.rfi {
            for (workload, objects) in &cells {
                for object in objects {
                    for (i, &tests) in leg.tests.iter().enumerate() {
                        for patterns in &self.patterns {
                            tasks.push(StudyTask {
                                workload: workload.clone(),
                                object: object.clone(),
                                kind: StudyTaskKind::Rfi {
                                    tests,
                                    seed: leg.seed + i as u64,
                                    patterns: patterns.clone(),
                                },
                            });
                        }
                    }
                }
            }
        }
        Ok(tasks)
    }
}

impl ToJson for StudySpec {
    /// The wire form of a study specification — the payload a `sweep` job
    /// carries over the daemon protocol.  Selectors and pattern sets use
    /// their canonical string renderings; the envelope around this document
    /// carries the protocol schema version.
    fn to_json(&self) -> Json {
        Json::object([
            ("workloads", Json::from(self.workloads.canonical())),
            ("objects", Json::from(self.objects.canonical())),
            (
                "windows",
                Json::array(self.windows.iter().map(|&w| Json::from(w))),
            ),
            (
                "strides",
                Json::array(self.strides.iter().map(|&s| Json::from(s))),
            ),
            (
                "max_dfis",
                Json::array(self.max_dfis.iter().map(|m| match m {
                    Some(n) => Json::from(*n),
                    None => Json::Null,
                })),
            ),
            (
                "patterns",
                Json::array(self.patterns.iter().map(|p| Json::from(p.canonical()))),
            ),
            ("use_dfi", Json::from(self.use_dfi)),
            (
                "rfi",
                match &self.rfi {
                    None => Json::Null,
                    Some(leg) => Json::object([
                        (
                            "tests",
                            Json::array(leg.tests.iter().map(|&t| Json::from(t))),
                        ),
                        ("seed", Json::from(leg.seed)),
                    ]),
                },
            ),
        ])
    }
}

impl FromJson for StudySpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let workloads = WorkloadSelector::from_canonical(value.str_field("workloads")?).ok_or(
            JsonError::WrongType {
                field: "workloads".into(),
                expected: "`all`, `table1`, or `named:w1,w2`",
            },
        )?;
        let objects = ObjectSelector::from_canonical(value.str_field("objects")?).ok_or(
            JsonError::WrongType {
                field: "objects".into(),
                expected: "`targets` or `named:o1,o2`",
            },
        )?;
        let usize_list = |field: &'static str| -> Result<Vec<usize>, JsonError> {
            value
                .arr_field(field)?
                .iter()
                .map(|v| {
                    v.as_u64().map(|n| n as usize).ok_or(JsonError::WrongType {
                        field: field.into(),
                        expected: "an array of unsigned integers",
                    })
                })
                .collect()
        };
        let max_dfis = value
            .arr_field("max_dfis")?
            .iter()
            .map(|v| match v {
                Json::Null => Ok(None),
                other => other.as_u64().map(Some).ok_or(JsonError::WrongType {
                    field: "max_dfis".into(),
                    expected: "an array of unsigned integers or nulls",
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let patterns = value
            .arr_field("patterns")?
            .iter()
            .map(|v| {
                v.as_str()
                    .and_then(ErrorPatternSet::from_canonical)
                    .ok_or(JsonError::WrongType {
                        field: "patterns".into(),
                        expected: "an array of canonical error-pattern-set strings",
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let use_dfi = value
            .field("use_dfi")?
            .as_bool()
            .ok_or(JsonError::WrongType {
                field: "use_dfi".into(),
                expected: "a boolean",
            })?;
        let rfi = match value.field("rfi")? {
            Json::Null => None,
            leg => Some(RfiLeg {
                tests: leg
                    .arr_field("tests")?
                    .iter()
                    .map(|v| {
                        v.as_u64().map(|n| n as usize).ok_or(JsonError::WrongType {
                            field: "rfi.tests".into(),
                            expected: "an array of unsigned integers",
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                seed: leg.u64_field("seed")?,
            }),
        };
        Ok(StudySpec {
            workloads,
            objects,
            windows: usize_list("windows")?,
            strides: usize_list("strides")?,
            max_dfis,
            patterns,
            use_dfi,
            rfi,
        })
    }
}

/// Resolve workload/object selectors against a registry into the
/// deterministic (workload, objects) cell grid — shared by the sweep
/// engine's task expansion and the validation engine's campaign matrix.
///
/// Workload names and aliases resolving to the same canonical workload
/// (e.g. `mm,matmul`) must not duplicate its cells — task/cell keys stay
/// unique and every report carries each cell once.  Unknown workload names
/// surface as typed errors before any analysis time is spent.
pub(crate) fn resolve_cells(
    registry: &dyn WorkloadRegistry,
    workloads: &WorkloadSelector,
    objects: &ObjectSelector,
) -> Result<Vec<(String, Vec<String>)>, MoardError> {
    let names: Vec<String> = match workloads {
        WorkloadSelector::All => registry.names().iter().map(|n| n.to_string()).collect(),
        WorkloadSelector::Table1 => registry
            .descriptors()
            .iter()
            .filter(|d| d.table1)
            .map(|d| d.name.to_string())
            .collect(),
        WorkloadSelector::Named(names) => names.clone(),
    };
    let mut cells: Vec<(String, Vec<String>)> = Vec::new();
    for name in &names {
        let workload = create_workload(registry, name)?;
        if cells.iter().any(|(w, _)| *w == workload.name()) {
            continue;
        }
        let objects: Vec<String> = match objects {
            ObjectSelector::Targets => workload
                .target_objects()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ObjectSelector::Named(list) => list.clone(),
        };
        cells.push((workload.name().to_string(), objects));
    }
    Ok(cells)
}

fn join(values: &[usize]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// What one task of the matrix computes.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyTaskKind {
    /// An aDVF analysis of (workload, object) under one configuration.
    Advf {
        /// The grid point.
        config: AnalysisConfig,
        /// Whether deterministic fault injection may be consulted.
        use_dfi: bool,
    },
    /// One random-fault-injection campaign over (workload, object).
    Rfi {
        /// Number of injection tests.
        tests: usize,
        /// RNG seed.
        seed: u64,
        /// Error patterns the campaign samples (uniform over
        /// site × pattern, matching the aDVF cells of the same grid entry).
        patterns: ErrorPatternSet,
    },
}

/// One cell of the expanded task matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyTask {
    /// Canonical workload name.
    pub workload: String,
    /// Data-object name.
    pub object: String,
    /// What to compute.
    pub kind: StudyTaskKind,
}

impl StudyTask {
    /// The stable key this task is stored and resumed under.  Together with
    /// the study fingerprint it content-addresses the task's result.
    pub fn key(&self) -> String {
        match &self.kind {
            StudyTaskKind::Advf { config, use_dfi } => format!(
                "advf/{}/{}/cfg={}/dfi={}",
                self.workload,
                self.object,
                fingerprint_hex(config.fingerprint()),
                *use_dfi as u8
            ),
            StudyTaskKind::Rfi {
                tests,
                seed,
                patterns,
            } => format!(
                "rfi/{}/{}/tests={tests}/seed={seed:x}/patterns={}",
                self.workload,
                self.object,
                patterns.canonical()
            ),
        }
    }

    /// Execute this task against a prepared harness and return the result
    /// payload in its serialized form (the same document the store holds, so
    /// cold and resumed sweeps fold exactly the same bytes).
    fn execute(&self, harness: &WorkloadHarness) -> Result<Json, MoardError> {
        match &self.kind {
            StudyTaskKind::Advf { config, use_dfi } => Ok(harness
                .analyze(&self.object, config.clone(), *use_dfi)?
                .to_json()),
            StudyTaskKind::Rfi {
                tests,
                seed,
                patterns,
            } => {
                let stats = harness.rfi(
                    &self.object,
                    &RfiConfig {
                        tests: *tests,
                        seed: *seed,
                        // The sweep already fans out across tasks; nesting a
                        // second thread pool inside each one would only
                        // oversubscribe the machine.
                        parallelism: Parallelism::Sequential,
                        patterns: patterns.clone(),
                    },
                )?;
                Ok(RfiSummary {
                    tests: *tests as u64,
                    seed: *seed,
                    identical: stats.identical,
                    acceptable: stats.acceptable,
                    incorrect: stats.incorrect,
                    crashed: stats.crashed,
                }
                .to_json())
            }
        }
    }

    /// Parse a result payload (fresh or from the store) into the typed form
    /// the fold consumes.
    fn parse_payload(&self, payload: &Json) -> Result<TaskResult, MoardError> {
        match &self.kind {
            StudyTaskKind::Advf { .. } => Ok(TaskResult::Advf(AdvfReport::from_json(payload)?)),
            StudyTaskKind::Rfi { .. } => Ok(TaskResult::Rfi(RfiSummary::from_json(payload)?)),
        }
    }
}

enum TaskResult {
    Advf(AdvfReport),
    Rfi(RfiSummary),
}

/// Execution statistics of one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Total tasks in the matrix.
    pub tasks: usize,
    /// Tasks answered from the result store without recomputation.
    pub cache_hits: usize,
    /// Tasks executed this run.
    pub executed: usize,
    /// Workload harnesses prepared (workloads whose every task was a cache
    /// hit are never built or traced).
    pub harnesses_prepared: usize,
}

impl Runner {
    /// Execute a [`StudySpec`]: expand the task matrix, schedule it per
    /// task across the worker pool, persist and reuse completed tasks
    /// through the store, and fold the results into a [`StudyReport`],
    /// with the run's statistics alongside.  The sweep stops at the next
    /// task boundary once the cancel token is set; tasks completed before
    /// the stop are already persisted, so it resumes byte-identically.
    pub fn sweep(
        &self,
        spec: &StudySpec,
        registry: &dyn WorkloadRegistry,
    ) -> Result<(StudyReport, SweepStats), MoardError> {
        let tasks = spec.expand(registry)?;
        let fingerprint = spec.fingerprint();

        // 1. Consult the store.  A payload that fails to parse for its task
        //    (corruption, schema drift) is a miss, never an error.
        let cached: Vec<Option<TaskResult>> = tasks
            .iter()
            .map(|task| {
                task.parse_payload(&self.load(fingerprint, &task.key())?)
                    .ok()
            })
            .collect();

        // 2. Prepare one harness per workload that still has work.
        let harnesses = self.prepare(
            registry,
            tasks
                .iter()
                .zip(&cached)
                .filter(|(_, hit)| hit.is_none())
                .map(|(task, _)| task.workload.as_str()),
            &spec.objects,
        )?;

        // 3. Execute the misses, task-at-a-time across the pool, persisting
        //    each completed task immediately so an interrupted sweep keeps
        //    everything it finished.
        let executed = run_indexed(
            self.parallelism.worker_count(),
            tasks.len(),
            |i| -> Result<_, MoardError> {
                if cached[i].is_some() {
                    return Ok(None);
                }
                // Cooperative cancellation checkpoint: tasks that already
                // completed (and persisted) stay; everything else is abandoned.
                self.cancel.checkpoint()?;
                let task = &tasks[i];
                let payload = task.execute(harnesses.get(&task.workload))?;
                self.save(fingerprint, &task.key(), &payload)?;
                Ok(Some(task.parse_payload(&payload)?))
            },
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

        // 4. Fold in task-matrix order — identical for cold, parallel, and
        //    resumed runs.
        let mut stats = SweepStats {
            tasks: tasks.len(),
            harnesses_prepared: harnesses.len(),
            ..Default::default()
        };
        let mut report = StudyReport {
            study_fingerprint: fingerprint,
            ..Default::default()
        };
        for ((task, hit), fresh) in tasks.iter().zip(cached).zip(executed) {
            let result = match (hit, fresh) {
                (Some(hit), _) => {
                    stats.cache_hits += 1;
                    hit
                }
                (None, Some(fresh)) => {
                    stats.executed += 1;
                    fresh
                }
                (None, None) => unreachable!("every miss task was executed"),
            };
            match result {
                TaskResult::Advf(advf) => {
                    let StudyTaskKind::Advf { config, .. } = &task.kind else {
                        unreachable!("payload kind follows task kind");
                    };
                    report.entries.push(StudyEntry {
                        workload: task.workload.clone(),
                        object: task.object.clone(),
                        config: config.clone(),
                        advf,
                    });
                }
                TaskResult::Rfi(summary) => {
                    let StudyTaskKind::Rfi { patterns, .. } = &task.kind else {
                        unreachable!("payload kind follows task kind");
                    };
                    report.rfi.push(RfiEntry {
                        workload: task.workload.clone(),
                        object: task.object.clone(),
                        patterns: patterns.canonical(),
                        summary,
                    })
                }
            }
        }
        Ok((report, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::HarnessCache;
    use crate::minimize::MinimizeSpec;
    use crate::store::ResultStore;
    use moard_workloads::builtin_registry;
    use std::sync::Arc;

    fn quick_spec() -> StudySpec {
        StudySpec::default()
            .workloads(WorkloadSelector::Named(vec!["mm".into()]))
            .strides(vec![16])
            .max_dfis(vec![Some(200)])
    }

    /// The report of `spec` under `runner`, over the built-in workloads.
    fn sweep(runner: &Runner, spec: &StudySpec) -> Result<StudyReport, MoardError> {
        Ok(runner.sweep(spec, builtin_registry())?.0)
    }

    /// A default runner over the store at `dir`.
    fn stored(dir: &std::path::Path, resume: bool) -> Runner {
        Runner {
            store: Some(ResultStore::open(dir).unwrap()),
            resume,
            ..Runner::default()
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moard-sweep-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn expansion_is_the_cross_product_in_deterministic_order() {
        let spec = quick_spec()
            .windows(vec![20, 50])
            .strides(vec![8, 16])
            .rfi_leg(vec![50, 100], 7);
        let tasks = spec.expand(builtin_registry()).unwrap();
        // MM has one target object (C): 2 windows × 2 strides × 1 cap aDVF
        // tasks, then 2 RFI tasks.
        assert_eq!(tasks.len(), 6);
        assert!(tasks[..4]
            .iter()
            .all(|t| matches!(t.kind, StudyTaskKind::Advf { .. })));
        assert!(tasks[4..]
            .iter()
            .all(|t| matches!(t.kind, StudyTaskKind::Rfi { .. })));
        assert!(tasks.iter().all(|t| t.workload == "MM" && t.object == "C"));
        // RFI seeds are base + index.
        assert_eq!(
            tasks[4].kind,
            StudyTaskKind::Rfi {
                tests: 50,
                seed: 7,
                patterns: ErrorPatternSet::SingleBit
            }
        );
        assert_eq!(
            tasks[5].kind,
            StudyTaskKind::Rfi {
                tests: 100,
                seed: 8,
                patterns: ErrorPatternSet::SingleBit
            }
        );
        // Task keys are unique.
        let mut keys: Vec<String> = tasks.iter().map(|t| t.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
        // Expansion order is stable.
        assert_eq!(tasks, spec.expand(builtin_registry()).unwrap());
    }

    #[test]
    fn duplicate_and_alias_workload_names_expand_once() {
        let tasks = quick_spec()
            .workloads(WorkloadSelector::Named(vec![
                "mm".into(),
                "matmul".into(),
                "MM".into(),
            ]))
            .expand(builtin_registry())
            .unwrap();
        assert_eq!(tasks.len(), 1, "aliases of MM must not duplicate its cell");
        assert_eq!(tasks[0].workload, "MM");
    }

    #[test]
    fn selectors_round_trip_through_their_canonical_rendering() {
        for selector in [
            WorkloadSelector::All,
            WorkloadSelector::Table1,
            WorkloadSelector::Named(vec!["mm".into(), "cg".into()]),
        ] {
            assert_eq!(
                WorkloadSelector::from_canonical(&selector.canonical()),
                Some(selector)
            );
        }
        for selector in [
            ObjectSelector::Targets,
            ObjectSelector::Named(vec!["C".into()]),
        ] {
            assert_eq!(
                ObjectSelector::from_canonical(&selector.canonical()),
                Some(selector)
            );
        }
        // Unknown renderings are rejected, and `named:` degenerates to the
        // empty list the spec validation then refuses.
        assert_eq!(WorkloadSelector::from_canonical("everything"), None);
        assert_eq!(ObjectSelector::from_canonical("all"), None);
        assert_eq!(
            WorkloadSelector::from_canonical("named:"),
            Some(WorkloadSelector::Named(vec![]))
        );
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = quick_spec()
            .windows(vec![20, 50])
            .max_dfis(vec![Some(200), None])
            .patterns(vec![
                ErrorPatternSet::SingleBit,
                ErrorPatternSet::AdjacentBits { width: 2 },
            ])
            .rfi_leg(vec![50, 100], 7);
        let back = StudySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
        // Garbage is a typed error, never a panic.
        assert!(StudySpec::from_json(&Json::from("nope")).is_err());
        assert!(StudySpec::from_json(&Json::object::<&str>([])).is_err());
    }

    #[test]
    fn cancelled_sweep_is_a_typed_error_and_resumes_cleanly() {
        let dir = temp_dir("cancel");
        let cancelled = stored(&dir, false);
        cancelled.cancel.cancel();
        let err = sweep(&cancelled, &quick_spec()).unwrap_err();
        assert_eq!(err, MoardError::Cancelled);
        // A minimization through the same runner stops at its first oracle
        // probe.
        let err = cancelled
            .minimize(
                &MinimizeSpec::cell("mm", "C").stride(16),
                builtin_registry(),
            )
            .unwrap_err();
        assert_eq!(err, MoardError::Cancelled);
        let full = sweep(&Runner::default(), &quick_spec()).unwrap();
        let resumed = sweep(&stored(&dir, true), &quick_spec()).unwrap();
        assert_eq!(resumed.to_json_string(), full.to_json_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_populates_and_reuses_a_shared_harness_cache() {
        let runner = Runner {
            harnesses: Arc::new(HarnessCache::new()),
            ..Runner::default()
        };
        let a = sweep(&runner, &quick_spec()).unwrap();
        assert_eq!(runner.harnesses.prepared(), vec!["MM".to_string()]);
        let b = sweep(&runner, &quick_spec()).unwrap();
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn unknown_workloads_and_degenerate_specs_are_typed_errors() {
        let err = quick_spec()
            .workloads(WorkloadSelector::Named(vec!["warp-drive".into()]))
            .expand(builtin_registry())
            .unwrap_err();
        assert!(matches!(err, MoardError::UnknownWorkload { .. }));
        assert!(matches!(
            quick_spec().strides(vec![]).validate(),
            Err(MoardError::InvalidConfig(_))
        ));
        assert!(matches!(
            quick_spec().strides(vec![0]).validate(),
            Err(MoardError::InvalidConfig(_))
        ));
        assert!(matches!(
            quick_spec().rfi_leg(vec![], 0).validate(),
            Err(MoardError::InvalidConfig(_))
        ));
        assert!(matches!(
            quick_spec()
                .workloads(WorkloadSelector::Named(vec![]))
                .validate(),
            Err(MoardError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = quick_spec();
        assert_ne!(a.fingerprint(), a.clone().windows(vec![20]).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().without_dfi().fingerprint());
        assert_ne!(
            a.fingerprint(),
            a.clone().rfi_leg(vec![100], 1).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            a.clone().workloads(WorkloadSelector::Table1).fingerprint()
        );
        assert_eq!(a.fingerprint(), quick_spec().fingerprint());
    }

    #[test]
    fn sweep_matches_direct_harness_analyses_bit_for_bit() {
        let spec = quick_spec().windows(vec![20, 50]);
        let report = sweep(&Runner::default(), &spec).unwrap();
        assert_eq!(report.entries.len(), 2);
        let harness = WorkloadHarness::by_name("mm").unwrap();
        for (entry, config) in report.entries.iter().zip(spec.configs()) {
            assert_eq!(entry.config, config);
            let direct = harness.analyze("C", config, true).unwrap();
            assert_eq!(entry.advf, direct);
            assert_eq!(entry.advf.advf().to_bits(), direct.advf().to_bits());
        }
        assert_eq!(report.study_fingerprint, spec.fingerprint());
    }

    #[test]
    fn parallel_and_sequential_sweeps_are_byte_identical() {
        let spec = quick_spec().windows(vec![20, 50]).rfi_leg(vec![40], 0xF1F1);
        let with = |parallelism| Runner {
            parallelism,
            ..Runner::default()
        };
        let seq = sweep(&with(Parallelism::Sequential), &spec).unwrap();
        let par = sweep(&with(Parallelism::Fixed(8)), &spec).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.to_json_string(), par.to_json_string());
    }

    #[test]
    fn rfi_leg_matches_a_direct_campaign() {
        let spec = quick_spec().rfi_leg(vec![60], 0xABCD);
        let report = sweep(&Runner::default(), &spec).unwrap();
        assert_eq!(report.rfi.len(), 1);
        let harness = WorkloadHarness::by_name("mm").unwrap();
        let direct = harness
            .rfi(
                "C",
                &RfiConfig {
                    tests: 60,
                    seed: 0xABCD,
                    parallelism: Parallelism::Sequential,
                    ..Default::default()
                },
            )
            .unwrap();
        let summary = &report.rfi[0].summary;
        assert_eq!(summary.identical, direct.identical);
        assert_eq!(summary.crashed, direct.crashed);
        assert_eq!(summary.runs(), direct.runs);
        assert_eq!(
            summary.success_rate().to_bits(),
            direct.success_rate().to_bits()
        );
    }

    #[test]
    fn resumed_sweep_hits_the_cache_and_reproduces_the_report() {
        let dir = temp_dir("resume");
        let spec = quick_spec().rfi_leg(vec![30], 1);
        let (cold, stats) = stored(&dir, false)
            .sweep(&spec, builtin_registry())
            .unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.executed, stats.tasks);
        assert_eq!(stats.harnesses_prepared, 1);

        let (resumed, stats) = stored(&dir, true).sweep(&spec, builtin_registry()).unwrap();
        assert_eq!(stats.cache_hits, stats.tasks);
        assert_eq!(stats.executed, 0);
        // A fully cached sweep never prepares a single harness.
        assert_eq!(stats.harnesses_prepared, 0);
        assert_eq!(resumed, cold);
        assert_eq!(resumed.to_json_string(), cold.to_json_string());

        // Without `resume`, the store is write-only: everything recomputes.
        let (recomputed, stats) = stored(&dir, false)
            .sweep(&spec, builtin_registry())
            .unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(recomputed, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_named_object_fails_fast() {
        let spec = quick_spec().objects(ObjectSelector::Named(vec!["nope".into()]));
        let err = sweep(&Runner::default(), &spec).unwrap_err();
        assert!(matches!(err, MoardError::UnknownObject { .. }));
    }
}
