//! # moard-inject
//!
//! Fault-injection campaigns, the end-to-end analysis harness, and the
//! [`Runner`] that executes analyses, sweeps, validation campaigns and
//! minimizations — everything between "a workload name" and "a serialized
//! report".
//!
//! ## Campaigns
//!
//! Three kinds of campaigns are provided, mirroring the paper's evaluation
//! methodology:
//!
//! * **deterministic** ([`injector::DeterministicInjector`]) — re-execute the
//!   workload with one exact bit flip and classify the outcome; this is the
//!   resolver the aDVF model calls for unresolved masking questions
//!   (paper §III-E);
//! * **exhaustive** ([`exhaustive`]) — inject at *every* valid fault site of
//!   a data object, the ground truth used to validate the aDVF ranking
//!   (§V-B, Fig. 6);
//! * **random** ([`random`]) — the traditional RFI baseline with
//!   statistically sized campaigns and margins of error (§V-C, Fig. 7).
//!
//! ## One workload: `Runner::analyze`
//!
//! [`harness::WorkloadHarness`] packages a workload's module, golden run,
//! dynamic trace, object table, and injector behind a one-call API.
//! [`Runner::analyze`] analyzes data objects of a registered workload on a
//! harness from the runner's cache and returns a [`SessionReport`]; the
//! CLI, the examples, and the figure/table binaries in `moard-bench` use
//! it:
//!
//! ```no_run
//! use moard_core::AnalysisConfig;
//! use moard_inject::Runner;
//!
//! let config = AnalysisConfig {
//!     propagation_window: 50,          // propagation window k
//!     site_stride: 4,                  // every 4th participation site
//!     max_dfi_per_object: Some(5_000), // cap deterministic fault injections
//!     ..Default::default()
//! };
//! let registry = moard_workloads::builtin_registry();
//! let report = Runner::default().analyze("mm", &["C".into()], &config, true, registry)?;
//! println!("aDVF(C in MM) = {:.4}", report.reports[0].advf());
//! println!("{}", report.to_json_string());
//! # Ok::<(), moard_core::MoardError>(())
//! ```
//!
//! ## Many workloads: the study driver
//!
//! The paper's evaluation is a *campaign*: every Table I workload × its
//! target data objects × a grid of model parameters.  [`sweep::StudySpec`]
//! declares such a study and [`Runner::sweep`] executes it — scheduling
//! the expanded task matrix across the worker pool one *task* (not one
//! workload) at a time, persisting every completed task to an on-disk
//! [`store::ResultStore`], and folding the results into one versioned
//! [`moard_core::StudyReport`].  A killed sweep resumes with cache hits and
//! produces a byte-identical report:
//!
//! ```no_run
//! use moard_inject::{ResultStore, Runner, StudySpec, WorkloadSelector};
//!
//! let spec = StudySpec::default()
//!     .workloads(WorkloadSelector::All) // Table I + case studies
//!     .strides(vec![4])
//!     .max_dfis(vec![Some(5_000)])
//!     .rfi_leg(vec![500, 1_000], 0xF1F1); // Fig. 7 validation leg
//! let runner = Runner {
//!     store: Some(ResultStore::open("sweep-store")?), // persist completed tasks…
//!     resume: true,                                   // …and reuse anything already there
//!     ..Runner::default()
//! };
//! let (report, _stats) = runner.sweep(&spec, moard_workloads::builtin_registry())?;
//! for workload in report.workloads() {
//!     for object in report.objects_of(workload) {
//!         let cell = report.entry(workload, object).unwrap();
//!         println!("{workload:8} {object:14} aDVF = {:.4}", cell.advf.advf());
//!     }
//! }
//! # Ok::<(), moard_core::MoardError>(())
//! ```
//!
//! ## Validating the model: the validation engine
//!
//! [`validate::ValidationSpec`] / [`Runner::validate`] are the
//! statistically rigorous version of the paper's §V-B comparison: for every
//! selected (workload, object) cell, an **adaptive** random-fault-injection
//! campaign — trials drawn in shard-indexed RNG streams, folded in shard
//! order (bit-identical across thread counts), stopping once the Wilson
//! interval is narrower than a target margin or a trial cap is reached —
//! tested against the cell's aDVF prediction, with per-cell agree/disagree
//! verdicts and per-workload rank correlations in the produced
//! [`moard_core::ValidationReport`].  Both legs of every cell cache in the
//! same [`store::ResultStore`], so killed campaigns resume byte-identically.
//!
//! One [`Runner`] carries the execution settings of analyses, sweeps,
//! validation campaigns and minimizations ([`Runner::minimize`]): worker
//! count, result store and resume flag, cancel token, and warm-harness
//! cache.
//!
//! Expanding a spec is cheap (no module is built, no trace recorded), so the
//! task matrix can be inspected up front:
//!
//! ```
//! use moard_inject::{StudySpec, WorkloadSelector};
//!
//! let spec = StudySpec::default()
//!     .workloads(WorkloadSelector::Named(vec!["mm".into()]))
//!     .windows(vec![20, 50]);
//! let tasks = spec.expand(moard_workloads::builtin_registry())?;
//! assert_eq!(tasks.len(), 2); // MM's one target object × two windows
//! assert!(tasks.iter().all(|t| t.workload == "MM" && t.object == "C"));
//! # Ok::<(), moard_core::MoardError>(())
//! ```
//!
//! Every fallible entry point returns `Result<_, `[`MoardError`]`>`.

pub mod campaign;
pub mod cancel;
pub mod exhaustive;
pub mod harness;
pub mod injector;
pub mod minimize;
pub mod random;
pub mod runner;
pub mod session;
pub mod stats;
pub mod store;
pub mod sweep;
pub mod validate;

pub use campaign::{run_campaign, run_campaign_stats, Parallelism};
pub use cancel::CancelToken;
pub use exhaustive::{enumerate_faults, run_exhaustive, ExhaustiveConfig};
pub use harness::{HarnessCache, WorkloadHarness};
pub use injector::DeterministicInjector;
pub use minimize::{
    ddmin, emit_validation_scenarios, load_scenario, load_scenario_dir, minimize, replay_scenario,
    write_scenario, EmitOutcome, EmittedScenario, MinimizeReport, MinimizeSpec, ScenarioReplay,
};
pub use moard_core::MoardError;
pub use random::{run_rfi, sample_faults, sample_shard, shard_seed, PatternSampler, RfiConfig};
pub use runner::Runner;
pub use session::SessionReport;
pub use stats::{required_sample_size, z_value, CampaignStats};
pub use store::{ResultStore, StoreEntry};
pub use sweep::{
    ObjectSelector, RfiLeg, StudySpec, StudyTask, StudyTaskKind, SweepStats, WorkloadSelector,
};
pub use validate::{ValidationCellSpec, ValidationSpec, ValidationStats};
