//! # moard
//!
//! Umbrella crate of the MOARD reproduction ("MOARD: Modeling Application
//! Resilience to Transient Faults on Data Objects", Guo & Li, IPDPS 2019).
//!
//! It re-exports the component crates behind one dependency:
//!
//! * [`ir`] — the LLVM-like IR the workloads are written in;
//! * [`vm`] — the tracing interpreter and deterministic fault injector;
//! * [`model`] — the aDVF model (error-masking classification, propagation
//!   replay, equivalence-cached DFI resolution, Equation 1) plus the
//!   [`model::MoardError`] type and the versioned JSON report schema;
//! * [`inject`] — exhaustive / random campaigns, the
//!   [`inject::WorkloadHarness`], and the [`inject::Runner`] that runs
//!   analyses and studies;
//! * [`workloads`] — the Table I benchmarks, the MM and PF case studies,
//!   and the extensible [`workloads::WorkloadRegistry`];
//! * [`abft`] — the checksum-protected case-study variants.
//!
//! One workload is analyzed with [`inject::Runner::analyze`]:
//!
//! ```no_run
//! use moard::inject::Runner;
//! use moard::model::AnalysisConfig;
//!
//! let config = AnalysisConfig {
//!     propagation_window: 50,
//!     site_stride: 4,
//!     max_dfi_per_object: Some(5_000),
//!     ..Default::default()
//! };
//! let registry = moard::full_registry();
//! let report = Runner::default().analyze("mm", &["C".into()], &config, true, &registry)?;
//! println!("aDVF(C in MM) = {:.3}", report.reports[0].advf());
//!
//! // Reports serialize to a stable, versioned JSON schema…
//! let text = report.to_json_string();
//! // …and round-trip losslessly.
//! let back = moard::inject::SessionReport::from_json_str(&text)?;
//! assert_eq!(back, report);
//! # Ok::<(), moard::model::MoardError>(())
//! ```
//!
//! For the full multi-workload campaign — the paper's Table I / Fig. 4 /
//! Fig. 7 evaluation as one resumable parameter sweep — see the study
//! driver ([`inject::StudySpec`] / [`inject::Runner::sweep`]) and the
//! repository's `docs/ARCHITECTURE.md`.

pub use moard_abft as abft;
pub use moard_core as model;
pub use moard_inject as inject;
pub use moard_ir as ir;
pub use moard_json as json;
pub use moard_vm as vm;
pub use moard_workloads as workloads;

/// A workload registry holding everything this repository ships: the Table I
/// benchmarks, the MM/PF case studies, and the ABFT variants.
pub fn full_registry() -> workloads::Registry {
    abft::registry_with_abft()
}
