//! # moard-core
//!
//! The analytical heart of the MOARD reproduction: modeling application
//! resilience to transient faults on data objects with the **aDVF** metric
//! (application-level Data Vulnerability Factor).
//!
//! Given a dynamic trace produced by `moard-vm`, this crate answers, for a
//! chosen data object: *for each operation consuming elements of this object,
//! if an element held a corrupted bit, would the application outcome remain
//! correct?*  Masking events are recognized at three levels (paper §III):
//!
//! * **operation level** ([`op_rules`]) — value overwriting, logic and
//!   comparison insensitivity, value overshadowing;
//! * **error propagation level** ([`propagation`]) — bounded shadow replay of
//!   the trace with the corrupted values substituted;
//! * **algorithm level** ([`resolver`]) — deterministic fault injection with
//!   outcome acceptance supplied by the workload, memoized by error
//!   equivalence.
//!
//! [`analysis::AdvfAnalyzer`] orchestrates the pipeline and accumulates
//! Equation 1 into per-class breakdowns ([`advf::AdvfReport`]) that directly
//! regenerate Figures 4, 5, 8 and 9 of the paper.
//!
//! ```
//! use moard_ir::prelude::*;
//! use moard_vm::{run_traced, Vm};
//! use moard_core::{AdvfAnalyzer, AnalysisConfig};
//!
//! // A tiny kernel: out[0] = 0; out[0] = out[0] + data[0];
//! let mut m = Module::new("mini");
//! let data = m.add_global(Global::from_f64("data", &[5.0]));
//! let out = m.add_global(Global::zeroed("out", Type::F64, 1));
//! let mut f = FunctionBuilder::new("main", &[], None);
//! f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::const_f64(0.0));
//! let d = f.load_elem(Type::F64, data, Operand::const_i64(0));
//! let o = f.load_elem(Type::F64, out, Operand::const_i64(0));
//! let s = f.fadd(Operand::Reg(o), Operand::Reg(d));
//! f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(s));
//! f.ret(None);
//! m.add_function(f.finish());
//!
//! let (_golden, trace) = run_traced(&m).unwrap();
//! let vm = Vm::with_defaults(&m).unwrap();
//! let obj = vm.objects().by_name("out").unwrap().id;
//! let config = AnalysisConfig::default();
//! config.validate()?;
//! let analyzer = AdvfAnalyzer::new(&trace, config);
//! let report = analyzer.analyze(obj, "out", "mini", None);
//! assert!(report.advf() > 0.0 && report.advf() <= 1.0);
//!
//! // Reports serialize to a versioned JSON schema and round-trip bit-exactly.
//! let text = report.to_json_string();
//! let back = moard_core::AdvfReport::from_json_str(&text)?;
//! assert_eq!(back.advf().to_bits(), report.advf().to_bits());
//! # Ok::<(), moard_core::MoardError>(())
//! ```
//!
//! The one call over this pipeline (workload lookup, tracing,
//! deterministic injection, parallel multi-object analysis) is
//! `moard_inject::Runner::analyze`; every fallible entry point across both
//! crates returns `Result<_, `[`MoardError`]`>`.

// The one-fault reference replay the propagation tests share with the
// integration tests (`tests/reference/mod.rs`) names this crate as they do.
#[cfg(test)]
extern crate self as moard_core;

pub mod advf;
pub mod analysis;
pub mod error;
pub mod error_pattern;
pub mod masking;
pub mod op_rules;
pub mod parallel;
pub mod propagation;
pub mod report;
pub mod resolver;
pub mod scenario;
pub mod sites;
pub mod stats;

pub use advf::{
    merge_pattern_tallies, AdvfAccumulator, AdvfReport, MaskingTally, PatternClassTally,
};
pub use analysis::{AdvfAnalyzer, AnalysisConfig};
pub use error::MoardError;
pub use error_pattern::{ErrorPattern, ErrorPatternSet};
pub use masking::{Masking, OpMaskKind};
pub use op_rules::{analyze_operation, analyze_site, CorruptLoc, CorruptSeeds, OpVerdict};
pub use parallel::{available_workers, run_indexed};
pub use propagation::{
    BatchLane, BatchReplayCursor, PropagationResult, ReplayCursor, SamePathEnd, UnresolvedReason,
    MAX_REPLAY_LANES,
};
pub use report::{
    check_schema_version, fingerprint_hex, fnv1a, parse_fingerprint, trace_stats_to_json,
    CellVerdict, RfiCampaign, RfiEntry, RfiSummary, StudyEntry, StudyReport, ValidationCell,
    ValidationReport, WorkloadRank, SCHEMA_VERSION,
};
pub use resolver::{DfiResolver, EquivalenceCache, EquivalenceKey, ResolverStats};
pub use scenario::{
    ScenarioFragment, ScenarioSite, ScenarioSpec, SCENARIO_KIND, SCENARIO_SCHEMA_VERSION,
};
pub use sites::{
    count_fault_sites, enumerate_sites, enumerate_strided_sites, has_sites, sites_by_record,
    ParticipationSite, SiteSlot,
};
pub use stats::{
    required_sample_size, supported_confidence, wilson_bounds, wilson_margin, z_value,
};
