//! # moard-bench
//!
//! Shared plumbing for the table/figure binaries and the Criterion benches.
//!
//! Every table and figure of the paper's evaluation (§V and §VI) has a
//! dedicated binary in `src/bin/` that regenerates the corresponding rows or
//! series; see `EXPERIMENTS.md` at the repository root for the index and for
//! paper-vs-measured comparisons.  All binaries accept `--quick` to trade
//! site coverage for runtime (deterministic striding), and `--full` for the
//! exhaustive settings.

pub mod micro;
pub mod smoke;

use moard_core::{AdvfReport, AnalysisConfig, MoardError};
use moard_inject::{Runner, SessionReport, WorkloadHarness};

/// Effort level selected on the command line of a figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Stride over participation sites and cap DFI so a full figure
    /// regenerates in minutes on a laptop.
    Quick,
    /// Analyze every participation site with unbounded DFI (closest to the
    /// paper's cluster campaign).
    Full,
}

impl Effort {
    /// Parse the effort level from process arguments (`--quick` is the
    /// default, `--full` selects exhaustive settings).
    pub fn from_args() -> Effort {
        if std::env::args().any(|a| a == "--full") {
            Effort::Full
        } else {
            Effort::Quick
        }
    }

    /// The analysis configuration for this effort level.
    pub fn analysis_config(self) -> AnalysisConfig {
        match self {
            Effort::Quick => AnalysisConfig {
                site_stride: 8,
                max_dfi_per_object: Some(25_000),
                ..Default::default()
            },
            Effort::Full => AnalysisConfig::default(),
        }
    }

    /// Budget of injections for exhaustive-validation campaigns.
    pub fn exhaustive_budget(self) -> u64 {
        match self {
            Effort::Quick => 2_000,
            Effort::Full => 200_000,
        }
    }
}

/// Workload names whose explicit mention on the command line restricts a
/// figure binary to a subset (e.g. `fig4_advf_breakdown cg lu`).
pub fn workload_filter() -> Vec<String> {
    std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_ascii_lowercase())
        .collect()
}

/// True if the workload should be included given the filter.
pub fn included(filter: &[String], name: &str) -> bool {
    filter.is_empty() || filter.iter().any(|f| f == &name.to_ascii_lowercase())
}

/// Print the standard header of a figure binary.
pub fn print_header(figure: &str, description: &str, effort: Effort) {
    println!("# MOARD reproduction — {figure}");
    println!("# {description}");
    println!("# effort: {effort:?} (pass --full for exhaustive settings)");
    println!();
}

/// Render one aDVF report row with the three-level breakdown (Fig. 4 style).
pub fn level_row(report: &AdvfReport) -> String {
    let (op, prop, alg) = report.accumulator.level_breakdown();
    format!(
        "{:<8} {:<14} {:>8.4} {:>10.4} {:>12.4} {:>10.4} {:>10} {:>8}",
        report.workload,
        report.object,
        report.advf(),
        op,
        prop,
        alg,
        report.sites_analyzed,
        report.dfi_runs
    )
}

/// Header matching [`level_row`].
pub fn level_header() -> String {
    format!(
        "{:<8} {:<14} {:>8} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "workload", "object", "aDVF", "op-level", "propagation", "algorithm", "sites", "dfi"
    )
}

/// Render one aDVF report row with the operation-kind breakdown (Fig. 5 style).
pub fn kind_row(report: &AdvfReport) -> String {
    let (overwriting, overshadowing, logic) = report.accumulator.kind_breakdown();
    format!(
        "{:<8} {:<14} {:>8.4} {:>12.4} {:>14.4} {:>10.4}",
        report.workload,
        report.object,
        report.advf(),
        overwriting,
        overshadowing,
        logic
    )
}

/// Header matching [`kind_row`].
pub fn kind_header() -> String {
    format!(
        "{:<8} {:<14} {:>8} {:>12} {:>14} {:>10}",
        "workload", "object", "aDVF", "overwriting", "overshadowing", "logic&cmp"
    )
}

/// Analyze every target data object of a named built-in workload (the
/// objects run as parallel tasks).
pub fn analyze_workload(name: &str, effort: Effort) -> Result<SessionReport, MoardError> {
    let registry = moard_workloads::builtin_registry();
    Runner::default().analyze(name, &[], &effort.analysis_config(), true, registry)
}

/// Prepare a harness by name, or print the typed error and exit — the
/// figure binaries' graceful replacement for `.expect(..)`.
pub fn harness_or_exit(name: &str) -> WorkloadHarness {
    unwrap_or_exit(WorkloadHarness::by_name(name))
}

/// Unwrap a pipeline result, or print the typed error and exit(1).
pub fn unwrap_or_exit<T>(result: Result<T, MoardError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_configs_differ() {
        let quick = Effort::Quick.analysis_config();
        let full = Effort::Full.analysis_config();
        assert!(quick.site_stride > full.site_stride);
        assert!(quick.max_dfi_per_object.is_some());
        assert!(full.max_dfi_per_object.is_none());
        assert!(Effort::Quick.exhaustive_budget() < Effort::Full.exhaustive_budget());
    }

    #[test]
    fn filter_logic() {
        assert!(included(&[], "CG"));
        assert!(included(&["cg".into()], "CG"));
        assert!(!included(&["lu".into()], "CG"));
    }

    #[test]
    fn row_rendering_contains_fields() {
        let mut acc = moard_core::AdvfAccumulator::new();
        acc.add_participation(&[(
            moard_core::Masking::Operation(moard_core::OpMaskKind::Overwriting),
            1.0,
        )]);
        let report = AdvfReport {
            object: "r".into(),
            workload: "CG".into(),
            accumulator: acc,
            sites_analyzed: 1,
            dfi_runs: 0,
            dfi_cache_hits: 0,
            resolved_analytically: 1,
            dfi_budget_exhausted: false,
            patterns: "single-bit".into(),
            pattern_tallies: vec![],
            config_fingerprint: 0,
        };
        assert!(level_row(&report).contains("CG"));
        assert!(kind_row(&report).contains("1.0000"));
        assert!(level_header().contains("propagation"));
        assert!(kind_header().contains("overshadowing"));
    }
}
