//! Golden-report pinning for the trace engine and the validation engine.
//!
//! Each golden file under `tests/golden/` is a pretty-printed report of a
//! fixed workload/configuration pair: the [`SessionReport`]s pin the
//! indexed trace engine against the flat-scan engine it replaced, and the
//! [`ValidationReport`]s (`validate_mm`, `validate_pf`) pin the validation
//! engine's shard-deterministic campaigns.  The current code must reproduce
//! every document **byte for byte** — same masking tallies, same DFI
//! counts, same campaign tallies and shard counts, same fingerprints — so
//! any semantic drift in indexing, site enumeration, replay, RNG streams,
//! or the adaptive stopping rule fails loudly in CI.
//!
//! To regenerate after an *intentional* schema or model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use moard_core::{AnalysisConfig, ErrorPatternSet, ValidationReport};
use moard_inject::{Runner, SessionReport, ValidationSpec, WorkloadSelector};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn render(report: &SessionReport) -> String {
    report.to_json().to_pretty() + "\n"
}

/// The target objects of `workload` at window 50 under `stride`, a DFI
/// budget of `max_dfi` and `patterns`.
fn check_golden(
    name: &str,
    workload: &str,
    stride: usize,
    max_dfi: u64,
    patterns: ErrorPatternSet,
) {
    let config = AnalysisConfig {
        propagation_window: 50,
        site_stride: stride,
        max_dfi_per_object: Some(max_dfi),
        patterns,
    };
    let report = Runner::default()
        .analyze(
            workload,
            &[],
            &config,
            true,
            moard_workloads::builtin_registry(),
        )
        .expect("analysis runs");
    let text = render(&report);
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &text).expect("golden written");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        text, golden,
        "SessionReport for `{name}` is no longer bit-identical to the golden \
         report; if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
    // The golden document must also round-trip through the parser.
    let back = SessionReport::from_json_str(&golden).expect("golden parses");
    assert_eq!(back, report);
}

#[test]
fn mm_session_report_is_bit_identical_to_golden() {
    check_golden("mm", "mm", 16, 150, ErrorPatternSet::SingleBit);
}

#[test]
fn pf_session_report_is_bit_identical_to_golden() {
    check_golden("pf", "pf", 16, 150, ErrorPatternSet::SingleBit);
}

#[test]
fn cg_session_report_is_bit_identical_to_golden() {
    check_golden("cg", "cg", 24, 100, ErrorPatternSet::SingleBit);
}

#[test]
fn mm_multibit_session_report_is_bit_identical_to_golden() {
    // The multi-bit engine pinned end to end: adjacent double-bit bursts
    // through enumeration, mask-keyed equivalence, one-XOR injection, and
    // the per-pattern-class tallies of the v2 schema.
    check_golden(
        "mm_adjacent2",
        "mm",
        16,
        150,
        ErrorPatternSet::AdjacentBits { width: 2 },
    );
}

/// A small fixed validation campaign of one named workload: adaptive
/// shard-deterministic RFI against the aDVF leg, with a budget sized for
/// CI.  Everything entering the document is a pure function of the spec.
fn validation_golden(name: &str, workload: &str) {
    let spec = ValidationSpec::default()
        .workloads(WorkloadSelector::Named(vec![workload.into()]))
        .stride(16)
        .max_dfi(200)
        .target_margin(0.12)
        .max_trials(96)
        .shards(16, 2)
        .seed(7);
    let (report, _) = Runner::default()
        .validate(&spec, moard_workloads::builtin_registry())
        .expect("campaign runs");
    let text = report.to_json().to_pretty() + "\n";
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &text).expect("golden written");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        text, golden,
        "ValidationReport for `{name}` is no longer bit-identical to the golden \
         report; if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
    // The golden document must also round-trip through the parser.
    let back = ValidationReport::from_json_str(&golden).expect("golden parses");
    assert_eq!(back, report);
}

#[test]
fn mm_validation_report_is_bit_identical_to_golden() {
    validation_golden("validate_mm", "mm");
}

#[test]
fn pf_validation_report_is_bit_identical_to_golden() {
    validation_golden("validate_pf", "pf");
}
