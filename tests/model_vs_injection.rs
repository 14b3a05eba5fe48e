//! Model-validation conformance suite (paper §V-B), driven by the
//! validation engine: every Table I (workload, object) cell runs an
//! adaptive, site-matched random-fault-injection campaign against its aDVF
//! prediction and must **agree** — the prediction lies inside the
//! tolerance-widened Wilson interval, or honestly below it when the
//! deterministic-injection budget truncated the model (aDVF is then a
//! documented lower bound).  Within each workload, wherever two campaigns
//! statistically separate a pair of objects, the model must order that pair
//! the same way (positive rank correlation).
//!
//! The campaign is seeded and shard-deterministic, so these assertions pin
//! exact behavior: a model change that drifts outside today's deviation
//! envelope fails loudly rather than silently eroding §V-B.

use moard::inject::{Runner, ValidationSpec, WorkloadSelector};
use moard::model::{CellVerdict, ValidationReport};
use std::sync::OnceLock;

/// The suite's campaign: all eight Table I workloads and their sixteen
/// target data objects, with a tier-1-sized budget.  Stride 48 keeps both
/// legs on the same small site population; the 600-injection DFI cap leaves
/// the cheap cells fully resolved (their predictions are two-sided claims)
/// while the expensive ones degrade to honest lower bounds.
fn table1_spec() -> ValidationSpec {
    ValidationSpec::default()
        .workloads(WorkloadSelector::Table1)
        .stride(48)
        .max_dfi(600)
        .target_margin(0.1)
        .max_trials(128)
}

/// The campaign is deterministic, so both tests share one run.
fn table1_report() -> &'static ValidationReport {
    static REPORT: OnceLock<ValidationReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        Runner::default()
            .validate(&table1_spec(), moard::workloads::builtin_registry())
            .unwrap()
            .0
    })
}

#[test]
fn every_table1_cell_agrees_with_injection() {
    let report = table1_report();

    // The campaign covers the full Table I matrix: eight workloads, two
    // target objects each.
    assert_eq!(report.cells.len(), 16);
    assert_eq!(
        report.workloads(),
        vec!["CG", "MG", "FT", "BT", "SP", "LU", "LULESH", "AMG"]
    );

    for cell in &report.cells {
        // Wilson interval bounds never leave the unit interval, bracket the
        // observed rate, and the campaign respected its cap.
        let (low, high) = cell.rfi.wilson_bounds(report.confidence);
        assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
        assert!(low <= cell.rfi.success_rate() && cell.rfi.success_rate() <= high);
        assert!(cell.rfi.trials() > 0 && cell.rfi.trials() <= 128);

        // The cell agrees: inside the widened interval, or a truncated
        // lower bound below it.  `model-optimistic` (claiming masking that
        // injection refutes beyond tolerance) is a conformance failure.
        assert!(
            report.agrees(cell),
            "{}/{}: aDVF {:.3} vs RFI {:.3} in [{:.3}, {:.3}] → {} (truncated: {})",
            cell.workload,
            cell.object,
            cell.advf.advf(),
            cell.rfi.success_rate(),
            low,
            high,
            report.verdict(cell).as_str(),
            report.model_truncated(cell),
        );
        // A non-truncated prediction is a two-sided claim; it must not sit
        // below the interval either.
        if !report.model_truncated(cell) {
            assert_eq!(
                report.verdict(cell),
                CellVerdict::Agree,
                "{}/{} is fully resolved yet outside the interval",
                cell.workload,
                cell.object
            );
        }
    }
    assert_eq!(report.agreed(), 16);
}

#[test]
fn table1_object_orderings_match_injection() {
    let report = table1_report();

    // Wherever the campaigns statistically separate a workload's objects,
    // the model must rank them the same way.
    let mut workloads_with_resolved_pairs = 0;
    for rank in report.ranks() {
        if let Some(tau) = rank.correlation() {
            workloads_with_resolved_pairs += 1;
            assert!(
                tau > 0.0,
                "{}: rank correlation {tau:+.2} ({} concordant / {} discordant)",
                rank.workload,
                rank.concordant,
                rank.discordant
            );
        }
    }
    // The budget is small, but it must still separate most of Table I —
    // an engine change that stops resolving pairs would hollow the suite.
    assert!(
        workloads_with_resolved_pairs >= 5,
        "only {workloads_with_resolved_pairs} workloads had a resolved pair"
    );
}
