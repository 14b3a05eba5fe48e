//! Cross-crate integration tests: the full pipeline from workload to aDVF
//! report through `Runner::analyze`, checked against the behaviour the
//! paper reports.

use moard::inject::{Runner, SessionReport};
use moard::model::AnalysisConfig;

/// `objects` of `workload` (its targets when empty) at stride 12 with a
/// DFI budget of 400.
fn quick(workload: &str, objects: &[&str]) -> SessionReport {
    let config = AnalysisConfig {
        site_stride: 12,
        max_dfi_per_object: Some(400),
        ..Default::default()
    };
    let objects: Vec<String> = objects.iter().map(|o| o.to_string()).collect();
    let registry = moard::workloads::builtin_registry();
    Runner::default()
        .analyze(workload, &objects, &config, true, registry)
        .unwrap()
}

fn advf_of(workload: &str, object: &str) -> f64 {
    quick(workload, &[object]).reports[0].advf()
}

#[test]
fn advf_is_always_a_valid_fraction() {
    for name in ["cg", "lu", "mm", "pf"] {
        // No object selected: every target object is analyzed.
        let report = quick(name, &[]);
        assert!(!report.reports.is_empty());
        for r in &report.reports {
            let advf = r.advf();
            assert!(
                (0.0..=1.0).contains(&advf),
                "{name}/{}: aDVF {advf} out of [0,1]",
                r.object
            );
            assert!(
                r.sites_analyzed > 0,
                "{name}/{}: no sites analyzed",
                r.object
            );
            assert_eq!(r.config_fingerprint, report.config.fingerprint());
        }
    }
}

#[test]
fn fp_state_arrays_are_more_resilient_than_integer_index_arrays() {
    // Evaluation conclusion 1/3 of the paper: double-precision state arrays
    // (r in CG) tolerate far more corruption than integer index arrays
    // (colidx in CG), and grid_points in SP is among the most vulnerable.
    let r = advf_of("cg", "r");
    let colidx = advf_of("cg", "colidx");
    assert!(
        r > colidx,
        "expected aDVF(r) > aDVF(colidx), got {r} vs {colidx}"
    );

    let rhoi = advf_of("sp", "rhoi");
    let grid_points = advf_of("sp", "grid_points");
    assert!(
        rhoi > grid_points,
        "expected aDVF(rhoi) > aDVF(grid_points), got {rhoi} vs {grid_points}"
    );
}

#[test]
fn analysis_is_deterministic() {
    // Evaluation conclusion 4: unlike RFI, the aDVF calculation is
    // deterministic — two runs produce the same number, bit for bit.
    let a = quick("lulesh", &["m_elemBC"]);
    let b = quick("lulesh", &["m_elemBC"]);
    assert_eq!(a, b);
    assert_eq!(a.reports[0].advf().to_bits(), b.reports[0].advf().to_bits());
}

#[test]
fn masking_event_counts_alone_are_misleading() {
    // Evaluation conclusion 2: comparing raw masking-event counts between
    // objects says little; the aDVF ratio is what ranks them correctly.
    let report = quick("cg", &["r", "colidx"]);
    let r = report.report_for("r").unwrap();
    let colidx = report.report_for("colidx").unwrap();
    // colidx participates in plenty of operations (it is read every matvec),
    // so it can accumulate a comparable number of masking events...
    assert!(colidx.masking_events() > 0.0);
    // ...while still being far more vulnerable per participation.
    assert!(colidx.advf() < r.advf());
}
