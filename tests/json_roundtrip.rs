//! JSON round-trip and parallel-determinism acceptance tests: a serialized
//! `AdvfReport`/`SessionReport` deserializes back bit-exactly (aDVF value,
//! breakdowns, schema version), and parallel multi-object analysis produces
//! reports bit-identical to a sequential run.

use moard::inject::{ObjectSelector, WorkloadSelector};
use moard::inject::{Parallelism, Runner, SessionReport, ValidationSpec};
use moard::json::Json;
use moard::model::{AdvfReport, AnalysisConfig, ValidationReport, SCHEMA_VERSION};

/// The target objects of `workload` under `stride` and a DFI budget of
/// `max_dfi`, analyzed with `parallelism`.
fn analyze(workload: &str, stride: usize, max_dfi: u64, parallelism: Parallelism) -> SessionReport {
    let config = AnalysisConfig {
        site_stride: stride,
        max_dfi_per_object: Some(max_dfi),
        ..Default::default()
    };
    let runner = Runner {
        parallelism,
        ..Runner::default()
    };
    runner
        .analyze(
            workload,
            &[],
            &config,
            true,
            moard::workloads::builtin_registry(),
        )
        .unwrap()
}

#[test]
fn advf_report_round_trips_bit_exactly() {
    let report = &analyze("mm", 16, 150, Parallelism::Sequential).reports[0];
    let text = report.to_json_string();
    let back = AdvfReport::from_json_str(&text).unwrap();

    // Struct equality covers every field (f64 equality in Rust is bitwise
    // for these finite tallies)…
    assert_eq!(&back, report);
    // …and the headline quantities are explicitly bit-exact.
    assert_eq!(back.advf().to_bits(), report.advf().to_bits());
    let (op_a, prop_a, alg_a) = report.accumulator.level_breakdown();
    let (op_b, prop_b, alg_b) = back.accumulator.level_breakdown();
    assert_eq!(op_a.to_bits(), op_b.to_bits());
    assert_eq!(prop_a.to_bits(), prop_b.to_bits());
    assert_eq!(alg_a.to_bits(), alg_b.to_bits());
    let (ow_a, os_a, lc_a) = report.accumulator.kind_breakdown();
    let (ow_b, os_b, lc_b) = back.accumulator.kind_breakdown();
    assert_eq!(ow_a.to_bits(), ow_b.to_bits());
    assert_eq!(os_a.to_bits(), os_b.to_bits());
    assert_eq!(lc_a.to_bits(), lc_b.to_bits());
    assert_eq!(back.config_fingerprint, report.config_fingerprint);

    // The schema version survives and is the one this build writes.
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.u32_field("schema_version").unwrap(), SCHEMA_VERSION);

    // A second serialization is byte-identical (deterministic output).
    assert_eq!(back.to_json_string(), text);
}

#[test]
fn session_report_round_trips_through_pretty_and_compact_forms() {
    let report = analyze("mm", 16, 150, Parallelism::Sequential);
    let compact = report.to_json_string();
    let pretty = report.to_json().to_pretty();
    assert_eq!(SessionReport::from_json_str(&compact).unwrap(), report);
    assert_eq!(SessionReport::from_json_str(&pretty).unwrap(), report);
}

#[test]
fn parallel_analysis_is_bit_identical_to_sequential() {
    let seq = analyze("mm", 16, 150, Parallelism::Sequential);
    let par = analyze("mm", 16, 150, Parallelism::Auto);
    assert_eq!(seq, par);
    assert_eq!(seq.to_json_string(), par.to_json_string());

    // Multi-object workload: CG has two targets analyzed concurrently.
    let cg_seq = analyze("cg", 24, 100, Parallelism::Sequential);
    let cg_par = analyze("cg", 24, 100, Parallelism::Fixed(4));
    assert!(cg_seq.reports.len() >= 2);
    assert_eq!(cg_seq, cg_par);
    assert_eq!(cg_seq.to_json_string(), cg_par.to_json_string());
}

#[test]
fn validation_report_round_trips_bit_exactly() {
    let spec = ValidationSpec::default()
        .workloads(WorkloadSelector::Named(vec!["mm".into()]))
        .objects(ObjectSelector::Named(vec!["C".into()]))
        .stride(32)
        .max_dfi(100)
        .target_margin(0.15)
        .max_trials(48)
        .shards(16, 2)
        .seed(11);
    let (report, _) = Runner::default()
        .validate(&spec, moard::workloads::builtin_registry())
        .unwrap();

    // Compact and pretty forms both parse back to the exact report…
    let compact = report.to_json_string();
    let pretty = report.to_json().to_pretty();
    let back = ValidationReport::from_json_str(&compact).unwrap();
    assert_eq!(back, report);
    assert_eq!(ValidationReport::from_json_str(&pretty).unwrap(), report);
    // …re-serialization is byte-identical…
    assert_eq!(back.to_json_string(), compact);
    // …and the derived quantities are recomputed bit-exactly, not trusted.
    let cell = &back.cells[0];
    assert_eq!(
        cell.advf.advf().to_bits(),
        report.cells[0].advf.advf().to_bits()
    );
    assert_eq!(
        cell.rfi.success_rate().to_bits(),
        report.cells[0].rfi.success_rate().to_bits()
    );
    assert_eq!(back.verdict(cell), report.verdict(&report.cells[0]));

    // A tampered schema version is rejected.
    let bad = compact.replacen(
        &format!("\"schema_version\":{SCHEMA_VERSION}"),
        "\"schema_version\":77",
        1,
    );
    assert!(matches!(
        ValidationReport::from_json_str(&bad),
        Err(moard::model::MoardError::SchemaMismatch {
            found: 77,
            expected: SCHEMA_VERSION
        })
    ));
}

#[test]
fn a_tampered_schema_version_is_rejected() {
    let report = analyze("mm", 16, 150, Parallelism::Sequential);
    let bad = report.to_json_string().replacen(
        &format!("\"schema_version\":{SCHEMA_VERSION}"),
        "\"schema_version\":42",
        1,
    );
    assert!(matches!(
        SessionReport::from_json_str(&bad),
        Err(moard::model::MoardError::SchemaMismatch {
            found: 42,
            expected: SCHEMA_VERSION
        })
    ));
}
