//! Every fallible path of the public analysis entry points returns a typed
//! `MoardError` — no panics, no bare `Option`s (the api_redesign acceptance
//! checklist).

use moard::inject::{Runner, SessionReport, WorkloadHarness};
use moard::ir::prelude::*;
use moard::model::{AnalysisConfig, MoardError};
use moard::workloads::{Acceptance, Workload};

/// A tiny workload with a data object (`unused`) that no operation ever
/// touches — its aDVF is undefined (zero participation sites).
#[derive(Debug, Clone, Copy, Default)]
struct WithUnusedObject;

impl Workload for WithUnusedObject {
    fn name(&self) -> &'static str {
        "UNUSED-OBJ"
    }

    fn description(&self) -> &'static str {
        "test workload with an untouched data object"
    }

    fn code_segment(&self) -> &'static str {
        "main"
    }

    fn build(&self) -> Module {
        let mut m = Module::new("unused_obj");
        let data = m.add_global(Global::from_f64("data", &[1.0, 2.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        m.add_global(Global::from_f64("unused", &[7.0; 4]));
        let mut f = FunctionBuilder::new("main", &[], None);
        let a = f.load_elem(Type::F64, data, Operand::const_i64(0));
        let b = f.load_elem(Type::F64, data, Operand::const_i64(1));
        let s = f.fadd(Operand::Reg(a), Operand::Reg(b));
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(s));
        f.ret(None);
        m.add_function(f.finish());
        m
    }

    fn target_objects(&self) -> Vec<&'static str> {
        vec!["data"]
    }

    fn output_objects(&self) -> Vec<&'static str> {
        vec!["out"]
    }

    fn acceptance(&self) -> Acceptance {
        Acceptance::MaxRelDiff(1e-9)
    }
}

/// `objects` of a built-in workload through `Runner::analyze`.
fn analyze(
    workload: &str,
    objects: &[&str],
    config: &AnalysisConfig,
) -> Result<SessionReport, MoardError> {
    let objects: Vec<String> = objects.iter().map(|o| o.to_string()).collect();
    let registry = moard::workloads::builtin_registry();
    Runner::default().analyze(workload, &objects, config, true, registry)
}

fn quick() -> AnalysisConfig {
    AnalysisConfig {
        site_stride: 16,
        max_dfi_per_object: Some(50),
        ..Default::default()
    }
}

#[test]
fn unknown_workload_is_a_typed_error_with_suggestions() {
    match analyze("warp-core", &[], &quick()) {
        Err(MoardError::UnknownWorkload { name, available }) => {
            assert_eq!(name, "warp-core");
            assert!(available.contains(&"CG".to_string()));
            assert!(available.contains(&"MM".to_string()));
        }
        _ => panic!("expected UnknownWorkload"),
    }
    // The harness entry point agrees.
    assert!(matches!(
        WorkloadHarness::by_name("warp-core"),
        Err(MoardError::UnknownWorkload { .. })
    ));
}

#[test]
fn unknown_object_is_a_typed_error_with_suggestions() {
    let err = analyze("mm", &["D"], &quick()).unwrap_err();
    match err {
        MoardError::UnknownObject {
            workload,
            object,
            available,
        } => {
            assert_eq!(workload, "MM");
            assert_eq!(object, "D");
            assert!(available.contains(&"C".to_string()));
        }
        other => panic!("expected UnknownObject, got {other}"),
    }
}

#[test]
fn zero_site_object_is_a_typed_error() {
    let harness = WorkloadHarness::new(Box::new(WithUnusedObject)).unwrap();
    match harness.analyze("unused", AnalysisConfig::default(), true) {
        Err(MoardError::NoParticipationSites { workload, object }) => {
            assert_eq!(workload, "UNUSED-OBJ");
            assert_eq!(object, "unused");
        }
        other => panic!("expected NoParticipationSites, got {other:?}"),
    }
    // An object with sites still analyzes fine in the same workload.
    assert!(harness
        .analyze("data", AnalysisConfig::default(), true)
        .is_ok());
}

#[test]
fn zero_stride_is_an_invalid_config_error_everywhere() {
    // Through `Runner::analyze`…
    let config = AnalysisConfig {
        site_stride: 0,
        ..Default::default()
    };
    let err = analyze("mm", &[], &config).unwrap_err();
    assert!(matches!(err, MoardError::InvalidConfig(_)), "got {err}");
    // …and through the raw config validation.
    assert!(matches!(
        config.validate(),
        Err(MoardError::InvalidConfig(_))
    ));
    // A zero DFI budget is a config error too, not a silent no-op.
    let config = AnalysisConfig {
        max_dfi_per_object: Some(0),
        ..Default::default()
    };
    assert!(config.validate().is_err());
    // Explicit pattern sets that enumerate nothing are rejected as well:
    // they would count every site as trivially masked and have no faithful
    // canonical form for the config fingerprint.
    use moard::model::{ErrorPattern, ErrorPatternSet};
    for patterns in [vec![], vec![ErrorPattern { bits: vec![] }]] {
        let config = AnalysisConfig {
            patterns: ErrorPatternSet::Explicit(patterns),
            ..Default::default()
        };
        assert!(matches!(
            config.validate(),
            Err(MoardError::InvalidConfig(_))
        ));
    }
}

#[test]
fn errors_render_actionable_messages() {
    let Err(err) = analyze("warp-core", &[], &quick()) else {
        panic!("expected an error for an unknown workload");
    };
    let msg = err.to_string();
    assert!(msg.contains("warp-core") && msg.contains("CG"), "{msg}");
    let Err(err) = analyze("mm", &["D"], &quick()) else {
        panic!("expected an error for an unknown object");
    };
    assert!(err.to_string().contains("`D`"));
}
