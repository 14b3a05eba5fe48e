//! Differential DFI parity: a planned fault whose run stays on the golden
//! path is settled from the trace instead of re-running the program, and
//! that must change no verdict.
//!
//! For every built-in workload and target object, at a CI-sized stride and
//! budget, the analysis runs with a resolver that settles each same-path
//! fault twice — rebuilt from its end state by
//! `DeterministicInjector::reconstruct` and injected by
//! `DeterministicInjector::run` — and requires the two outcomes to agree
//! bit for bit (status, steps, return bits, every global) and to get the
//! same verdict.  Faults that leave the path are injected as usual.
//!
//! ```text
//! cargo test --release --test dfi_reconstruction
//! ```

use moard::inject::{DeterministicInjector, WorkloadHarness};
use moard::model::{AdvfAnalyzer, AnalysisConfig, DfiResolver, SamePathEnd};
use moard::vm::{FaultSpec, OutcomeClass};
use moard::workloads::{builtin_registry, WorkloadRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Analyze every 16th participation site.
const STRIDE: usize = 16;
/// DFI verdicts per object.
const BUDGET: u64 = 40;

/// Injects every fault it is asked to classify; reconstructs a same-path
/// fault *and* injects it, recording any disagreement.
struct Checked<'a> {
    injector: &'a DeterministicInjector,
    injected: AtomicU64,
    reconstructed: AtomicU64,
    mismatches: Mutex<Vec<String>>,
}

impl<'a> Checked<'a> {
    fn new(injector: &'a DeterministicInjector) -> Self {
        Checked {
            injector,
            injected: AtomicU64::new(0),
            reconstructed: AtomicU64::new(0),
            mismatches: Mutex::new(Vec::new()),
        }
    }
}

impl DfiResolver for Checked<'_> {
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.injector.run_classified(fault)
    }

    fn reconstructs(&self) -> bool {
        true
    }

    fn classify_same_path(&self, fault: &FaultSpec, end: &SamePathEnd) -> Option<OutcomeClass> {
        let rebuilt = self.injector.reconstruct(end)?;
        let injected = self.injector.run(fault);
        let workload = self.injector.workload();
        let golden = self.injector.golden();
        let verdict = workload.classify(golden, &rebuilt);
        let expected = workload.classify(golden, &injected);
        if !rebuilt.bits_identical(&injected) || rebuilt.steps != injected.steps {
            self.mismatches.lock().unwrap().push(format!(
                "{fault:?}: rebuilt {} in {} steps (return {:?}), injected {} in {} steps \
                 (return {:?})",
                rebuilt.status,
                rebuilt.steps,
                rebuilt.return_value,
                injected.status,
                injected.steps,
                injected.return_value
            ));
        } else if verdict != expected {
            self.mismatches.lock().unwrap().push(format!(
                "{fault:?}: verdict {verdict} from the rebuilt outcome, {expected} injected"
            ));
        }
        self.reconstructed.fetch_add(1, Ordering::Relaxed);
        Some(verdict)
    }
}

#[test]
fn same_path_reconstruction_matches_injection_on_every_builtin_cell() {
    let config = AnalysisConfig {
        site_stride: STRIDE,
        max_dfi_per_object: Some(BUDGET),
        ..Default::default()
    };
    let mut mismatches = Vec::new();
    let mut reconstructed = 0;
    let mut cells = 0;
    for name in builtin_registry().names() {
        let harness = WorkloadHarness::by_name(name).unwrap();
        for object in harness.workload().target_objects() {
            let id = harness.object_id(object).unwrap();
            let resolver = Checked::new(harness.injector());
            let report = AdvfAnalyzer::new(harness.trace(), config.clone()).analyze(
                id,
                object,
                name,
                Some(&resolver),
            );
            let (injected, rebuilt) = (
                resolver.injected.load(Ordering::Relaxed),
                resolver.reconstructed.load(Ordering::Relaxed),
            );
            assert_eq!(
                injected + rebuilt,
                report.dfi_runs,
                "{name}/{object}: every counted DFI run is one injection or one reconstruction"
            );
            mismatches.extend(
                resolver
                    .mismatches
                    .into_inner()
                    .unwrap()
                    .into_iter()
                    .map(|m| format!("{name}/{object} {m}")),
            );
            reconstructed += rebuilt;
            cells += 1;
        }
    }
    assert_eq!(cells, 18, "16 Table-1 cells plus MM/C and PF/xe");
    assert!(
        mismatches.is_empty(),
        "{} reconstructed outcomes differ from injection:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert!(reconstructed > 0, "some planned fault stays on the path");
}
