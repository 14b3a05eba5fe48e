//! §III-D observation — bounding the error-propagation path.
//!
//! The paper justifies the propagation window k by random fault injection:
//! among injections whose errors are NOT masked within k operations after the
//! target operation, 87% (k = 10) / 100% (k = 50) lead to numerically
//! incorrect outcomes.  This binary reproduces that characterization: it
//! samples participation sites across the benchmarks, keeps those the
//! operation-level rules cannot mask, checks whether the propagation replay
//! masks them within k, and compares with the deterministic-injection verdict.

use moard_bench::{harness_or_exit, print_header, unwrap_or_exit, Effort};
use moard_core::{analyze_operation, BatchLane, BatchReplayCursor, ErrorPattern, OpVerdict};
use moard_vm::OutcomeClass;

fn main() {
    let effort = Effort::from_args();
    print_header(
        "Observation (Section III-D)",
        "errors not masked within k operations rarely end up masked at all",
        effort,
    );
    let workloads = ["cg", "lu", "mm", "lulesh"];
    let ks = [10usize, 50usize];
    let per_object = match effort {
        Effort::Quick => 60,
        Effort::Full => 250,
    };
    for k in ks {
        let mut not_masked_within_k = 0u64;
        let mut incorrect_outcomes = 0u64;
        for wl in workloads {
            let harness = harness_or_exit(wl);
            // Sites are enumerated through the per-object trace index, and
            // one cursor's replay buffers are reused across all objects.
            let mut cursor = BatchReplayCursor::new(harness.trace());
            for object in harness.workload().target_objects() {
                let sites = unwrap_or_exit(harness.sites(object));
                let stride = (sites.len() / per_object).max(1);
                // The sampled sites ascend by record, so their lanes settle
                // in one batched replay per object.
                let mut lanes = Vec::new();
                let mut faults = Vec::new();
                for site in sites.iter().step_by(stride) {
                    let rec = harness.trace().record(site.record_id).unwrap();
                    let bit = 62 % site.bit_width();
                    let verdict = analyze_operation(&rec, site.slot, &ErrorPattern::single(bit));
                    let corrupt = match verdict {
                        OpVerdict::Propagate { corrupt } => corrupt,
                        OpVerdict::OvershadowCandidate { corrupt } => corrupt,
                        _ => continue,
                    };
                    lanes.push(BatchLane {
                        start: site.record_id as usize + 1,
                        corrupt,
                    });
                    faults.push(site.fault_bit(bit));
                }
                let mut results = Vec::with_capacity(lanes.len());
                cursor.replay_batch(&lanes, k, &mut results);
                for (prop, fault) in results.iter().zip(&faults) {
                    if prop.is_masked() {
                        continue;
                    }
                    not_masked_within_k += 1;
                    let outcome = harness.injector().run_classified(fault);
                    if !matches!(outcome, OutcomeClass::Identical) {
                        incorrect_outcomes += 1;
                    }
                }
            }
        }
        let pct = if not_masked_within_k == 0 {
            0.0
        } else {
            100.0 * incorrect_outcomes as f64 / not_masked_within_k as f64
        };
        println!(
            "k = {:>3}: {:>5} injections not masked within k; {:>6.1}% of them end numerically different (paper: 87% at k=10, 100% at k=50)",
            k, not_masked_within_k, pct
        );
    }
}
