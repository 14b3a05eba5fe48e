//! Figure 7 — random fault injection success rates (500..3500 tests, with
//! 95% margins of error) for the LULESH coordinate arrays m_x, m_y, m_z,
//! compared with the deterministic aDVF values.
//!
//! Rebuilt on the sweep engine: one `StudySpec` with an RFI validation leg
//! expands to the whole figure's task matrix (3 objects × test counts RFI
//! campaigns plus 3 aDVF analyses), which `Runner::sweep` schedules
//! per-task across the worker pool.  Campaign seeds are `0xF1F1 + set`,
//! exactly as the pre-sweep revision of this binary, so the series is
//! unchanged.

use moard_bench::{print_header, unwrap_or_exit, Effort};
use moard_inject::{ObjectSelector, Runner, StudySpec, WorkloadSelector};

fn main() {
    let effort = Effort::from_args();
    print_header(
        "Figure 7",
        "RFI success rate vs number of tests (95% CI) against deterministic aDVF",
        effort,
    );
    let objects = ["m_x", "m_y", "m_z"];
    let test_counts: Vec<usize> = match effort {
        Effort::Quick => vec![500, 1000, 1500],
        Effort::Full => vec![500, 1000, 1500, 2000, 2500, 3000, 3500],
    };
    let config = effort.analysis_config();
    let spec = StudySpec::default()
        .workloads(WorkloadSelector::Named(vec!["lulesh".into()]))
        .objects(ObjectSelector::Named(
            objects.iter().map(|o| o.to_string()).collect(),
        ))
        .windows(vec![config.propagation_window])
        .strides(vec![config.site_stride])
        .max_dfis(vec![config.max_dfi_per_object])
        .rfi_leg(test_counts, 0xF1_F1);
    let (report, _) =
        unwrap_or_exit(Runner::default().sweep(&spec, moard_workloads::builtin_registry()));

    println!(
        "{:<8} {:>8} {:>14} {:>12}",
        "object", "tests", "success rate", "margin(95%)"
    );
    for obj in objects {
        for rfi in report.rfi_for("LULESH", obj) {
            println!(
                "{:<8} {:>8} {:>14.4} {:>12.4}",
                obj,
                rfi.summary.tests,
                rfi.summary.success_rate(),
                rfi.summary.margin_95()
            );
        }
        let entry = report
            .entry("LULESH", obj)
            .expect("the sweep covered every selected object");
        println!(
            "{:<8} {:>8} {:>14.4}   (deterministic aDVF)",
            obj,
            "aDVF",
            entry.advf.advf()
        );
        println!();
    }
}
