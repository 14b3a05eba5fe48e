//! Table I — benchmarks and applications of the study, their evaluated code
//! segments, and the target data objects — driven by the sweep engine's
//! task matrix: the rows are exactly the (workload, object) cells a
//! `StudySpec` over the Table I benchmarks expands to.
//!
//! Pass `--advf` to actually execute the sweep (quick settings: stride 8,
//! DFI capped) and append the measured aDVF of every target data object;
//! `moard sweep --workloads table1` produces the same numbers as JSON.

use moard_bench::unwrap_or_exit;
use moard_inject::{Runner, StudySpec, StudyTaskKind, WorkloadSelector};
use moard_workloads::{builtin_registry, WorkloadRegistry};

fn main() {
    let run_advf = std::env::args().any(|a| a == "--advf");
    let registry = builtin_registry();
    let spec = StudySpec::default()
        .workloads(WorkloadSelector::Table1)
        .strides(vec![8])
        .max_dfis(vec![Some(25_000)]);
    let tasks = unwrap_or_exit(spec.expand(registry));

    println!("# MOARD reproduction — Table I");
    println!(
        "{:<8} {:<34} {:<30} target data objects",
        "name", "description", "code segment"
    );
    for workload in distinct_workloads(&tasks) {
        let info = registry
            .descriptor(workload)
            .expect("expanded workloads are registered");
        let targets: Vec<&str> = tasks
            .iter()
            .filter(|t| t.workload == workload)
            .map(|t| t.object.as_str())
            .collect();
        println!(
            "{:<8} {:<34} {:<30} {}",
            info.name,
            info.description,
            info.code_segment,
            targets.join(", ")
        );
    }
    println!();
    println!(
        "# task matrix: {} aDVF tasks across {} workloads (study fingerprint {})",
        tasks
            .iter()
            .filter(|t| matches!(t.kind, StudyTaskKind::Advf { .. }))
            .count(),
        distinct_workloads(&tasks).len(),
        moard_core::fingerprint_hex(spec.fingerprint()),
    );

    if run_advf {
        println!();
        println!(
            "{:<8} {:<14} {:>8} {:>10} {:>8}",
            "name", "object", "aDVF", "sites", "dfi"
        );
        let (report, _) = unwrap_or_exit(Runner::default().sweep(&spec, registry));
        for entry in &report.entries {
            println!(
                "{:<8} {:<14} {:>8.4} {:>10} {:>8}",
                entry.workload,
                entry.object,
                entry.advf.advf(),
                entry.advf.sites_analyzed,
                entry.advf.dfi_runs
            );
        }
    } else {
        println!("# pass --advf to execute the sweep and print measured aDVF values");
    }
}

fn distinct_workloads(tasks: &[moard_inject::StudyTask]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for t in tasks {
        if !out.contains(&t.workload.as_str()) {
            out.push(&t.workload);
        }
    }
    out
}
