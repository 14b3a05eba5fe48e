//! Figure 9 — the Particle Filter ABFT case study: aDVF of the estimate
//! vector xe with and without ABFT protection of the vector multiplications.

use moard_bench::{
    kind_header, kind_row, level_header, level_row, print_header, unwrap_or_exit, Effort,
};
use moard_core::AdvfReport;
use moard_inject::WorkloadHarness;

fn analyze(workload: Box<dyn moard_workloads::Workload>, effort: Effort) -> AdvfReport {
    unwrap_or_exit(
        WorkloadHarness::new(workload)
            .and_then(|h| h.analyze("xe", effort.analysis_config(), true)),
    )
}

fn main() {
    let effort = Effort::from_args();
    print_header(
        "Figure 9",
        "aDVF of xe in the Particle Filter, without ([xe]) and with (ABFT_[xe]) ABFT",
        effort,
    );
    let plain = analyze(Box::new(moard_workloads::Pf::default()), effort);
    let abft = analyze(Box::new(moard_abft::AbftPf::default()), effort);
    println!("{}", level_header());
    println!("{}", level_row(&plain));
    println!("{}", level_row(&abft));
    println!();
    println!("{}", kind_header());
    println!("{}", kind_row(&plain));
    println!("{}", kind_row(&abft));
    println!();
    println!(
        "aDVF change from ABFT: {:.4} -> {:.4} (the paper finds almost no change)",
        plain.advf(),
        abft.advf()
    );
}
