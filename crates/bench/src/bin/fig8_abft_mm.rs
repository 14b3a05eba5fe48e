//! Figure 8 — the matrix-multiplication ABFT case study: aDVF of the product
//! matrix C with and without checksum ABFT, with level and operation-kind
//! breakdowns.

use moard_bench::{
    kind_header, kind_row, level_header, level_row, print_header, unwrap_or_exit, Effort,
};
use moard_core::AdvfReport;
use moard_inject::WorkloadHarness;

fn analyze(workload: Box<dyn moard_workloads::Workload>, effort: Effort) -> AdvfReport {
    unwrap_or_exit(
        WorkloadHarness::new(workload).and_then(|h| h.analyze("C", effort.analysis_config(), true)),
    )
}

fn main() {
    let effort = Effort::from_args();
    print_header(
        "Figure 8",
        "aDVF of C in matrix multiplication, without ([C]) and with (ABFT_[C]) ABFT",
        effort,
    );
    let plain = analyze(Box::new(moard_workloads::MatMul::default()), effort);
    let abft = analyze(Box::new(moard_abft::AbftMatMul::default()), effort);
    println!("{}", level_header());
    println!("{}", level_row(&plain));
    println!("{}", level_row(&abft));
    println!();
    println!("{}", kind_header());
    println!("{}", kind_row(&plain));
    println!("{}", kind_row(&abft));
    println!();
    println!(
        "aDVF improvement from ABFT: {:.4} -> {:.4} (larger is better)",
        plain.advf(),
        abft.advf()
    );
}
