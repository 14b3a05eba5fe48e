//! Quickstart: compute the aDVF of the data objects of one workload with
//! `Runner::analyze`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use moard::inject::Runner;
use moard::model::{AnalysisConfig, MoardError};

fn main() -> Result<(), MoardError> {
    // The LU benchmark: the paper's worked example (Listing 2 / Equation 2)
    // computes aDVF for the l2norm routine inside `ssor`.  No object is
    // selected, so the runner analyzes LU's target objects — in parallel.
    let config = AnalysisConfig {
        site_stride: 4,                  // analyze every 4th participation site
        max_dfi_per_object: Some(2_000), // cap deterministic fault injections
        ..Default::default()
    };
    let registry = moard::workloads::builtin_registry();
    let report = Runner::default().analyze("lu", &[], &config, true, registry)?;

    for r in &report.reports {
        let (op, prop, alg) = r.accumulator.level_breakdown();
        println!(
            "aDVF({:<4}) = {:.3}   [operation {:.3} | propagation {:.3} | algorithm {:.3}]   sites={} dfi={}",
            r.object,
            r.advf(),
            op,
            prop,
            alg,
            r.sites_analyzed,
            r.dfi_runs
        );
    }
    println!("\nLarger aDVF means the application tolerates more errors in that object,");
    println!("so protection effort is better spent on the objects with the lowest aDVF.");
    println!("\nThe same result as machine-readable JSON: moard report lu");
    Ok(())
}
