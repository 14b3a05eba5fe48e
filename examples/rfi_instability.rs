//! Why random fault injection cannot rank data objects (paper §V-C, Fig. 7):
//! repeat RFI campaigns of increasing size on the LULESH coordinate arrays
//! and watch the success-rate estimates (and the implied ranking) fluctuate,
//! then compare with the deterministic aDVF values.
//!
//! ```text
//! cargo run --release --example rfi_instability
//! ```

use moard::inject::{Parallelism, RfiConfig, Runner};
use moard::model::{AnalysisConfig, MoardError};

fn main() -> Result<(), MoardError> {
    let objects = ["m_x", "m_y", "m_z"].map(String::from);
    let registry = moard::workloads::builtin_registry();
    // The campaigns and the analysis below share one prepared harness.
    let runner = Runner::default();
    let harness = runner.harnesses.get_or_prepare(registry, "lulesh")?;

    for &tests in &[300usize, 600, 900] {
        print!("RFI with {tests:>4} tests :");
        for (i, object) in objects.iter().enumerate() {
            let stats = harness.rfi(
                object,
                &RfiConfig {
                    tests,
                    seed: 0xF1F1 + i as u64 + tests as u64,
                    parallelism: Parallelism::Auto,
                    ..Default::default()
                },
            )?;
            print!(
                "  {object} = {:.3} ± {:.3}",
                stats.success_rate(),
                stats.margin_of_error(0.95)
            );
        }
        println!();
    }

    print!("deterministic aDVF  :");
    let config = AnalysisConfig {
        site_stride: 8,
        max_dfi_per_object: Some(1_500),
        ..Default::default()
    };
    let report = runner.analyze("lulesh", &objects, &config, true, registry)?;
    for r in &report.reports {
        print!("  {} = {:.3}        ", r.object, r.advf());
    }
    println!();
    println!("\nThe RFI estimates move around between campaigns; the aDVF values do not.");
    Ok(())
}
