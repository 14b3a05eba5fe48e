//! The §VI case study: is ABFT worth its overhead for a given data object?
//!
//! Compares the aDVF of C in matrix multiplication with and without checksum
//! ABFT (it helps enormously), and of xe in the particle filter (it barely
//! helps, because the filter already tolerates those errors).  The ABFT
//! variants resolve through the same registry as every other workload.
//!
//! ```text
//! cargo run --release --example abft_case_study
//! ```

use moard::inject::Runner;
use moard::model::{AnalysisConfig, MoardError};

fn advf_of(workload: &str, object: &str) -> Result<f64, MoardError> {
    let config = AnalysisConfig {
        site_stride: 8,
        max_dfi_per_object: Some(2_000),
        ..Default::default()
    };
    let registry = moard::full_registry();
    let report = Runner::default().analyze(workload, &[object.into()], &config, true, &registry)?;
    Ok(report.reports[0].advf())
}

fn main() -> Result<(), MoardError> {
    let mm_plain = advf_of("mm", "C")?;
    let mm_abft = advf_of("abft-mm", "C")?;
    println!("matrix multiplication, object C:");
    println!("  aDVF without ABFT : {mm_plain:.4}");
    println!("  aDVF with    ABFT : {mm_abft:.4}   <- ABFT is clearly worthwhile here");

    let pf_plain = advf_of("pf", "xe")?;
    let pf_abft = advf_of("abft-pf", "xe")?;
    println!("particle filter, object xe:");
    println!("  aDVF without ABFT : {pf_plain:.4}");
    println!("  aDVF with    ABFT : {pf_abft:.4}   <- little gain: the filter already tolerates these errors");
    Ok(())
}
