//! Rank the data objects of CG by vulnerability and cross-check the ranking
//! against (strided) exhaustive fault injection — the model-validation
//! methodology of the paper's Fig. 6.
//!
//! ```text
//! cargo run --release --example rank_data_objects
//! ```

use moard::inject::Runner;
use moard::model::{AnalysisConfig, MoardError};

fn main() -> Result<(), MoardError> {
    let objects = ["rowstr", "colidx", "a", "p", "q"].map(String::from);
    let config = AnalysisConfig {
        site_stride: 8,
        max_dfi_per_object: Some(1_500),
        ..Default::default()
    };
    let registry = moard::workloads::builtin_registry();
    let runner = Runner::default();
    let report = runner.analyze("cg", &objects, &config, true, registry)?;
    // The analysis left CG's prepared harness in the runner's cache.
    let harness = runner.harnesses.get_or_prepare(registry, "cg")?;

    println!("{:<10} {:>8} {:>14}", "object", "aDVF", "FI success");
    let mut rows = Vec::new();
    for r in &report.reports {
        let campaign = harness.exhaustive_with_budget(
            &r.object,
            1_000,
            &moard::model::ErrorPatternSet::SingleBit,
        )?;
        println!(
            "{:<10} {:>8.4} {:>14.4}",
            r.object,
            r.advf(),
            campaign.success_rate()
        );
        rows.push((r.object.clone(), r.advf(), campaign.success_rate()));
    }

    let mut by_advf = rows.clone();
    by_advf.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut by_fi = rows.clone();
    by_fi.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    println!(
        "\nmost-vulnerable-first ranking by aDVF : {:?}",
        by_advf.iter().map(|r| r.0.as_str()).collect::<Vec<_>>()
    );
    println!(
        "most-vulnerable-first ranking by FI   : {:?}",
        by_fi.iter().map(|r| r.0.as_str()).collect::<Vec<_>>()
    );
    Ok(())
}
