//! Figure 6 — model validation: aDVF vs. the success rate of exhaustive
//! fault injection for the major data objects of CG's conj_grad and
//! LULESH's CalcMonotonicQRegionForElems; both metrics must rank the
//! objects identically.

use moard_bench::{harness_or_exit, print_header, unwrap_or_exit, Effort};

fn main() {
    let effort = Effort::from_args();
    print_header(
        "Figure 6",
        "aDVF vs exhaustive-injection success rate (ranking validation)",
        effort,
    );
    let cases: [(&str, &[&str]); 2] = [
        ("cg", &["rowstr", "colidx", "a", "p", "q"]),
        ("lulesh", &["m_x", "m_y", "m_z"]),
    ];
    println!(
        "{:<8} {:<10} {:>8} {:>14} {:>10}",
        "workload", "object", "aDVF", "success rate", "injections"
    );
    for (wl, objects) in cases {
        let harness = harness_or_exit(wl);
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for obj in objects {
            let report = unwrap_or_exit(harness.analyze(obj, effort.analysis_config(), true));
            let campaign = unwrap_or_exit(harness.exhaustive_with_budget(
                obj,
                effort.exhaustive_budget(),
                &moard_core::ErrorPatternSet::SingleBit,
            ));
            println!(
                "{:<8} {:<10} {:>8.4} {:>14.4} {:>10}",
                harness.workload().name(),
                obj,
                report.advf(),
                campaign.success_rate(),
                campaign.runs
            );
            rows.push((obj.to_string(), report.advf(), campaign.success_rate()));
        }
        let mut by_advf = rows.clone();
        by_advf.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let mut by_fi = rows.clone();
        by_fi.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
        let advf_rank: Vec<&str> = by_advf.iter().map(|r| r.0.as_str()).collect();
        let fi_rank: Vec<&str> = by_fi.iter().map(|r| r.0.as_str()).collect();
        println!("  ranking by aDVF:            {}", advf_rank.join(" < "));
        println!("  ranking by fault injection: {}", fi_rank.join(" < "));
        println!(
            "  rankings agree: {}",
            if advf_rank == fi_rank { "YES" } else { "no" }
        );
        println!();
    }
}
