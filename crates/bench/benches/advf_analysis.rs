//! Micro-bench: throughput of the analytical aDVF pipeline (operation
//! rules + propagation replay, no deterministic fault injection) on the
//! trace engine's two reference workloads.

use moard_bench::micro::{bench, black_box};
use moard_bench::smoke::{smoke_config, smoke_workloads};
use moard_core::AdvfAnalyzer;

fn main() {
    let config = smoke_config();
    for wl in smoke_workloads() {
        let stats = wl.trace.stats();
        println!(
            "# {}: {} records, {} index entries over {} objects",
            wl.workload, stats.records, stats.index_entries, stats.indexed_objects
        );
        bench(
            &format!("advf_analysis/{}_analytic_only", wl.key),
            2,
            10,
            || {
                let analyzer = AdvfAnalyzer::new(&wl.trace, config.clone());
                black_box(analyzer.analyze(wl.object, wl.object_name, &wl.workload, None));
            },
        );
    }
}
