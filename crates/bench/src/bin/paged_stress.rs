//! `paged_stress` — out-of-core scale proof for the paged trace backend.
//!
//! Builds a synthetic workload whose dynamic trace holds at least
//! `--records N` records (default 10M) while its analyzed data object has
//! only a few thousand participation sites, then runs the full aDVF
//! analysis through the selected `--trace-backend`.  The point: under a
//! bounded address space (e.g. `ulimit -v`), the in-memory backend dies
//! while the paged backend streams segments through its per-reader LRU and
//! completes — with a report byte-identical to the unbounded in-memory run.
//!
//! ```text
//! paged_stress [--records N] [--backend memory|paged[:DIR]] [--k N]
//!              [--stride N] [--out FILE]
//! ```
//!
//! Prints a summary to stdout and writes the `SessionReport` JSON to
//! `--out` (CI uploads it as the stress artifact).  Exits non-zero if the
//! trace came up short of the requested record count or the analysis fails.

use moard_inject::{SessionReport, WorkloadHarness};
use moard_ir::prelude::*;
use moard_vm::TraceBackendSpec;
use moard_workloads::{Acceptance, Workload};

/// Synthetic kernel: `outer` rounds of a long register-only inner loop,
/// each round storing one element of `acc`.  The trace grows with
/// `outer * inner` while `acc`'s participation sites grow only with
/// `outer` — production-shaped: a huge execution history around a small
/// object under study.
struct Stress {
    outer: i64,
    inner: i64,
}

impl Stress {
    /// Size the kernel so the trace holds at least `records` records.  One
    /// inner iteration emits seven records (fmul, fadd, mov, plus the
    /// loop's increment/compare/branch bookkeeping); sizing against six
    /// keeps a safety margin below that, so the floor holds even if the
    /// loop lowering sheds a record.
    fn for_records(records: u64) -> Stress {
        let outer: i64 = 1024;
        let inner = ((records as i64 + outer * 6 - 1) / (outer * 6)).max(1);
        Stress { outer, inner }
    }
}

impl Workload for Stress {
    fn name(&self) -> &'static str {
        "STRESS"
    }

    fn description(&self) -> &'static str {
        "Synthetic long-trace kernel for out-of-core trace-backend stress"
    }

    fn code_segment(&self) -> &'static str {
        "stress"
    }

    fn target_objects(&self) -> Vec<&'static str> {
        vec!["acc"]
    }

    fn output_objects(&self) -> Vec<&'static str> {
        vec!["acc"]
    }

    fn acceptance(&self) -> Acceptance {
        Acceptance::Exact
    }

    fn max_steps(&self) -> u64 {
        // Generous ceiling over the ~10 dynamic ops per inner iteration.
        (self.outer * self.inner) as u64 * 16 + (self.outer as u64) * 32 + 4096
    }

    fn build(&self) -> Module {
        let mut m = Module::new("stress");
        let acc = m.add_global(Global::zeroed("acc", Type::F64, self.outer as u64));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.for_loop(
            Operand::const_i64(0),
            Operand::const_i64(self.outer),
            |f, i| {
                let s = f.alloc_reg(Type::F64);
                f.mov(s, Operand::const_f64(1.0));
                f.for_loop(
                    Operand::const_i64(0),
                    Operand::const_i64(self.inner),
                    |f, _j| {
                        let p = f.fmul(Operand::Reg(s), Operand::const_f64(1.000_000_119));
                        let q = f.fadd(Operand::Reg(p), Operand::const_f64(1.0e-9));
                        f.mov(s, Operand::Reg(q));
                    },
                );
                f.store_elem(Type::F64, acc, Operand::Reg(i), Operand::Reg(s));
            },
        );
        // Fold acc into the scalar return so the stores are live.
        let tr = f.alloc_reg(Type::F64);
        f.mov(tr, Operand::const_f64(0.0));
        f.for_loop(
            Operand::const_i64(0),
            Operand::const_i64(self.outer),
            |f, i| {
                let v = f.load_elem(Type::F64, acc, Operand::Reg(i));
                let s = f.fadd(Operand::Reg(tr), Operand::Reg(v));
                f.mov(tr, Operand::Reg(s));
            },
        );
        f.ret(Some(Operand::Reg(tr)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: paged_stress [--records N] [--backend memory|paged[:DIR]] [--k N]\n\
         \x20                   [--stride N] [--out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut records: u64 = 10_000_000;
    let mut backend = TraceBackendSpec::paged();
    let mut k: usize = 50;
    let mut stride: usize = 4;
    let mut out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("paged_stress: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--records" => {
                records = value("--records").parse().unwrap_or_else(|_| usage());
            }
            "--backend" => match TraceBackendSpec::parse(&value("--backend")) {
                Ok(spec) => backend = spec,
                Err(e) => {
                    eprintln!("paged_stress: --backend: {e}");
                    usage()
                }
            },
            "--k" => k = value("--k").parse().unwrap_or_else(|_| usage()),
            "--stride" => stride = value("--stride").parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(value("--out").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("paged_stress: unknown flag `{other}`");
                usage()
            }
        }
    }

    let config = moard_core::AnalysisConfig {
        propagation_window: k,
        site_stride: stride,
        ..Default::default()
    };
    // A bad config must not wait for millions of records to be traced.
    if let Err(e) = config.validate() {
        eprintln!("paged_stress: {e}");
        std::process::exit(1);
    }
    let stress = Stress::for_records(records);
    println!(
        "kernel              : outer {} x inner {} (target >= {} records)",
        stress.outer, stress.inner, records
    );
    let harness = WorkloadHarness::new_with(Box::new(stress), &backend).unwrap_or_else(|e| {
        eprintln!("paged_stress: preparing the harness failed: {e}");
        std::process::exit(1);
    });
    let stats = harness.trace_stats();
    println!("trace backend       : {}", backend.describe());
    println!("trace records       : {}", stats.records);
    println!("indexed objects     : {}", stats.indexed_objects);
    println!("index entries       : {}", stats.index_entries);
    if stats.records < records {
        eprintln!(
            "paged_stress: trace came up short: {} < {records} records",
            stats.records
        );
        std::process::exit(1);
    }
    let report = harness
        .analyze("acc", config.clone(), false)
        .unwrap_or_else(|e| {
            eprintln!("paged_stress: analysis failed: {e}");
            std::process::exit(1);
        });
    let report = SessionReport {
        workload: harness.workload().name().to_string(),
        config,
        reports: vec![report],
    };
    let advf = report.reports[0].advf();
    println!("sites analyzed      : {}", report.reports[0].sites_analyzed);
    println!("aDVF(acc)           : {advf:.6}");
    if let Some(path) = out {
        let json = report.to_json().to_pretty();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("paged_stress: writing {} failed: {e}", path.display());
            std::process::exit(1);
        }
        println!("report              : {}", path.display());
    }
}
