//! The MOARD benchmark: one command runs one named workload for a given
//! seed, checks every answer, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact-dfi --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root.  A run repeats whole passes of the
//! workload until `--seconds` have passed; each pass runs in a fresh child
//! process of this program (`--pass N`), so every pass starts from the heap
//! and caches a user's fresh `moard` process would have.  With `--trace 0`
//! every pass runs untraced and the end-to-end metrics are printed; with
//! `--trace 1` untraced and traced passes alternate and the per-layer
//! metrics are printed.  The last line of standard output is the result object; the line
//! before it is the run's context (seed, cores, commit, per-cell config
//! fingerprints and trace lengths).  See `README.md` beside this crate.

mod daemon;
mod layers;
mod local;

use layers::{median, percentile, Sample, END_TO_END, PER_LAYER};
use moard_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed the committed reference digests were taken at.
const DEFAULT_SEED: u64 = 1;

/// Reference digests: seed-independent cells are checked at every seed,
/// cells on MM/PF data only at [`DEFAULT_SEED`].
const REFERENCE: &str = include_str!("../reference.json");

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "exact-dfi",
    "analytic-memory",
    "analytic-paged",
    "daemon-mixed",
];

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Set-up samples in seconds; the pass's own set-up is the last one.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Latency of each operation (cell or job), in milliseconds.  Slot `k`
    /// is the same operation in every pass of a run.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Semantic digest per cell or job key.
    pub digests: BTreeMap<String, String>,
    /// Per-layer values (traced passes only).
    pub layers: Option<Sample>,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// One JSON object per cell or job: key, config fingerprint, trace length.
    pub context: Vec<String>,
    /// Peak resident memory of the process that ran the pass, in MiB.
    pub peak_rss_mb: f64,
}

/// SplitMix64: the benchmark's seeded choices (cell order, job sequence,
/// MM/PF input seeds).
pub struct SplitMix(u64);

impl SplitMix {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The SplitMix64 output function of state `z`.
    pub fn mix(z: u64) -> u64 {
        let mut z = z.wrapping_add(Self::GOLDEN);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = Self::mix(self.0);
        self.0 = self.0.wrapping_add(Self::GOLDEN);
        out
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: run only this pass and print it as JSON.
    pass: Option<u64>,
    /// Child mode: the parent's per-run work directory.
    work_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pass = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--pass" => pass = Some(number()?),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        pass,
        work_dir,
    })
}

enum Bench {
    Local(local::LocalBench),
    Daemon(daemon::DaemonBench),
}

impl Bench {
    fn new(workload: &str, seed: u64, work_dir: &Path) -> Bench {
        use local::LocalBench;
        use moard_vm::TraceBackendSpec;
        match workload {
            "exact-dfi" => Bench::Local(LocalBench::exact_dfi(seed)),
            "analytic-memory" => Bench::Local(LocalBench::analytic(seed, TraceBackendSpec::Memory)),
            "analytic-paged" => Bench::Local(LocalBench::analytic(
                seed,
                TraceBackendSpec::Paged {
                    dir: Some(work_dir.to_path_buf()),
                    segment_records: moard_vm::DEFAULT_SEGMENT_RECORDS,
                },
            )),
            _ => Bench::Daemon(daemon::DaemonBench::new(seed, work_dir)),
        }
    }

    fn pass(&self, n: u64, traced: bool) -> Pass {
        match self {
            Bench::Local(b) => b.pass(n, traced),
            Bench::Daemon(b) => b.pass(traced),
        }
    }

    /// Keys whose digests depend on the seed.
    fn seeded_keys(&self) -> Vec<String> {
        match self {
            Bench::Local(b) => b.seeded_keys(),
            Bench::Daemon(_) => Vec::new(),
        }
    }
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&Path::new(".git").join(reference)) {
        return commit.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Expected digests of `workload` from the committed reference file.
fn reference(workload: &str) -> BTreeMap<String, String> {
    let doc = Json::parse(REFERENCE).expect("reference.json is valid JSON");
    match doc.get("digests").and_then(|d| d.get(workload)) {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        _ => BTreeMap::new(),
    }
}

impl Pass {
    fn failure(problem: String) -> Pass {
        Pass {
            attempted: 1,
            failed: 1,
            problems: vec![problem],
            ..Pass::default()
        }
    }

    fn to_json(&self) -> Json {
        let num = |v: f64| Json::from(if v.is_finite() { v } else { 0.0 });
        let nums = |v: &[f64]| Json::array(v.iter().map(|&x| num(x)));
        let strs = |v: &[String]| Json::array(v.iter().map(|x| Json::from(x.as_str())));
        Json::object([
            ("setup_s", nums(&self.setup_s)),
            ("wall_s", num(self.wall_s)),
            ("op_ms", nums(&self.op_ms)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "digests",
                Json::object(
                    self.digests
                        .iter()
                        .map(|(k, d)| (k.as_str(), Json::from(d.as_str()))),
                ),
            ),
            (
                "layers",
                match &self.layers {
                    Some(s) => Json::object(s.iter().map(|(k, v)| (*k, num(*v)))),
                    None => Json::Null,
                },
            ),
            ("problems", strs(&self.problems)),
            ("context", strs(&self.context)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Pass, moard_json::JsonError> {
        let nums = |k: &str| -> Result<Vec<f64>, _> {
            Ok(doc.arr_field(k)?.iter().filter_map(Json::as_f64).collect())
        };
        let strs = |k: &str| -> Result<Vec<String>, _> {
            Ok(doc
                .arr_field(k)?
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect())
        };
        let members = |k: &str| match doc.get(k) {
            Some(Json::Obj(m)) => m.clone(),
            _ => Vec::new(),
        };
        Ok(Pass {
            setup_s: nums("setup_s")?,
            wall_s: doc.f64_field("wall_s")?,
            op_ms: nums("op_ms")?,
            attempted: doc.u64_field("attempted")?,
            failed: doc.u64_field("failed")?,
            digests: members("digests")
                .into_iter()
                .filter_map(|(k, d)| Some((k, d.as_str()?.to_string())))
                .collect(),
            layers: matches!(doc.get("layers"), Some(Json::Obj(_))).then(|| {
                members("layers")
                    .into_iter()
                    .filter_map(|(k, v)| {
                        let name = PER_LAYER.iter().find(|(n, _)| *n == k)?.0;
                        Some((name, v.as_f64()?))
                    })
                    .collect()
            }),
            problems: strs("problems")?,
            context: strs("context")?,
            peak_rss_mb: doc.f64_field("peak_rss_mb")?,
        })
    }
}

/// Run pass `n` in a child process of this program and read its result.
fn child_pass(args: &Args, work_dir: &Path, n: u64, traced: bool) -> Pass {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Pass::failure(format!("cannot locate the benchmark binary: {e}")),
    };
    let output = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--pass", &n.to_string()])
        .arg("--work-dir")
        .arg(work_dir)
        .stderr(std::process::Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => return Pass::failure(format!("pass {n} did not start: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(|line| Json::parse(line).map_err(|e| e.to_string()))
        .and_then(|doc| Pass::from_json(&doc).map_err(|e| e.to_string()));
    match parsed {
        Ok(pass) if output.status.success() => pass,
        Ok(_) | Err(_) => Pass::failure(format!(
            "pass {n} failed ({}): {}",
            output.status,
            stdout.trim()
        )),
    }
}

/// The smallest of `values` (infinite when there are none).
fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Each operation's smallest latency over `passes`.
fn least_per_op(passes: &[Pass]) -> Vec<f64> {
    let ops = passes.iter().map(|p| p.op_ms.len()).max().unwrap_or(0);
    (0..ops)
        .map(|k| least(passes.iter().filter_map(|p| p.op_ms.get(k).copied())))
        .collect()
}

/// A JSON number with all its digits (finite values only).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let (Some(n), Some(work_dir)) = (args.pass, &args.work_dir) {
        let mut pass = Bench::new(&args.workload, args.seed, work_dir).pass(n, args.trace);
        pass.peak_rss_mb = peak_rss_mb();
        println!("{}", pass.to_json());
        return;
    }
    // Spills and stores stay inside the checkout, under a per-run directory.
    let work_root = PathBuf::from(".bench_work");
    let work_dir = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let bench = Bench::new(&args.workload, args.seed, &work_dir);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut n = 0;
    loop {
        untraced.push(child_pass(&args, &work_dir, n, false));
        n += 1;
        if args.trace {
            traced.push(child_pass(&args, &work_dir, n, true));
            n += 1;
        }
        let last = &untraced[untraced.len() - 1];
        eprintln!(
            "perfbench: {} pass {} done at {:.1} s: setup {:.6} s, wall {:.6} s, op p50 {:.6} ms, p95 {:.6} ms, peak {:.1} MiB",
            args.workload,
            untraced.len(),
            started.elapsed().as_secs_f64(),
            median(&last.setup_s),
            last.wall_s,
            median(&last.op_ms),
            percentile(&last.op_ms, 95.0),
            last.peak_rss_mb
        );
        let enough = !args.trace || traced.len() >= 2;
        if enough && started.elapsed() >= budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&work_root);

    // Correctness: every pass must give the first pass's digests, and
    // those must match the committed reference.
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let first = &all[0].digests;
    for pass in &all {
        attempted += pass.attempted;
        failed += pass.failed;
        problems.extend(pass.problems.iter().cloned());
        for (key, d) in &pass.digests {
            if first.get(key) != Some(d) {
                failed += 1;
                problems.push(format!("{key}: digest {d} differs between passes"));
            }
        }
    }
    let expected = reference(&args.workload);
    let seeded = bench.seeded_keys();
    for (key, d) in first {
        if args.seed != DEFAULT_SEED && seeded.contains(key) {
            continue;
        }
        match expected.get(key) {
            Some(e) if e == d => {}
            Some(e) => {
                failed += 1;
                problems.push(format!("{key}: digest {d}, reference {e}"));
            }
            None => {
                failed += 1;
                problems.push(format!("{key}: digest {d} has no reference"));
            }
        }
    }
    // Counts must repeat exactly across the traced passes of one seed.
    let samples: Vec<&Sample> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    for (name, unit) in PER_LAYER.iter().filter(|(_, u)| *u == "count") {
        let values: Vec<f64> = samples
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        if values.windows(2).any(|w| w[0] != w[1]) {
            problems.push(format!(
                "count {name} ({unit}) differs across passes: {values:?}"
            ));
        }
    }
    for p in &problems {
        eprintln!("perfbench: FAILED {p}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let untraced_walls: Vec<f64> = untraced
            .iter()
            .map(|p| p.setup_s.last().copied().unwrap_or(0.0) + p.wall_s)
            .collect();
        let untraced_wall = median(&untraced_walls);
        for &(name, unit) in PER_LAYER {
            let values: Vec<f64> = samples
                .iter()
                .map(|s| s.get(name).copied().unwrap_or(0.0))
                .collect();
            let value = match name {
                "bench.untraced_wall_s" => untraced_wall,
                "bench.trace_overhead" => layers::ratio(
                    median(
                        &samples
                            .iter()
                            .map(|s| s.get("bench.traced_wall_s").copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    ),
                    untraced_wall,
                ),
                _ => median(&values),
            };
            metrics.push((name, value, unit));
        }
    } else {
        let setups: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        // The host's speed drifts in stretches of seconds to minutes (see
        // README.md, "Noise"), so the median of a run's passes flips
        // between a fast and a slow mode from run to run.  The fastest
        // set-up, the fastest pass and each operation's fastest latency
        // come from the fast stretches every run has, and repeat far
        // better across runs.
        let best_ops = least_per_op(&untraced);
        for &(name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => least(setups.iter().copied()),
                "wall_s" => least(untraced.iter().map(|p| p.wall_s)),
                "op_p50_ms" => median(&best_ops),
                "job_p95_ms" => percentile(&best_ops, 95.0),
                // The leanest pass: in daemon-mixed a pass's peak is
                // bimodal (the two workers' largest allocations overlap or
                // not), and the low mode shows up in every run.
                _ => least(untraced.iter().map(|p| p.peak_rss_mb)),
            };
            metrics.push((name, value, unit));
        }
        eprintln!(
            "perfbench: {} passes, {} operations, {} set-up samples",
            untraced.len(),
            best_ops.len(),
            setups.len()
        );
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "context {{\"workload\":\"{}\",\"seed\":{},\"nproc\":{nproc},\"commit\":\"{}\",\"passes\":{},\"digests\":{{{}}},\"cells\":[{}]}}",
        args.workload,
        args.seed,
        git_commit(),
        all.len(),
        first
            .iter()
            .map(|(k, d)| format!("\"{k}\":\"{d}\""))
            .collect::<Vec<_>>()
            .join(","),
        all.iter()
            .rev()
            .find(|p| !p.context.is_empty())
            .map_or(String::new(), |p| p.context.join(","))
    );
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        failed == 0 && problems.is_empty(),
        attempted.max(1),
        failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.arr_field(key)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |k| m.str_field(k).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .arr_field("workloads")
            .expect("workloads")
            .iter()
            .map(|w| w.str_field("name").expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn pass_round_trips_through_json() {
        let mut layers = Sample::new();
        layers.insert("inject.dfi.calls", 1060.0);
        layers.insert("bench.other_s", 0.25);
        let pass = Pass {
            setup_s: vec![0.5, 0.125],
            wall_s: 1.5,
            op_ms: vec![3.0],
            attempted: 3,
            failed: 1,
            digests: [("PF/xe".to_string(), "00ff".to_string())].into(),
            layers: Some(layers),
            problems: vec!["x".into()],
            context: vec!["{}".into()],
            peak_rss_mb: 48.5,
        };
        let back = Pass::from_json(&Json::parse(&pass.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.setup_s, pass.setup_s);
        assert_eq!(back.wall_s, pass.wall_s);
        assert_eq!(back.digests, pass.digests);
        assert_eq!(back.layers, pass.layers);
        assert_eq!((back.attempted, back.failed), (3, 1));
        assert_eq!(back.peak_rss_mb, 48.5);
    }

    #[test]
    fn each_operation_keeps_its_fastest_latency() {
        let pass = |op_ms: Vec<f64>| Pass {
            op_ms,
            ..Pass::default()
        };
        let passes = [pass(vec![3.0, 9.0, 5.0]), pass(vec![4.0, 7.0])];
        assert_eq!(least_per_op(&passes), vec![3.0, 7.0, 5.0]);
        assert_eq!(least([2.5, 1.5].into_iter()), 1.5);
    }

    #[test]
    fn seeded_choices_repeat() {
        let mut a: Vec<usize> = (0..16).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..16).collect::<Vec<_>>());
    }
}
