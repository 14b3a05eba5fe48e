//! `moard` — JSON-first command-line interface to the MOARD reproduction.
//!
//! Subcommands:
//!
//! * `moard list` — Table I plus case studies and ABFT variants;
//! * `moard analyze <workload> [object] [--k N] [--stride N] [--max-dfi N]
//!   [--no-dfi] [--seq]` — aDVF analysis with the three-level and
//!   operation-kind breakdowns;
//! * `moard report <workload> [object...]` — the full serialized session
//!   report (always JSON);
//! * `moard sweep [--workloads all|table1|w1,w2] [--objects o1,o2] [--k
//!   N,N…] [--stride N,N…] [--max-dfi N|unbounded,…] [--rfi-tests N,N…]
//!   [--store DIR] [--resume]` — the study driver: the full workload ×
//!   object × parameter-grid campaign in one run, scheduled per task across
//!   the worker pool and folded into a versioned `StudyReport`.  With
//!   `--store DIR` every completed task is persisted; a killed sweep
//!   re-run with `--resume` folds the stored tasks as cache hits and emits
//!   a byte-identical report;
//! * `moard validate [--workloads SEL] [--objects o1,o2] [--margin F]
//!   [--max-trials N] [--confidence 90|95|99] [--seed N] [--store DIR]
//!   [--resume]` — the model-validation engine: one **adaptive**
//!   random-fault-injection campaign per (workload, object) cell, stopped
//!   once the Wilson interval is narrower than the target margin (or at the
//!   trial cap), compared against the cell's aDVF prediction with
//!   agree/disagree verdicts and per-workload rank correlations.  Campaigns
//!   are shard-deterministic: the report is identical for any thread count
//!   and resumes byte-identically from a killed run via `--store/--resume`;
//! * `moard inject <workload> <object> [--tests N] [--exhaustive]` — random
//!   or (strided) exhaustive fault-injection campaign;
//! * `moard minimize <workload> <object> [--report FILE] [--site REC:SLOT]
//!   [--mask b+b...] [--window N] [--expect CLASS] [--emit-scenario DIR]` —
//!   delta-debug a reproducing failure down to a 1-minimal scenario spec
//!   (ddmin over sites and mask bits, bisection over the replay window),
//!   optionally frozen as a JSON scenario under `tests/scenarios/`;
//! * `moard rank <workload>` — rank the workload's target objects by aDVF;
//! * `moard serve [--addr HOST:PORT] [--threads N] [--store DIR]` — the
//!   long-running analysis daemon: analyze/sweep/validate jobs over the
//!   length-framed JSON protocol, scheduled by priority across a worker
//!   pool, with one warm harness per workload and repeat jobs answered
//!   from the shared result store;
//! * `moard client <op> --addr HOST:PORT` — talk to a running daemon:
//!   `ping`, `metrics`, `cancel <job>`, `shutdown`, or submit `analyze`/
//!   `sweep`/`validate`/`minimize` jobs built from the same flags as the
//!   local subcommands.
//!
//! `--format json|text` (global) switches every subcommand between
//! machine-consumable JSON on the stable versioned schema (see
//! `docs/REPORT_SCHEMA.md`) and the human-readable tables.  All errors are
//! typed [`MoardError`]s rendered to stderr with exit code 1; nothing in
//! this binary panics on user input.

use moard_core::{MoardError, StudyReport, ValidationReport};
use moard_inject::{
    MinimizeReport, MinimizeSpec, ObjectSelector, Parallelism, RfiConfig, Session, SessionReport,
    StudyRunner, StudySpec, SweepStats, ValidationRunner, ValidationSpec, ValidationStats,
    WorkloadSelector,
};
use moard_json::{Json, ToJson};
use moard_workloads::{Registry, WorkloadRegistry};

/// `println!` that ignores a closed stdout (e.g. `moard list | head -1`)
/// instead of panicking on the broken pipe.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

const USAGE: &str = "usage: moard [--format json|text] <command> [args]
  moard list
  moard analyze <workload> [object] [--k N] [--stride N] [--max-dfi N] [--patterns P]
                [--no-dfi] [--seq] [--trace-backend B] [--replay-batch N|off]
  moard report  <workload> [object...] [--k N] [--stride N] [--max-dfi N] [--patterns P]
                [--no-dfi] [--trace-backend B] [--replay-batch N|off]
  moard sweep   [workload...] [--workloads all|table1|w1,w2] [--objects o1,o2]
                [--k N,N...] [--stride N,N...] [--max-dfi N|unbounded,...]
                [--patterns P,P...] [--no-dfi]
                [--rfi-tests N,N...] [--rfi-seed N] [--store DIR] [--resume]
                [--seq | --threads N] [--trace-backend B] [--replay-batch N|off]
  moard validate [workload...] [--workloads all|table1|w1,w2] [--objects o1,o2]
                [--k N] [--stride N] [--max-dfi N|unbounded] [--patterns P] [--no-dfi]
                [--confidence 90|95|99] [--margin F] [--max-trials N] [--seed N]
                [--tolerance F] [--store DIR] [--resume] [--seq | --threads N]
                [--emit-scenarios DIR] [--trace-backend B] [--replay-batch N|off]
  moard inject  <workload> <object> [--tests N] [--seed N] [--patterns P]
                [--exhaustive] [--budget N]
  moard minimize <workload> <object> [--report FILE] [--site REC:SLOT]
                [--mask b+b...] [--window N] [--stride N] [--patterns P]
                [--expect CLASS] [--seed N] [--name NAME] [--emit-scenario DIR]
  moard rank    <workload> [--k N] [--stride N] [--max-dfi N] [--patterns P]
  moard serve   [--addr HOST:PORT] [--port N] [--threads N] [--store DIR]
                [--trace-backend B] [--replay-batch N|off]
  moard client  <ping|metrics|cancel <job>|shutdown> --addr HOST:PORT
  moard client  <analyze|sweep|validate|minimize> --addr HOST:PORT
                [--priority low|normal|high] [job flags as for the local
                subcommand]

options:
  --format json|text   output format (default: text; `report` is always JSON)
  --stride N           analyze every N-th participation site (default 4)
  --max-dfi N          cap deterministic fault injections per object (default 5000)
  --k N                propagation window (default 50)
  --patterns P         error-pattern set: single-bit (default),
                       adjacent-bits:N (N-bit bursts, paper sec. VII-B),
                       separated-pair:N (two bits N apart), or
                       explicit:b+b,b,... (sweep accepts a comma list grid)
  --no-dfi             purely analytical lower bound (no fault injection)
  --seq                analyze objects sequentially (default: parallel)
  --trace-backend B    trace storage: memory (default) or paged[:DIR] — paged
                       streams fixed-size on-disk segments so traces never
                       need to fit in RAM; reports are bit-identical
  --replay-batch N|off lane-batched replay width 1..=64 (default 64): propagate
                       up to N faults per trace walk; `off` selects the
                       sequential one-replay-per-walk engine.  Verdicts are
                       bit-identical either way

sweep options (grid flags take comma-separated lists; the sweep covers the
full workload x object x grid cross-product):
  --workloads SEL      all (default), table1, or a comma-separated name list
  --objects o1,o2      explicit data objects (default: each workload's targets)
  --rfi-tests N,N...   attach a random-fault-injection validation leg
  --rfi-seed N         base RNG seed of the RFI leg (default 61937)
  --store DIR          persist every completed task to DIR
  --resume             fold tasks already in --store DIR as cache hits

validate options (one adaptive RFI campaign per (workload, object) cell,
site-matched to the aDVF leg's stride; see docs/ARCHITECTURE.md):
  --confidence 90|95|99  confidence level of every interval (default 95)
  --margin F           stop a cell once its Wilson half-width <= F (default 0.05)
  --max-trials N       per-cell trial cap (default 2000)
  --seed N             base RNG seed of the shard streams (default 61937)
  --tolerance F        model-error allowance of the verdict (default 0.35)
  --emit-scenarios DIR auto-minimize every model-optimistic cell into a
                       scenario spec under DIR (see `moard minimize`)

minimize options (delta-debug a reproducing failure to a 1-minimal scenario
spec; see docs/ARCHITECTURE.md):
  --report FILE        adopt stride/patterns/window/seed from a validation
                       report (the positionals select the cell)
  --site REC:SLOT      explicit starting site: `42:operand:1` or `7:store-dest`
                       (default: scan the strided population)
  --mask b+b...        explicit starting bit mask as `+`-joined bit positions,
                       e.g. `3+4` (default: scan `--patterns`)
  --window N           starting propagation window of the model leg (default 50)
  --expect CLASS       outcome class to reproduce: identical, acceptable,
                       incorrect, or crashed (default: the first incorrect or
                       crashed outcome found)
  --name NAME          scenario name (default `<workload>-<object>-<outcome>`)
  --emit-scenario DIR  write the minimal reproducer as DIR/<name>.json

serve / client options (the framed JSON protocol; see docs/ARCHITECTURE.md):
  --threads N          worker threads, N >= 1 (serve: pool size; sweep and
                       validate: task parallelism; conflicts with --seq)
  --addr HOST:PORT     serve: bind address (default 127.0.0.1:7411; port 0 =
                       ephemeral); client: daemon address (required)
  --port N             serve shorthand for --addr 127.0.0.1:N
  --priority P         client job priority: low, normal (default), or high";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Cli {
    args: Vec<String>,
    format: Format,
    registry: Registry,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let format = match take_flag_value(&mut args, "--format") {
        Ok(None) => Format::Text,
        Ok(Some(v)) if v == "text" => Format::Text,
        Ok(Some(v)) if v == "json" => Format::Json,
        Ok(Some(other)) => {
            eprintln!("unknown format `{other}` (expected `json` or `text`)");
            std::process::exit(2);
        }
        Err(()) => {
            eprintln!("flag `--format` requires a value (`json` or `text`)");
            std::process::exit(2);
        }
    };
    let cli = Cli {
        args,
        format,
        registry: moard_abft::registry_with_abft(),
    };
    match run(&cli) {
        Ok(()) => {}
        Err(CliError::Usage) => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Err(CliError::Moard(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

enum CliError {
    Usage,
    Moard(MoardError),
}

impl From<MoardError> for CliError {
    fn from(e: MoardError) -> Self {
        CliError::Moard(e)
    }
}

fn run(cli: &Cli) -> Result<(), CliError> {
    let Some(command) = cli.args.first().map(String::as_str) else {
        return Err(CliError::Usage);
    };
    let Some(allowed) = allowed_flags(command) else {
        return Err(CliError::Usage);
    };
    check_flags(command, allowed, &cli.args)?;
    match command {
        "list" => cmd_list(cli),
        "analyze" => cmd_analyze(cli),
        "report" => cmd_report(cli),
        "sweep" => cmd_sweep(cli),
        "validate" => cmd_validate(cli),
        "inject" => cmd_inject(cli),
        "minimize" => cmd_minimize(cli),
        "rank" => cmd_rank(cli),
        "serve" => cmd_serve(cli),
        "client" => cmd_client(cli),
        _ => unreachable!("allowed_flags resolved the command"),
    }
}

/// Flags that take a value.
const VALUED_FLAGS: &[&str] = &[
    "--k",
    "--stride",
    "--max-dfi",
    "--tests",
    "--seed",
    "--budget",
    "--workloads",
    "--objects",
    "--rfi-tests",
    "--rfi-seed",
    "--store",
    "--confidence",
    "--margin",
    "--max-trials",
    "--tolerance",
    "--patterns",
    "--threads",
    "--addr",
    "--port",
    "--priority",
    "--report",
    "--site",
    "--mask",
    "--window",
    "--expect",
    "--name",
    "--emit-scenario",
    "--emit-scenarios",
    "--trace-backend",
    "--replay-batch",
];
/// Boolean flags.
const BOOL_FLAGS: &[&str] = &["--no-dfi", "--seq", "--exhaustive", "--resume"];

/// The flags each subcommand actually reads, or `None` for an unknown
/// subcommand.  A flag outside its command's list is an error even though
/// another command accepts it — `moard sweep --max-trials 10` must not
/// silently run an uncapped sweep.
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    const ANALYSIS: &[&str] = &[
        "--k",
        "--stride",
        "--max-dfi",
        "--patterns",
        "--no-dfi",
        "--seq",
        "--trace-backend",
        "--replay-batch",
    ];
    const SWEEP: &[&str] = &[
        "--k",
        "--stride",
        "--max-dfi",
        "--patterns",
        "--no-dfi",
        "--seq",
        "--workloads",
        "--objects",
        "--rfi-tests",
        "--rfi-seed",
        "--store",
        "--resume",
        "--threads",
        "--trace-backend",
        "--replay-batch",
    ];
    const VALIDATE: &[&str] = &[
        "--k",
        "--stride",
        "--max-dfi",
        "--patterns",
        "--no-dfi",
        "--seq",
        "--workloads",
        "--objects",
        "--confidence",
        "--margin",
        "--max-trials",
        "--seed",
        "--tolerance",
        "--store",
        "--resume",
        "--threads",
        "--emit-scenarios",
        "--trace-backend",
        "--replay-batch",
    ];
    const INJECT: &[&str] = &[
        "--k",
        "--stride",
        "--max-dfi",
        "--patterns",
        "--no-dfi",
        "--seq",
        "--tests",
        "--seed",
        "--exhaustive",
        "--budget",
    ];
    const MINIMIZE: &[&str] = &[
        "--report",
        "--site",
        "--mask",
        "--window",
        "--stride",
        "--patterns",
        "--expect",
        "--seed",
        "--name",
        "--emit-scenario",
    ];
    const SERVE: &[&str] = &[
        "--addr",
        "--port",
        "--threads",
        "--store",
        "--trace-backend",
        "--replay-batch",
    ];
    // The union of every job the client can submit, plus the connection
    // flags.  No `--seq`/`--threads` (the daemon's pool decides), no
    // `--store`/`--resume` (the store lives with the daemon).
    const CLIENT: &[&str] = &[
        "--addr",
        "--priority",
        "--k",
        "--stride",
        "--max-dfi",
        "--patterns",
        "--no-dfi",
        "--workloads",
        "--objects",
        "--rfi-tests",
        "--rfi-seed",
        "--confidence",
        "--margin",
        "--max-trials",
        "--seed",
        "--tolerance",
        "--report",
        "--site",
        "--mask",
        "--window",
        "--expect",
        "--name",
    ];
    match command {
        "list" => Some(&[]),
        "analyze" | "report" | "rank" => Some(ANALYSIS),
        "sweep" => Some(SWEEP),
        "validate" => Some(VALIDATE),
        "inject" => Some(INJECT),
        "minimize" => Some(MINIMIZE),
        "serve" => Some(SERVE),
        "client" => Some(CLIENT),
        _ => None,
    }
}

/// Reject unknown `--` flags (a typo — `--no-dfl`, `--exhuastive`,
/// `--format=json` — must not silently run the analysis under settings the
/// user did not ask for) and flags the current subcommand does not read
/// (a misplaced flag would be silently dropped).
fn check_flags(command: &str, allowed: &[&str], args: &[String]) -> Result<(), CliError> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if !a.starts_with("--") {
            continue;
        }
        let flag = a.as_str();
        if VALUED_FLAGS.contains(&flag) {
            skip = true;
        } else if !BOOL_FLAGS.contains(&flag) {
            return Err(CliError::Moard(MoardError::InvalidConfig(format!(
                "unknown flag `{a}` (see `moard` usage; note `--flag value`, not `--flag=value`)"
            ))));
        }
        if !allowed.contains(&flag) {
            return Err(CliError::Moard(MoardError::InvalidConfig(format!(
                "flag `{flag}` is not valid for `moard {command}` (see `moard` usage)"
            ))));
        }
    }
    Ok(())
}

/// Value of `--flag <value>`, removed from `args` if present.  A dangling
/// flag with no value is `Err` — it must not silently fall back to the
/// default.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ()> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Value of a numeric `--flag N`.  A present flag with a missing or
/// unparseable value is a hard error — silently falling back to a default
/// would run the analysis under settings the user did not ask for.
fn flag_value(args: &[String], flag: &str) -> Result<Option<u64>, MoardError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or_else(|| {
        MoardError::InvalidConfig(format!("flag `{flag}` requires a numeric value"))
    })?;
    value.parse().map(Some).map_err(|_| {
        MoardError::InvalidConfig(format!(
            "flag `{flag}` expects an unsigned integer, got `{value}`"
        ))
    })
}

/// Value of a string-valued `--flag value` (non-removing).  A present flag
/// with a missing value is a hard error — and so is a following `--token`,
/// which would otherwise be swallowed as the value (`--store --resume`
/// must not create a directory literally named `--resume`).
fn str_flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, MoardError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.as_str())),
        _ => Err(MoardError::InvalidConfig(format!(
            "flag `{flag}` requires a value"
        ))),
    }
}

/// One `--max-dfi` item: `unbounded`/`none` lifts the cap, anything else
/// must be an unsigned cap (shared by `sweep`'s grid list and `validate`'s
/// single value).
fn parse_max_dfi(item: &str) -> Result<Option<u64>, MoardError> {
    match item.trim() {
        "unbounded" | "none" => Ok(None),
        number => number.parse::<u64>().map(Some).map_err(|_| {
            MoardError::InvalidConfig(format!(
                "flag `--max-dfi` expects unsigned integers or `unbounded`, got `{number}`"
            ))
        }),
    }
}

/// One `--patterns` item, parsed via the canonical pattern-set grammar
/// (`single-bit`, `adjacent-bits:N`, `separated-pair:N`,
/// `explicit:b+b,...`).
fn parse_patterns(item: &str) -> Result<moard_core::ErrorPatternSet, MoardError> {
    moard_core::ErrorPatternSet::from_canonical(item.trim()).ok_or_else(|| {
        MoardError::InvalidConfig(format!(
            "flag `--patterns` expects `single-bit`, `adjacent-bits:N`, `separated-pair:N` \
             (N >= 1), or `explicit:b+b,...` with strictly increasing bits, got `{item}`"
        ))
    })
}

/// The single-valued `--patterns P` of analyze/report/rank/validate/inject
/// (`sweep` takes a comma-separated grid list instead).
fn patterns_flag(args: &[String]) -> Result<Option<moard_core::ErrorPatternSet>, MoardError> {
    match str_flag_value(args, "--patterns")? {
        None => Ok(None),
        Some(text) => parse_patterns(text).map(Some),
    }
}

/// The shared `--trace-backend memory|paged[:DIR]` flag of the analysis,
/// sweep, validate, and serve subcommands.  Purely an execution-resource
/// choice — never part of any fingerprint, and reports are bit-identical
/// across backends.
fn trace_backend_flag(args: &[String]) -> Result<Option<moard_vm::TraceBackendSpec>, MoardError> {
    match str_flag_value(args, "--trace-backend")? {
        None => Ok(None),
        Some(text) => moard_vm::TraceBackendSpec::parse(text)
            .map(Some)
            .map_err(|e| MoardError::InvalidConfig(format!("flag `--trace-backend`: {e}"))),
    }
}

/// The shared `--replay-batch N|off` flag of the analysis, sweep, validate,
/// and serve subcommands.  Like `--trace-backend`, purely an
/// execution-resource choice — never part of any fingerprint, and verdicts
/// are bit-identical across widths.
fn replay_batch_flag(args: &[String]) -> Result<Option<moard_core::ReplayBatch>, MoardError> {
    match str_flag_value(args, "--replay-batch")? {
        None => Ok(None),
        Some(text) => moard_core::ReplayBatch::parse_flag(text)
            .map(Some)
            .map_err(|e| MoardError::InvalidConfig(format!("flag `--replay-batch`: {e}"))),
    }
}

/// Value of a fractional `--flag F` (e.g. `--margin 0.05`).
fn float_flag_value(args: &[String], flag: &str) -> Result<Option<f64>, MoardError> {
    let Some(text) = str_flag_value(args, flag)? else {
        return Ok(None);
    };
    text.parse().map(Some).map_err(|_| {
        MoardError::InvalidConfig(format!("flag `{flag}` expects a number, got `{text}`"))
    })
}

/// The shared `--threads N` flag of `serve`, `sweep`, and `validate`: an
/// explicit worker count.  Zero is a typed error, not a silent fallback —
/// a zero-thread pool could never run a job, and the user who typed it
/// probably meant `--seq`.
fn threads_flag(args: &[String]) -> Result<Option<usize>, MoardError> {
    match flag_value(args, "--threads")? {
        Some(0) => Err(MoardError::InvalidConfig(
            "flag `--threads` expects an integer >= 1 (a zero-thread pool could never run a \
             job; use `--seq` for sequential execution)"
                .into(),
        )),
        Some(n) => Ok(Some(n as usize)),
        None => Ok(None),
    }
}

/// The `--seq | --threads N` choice of `sweep` and `validate`.  Giving both
/// is a contradiction the CLI refuses rather than resolves.
fn parallelism_flags(args: &[String]) -> Result<Option<Parallelism>, MoardError> {
    let threads = threads_flag(args)?;
    if has_flag(args, "--seq") {
        return match threads {
            Some(_) => Err(MoardError::InvalidConfig(
                "`--seq` and `--threads` contradict each other; use one".into(),
            )),
            None => Ok(Some(Parallelism::Sequential)),
        };
    }
    Ok(threads.map(Parallelism::Fixed))
}

/// Value of a comma-separated numeric list `--flag N,N,...`.
fn flag_list(args: &[String], flag: &str) -> Result<Option<Vec<u64>>, MoardError> {
    let Some(text) = str_flag_value(args, flag)? else {
        return Ok(None);
    };
    text.split(',')
        .map(|item| {
            item.trim().parse::<u64>().map_err(|_| {
                MoardError::InvalidConfig(format!(
                    "flag `{flag}` expects comma-separated unsigned integers, got `{item}`"
                ))
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Positional (non-flag) arguments after the subcommand, skipping flag values.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in &args[1..] {
        if skip {
            skip = false;
            continue;
        }
        if VALUED_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if a.starts_with("--") {
            continue;
        }
        out.push(a);
    }
    out
}

/// Session builder with the CLI's analysis settings applied.
fn configured_session(
    cli: &Cli,
    workload: &str,
) -> Result<moard_inject::SessionBuilder, MoardError> {
    let mut builder = Session::for_workload_in(&cli.registry, workload)?
        .stride(flag_value(&cli.args, "--stride")?.unwrap_or(4) as usize)
        .max_dfi(flag_value(&cli.args, "--max-dfi")?.unwrap_or(5_000));
    if let Some(k) = flag_value(&cli.args, "--k")? {
        builder = builder.window(k as usize);
    }
    if let Some(patterns) = patterns_flag(&cli.args)? {
        builder = builder.patterns(patterns);
    }
    if has_flag(&cli.args, "--no-dfi") {
        builder = builder.without_dfi();
    }
    if has_flag(&cli.args, "--seq") {
        builder = builder.parallelism(Parallelism::Sequential);
    }
    if let Some(backend) = trace_backend_flag(&cli.args)? {
        builder = builder.trace_backend(backend);
    }
    if let Some(batch) = replay_batch_flag(&cli.args)? {
        builder = builder.replay_batch(batch);
    }
    Ok(builder)
}

fn session_for_positionals(cli: &Cli) -> Result<SessionReport, CliError> {
    let pos = positionals(&cli.args);
    let Some(workload) = pos.first() else {
        return Err(CliError::Usage);
    };
    let mut builder = configured_session(cli, workload)?;
    for object in &pos[1..] {
        builder = builder.object(object.as_str());
    }
    Ok(builder.run()?)
}

fn cmd_list(cli: &Cli) -> Result<(), CliError> {
    let descriptors = cli.registry.descriptors();
    match cli.format {
        Format::Json => {
            let doc = Json::object([
                ("schema_version", Json::from(moard_core::SCHEMA_VERSION)),
                (
                    "workloads",
                    Json::array(descriptors.iter().map(|d| {
                        Json::object([
                            ("name", Json::from(d.name)),
                            (
                                "aliases",
                                Json::array(d.aliases.iter().map(|a| Json::from(*a))),
                            ),
                            ("description", Json::from(d.description)),
                            ("code_segment", Json::from(d.code_segment)),
                            (
                                "targets",
                                Json::array(d.targets.iter().map(|t| Json::from(*t))),
                            ),
                            ("table1", Json::from(d.table1)),
                        ])
                    })),
                ),
            ]);
            out!("{}", doc.to_pretty());
        }
        Format::Text => {
            out!(
                "{:<8} {:<55} {:<30} target data objects",
                "name",
                "description",
                "code segment"
            );
            for d in &descriptors {
                out!(
                    "{:<8} {:<55} {:<30} {}",
                    d.name,
                    d.description,
                    d.code_segment,
                    d.targets.join(", ")
                );
            }
        }
    }
    Ok(())
}

fn cmd_analyze(cli: &Cli) -> Result<(), CliError> {
    let report = session_for_positionals(cli)?;
    match cli.format {
        Format::Json => out!("{}", report.to_json().to_pretty()),
        Format::Text => {
            for r in &report.reports {
                print_report(r);
            }
        }
    }
    Ok(())
}

fn cmd_report(cli: &Cli) -> Result<(), CliError> {
    // `report` exists to feed machines; it is JSON regardless of --format.
    let report = session_for_positionals(cli)?;
    out!("{}", report.to_json().to_pretty());
    Ok(())
}

/// The [`WorkloadSelector`] described by `--workloads` and/or positional
/// workload names (shared by `sweep` and `validate`, locally and over the
/// daemon protocol — `args[0]` is the subcommand or client op).
fn workload_selector(args: &[String]) -> Result<WorkloadSelector, MoardError> {
    let pos = positionals(args);
    Ok(match str_flag_value(args, "--workloads")? {
        // Giving both forms would silently drop one of them; reject instead.
        Some(_) if !pos.is_empty() => {
            return Err(MoardError::InvalidConfig(format!(
                "workloads given both positionally (`{}`) and via `--workloads`; use one form",
                pos.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ")
            )))
        }
        Some("all") => WorkloadSelector::All,
        Some("table1") => WorkloadSelector::Table1,
        Some(list) => WorkloadSelector::Named(list.split(',').map(|s| s.trim().into()).collect()),
        None if !pos.is_empty() => WorkloadSelector::Named(
            pos.iter()
                .flat_map(|s| s.split(','))
                .map(|s| s.trim().to_string())
                .collect(),
        ),
        None => WorkloadSelector::All,
    })
}

/// Build the [`StudySpec`] described by the sweep command line
/// (`args[0]` is the subcommand or client op).
fn sweep_spec(args: &[String]) -> Result<StudySpec, MoardError> {
    let workloads = workload_selector(args)?;
    let mut spec = StudySpec::default()
        .workloads(workloads)
        .windows(
            flag_list(args, "--k")?
                .unwrap_or_else(|| vec![50])
                .into_iter()
                .map(|v| v as usize)
                .collect(),
        )
        .strides(
            flag_list(args, "--stride")?
                .unwrap_or_else(|| vec![4])
                .into_iter()
                .map(|v| v as usize)
                .collect(),
        )
        .max_dfis(match str_flag_value(args, "--max-dfi")? {
            None => vec![Some(5_000)],
            Some(list) => list
                .split(',')
                .map(parse_max_dfi)
                .collect::<Result<Vec<_>, _>>()?,
        });
    if let Some(list) = str_flag_value(args, "--patterns")? {
        // Explicit pattern sets contain commas of their own
        // (`explicit:0,63`), so the grid list cannot be naively split; an
        // `explicit:` entry swallows the items that follow it.
        let mut sets = Vec::new();
        let mut rest = list;
        loop {
            let (item, tail) = match rest.find(',') {
                Some(at) if !rest.trim_start().starts_with("explicit:") => {
                    (&rest[..at], Some(&rest[at + 1..]))
                }
                _ => (rest, None),
            };
            sets.push(parse_patterns(item)?);
            match tail {
                Some(tail) => rest = tail,
                None => break,
            }
        }
        spec = spec.patterns(sets);
    }
    if let Some(objects) = str_flag_value(args, "--objects")? {
        spec = spec.objects(ObjectSelector::Named(
            objects.split(',').map(|s| s.trim().into()).collect(),
        ));
    }
    if has_flag(args, "--no-dfi") {
        spec = spec.without_dfi();
    }
    if let Some(tests) = flag_list(args, "--rfi-tests")? {
        let seed = flag_value(args, "--rfi-seed")?.unwrap_or(0xF1_F1);
        spec = spec.rfi_leg(tests.into_iter().map(|v| v as usize).collect(), seed);
    }
    Ok(spec)
}

/// The `--store DIR` / `--resume` pair, with the resume-requires-store rule
/// enforced (shared by `sweep` and `validate`).
fn store_flags(args: &[String]) -> Result<(Option<&str>, bool), MoardError> {
    let resume = has_flag(args, "--resume");
    match str_flag_value(args, "--store")? {
        Some(dir) => Ok((Some(dir), resume)),
        None if resume => Err(MoardError::InvalidConfig(
            "`--resume` requires `--store DIR` (there is nothing to resume from)".into(),
        )),
        None => Ok((None, false)),
    }
}

fn cmd_sweep(cli: &Cli) -> Result<(), CliError> {
    let spec = sweep_spec(&cli.args)?;
    let mut runner = StudyRunner::new(spec);
    if let Some(parallelism) = parallelism_flags(&cli.args)? {
        runner = runner.parallelism(parallelism);
    }
    if let (Some(dir), resume) = store_flags(&cli.args)? {
        runner = runner.store(dir)?.resume(resume);
    }
    if let Some(backend) = trace_backend_flag(&cli.args)? {
        runner = runner.trace_backend(backend);
    }
    if let Some(batch) = replay_batch_flag(&cli.args)? {
        runner = runner.replay_batch(batch);
    }
    let (report, stats) = runner.run_detailed_in(&cli.registry)?;
    match cli.format {
        Format::Json => out!("{}", report.to_json().to_pretty()),
        Format::Text => print_study(&report, &stats, &cli.registry),
    }
    Ok(())
}

fn print_study(report: &StudyReport, stats: &SweepStats, registry: &dyn WorkloadRegistry) {
    out!(
        "study fingerprint : {}",
        moard_core::fingerprint_hex(report.study_fingerprint)
    );
    out!(
        "tasks             : {} ({} executed, {} cache hits, {} harnesses prepared)",
        stats.tasks,
        stats.executed,
        stats.cache_hits,
        stats.harnesses_prepared
    );
    for workload in report.workloads() {
        out!();
        match registry.descriptor(workload) {
            Some(d) => out!("{workload} — {} [{}]", d.description, d.code_segment),
            None => out!("{workload}"),
        }
        out!(
            "  {:<14} {:>5} {:>7} {:>9} {:>16} {:>8} {:>10} {:>12} {:>10} {:>8} {:>8}",
            "object",
            "k",
            "stride",
            "max-dfi",
            "patterns",
            "aDVF",
            "op-level",
            "propagation",
            "algorithm",
            "sites",
            "dfi"
        );
        for entry in report.entries.iter().filter(|e| e.workload == workload) {
            let (op, prop, alg) = entry.advf.accumulator.level_breakdown();
            out!(
                "  {:<14} {:>5} {:>7} {:>9} {:>16} {:>8.4} {:>10.4} {:>12.4} {:>10.4} {:>8} {:>8}",
                entry.object,
                entry.config.propagation_window,
                entry.config.site_stride,
                entry
                    .config
                    .max_dfi_per_object
                    .map_or("unbounded".to_string(), |n| n.to_string()),
                entry.config.patterns.canonical(),
                entry.advf.advf(),
                op,
                prop,
                alg,
                entry.advf.sites_analyzed,
                entry.advf.dfi_runs
            );
        }
    }
    if !report.rfi.is_empty() {
        out!();
        out!("RFI validation leg:");
        out!(
            "  {:<8} {:<14} {:>16} {:>8} {:>14} {:>12}",
            "workload",
            "object",
            "patterns",
            "tests",
            "success rate",
            "margin(95%)"
        );
        for entry in &report.rfi {
            out!(
                "  {:<8} {:<14} {:>16} {:>8} {:>14.4} {:>12.4}",
                entry.workload,
                entry.object,
                entry.patterns,
                entry.summary.tests,
                entry.summary.success_rate(),
                entry.summary.margin_95()
            );
        }
    }
}

/// Build the [`ValidationSpec`] described by the validate command line
/// (`args[0]` is the subcommand or client op).
fn validate_spec(args: &[String]) -> Result<ValidationSpec, MoardError> {
    let mut spec = ValidationSpec::default()
        .workloads(workload_selector(args)?)
        .stride(flag_value(args, "--stride")?.unwrap_or(4) as usize);
    spec.config.max_dfi_per_object = match str_flag_value(args, "--max-dfi")? {
        None => Some(5_000),
        Some(value) => parse_max_dfi(value)?,
    };
    if let Some(k) = flag_value(args, "--k")? {
        spec = spec.window(k as usize);
    }
    if let Some(patterns) = patterns_flag(args)? {
        spec = spec.patterns(patterns);
    }
    if has_flag(args, "--no-dfi") {
        spec = spec.without_dfi();
    }
    if let Some(objects) = str_flag_value(args, "--objects")? {
        spec = spec.objects(ObjectSelector::Named(
            objects.split(',').map(|s| s.trim().into()).collect(),
        ));
    }
    if let Some(percent) = flag_value(args, "--confidence")? {
        spec = spec.confidence(percent as f64 / 100.0);
    }
    if let Some(margin) = float_flag_value(args, "--margin")? {
        spec = spec.target_margin(margin);
    }
    if let Some(cap) = flag_value(args, "--max-trials")? {
        spec = spec.max_trials(cap);
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        spec = spec.seed(seed);
    }
    if let Some(tolerance) = float_flag_value(args, "--tolerance")? {
        spec = spec.tolerance(tolerance);
    }
    Ok(spec)
}

fn cmd_validate(cli: &Cli) -> Result<(), CliError> {
    let spec = validate_spec(&cli.args)?;
    let mut runner = ValidationRunner::new(spec);
    if let Some(parallelism) = parallelism_flags(&cli.args)? {
        runner = runner.parallelism(parallelism);
    }
    if let (Some(dir), resume) = store_flags(&cli.args)? {
        runner = runner.store(dir)?.resume(resume);
    }
    let backend = trace_backend_flag(&cli.args)?;
    if let Some(backend) = &backend {
        runner = runner.trace_backend(backend.clone());
    }
    if let Some(batch) = replay_batch_flag(&cli.args)? {
        runner = runner.replay_batch(batch);
    }
    let (report, stats) = runner.run_detailed_in(&cli.registry)?;
    match cli.format {
        Format::Json => out!("{}", report.to_json().to_pretty()),
        Format::Text => print_validation(&report, &stats, &cli.registry),
    }
    if let Some(dir) = str_flag_value(&cli.args, "--emit-scenarios")? {
        let cache = match backend {
            Some(backend) => moard_inject::HarnessCache::with_backend(backend),
            None => moard_inject::HarnessCache::new(),
        };
        let cancel = moard_inject::CancelToken::new();
        let outcome = moard_inject::emit_validation_scenarios(
            &report,
            &cli.registry,
            &cache,
            std::path::Path::new(dir),
            &cancel,
        )?;
        // Emission is a side product: keep stdout's report schema stable by
        // narrating to stderr in JSON mode, stdout in text mode.
        let say = |line: String| match cli.format {
            Format::Json => eprintln!("{line}"),
            Format::Text => out!("{line}"),
        };
        for e in &outcome.emitted {
            say(format!(
                "minimized {}/{} -> {}",
                e.workload,
                e.object,
                e.path.display()
            ));
        }
        for (workload, object, reason) in &outcome.skipped {
            say(format!("could not minimize {workload}/{object}: {reason}"));
        }
        if outcome.emitted.is_empty() && outcome.skipped.is_empty() {
            say("no model-optimistic cells to minimize".to_string());
        }
    }
    Ok(())
}

fn print_validation(
    report: &ValidationReport,
    stats: &ValidationStats,
    registry: &dyn WorkloadRegistry,
) {
    out!(
        "spec fingerprint  : {}",
        moard_core::fingerprint_hex(report.spec_fingerprint)
    );
    out!(
        "cells             : {} ({} advf + {} rfi executed, {} cache hits, {} harnesses prepared, {} trials)",
        stats.cells,
        stats.advf_executed,
        stats.rfi_executed,
        stats.cache_hits,
        stats.harnesses_prepared,
        stats.trials_executed
    );
    out!(
        "campaign          : {:.0}% confidence, target margin {}, cap {} trials/cell, seed {}, tolerance {}, patterns {}",
        report.confidence * 100.0,
        report.target_margin,
        report.max_trials,
        report.seed,
        report.tolerance,
        report.config.patterns.canonical()
    );
    for workload in report.workloads() {
        out!();
        match registry.descriptor(workload) {
            Some(d) => out!("{workload} — {} [{}]", d.description, d.code_segment),
            None => out!("{workload}"),
        }
        out!(
            "  {:<14} {:>8} {:>9} {:>8} {:>8} {:>7} {:>7} {:>10}  verdict",
            "object",
            "aDVF",
            "RFI rate",
            "ci-low",
            "ci-high",
            "trials",
            "shards",
            "deviation"
        );
        for cell in report.cells.iter().filter(|c| c.workload == workload) {
            let (low, high) = cell.rfi.wilson_bounds(report.confidence);
            out!(
                "  {:<14} {:>8.4} {:>9.4} {:>8.4} {:>8.4} {:>7} {:>7} {:>10.4}  {}{}",
                cell.object,
                cell.advf.advf(),
                cell.rfi.success_rate(),
                low,
                high,
                cell.rfi.trials(),
                cell.rfi.shards,
                report.deviation(cell),
                report.verdict(cell).as_str(),
                if report.model_truncated(cell) {
                    " (dfi budget truncated)"
                } else {
                    ""
                }
            );
        }
        let rank = report.rank(workload);
        if let Some(tau) = rank.correlation() {
            out!(
                "  rank correlation: {tau:+.2} ({} concordant / {} discordant of {} resolved pairs)",
                rank.concordant,
                rank.discordant,
                rank.resolved_pairs
            );
        }
    }
    out!();
    out!(
        "agreement         : {}/{} cells",
        report.agreed(),
        report.cells.len()
    );
}

fn cmd_inject(cli: &Cli) -> Result<(), CliError> {
    let pos = positionals(&cli.args);
    let (Some(workload), Some(object)) = (pos.first(), pos.get(1)) else {
        return Err(CliError::Usage);
    };
    let session = configured_session(cli, workload)?
        .object(object.as_str())
        .build()?;
    let harness = session.harness();
    let stats = if has_flag(&cli.args, "--exhaustive") {
        harness.exhaustive_with_budget(
            object,
            flag_value(&cli.args, "--budget")?.unwrap_or(5_000),
            &patterns_flag(&cli.args)?.unwrap_or_default(),
        )?
    } else {
        harness.rfi(
            object,
            &RfiConfig {
                tests: flag_value(&cli.args, "--tests")?.unwrap_or(1_000) as usize,
                seed: flag_value(&cli.args, "--seed")?.unwrap_or(0xF1F1),
                parallelism: Parallelism::Auto,
                patterns: patterns_flag(&cli.args)?.unwrap_or_default(),
            },
        )?
    };
    match cli.format {
        Format::Json => {
            let mut doc = stats.to_json();
            if let Json::Obj(members) = &mut doc {
                members.insert(
                    1,
                    ("workload".into(), Json::from(harness.workload().name())),
                );
                members.insert(2, ("object".into(), Json::from(object.as_str())));
            }
            out!("{}", doc.to_pretty());
        }
        Format::Text => {
            out!("workload      : {}", harness.workload().name());
            out!("data object   : {object}");
            out!("injections    : {}", stats.runs);
            out!("identical     : {}", stats.identical);
            out!("acceptable    : {}", stats.acceptable);
            out!("incorrect     : {}", stats.incorrect);
            out!("crashed       : {}", stats.crashed);
            out!("success rate  : {:.4}", stats.success_rate());
            out!("margin (95%)  : {:.4}", stats.margin_of_error(0.95));
        }
    }
    Ok(())
}

/// One `--site REC:SLOT` value: a record id, a colon, and the canonical
/// slot rendering (`operand:N` or `store-dest`).
fn parse_site(text: &str) -> Result<moard_core::ScenarioSite, MoardError> {
    let bad = || {
        MoardError::InvalidConfig(format!(
            "flag `--site` expects `RECORD:operand:N` or `RECORD:store-dest`, got `{text}`"
        ))
    };
    let (record, slot) = text.split_once(':').ok_or_else(bad)?;
    let record_id = record.trim().parse::<u64>().map_err(|_| bad())?;
    let slot = moard_core::scenario::slot_from_str(slot.trim()).map_err(|_| bad())?;
    Ok(moard_core::ScenarioSite { record_id, slot })
}

/// One `--mask b+b...` value: `+`-joined bit positions, strictly increasing
/// (the single-pattern form of the `explicit:` grammar).
fn parse_mask(text: &str) -> Result<moard_core::ErrorPattern, MoardError> {
    let bad = || {
        MoardError::InvalidConfig(format!(
            "flag `--mask` expects one `+`-joined list of strictly increasing bit positions \
             below 64, e.g. `3+4`, got `{text}`"
        ))
    };
    match moard_core::ErrorPatternSet::from_canonical(&format!("explicit:{}", text.trim())) {
        Some(moard_core::ErrorPatternSet::Explicit(mut patterns)) if patterns.len() == 1 => {
            Ok(patterns.remove(0))
        }
        _ => Err(bad()),
    }
}

/// Build the [`MinimizeSpec`] described by the minimize command line
/// (`args[0]` is the subcommand or client op).
fn minimize_spec(args: &[String]) -> Result<MinimizeSpec, CliError> {
    let pos = positionals(args);
    let (Some(workload), Some(object)) = (pos.first(), pos.get(1)) else {
        return Err(CliError::Usage);
    };
    let mut spec = MinimizeSpec::cell(workload.as_str(), object.as_str()).stride(4);
    // `--report FILE` adopts the discovering campaign's population
    // parameters, so the minimizer searches exactly the population the
    // verdict came from; explicit flags below still override per-axis.
    if let Some(path) = str_flag_value(args, "--report")? {
        let text =
            std::fs::read_to_string(path).map_err(|e| MoardError::io(path.to_string(), e))?;
        let report = ValidationReport::from_json_str(&text)?;
        if !report
            .cells
            .iter()
            .any(|c| c.workload.eq_ignore_ascii_case(workload) && c.object == **object)
        {
            return Err(MoardError::InvalidConfig(format!(
                "report `{path}` has no cell `{workload}/{object}` (cells: {})",
                report
                    .cells
                    .iter()
                    .map(|c| format!("{}/{}", c.workload, c.object))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .into());
        }
        spec = spec
            .stride(report.config.site_stride)
            .patterns(report.config.patterns.clone())
            .window(report.config.propagation_window)
            .seed(report.seed);
    }
    if let Some(stride) = flag_value(args, "--stride")? {
        spec = spec.stride(stride as usize);
    }
    if let Some(patterns) = patterns_flag(args)? {
        spec = spec.patterns(patterns);
    }
    if let Some(k) = flag_value(args, "--window")? {
        spec = spec.window(k as usize);
    }
    if let Some(text) = str_flag_value(args, "--site")? {
        let site = parse_site(text)?;
        spec = spec.site(site.record_id, site.slot);
    }
    if let Some(text) = str_flag_value(args, "--mask")? {
        spec = spec.pattern(parse_mask(text)?);
    }
    if let Some(text) = str_flag_value(args, "--expect")? {
        let expected = moard_core::scenario::outcome_from_str(text).map_err(|_| {
            MoardError::InvalidConfig(format!(
                "flag `--expect` expects `identical`, `acceptable`, `incorrect`, or \
                 `crashed`, got `{text}`"
            ))
        })?;
        spec = spec.expected(expected);
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        spec = spec.seed(seed);
    }
    if let Some(name) = str_flag_value(args, "--name")? {
        spec = spec.name(name);
    }
    Ok(spec)
}

fn cmd_minimize(cli: &Cli) -> Result<(), CliError> {
    let spec = minimize_spec(&cli.args)?;
    let cache = moard_inject::HarnessCache::new();
    let cancel = moard_inject::CancelToken::new();
    let report = moard_inject::run_minimize_in(&cli.registry, &cache, &spec, &cancel)?;
    let written = match str_flag_value(&cli.args, "--emit-scenario")? {
        Some(dir) => Some(moard_inject::write_scenario(
            std::path::Path::new(dir),
            &report.scenario,
        )?),
        None => None,
    };
    match cli.format {
        Format::Json => {
            // Keep stdout pure report JSON; the written path goes to stderr.
            if let Some(path) = &written {
                eprintln!("scenario written: {}", path.display());
            }
            out!("{}", report.to_json().to_pretty());
        }
        Format::Text => {
            print_minimize(&report);
            if let Some(path) = &written {
                out!("scenario written  : {}", path.display());
            }
        }
    }
    Ok(())
}

fn print_minimize(report: &MinimizeReport) {
    let s = &report.scenario;
    out!("workload          : {}", s.workload);
    out!("data object       : {}", s.object);
    out!("scenario          : {}", s.name);
    out!(
        "sites             : {} -> {} (record {} {})",
        report.initial_sites,
        s.sites.len(),
        s.sites[0].record_id,
        moard_core::scenario::slot_to_string(s.sites[0].slot)
    );
    out!(
        "mask bits         : {} -> {} ({:?})",
        report.initial_bits,
        s.pattern.bits.len(),
        s.pattern.bits
    );
    out!(
        "window            : {} -> {}",
        report.initial_window,
        s.window
    );
    out!(
        "expected outcome  : {}",
        moard_core::scenario::outcome_to_str(s.expected_outcome)
    );
    out!("model class       : {}", s.expected_model_class);
    out!(
        "fragment          : {}",
        moard_core::fingerprint_hex(s.fragment_fingerprint)
    );
    out!(
        "oracle probes     : {} ({} injections, {} memo hits)",
        report.probes,
        report.injections,
        report.cache_hits()
    );
}

fn cmd_rank(cli: &Cli) -> Result<(), CliError> {
    let mut report = session_for_positionals(cli)?;
    report.reports.sort_by(|a, b| {
        a.advf()
            .partial_cmp(&b.advf())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    match cli.format {
        Format::Json => {
            let doc = Json::object([
                ("schema_version", Json::from(moard_core::SCHEMA_VERSION)),
                ("workload", Json::from(report.workload.as_str())),
                ("order", Json::from("most vulnerable first")),
                (
                    "ranking",
                    Json::array(report.reports.iter().map(|r| {
                        Json::object([
                            ("object", Json::from(r.object.as_str())),
                            ("advf", Json::from(r.advf())),
                        ])
                    })),
                ),
            ]);
            out!("{}", doc.to_pretty());
        }
        Format::Text => {
            out!(
                "data objects of {} from most to least vulnerable:",
                report.workload
            );
            for r in &report.reports {
                out!("  {:<14} aDVF = {:.4}", r.object, r.advf());
            }
        }
    }
    Ok(())
}

fn cmd_serve(cli: &Cli) -> Result<(), CliError> {
    let addr_flag = str_flag_value(&cli.args, "--addr")?;
    let addr = match flag_value(&cli.args, "--port")? {
        // `--addr` carries a port of its own; accepting both would silently
        // drop one of them.
        Some(_) if addr_flag.is_some() => {
            return Err(CliError::Moard(MoardError::InvalidConfig(
                "`--addr` and `--port` contradict each other; use one".into(),
            )))
        }
        Some(port) => {
            let port = u16::try_from(port).map_err(|_| {
                MoardError::InvalidConfig(format!(
                    "flag `--port` expects a port number, got `{port}`"
                ))
            })?;
            format!("127.0.0.1:{port}")
        }
        None => addr_flag.unwrap_or("127.0.0.1:7411").to_string(),
    };
    let daemon = moard_server::Daemon::start(moard_server::DaemonConfig {
        addr,
        threads: threads_flag(&cli.args)?.unwrap_or(0),
        store: str_flag_value(&cli.args, "--store")?.map(Into::into),
        trace_backend: trace_backend_flag(&cli.args)?.unwrap_or_default(),
        replay_batch: replay_batch_flag(&cli.args)?.unwrap_or_default(),
    })?;
    // Scraped by scripts and CI (port 0 resolves to the ephemeral port
    // here): keep the exact shape, and flush before the blocking join.
    out!("moard serve listening on {}", daemon.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    daemon.join();
    out!("moard serve stopped");
    Ok(())
}

/// Job priority from `--priority low|normal|high` (default normal).
fn priority_flag(args: &[String]) -> Result<moard_server::Priority, MoardError> {
    match str_flag_value(args, "--priority")? {
        None => Ok(moard_server::Priority::Normal),
        Some(text) => moard_server::Priority::parse(text).ok_or_else(|| {
            MoardError::InvalidConfig(format!(
                "flag `--priority` expects `low`, `normal`, or `high`, got `{text}`"
            ))
        }),
    }
}

fn cmd_client(cli: &Cli) -> Result<(), CliError> {
    use moard_server::{Client, Request, Response};
    // Everything after `client` is the daemon operation's own command
    // line: `sub[0]` is the op, so `positionals`/spec builders read it
    // exactly like a local subcommand.
    let sub = &cli.args[1..];
    let Some(op) = sub.first().map(String::as_str) else {
        return Err(CliError::Usage);
    };
    let addr = str_flag_value(&cli.args, "--addr")?.ok_or_else(|| {
        MoardError::InvalidConfig(
            "`moard client` needs `--addr HOST:PORT` of a running daemon (start one with \
             `moard serve`)"
                .into(),
        )
    })?;
    let mut client = Client::connect(addr)?;
    let request = match op {
        "ping" => {
            client.ping()?;
            out!("pong");
            return Ok(());
        }
        "shutdown" => {
            client.shutdown()?;
            out!("shutdown acknowledged");
            return Ok(());
        }
        "metrics" => {
            let doc = client.metrics()?;
            match cli.format {
                Format::Json => out!("{}", doc.to_pretty()),
                Format::Text => out!(
                    "{}",
                    moard_server::metrics::exposition_from_json(&doc)
                        .map_err(MoardError::from)?
                        .trim_end()
                ),
            }
            return Ok(());
        }
        "cancel" => {
            let pos = positionals(sub);
            let job = pos
                .first()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| {
                    MoardError::InvalidConfig(
                        "`moard client cancel` needs the numeric job id printed at submission"
                            .into(),
                    )
                })?;
            return match client.cancel(job)? {
                Response::Ok => {
                    out!("cancelled job {job}");
                    Ok(())
                }
                Response::Error { message } => Err(MoardError::InvalidConfig(message).into()),
                other => Err(MoardError::InvalidConfig(format!(
                    "daemon answered `cancel` with an unexpected `{}` frame",
                    other.kind()
                ))
                .into()),
            };
        }
        "analyze" => {
            let pos = positionals(sub);
            let Some(workload) = pos.first() else {
                return Err(CliError::Usage);
            };
            let mut config = moard_core::AnalysisConfig {
                site_stride: flag_value(sub, "--stride")?.unwrap_or(4) as usize,
                max_dfi_per_object: match str_flag_value(sub, "--max-dfi")? {
                    None => Some(5_000),
                    Some(value) => parse_max_dfi(value)?,
                },
                ..moard_core::AnalysisConfig::default()
            };
            if let Some(k) = flag_value(sub, "--k")? {
                config.propagation_window = k as usize;
            }
            if let Some(patterns) = patterns_flag(sub)? {
                config.patterns = patterns;
            }
            Request::Analyze {
                workload: workload.to_string(),
                objects: pos[1..].iter().map(|s| s.to_string()).collect(),
                config,
                use_dfi: !has_flag(sub, "--no-dfi"),
                priority: priority_flag(sub)?,
            }
        }
        "sweep" => Request::Sweep {
            spec: sweep_spec(sub)?,
            priority: priority_flag(sub)?,
        },
        "validate" => Request::Validate {
            spec: validate_spec(sub)?,
            priority: priority_flag(sub)?,
        },
        "minimize" => Request::Minimize {
            spec: minimize_spec(sub)?,
            priority: priority_flag(sub)?,
        },
        _ => return Err(CliError::Usage),
    };
    let (job, response) = client.submit(&request)?;
    match response {
        Response::Result {
            op,
            cache_hits,
            executed,
            payload,
            ..
        } => match cli.format {
            Format::Json => out!(
                "{}",
                Json::object([
                    ("job", Json::from(job)),
                    ("op", Json::from(op.as_str())),
                    ("cache_hits", Json::from(cache_hits)),
                    ("executed", Json::from(executed)),
                    ("payload", payload),
                ])
                .to_pretty()
            ),
            Format::Text => {
                out!("job {job} ({op}): {executed} executed, {cache_hits} cache hits");
                out!("{}", payload.to_pretty());
            }
        },
        Response::Cancelled { .. } => out!("job {job} cancelled"),
        Response::Error { message } => return Err(MoardError::InvalidConfig(message).into()),
        other => {
            return Err(MoardError::InvalidConfig(format!(
                "daemon answered job {job} with an unexpected `{}` frame",
                other.kind()
            ))
            .into())
        }
    }
    Ok(())
}

fn print_report(report: &moard_core::AdvfReport) {
    let (op, prop, alg) = report.accumulator.level_breakdown();
    let (ow, os, lc) = report.accumulator.kind_breakdown();
    out!("workload          : {}", report.workload);
    out!("data object       : {}", report.object);
    out!("error patterns    : {}", report.patterns);
    out!("aDVF              : {:.4}", report.advf());
    out!("  operation level : {op:.4} (overwriting {ow:.4}, overshadowing {os:.4}, logic/compare {lc:.4})");
    out!("  propagation     : {prop:.4}");
    out!("  algorithm       : {alg:.4}");
    out!("sites analyzed    : {}", report.sites_analyzed);
    out!(
        "DFI runs          : {} ({} cache hits, {} resolved analytically)",
        report.dfi_runs,
        report.dfi_cache_hits,
        report.resolved_analytically
    );
    if report.dfi_budget_exhausted {
        out!("note              : the DFI budget ran out, so this aDVF is a lower bound (raise --max-dfi)");
    }
    out!(
        "config fingerprint: {}",
        moard_core::fingerprint_hex(report.config_fingerprint)
    );
    out!();
}
