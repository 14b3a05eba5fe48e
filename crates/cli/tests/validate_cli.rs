//! Integration tests of the `moard validate` subcommand: the JSON and text
//! output surfaces, the resume-from-a-partial-store flow, and the error
//! paths — all through the real binary.

use moard_core::ValidationReport;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn moard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moard"))
        .args(args)
        .output()
        .expect("the moard binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("moard-cli-validate-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fast campaign: MM's one target object, heavy striding, small budgets.
const QUICK: &[&str] = &[
    "validate",
    "mm",
    "--stride",
    "32",
    "--max-dfi",
    "100",
    "--margin",
    "0.15",
    "--max-trials",
    "48",
];

#[test]
fn json_output_is_a_valid_validation_report() {
    let output = moard(&[&["--format", "json"], QUICK].concat());
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let report = ValidationReport::from_json_str(&stdout(&output)).expect("stdout parses");
    assert_eq!(report.cells.len(), 1);
    let cell = &report.cells[0];
    assert_eq!(cell.workload, "MM");
    assert_eq!(cell.object, "C");
    assert_eq!(report.config.site_stride, 32);
    assert_eq!(report.config.max_dfi_per_object, Some(100));
    assert_eq!(report.max_trials, 48);
    assert!((report.target_margin - 0.15).abs() < 1e-12);
    // The campaign really ran, stayed within its cap, and its interval is a
    // genuine sub-interval of [0, 1].
    assert!(cell.advf.sites_analyzed > 0);
    assert!(cell.rfi.trials() > 0 && cell.rfi.trials() <= 48);
    let (low, high) = cell.rfi.wilson_bounds(report.confidence);
    assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
    assert!(low < high);
}

#[test]
fn text_output_renders_the_validation_table() {
    let output = moard(QUICK);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("spec fingerprint"), "{text}");
    assert!(text.contains("MM"), "{text}");
    assert!(text.contains("aDVF"), "{text}");
    assert!(text.contains("agreement"), "{text}");
    // Both legs executed fresh (no store involved).
    assert!(
        text.contains("1 advf + 1 rfi executed, 0 cache hits"),
        "{text}"
    );
}

#[test]
fn campaign_is_deterministic_across_runs_and_seeded() {
    let args = [&["--format", "json"], QUICK].concat();
    let a = moard(&args);
    let b = moard(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(stdout(&a), stdout(&b), "same spec, different reports");
    // A different seed is a different campaign.
    let c = moard(&[args.as_slice(), &["--seed", "9"]].concat());
    assert!(c.status.success());
    let base = ValidationReport::from_json_str(&stdout(&a)).unwrap();
    let reseeded = ValidationReport::from_json_str(&stdout(&c)).unwrap();
    assert_ne!(base.spec_fingerprint, reseeded.spec_fingerprint);
}

#[test]
fn resume_after_a_partial_store_is_byte_identical() {
    let store = temp_dir("resume");
    let store_arg = store.to_str().unwrap();
    let base = [&["--format", "json"], QUICK, &["--store", store_arg]].concat();

    // Cold run fills the store (one aDVF leg + one campaign leg).
    let cold = moard(&base);
    assert!(cold.status.success(), "stderr: {}", stderr(&cold));
    let mut files = list_store(&store);
    assert_eq!(files.len(), 2);

    // Simulate a campaign killed after one completed leg: drop a document.
    files.sort();
    std::fs::remove_file(&files[0]).unwrap();

    // The resumed campaign recomputes only the missing leg and reproduces
    // the cold report byte for byte.
    let resumed = moard(&[base.as_slice(), &["--resume"]].concat());
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed), stdout(&cold));
    assert_eq!(list_store(&store).len(), 2);

    // Text mode reports the cache hits of a fully resumed run.
    let full = moard(&[QUICK, &["--store", store_arg, "--resume"]].concat());
    assert!(full.status.success());
    assert!(
        stdout(&full).contains("0 advf + 0 rfi executed, 2 cache hits, 0 harnesses prepared"),
        "{}",
        stdout(&full)
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn degenerate_statistics_and_unknown_names_are_typed_failures() {
    let output = moard(&["validate", "warp-drive"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("unknown workload"),
        "{}",
        stderr(&output)
    );

    let output = moard(&["validate", "mm", "--objects", "no-such-object"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("no data object"),
        "{}",
        stderr(&output)
    );

    let output = moard(&["validate", "mm", "--resume"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--store"), "{}", stderr(&output));

    let output = moard(&["validate", "mm", "--confidence", "50"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("confidence"),
        "{}",
        stderr(&output)
    );

    let output = moard(&["validate", "mm", "--margin", "six"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--margin"), "{}", stderr(&output));

    let output = moard(&["validate", "mm", "--margin", "0.9"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("target margin"),
        "{}",
        stderr(&output)
    );

    let output = moard(&["validate", "mm", "--max-dfi", "lots"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--max-dfi"), "{}", stderr(&output));

    // Unknown flags are rejected, not silently ignored.
    let output = moard(&["validate", "mm", "--margn", "0.1"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("unknown flag"),
        "{}",
        stderr(&output)
    );

    // A flag that belongs to a different subcommand is rejected too — it
    // would otherwise be silently dropped.
    let output = moard(&["sweep", "mm", "--max-trials", "10"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("not valid for `moard sweep`"),
        "{}",
        stderr(&output)
    );
    // `inject` runs its campaign over every site on every core, so the
    // analysis flags it does not read are refused, not dropped.
    for flags in [
        &["--margin", "0.01"][..],
        &["--k", "1"],
        &["--stride", "64"],
        &["--max-dfi", "1"],
        &["--no-dfi"],
        &["--seq"],
    ] {
        let output = moard(&[&["inject", "mm", "C"][..], flags].concat());
        assert_eq!(output.status.code(), Some(1), "{flags:?}");
        assert!(
            stderr(&output).contains("not valid for `moard inject`"),
            "{flags:?}: {}",
            stderr(&output)
        );
    }
    let output = moard(&["validate", "mm", "--rfi-tests", "10"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("not valid for `moard validate`"),
        "{}",
        stderr(&output)
    );

    // Workloads given both positionally and via --workloads are rejected.
    let output = moard(&["validate", "mm", "--workloads", "table1"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("use one form"),
        "{}",
        stderr(&output)
    );
}

fn list_store(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect()
}
