//! Integration tests of `moard analyze` and `moard report` through the
//! real binary: a DFI budget that runs out is called out, because the aDVF
//! is then only a lower bound, and JSON output carries no such note; a
//! report equals its golden and the daemon's answer to the same flags.

use moard_json::Json;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

fn moard(args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_moard"))
        .args(args)
        .output()
        .expect("the moard binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

const NOTE: &str = "the DFI budget ran out, so this aDVF is a lower bound";

#[test]
fn analyze_notes_a_dfi_budget_that_ran_out() {
    let args = ["analyze", "mm", "C", "--stride", "16", "--max-dfi", "3"];
    let text = stdout(&moard(&args));
    assert_eq!(text.matches(NOTE).count(), 1, "{text}");
    let json = stdout(&moard(&[&["--format", "json"][..], &args].concat()));
    assert!(json.contains("\"dfi_budget_exhausted\": true"), "{json}");
    assert!(!json.contains(NOTE));
}

#[test]
fn analyze_prints_no_note_when_the_budget_suffices() {
    let text = stdout(&moard(&[
        "analyze",
        "mm",
        "C",
        "--stride",
        "64",
        "--max-dfi",
        "100000",
    ]));
    assert!(text.contains("DFI runs"), "{text}");
    assert!(!text.contains(NOTE), "{text}");
}

/// Start `moard serve` on an ephemeral port and scrape the resolved
/// address from its announcement line.
fn spawn_daemon() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_moard"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("moard serve starts");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout is piped"))
        .read_line(&mut line)
        .expect("the announcement line arrives");
    let addr = line
        .trim()
        .strip_prefix("moard serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement `{line}`"))
        .to_string();
    (child, addr)
}

#[test]
fn report_equals_its_golden_and_the_daemon_answer_and_takes_an_unbounded_budget() {
    let flags = ["--stride", "16", "--max-dfi", "150"];
    let text = stdout(&moard(
        &[&["--format", "json", "report", "mm"][..], &flags].concat(),
    ));
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/mm.json");
    assert_eq!(text, std::fs::read_to_string(golden).unwrap());

    // The daemon's `analyze` job with the same flags answers with the same
    // per-object reports.
    let (mut daemon, addr) = spawn_daemon();
    let client = [
        "--format", "json", "client", "analyze", "mm", "--addr", &addr,
    ];
    let job = Command::new(env!("CARGO_BIN_EXE_moard"))
        .args([&client[..], &flags].concat())
        .output()
        .expect("the moard binary runs");
    moard(&["client", "shutdown", "--addr", &addr]);
    assert!(daemon.wait().expect("the daemon exits").success());
    assert!(
        job.status.success(),
        "{}",
        String::from_utf8_lossy(&job.stderr)
    );
    let job = Json::parse(&stdout(&job)).unwrap();
    let entries = job.field("payload").unwrap().arr_field("entries").unwrap();
    let report = Json::parse(&text).unwrap();
    let reports = report.arr_field("reports").unwrap();
    assert_eq!(entries.len(), reports.len());
    for (entry, report) in entries.iter().zip(reports) {
        assert_eq!(entry.field("advf_report").unwrap(), report);
    }

    // `--max-dfi unbounded` lifts the budget, as it does for the daemon.
    let text = stdout(&moard(&[
        "--format",
        "json",
        "report",
        "mm",
        "C",
        "--stride",
        "16",
        "--max-dfi",
        "unbounded",
    ]));
    let doc = Json::parse(&text).unwrap();
    let report = &doc.arr_field("reports").unwrap()[0];
    assert_eq!(
        report.field("dfi_budget_exhausted").unwrap(),
        &Json::from(false)
    );
    assert!(report.u64_field("dfi_runs").unwrap() > 150, "{text}");
}
