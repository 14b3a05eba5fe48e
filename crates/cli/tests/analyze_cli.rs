//! Integration tests of `moard analyze`'s text output through the real
//! binary: a DFI budget that runs out is called out, because the aDVF is
//! then only a lower bound; JSON output carries no such note.

use std::process::{Command, Output};

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
