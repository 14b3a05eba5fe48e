//! Resumability property of the study driver: for every prefix length N of
//! a completed result store, a sweep resumed from only those N task
//! documents produces a `StudyReport` **byte-identical** to the cold run —
//! the store is an optimization, never an observable.
//!
//! (Hand-rolled property loop over N, in the style of `tests/properties.rs`;
//! the repository builds without a property-testing dependency.)

use moard::inject::{Parallelism, ResultStore, Runner, StudySpec, SweepStats, WorkloadSelector};
use moard::json::Json;
use moard::model::StudyReport;
use std::path::{Path, PathBuf};

fn spec() -> StudySpec {
    StudySpec::default()
        .workloads(WorkloadSelector::Named(vec!["mm".into()]))
        .windows(vec![20, 50])
        .strides(vec![16])
        .max_dfis(vec![Some(100)])
        .rfi_leg(vec![30], 0xF1F1)
}

/// The sweep of [`spec`] under `runner`, over the built-in workloads.
fn sweep(runner: &Runner) -> (StudyReport, SweepStats) {
    runner
        .sweep(&spec(), moard::workloads::builtin_registry())
        .unwrap()
}

/// A default runner over the store at `dir`.
fn stored(dir: &Path, resume: bool) -> Runner {
    Runner {
        store: Some(ResultStore::open(dir).unwrap()),
        resume,
        ..Runner::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("moard-sweep-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resuming_from_any_store_prefix_reproduces_the_cold_report() {
    // Ground truth: the cold, store-less run.
    let (cold, _) = sweep(&Runner::default());
    let cold_json = cold.to_json_string();
    assert_eq!(cold.entries.len(), 2, "two grid points over MM/C");
    assert_eq!(cold.rfi.len(), 1, "one RFI campaign");

    // Fill a store completely (3 tasks → 3 documents).
    let full = temp_dir("full");
    let (report, _) = sweep(&stored(&full, false));
    assert_eq!(report.to_json_string(), cold_json);
    let mut documents: Vec<PathBuf> = std::fs::read_dir(&full)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    documents.sort();
    let tasks = documents.len();
    assert_eq!(tasks, 3);

    // Property: kill the sweep after N completed tasks (simulated by a
    // store holding only N of the documents), resume, and require a
    // byte-identical report for every N — including the degenerate ends
    // (N = 0 is a cold run with an empty store; N = tasks recomputes
    // nothing at all).
    for n in 0..=tasks {
        let partial = temp_dir(&format!("partial-{n}"));
        std::fs::create_dir_all(&partial).unwrap();
        for doc in &documents[..n] {
            std::fs::copy(doc, partial.join(doc.file_name().unwrap())).unwrap();
        }
        let (resumed, stats) = sweep(&Runner {
            parallelism: Parallelism::Fixed(2),
            ..stored(&partial, true)
        });
        assert_eq!(stats.cache_hits, n, "N={n}");
        assert_eq!(stats.executed, tasks - n, "N={n}");
        assert_eq!(
            resumed.to_json_string(),
            cold_json,
            "resumed report diverged from the cold run at N={n}"
        );
        // The resumed sweep heals the store back to completeness.
        assert_eq!(std::fs::read_dir(&partial).unwrap().count(), tasks);
        let _ = std::fs::remove_dir_all(&partial);
    }
    let _ = std::fs::remove_dir_all(&full);
}

#[test]
fn corrupting_a_store_document_forces_recomputation_not_failure() {
    let dir = temp_dir("corrupt");
    let cold_json = sweep(&Runner::default()).0.to_json_string();
    sweep(&stored(&dir, false));
    // Truncate every document.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        std::fs::write(entry.path(), "{torn").unwrap();
    }
    let (resumed, stats) = sweep(&stored(&dir, true));
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.executed, stats.tasks);
    assert_eq!(resumed.to_json_string(), cold_json);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite one store document's aDVF report payload as report schema 3
/// wrote it: `"schema_version": 3` and the three version-3 telemetry
/// fields after `dfi_budget_exhausted`.  Returns `false`, leaving the file
/// alone, for an unversioned (RFI) payload.
fn downgrade_to_schema_3(path: &std::path::Path) -> bool {
    let mut doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Json::Obj(members) = &mut doc else {
        panic!("{}: a store document is an object", path.display());
    };
    let Some((_, Json::Obj(payload))) = members.iter_mut().find(|(name, _)| name == "payload")
    else {
        panic!("{}: no payload object", path.display());
    };
    let Some((_, version)) = payload
        .iter_mut()
        .find(|(name, _)| name == "schema_version")
    else {
        return false;
    };
    *version = Json::from(3u32);
    let at = payload
        .iter()
        .position(|(name, _)| name == "dfi_budget_exhausted")
        .expect("an aDVF report payload")
        + 1;
    for (i, name) in ["lanes_batched", "batch_walks", "batch_fallback_lanes"]
        .into_iter()
        .enumerate()
    {
        payload.insert(at + i, (name.to_string(), Json::from(7u64)));
    }
    std::fs::write(path, doc.to_pretty() + "\n").unwrap();
    true
}

#[test]
fn a_store_written_under_an_older_report_schema_is_recomputed_not_an_error() {
    // What a `--resume` user or a restarted daemon meets after an upgrade:
    // every store envelope is valid, but the aDVF payloads carry report
    // schema 3.  Those tasks run again; the unversioned RFI payloads stay
    // hits; the report is the cold run's, byte for byte.
    let dir = temp_dir("schema-3");
    let (cold, _) = sweep(&Runner::default());
    sweep(&stored(&dir, false));
    let downgraded = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|entry| downgrade_to_schema_3(&entry.path()))
        .count();
    assert_eq!(downgraded, cold.entries.len());
    let resume = || sweep(&stored(&dir, true));
    let (resumed, stats) = resume();
    assert_eq!(stats.executed, cold.entries.len());
    assert_eq!(stats.cache_hits, cold.rfi.len());
    assert_eq!(stats.harnesses_prepared, 1);
    assert_eq!(resumed.to_json_string(), cold.to_json_string());
    // The recomputed reports replaced the old documents.
    let (again, stats) = resume();
    assert_eq!(stats.cache_hits, stats.tasks);
    assert_eq!(again.to_json_string(), cold.to_json_string());
    let _ = std::fs::remove_dir_all(&dir);
}
