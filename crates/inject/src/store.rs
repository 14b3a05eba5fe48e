//! On-disk, content-addressed result store for sweep tasks.
//!
//! A study campaign over the full workload × object × configuration matrix
//! can take hours; the store makes it *resumable*.  Every completed task of
//! a [`crate::sweep::StudyRunner`] is persisted as one small JSON document
//! keyed by the pair **(study fingerprint, task key)**: the file name is the
//! content address (an FNV-1a hash of both), and the document embeds the
//! exact fingerprint and key it was stored under plus the task's result
//! payload.  A resumed sweep asks the store before executing each task;
//! anything already present is a cache hit and is folded into the final
//! [`moard_core::StudyReport`] exactly as a freshly computed result would
//! be — task payloads round-trip bit-exactly, so an interrupted-then-resumed
//! sweep produces a byte-identical report.
//!
//! Robustness rules:
//!
//! * **loads never fail the sweep** — a missing, truncated, corrupt, or
//!   mismatched (hash-collision / stale-fingerprint) file is simply a cache
//!   miss and the task recomputes;
//! * **saves are atomic and durable** — the document is written to a
//!   process-unique temp sibling (pid + counter, so concurrent writers of
//!   the same key — daemon jobs, parallel sweeps sharing one `--store` —
//!   can never collide on the temp path), `fsync`ed, and renamed into place
//!   ([`moard_vm::atomic_write`]).  A sweep killed mid-write never leaves a
//!   half-document, and a power loss after the rename can never persist a
//!   truncated one behind a committed name.

use moard_core::{fingerprint_hex, fnv1a, MoardError};
use moard_json::Json;
use std::path::{Path, PathBuf};

/// Schema version of the per-task store documents.
pub const STORE_SCHEMA_VERSION: u32 = 1;

/// A directory of completed sweep-task results, addressed by
/// (study fingerprint, task key).
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, MoardError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| MoardError::io(dir.display().to_string(), e))?;
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content-addressed path of a (study fingerprint, task key) pair.
    pub fn path_for(&self, study_fingerprint: u64, key: &str) -> PathBuf {
        let address = fnv1a(format!("{}|{key}", fingerprint_hex(study_fingerprint)).as_bytes());
        self.dir.join(format!("{address:016x}.json"))
    }

    /// Load the stored payload of a task, or `None` on any miss: absent
    /// file, unreadable file, unparsable JSON, wrong schema version, or a
    /// document whose embedded fingerprint/key do not match (a hash
    /// collision or a document from another study).
    pub fn load(&self, study_fingerprint: u64, key: &str) -> Option<Json> {
        let text = std::fs::read_to_string(self.path_for(study_fingerprint, key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.u32_field("schema_version").ok()? != STORE_SCHEMA_VERSION {
            return None;
        }
        if doc.str_field("kind").ok()? != "moard-study-task" {
            return None;
        }
        if doc.str_field("study_fingerprint").ok()? != fingerprint_hex(study_fingerprint) {
            return None;
        }
        if doc.str_field("task_key").ok()? != key {
            return None;
        }
        Some(doc.field("payload").ok()?.clone())
    }

    /// Persist the payload of a completed task.  The write is atomic and
    /// durable (process-unique temp sibling + fsync + rename, via
    /// [`moard_vm::atomic_write`]): a concurrently killed sweep can never
    /// leave a torn document behind, concurrent writers of the same key
    /// never race on a shared temp path, and the document is on stable
    /// storage before its name commits.
    pub fn save(
        &self,
        study_fingerprint: u64,
        key: &str,
        payload: &Json,
    ) -> Result<(), MoardError> {
        let doc = Json::object([
            ("schema_version", Json::from(STORE_SCHEMA_VERSION)),
            ("kind", Json::from("moard-study-task")),
            (
                "study_fingerprint",
                Json::from(fingerprint_hex(study_fingerprint)),
            ),
            ("task_key", Json::from(key)),
            ("payload", payload.clone()),
        ]);
        let path = self.path_for(study_fingerprint, key);
        moard_vm::atomic_write(&path, (doc.to_pretty() + "\n").as_bytes())
            .map_err(|e| MoardError::io(path.display().to_string(), e))
    }

    /// Number of completed-task documents currently in the store — the
    /// parseable store documents only, the same population
    /// [`ResultStore::entries`] reports.  Leftover temp files, corrupt
    /// documents, or foreign files sharing the directory do not inflate
    /// the count.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True if the store holds no completed-task documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate the well-formed documents currently in the store, sorted
    /// by (fingerprint, key) for deterministic output.  The same robustness
    /// rule as [`ResultStore::load`] applies: corrupt, truncated, foreign,
    /// or wrong-schema files are silently skipped, never errors — this is
    /// an *occupancy* view (the daemon's metrics endpoint and cache
    /// inspection), not an integrity check.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<StoreEntry> = dir
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| {
                let text = std::fs::read_to_string(e.path()).ok()?;
                let doc = Json::parse(&text).ok()?;
                if doc.u32_field("schema_version").ok()? != STORE_SCHEMA_VERSION {
                    return None;
                }
                if doc.str_field("kind").ok()? != "moard-study-task" {
                    return None;
                }
                Some(StoreEntry {
                    study_fingerprint: doc.str_field("study_fingerprint").ok()?.to_string(),
                    task_key: doc.str_field("task_key").ok()?.to_string(),
                })
            })
            .collect();
        out.sort();
        out
    }
}

/// One well-formed document of a [`ResultStore`], as reported by
/// [`ResultStore::entries`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreEntry {
    /// Hex rendering of the study fingerprint the document was stored under.
    pub study_fingerprint: String,
    /// The task key within that study.
    pub task_key: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("moard-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        let payload = Json::object([("advf", Json::from(0.25))]);
        assert!(store.is_empty());
        assert!(store.load(7, "advf/MM/C").is_none());
        store.save(7, "advf/MM/C", &payload).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load(7, "advf/MM/C"), Some(payload));
        // A different fingerprint or key misses.
        assert!(store.load(8, "advf/MM/C").is_none());
        assert!(store.load(7, "advf/MM/A").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_documents_are_misses_not_errors() {
        let store = temp_store("corrupt");
        store.save(1, "advf/PF/xe", &Json::from("payload")).unwrap();
        let path = store.path_for(1, "advf/PF/xe");
        std::fs::write(&path, "{truncated").unwrap();
        assert!(store.load(1, "advf/PF/xe").is_none());
        // A well-formed document stored under a different key at the same
        // path (simulated collision) is detected and treated as a miss.
        let other = Json::object([
            ("schema_version", Json::from(STORE_SCHEMA_VERSION)),
            ("kind", Json::from("moard-study-task")),
            ("study_fingerprint", Json::from(fingerprint_hex(1))),
            ("task_key", Json::from("advf/PF/other")),
            ("payload", Json::Null),
        ]);
        std::fs::write(&path, other.to_pretty()).unwrap();
        assert!(store.load(1, "advf/PF/xe").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn entries_lists_well_formed_documents_and_skips_corruption() {
        let store = temp_store("entries");
        assert!(store.entries().is_empty());
        store.save(2, "advf/MM/C/k", &Json::from(1u64)).unwrap();
        store.save(1, "advf/CG/r/k", &Json::from(2u64)).unwrap();
        store
            .save(1, "advf/CG/colidx/k", &Json::from(3u64))
            .unwrap();
        // Corrupt and foreign documents are invisible, exactly like load().
        std::fs::write(store.dir().join("deadbeef.json"), "{torn").unwrap();
        std::fs::write(store.dir().join("foreign.json"), "{\"kind\":\"other\"}").unwrap();
        std::fs::write(store.dir().join("notes.txt"), "ignored").unwrap();
        let entries = store.entries();
        assert_eq!(entries.len(), 3);
        // Sorted by (fingerprint, key): both fingerprint-1 docs first.
        assert_eq!(entries[0].study_fingerprint, fingerprint_hex(1));
        assert_eq!(entries[0].task_key, "advf/CG/colidx/k");
        assert_eq!(entries[1].task_key, "advf/CG/r/k");
        assert_eq!(entries[2].study_fingerprint, fingerprint_hex(2));
        // len() counts the same well-formed subset entries() reports —
        // corrupt, foreign, and non-JSON files do not inflate it.
        assert_eq!(store.len(), 3);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn len_ignores_temp_corrupt_and_foreign_files() {
        // Regression: len() used to count every *.json directory entry, so
        // leftover temp files and foreign documents inflated the count and
        // `is_empty()` could report a phantom occupancy.
        let store = temp_store("len-filter");
        std::fs::write(store.dir().join("leftover.json.123.tmp"), "{half").unwrap();
        std::fs::write(store.dir().join("torn.json"), "{").unwrap();
        std::fs::write(store.dir().join("foreign.json"), "{\"kind\":\"other\"}").unwrap();
        std::fs::write(store.dir().join("notes.txt"), "ignored").unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        store.save(9, "advf/MM/C/k", &Json::from(1u64)).unwrap();
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn concurrent_saves_of_the_same_key_never_tear() {
        // Regression: save() used to derive its temp file with
        // `path.with_extension("tmp")`, so two concurrent writers of the
        // same key shared one temp path and could rename a torn mix into
        // place.  With process-unique temp names every rename installs one
        // complete document.
        let store = temp_store("concurrent");
        let big: String = "x".repeat(4096);
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let store = &store;
                let big = &big;
                scope.spawn(move || {
                    let payload = Json::object([
                        ("writer", Json::from(i)),
                        ("pad", Json::from(big.as_str())),
                    ]);
                    store.save(4, "contended/key", &payload).unwrap();
                });
            }
        });
        let doc = store.load(4, "contended/key").expect("complete document");
        assert_eq!(doc.str_field("pad").unwrap().len(), 4096);
        assert_eq!(store.len(), 1, "no stray temp files counted or left");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn saves_overwrite_atomically() {
        let store = temp_store("overwrite");
        store.save(3, "k", &Json::from(1u64)).unwrap();
        store.save(3, "k", &Json::from(2u64)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load(3, "k"), Some(Json::from(2u64)));
        // No stray temp files left behind.
        let tmp_count = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(tmp_count, 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
