//! Paged trace backend edge cases: segment-seam parity against the
//! in-memory backend, replay windows spanning several segments, windows
//! running past the trace end, corrupt/truncated segments surfacing as
//! typed errors (also when only DFI's walks to the end of the trace read
//! them), and golden-report cross-backend bit-identity.
//!
//! The seam tests shrink `segment_records` far below the default so every
//! few records cross a segment boundary — any off-by-one in segment
//! arithmetic, run stitching, or the reader LRU shows up immediately.

use moard::inject::{Session, SessionBuilder, WorkloadHarness};
use moard::model::{AdvfAnalyzer, DfiResolver, MoardError, SamePathEnd};
use moard::vm::{FaultSpec, OutcomeClass, TraceBackendSpec, TraceStorage, VmError};
use moard::workloads::MatMul;
use std::collections::HashSet;

/// Paged backend with tiny segments: a seam every 16 records.
fn tiny_segments() -> TraceBackendSpec {
    TraceBackendSpec::Paged {
        dir: None,
        segment_records: 16,
    }
}

fn mm_harness(backend: &TraceBackendSpec) -> WorkloadHarness {
    WorkloadHarness::new_with(Box::new(MatMul::default()), backend).unwrap()
}

#[test]
fn records_and_runs_are_identical_across_segment_seams() {
    let mem = mm_harness(&TraceBackendSpec::Memory);
    let paged = mm_harness(&tiny_segments());
    let len = mem.trace().len() as u64;
    assert_eq!(paged.trace().len() as u64, len);
    assert_eq!(paged.trace().backend_name(), "paged");

    // Point lookups at and around every kind of seam position, plus both
    // ends of the trace and one id past the end.
    let probe: Vec<u64> = [0, 1, 15, 16, 17, 31, 32, 47, 48, len - 2, len - 1, len]
        .into_iter()
        .collect();
    for id in probe {
        assert_eq!(
            paged.trace().record(id),
            mem.trace().record(id),
            "record {id} differs between backends"
        );
    }

    // Contiguous runs starting at seam ids must be non-empty prefixes of
    // the memory backend's tail — same records in the same order.
    let mut reader = paged.trace().new_reader();
    let memory = mem.trace().as_memory().expect("memory backend");
    for start in [0u64, 15, 16, 17, 48] {
        let run = reader.run_from(start);
        assert!(!run.is_empty(), "run from {start} came back empty");
        for (i, rec) in run.iter().enumerate() {
            assert_eq!(
                Some(rec),
                memory.record(start + i as u64),
                "run from {start} diverges at offset {i}"
            );
        }
    }
    // Past the end: an empty run, not a panic or a poison.
    assert!(reader.run_from(len).is_empty());
    assert!(moard::vm::TraceStorage::poisoned(paged.trace()).is_none());
}

fn quick(builder: SessionBuilder) -> SessionBuilder {
    builder.object("C").stride(16).max_dfi(150)
}

#[test]
fn window_spanning_many_segments_is_bit_identical_to_memory() {
    // k = 50 over 16-record segments: every replay window crosses at least
    // three seams, and the 4-slot reader LRU must rotate without losing
    // parity.
    let run = |backend: TraceBackendSpec| {
        quick(Session::for_workload("mm").unwrap())
            .window(50)
            .trace_backend(backend)
            .run()
            .unwrap()
    };
    let mem = run(TraceBackendSpec::Memory);
    let paged = run(tiny_segments());
    assert_eq!(mem, paged);
    assert_eq!(mem.to_json_string(), paged.to_json_string());
}

#[test]
fn window_past_the_trace_end_is_bit_identical_to_memory() {
    // A propagation window far longer than the whole trace: replay must
    // stop cleanly at the final record on both backends.
    let run = |backend: TraceBackendSpec| {
        quick(Session::for_workload("mm").unwrap())
            .window(10_000_000)
            .trace_backend(backend)
            .run()
            .unwrap()
    };
    let mem = run(TraceBackendSpec::Memory);
    let paged = run(tiny_segments());
    assert_eq!(mem, paged);
}

/// Overwrite the payload of every segment file (keeping the length) so the
/// first decoded segment fails its checksum.
fn corrupt_segments(dir: &std::path::Path) {
    let mut hit = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".bin") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            hit += 1;
        }
    }
    assert!(hit > 0, "no segment files found under {}", dir.display());
}

#[test]
fn corrupt_segment_surfaces_a_typed_error_through_the_harness() {
    let h = mm_harness(&tiny_segments());
    let dir = h
        .trace()
        .as_paged()
        .expect("paged backend")
        .dir()
        .to_path_buf();
    // A healthy analysis first, so the corruption below is the only change.
    let config = moard::model::AnalysisConfig {
        site_stride: 16,
        ..Default::default()
    };
    h.analyze_without_dfi("C", config.clone()).unwrap();
    corrupt_segments(&dir);
    let err = h.analyze_without_dfi("C", config).unwrap_err();
    match err {
        MoardError::Vm(VmError::Trace(moard::vm::TraceError::Corrupt { reason, .. })) => {
            assert!(
                reason.contains("checksum"),
                "expected a checksum failure, got: {reason}"
            );
        }
        other => panic!("expected a typed Corrupt trace error, got {other:?}"),
    }
}

fn le_u32(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// The segment files' checksum (paged format version 2): FNV-1a over
/// little-endian 64-bit words, then over the bytes after the last word.
fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(h, u64::from_le_bytes(*w))
    });
    tail.iter().fold(h, |h, &b| step(h, b as u64))
}

/// Rewrite every segment file so no record keeps its destination register,
/// with offsets, payload length and checksum recomputed: the segments pass
/// every integrity check yet hold register-writing records that no tracer
/// writes.
fn strip_destination_registers(dir: &std::path::Path) {
    // Segment: magic (8) | version u32 | meta u64 | first_id u64 |
    // count u32 | payload_len u32 | offsets (count x u32) | payload |
    // checksum u64 of everything before it.
    // Record: frame u64 | func u32 | block u32 | inst u32 |
    // dst tag u8 (1: a u32 register follows) | operation.
    const COUNT_AT: usize = 28;
    const DST_TAG_AT: usize = 20;
    let mut stripped = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("seg-") && name.ends_with(".bin")) {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let body = &bytes[..bytes.len() - 8];
        assert_eq!(le_u32(body, 8), moard::vm::PAGED_FORMAT_VERSION as usize);
        let count = le_u32(body, COUNT_AT);
        let payload_at = COUNT_AT + 8 + 4 * count;
        let payload = &body[payload_at..];
        let mut offsets = Vec::with_capacity(count);
        let mut records = Vec::with_capacity(payload.len());
        for i in 0..count {
            let start = le_u32(body, COUNT_AT + 8 + 4 * i);
            let end = if i + 1 < count {
                le_u32(body, COUNT_AT + 12 + 4 * i)
            } else {
                payload.len()
            };
            let rec = &payload[start..end];
            offsets.push(records.len() as u32);
            if rec[DST_TAG_AT] == 1 {
                records.extend_from_slice(&rec[..DST_TAG_AT]);
                records.push(0);
                records.extend_from_slice(&rec[DST_TAG_AT + 5..]);
                stripped += 1;
            } else {
                records.extend_from_slice(rec);
            }
        }
        let mut out = body[..COUNT_AT + 4].to_vec();
        out.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for offset in offsets {
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out.extend_from_slice(&records);
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, out).unwrap();
    }
    assert!(
        stripped > 0,
        "no record with a destination under {}",
        dir.display()
    );
}

#[test]
fn record_without_its_destination_register_is_a_typed_error_not_a_panic() {
    // Replay needs the destination of every register-writing record.  The
    // checksums of the rewritten segments hold, so only the decoder can
    // refuse such a record, and the harness must surface that refusal.
    let h = mm_harness(&tiny_segments());
    let dir = h
        .trace()
        .as_paged()
        .expect("paged backend")
        .dir()
        .to_path_buf();
    strip_destination_registers(&dir);
    let config = moard::model::AnalysisConfig {
        site_stride: 16,
        ..Default::default()
    };
    for result in [
        h.analyze_without_dfi("C", config.clone()),
        h.analyze("C", config),
    ] {
        match result {
            Err(MoardError::Vm(VmError::Trace(moard::vm::TraceError::Corrupt {
                reason, ..
            }))) => {
                assert!(
                    reason.contains("no destination register"),
                    "expected a missing-destination failure, got: {reason}"
                );
            }
            other => panic!("expected a typed Corrupt trace error, got {other:?}"),
        }
    }
}

#[test]
fn truncated_segment_surfaces_a_typed_error_through_the_harness() {
    let h = mm_harness(&tiny_segments());
    let dir = h
        .trace()
        .as_paged()
        .expect("paged backend")
        .dir()
        .to_path_buf();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("seg-") && name.ends_with(".bin") {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len().min(6)]).unwrap();
        }
    }
    let err = h
        .analyze_without_dfi(
            "C",
            moard::model::AnalysisConfig {
                site_stride: 16,
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            MoardError::Vm(VmError::Trace(moard::vm::TraceError::Corrupt { .. }))
        ),
        "expected a typed Corrupt trace error, got {err:?}"
    );
    // The poison sticks: later queries keep reporting the failure instead
    // of silently returning empty analyses.
    assert!(TraceStorage::poisoned(h.trace()).is_some());
}

/// The committed golden reports (tests/golden/*.json) re-rendered through
/// the paged backend: the bytes on disk must match, proving cross-backend
/// bit-identity against the same documents the in-memory backend pins.
#[test]
fn golden_session_reports_are_backend_invariant() {
    let cases: [(&str, &str, usize, u64); 3] = [
        ("mm", "mm", 16, 150),
        ("pf", "pf", 16, 150),
        ("cg", "cg", 24, 100),
    ];
    for (golden, workload, stride, max_dfi) in cases {
        let report = Session::for_workload(workload)
            .unwrap()
            .window(50)
            .stride(stride)
            .max_dfi(max_dfi)
            .trace_backend(TraceBackendSpec::paged())
            .run()
            .unwrap();
        let text = report.to_json().to_pretty() + "\n";
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{golden}.json"));
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert_eq!(
            text, pinned,
            "paged-backend SessionReport for `{golden}` is not byte-identical \
             to the committed golden report"
        );
    }
}

#[test]
fn paged_spill_directory_is_removed_on_drop() {
    let h = mm_harness(&tiny_segments());
    let dir = h
        .trace()
        .as_paged()
        .expect("paged backend")
        .dir()
        .to_path_buf();
    assert!(dir.is_dir());
    drop(h);
    assert!(
        !dir.exists(),
        "spill directory {} survived the harness drop",
        dir.display()
    );
}

/// MM's `A` at stride 8 with a budget of 24 DFI verdicts: every planned
/// fault sits early in the trace, and most corrupt `C` until the end.
fn a_config() -> moard::model::AnalysisConfig {
    moard::model::AnalysisConfig {
        site_stride: 8,
        max_dfi_per_object: Some(24),
        ..Default::default()
    }
}

/// Flip one payload byte of the trace's last segment, after checking that
/// no site of `A` (nor its replay window) reaches it: only the walks to the
/// end of the trace read that segment.
fn corrupt_last_segment(h: &WorkloadHarness) {
    let paged = h.trace().as_paged().expect("paged backend");
    let per_segment = paged.segment_records() as u64;
    let last = (h.trace().len() as u64 - 1) / per_segment;
    let last_site = h.strided_sites("A", 8).unwrap().last().unwrap().record_id;
    let window = a_config().propagation_window as u64;
    assert!(
        last_site + window < last * per_segment,
        "the last segment must lie after every site and replay window of A"
    );
    let path = paged.dir().join(format!("seg-{last:06}.bin"));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn dfi_analysis_over_a_poisoned_segment_is_a_typed_error() {
    // The planned faults' walks to the end of the trace are the first to
    // read the corrupted segment: the harness must still return the typed
    // error, never a report built from walks cut short, and never panic.
    let h = mm_harness(&tiny_segments());
    corrupt_last_segment(&h);
    match h.analyze("A", a_config()) {
        Err(MoardError::Vm(VmError::Trace(moard::vm::TraceError::Corrupt { .. }))) => {}
        other => panic!("expected a typed Corrupt trace error, got {other:?}"),
    }
}

/// Records which planned faults were injected and which were rebuilt from
/// their end state (and whether that end state still held corruption).
struct Recorder<'a> {
    injector: &'a moard::inject::DeterministicInjector,
    injected: std::sync::Mutex<HashSet<FaultSpec>>,
    rebuilt: std::sync::Mutex<Vec<(FaultSpec, bool)>>,
}

impl<'a> Recorder<'a> {
    fn new(h: &'a WorkloadHarness) -> Self {
        Recorder {
            injector: h.injector(),
            injected: Default::default(),
            rebuilt: Default::default(),
        }
    }
}

impl DfiResolver for Recorder<'_> {
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        self.injected.lock().unwrap().insert(*fault);
        self.injector.run_classified(fault)
    }

    fn reconstructs(&self) -> bool {
        true
    }

    fn classify_same_path(&self, fault: &FaultSpec, end: &SamePathEnd) -> Option<OutcomeClass> {
        let live = !end.memory.is_empty() || end.return_value.is_some();
        self.rebuilt.lock().unwrap().push((*fault, live));
        self.injector.classify_same_path(fault, end)
    }
}

#[test]
fn walks_cut_short_by_a_poisoned_segment_are_injected() {
    // On the healthy trace, the faults whose corruption is still live at
    // the last record are rebuilt from the walk.  Once the last segment is
    // corrupted, their walks are cut short, so each of them must be
    // injected instead of rebuilt from the state where the walk stopped.
    let h = mm_harness(&tiny_segments());
    let a = h.object_id("A").unwrap();
    let healthy = Recorder::new(&h);
    let report = AdvfAnalyzer::new(h.trace(), a_config()).analyze(a, "A", "MM", Some(&healthy));
    let live_to_end: HashSet<FaultSpec> = healthy
        .rebuilt
        .into_inner()
        .unwrap()
        .into_iter()
        .filter_map(|(fault, live)| live.then_some(fault))
        .collect();
    assert!(!live_to_end.is_empty(), "some walk reaches the last record");

    corrupt_last_segment(&h);
    let poisoned = Recorder::new(&h);
    let cut = AdvfAnalyzer::new(h.trace(), a_config()).analyze(a, "A", "MM", Some(&poisoned));
    assert!(TraceStorage::poisoned(h.trace()).is_some());
    assert_eq!(cut.dfi_runs, report.dfi_runs);
    let injected = poisoned.injected.into_inner().unwrap();
    for (fault, _) in poisoned.rebuilt.into_inner().unwrap() {
        assert!(
            !live_to_end.contains(&fault),
            "{fault:?} was rebuilt from a walk cut short"
        );
    }
    assert!(live_to_end.is_subset(&injected));
}
