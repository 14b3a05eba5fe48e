//! Fuzz-style robustness tests for the paged trace backend's two parsers,
//! the manifest and the segment decoder.  Seeded byte flips, truncations
//! and count fields set to `u32::MAX`, each file re-signed with its
//! checksum so the mutation reaches the parser, must come back from
//! `PagedTrace::open` and `verify` as `Ok` or a typed `TraceError`: never a
//! panic, and never an allocation sized by a count the file cannot hold.

use moard::inject::WorkloadHarness;
use moard::vm::{PagedTrace, TraceBackendSpec, TraceError, TraceStorage};
use moard::workloads::{MatMul, MmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const SEEDS: u64 = 256;

// Segment: magic (8) | version u32 | meta u64 | first_id u64 | count u32 |
// payload_len u32 | offsets (count x u32) | payload | checksum u64.
const SEGMENT_COUNTS: [usize; 2] = [28, 32];
// Manifest: magic (8) | version u32 | meta u64 | segment_records u32 |
// total u64 | seg_count u32 | (first_id u64, count u32) per segment |
// slots u32 | (n u64, n ids u64) per slot | checksum u64.
const SEGMENT_RECORDS_AT: usize = 20;
const SEG_COUNT_AT: usize = 32;
const SEGMENT_TABLE_AT: usize = 36;

/// The paged files' checksum (format version 2): FNV-1a over
/// little-endian 64-bit words, then over the bytes after the last word.
fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        step(h, u64::from_le_bytes(*w))
    });
    tail.iter().fold(h, |h, &b| step(h, b as u64))
}

/// `body` followed by its checksum: a file every check before the parser
/// accepts.
fn signed(mut body: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

fn put_u32(body: &mut [u8], at: usize, v: u32) {
    body[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn le_u32(body: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(body[at..at + 4].try_into().unwrap())
}

fn le_u64(body: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(body[at..at + 8].try_into().unwrap())
}

/// A 4x4 MM's trace spilled in 16-record segments: a seam every 16
/// records, and few enough files that a case, which decodes every segment
/// up to the mutated one, stays cheap in a debug build.
struct Spill {
    /// Owns the spill directory (removed on drop).
    harness: WorkloadHarness,
    manifest: PathBuf,
    segments: Vec<PathBuf>,
}

impl Spill {
    fn new() -> Spill {
        let backend = TraceBackendSpec::Paged {
            dir: None,
            segment_records: 16,
        };
        let mm = MatMul::with_config(MmConfig {
            n: 4,
            ..MmConfig::default()
        });
        let harness = WorkloadHarness::new_with(Box::new(mm), &backend).unwrap();
        let paged = harness.trace().as_paged().expect("paged backend");
        let dir = paged.dir();
        let segments: Vec<PathBuf> = (0..paged.segment_count())
            .map(|seg| dir.join(format!("seg-{seg:06}.bin")))
            .collect();
        assert!((16..100).contains(&segments.len()), "{segments:?}");
        open_and_read(dir).unwrap();
        Spill {
            manifest: dir.join("trace.manifest"),
            segments,
            harness,
        }
    }

    fn dir(&self) -> &Path {
        self.harness
            .trace()
            .as_paged()
            .expect("paged backend")
            .dir()
    }

    /// A file chosen by `rng`: the manifest one time in four, else a segment.
    fn pick(&self, rng: &mut StdRng) -> &Path {
        if rng.gen_range(0u32..4) == 0 {
            &self.manifest
        } else {
            &self.segments[rng.gen_range(0usize..self.segments.len())]
        }
    }

    /// Install `bytes` at `path`, open and verify the spill, restore the
    /// file, and return what the parsers said.
    fn probe(&self, path: &Path, bytes: &[u8]) -> Result<(), TraceError> {
        let original = std::fs::read(path).unwrap();
        std::fs::write(path, bytes).unwrap();
        let result = open_and_read(self.dir());
        std::fs::write(path, original).unwrap();
        result
    }
}

/// `PagedTrace::open`, then `verify`, then, if both pass, a walk over every
/// record, which indexes the segment table by id.
fn open_and_read(dir: &Path) -> Result<(), TraceError> {
    let trace = PagedTrace::open(dir)?;
    trace.verify()?;
    let mut reader = trace.new_reader();
    let mut id = 0;
    while id < TraceStorage::len(&trace) {
        let run = reader.run_from(id).len() as u64;
        assert!(run > 0, "a verified trace serves record {id}");
        id += run;
    }
    assert!(trace.poisoned().is_none());
    Ok(())
}

fn body(path: &Path) -> Vec<u8> {
    let mut bytes = std::fs::read(path).unwrap();
    bytes.truncate(bytes.len() - 8);
    bytes
}

#[test]
fn flipped_bytes_are_typed_errors_never_panics() {
    let spill = Spill::new();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x5E6_0000 ^ seed);
        let path = spill.pick(&mut rng);
        let mut body = body(path);
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0usize..body.len());
            body[at] ^= rng.gen_range(1u32..256) as u8;
        }
        // Any outcome but a panic is fine: a flipped value byte inside a
        // record still decodes.
        let _ = spill.probe(path, &signed(body));
    }
    open_and_read(spill.dir()).unwrap();
}

#[test]
fn truncated_files_are_corrupt() {
    let spill = Spill::new();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x7A5C ^ seed);
        let path = spill.pick(&mut rng);
        let mut body = body(path);
        body.truncate(rng.gen_range(0usize..body.len()));
        match spill.probe(path, &signed(body)) {
            Err(TraceError::Corrupt { .. }) => {}
            other => panic!("seed {seed}: truncated {path:?} gave {other:?}"),
        }
    }
}

#[test]
fn count_fields_at_u32_max_are_typed_errors_never_aborts() {
    let spill = Spill::new();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC0_0000 ^ seed);
        let path = spill.pick(&mut rng);
        let mut body = body(path);
        let at = if path == spill.manifest {
            let segs = le_u32(&body, SEG_COUNT_AT) as usize;
            let slots_at = SEGMENT_TABLE_AT + 12 * segs;
            // Counts of the manifest: records per segment, segments, one
            // segment's records, object slots, one object's ids (the low
            // half of its u64).
            let slot_ids = slots_at + 4;
            match rng.gen_range(0u32..5) {
                0 => SEGMENT_RECORDS_AT,
                1 => SEG_COUNT_AT,
                2 => SEGMENT_TABLE_AT + 12 * rng.gen_range(0..segs) + 8,
                3 => slots_at,
                _ => slot_ids,
            }
        } else if rng.gen_range(0u32..3) == 0 {
            SEGMENT_COUNTS[rng.gen_range(0usize..2)]
        } else {
            // Anywhere in the offsets and payload: sometimes a record's
            // argument or parameter-register count.
            rng.gen_range(SEGMENT_COUNTS[1] + 4..body.len() - 4)
        };
        put_u32(&mut body, at, u32::MAX);
        let _ = spill.probe(path, &signed(body));
    }
    open_and_read(spill.dir()).unwrap();
}

#[test]
fn manifest_counts_beyond_the_file_are_refused_before_reserving() {
    let spill = Spill::new();
    let original = body(&spill.manifest);
    let segment_records = le_u32(&original, SEGMENT_RECORDS_AT);
    let segs = le_u32(&original, SEG_COUNT_AT) as usize;
    let last_count_at = SEGMENT_TABLE_AT + 12 * (segs - 1) + 8;
    let total_at = 24;
    let expect_corrupt =
        |body: Vec<u8>, what: &str| match spill.probe(&spill.manifest, &signed(body)) {
            Err(TraceError::Corrupt { reason, .. }) => reason,
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        };

    // 2^32 - 1 segment-table entries would ask for about 64 GiB.
    let mut body = original.clone();
    put_u32(&mut body, SEG_COUNT_AT, u32::MAX);
    let reason = expect_corrupt(body, "seg_count = u32::MAX");
    assert!(reason.contains("segment count"), "{reason}");

    // A final segment longer than `segment_records`, with a total that
    // covers it: the segment table would then have no entry for the last
    // ids a reader can ask for.
    let mut body = original.clone();
    let last = le_u32(&body, last_count_at);
    put_u32(&mut body, last_count_at, last + segment_records);
    let total = le_u64(&body, total_at) + u64::from(segment_records);
    body[total_at..total_at + 8].copy_from_slice(&total.to_le_bytes());
    let reason = expect_corrupt(body, "final segment over segment_records");
    assert!(reason.contains("more than"), "{reason}");

    // An object id list of 2^64 - 1 ids.
    let mut body = original.clone();
    let slot_ids = SEGMENT_TABLE_AT + 12 * segs + 4;
    body[slot_ids..slot_ids + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let reason = expect_corrupt(body, "id list of u64::MAX");
    assert!(reason.contains("exceeds remaining bytes"), "{reason}");

    open_and_read(spill.dir()).unwrap();
}
