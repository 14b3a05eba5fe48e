//! Lane-batched ≡ single-fault replay parity, per-site ≡ per-pattern
//! operation-rule parity, and analysis reports that do not depend on how
//! they were computed.
//!
//! These property loops use a deterministic RNG (the proptest dependency is
//! unavailable in this offline build):
//!
//! * at the propagation layer, seeded lane sets drawn from real
//!   participation sites under all three pattern families replay through a
//!   [`BatchReplayCursor`], in batches and one lane at a time, and must
//!   match the one-fault reference replay (`reference::replay`) of every
//!   lane, for windows from degenerate to default: random picks from MM's
//!   C, and batches of neighbouring lanes from every Table-1 cell, whose
//!   traces add the intrinsic, select, call and return records MM's lack;
//!   and a full batch over a storage whose reads fail on one band of
//!   records must give each lane the reference's replay on that storage;
//! * at the operation-rule layer, [`analyze_site`] must give every site of
//!   every Table-1 cell, under all three pattern families, the verdict
//!   [`analyze_operation`] gives each pattern;
//! * at the `Runner::analyze` layer, full `SessionReport`s (verdict
//!   fractions, DFI runs, cache hits, budget flags — everything `PartialEq`
//!   sees) must be identical across both trace backends and any thread
//!   count, with and without DFI.

mod reference;

use moard::inject::{HarnessCache, Parallelism, Runner, SessionReport, WorkloadHarness};
use moard::ir::{RegId, Value};
use moard::model::{
    analyze_operation, analyze_site, enumerate_strided_sites, AnalysisConfig, BatchLane,
    BatchReplayCursor, CorruptLoc, CorruptSeeds, ErrorPattern, ErrorPatternSet, OpVerdict,
    PropagationResult, SamePathEnd, UnresolvedReason, MAX_REPLAY_LANES,
};
use moard::vm::{
    run_traced, ObjectId, TraceBackendSpec, TraceIndex, TraceRead, TraceRecord, TraceStats,
    TraceStorage, Vm,
};
use moard::workloads::{table1_workloads, MatMul, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// The three pattern families of the public grammar: single-bit flips,
/// adjacent double-bit bursts (§VII-B), and an explicit mixed-arity set.
fn pattern_families() -> Vec<ErrorPatternSet> {
    vec![
        ErrorPatternSet::SingleBit,
        ErrorPatternSet::AdjacentBits { width: 2 },
        ErrorPatternSet::from_canonical("explicit:0,31+32,63").unwrap(),
    ]
}

/// Replay-needing (start, corrupt) seeds of every `stride`-th site of
/// `object` under one pattern set, by ascending start.
fn seeds_of(
    trace: &dyn TraceStorage,
    object: ObjectId,
    stride: usize,
    set: &ErrorPatternSet,
) -> Vec<(usize, CorruptSeeds)> {
    let mut reader = trace.new_reader();
    let mut seeds = Vec::new();
    for site in enumerate_strided_sites(trace, object, stride) {
        let rec = reader.fetch(site.record_id).expect("site in trace");
        for pattern in set.patterns_for(site.value.ty()) {
            match analyze_operation(&rec, site.slot, &pattern) {
                OpVerdict::Propagate { corrupt } | OpVerdict::OvershadowCandidate { corrupt } => {
                    seeds.push((site.record_id as usize + 1, corrupt));
                }
                _ => {}
            }
        }
    }
    seeds
}

/// Replay-needing (start, corrupt) seeds of MM's C under one pattern set.
fn lane_seeds(set: &ErrorPatternSet) -> Vec<(usize, CorruptSeeds)> {
    let module = MatMul::default().build();
    let (_, trace) = run_traced(&module).expect("MM builds and runs");
    let vm = Vm::with_defaults(&module).expect("MM loads");
    let object = vm.objects().by_name("C").expect("MM has C").id;
    seeds_of(&trace, object, 1, set)
}

/// The harness of every Table-1 workload, trace in memory.
fn table1_harnesses() -> Vec<WorkloadHarness> {
    table1_workloads()
        .into_iter()
        .map(|w| WorkloadHarness::new(w).expect("Table-1 workloads trace"))
        .collect()
}

/// Check that every lane of `batch` replays through `cursor`, in the batch
/// and alone, as the reference replay does.
fn check_batch(cursor: &mut BatchReplayCursor, batch: &[BatchLane], k: usize, case: &str) {
    let mut out = Vec::new();
    cursor.replay_batch(batch, k, &mut out);
    assert_eq!(out.len(), batch.len());
    for (lane, got) in batch.iter().zip(&out) {
        let want = reference::replay(cursor.trace(), lane.start, &lane.corrupt, k);
        assert_eq!(
            *got, want,
            "lane start {} diverged on {case} with k={k}",
            lane.start
        );
        assert_eq!(
            cursor.replay(lane.start, &lane.corrupt, k),
            want,
            "lane start {} replayed alone diverged on {case} with k={k}",
            lane.start
        );
    }
}

#[test]
fn batched_replay_matches_one_shot_replay_for_seeded_lane_sets() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_4ED0);
    for set in pattern_families() {
        let seeds = lane_seeds(&set);
        assert!(
            seeds.len() >= MAX_REPLAY_LANES,
            "{} must seed at least one full batch, got {}",
            set.canonical(),
            seeds.len()
        );
        let module = MatMul::default().build();
        let (_, trace) = run_traced(&module).expect("MM builds and runs");
        let mut cursor = BatchReplayCursor::new(&trace);
        for k in [0usize, 3, 50] {
            // A handful of randomly drawn batches per (family, k): random
            // width up to the lane cap, random lane picks, starts sorted as
            // the scheduler guarantees.
            for _ in 0..12 {
                let width = rng.gen_range(1..MAX_REPLAY_LANES + 1);
                let mut batch: Vec<BatchLane> = (0..width)
                    .map(|_| {
                        let (start, corrupt) = &seeds[rng.gen_range(0..seeds.len())];
                        BatchLane {
                            start: *start,
                            corrupt: *corrupt,
                        }
                    })
                    .collect();
                batch.sort_by_key(|lane| lane.start);
                check_batch(
                    &mut cursor,
                    &batch,
                    k,
                    &format!("MM/C, {}", set.canonical()),
                );
            }
        }
    }
}

/// Every Table-1 cell draws lane seeds from every `CELL_SITE_STRIDE`-th
/// site and replays `CELL_BATCHES` batches per (pattern family, window):
/// CI-sized in the debug build.
const CELL_SITE_STRIDE: usize = 1;
const CELL_BATCHES: usize = 3;

#[test]
fn batched_replay_matches_one_shot_replay_on_every_table1_cell() {
    let mut rng = StdRng::seed_from_u64(0x7AB1_E1CE);
    let mut cells = 0;
    for harness in table1_harnesses() {
        let trace = harness.trace();
        let mut cursor = BatchReplayCursor::new(trace);
        let workload = harness.workload().name();
        for object in harness.workload().target_objects() {
            cells += 1;
            let id = harness.object_id(object).unwrap();
            for set in pattern_families() {
                let seeds = seeds_of(trace, id, CELL_SITE_STRIDE, &set);
                if seeds.is_empty() {
                    continue;
                }
                let case = format!("{workload}/{object}, {}", set.canonical());
                for k in [0usize, 3, 50] {
                    // Lanes picked among neighbouring sites, so their
                    // windows overlap and start at staggered records, as
                    // the scheduler's batches do.
                    for _ in 0..CELL_BATCHES {
                        let span = seeds.len().min(16 * MAX_REPLAY_LANES);
                        let first = rng.gen_range(0..seeds.len() - span + 1);
                        let width = rng.gen_range(1..span.min(MAX_REPLAY_LANES) + 1);
                        let mut batch: Vec<BatchLane> = (0..width)
                            .map(|_| {
                                let (start, corrupt) = &seeds[first + rng.gen_range(0..span)];
                                BatchLane {
                                    start: *start,
                                    corrupt: *corrupt,
                                }
                            })
                            .collect();
                        batch.sort_by_key(|lane| lane.start);
                        check_batch(&mut cursor, &batch, k, &case);
                    }
                }
            }
        }
    }
    assert_eq!(cells, 16, "every Table-1 cell");
}

/// A storage whose reads fail on the band `fails` of records, as a paged
/// trace's do when a segment stops decoding: a read inside the band comes
/// back empty, and a run that starts before it stops at its first record.
struct FailingBand<'t> {
    trace: &'t dyn TraceStorage,
    fails: Range<u64>,
}

impl TraceStorage for FailingBand<'_> {
    fn len(&self) -> u64 {
        self.trace.len()
    }

    fn index(&self) -> &TraceIndex {
        self.trace.index()
    }

    fn stats(&self) -> TraceStats {
        self.trace.stats()
    }

    fn backend_name(&self) -> &'static str {
        "failing-band"
    }

    fn new_reader(&self) -> Box<dyn TraceRead + '_> {
        Box::new(FailingBandReader {
            fails: self.fails.clone(),
            inner: self.trace.new_reader(),
        })
    }
}

struct FailingBandReader<'s> {
    fails: Range<u64>,
    inner: Box<dyn TraceRead + 's>,
}

impl TraceRead for FailingBandReader<'_> {
    fn run_from(&mut self, id: u64) -> &[TraceRecord] {
        if self.fails.contains(&id) {
            return &[];
        }
        let run = self.inner.run_from(id);
        if id < self.fails.start {
            return &run[..run.len().min((self.fails.start - id) as usize)];
        }
        run
    }
}

/// `n` evenly spaced lanes of `seeds` (the first and the last included).
fn spread(seeds: &[(usize, CorruptSeeds)], n: usize) -> Vec<BatchLane> {
    assert!(seeds.len() >= n, "{} seeds, {n} wanted", seeds.len());
    (0..n)
        .map(|i| {
            let (start, corrupt) = seeds[i * (seeds.len() - 1) / (n - 1)];
            BatchLane { start, corrupt }
        })
        .collect()
}

#[test]
fn lanes_a_batch_never_reaches_replay_alone_on_a_failing_storage() {
    let module = MatMul::default().build();
    let (_, trace) = run_traced(&module).expect("MM builds and runs");
    let vm = Vm::with_defaults(&module).expect("MM loads");
    let object = vm.objects().by_name("C").expect("MM has C").id;
    let seeds = seeds_of(&trace, object, 1, &ErrorPatternSet::SingleBit);
    let len = trace.len() as u64;
    let band_start = seeds[seeds.len() / 2].0 as u64;
    let fails = band_start..band_start + 64;
    let storage = FailingBand {
        trace: &trace,
        fails: fails.clone(),
    };
    let region = |within: Range<u64>| -> Vec<(usize, CorruptSeeds)> {
        seeds
            .iter()
            .filter(|(start, _)| within.contains(&(*start as u64)))
            .copied()
            .collect()
    };
    // A full batch: lanes before the band (the last of them start just
    // before it, and four mask out before it), inside it, after it, and at
    // and past the end of the trace, by ascending start.
    let before = region(0..fails.start);
    let masked_before: Vec<(usize, CorruptSeeds)> = before
        .iter()
        .filter(|(start, corrupt)| {
            let window = (fails.start - *start as u64) as usize;
            reference::replay(&trace, *start, corrupt, window).is_masked()
        })
        .copied()
        .collect();
    let mut batch = spread(&before, 20);
    batch.extend(spread(&masked_before, 4));
    batch.extend(spread(&region(fails.clone()), 12));
    batch.extend(spread(&region(fails.end..len), 24));
    let reg = CorruptLoc::Reg {
        frame: 0,
        reg: RegId(0),
        value: Value::I64(7),
    };
    let mem = CorruptLoc::Mem {
        addr: 0x1000,
        value: Value::F64(1.5),
    };
    for start in [len, len + 9] {
        for loc in [reg, mem] {
            let mut corrupt = CorruptSeeds::new();
            corrupt.push(loc);
            batch.push(BatchLane {
                start: start as usize,
                corrupt,
            });
        }
    }
    batch.sort_by_key(|lane| lane.start);
    assert_eq!(batch.len(), MAX_REPLAY_LANES);

    let mut cursor = BatchReplayCursor::new(&storage);
    let mut cut_short = 0;
    for k in [3usize, 50, 100_000] {
        let mut out = Vec::new();
        cursor.replay_batch(&batch, k, &mut out);
        for (lane, got) in batch.iter().zip(&out) {
            let start = lane.start as u64;
            let case = format!("lane start {start}, k={k}");
            assert_eq!(
                *got,
                reference::replay(&storage, lane.start, &lane.corrupt, k),
                "{case}"
            );
            let healthy = reference::replay(&trace, lane.start, &lane.corrupt, k);
            if start < fails.start {
                cut_short += usize::from(*got != healthy);
            } else if start < fails.end {
                // Inside the band: the seed alone, at the end of the trace.
                assert!(
                    matches!(
                        got,
                        PropagationResult::AllMasked { ops_examined: 0 }
                            | PropagationResult::Unresolved {
                                reason: UnresolvedReason::TraceEnded,
                                ..
                            }
                    ),
                    "{case}: {got:?}"
                );
            } else {
                // Past the band, or at and past the end: walked from the
                // lane's own start, as on the healthy trace.
                assert_eq!(*got, healthy, "{case}");
            }
        }
    }
    assert!(cut_short > 0, "some lane before the band reaches it live");

    // A walk to the end gives `Some` only to a lane it settled masked
    // before the band; a lane live at the band, or never reached, gets
    // `None`.
    let mut ends = Vec::new();
    cursor.walk_to_end(&batch, &mut ends);
    let mut settled = 0;
    for (lane, end) in batch.iter().zip(&ends) {
        let start = lane.start as u64;
        let want = if start < fails.start {
            let window = (fails.start - start) as usize;
            reference::replay(&trace, lane.start, &lane.corrupt, window)
                .is_masked()
                .then(SamePathEnd::default)
        } else {
            None
        };
        settled += usize::from(want.is_some());
        assert_eq!(*end, want, "lane start {start}");
    }
    assert!(settled > 0, "some lane masks before the band");
}

/// Verdict equality with values compared by type and bits: under
/// `OpVerdict`'s `PartialEq` a NaN seed differs from itself.
fn same_verdict(a: &OpVerdict, b: &OpVerdict) -> bool {
    let same_loc = |x: &CorruptLoc, y: &CorruptLoc| match (x, y) {
        (
            CorruptLoc::Reg {
                frame: f,
                reg: r,
                value: v,
            },
            CorruptLoc::Reg {
                frame: g,
                reg: s,
                value: w,
            },
        ) => f == g && r == s && v.bits_eq(w),
        (CorruptLoc::Mem { addr: a, value: v }, CorruptLoc::Mem { addr: b, value: w }) => {
            a == b && v.bits_eq(w)
        }
        _ => false,
    };
    let same_seeds = |x: &CorruptSeeds, y: &CorruptSeeds| {
        x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| same_loc(p, q))
    };
    match (a, b) {
        (OpVerdict::Propagate { corrupt: x }, OpVerdict::Propagate { corrupt: y })
        | (
            OpVerdict::OvershadowCandidate { corrupt: x },
            OpVerdict::OvershadowCandidate { corrupt: y },
        ) => same_seeds(x, y),
        _ => a == b,
    }
}

/// The operation-rule parity takes every `RULE_SITE_STRIDE`-th site of
/// each Table-1 cell: CI-sized in the debug build.
const RULE_SITE_STRIDE: usize = 1;

#[test]
fn per_site_rules_match_analyze_operation_on_every_table1_cell() {
    // Verdicts compared, by kind: masked, not masked (or needing DFI,
    // which no Table-1 site does outright), propagate, overshadowing
    // candidate.
    let mut kinds = [0u64; 4];
    let families = pattern_families();
    for harness in table1_harnesses() {
        let trace = harness.trace();
        let mut reader = trace.new_reader();
        let workload = harness.workload().name();
        for object in harness.workload().target_objects() {
            let id = harness.object_id(object).unwrap();
            for site in enumerate_strided_sites(trace, id, RULE_SITE_STRIDE) {
                let rec = reader.fetch(site.record_id).expect("site in trace");
                for set in &families {
                    let patterns = set.patterns_for(site.value.ty());
                    let masks: Vec<u64> = patterns.iter().map(ErrorPattern::mask).collect();
                    let mut verdicts = Vec::new();
                    analyze_site(&rec, site.slot, &masks, |v| verdicts.push(v));
                    assert_eq!(verdicts.len(), patterns.len());
                    for (pattern, got) in patterns.iter().zip(&verdicts) {
                        let want = analyze_operation(&rec, site.slot, pattern);
                        assert!(
                            same_verdict(got, &want),
                            "{workload}/{object} record {} {:?} {pattern:?}: {got:?}, \
                             analyze_operation {want:?}",
                            site.record_id,
                            site.slot
                        );
                        kinds[match want {
                            OpVerdict::Masked(_) => 0,
                            OpVerdict::NotMasked | OpVerdict::NeedsDfi => 1,
                            OpVerdict::Propagate { .. } => 2,
                            OpVerdict::OvershadowCandidate { .. } => 3,
                        }] += 1;
                    }
                }
            }
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every kind of verdict is compared: {kinds:?}"
    );
}

/// Paged backend with tiny segments: a seam every 64 records, so batched
/// walks constantly cross decoded-run boundaries.
fn tiny_segments() -> TraceBackendSpec {
    TraceBackendSpec::Paged {
        dir: None,
        segment_records: 64,
    }
}

fn session(
    set: &ErrorPatternSet,
    backend: &TraceBackendSpec,
    parallelism: Parallelism,
    use_dfi: bool,
) -> SessionReport {
    let config = AnalysisConfig {
        propagation_window: 50,
        site_stride: 8,
        max_dfi_per_object: Some(200),
        patterns: set.clone(),
    };
    let runner = Runner {
        parallelism,
        harnesses: Arc::new(HarnessCache::with_backend(backend.clone())),
        ..Runner::default()
    };
    let registry = moard::workloads::builtin_registry();
    runner
        .analyze("mm", &["C".into()], &config, use_dfi, registry)
        .unwrap()
}

#[test]
fn session_reports_are_bit_identical_across_widths_backends_and_threads() {
    for set in pattern_families() {
        for use_dfi in [true, false] {
            // Reference: in-memory backend, one thread — the configuration
            // every golden was minted under.
            let reference = session(
                &set,
                &TraceBackendSpec::Memory,
                Parallelism::Sequential,
                use_dfi,
            );
            if !use_dfi {
                // Without DFI, only a replay lane masks by propagation.
                let replay_masked: u64 = reference
                    .reports
                    .iter()
                    .flat_map(|r| &r.pattern_tallies)
                    .map(|t| t.propagation)
                    .sum();
                assert!(replay_masked > 0, "{} replayed no lane", set.canonical());
            }
            let variants = [
                (tiny_segments(), Parallelism::Sequential),
                (tiny_segments(), Parallelism::Fixed(3)),
                (TraceBackendSpec::Memory, Parallelism::Fixed(8)),
            ];
            for (backend, parallelism) in variants {
                assert_eq!(
                    session(&set, &backend, parallelism, use_dfi),
                    reference,
                    "{} on {backend:?} under {parallelism:?} (dfi={use_dfi}) diverged from \
                     the reference",
                    set.canonical(),
                );
            }
        }
    }
}
