//! Lane-batched ≡ single-fault replay parity, per-site ≡ per-pattern
//! operation-rule parity, and analysis reports that do not depend on how
//! they were computed.
//!
//! These property loops use a deterministic RNG (the proptest dependency is
//! unavailable in this offline build):
//!
//! * at the propagation layer, seeded lane sets drawn from real
//!   participation sites under all three pattern families replay through a
//!   [`BatchReplayCursor`] and must match the one-shot [`replay`] (the
//!   single-fault reference engine) of every lane, for windows from
//!   degenerate to default: random picks from MM's C, and batches of
//!   neighbouring lanes from every Table-1 cell, whose traces add the
//!   intrinsic, select, call and return records MM's lack;
//! * at the operation-rule layer, [`analyze_site`] must give every site of
//!   every Table-1 cell, under all three pattern families, the verdict
//!   [`analyze_operation`] gives each pattern;
//! * at the session layer, full `SessionReport`s (verdict fractions, DFI
//!   runs, cache hits, budget flags, batch telemetry — everything
//!   `PartialEq` sees) must be identical across both trace backends and
//!   any thread count, with and without DFI.

use moard::inject::{Parallelism, Session, SessionReport, WorkloadHarness};
use moard::model::{
    analyze_operation, analyze_site, enumerate_strided_sites, replay, BatchLane, BatchReplayCursor,
    CorruptLoc, CorruptSeeds, ErrorPattern, ErrorPatternSet, OpVerdict, MAX_REPLAY_LANES,
};
use moard::vm::{run_traced, ObjectId, TraceBackendSpec, TraceStorage, Vm};
use moard::workloads::{table1_workloads, MatMul, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Check that every lane of `batch` replays through `cursor` as the
/// one-shot [`replay`] does.
fn check_batch(cursor: &mut BatchReplayCursor, batch: &[BatchLane], k: usize, case: &str) {
    let mut out = Vec::new();
    cursor.replay_batch(batch, k, &mut out);
    assert_eq!(out.len(), batch.len());
    for (lane, got) in batch.iter().zip(&out) {
        let want = replay(cursor.trace(), lane.start, &lane.corrupt, k);
        assert_eq!(
            *got, want,
            "lane start {} diverged on {case} with k={k}",
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
    let mut builder = Session::for_workload("mm")
        .unwrap()
        .object("C")
        .stride(8)
        .max_dfi(200)
        .window(50)
        .patterns(set.clone())
        .trace_backend(backend.clone())
        .parallelism(parallelism);
    if !use_dfi {
        builder = builder.without_dfi();
    }
    builder.run().unwrap()
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
