//! Lane-batched ≡ single-fault replay parity, and analysis reports that
//! do not depend on how they were computed.
//!
//! These property loops use a deterministic RNG (the proptest dependency is
//! unavailable in this offline build):
//!
//! * at the propagation layer, seeded lane sets drawn from real MM
//!   participation sites under all three pattern families replay through a
//!   [`BatchReplayCursor`] and must match the one-shot [`replay`] (the
//!   single-fault reference engine) of every lane, for windows from
//!   degenerate to default;
//! * at the session layer, full `SessionReport`s (verdict fractions, DFI
//!   runs, cache hits, budget flags, batch telemetry — everything
//!   `PartialEq` sees) must be identical across both trace backends and
//!   any thread count, with and without DFI.

use moard::inject::{Parallelism, Session, SessionReport};
use moard::model::{
    analyze_operation, enumerate_sites, replay, BatchLane, BatchReplayCursor, CorruptSeeds,
    ErrorPatternSet, OpVerdict, MAX_REPLAY_LANES,
};
use moard::vm::{run_traced, TraceBackendSpec, Vm};
use moard::workloads::{MatMul, Workload};
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

/// Replay-needing (start, corrupt) seeds of MM's C under one pattern set.
fn lane_seeds(set: &ErrorPatternSet) -> Vec<(usize, CorruptSeeds)> {
    let module = MatMul::default().build();
    let (_, trace) = run_traced(&module).expect("MM builds and runs");
    let vm = Vm::with_defaults(&module).expect("MM loads");
    let object = vm.objects().by_name("C").expect("MM has C").id;
    let mut seeds = Vec::new();
    for site in enumerate_sites(&trace, object) {
        let rec = trace.record(site.record_id).expect("site in trace");
        for pattern in set.patterns_for(site.value.ty()) {
            match analyze_operation(rec, site.slot, &pattern) {
                OpVerdict::Propagate { corrupt } | OpVerdict::OvershadowCandidate { corrupt } => {
                    seeds.push((site.record_id as usize + 1, corrupt));
                }
                _ => {}
            }
        }
    }
    seeds
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
        let mut out = Vec::new();
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
                // `replay_batch` appends (the analyzer accumulates lane
                // results across batches); each drawn batch stands alone.
                out.clear();
                cursor.replay_batch(&batch, k, &mut out);
                assert_eq!(out.len(), batch.len());
                for (lane, got) in batch.iter().zip(&out) {
                    let want = replay(&trace, lane.start, &lane.corrupt, k);
                    assert_eq!(
                        *got,
                        want,
                        "lane start {} diverged under {} with k={k}",
                        lane.start,
                        set.canonical()
                    );
                }
            }
        }
    }
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
            let lanes: u64 = reference.reports.iter().map(|r| r.lanes_batched).sum();
            assert!(lanes > 0, "{} batched no lanes", set.canonical());
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
