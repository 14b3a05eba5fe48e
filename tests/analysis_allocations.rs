//! Allocation budget of the analytic pass: `AdvfAnalyzer::analyze` without
//! DFI allocates a small, pattern-count-independent number of times per
//! analyzed site.
//!
//! The pass schedules every (site, error pattern) of an object.  Error
//! patterns are enumerated once per element type and shared by every site,
//! and the operation rules' corrupted-location seeds are stored inline, so
//! nothing is allocated per pattern or per replay lane.  Ranges of sites
//! are scheduled and replayed on helper threads too, so a counting global
//! allocator counts the allocations of every thread while a global switch
//! is on around the measured call; this file has one test, so no other
//! test allocates meanwhile.

use moard::inject::WorkloadHarness;
use moard::model::{analyze_operation, AdvfAnalyzer, AnalysisConfig, ErrorPatternSet, OpVerdict};
use moard::vm::{TraceBackendSpec, TraceStorage};
use moard::workloads::workload_by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

/// Allocations made on any thread while `COUNTING` is set.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only two atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the number of allocations (and
/// reallocations) made on any thread while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst))
}

/// Most allocations one analyzed site may cost on average, whatever the
/// pattern set: less than one.  The pass allocates per call (site list,
/// pattern lists, range list), per range of 64 sites (its plan, tag and
/// lane-result lists) and per worker thread (its spawn, cursor and lane
/// buffers), not per site; one allocation per site, let alone a pattern
/// list per site, a corrupted-location list per lane or a buffer per
/// batch, exceeds it.
const MAX_ALLOCATIONS_PER_SITE: f64 = 1.0;

#[test]
fn analytic_pass_allocates_a_constant_per_site() {
    // LU/u: a Table-1 cell with thousands of sites, most of which need a
    // propagation replay.  LULESH/m_delv_zeta: a cell whose replays walk
    // through intrinsic calls, whose evaluation needs argument buffers.
    for (workload, name, min_sites) in [("lu", "u", 1000), ("lulesh", "m_delv_zeta", 400)] {
        let h = WorkloadHarness::new_with(
            workload_by_name(workload).unwrap(),
            &TraceBackendSpec::Memory,
        )
        .unwrap();
        let object = h.object_id(name).unwrap();
        for patterns in [
            ErrorPatternSet::SingleBit,
            ErrorPatternSet::AdjacentBits { width: 2 },
        ] {
            let config = AnalysisConfig {
                patterns: patterns.clone(),
                ..Default::default()
            };
            let analyzer = AdvfAnalyzer::new(h.trace(), config);
            let (report, allocations) = counted(|| analyzer.analyze(object, name, workload, None));
            let cell = format!("{workload}/{name} under {patterns:?}");
            let sites = report.sites_analyzed;
            assert!(sites >= min_sites, "{cell}: only {sites} sites");
            let lanes = replay_lanes(&analyzer, h.trace(), object, &patterns);
            assert!(
                lanes >= sites,
                "{cell}: {lanes} replay lanes for {sites} sites"
            );
            let per_site = allocations as f64 / sites as f64;
            assert!(
                per_site <= MAX_ALLOCATIONS_PER_SITE,
                "{cell}: {allocations} allocations for {sites} sites \
                 ({per_site:.2} per site, budget {MAX_ALLOCATIONS_PER_SITE})"
            );
        }
    }
}

/// The (site, pattern) pairs of an analysis that the operation rules hand
/// to a propagation replay, counted outside the analyzer.
fn replay_lanes(
    analyzer: &AdvfAnalyzer,
    trace: &dyn TraceStorage,
    object: moard::vm::ObjectId,
    patterns: &ErrorPatternSet,
) -> u64 {
    let mut reader = trace.new_reader();
    let mut lanes = 0;
    for site in analyzer.pattern_sites(object) {
        let rec = reader.fetch(site.record_id).unwrap();
        for pattern in patterns.patterns_for(site.value.ty()) {
            if let OpVerdict::Propagate { .. } | OpVerdict::OvershadowCandidate { .. } =
                analyze_operation(&rec, site.slot, &pattern)
            {
                lanes += 1;
            }
        }
    }
    lanes
}
