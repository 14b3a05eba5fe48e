//! Allocation budget of the analytic pass: `AdvfAnalyzer::analyze` without
//! DFI allocates a small, pattern-count-independent number of times per
//! analyzed site.
//!
//! The pass schedules every (site, error pattern) of an object.  Error
//! patterns are enumerated once per element type and shared by every site,
//! and the operation rules' corrupted-location seeds are stored inline, so
//! nothing is allocated per pattern or per replay lane.  A counting global
//! allocator measures the calling thread only: without a resolver the
//! analysis runs on that thread alone.

use moard::inject::WorkloadHarness;
use moard::model::{AdvfAnalyzer, AnalysisConfig, ErrorPatternSet};
use moard::vm::TraceBackendSpec;
use moard::workloads::workload_by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread while `COUNTING` is set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only const-initialized thread-local cells, which
// never allocate.
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
    // `try_with`: the thread's cells may already be gone while it exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the number of allocations (and
/// reallocations) it made on the calling thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(|n| n.get()))
}

/// Most allocations one analyzed site may cost on average, whatever the
/// pattern set: less than one.  The pass allocates per call (site list,
/// pattern lists, plan and tag lists, lane results, growing as they fill),
/// not per site; one allocation per site, let alone a pattern list per site
/// or a corrupted-location list per lane, exceeds it.
const MAX_ALLOCATIONS_PER_SITE: f64 = 1.0;

#[test]
fn analytic_pass_allocates_a_constant_per_site() {
    // LU/u: a Table-1 cell with thousands of sites, most of which need a
    // propagation replay.
    let h = WorkloadHarness::new_with(workload_by_name("lu").unwrap(), &TraceBackendSpec::Memory)
        .unwrap();
    let object = h.object_id("u").unwrap();
    for patterns in [
        ErrorPatternSet::SingleBit,
        ErrorPatternSet::AdjacentBits { width: 2 },
    ] {
        let config = AnalysisConfig {
            patterns: patterns.clone(),
            ..Default::default()
        };
        let analyzer = AdvfAnalyzer::new(h.trace(), config);
        let (report, allocations) = counted(|| analyzer.analyze(object, "u", "LU", None));
        let sites = report.sites_analyzed;
        assert!(sites >= 1000, "{patterns:?}: only {sites} sites");
        assert!(
            report.lanes_batched >= sites,
            "{patterns:?}: {} replay lanes for {sites} sites",
            report.lanes_batched
        );
        let per_site = allocations as f64 / sites as f64;
        assert!(
            per_site <= MAX_ALLOCATIONS_PER_SITE,
            "{patterns:?}: {allocations} allocations for {sites} sites \
             ({per_site:.2} per site, budget {MAX_ALLOCATIONS_PER_SITE})"
        );
    }
}
