//! Deterministic-fault-injection resolution and error equivalence.
//!
//! The trace analysis leaves some masking questions unresolved (overshadowing
//! candidates, control/address divergence, window exhaustion).  MOARD settles
//! them by *deterministic fault injection*: re-running the application with
//! exactly that bit flipped at exactly that dynamic operation and classifying
//! the outcome against the golden run (§III-E, §IV).
//!
//! To avoid repeating injections for equivalent faults, MOARD leverages error
//! equivalence (in the spirit of Relyzer/GangES, cited as \[7\], \[20\] in the
//! paper): two fault sites at the same *static* instruction, the same operand
//! slot, the same consumed value, and the same injected bit mask produce the
//! same intermediate corrupted state and therefore the same verdict.  The
//! [`EquivalenceCache`] keys verdicts on exactly that tuple, so single-bit
//! flips and the multi-bit patterns of §VII-B memoize with equal precision.

use crate::sites::SiteSlot;
use moard_vm::{FaultSpec, OutcomeClass, TraceRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Something that can run a deterministic fault injection and classify the
/// outcome.  Implemented by `moard-inject::DeterministicInjector`; test code
/// can supply closures or canned verdicts.
///
/// Resolvers are `Sync`: the analyzer runs one object's planned injections
/// on several threads at once (see [`crate::AdvfAnalyzer::analyze`]).
pub trait DfiResolver: Sync {
    /// Run the application with `fault` injected and classify the outcome
    /// against the golden run.
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "dfi"
    }
}

impl<F> DfiResolver for F
where
    F: Fn(&FaultSpec) -> OutcomeClass + Sync,
{
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        self(fault)
    }
}

/// Error-equivalence key: static instruction, slot, consumed value bits,
/// and the injected bit mask.  Keying on the whole mask (not a single bit
/// position) makes the cache exact for multi-bit error patterns: two faults
/// are equivalent iff they corrupt the same clean value the same way at the
/// same static site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EquivalenceKey {
    /// Static location (function, block, instruction index).
    pub static_key: (u32, u32, u32),
    /// Operand slot / store destination.
    pub slot_key: u32,
    /// Raw bits of the clean value at the site.
    pub value_bits: u64,
    /// XOR mask of the injected error pattern.
    pub mask: u64,
}

impl EquivalenceKey {
    /// Build the key for a site within a record.
    pub fn new(rec: &TraceRecord, slot: SiteSlot, value_bits: u64, mask: u64) -> Self {
        let slot_key = match slot {
            SiteSlot::Operand(i) => i as u32,
            SiteSlot::StoreDest => u32::MAX,
        };
        EquivalenceKey {
            static_key: rec.static_key(),
            slot_key,
            value_bits,
            mask,
        }
    }
}

/// Statistics of a cache-backed resolver.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResolverStats {
    /// Number of actual fault-injection executions performed.
    pub injections: u64,
    /// Number of verdicts answered from the equivalence cache.
    pub cache_hits: u64,
}

/// Number of lock stripes in the [`EquivalenceCache`].  A power of two so
/// stripe selection is a mask; 16 keeps contention negligible at the worker
/// counts the analyzers actually run (the pool is CPU-bound, not lock-bound).
const CACHE_STRIPES: usize = 16;

/// A concurrent memoization layer over a [`DfiResolver`].
///
/// The map is *lock-striped*: keys hash to one of 16 (`CACHE_STRIPES`)
/// independently locked shards, so concurrent callers resolving faults at
/// different static sites never serialize on a single global lock.  The
/// stats are plain atomics, and no lock is held while an injection runs.
///
/// The analyzer consults the cache from one thread, in fold order: it runs
/// an object's injections in parallel *before* the fold, outside the cache,
/// and the fold then records them here one by one.  So `injections` and
/// `cache_hits` never depend on scheduling.  Other concurrent callers stay
/// safe, but two of them racing on the same key may both miss and both
/// count an injection; `cache_hits` stays exact either way.
pub struct EquivalenceCache {
    stripes: [Mutex<HashMap<EquivalenceKey, OutcomeClass>>; CACHE_STRIPES],
    injections: AtomicU64,
    cache_hits: AtomicU64,
}

impl Default for EquivalenceCache {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over the key's raw fields — cheap, stable, and independent of the
/// `HashMap`'s own randomized hasher, so stripe spread survives pathological
/// site populations (e.g. every site in one function).
fn stripe_of(key: &EquivalenceKey) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (f, b, i) = key.static_key;
    mix((f as u64) << 32 | b as u64);
    mix((i as u64) << 32 | key.slot_key as u64);
    mix(key.value_bits);
    mix(key.mask);
    (h as usize) & (CACHE_STRIPES - 1)
}

impl EquivalenceCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        EquivalenceCache {
            stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            injections: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// Resolve `fault` for the site identified by `key`, using the cache when
    /// an equivalent fault was already injected.  The injection itself runs
    /// outside every lock: a slow resolver blocks only the workers that need
    /// this exact stripe, and only for the map probe.
    pub fn classify(
        &self,
        key: EquivalenceKey,
        fault: &FaultSpec,
        resolver: &dyn DfiResolver,
    ) -> OutcomeClass {
        let stripe = &self.stripes[stripe_of(&key)];
        if let Some(v) = stripe.lock().expect("cache lock poisoned").get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return *v;
        }
        let verdict = resolver.classify(fault);
        self.injections.fetch_add(1, Ordering::Relaxed);
        stripe
            .lock()
            .expect("cache lock poisoned")
            .insert(key, verdict);
        verdict
    }

    /// True if a verdict for `key` is already cached (so `classify` would
    /// count a hit, not an injection).
    pub(crate) fn contains(&self, key: &EquivalenceKey) -> bool {
        self.stripes[stripe_of(key)]
            .lock()
            .expect("cache lock poisoned")
            .contains_key(key)
    }

    /// Current statistics.
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            injections: self.injections.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct equivalence classes resolved so far.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("cache lock poisoned").len())
            .sum()
    }

    /// True if nothing has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::{BlockId, FuncId, Value};
    use moard_vm::{FaultTarget, TraceOp, TracedVal};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn record(func: u32, inst: u32) -> TraceRecord {
        TraceRecord {
            id: 42,
            frame: 0,
            func: FuncId(func),
            block: BlockId(0),
            inst,
            dst: None,
            op: TraceOp::Mov {
                src: TracedVal::constant(Value::I64(1)),
                result: Value::I64(1),
            },
        }
    }

    #[test]
    fn equivalent_faults_hit_the_cache() {
        let cache = EquivalenceCache::new();
        let calls = AtomicU64::new(0);
        let resolver = |_: &FaultSpec| {
            calls.fetch_add(1, Ordering::SeqCst);
            OutcomeClass::Acceptable
        };
        let rec = record(0, 3);
        let key = EquivalenceKey::new(&rec, SiteSlot::Operand(0), 0xabc, 1 << 5);
        let fault = FaultSpec::single_bit(42, FaultTarget::Operand(0), 5);
        for _ in 0..10 {
            assert_eq!(
                cache.classify(key, &fault, &resolver),
                OutcomeClass::Acceptable
            );
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.injections, 1);
        assert_eq!(stats.cache_hits, 9);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_masks_or_values_are_not_equivalent() {
        let cache = EquivalenceCache::new();
        let resolver = |_: &FaultSpec| OutcomeClass::Incorrect;
        let rec = record(0, 3);
        let fault = FaultSpec::single_bit(42, FaultTarget::Operand(0), 5);
        cache.classify(
            EquivalenceKey::new(&rec, SiteSlot::Operand(0), 1, 1 << 5),
            &fault,
            &resolver,
        );
        cache.classify(
            EquivalenceKey::new(&rec, SiteSlot::Operand(0), 1, 1 << 6),
            &fault,
            &resolver,
        );
        // A multi-bit pattern is its own equivalence class, distinct from
        // either of its constituent single-bit flips.
        cache.classify(
            EquivalenceKey::new(&rec, SiteSlot::Operand(0), 1, (1 << 5) | (1 << 6)),
            &fault,
            &resolver,
        );
        cache.classify(
            EquivalenceKey::new(&rec, SiteSlot::Operand(0), 2, 1 << 5),
            &fault,
            &resolver,
        );
        cache.classify(
            EquivalenceKey::new(&rec, SiteSlot::StoreDest, 1, 1 << 5),
            &fault,
            &resolver,
        );
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.stats().injections, 5);
    }

    #[test]
    fn striped_cache_keeps_stats_exact_under_concurrency() {
        // Many threads hammering a shared key population: every classify is
        // either a hit or an injection (no lost updates), every distinct key
        // lands in exactly one stripe, and hits stay exact.
        let cache = EquivalenceCache::new();
        let resolver = |_: &FaultSpec| OutcomeClass::Identical;
        let keys: Vec<EquivalenceKey> = (0..64)
            .map(|i| EquivalenceKey::new(&record(i % 4, i), SiteSlot::Operand(0), i as u64, 1))
            .collect();
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let keys = &keys;
                scope.spawn(move || {
                    let fault = FaultSpec::single_bit(42, FaultTarget::Operand(0), 0);
                    for r in 0..ROUNDS {
                        for key in keys.iter().skip((t + r) % keys.len()) {
                            assert_eq!(
                                cache.classify(*key, &fault, &resolver),
                                OutcomeClass::Identical
                            );
                        }
                    }
                });
            }
        });
        // Distinct static (func, inst) pairs: 64 (func = i % 4 recurs, but
        // inst = i is unique, and value_bits differs too).
        assert_eq!(cache.len(), 64);
        assert!(!cache.is_empty());
        let stats = cache.stats();
        let total: u64 = stats.injections + stats.cache_hits;
        let n = keys.len();
        let classified: u64 = (0..THREADS)
            .flat_map(|t| (0..ROUNDS).map(move |r| (n - (t + r) % n) as u64))
            .sum();
        assert_eq!(total, classified, "every classify counted exactly once");
        // At least one injection per distinct key; racers may add a few more.
        assert!(stats.injections >= 64);
        assert!(stats.cache_hits <= classified - 64);
    }

    #[test]
    fn same_static_instruction_different_dynamic_instances_are_equivalent() {
        // Two dynamic records from the same static instruction with the same
        // consumed value share a verdict.
        let cache = EquivalenceCache::new();
        let calls = AtomicU64::new(0);
        let resolver = |_: &FaultSpec| {
            calls.fetch_add(1, Ordering::SeqCst);
            OutcomeClass::Identical
        };
        let rec_a = record(1, 7);
        let mut rec_b = record(1, 7);
        rec_b.id = 1000;
        let ka = EquivalenceKey::new(&rec_a, SiteSlot::Operand(1), 99, 1 << 3);
        let kb = EquivalenceKey::new(&rec_b, SiteSlot::Operand(1), 99, 1 << 3);
        assert_eq!(ka, kb);
        cache.classify(
            ka,
            &FaultSpec::single_bit(42, FaultTarget::Operand(1), 3),
            &resolver,
        );
        cache.classify(
            kb,
            &FaultSpec::single_bit(1000, FaultTarget::Operand(1), 3),
            &resolver,
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
