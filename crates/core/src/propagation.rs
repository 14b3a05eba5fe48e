//! Error-propagation analysis (paper §III-D): bounded shadow replay of the
//! dynamic trace.
//!
//! When the operation-level analysis decides an error is *not* masked by the
//! operation that first consumes it, the corrupted locations it leaves behind
//! (registers and/or memory words) are propagated forward through the trace:
//! every subsequent record is re-evaluated with the corrupted values
//! substituted, and the set of live corrupted locations is updated.  If the
//! set becomes empty within the propagation window `k`, every error copy was
//! masked at the operation level during propagation and the outcome is
//! bit-identical — masking at the error-propagation level.  If the window is
//! exhausted, control flow would diverge, or a corrupted value reaches an
//! address computation, the question is left unresolved and handed to the
//! deterministic fault injector (§III-E).
//!
//! The paper's empirical bound (1000 random injections over 16 data objects)
//! found k = 50 sufficient: errors not masked within 50 operations virtually
//! never end up masked by further propagation.  `k` is configurable so the
//! `propagation_k` ablation bench can reproduce that observation.
//!
//! ## Engine notes
//!
//! Replay is *the* hot loop of the analytical pipeline (every participation
//! site × every error pattern replays a window), so the implementation is
//! tuned accordingly:
//!
//! * the trace is walked through [`moard_vm::TraceRead`] *runs* — zero-copy
//!   slices of contiguous decoded records.  For the in-memory backend a run
//!   is simply the trace tail (the old `Trace::window` cursor); for the
//!   paged backend it is the suffix of one decoded segment, so replay
//!   streams segments without ever needing the full trace resident.
//!   Walks on several threads (the analyzer's plan pass) share one
//!   immutable trace with no cloning — each cursor owns its own reader;
//! * a [`ReplayCursor`] replays one fault per walk.  It is the reference
//!   engine the batched one is checked against, and
//!   [`crate::AdvfAnalyzer::classify`] uses it to settle a single
//!   (site, pattern).  Its live corrupted state (`ShadowState`) is a pair
//!   of small linear vectors, not hash maps: live sets are almost always a
//!   handful of locations, where linear probing beats hashing by a wide
//!   margin.  The cursor owns the state buffers and is reusable across
//!   replays; the free [`replay`] function is the one-shot convenience
//!   entry point;
//! * the analyzer replays through a [`BatchReplayCursor`]: up to 64
//!   replays whose windows overlap share **one** walk over the decoded
//!   records.  Its shadow state maps each (frame, register) and memory
//!   word to a `u64` *lane mask* plus the per-lane corrupted values, and
//!   each record is stepped once for the whole batch: every operand's entry
//!   is resolved once (its position and which active lanes it taints), the
//!   tainted lanes alone re-evaluate the operation, reading their values
//!   from that entry by position, with the sequential engine's rules (an
//!   `f64` `fadd`/`fsub`/`fmul`/`fdiv` lane straight through
//!   [`moard_ir::f64_arith`], the kernel `eval_binop` itself uses), and
//!   one masked assignment writes the destination for every active lane.
//!   Lanes retire individually — `AllMasked`, window exhaustion, traps,
//!   control or address divergence — and all lanes that retire unresolved
//!   at one record leave the tables in one sweep.  Every verdict is
//!   bit-identical to the sequential [`ReplayCursor::replay`];
//! * the same walk with no window, [`BatchReplayCursor::walk_to_end`],
//!   follows a deterministic fault to the end of the trace: a lane that
//!   stays on the recorded path yields the exact corrupted end state
//!   ([`SamePathEnd`]) from which the injector rebuilds the faulty run's
//!   outcome without re-running the program.  Such lanes can carry
//!   hundreds of corrupted words, so the batched tables keep a hash index
//!   from key to entry, and per-lane live counts replace any per-record
//!   fold over the tables.  Most records of such a walk taint no lane: an
//!   empty table answers without hashing, and a record's clean values are
//!   read only for a tainted lane.

use crate::op_rules::{CorruptLoc, CorruptSeeds};
use moard_ir::{eval_binop, eval_cast, eval_cmp, eval_intrinsic, f64_arith, RegId, Type, Value};
use moard_vm::{TraceOp, TraceRead, TraceRecord, TraceStorage, TracedVal, ValueSource};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Why the replay could not settle the masking question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnresolvedReason {
    /// The window of `k` operations was exhausted with corruption still live.
    WindowExhausted,
    /// A corrupted value decides a conditional branch or switch differently
    /// from the recorded execution.
    ControlDivergence,
    /// A corrupted value is used as (part of) a load or store address.
    AddressDivergence,
    /// Re-evaluating an operation with corrupted inputs trapped
    /// (e.g. division by a corrupted zero).
    EvalTrap,
    /// The trace ended with corrupted memory still live.
    TraceEnded,
}

/// Result of the propagation replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// Every corrupted copy was masked within the window: the outcome is
    /// bit-identical to the golden run.
    AllMasked {
        /// Number of operations examined before the corruption died out.
        ops_examined: usize,
    },
    /// The replay could not decide; deterministic fault injection required.
    Unresolved {
        reason: UnresolvedReason,
        /// Number of corrupted locations still live when the replay stopped.
        live_locations: usize,
    },
}

impl PropagationResult {
    /// True for [`PropagationResult::AllMasked`].
    pub fn is_masked(&self) -> bool {
        matches!(self, PropagationResult::AllMasked { .. })
    }
}

/// Live corrupted state during replay: small linear tables keyed by
/// (frame, register) and by memory address.
///
/// Live sets during replay are tiny (an error seeds one or two locations and
/// masking shrinks the set), so linear scans over dense vectors beat hash
/// maps on both lookup latency and allocation count.  Entries are unique by
/// key; removal is `swap_remove` (order is irrelevant to every observable
/// result: lookups, liveness counts, and emptiness).
#[derive(Debug, Default, Clone)]
struct ShadowState {
    regs: Vec<((u64, u32), Value)>,
    mem: Vec<(u64, Value)>,
}

impl ShadowState {
    /// Reset the buffers (keeping their capacity) and seed the initial
    /// corrupted locations.  Later duplicates overwrite earlier ones, the
    /// insert semantics the map-based implementation had.
    fn reset(&mut self, locs: &[CorruptLoc]) {
        self.regs.clear();
        self.mem.clear();
        for loc in locs {
            match loc {
                CorruptLoc::Reg { frame, reg, value } => {
                    self.reg_insert(*frame, *reg, *value);
                }
                CorruptLoc::Mem { addr, value } => {
                    self.mem_insert(*addr, *value);
                }
            }
        }
    }

    fn is_clean(&self) -> bool {
        self.regs.is_empty() && self.mem.is_empty()
    }

    fn live(&self) -> usize {
        self.regs.len() + self.mem.len()
    }

    fn reg(&self, frame: u64, reg: RegId) -> Option<Value> {
        let key = (frame, reg.0);
        self.regs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn reg_insert(&mut self, frame: u64, reg: RegId, value: Value) {
        let key = (frame, reg.0);
        match self.regs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => self.regs.push((key, value)),
        }
    }

    fn kill_reg(&mut self, frame: u64, reg: RegId) {
        let key = (frame, reg.0);
        if let Some(i) = self.regs.iter().position(|(k, _)| *k == key) {
            self.regs.swap_remove(i);
        }
    }

    fn set_reg(&mut self, frame: u64, reg: RegId, corrupted: Value, clean: Value) {
        if corrupted.bits_eq(&clean) {
            self.kill_reg(frame, reg);
        } else {
            self.reg_insert(frame, reg, corrupted);
        }
    }

    /// Remove every register belonging to a frame that has returned.
    fn drop_frame(&mut self, frame: u64) {
        self.regs.retain(|((f, _), _)| *f != frame);
    }

    fn mem_get(&self, addr: u64) -> Option<Value> {
        self.mem.iter().find(|(a, _)| *a == addr).map(|(_, v)| *v)
    }

    fn mem_insert(&mut self, addr: u64, value: Value) {
        match self.mem.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, slot)) => *slot = value,
            None => self.mem.push((addr, value)),
        }
    }

    fn mem_remove(&mut self, addr: u64) {
        if let Some(i) = self.mem.iter().position(|(a, _)| *a == addr) {
            self.mem.swap_remove(i);
        }
    }

    fn mem_is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Corrupted value of an operand, if its source register is corrupted.
    fn operand(&self, frame: u64, v: &TracedVal) -> Option<Value> {
        match v.source {
            ValueSource::Reg(r) => self.reg(frame, r),
            _ => None,
        }
    }
}

/// A reusable single-fault replay cursor over one immutable trace (either
/// backend): the reference engine that [`BatchReplayCursor`] must agree
/// with, and the replay behind [`crate::AdvfAnalyzer::classify`].
///
/// The cursor owns the shadow-state buffers *and* a [`TraceRead`] reader, so
/// a loop replaying many sites allocates nothing per replay and — on the
/// paged backend — keeps a warm LRU of decoded segments across the whole
/// site loop.  The trace itself is only borrowed: any number of cursors in
/// any number of threads can walk the same trace concurrently.
pub struct ReplayCursor<'t> {
    trace: &'t dyn TraceStorage,
    len: u64,
    reader: Box<dyn TraceRead + 't>,
    state: ShadowState,
}

impl<'t> ReplayCursor<'t> {
    /// A cursor over `trace` with empty state buffers.
    pub fn new(trace: &'t dyn TraceStorage) -> Self {
        ReplayCursor {
            trace,
            len: trace.len(),
            reader: trace.new_reader(),
            state: ShadowState::default(),
        }
    }

    /// The trace this cursor walks.
    pub fn trace(&self) -> &'t dyn TraceStorage {
        self.trace
    }

    /// Clone one record out of the trace through this cursor's warm reader
    /// (on the paged backend a fresh reader would decode a full segment per
    /// lookup; site loops hit the same segments their replays just paged in).
    pub fn fetch(&mut self, id: u64) -> Option<TraceRecord> {
        self.reader.fetch(id)
    }

    /// Replay the trace from `start_index` (a record position, usually
    /// `target_record_index + 1`) with the given initial corrupted
    /// locations, examining at most `k` records.
    ///
    /// A `start_index` at or past the end of the trace examines nothing: the
    /// verdict is then decided purely by whether corrupted *memory* is live
    /// (registers of finished frames are dead state).
    pub fn replay(
        &mut self,
        start_index: usize,
        initial: &[CorruptLoc],
        k: usize,
    ) -> PropagationResult {
        let state = &mut self.state;
        state.reset(initial);
        if state.is_clean() {
            return PropagationResult::AllMasked { ops_examined: 0 };
        }
        let mut examined = 0usize;
        let mut pos = start_index as u64;
        while pos < self.len {
            // One run = the longest contiguous decoded stretch from `pos`
            // (the whole tail in memory, a segment suffix when paged).  An
            // empty run before the end means the backend poisoned itself on
            // a decode error; stop here — the harness surfaces the error.
            let run = self.reader.run_from(pos);
            if run.is_empty() {
                break;
            }
            for rec in run {
                if examined >= k {
                    return PropagationResult::Unresolved {
                        reason: UnresolvedReason::WindowExhausted,
                        live_locations: state.live(),
                    };
                }
                examined += 1;
                match step(rec, state) {
                    StepResult::Continue => {}
                    StepResult::Unresolved(reason) => {
                        return PropagationResult::Unresolved {
                            reason,
                            live_locations: state.live(),
                        }
                    }
                }
                if state.is_clean() {
                    return PropagationResult::AllMasked {
                        ops_examined: examined,
                    };
                }
            }
            pos += run.len() as u64;
        }
        // Trace ended.  Registers of finished frames are dead state; only
        // corrupted memory can still influence the snapshot the outcome is
        // compared on.
        if state.mem_is_empty() {
            PropagationResult::AllMasked {
                ops_examined: examined,
            }
        } else {
            PropagationResult::Unresolved {
                reason: UnresolvedReason::TraceEnded,
                live_locations: state.live(),
            }
        }
    }
}

/// One-shot replay: build a throw-away [`ReplayCursor`] and run it.  Loops
/// over many sites should hold a cursor instead to reuse its buffers.
pub fn replay(
    trace: &dyn TraceStorage,
    start_index: usize,
    initial: &[CorruptLoc],
    k: usize,
) -> PropagationResult {
    ReplayCursor::new(trace).replay(start_index, initial, k)
}

/// Maximum number of replays one [`BatchReplayCursor`] walk can carry: one
/// bit of a `u64` lane mask per replay.
pub const MAX_REPLAY_LANES: usize = 64;

/// One scheduled replay in a batch: where the walk starts for this lane and
/// the corrupted locations it seeds.  The seed is stored inline (see
/// [`CorruptSeeds`]), so scheduling a lane allocates nothing.
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// First record position this lane examines (usually `record id + 1`).
    pub start: usize,
    /// Initial corrupted locations, as an operation verdict leaves them;
    /// an empty seed is trivially masked.
    pub corrupt: CorruptSeeds,
}

/// Filler for unoccupied lane slots; never observable (reads are guarded by
/// the lane mask).
const NO_VALUE: Value = Value::I1(false);

/// Iterate the set bit positions of a lane mask, lowest first.
#[inline]
fn iter_lanes(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(lane)
        }
    })
}

/// One shadow entry shared by up to 64 lanes: which lanes hold a corrupted
/// value here (`mask`) and the per-lane values.
#[derive(Clone)]
struct LaneEntry {
    mask: u64,
    vals: [Value; MAX_REPLAY_LANES],
}

/// Per-lane number of shadow entries holding the lane's bit, and the mask
/// of lanes with at least one.  Kept up to date on every mask change, so
/// finding the lanes that masked out, or one lane's live count, never
/// scans the tables.
struct LaneCounts {
    live: [u32; MAX_REPLAY_LANES],
    nonzero: u64,
}

impl Default for LaneCounts {
    fn default() -> Self {
        LaneCounts {
            live: [0; MAX_REPLAY_LANES],
            nonzero: 0,
        }
    }
}

impl LaneCounts {
    /// One entry's mask changed from `old` to `new`.
    fn update(&mut self, old: u64, new: u64) {
        let gained = new & !old;
        for lane in iter_lanes(gained) {
            self.live[lane] += 1;
        }
        self.nonzero |= gained;
        for lane in iter_lanes(old & !new) {
            self.live[lane] -= 1;
            if self.live[lane] == 0 {
                self.nonzero &= !(1u64 << lane);
            }
        }
    }

    /// The bits of `lanes` left every entry.
    fn clear(&mut self, lanes: u64) {
        for lane in iter_lanes(lanes) {
            self.live[lane] = 0;
        }
        self.nonzero &= !lanes;
    }
}

/// Hasher for the shadow tables' integer keys (addresses, frame and
/// register ids, all produced by the interpreter): one multiply per word,
/// with the high bits folded down so 8-byte-aligned addresses still spread
/// over the buckets.  With the default SipHash, walks to the end of the
/// trace took 2-2.5x as long (`moard analyze amg A --stride 8 --max-dfi
/// 200`: 0.51-0.58 s instead of 0.20-0.27 s on a 2-core Xeon).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A key resolved once for a whole record: the position of its entry and
/// the active lanes holding a corrupted value there.  A clean key has an
/// empty `mask`, and its `at` is never read.
#[derive(Clone, Copy)]
struct Tainted {
    at: usize,
    mask: u64,
}

impl Tainted {
    const CLEAN: Tainted = Tainted { at: 0, mask: 0 };
}

/// One shadow table: entries unique by key, in no particular order (order
/// is irrelevant to every observable result), plus a hash index from key to
/// entry position.  The index stores positions, never entries, so it adds a
/// few bytes per 1 KiB [`LaneEntry`].
struct LaneTable<K> {
    entries: Vec<(K, LaneEntry)>,
    index: HashMap<K, u32, BuildHasherDefault<KeyHasher>>,
}

impl<K> Default for LaneTable<K> {
    fn default() -> Self {
        LaneTable {
            entries: Vec::new(),
            index: HashMap::default(),
        }
    }
}

impl<K: Copy + Eq + Hash> LaneTable<K> {
    fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        // Most records of a long walk touch no live key at all; an empty
        // table skips the hashing.
        if self.entries.is_empty() {
            return None;
        }
        self.index.get(&key).map(|&i| i as usize)
    }

    /// Look `key` up once: its entry and the lanes of `active` it holds.
    #[inline]
    fn tainted(&self, key: K, active: u64) -> Tainted {
        match self.find(key) {
            Some(at) => Tainted {
                at,
                mask: self.entries[at].1.mask & active,
            },
            None => Tainted::CLEAN,
        }
    }

    /// One lane's value under a resolved key: the corrupted value when the
    /// lane is tainted there, `clean` otherwise.  Valid until the table is
    /// next written.
    #[inline]
    fn value(&self, t: Tainted, lane: usize, clean: Value) -> Value {
        if t.mask >> lane & 1 != 0 {
            self.entries[t.at].1.vals[lane]
        } else {
            clean
        }
    }

    /// Write `key` for the lanes of `lanes` at once: afterwards the lanes of
    /// `set` (a subset) hold `vals[lane]` there and the other lanes of
    /// `lanes` hold nothing.  Lanes outside `lanes` are untouched.
    fn assign(
        &mut self,
        key: K,
        lanes: u64,
        set: u64,
        vals: &[Value; MAX_REPLAY_LANES],
        counts: &mut LaneCounts,
    ) {
        debug_assert_eq!(set & !lanes, 0, "set lanes are written lanes");
        if lanes == 0 {
            return;
        }
        match self.find(key) {
            Some(i) => {
                let e = &mut self.entries[i].1;
                let old = e.mask;
                e.mask = old & !lanes | set;
                for lane in iter_lanes(set) {
                    e.vals[lane] = vals[lane];
                }
                counts.update(old, e.mask);
                if e.mask == 0 {
                    self.swap_remove(i);
                }
            }
            None if set != 0 => {
                self.index.insert(key, self.entries.len() as u32);
                self.entries.push((
                    key,
                    LaneEntry {
                        mask: set,
                        vals: *vals,
                    },
                ));
                counts.update(0, set);
            }
            None => {}
        }
    }

    /// Remove every entry whose key matches, for all lanes at once.
    fn remove_keys(&mut self, matches: impl Fn(&K) -> bool, counts: &mut LaneCounts) {
        // Walking down keeps `swap_remove` from moving an unvisited entry.
        for i in (0..self.entries.len()).rev() {
            if matches(&self.entries[i].0) {
                counts.update(self.entries[i].1.mask, 0);
                self.swap_remove(i);
            }
        }
    }

    /// Erase the bits of `lanes` from every entry in one sweep; the caller
    /// clears their counts.
    fn clear_lanes(&mut self, lanes: u64) {
        for i in (0..self.entries.len()).rev() {
            let e = &mut self.entries[i].1;
            e.mask &= !lanes;
            if e.mask == 0 {
                self.swap_remove(i);
            }
        }
    }

    fn swap_remove(&mut self, i: usize) {
        let (key, _) = self.entries.swap_remove(i);
        self.index.remove(&key);
        if let Some((moved, _)) = self.entries.get(i) {
            self.index.insert(*moved, i as u32);
        }
    }

    /// Union of live lane bits across the table.
    fn union_mask(&self) -> u64 {
        self.entries.iter().fold(0u64, |m, (_, e)| m | e.mask)
    }
}

/// Lane-masked shadow state: the batched counterpart of [`ShadowState`].
/// Each entry carries a `u64` of lane occupancy plus the per-lane corrupted
/// values, so one lookup serves every lane in the batch.
#[derive(Default)]
struct BatchShadowState {
    regs: LaneTable<(u64, u32)>,
    mem: LaneTable<u64>,
    counts: LaneCounts,
}

impl BatchShadowState {
    fn clear(&mut self) {
        self.regs.clear();
        self.mem.clear();
        self.counts = LaneCounts::default();
    }

    /// Seed one lane's corrupted locations, staging each value in `vals`.
    fn seed_lane(
        &mut self,
        lane: usize,
        locs: &[CorruptLoc],
        vals: &mut [Value; MAX_REPLAY_LANES],
    ) {
        let bit = 1u64 << lane;
        for loc in locs {
            match *loc {
                CorruptLoc::Reg { frame, reg, value } => {
                    vals[lane] = value;
                    self.regs
                        .assign((frame, reg.0), bit, bit, vals, &mut self.counts);
                }
                CorruptLoc::Mem { addr, value } => {
                    vals[lane] = value;
                    self.mem.assign(addr, bit, bit, vals, &mut self.counts);
                }
            }
        }
    }

    /// The register a value is read from, resolved for the `active` lanes.
    #[inline]
    fn source(&self, frame: u64, source: ValueSource, active: u64) -> Tainted {
        match source {
            ValueSource::Reg(r) => self.regs.tainted((frame, r.0), active),
            _ => Tainted::CLEAN,
        }
    }

    /// Write one register for the lanes of `lanes` (see [`LaneTable::assign`]).
    fn assign_reg(
        &mut self,
        frame: u64,
        reg: RegId,
        lanes: u64,
        set: u64,
        vals: &[Value; MAX_REPLAY_LANES],
    ) {
        self.regs
            .assign((frame, reg.0), lanes, set, vals, &mut self.counts);
    }

    /// Drop every register of a returning frame, for all lanes at once.
    fn drop_frame(&mut self, frame: u64) {
        self.regs
            .remove_keys(|&(f, _)| f == frame, &mut self.counts);
    }

    /// Number of live corrupted locations for one lane.
    fn live_count(&self, lane: usize) -> usize {
        self.counts.live[lane] as usize
    }

    /// Erase the bits of `lanes` everywhere (called when they retire).
    fn clear_lanes(&mut self, lanes: u64) {
        if self.counts.nonzero & lanes != 0 {
            self.regs.clear_lanes(lanes);
            self.mem.clear_lanes(lanes);
        }
        self.counts.clear(lanes);
    }
}

/// What evaluating a record's tainted lanes found: the lanes whose new
/// value differs from the clean one (`set`, values in the lane buffer) and
/// the lanes whose evaluation trapped.
#[derive(Default)]
struct LaneWrites {
    set: u64,
    trapped: u64,
}

/// Evaluate the `tainted` lanes of a record: `eval` gives a lane's value
/// (`None` when it traps), which lands in `vals` when it differs from
/// `clean`.  `clean` is borrowed from the record and read only for a
/// tainted lane: most records of a long walk taint no lane.
#[inline]
fn eval_lanes(
    tainted: u64,
    clean: &Value,
    vals: &mut [Value; MAX_REPLAY_LANES],
    mut eval: impl FnMut(usize) -> Option<Value>,
) -> LaneWrites {
    let mut w = LaneWrites::default();
    for lane in iter_lanes(tainted) {
        match eval(lane) {
            Some(v) if v.bits_eq(clean) => {}
            Some(v) => {
                vals[lane] = v;
                w.set |= 1u64 << lane;
            }
            None => w.trapped |= 1u64 << lane,
        }
    }
    w
}

/// Buffers of the batched walk, kept by the cursor so a walk allocates
/// nothing: the lane buffer (each lane's new value at the current record),
/// and an intrinsic's resolved arguments and one lane's argument values.
struct LaneScratch {
    vals: [Value; MAX_REPLAY_LANES],
    args: Vec<Tainted>,
    arg_vals: Vec<Value>,
}

impl Default for LaneScratch {
    fn default() -> Self {
        LaneScratch {
            vals: [NO_VALUE; MAX_REPLAY_LANES],
            args: Vec::new(),
            arg_vals: Vec::new(),
        }
    }
}

enum StepResult {
    Continue,
    Unresolved(UnresolvedReason),
}

fn step(rec: &TraceRecord, state: &mut ShadowState) -> StepResult {
    let frame = rec.frame;
    match &rec.op {
        TraceOp::Bin {
            op,
            ty,
            lhs,
            rhs,
            result,
        } => {
            let cl = state.operand(frame, lhs);
            let cr = state.operand(frame, rhs);
            let dst = rec.dst.expect("bin has dst");
            if cl.is_none() && cr.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let a = cl.unwrap_or(lhs.value);
            let b = cr.unwrap_or(rhs.value);
            match eval_binop(*op, *ty, &a, &b) {
                Ok(r) => {
                    state.set_reg(frame, dst, r, *result);
                    StepResult::Continue
                }
                Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
            }
        }
        TraceOp::Cmp {
            pred,
            lhs,
            rhs,
            result,
        } => {
            let cl = state.operand(frame, lhs);
            let cr = state.operand(frame, rhs);
            let dst = rec.dst.expect("cmp has dst");
            if cl.is_none() && cr.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let a = cl.unwrap_or(lhs.value);
            let b = cr.unwrap_or(rhs.value);
            match eval_cmp(*pred, &a, &b) {
                Ok(r) => {
                    state.set_reg(frame, dst, r, *result);
                    StepResult::Continue
                }
                Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
            }
        }
        TraceOp::Cast {
            kind,
            to,
            src,
            result,
        } => {
            let cs = state.operand(frame, src);
            let dst = rec.dst.expect("cast has dst");
            match cs {
                None => {
                    state.kill_reg(frame, dst);
                    StepResult::Continue
                }
                Some(v) => match eval_cast(*kind, *to, &v) {
                    Ok(r) => {
                        state.set_reg(frame, dst, r, *result);
                        StepResult::Continue
                    }
                    Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
                },
            }
        }
        TraceOp::Load {
            addr,
            addr_src,
            result,
            ..
        } => {
            // A corrupted address register means the program would read a
            // different location: undecidable from the trace.
            if let ValueSource::Reg(r) = addr_src {
                if state.reg(frame, *r).is_some() {
                    return StepResult::Unresolved(UnresolvedReason::AddressDivergence);
                }
            }
            let dst = rec.dst.expect("load has dst");
            match state.mem_get(*addr) {
                Some(v) => state.set_reg(frame, dst, v, *result),
                None => state.kill_reg(frame, dst),
            }
            StepResult::Continue
        }
        TraceOp::Store {
            addr,
            addr_src,
            value,
            ..
        } => {
            if let ValueSource::Reg(r) = addr_src {
                if state.reg(frame, *r).is_some() {
                    return StepResult::Unresolved(UnresolvedReason::AddressDivergence);
                }
            }
            match state.operand(frame, value) {
                Some(corrupted) => {
                    if corrupted.bits_eq(&value.value) {
                        state.mem_remove(*addr);
                    } else {
                        state.mem_insert(*addr, corrupted);
                    }
                }
                None => {
                    // Clean value overwrites any corrupted memory.
                    state.mem_remove(*addr);
                }
            }
            StepResult::Continue
        }
        TraceOp::Gep {
            base,
            index,
            elem_size,
            result,
        } => {
            let cb = state.operand(frame, base);
            let ci = state.operand(frame, index);
            let dst = rec.dst.expect("gep has dst");
            if cb.is_none() && ci.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let b = cb.unwrap_or(base.value);
            let i = ci.unwrap_or(index.value);
            let addr = b
                .as_u64()
                .wrapping_add((i.as_i64() as u64).wrapping_mul(*elem_size));
            state.set_reg(frame, dst, Value::Ptr(addr), *result);
            StepResult::Continue
        }
        TraceOp::Select {
            cond,
            then_v,
            else_v,
            result,
        } => {
            let cc = state.operand(frame, cond);
            let ct = state.operand(frame, then_v);
            let ce = state.operand(frame, else_v);
            let dst = rec.dst.expect("select has dst");
            if cc.is_none() && ct.is_none() && ce.is_none() {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            let c = cc.unwrap_or(cond.value);
            let t = ct.unwrap_or(then_v.value);
            let e = ce.unwrap_or(else_v.value);
            let r = if c.is_truthy() { t } else { e };
            state.set_reg(frame, dst, r, *result);
            StepResult::Continue
        }
        TraceOp::Intrinsic { intr, args, result } => {
            let dst = rec.dst.expect("intrinsic has dst");
            let mut any = false;
            let vals: Vec<Value> = args
                .iter()
                .map(|a| match state.operand(frame, a) {
                    Some(v) => {
                        any = true;
                        v
                    }
                    None => a.value,
                })
                .collect();
            if !any {
                state.kill_reg(frame, dst);
                return StepResult::Continue;
            }
            match eval_intrinsic(*intr, &vals) {
                Ok(r) => {
                    state.set_reg(frame, dst, r, *result);
                    StepResult::Continue
                }
                Err(_) => StepResult::Unresolved(UnresolvedReason::EvalTrap),
            }
        }
        TraceOp::Mov { src, result } => {
            let dst = rec.dst.expect("mov has dst");
            match state.operand(frame, src) {
                Some(v) => state.set_reg(frame, dst, v, *result),
                None => state.kill_reg(frame, dst),
            }
            StepResult::Continue
        }
        TraceOp::Call {
            args,
            callee_frame,
            param_regs,
            ..
        } => {
            for (arg, param) in args.iter().zip(param_regs.iter()) {
                if let Some(v) = state.operand(frame, arg) {
                    state.set_reg(*callee_frame, *param, v, arg.value);
                }
            }
            StepResult::Continue
        }
        TraceOp::Ret {
            value,
            caller_frame,
            dst_in_caller,
        } => {
            let corrupted_ret = value.as_ref().and_then(|v| state.operand(frame, v));
            // Every register of the returning frame dies.
            state.drop_frame(frame);
            if let (Some(cf), Some(dst)) = (caller_frame, dst_in_caller) {
                match (corrupted_ret, value) {
                    (Some(v), Some(clean)) => state.set_reg(*cf, *dst, v, clean.value),
                    _ => state.kill_reg(*cf, *dst),
                }
            } else if let Some(v) = corrupted_ret {
                // Corrupted final program return value: the outcome differs.
                if value.map(|c| !v.bits_eq(&c.value)).unwrap_or(false) {
                    return StepResult::Unresolved(UnresolvedReason::TraceEnded);
                }
            }
            StepResult::Continue
        }
        TraceOp::CondBr { cond, taken } => {
            if let Some(v) = state.operand(frame, cond) {
                if v.is_truthy() != *taken {
                    return StepResult::Unresolved(UnresolvedReason::ControlDivergence);
                }
            }
            StepResult::Continue
        }
        TraceOp::Switch { value, .. } => {
            if let Some(v) = state.operand(frame, value) {
                if !v.bits_eq(&value.value) {
                    return StepResult::Unresolved(UnresolvedReason::ControlDivergence);
                }
            }
            StepResult::Continue
        }
    }
}

/// In-flight state of one batched walk: the lane-masked shadow tables, the
/// per-lane results, and the set of lanes still advancing.
///
/// The step logic mirrors [`step`] arm for arm, once per record for the
/// whole batch.  Each operand's table entry is looked up once; the tainted
/// lanes re-evaluate the operation with exactly the sequential rules,
/// reading their values by entry position, and their new values land in
/// the cursor's lane buffer.  Lanes that trap or diverge at the record
/// retire next, so their live counts are those before it; then one
/// [`LaneTable::assign`] writes the destination for every active lane (the
/// lanes whose value differs from the clean one hold it, the others lose
/// it).  Every read precedes every write and each lane touches only its own
/// mask bit and value slot, so lanes cannot observe each other — which is
/// what makes every verdict bit-identical to a sequential replay.
///
/// A walk to the end of the trace ([`BatchReplayCursor::walk_to_end`])
/// differs in two places only: it has no window, and a corrupted final
/// return value is recorded in `returned` instead of retiring its lane.
struct BatchWalk<'a> {
    state: &'a mut BatchShadowState,
    scratch: &'a mut LaneScratch,
    results: &'a mut [Option<PropagationResult>],
    active: u64,
    to_end: bool,
    /// Lanes whose program return value differs (walks to the end only),
    /// and those values.
    returned: u64,
    ret_vals: [Value; MAX_REPLAY_LANES],
}

impl BatchWalk<'_> {
    /// Walk the records from the first pending lane's start, activating each
    /// lane at its start and retiring it when it resolves, a lane whose
    /// window of `window` records ran out included.  Returns the position
    /// the walk stopped at: the trace end, or earlier if every lane retired
    /// or the backend poisoned itself on a decode error.
    fn run(
        &mut self,
        reader: &mut dyn TraceRead,
        len: u64,
        batch: &[BatchLane],
        starts: &[u64],
        window: u64,
    ) -> u64 {
        let n = batch.len();
        let mut next_pending = 0usize;
        while next_pending < n && self.results[next_pending].is_some() {
            next_pending += 1;
        }
        let mut pos = if next_pending < n {
            starts[next_pending]
        } else {
            len
        };
        'walk: while pos < len && (self.active != 0 || next_pending < n) {
            let run = reader.run_from(pos);
            if run.is_empty() {
                break;
            }
            for rec in run {
                // Activate lanes whose walk starts at this record.
                while next_pending < n && starts[next_pending] == pos {
                    if self.results[next_pending].is_none() {
                        self.state.seed_lane(
                            next_pending,
                            &batch[next_pending].corrupt,
                            &mut self.scratch.vals,
                        );
                        self.active |= 1u64 << next_pending;
                    }
                    next_pending += 1;
                }
                if self.active == 0 {
                    // Nothing live: hop straight to the next start.
                    while next_pending < n && self.results[next_pending].is_some() {
                        next_pending += 1;
                    }
                    if next_pending >= n {
                        break 'walk;
                    }
                    pos = starts[next_pending];
                    continue 'walk;
                }
                // Window exhaustion, checked before the record is examined
                // (handles k = 0 like the sequential engine).  Starts ascend
                // with the lane index, so the lanes that run out here are
                // the lowest active ones, and they retire in one sweep.
                let mut exhausted = 0u64;
                for lane in iter_lanes(self.active) {
                    if pos - starts[lane] < window {
                        break;
                    }
                    exhausted |= 1u64 << lane;
                }
                self.retire(exhausted, UnresolvedReason::WindowExhausted);
                if self.active != 0 {
                    self.step(rec);
                    // Lanes with no live entry anywhere fully masked out.
                    let clean = self.active & !self.state.counts.nonzero;
                    for lane in iter_lanes(clean) {
                        self.retire_masked(lane, (pos + 1 - starts[lane]) as usize);
                    }
                }
                pos += 1;
            }
        }
        pos
    }

    /// Retire `lanes` unresolved, each with its live count as it stands,
    /// and erase their bits from both tables in one sweep.
    fn retire(&mut self, lanes: u64, reason: UnresolvedReason) {
        if lanes == 0 {
            return;
        }
        for lane in iter_lanes(lanes) {
            self.results[lane] = Some(PropagationResult::Unresolved {
                reason,
                live_locations: self.state.live_count(lane),
            });
        }
        self.active &= !lanes;
        self.state.clear_lanes(lanes);
    }

    /// Retire a lane whose corruption fully masked out.  Its bits are
    /// already absent from every entry, so no state cleanup is needed.
    fn retire_masked(&mut self, lane: usize, ops_examined: usize) {
        self.results[lane] = Some(PropagationResult::AllMasked { ops_examined });
        self.active &= !(1u64 << lane);
    }

    /// Retire the lanes whose evaluation trapped, then write the register
    /// `(frame, dst)` for every lane still active.
    fn write_reg(&mut self, frame: u64, dst: RegId, w: LaneWrites) {
        self.retire(w.trapped, UnresolvedReason::EvalTrap);
        self.state
            .assign_reg(frame, dst, self.active, w.set, &self.scratch.vals);
    }

    /// Retire the active lanes whose register `source` feeds an address.
    fn check_address(&mut self, frame: u64, source: ValueSource) {
        let m = self.state.source(frame, source, self.active).mask;
        self.retire(m, UnresolvedReason::AddressDivergence);
    }

    fn step(&mut self, rec: &TraceRecord) {
        let frame = rec.frame;
        let active = self.active;
        let regs = &self.state.regs;
        let vals = &mut self.scratch.vals;
        match &rec.op {
            TraceOp::Bin {
                op,
                ty,
                lhs,
                rhs,
                result,
            } => {
                let l = self.state.source(frame, lhs.source, active);
                let r = self.state.source(frame, rhs.source, active);
                let operands = |lane| {
                    (
                        regs.value(l, lane, lhs.value),
                        regs.value(r, lane, rhs.value),
                    )
                };
                let w = if *ty == Type::F64 {
                    // An `f64` lane of `fadd`/`fsub`/`fmul`/`fdiv` is one
                    // IEEE operation on its operands, the interpreter's
                    // own kernel, with no generic type checks or rewrapping.
                    eval_lanes(l.mask | r.mask, result, vals, |lane| {
                        let (a, b) = operands(lane);
                        match (a, b) {
                            (Value::F64(x), Value::F64(y)) => f64_arith(*op, x, y).map(Value::F64),
                            _ => None,
                        }
                        .or_else(|| eval_binop(*op, *ty, &a, &b).ok())
                    })
                } else {
                    eval_lanes(l.mask | r.mask, result, vals, |lane| {
                        let (a, b) = operands(lane);
                        eval_binop(*op, *ty, &a, &b).ok()
                    })
                };
                self.write_reg(frame, rec.dst.expect("bin has dst"), w);
            }
            TraceOp::Cmp {
                pred,
                lhs,
                rhs,
                result,
            } => {
                let l = self.state.source(frame, lhs.source, active);
                let r = self.state.source(frame, rhs.source, active);
                let w = eval_lanes(l.mask | r.mask, result, vals, |lane| {
                    let a = regs.value(l, lane, lhs.value);
                    let b = regs.value(r, lane, rhs.value);
                    eval_cmp(*pred, &a, &b).ok()
                });
                self.write_reg(frame, rec.dst.expect("cmp has dst"), w);
            }
            TraceOp::Cast {
                kind,
                to,
                src,
                result,
            } => {
                let s = self.state.source(frame, src.source, active);
                let w = eval_lanes(s.mask, result, vals, |lane| {
                    eval_cast(*kind, *to, &regs.value(s, lane, src.value)).ok()
                });
                self.write_reg(frame, rec.dst.expect("cast has dst"), w);
            }
            TraceOp::Load {
                addr,
                addr_src,
                result,
                ..
            } => {
                self.check_address(frame, *addr_src);
                let m = self.state.mem.tainted(*addr, self.active);
                let mem = &self.state.mem;
                let w = eval_lanes(m.mask, result, &mut self.scratch.vals, |lane| {
                    Some(mem.value(m, lane, *result))
                });
                self.write_reg(frame, rec.dst.expect("load has dst"), w);
            }
            TraceOp::Store {
                addr,
                addr_src,
                value,
                ..
            } => {
                self.check_address(frame, *addr_src);
                let v = self.state.source(frame, value.source, self.active);
                let regs = &self.state.regs;
                let w = eval_lanes(v.mask, &value.value, &mut self.scratch.vals, |lane| {
                    Some(regs.value(v, lane, value.value))
                });
                // A clean value overwrites any corrupted memory.
                let state = &mut *self.state;
                state.mem.assign(
                    *addr,
                    self.active,
                    w.set,
                    &self.scratch.vals,
                    &mut state.counts,
                );
            }
            TraceOp::Gep {
                base,
                index,
                elem_size,
                result,
            } => {
                let b = self.state.source(frame, base.source, active);
                let i = self.state.source(frame, index.source, active);
                let w = eval_lanes(b.mask | i.mask, result, vals, |lane| {
                    let b = regs.value(b, lane, base.value);
                    let i = regs.value(i, lane, index.value);
                    Some(Value::Ptr(
                        b.as_u64()
                            .wrapping_add((i.as_i64() as u64).wrapping_mul(*elem_size)),
                    ))
                });
                self.write_reg(frame, rec.dst.expect("gep has dst"), w);
            }
            TraceOp::Select {
                cond,
                then_v,
                else_v,
                result,
            } => {
                let c = self.state.source(frame, cond.source, active);
                let t = self.state.source(frame, then_v.source, active);
                let e = self.state.source(frame, else_v.source, active);
                let w = eval_lanes(c.mask | t.mask | e.mask, result, vals, |lane| {
                    Some(if regs.value(c, lane, cond.value).is_truthy() {
                        regs.value(t, lane, then_v.value)
                    } else {
                        regs.value(e, lane, else_v.value)
                    })
                });
                self.write_reg(frame, rec.dst.expect("select has dst"), w);
            }
            TraceOp::Intrinsic { intr, args, result } => {
                let LaneScratch {
                    vals,
                    args: resolved,
                    arg_vals,
                } = &mut *self.scratch;
                resolved.clear();
                let mut tainted = 0u64;
                for a in args {
                    let t = self.state.source(frame, a.source, active);
                    tainted |= t.mask;
                    resolved.push(t);
                }
                let w = eval_lanes(tainted, result, vals, |lane| {
                    arg_vals.clear();
                    arg_vals.extend(
                        args.iter()
                            .zip(resolved.iter())
                            .map(|(a, &t)| regs.value(t, lane, a.value)),
                    );
                    eval_intrinsic(*intr, arg_vals).ok()
                });
                self.write_reg(frame, rec.dst.expect("intrinsic has dst"), w);
            }
            TraceOp::Mov { src, result } => {
                let s = self.state.source(frame, src.source, active);
                let w = eval_lanes(s.mask, result, vals, |lane| {
                    Some(regs.value(s, lane, src.value))
                });
                self.write_reg(frame, rec.dst.expect("mov has dst"), w);
            }
            TraceOp::Call {
                args,
                callee_frame,
                param_regs,
                ..
            } => {
                // Only the tainted lanes write a parameter.
                for (arg, param) in args.iter().zip(param_regs.iter()) {
                    let t = self.state.source(frame, arg.source, active);
                    let regs = &self.state.regs;
                    let w = eval_lanes(t.mask, &arg.value, &mut self.scratch.vals, |lane| {
                        Some(regs.value(t, lane, arg.value))
                    });
                    self.state
                        .assign_reg(*callee_frame, *param, t.mask, w.set, &self.scratch.vals);
                }
            }
            TraceOp::Ret {
                value,
                caller_frame,
                dst_in_caller,
            } => {
                // Capture the lanes' differing return values before the
                // frame's registers die.
                let (t, clean) = match value {
                    Some(v) => (self.state.source(frame, v.source, active), &v.value),
                    None => (Tainted::CLEAN, &NO_VALUE),
                };
                let w = eval_lanes(t.mask, clean, vals, |lane| {
                    Some(regs.value(t, lane, *clean))
                });
                self.state.drop_frame(frame);
                match (caller_frame, dst_in_caller) {
                    (Some(cf), Some(dst)) => {
                        self.state
                            .assign_reg(*cf, *dst, self.active, w.set, &self.scratch.vals)
                    }
                    // Corrupted final program return value: the outcome
                    // differs.
                    (None, _) if self.to_end => {
                        self.returned |= w.set;
                        for lane in iter_lanes(w.set) {
                            self.ret_vals[lane] = self.scratch.vals[lane];
                        }
                    }
                    // The caller discards the value: it is dead.
                    (Some(_), None) if self.to_end => {}
                    _ => self.retire(w.set, UnresolvedReason::TraceEnded),
                }
            }
            TraceOp::CondBr { cond, taken } => {
                let t = self.state.source(frame, cond.source, active);
                let diverged = iter_lanes(t.mask)
                    .filter(|&lane| regs.value(t, lane, cond.value).is_truthy() != *taken)
                    .fold(0u64, |m, lane| m | 1u64 << lane);
                self.retire(diverged, UnresolvedReason::ControlDivergence);
            }
            TraceOp::Switch { value, .. } => {
                let t = self.state.source(frame, value.source, active);
                let diverged = iter_lanes(t.mask)
                    .filter(|&lane| !regs.value(t, lane, value.value).bits_eq(&value.value))
                    .fold(0u64, |m, lane| m | 1u64 << lane);
                self.retire(diverged, UnresolvedReason::ControlDivergence);
            }
        }
    }
}

/// Where a faulty run that provably stays on the golden path ends up: the
/// memory words that differ from the golden run at exit, and the program's
/// return value when it differs.  An empty end state is the golden outcome
/// itself.  Produced by [`BatchReplayCursor::walk_to_end`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SamePathEnd {
    /// `(address, value)` of every corrupted memory word, by address.
    pub memory: Vec<(u64, Value)>,
    /// The corrupted return value of the entry function, if any.
    pub return_value: Option<Value>,
}

/// Where a batched walk stopped, and the lane state the two entry points
/// turn into their results.
struct WalkStop {
    pos: u64,
    active: u64,
    returned: u64,
    ret_vals: [Value; MAX_REPLAY_LANES],
    starts: [u64; MAX_REPLAY_LANES],
}

/// A reusable lane-batched replay cursor: up to [`MAX_REPLAY_LANES`] replays
/// share one walk over the decoded records.
///
/// Like [`ReplayCursor`] it owns its state buffers (the shadow tables and
/// the lane buffers, so a walk allocates nothing once they have grown) and
/// a warm [`TraceRead`] reader, so on the paged backend one decoded
/// segment now serves every lane in the batch instead of a single replay.
pub struct BatchReplayCursor<'t> {
    trace: &'t dyn TraceStorage,
    len: u64,
    reader: Box<dyn TraceRead + 't>,
    state: BatchShadowState,
    scratch: LaneScratch,
}

impl<'t> BatchReplayCursor<'t> {
    /// A cursor over `trace` with empty state buffers.
    pub fn new(trace: &'t dyn TraceStorage) -> Self {
        BatchReplayCursor {
            trace,
            len: trace.len(),
            reader: trace.new_reader(),
            state: BatchShadowState::default(),
            scratch: LaneScratch::default(),
        }
    }

    /// The trace this cursor walks.
    pub fn trace(&self) -> &'t dyn TraceStorage {
        self.trace
    }

    /// Clone one record out of the trace through this cursor's warm reader
    /// (same rationale as [`ReplayCursor::fetch`]).
    pub fn fetch(&mut self, id: u64) -> Option<TraceRecord> {
        self.reader.fetch(id)
    }

    /// This cursor's reader, for a caller that reads the trace before the
    /// walks (the analyzer enumerates its sites through it).
    pub(crate) fn reader(&mut self) -> &mut (dyn TraceRead + 't) {
        self.reader.as_mut()
    }

    /// Replay every lane of `batch` (each at most `k` records from its own
    /// `start`), [`MAX_REPLAY_LANES`] lanes per walk, appending one
    /// [`PropagationResult`] per lane to `out` in lane order.
    ///
    /// Lanes must be sorted by ascending `start`; a longer batch is walked
    /// in consecutive groups of [`MAX_REPLAY_LANES`].  Lanes activate when the walk reaches
    /// their start and retire individually; when no lane is live the walk
    /// skips straight to the next start.  Lanes the walk never reaches
    /// (start at/past the trace end, or beyond a poisoned backend's decode
    /// error) fall back to the one-shot sequential [`replay`] — rare tail
    /// cases where exactness matters more than batching.
    pub fn replay_batch(
        &mut self,
        batch: &[BatchLane],
        k: usize,
        out: &mut Vec<PropagationResult>,
    ) {
        for lanes in batch.chunks(MAX_REPLAY_LANES) {
            let mut results = [None; MAX_REPLAY_LANES];
            let results = &mut results[..lanes.len()];
            let stop = self.walk(lanes, k as u64, false, results);
            // Trace ended (or the backend poisoned itself) with lanes still
            // live: same verdict rule as the sequential engine — only
            // corrupted *memory* survives the end of the trace.
            let mem_live = self.state.mem.union_mask();
            for lane in iter_lanes(stop.active) {
                let examined = (stop.pos - stop.starts[lane]) as usize;
                results[lane] = Some(if mem_live >> lane & 1 == 0 {
                    PropagationResult::AllMasked {
                        ops_examined: examined,
                    }
                } else {
                    PropagationResult::Unresolved {
                        reason: UnresolvedReason::TraceEnded,
                        live_locations: self.state.live_count(lane),
                    }
                });
            }
            // Lanes the walk never reached resolve through the exact
            // sequential engine.
            for (i, lane) in lanes.iter().enumerate() {
                if results[i].is_none() {
                    results[i] = Some(replay(self.trace, lane.start, &lane.corrupt, k));
                }
            }
            out.extend(results.iter().map(|r| r.expect("lane resolved")));
        }
    }

    /// Follow every lane of `batch` to the end of the trace, appending one
    /// entry per lane to `out` in lane order: the lane's [`SamePathEnd`]
    /// when its run provably stays on the golden path, `None` otherwise.
    ///
    /// A lane's run stays on the golden path when it executes exactly the
    /// recorded records with the same load and store addresses; its seed
    /// must then be the complete corrupted state right after the fault (the
    /// `corrupt` locations of [`crate::OpVerdict::Propagate`] and
    /// [`crate::OpVerdict::OvershadowCandidate`] are).  There is no window.
    /// A lane is same-path if the walk reaches the trace's last record with
    /// it, or if its corruption dies out on the way (the rest of its run is
    /// then the golden run).  It gets `None` when a corrupted value decides
    /// a branch or switch differently or feeds an address, when re-evaluating
    /// an operation traps (a `cmp` included, although the interpreter yields
    /// `false` there), when its start is at or past the trace end, or when
    /// the backend poisons itself before the lane is settled.
    ///
    /// Like the windowed replay, the shadow state keys memory by word
    /// address, so the end state is exact for programs that load and store
    /// whole elements with the element's type, as every built-in workload
    /// does (`tests/dfi_reconstruction.rs` checks each of them against
    /// injection).
    ///
    /// Lanes must be sorted by ascending `start`, and a batch of any length
    /// is walked [`MAX_REPLAY_LANES`] lanes at a time, as for
    /// [`BatchReplayCursor::replay_batch`].
    pub fn walk_to_end(&mut self, batch: &[BatchLane], out: &mut Vec<Option<SamePathEnd>>) {
        for lanes in batch.chunks(MAX_REPLAY_LANES) {
            let mut results = [None; MAX_REPLAY_LANES];
            let results = &mut results[..lanes.len()];
            let stop = self.walk(lanes, u64::MAX, true, results);
            let first = out.len();
            out.extend(
                results
                    .iter()
                    .map(|r| r.filter(|r| r.is_masked()).map(|_| SamePathEnd::default())),
            );
            let ends = &mut out[first..];
            // Lanes still live where the walk stopped are same-path only if
            // it stopped at the end of the trace, not at a poisoned segment.
            if stop.pos >= self.len {
                for lane in iter_lanes(stop.active) {
                    ends[lane] = Some(SamePathEnd::default());
                }
                for (addr, e) in &self.state.mem.entries {
                    for lane in iter_lanes(e.mask & stop.active) {
                        if let Some(end) = &mut ends[lane] {
                            end.memory.push((*addr, e.vals[lane]));
                        }
                    }
                }
            }
            for lane in iter_lanes(stop.returned) {
                if let Some(end) = &mut ends[lane] {
                    end.return_value = Some(stop.ret_vals[lane]);
                }
            }
            for end in ends.iter_mut().flatten() {
                end.memory.sort_unstable_by_key(|&(addr, _)| addr);
            }
        }
    }

    /// Reset the state, settle empty seeds, and walk `batch` with the given
    /// window (see [`BatchWalk::run`]).
    fn walk(
        &mut self,
        batch: &[BatchLane],
        window: u64,
        to_end: bool,
        results: &mut [Option<PropagationResult>],
    ) -> WalkStop {
        debug_assert!(
            batch.windows(2).all(|w| w[0].start <= w[1].start),
            "batch lanes must be sorted by start"
        );
        self.state.clear();
        let mut starts = [0u64; MAX_REPLAY_LANES];
        for (i, lane) in batch.iter().enumerate() {
            starts[i] = lane.start as u64;
            if lane.corrupt.is_empty() {
                results[i] = Some(PropagationResult::AllMasked { ops_examined: 0 });
            }
        }
        let mut walk = BatchWalk {
            state: &mut self.state,
            scratch: &mut self.scratch,
            results,
            active: 0,
            to_end,
            returned: 0,
            ret_vals: [NO_VALUE; MAX_REPLAY_LANES],
        };
        let pos = walk.run(
            self.reader.as_mut(),
            self.len,
            batch,
            &starts[..batch.len()],
            window,
        );
        WalkStop {
            pos,
            active: walk.active,
            returned: walk.returned,
            ret_vals: walk.ret_vals,
            starts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::prelude::*;
    use moard_vm::{run_traced, run_with_fault, ExecOutcome, FaultSpec, FaultTarget, Trace, Vm};

    /// x = a[0]; y = x * 2; a[1] = y; a[1] = 7.0; return a[1]
    /// An error in a[0] propagates into a[1] but is overwritten by the later
    /// constant store — the canonical propagation-masking pattern.
    fn overwrite_later_module() -> Module {
        let mut m = Module::new("ovl");
        let a = m.add_global(Global::from_f64("a", &[3.0, 0.0]));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let x = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let y = f.fmul(Operand::Reg(x), Operand::const_f64(2.0));
        f.store_elem(Type::F64, a, Operand::const_i64(1), Operand::Reg(y));
        f.store_elem(Type::F64, a, Operand::const_i64(1), Operand::const_f64(7.0));
        let out = f.load_elem(Type::F64, a, Operand::const_i64(1));
        f.ret(Some(Operand::Reg(out)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    #[test]
    fn corruption_killed_by_later_overwrite_is_masked() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        // Find the fmul record; corrupt its lhs (the loaded a[0]) and its dst.
        let fmul = trace.iter().find(|r| r.mnemonic() == "fmul").unwrap();
        let lhs_reg = match &fmul.op {
            TraceOp::Bin { lhs, .. } => match lhs.source {
                ValueSource::Reg(r) => r,
                _ => panic!(),
            },
            _ => panic!(),
        };
        let initial = vec![
            CorruptLoc::Reg {
                frame: fmul.frame,
                reg: lhs_reg,
                value: Value::F64(-3.0),
            },
            CorruptLoc::Reg {
                frame: fmul.frame,
                reg: fmul.dst.unwrap(),
                value: Value::F64(-6.0),
            },
        ];
        let res = replay(&trace, fmul.id as usize + 1, &initial, 50);
        assert!(res.is_masked(), "later constant store must mask: {res:?}");
    }

    #[test]
    fn corruption_reaching_final_output_is_unresolved() {
        // Same module, but corrupt the *final* store's value: nothing after
        // it re-writes a[1], so memory stays corrupted at trace end.
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let stores: Vec<&moard_vm::TraceRecord> =
            trace.iter().filter(|r| r.mnemonic() == "store").collect();
        let last_store = stores.last().unwrap();
        let addr = match &last_store.op {
            TraceOp::Store { addr, .. } => *addr,
            _ => unreachable!(),
        };
        let initial = vec![CorruptLoc::Mem {
            addr,
            value: Value::F64(-7.0),
        }];
        let res = replay(&trace, last_store.id as usize + 1, &initial, 50);
        match res {
            PropagationResult::Unresolved { .. } => {}
            other => panic!("expected unresolved, got {other:?}"),
        }
    }

    #[test]
    fn window_exhaustion_is_reported() {
        // A long chain of dependent adds keeps the corruption alive past a
        // tiny window.
        let mut m = Module::new("chain");
        let a = m.add_global(Global::from_f64("a", &[1.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let x = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let acc = f.alloc_reg(Type::F64);
        f.mov(acc, Operand::Reg(x));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(100), |f, _i| {
            let s = f.fadd(Operand::Reg(acc), Operand::const_f64(1.0));
            f.mov(acc, Operand::Reg(s));
        });
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(acc));
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);

        let (_, trace) = run_traced(&m).unwrap();
        let mov = trace.iter().find(|r| r.mnemonic() == "mov").unwrap();
        let initial = vec![CorruptLoc::Reg {
            frame: mov.frame,
            reg: mov.dst.unwrap(),
            value: Value::F64(-1.0),
        }];
        let res = replay(&trace, mov.id as usize + 1, &initial, 10);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::WindowExhausted,
                ..
            }
        ));
        // With a window large enough to reach the end the corruption is still
        // live in `out`'s memory.
        let res = replay(&trace, mov.id as usize + 1, &initial, 100_000);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::TraceEnded,
                ..
            }
        ));
    }

    #[test]
    fn control_divergence_is_detected() {
        let mut m = Module::new("branchy");
        let a = m.add_global(Global::from_f64("a", &[5.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let x = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let c = f.cmp(CmpPred::FOgt, Operand::Reg(x), Operand::const_f64(0.0));
        f.if_then_else(
            Operand::Reg(c),
            |f| {
                f.store_elem(
                    Type::F64,
                    out,
                    Operand::const_i64(0),
                    Operand::const_f64(1.0),
                )
            },
            |f| {
                f.store_elem(
                    Type::F64,
                    out,
                    Operand::const_i64(0),
                    Operand::const_f64(-1.0),
                )
            },
        );
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        let (_, trace) = run_traced(&m).unwrap();
        let cmp = trace.iter().find(|r| r.mnemonic() == "cmp").unwrap();
        // Corrupt the comparison result itself: the branch flips.
        let initial = vec![CorruptLoc::Reg {
            frame: cmp.frame,
            reg: cmp.dst.unwrap(),
            value: Value::I1(false),
        }];
        let res = replay(&trace, cmp.id as usize + 1, &initial, 50);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::ControlDivergence,
                ..
            }
        ));
    }

    #[test]
    fn corrupted_index_reaching_address_is_unresolved() {
        let mut m = Module::new("addr");
        let idx = m.add_global(Global::from_i64("idx", &[1]));
        let a = m.add_global(Global::from_f64("a", &[1.0, 2.0, 3.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let i = f.load_elem(Type::I64, idx, Operand::const_i64(0));
        let v = f.load_elem(Type::F64, a, Operand::Reg(i));
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(v));
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        let (_, trace) = run_traced(&m).unwrap();
        let i_load = trace
            .iter()
            .find(|r| matches!(&r.op, TraceOp::Load { ty: Type::I64, .. }))
            .unwrap();
        let initial = vec![CorruptLoc::Reg {
            frame: i_load.frame,
            reg: i_load.dst.unwrap(),
            value: Value::I64(2),
        }];
        let res = replay(&trace, i_load.id as usize + 1, &initial, 50);
        assert!(matches!(
            res,
            PropagationResult::Unresolved {
                reason: UnresolvedReason::AddressDivergence,
                ..
            }
        ));
    }

    #[test]
    fn empty_initial_state_is_trivially_masked() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        assert_eq!(
            replay(&trace, 0, &[], 50),
            PropagationResult::AllMasked { ops_examined: 0 }
        );
    }

    /// Test-only naive replay: the pre-index implementation, iterating the
    /// full record list with `skip` instead of the zero-copy window cursor.
    /// The parity tests below pin the indexed engine to this reference on
    /// the window edge cases.
    fn naive_replay(
        trace: &Trace,
        start_index: usize,
        initial: &[CorruptLoc],
        k: usize,
    ) -> PropagationResult {
        let mut state = ShadowState::default();
        state.reset(initial);
        if state.is_clean() {
            return PropagationResult::AllMasked { ops_examined: 0 };
        }
        let mut examined = 0usize;
        for rec in trace.iter().skip(start_index) {
            if examined >= k {
                return PropagationResult::Unresolved {
                    reason: UnresolvedReason::WindowExhausted,
                    live_locations: state.live(),
                };
            }
            examined += 1;
            match step(rec, &mut state) {
                StepResult::Continue => {}
                StepResult::Unresolved(reason) => {
                    return PropagationResult::Unresolved {
                        reason,
                        live_locations: state.live(),
                    }
                }
            }
            if state.is_clean() {
                return PropagationResult::AllMasked {
                    ops_examined: examined,
                };
            }
        }
        if state.mem_is_empty() {
            PropagationResult::AllMasked {
                ops_examined: examined,
            }
        } else {
            PropagationResult::Unresolved {
                reason: UnresolvedReason::TraceEnded,
                live_locations: state.live(),
            }
        }
    }

    fn corrupt_reg_seed(trace: &Trace, mnemonic: &str) -> (usize, Vec<CorruptLoc>) {
        let rec = trace.iter().find(|r| r.mnemonic() == mnemonic).unwrap();
        (
            rec.id as usize + 1,
            vec![CorruptLoc::Reg {
                frame: rec.frame,
                reg: rec.dst.unwrap(),
                value: Value::F64(-123.25),
            }],
        )
    }

    #[test]
    fn window_edge_site_at_trace_tail_matches_naive() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let len = trace.len();
        let mem_seed = vec![CorruptLoc::Mem {
            addr: 0x1008,
            value: Value::F64(-7.0),
        }];
        let reg_seed = vec![CorruptLoc::Reg {
            frame: 0,
            reg: moard_ir::RegId(0),
            value: Value::F64(-1.0),
        }];
        // Replays starting at the last record, exactly at the end, and past
        // the end: live memory must report TraceEnded, live registers of a
        // finished program must count as masked.
        for start in [len - 1, len, len + 10] {
            for (seed, expect_masked) in [(&mem_seed, false), (&reg_seed, start >= len)] {
                let indexed = replay(&trace, start, seed, 50);
                let naive = naive_replay(&trace, start, seed, 50);
                assert_eq!(indexed, naive, "start={start}");
                if start >= len {
                    assert_eq!(indexed.is_masked(), expect_masked, "start={start}");
                }
            }
        }
    }

    #[test]
    fn window_edge_k_exceeding_remaining_records_matches_naive() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let (start, seed) = corrupt_reg_seed(&trace, "fmul");
        let remaining = trace.len() - start;
        // Windows straddling the tail: exactly the remaining records, one
        // more, and far past the end all agree with the naive walk (the
        // clamp cannot double-count or skip the final records).
        for k in [remaining, remaining + 1, remaining * 10 + 7] {
            assert_eq!(
                replay(&trace, start, &seed, k),
                naive_replay(&trace, start, &seed, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn window_edge_strided_sites_in_last_partial_window_match_naive() {
        // Walk sites of a real object with a stride whose final step lands
        // in the last partial window of the trace, and check indexed/naive
        // parity of every replay — including sites whose window is shorter
        // than k.
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let vm = moard_vm::Vm::with_defaults(&m).unwrap();
        let a = vm.objects().by_name("a").unwrap().id;
        let sites = crate::sites::enumerate_sites(&trace, a);
        assert!(sites.len() >= 3, "fixture object participates enough");
        let k = 4;
        for stride in [1usize, 2, 3] {
            let mut checked_partial_window = false;
            for site in sites.iter().step_by(stride) {
                let start = site.record_id as usize + 1;
                let seed = vec![CorruptLoc::Mem {
                    addr: 0x1000,
                    value: Value::F64(99.5),
                }];
                assert_eq!(
                    replay(&trace, start, &seed, k),
                    naive_replay(&trace, start, &seed, k),
                    "stride={stride} site at record {}",
                    site.record_id
                );
                checked_partial_window |= trace.len() - start < k;
            }
            assert!(
                checked_partial_window,
                "stride {stride} must exercise a window shorter than k"
            );
        }
    }

    /// A fixture with branches, selects-by-control-flow, loops and stores:
    /// enough op variety that a batched walk exercises every retirement kind
    /// (masking, window exhaustion, control divergence, trace end).
    fn parity_module() -> Module {
        let mut m = Module::new("parity");
        let v = m.add_global(Global::from_f64("v", &[1.0, -2.0, 3.0, 4.0]));
        let sum = m.add_global(Global::zeroed("sum", Type::F64, 1));
        let pos = m.add_global(Global::zeroed("pos", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.store_elem(
            Type::F64,
            sum,
            Operand::const_i64(0),
            Operand::const_f64(0.0),
        );
        f.for_loop(Operand::const_i64(0), Operand::const_i64(4), |f, i| {
            let vi = f.load_elem(Type::F64, v, Operand::Reg(i));
            let c = f.cmp(CmpPred::FOgt, Operand::Reg(vi), Operand::const_f64(0.0));
            f.if_then_else(
                Operand::Reg(c),
                |f| {
                    f.store_elem(Type::F64, pos, Operand::const_i64(0), Operand::Reg(vi));
                },
                |f| {
                    f.store_elem(
                        Type::F64,
                        pos,
                        Operand::const_i64(0),
                        Operand::const_f64(0.0),
                    );
                },
            );
            let sq = f.fmul(Operand::Reg(vi), Operand::Reg(vi));
            let s = f.load_elem(Type::F64, sum, Operand::const_i64(0));
            let ns = f.fadd(Operand::Reg(s), Operand::Reg(sq));
            f.store_elem(Type::F64, sum, Operand::const_i64(0), Operand::Reg(ns));
        });
        let out = f.load_elem(Type::F64, sum, Operand::const_i64(0));
        f.ret(Some(Operand::Reg(out)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    /// A value-returning helper called in a loop: calls whose arguments and
    /// returned values reach a caller's register, and a select, an
    /// intrinsic, an integer remainder and a cast inside the callee, none of
    /// which the other fixtures execute.
    fn call_module() -> Module {
        let mut m = Module::new("calls");
        let v = m.add_global(Global::from_f64("v", &[1.5, -2.0, 4.0]));
        let sum = m.add_global(Global::zeroed("sum", Type::F64, 1));
        // double scale(double x, long i) {
        //     return sqrt(x > 0 ? x : 1.0) + (double)(i % 2);
        // }
        let mut h = FunctionBuilder::new("scale", &[Type::F64, Type::I64], Some(Type::F64));
        let (x, i) = (h.param(0), h.param(1));
        let odd = h.srem(Operand::Reg(i), Operand::const_i64(2));
        let oddf = h.sitofp(Operand::Reg(odd));
        let pos = h.cmp(CmpPred::FOgt, Operand::Reg(x), Operand::const_f64(0.0));
        let ax = h.select(
            Type::F64,
            Operand::Reg(pos),
            Operand::Reg(x),
            Operand::const_f64(1.0),
        );
        let root = h.sqrt(Operand::Reg(ax));
        let y = h.fadd(Operand::Reg(root), Operand::Reg(oddf));
        h.ret(Some(Operand::Reg(y)));
        let scale = m.add_function(h.finish());
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.store_elem(
            Type::F64,
            sum,
            Operand::const_i64(0),
            Operand::const_f64(0.0),
        );
        f.for_loop(Operand::const_i64(0), Operand::const_i64(3), |f, i| {
            let vi = f.load_elem(Type::F64, v, Operand::Reg(i));
            let y = f
                .call(scale, &[Operand::Reg(vi), Operand::Reg(i)], Some(Type::F64))
                .unwrap();
            let s = f.load_elem(Type::F64, sum, Operand::const_i64(0));
            let ns = f.fadd(Operand::Reg(s), Operand::Reg(y));
            f.store_elem(Type::F64, sum, Operand::const_i64(0), Operand::Reg(ns));
        });
        let out = f.load_elem(Type::F64, sum, Operand::const_i64(0));
        f.ret(Some(Operand::Reg(out)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    /// The clean destination value a record produced, when it has one.
    fn dst_result(rec: &TraceRecord) -> Option<Value> {
        match &rec.op {
            TraceOp::Bin { result, .. }
            | TraceOp::Cmp { result, .. }
            | TraceOp::Cast { result, .. }
            | TraceOp::Load { result, .. }
            | TraceOp::Gep { result, .. }
            | TraceOp::Select { result, .. }
            | TraceOp::Intrinsic { result, .. }
            | TraceOp::Mov { result, .. } => Some(*result),
            _ => None,
        }
    }

    /// A replay seed of the listed locations.
    fn seed<const N: usize>(locs: [CorruptLoc; N]) -> CorruptSeeds {
        let mut seed = CorruptSeeds::new();
        for loc in locs {
            seed.push(loc);
        }
        seed
    }

    /// Lanes from every record of `trace`, sorted by start: a type-correct
    /// bit flip of each destination register, periodic multi-location
    /// memory seeds, a mixed reg+mem seed, 32 lanes seeding 32 registers
    /// and 32 words into one walk's tables (many index moves on removal),
    /// tail starts at and past the trace end, and a trivially-masked empty
    /// seed.
    fn parity_lanes(trace: &Trace) -> Vec<BatchLane> {
        let mut lanes: Vec<BatchLane> = Vec::new();
        lanes.push(BatchLane {
            start: 0,
            corrupt: CorruptSeeds::new(),
        });
        for rec in trace.iter() {
            let start = rec.id as usize + 1;
            if let (Some(dst), Some(clean)) = (rec.dst, dst_result(rec)) {
                lanes.push(BatchLane {
                    start,
                    corrupt: seed([CorruptLoc::Reg {
                        frame: rec.frame,
                        reg: dst,
                        value: clean.flip_bit(0),
                    }]),
                });
            }
            if rec.id % 3 == 0 {
                lanes.push(BatchLane {
                    start,
                    corrupt: seed([
                        CorruptLoc::Mem {
                            addr: 0x1000,
                            value: Value::F64(99.5),
                        },
                        CorruptLoc::Mem {
                            addr: 0x1008,
                            value: Value::F64(-7.0),
                        },
                    ]),
                });
            }
            if rec.id % 4 == 1 {
                if let (Some(dst), Some(clean)) = (rec.dst, dst_result(rec)) {
                    lanes.push(BatchLane {
                        start,
                        corrupt: seed([
                            CorruptLoc::Reg {
                                frame: rec.frame,
                                reg: dst,
                                value: clean.flip_mask(0b110),
                            },
                            CorruptLoc::Mem {
                                addr: 0x1000,
                                value: Value::F64(3.25),
                            },
                        ]),
                    });
                }
            }
            if rec.id % 9 == 2 {
                for r in 0..32u64 {
                    lanes.push(BatchLane {
                        start,
                        corrupt: seed([
                            CorruptLoc::Reg {
                                frame: rec.frame,
                                reg: moard_ir::RegId(r as u32),
                                value: Value::I64(r as i64 - 5),
                            },
                            CorruptLoc::Mem {
                                addr: 0x1000 + 8 * r,
                                value: Value::F64(r as f64 + 0.5),
                            },
                        ]),
                    });
                }
            }
        }
        let len = trace.len();
        lanes.push(BatchLane {
            start: len,
            corrupt: seed([CorruptLoc::Mem {
                addr: 0x1000,
                value: Value::F64(1.5),
            }]),
        });
        lanes.push(BatchLane {
            start: len + 9,
            corrupt: seed([CorruptLoc::Reg {
                frame: 0,
                reg: moard_ir::RegId(0),
                value: Value::I64(7),
            }]),
        });
        lanes.sort_by_key(|l| l.start);
        lanes
    }

    #[test]
    fn batched_replay_is_bit_identical_to_sequential() {
        let mut max_lanes = 0usize;
        for m in [overwrite_later_module(), parity_module(), call_module()] {
            let (_, trace) = run_traced(&m).unwrap();
            let lanes = parity_lanes(&trace);
            max_lanes = max_lanes.max(lanes.len());

            let mut cursor = BatchReplayCursor::new(&trace);
            for k in [0usize, 1, 3, 10, 50, 100_000] {
                let sequential: Vec<PropagationResult> = lanes
                    .iter()
                    .map(|l| replay(&trace, l.start, &l.corrupt, k))
                    .collect();
                for width in [1usize, 3, 7, 64] {
                    let mut batched = Vec::new();
                    for chunk in lanes.chunks(width) {
                        cursor.replay_batch(chunk, k, &mut batched);
                    }
                    assert_eq!(batched, sequential, "k={k} width={width}");
                }
            }
        }
        assert!(max_lanes > MAX_REPLAY_LANES, "population fills a batch");
    }

    #[test]
    fn walk_to_end_agrees_with_an_unbounded_sequential_replay() {
        // The sequential engine with no window stops where a walk to the
        // end gives up (control, address, trap), reports a lane masked
        // when it is, and otherwise ends on `TraceEnded` with exactly the
        // lane's corrupted words live (the final return is the last
        // record, after every register died).
        for m in [overwrite_later_module(), parity_module(), call_module()] {
            let (_, trace) = run_traced(&m).unwrap();
            let lanes = parity_lanes(&trace);
            let len = trace.len();
            let mut cursor = BatchReplayCursor::new(&trace);
            for width in [1usize, 7, 64] {
                let mut ends = Vec::new();
                for chunk in lanes.chunks(width) {
                    cursor.walk_to_end(chunk, &mut ends);
                }
                for (lane, end) in lanes.iter().zip(&ends) {
                    let case = format!("width={width} start={}", lane.start);
                    if lane.start >= len {
                        assert_eq!(*end, None, "{case}");
                        continue;
                    }
                    match replay(&trace, lane.start, &lane.corrupt, usize::MAX) {
                        PropagationResult::AllMasked { .. } => {
                            assert_eq!(*end, Some(SamePathEnd::default()), "{case}")
                        }
                        PropagationResult::Unresolved {
                            reason: UnresolvedReason::TraceEnded,
                            live_locations,
                        } => {
                            let end = end.as_ref().expect("same-path lane");
                            assert_eq!(end.memory.len(), live_locations, "{case}");
                            assert!(!end.memory.is_empty() || end.return_value.is_some());
                            assert!(end.memory.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                        PropagationResult::Unresolved { .. } => assert_eq!(*end, None, "{case}"),
                    }
                }
            }
        }
    }

    /// `golden` with the words and return value of `end` patched in.
    fn patched(
        golden: &ExecOutcome,
        objects: &moard_vm::DataObjectRegistry,
        end: &SamePathEnd,
    ) -> ExecOutcome {
        let mut outcome = golden.clone();
        for &(addr, value) in &end.memory {
            let (id, index) = objects.locate(addr).expect("word inside a global");
            outcome.globals.get_mut(&objects.get(id).name).unwrap()[index as usize] = value;
        }
        if end.return_value.is_some() {
            outcome.return_value = end.return_value;
        }
        outcome
    }

    #[test]
    fn walk_to_end_reconstructs_injected_outcomes() {
        // A `Result` fault leaves exactly its flipped destination register
        // behind, so the register seed is the injector's post-fault state:
        // every lane the walk follows to the end must rebuild the injected
        // outcome bit for bit.  The population covers every kind of end.
        let (mut same_path, mut diverged, mut words, mut returns) = (0, 0, 0, 0);
        for m in [overwrite_later_module(), parity_module(), call_module()] {
            let (golden, trace) = run_traced(&m).unwrap();
            let objects = Vm::with_defaults(&m).unwrap().objects().clone();
            let mut lanes = Vec::new();
            let mut faults = Vec::new();
            for rec in trace.iter() {
                let (Some(dst), Some(clean)) = (rec.dst, dst_result(rec)) else {
                    continue;
                };
                for bit in [0u32, 62] {
                    let mask = 1u64 << (bit % clean.ty().bit_width());
                    lanes.push(BatchLane {
                        start: rec.id as usize + 1,
                        corrupt: seed([CorruptLoc::Reg {
                            frame: rec.frame,
                            reg: dst,
                            value: clean.flip_mask(mask),
                        }]),
                    });
                    faults.push(FaultSpec::masked(rec.id, FaultTarget::Result, mask));
                }
            }
            let mut cursor = BatchReplayCursor::new(&trace);
            let mut ends = Vec::new();
            for chunk in lanes.chunks(MAX_REPLAY_LANES) {
                cursor.walk_to_end(chunk, &mut ends);
            }
            for (fault, end) in faults.iter().zip(&ends) {
                let Some(end) = end else {
                    diverged += 1;
                    continue;
                };
                let injected = run_with_fault(&m, fault).unwrap();
                let rebuilt = patched(&golden, &objects, end);
                assert!(
                    rebuilt.bits_identical(&injected) && rebuilt.steps == injected.steps,
                    "{fault:?}: rebuilt {rebuilt:?}, injected {injected:?}"
                );
                same_path += 1;
                words += usize::from(!end.memory.is_empty());
                returns += usize::from(end.return_value.is_some());
            }
        }
        assert!(same_path > 0 && diverged > 0 && words > 0 && returns > 0);
    }

    #[test]
    fn walk_to_end_drops_a_return_value_its_caller_discards() {
        // double twice(double x) { return x * 2.0; }
        // double main() { twice(g[0]); return 1.0; }
        let mut m = Module::new("discard");
        let g = m.add_global(Global::from_f64("g", &[1.5]));
        let mut h = FunctionBuilder::new("twice", &[Type::F64], Some(Type::F64));
        let y = h.fmul(Operand::Reg(h.param(0)), Operand::const_f64(2.0));
        h.ret(Some(Operand::Reg(y)));
        let twice = m.add_function(h.finish());
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let x = f.load_elem(Type::F64, g, Operand::const_i64(0));
        assert_eq!(f.call(twice, &[Operand::Reg(x)], None), None);
        f.ret(Some(Operand::const_f64(1.0)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);

        let (golden, trace) = run_traced(&m).unwrap();
        let rec = trace.iter().find(|r| r.mnemonic() == "fmul").unwrap();
        let mask = 1u64 << 62;
        let lane = BatchLane {
            start: rec.id as usize + 1,
            corrupt: seed([CorruptLoc::Reg {
                frame: rec.frame,
                reg: rec.dst.unwrap(),
                value: dst_result(rec).unwrap().flip_mask(mask),
            }]),
        };
        let mut ends = Vec::new();
        BatchReplayCursor::new(&trace).walk_to_end(std::slice::from_ref(&lane), &mut ends);
        let end = ends[0]
            .as_ref()
            .expect("the fault stays on the golden path");
        assert_eq!(*end, SamePathEnd::default());
        let objects = Vm::with_defaults(&m).unwrap().objects().clone();
        let injected =
            run_with_fault(&m, &FaultSpec::masked(rec.id, FaultTarget::Result, mask)).unwrap();
        let rebuilt = patched(&golden, &objects, end);
        assert!(rebuilt.bits_identical(&injected) && rebuilt.steps == injected.steps);
        // A windowed replay still gives up at the return.
        let mut windowed = Vec::new();
        BatchReplayCursor::new(&trace).replay_batch(&[lane], 50, &mut windowed);
        assert!(matches!(
            windowed[0],
            PropagationResult::Unresolved {
                reason: UnresolvedReason::TraceEnded,
                ..
            }
        ));
    }

    #[test]
    fn batches_longer_than_the_lane_cap_walk_in_groups() {
        // 65 lanes in one call give exactly the results of a 64-lane call
        // followed by a 1-lane call, for both entry points.
        let m = parity_module();
        let (_, trace) = run_traced(&m).unwrap();
        let lanes = parity_lanes(&trace);
        let lanes = &lanes[lanes.len() - (MAX_REPLAY_LANES + 1)..];
        let (head, tail) = lanes.split_at(MAX_REPLAY_LANES);
        let mut cursor = BatchReplayCursor::new(&trace);
        for k in [3usize, 50] {
            let (mut whole, mut parts) = (Vec::new(), Vec::new());
            cursor.replay_batch(lanes, k, &mut whole);
            cursor.replay_batch(head, k, &mut parts);
            cursor.replay_batch(tail, k, &mut parts);
            assert_eq!(whole.len(), lanes.len());
            assert_eq!(whole, parts, "k={k}");
        }
        let (mut whole, mut parts) = (Vec::new(), Vec::new());
        cursor.walk_to_end(lanes, &mut whole);
        cursor.walk_to_end(head, &mut parts);
        cursor.walk_to_end(tail, &mut parts);
        assert_eq!(whole.len(), lanes.len());
        assert_eq!(whole, parts);
    }

    #[test]
    fn cursor_reuse_is_equivalent_to_one_shot_replay() {
        let m = overwrite_later_module();
        let (_, trace) = run_traced(&m).unwrap();
        let (start, seed) = corrupt_reg_seed(&trace, "fmul");
        let mut cursor = ReplayCursor::new(&trace);
        // Same underlying storage (compare data pointers; the trait object
        // reference is fat).
        assert!(std::ptr::eq(
            cursor.trace() as *const dyn TraceStorage as *const u8,
            &trace as *const moard_vm::Trace as *const u8
        ));
        for _ in 0..3 {
            for k in [1usize, 2, 50] {
                assert_eq!(
                    cursor.replay(start, &seed, k),
                    replay(&trace, start, &seed, k)
                );
            }
            // Interleave a replay that leaves live state in the buffers to
            // prove reset fully isolates successive replays.
            let _ = cursor.replay(trace.len() - 1, &seed, 50);
        }
    }
}
