//! The one-fault propagation replay (paper §III-D): the reference that
//! the lane-batched walk of `moard_core::propagation` is tested against.
//!
//! It follows one fault at a time.  Every record after the target
//! operation is re-evaluated with the corrupted values substituted, and the
//! live corrupted locations are kept in two small linear tables.  The
//! replay stops when the corruption dies out (masked), when `k` records
//! have been examined, when a corrupted value decides a branch or feeds an
//! address, when re-evaluation traps, or at the end of the trace, where
//! only corrupted memory counts.  It reads the trace through
//! `TraceStorage::new_reader` runs, as the library's cursor does, so it
//! sees exactly what a failing storage serves.
//!
//! `tests/batch_parity.rs` and the unit tests of
//! `crates/core/src/propagation.rs` (which include this file by path) share
//! it.

use moard_core::{CorruptLoc, PropagationResult, UnresolvedReason};
use moard_ir::{eval_binop, eval_cast, eval_cmp, eval_intrinsic, RegId, Value};
use moard_vm::{TraceOp, TraceRecord, TraceStorage, TracedVal, ValueSource};

/// Replay the trace from `start_index` (a record position, usually
/// `target_record_index + 1`) with the given initial corrupted locations,
/// examining at most `k` records.
///
/// A `start_index` at or past the end of the trace examines nothing: the
/// verdict is then decided purely by whether corrupted *memory* is live
/// (registers of finished frames are dead state).  An empty run before the
/// end (a backend that poisoned itself on a decode error) stops the replay
/// the same way.
pub fn replay(
    trace: &dyn TraceStorage,
    start_index: usize,
    initial: &[CorruptLoc],
    k: usize,
) -> PropagationResult {
    let mut walk = Walk::new(initial, k);
    if walk.is_clean() {
        return PropagationResult::AllMasked { ops_examined: 0 };
    }
    let mut reader = trace.new_reader();
    let mut pos = start_index as u64;
    while pos < trace.len() {
        let run = reader.run_from(pos);
        if run.is_empty() {
            break;
        }
        for rec in run {
            if let Some(result) = walk.step(rec) {
                return result;
            }
        }
        pos += run.len() as u64;
    }
    walk.end()
}

/// One fault's replay in flight: its live corrupted state, and how many of
/// its window of `k` records it has examined.
pub struct Walk {
    state: ShadowState,
    examined: usize,
    k: usize,
}

impl Walk {
    /// A replay seeded with the `initial` corrupted locations.
    pub fn new(initial: &[CorruptLoc], k: usize) -> Walk {
        let mut state = ShadowState::default();
        state.reset(initial);
        Walk {
            state,
            examined: 0,
            k,
        }
    }

    /// Whether nothing is corrupted.
    pub fn is_clean(&self) -> bool {
        self.state.is_clean()
    }

    /// Examine the next record: the verdict once the replay is settled.
    pub fn step(&mut self, rec: &TraceRecord) -> Option<PropagationResult> {
        let state = &mut self.state;
        if self.examined >= self.k {
            return Some(PropagationResult::Unresolved {
                reason: UnresolvedReason::WindowExhausted,
                live_locations: state.live(),
            });
        }
        self.examined += 1;
        if let StepResult::Unresolved(reason) = step(rec, state) {
            return Some(PropagationResult::Unresolved {
                reason,
                live_locations: state.live(),
            });
        }
        if state.is_clean() {
            return Some(PropagationResult::AllMasked {
                ops_examined: self.examined,
            });
        }
        None
    }

    /// The verdict where the records ran out.  Registers of finished frames
    /// are dead state; only corrupted memory can still influence the
    /// snapshot the outcome is compared on.
    pub fn end(&self) -> PropagationResult {
        if self.state.mem_is_empty() {
            PropagationResult::AllMasked {
                ops_examined: self.examined,
            }
        } else {
            PropagationResult::Unresolved {
                reason: UnresolvedReason::TraceEnded,
                live_locations: self.state.live(),
            }
        }
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
