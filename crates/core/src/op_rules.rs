//! Operation-level error-masking analysis (paper §III-C).
//!
//! Given one trace record, one participating slot (operand or store
//! destination), and one error pattern, [`analyze_operation`] decides whether
//! the error is masked *by this operation alone*, and if not, what corrupted
//! machine state (registers / memory) the error leaves behind so that the
//! propagation analysis can take over.
//!
//! The decision procedure re-evaluates the operation with the corrupted
//! operand substituted, using the exact same evaluator the interpreter uses,
//! and compares the corrupted result against the recorded clean result.  This
//! realizes the paper's "enumerate possible error patterns ... then derive the
//! existence of error masking for each error pattern without application
//! execution".
//!
//! [`analyze_site`] gives the same verdicts for every pattern of one slot at
//! once, applying each as an XOR mask to the operand it reads once; the
//! analyzer's scheduling pass classifies sites through it, and
//! [`analyze_operation`] is the per-pattern reference it is tested against.

use crate::error_pattern::ErrorPattern;
use crate::masking::OpMaskKind;
use crate::sites::SiteSlot;
use moard_ir::{
    eval_binop, eval_cast, eval_cmp, eval_intrinsic, f64_arith, BinOp, CastKind, RegId, Type, Value,
};
use moard_vm::{TraceOp, TraceRecord, TracedVal, ValueSource};
use std::ops::Deref;

/// A corrupted architecturally visible location left behind by an unmasked
/// error, used to seed the propagation replay; a [`CorruptSeeds`] holds up
/// to two of them inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorruptLoc {
    /// A virtual register of a specific frame holds `value` instead of the
    /// clean value recorded in the trace.
    Reg {
        frame: u64,
        reg: RegId,
        value: Value,
    },
    /// A memory word holds `value` instead of the clean value.
    Mem { addr: u64, value: Value },
}

/// The corrupted locations one error leaves behind when the operation does
/// not mask it: the seed of its propagation replay.
///
/// The list is stored inline, with room for [`CorruptSeeds::CAPACITY`]
/// locations, so an operation verdict or a replay lane
/// ([`crate::BatchLane`]) never allocates.  No operation rule leaves more
/// than two: the corrupted source register, and the destination register,
/// memory word or callee parameter it flows into.  It derefs to
/// `[CorruptLoc]`, so code reads a seed as a slice (`&seed[..]`,
/// `seed.iter()`); a replay takes the seed itself
/// ([`crate::BatchReplayCursor::replay`]`(start, &seed, k)`).
#[derive(Clone, Copy)]
pub struct CorruptSeeds {
    len: u8,
    locs: [CorruptLoc; CorruptSeeds::CAPACITY],
}

impl CorruptSeeds {
    /// Most locations a seed holds.
    pub const CAPACITY: usize = 2;

    /// An empty seed: nothing corrupted, trivially masked.
    pub fn new() -> Self {
        // Filler for unused slots; never observable (reads go through
        // `Deref`, which stops at `len`).
        const UNUSED: CorruptLoc = CorruptLoc::Mem {
            addr: 0,
            value: Value::I1(false),
        };
        CorruptSeeds {
            len: 0,
            locs: [UNUSED; CorruptSeeds::CAPACITY],
        }
    }

    /// Append a location.
    ///
    /// # Panics
    ///
    /// If the seed already holds [`CorruptSeeds::CAPACITY`] locations.
    pub fn push(&mut self, loc: CorruptLoc) {
        let len = self.len as usize;
        assert!(
            len < Self::CAPACITY,
            "a seed holds at most {} corrupted locations",
            Self::CAPACITY
        );
        self.locs[len] = loc;
        self.len += 1;
    }
}

impl Default for CorruptSeeds {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for CorruptSeeds {
    type Target = [CorruptLoc];

    fn deref(&self) -> &[CorruptLoc] {
        &self.locs[..self.len as usize]
    }
}

impl PartialEq for CorruptSeeds {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for CorruptSeeds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Verdict of the operation-level analysis for one (record, slot, pattern).
#[derive(Debug, Clone, PartialEq)]
pub enum OpVerdict {
    /// Masked by this operation; the sub-class feeds the Fig. 5 breakdown.
    Masked(OpMaskKind),
    /// The corrupted operand has smaller magnitude than the other operand of
    /// a floating-point add/sub — the paper's value-overshadowing candidate
    /// condition (§IV).  Deterministic fault injection decides whether the
    /// outcome is acceptable; if so the event is attributed to
    /// operation-level overshadowing.
    OvershadowCandidate {
        /// Corrupted state in case the caller wants to fall back to
        /// propagation replay instead of DFI (inline, see
        /// [`CorruptSeeds`]).
        corrupt: CorruptSeeds,
    },
    /// Not masked here; the listed locations are corrupted afterwards and the
    /// error-propagation analysis should continue from the next record
    /// (inline, see [`CorruptSeeds`]).
    Propagate { corrupt: CorruptSeeds },
    /// The analysis cannot compute the corrupted successor state (the error
    /// feeds control flow, an address, the program's final return value, or a
    /// callee we cannot replay): only deterministic fault injection can
    /// resolve it.
    NeedsDfi,
    /// Definitively not masked (for example, the corrupted divisor traps, or
    /// a store's value depends on the destination element so the error
    /// survives the overwrite).
    NotMasked,
}

fn corrupted_operand(operand: &TracedVal, pattern: &ErrorPattern) -> Value {
    operand.value.flip_bits(&pattern.bits)
}

fn src_loc(rec: &TraceRecord, operand: &TracedVal, corrupted: Value) -> Option<CorruptLoc> {
    match operand.source {
        ValueSource::Reg(r) => Some(CorruptLoc::Reg {
            frame: rec.frame,
            reg: r,
            value: corrupted,
        }),
        _ => None,
    }
}

/// The seed of an error in `operand` that changes the record's result to
/// `corrupted_result`: the operand's source register, if any, and the
/// record's destination register.
fn src_and_dst(
    rec: &TraceRecord,
    operand: &TracedVal,
    corrupted: Value,
    corrupted_result: Value,
) -> CorruptSeeds {
    let mut corrupt = CorruptSeeds::new();
    if let Some(l) = src_loc(rec, operand, corrupted) {
        corrupt.push(l);
    }
    if let Some(d) = rec.dst {
        corrupt.push(CorruptLoc::Reg {
            frame: rec.frame,
            reg: d,
            value: corrupted_result,
        });
    }
    corrupt
}

fn masked_kind_for_binop(op: BinOp) -> OpMaskKind {
    if op.is_shift() {
        OpMaskKind::Overwriting
    } else if op.is_bitwise_logic() {
        OpMaskKind::LogicCompare
    } else {
        // Arithmetic absorption (including FP rounding) is value
        // overshadowing: the other operand dominates the result.
        OpMaskKind::Overshadowing
    }
}

fn masked_kind_for_cast(kind: CastKind) -> OpMaskKind {
    match kind {
        CastKind::Trunc | CastKind::FPToSI => OpMaskKind::Overwriting,
        CastKind::FPTrunc => OpMaskKind::Overshadowing,
        _ => OpMaskKind::LogicCompare,
    }
}

/// A corrupted operand of a `bin` record, with what classifying the
/// record's recomputed result takes: the part of the rules
/// [`analyze_operation`] and [`analyze_site`] share.
struct BinOperand<'r> {
    rec: &'r TraceRecord,
    op: BinOp,
    operand: &'r TracedVal,
    /// The clean value of the other operand.
    other: Value,
    result: Value,
}

impl BinOperand<'_> {
    /// The verdict once the result has been recomputed with the operand
    /// corrupted to `corrupted` (`None` when the evaluation traps): a trap
    /// is not masked, an unchanged result is masked by the operation, and a
    /// changed one propagates from the operand's register and the
    /// destination.
    fn verdict(&self, corrupted: Value, evaluated: Option<Value>) -> OpVerdict {
        match evaluated {
            None => OpVerdict::NotMasked,
            Some(r) if r.bits_eq(&self.result) => OpVerdict::Masked(masked_kind_for_binop(self.op)),
            Some(r) => {
                let corrupt = src_and_dst(self.rec, self.operand, corrupted, r);
                // Paper §IV: a corrupted addend whose magnitude stays below
                // the other operand's magnitude is an overshadowing
                // candidate, to be confirmed by DFI.
                if self.op.is_additive_float() && corrupted.magnitude() < self.other.magnitude() {
                    OpVerdict::OvershadowCandidate { corrupt }
                } else {
                    OpVerdict::Propagate { corrupt }
                }
            }
        }
    }
}

/// Analyze one participating slot of one trace record under one error pattern.
pub fn analyze_operation(rec: &TraceRecord, slot: SiteSlot, pattern: &ErrorPattern) -> OpVerdict {
    match slot {
        SiteSlot::StoreDest => analyze_store_dest(rec),
        SiteSlot::Operand(idx) => analyze_operand(rec, idx, pattern),
    }
}

/// Analyze one participating slot of one trace record under a list of
/// error patterns, given as their XOR masks ([`ErrorPattern::mask`]),
/// handing `verdict` what [`analyze_operation`] returns for each pattern,
/// in list order.
///
/// The slot's operand is read once for the whole list, and each pattern is
/// applied to it as one XOR.  An `f64` operand of `fadd`, `fsub`, `fmul`
/// or `fdiv` (most sites of the floating-point workloads) is dispatched
/// once too: each pattern's result is computed from the flipped bits with
/// the interpreter's own arithmetic ([`moard_ir::f64_arith`]).  Any other
/// slot is classified pattern by pattern, as [`analyze_operation`] does.
pub fn analyze_site(
    rec: &TraceRecord,
    slot: SiteSlot,
    masks: &[u64],
    mut verdict: impl FnMut(OpVerdict),
) {
    let SiteSlot::Operand(idx) = slot else {
        let v = analyze_store_dest(rec);
        masks.iter().for_each(|_| verdict(v.clone()));
        return;
    };
    let operands = rec.operands();
    let Some(operand) = operands.get(idx) else {
        masks.iter().for_each(|_| verdict(OpVerdict::NotMasked));
        return;
    };
    if let TraceOp::Bin {
        op,
        ty: Type::F64,
        lhs,
        rhs,
        result,
    } = &rec.op
    {
        let other = if idx == 0 { rhs.value } else { lhs.value };
        if let (Value::F64(x), Value::F64(y)) = (operand.value, other) {
            if f64_arith(*op, x, y).is_some() {
                let bin = BinOperand {
                    rec,
                    op: *op,
                    operand,
                    other,
                    result: *result,
                };
                for &mask in masks {
                    let c = f64::from_bits(x.to_bits() ^ mask);
                    let (a, b) = if idx == 0 { (c, y) } else { (y, c) };
                    verdict(bin.verdict(Value::F64(c), f64_arith(*op, a, b).map(Value::F64)));
                }
                return;
            }
        }
    }
    for &mask in masks {
        verdict(operand_verdict(
            rec,
            idx,
            operand,
            operand.value.flip_mask(mask),
        ));
    }
}

/// The destination element of a store is corrupted just before the store
/// executes.
fn analyze_store_dest(rec: &TraceRecord) -> OpVerdict {
    match &rec.op {
        TraceOp::Store {
            value_depends_on_dest,
            ..
        } => {
            if *value_depends_on_dest {
                // `x[e] = f(x[e], ...)`: the stored value was computed from
                // the corrupted element, so the overwrite does not remove the
                // error (paper, LU example Statement B: "no error masking
                // because the new value is added to sum[m], not overwriting
                // it").
                OpVerdict::NotMasked
            } else {
                // Pure overwrite: masked no matter which bit was flipped
                // (Statement A of the LU example).
                OpVerdict::Masked(OpMaskKind::Overwriting)
            }
        }
        _ => OpVerdict::NotMasked,
    }
}

fn analyze_operand(rec: &TraceRecord, idx: usize, pattern: &ErrorPattern) -> OpVerdict {
    let operands = rec.operands();
    let Some(operand) = operands.get(idx) else {
        return OpVerdict::NotMasked;
    };
    operand_verdict(rec, idx, operand, corrupted_operand(operand, pattern))
}

/// The verdict of an error that turns `operand`, slot `idx` of `rec`, into
/// `corrupted`: the operation is re-evaluated with it substituted.
fn operand_verdict(
    rec: &TraceRecord,
    idx: usize,
    operand: &TracedVal,
    corrupted: Value,
) -> OpVerdict {
    match &rec.op {
        TraceOp::Bin {
            op,
            ty,
            lhs,
            rhs,
            result,
        } => {
            let (a, b, other) = if idx == 0 {
                (corrupted, rhs.value, rhs.value)
            } else {
                (lhs.value, corrupted, lhs.value)
            };
            let bin = BinOperand {
                rec,
                op: *op,
                operand,
                other,
                result: *result,
            };
            bin.verdict(corrupted, eval_binop(*op, *ty, &a, &b).ok())
        }
        TraceOp::Cmp {
            pred,
            lhs,
            rhs,
            result,
        } => {
            let (a, b) = if idx == 0 {
                (corrupted, rhs.value)
            } else {
                (lhs.value, corrupted)
            };
            match eval_cmp(*pred, &a, &b) {
                Ok(r) if r.bits_eq(result) => OpVerdict::Masked(OpMaskKind::LogicCompare),
                Ok(r) => OpVerdict::Propagate {
                    corrupt: src_and_dst(rec, operand, corrupted, r),
                },
                Err(_) => OpVerdict::NotMasked,
            }
        }
        TraceOp::Cast {
            kind, to, result, ..
        } => match eval_cast(*kind, *to, &corrupted) {
            Err(_) => OpVerdict::NotMasked,
            Ok(r) if r.bits_eq(result) => OpVerdict::Masked(masked_kind_for_cast(*kind)),
            Ok(r) => OpVerdict::Propagate {
                corrupt: src_and_dst(rec, operand, corrupted, r),
            },
        },
        TraceOp::Store { addr, value, .. } => {
            // idx == 0 is the stored value; a corrupted value lands in memory
            // and, if it came from a register, stays there too.
            debug_assert_eq!(idx, 0);
            let mut corrupt = CorruptSeeds::new();
            if let Some(l) = src_loc(rec, value, corrupted) {
                corrupt.push(l);
            }
            corrupt.push(CorruptLoc::Mem {
                addr: *addr,
                value: corrupted,
            });
            OpVerdict::Propagate { corrupt }
        }
        TraceOp::Gep {
            base,
            index,
            elem_size,
            result,
        } => {
            let (b, i) = if idx == 0 {
                (corrupted, index.value)
            } else {
                (base.value, corrupted)
            };
            let addr = b
                .as_u64()
                .wrapping_add((i.as_i64() as u64).wrapping_mul(*elem_size));
            let r = Value::Ptr(addr);
            if r.bits_eq(result) {
                OpVerdict::Masked(OpMaskKind::Overwriting)
            } else {
                OpVerdict::Propagate {
                    corrupt: src_and_dst(rec, operand, corrupted, r),
                }
            }
        }
        TraceOp::Select {
            cond,
            then_v,
            else_v,
            result,
        } => {
            let taken_then = cond.value.is_truthy();
            let new_result = match idx {
                0 => {
                    // Corrupted condition selects the other arm.
                    let new_taken = corrupted.is_truthy();
                    if new_taken {
                        then_v.value
                    } else {
                        else_v.value
                    }
                }
                1 => {
                    if taken_then {
                        corrupted
                    } else {
                        *result
                    }
                }
                _ => {
                    if taken_then {
                        *result
                    } else {
                        corrupted
                    }
                }
            };
            if new_result.bits_eq(result) {
                OpVerdict::Masked(OpMaskKind::LogicCompare)
            } else {
                OpVerdict::Propagate {
                    corrupt: src_and_dst(rec, operand, corrupted, new_result),
                }
            }
        }
        TraceOp::Intrinsic { intr, args, result } => {
            // `eval_intrinsic` reads at most its first two arguments (see
            // `intrinsics_read_at_most_two_arguments`), so they decide the
            // result and fit on the stack.
            let mut vals = [Value::I1(false); 2];
            for (i, (v, a)) in vals.iter_mut().zip(args).enumerate() {
                *v = if i == idx { corrupted } else { a.value };
            }
            match eval_intrinsic(*intr, &vals[..args.len().min(2)]) {
                Err(_) => OpVerdict::NotMasked,
                Ok(r) if r.bits_eq(result) => {
                    let kind = if result.ty().is_float() {
                        OpMaskKind::Overshadowing
                    } else {
                        OpMaskKind::LogicCompare
                    };
                    OpVerdict::Masked(kind)
                }
                Ok(r) => OpVerdict::Propagate {
                    corrupt: src_and_dst(rec, operand, corrupted, r),
                },
            }
        }
        TraceOp::Mov { .. } => OpVerdict::Propagate {
            corrupt: src_and_dst(rec, operand, corrupted, corrupted),
        },
        TraceOp::Call {
            args,
            callee_frame,
            param_regs,
            ..
        } => {
            let mut corrupt = CorruptSeeds::new();
            if let Some(operand) = args.get(idx) {
                if let Some(l) = src_loc(rec, operand, corrupted) {
                    corrupt.push(l);
                }
            }
            if let Some(param) = param_regs.get(idx) {
                corrupt.push(CorruptLoc::Reg {
                    frame: *callee_frame,
                    reg: *param,
                    value: corrupted,
                });
            }
            OpVerdict::Propagate { corrupt }
        }
        TraceOp::Ret {
            caller_frame,
            dst_in_caller,
            ..
        } => match (caller_frame, dst_in_caller) {
            (Some(cf), Some(dst)) => {
                let mut corrupt = CorruptSeeds::new();
                if let Some(l) = src_loc(rec, operand, corrupted) {
                    corrupt.push(l);
                }
                corrupt.push(CorruptLoc::Reg {
                    frame: *cf,
                    reg: *dst,
                    value: corrupted,
                });
                OpVerdict::Propagate { corrupt }
            }
            // Corrupting the program's final return value, or a return whose
            // value the caller discards, cannot be settled from the trace.
            _ => OpVerdict::NeedsDfi,
        },
        TraceOp::CondBr { .. } | TraceOp::Switch { .. } => {
            // The corrupted value decides control flow: the trace no longer
            // describes what the program would do.
            OpVerdict::NeedsDfi
        }
        TraceOp::Load { .. } => {
            // Loads have no consumed operands in the participation model
            // (the address operand is never a direct element copy unless the
            // program stores pointers in data objects, which the IR does not
            // support).  Treat defensively as needing DFI.
            OpVerdict::NeedsDfi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::{BlockId, FuncId, Type};
    use moard_vm::ObjectId;

    fn rec(op: TraceOp, dst: Option<RegId>) -> TraceRecord {
        TraceRecord {
            id: 0,
            frame: 0,
            func: FuncId(0),
            block: BlockId(0),
            inst: 0,
            dst,
            op,
        }
    }

    fn reg_val(v: Value, r: u32) -> TracedVal {
        TracedVal {
            value: v,
            source: ValueSource::Reg(RegId(r)),
            element: Some((ObjectId(0), 0)),
        }
    }

    #[test]
    fn store_overwrite_masks_store_dest() {
        let r = rec(
            TraceOp::Store {
                ty: Type::F64,
                addr: 0x1000,
                addr_src: ValueSource::Const,
                element: Some((ObjectId(0), 0)),
                value: TracedVal::constant(Value::F64(1.0)),
                overwritten: Value::F64(7.0),
                value_depends_on_dest: false,
            },
            None,
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::StoreDest, &ErrorPattern::single(63)),
            OpVerdict::Masked(OpMaskKind::Overwriting)
        );
    }

    #[test]
    fn accumulating_store_does_not_mask_store_dest() {
        let r = rec(
            TraceOp::Store {
                ty: Type::F64,
                addr: 0x1000,
                addr_src: ValueSource::Const,
                element: Some((ObjectId(0), 0)),
                value: reg_val(Value::F64(8.0), 3),
                overwritten: Value::F64(7.0),
                value_depends_on_dest: true,
            },
            None,
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::StoreDest, &ErrorPattern::single(0)),
            OpVerdict::NotMasked
        );
    }

    #[test]
    fn shift_discards_low_bit_error() {
        // (c >> 4): flipping bit 2 of c is masked; flipping bit 40 is not.
        let c = Value::I64(0xff00);
        let result = eval_binop(BinOp::LShr, Type::I64, &c, &Value::I64(4)).unwrap();
        let r = rec(
            TraceOp::Bin {
                op: BinOp::LShr,
                ty: Type::I64,
                lhs: reg_val(c, 1),
                rhs: TracedVal::constant(Value::I64(4)),
                result,
            },
            Some(RegId(2)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(2)),
            OpVerdict::Masked(OpMaskKind::Overwriting)
        );
        assert!(matches!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(40)),
            OpVerdict::Propagate { .. }
        ));
    }

    #[test]
    fn comparison_insensitive_to_low_bits() {
        // 100.0 < 1e9 stays true for low-mantissa flips of 100.0.
        let r = rec(
            TraceOp::Cmp {
                pred: moard_ir::CmpPred::FOlt,
                lhs: reg_val(Value::F64(100.0), 1),
                rhs: TracedVal::constant(Value::F64(1e9)),
                result: Value::I1(true),
            },
            Some(RegId(2)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(0)),
            OpVerdict::Masked(OpMaskKind::LogicCompare)
        );
        // Flipping a mid exponent bit turns 100.0 into a huge number and
        // changes the comparison outcome.
        assert!(matches!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(59)),
            OpVerdict::Propagate { .. }
        ));
    }

    #[test]
    fn fadd_absorption_and_candidate() {
        // 1000.0 + 1.0: LSB flips of 1.0 are absorbed by rounding; mid
        // mantissa flips that keep |corrupted| < 1000 become overshadow
        // candidates; exponent flips that blow the operand up propagate.
        let big = Value::F64(1000.0);
        let small = Value::F64(1.0);
        let result = eval_binop(BinOp::FAdd, Type::F64, &big, &small).unwrap();
        let r = rec(
            TraceOp::Bin {
                op: BinOp::FAdd,
                ty: Type::F64,
                lhs: TracedVal::constant(big),
                rhs: reg_val(small, 1),
                result,
            },
            Some(RegId(2)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(1), &ErrorPattern::single(0)),
            OpVerdict::Masked(OpMaskKind::Overshadowing)
        );
        // Flipping mantissa bit 40 adds ~2.4e-4 to 1.0: changes the sum but
        // keeps the corrupted operand far below 1000 -> overshadow candidate.
        assert!(matches!(
            analyze_operation(&r, SiteSlot::Operand(1), &ErrorPattern::single(40)),
            OpVerdict::OvershadowCandidate { .. }
        ));
        // Flipping bit 62 scales 1.0 to infinity > 1000: plain propagation.
        assert!(matches!(
            analyze_operation(&r, SiteSlot::Operand(1), &ErrorPattern::single(62)),
            OpVerdict::Propagate { .. }
        ));
    }

    #[test]
    fn division_by_corrupted_zero_is_not_masked() {
        let r = rec(
            TraceOp::Bin {
                op: BinOp::SDiv,
                ty: Type::I64,
                lhs: TracedVal::constant(Value::I64(10)),
                rhs: reg_val(Value::I64(1), 1),
                result: Value::I64(10),
            },
            Some(RegId(2)),
        );
        // Flipping bit 0 of the divisor 1 makes it 0 -> trap.
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(1), &ErrorPattern::single(0)),
            OpVerdict::NotMasked
        );
    }

    #[test]
    fn trunc_masks_high_bit_errors() {
        let src = Value::I64(0x1234);
        let result = eval_cast(CastKind::Trunc, Type::I8, &src).unwrap();
        let r = rec(
            TraceOp::Cast {
                kind: CastKind::Trunc,
                to: Type::I8,
                src: reg_val(src, 1),
                result,
            },
            Some(RegId(2)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(20)),
            OpVerdict::Masked(OpMaskKind::Overwriting)
        );
        assert!(matches!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(3)),
            OpVerdict::Propagate { .. }
        ));
    }

    #[test]
    fn select_unchosen_arm_is_masked() {
        let r = rec(
            TraceOp::Select {
                cond: TracedVal::constant(Value::I1(true)),
                then_v: TracedVal::constant(Value::F64(1.0)),
                else_v: reg_val(Value::F64(2.0), 1),
                result: Value::F64(1.0),
            },
            Some(RegId(2)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(2), &ErrorPattern::single(63)),
            OpVerdict::Masked(OpMaskKind::LogicCompare)
        );
        // The chosen arm propagates.
        let r2 = rec(
            TraceOp::Select {
                cond: TracedVal::constant(Value::I1(false)),
                then_v: TracedVal::constant(Value::F64(1.0)),
                else_v: reg_val(Value::F64(2.0), 1),
                result: Value::F64(2.0),
            },
            Some(RegId(2)),
        );
        assert!(matches!(
            analyze_operation(&r2, SiteSlot::Operand(2), &ErrorPattern::single(63)),
            OpVerdict::Propagate { .. }
        ));
    }

    #[test]
    fn branch_condition_errors_need_dfi() {
        let r = rec(
            TraceOp::CondBr {
                cond: reg_val(Value::I1(true), 1),
                taken: true,
            },
            None,
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(0)),
            OpVerdict::NeedsDfi
        );
    }

    #[test]
    fn stored_value_corruption_lands_in_memory() {
        let r = rec(
            TraceOp::Store {
                ty: Type::F64,
                addr: 0x1000,
                addr_src: ValueSource::Const,
                element: None,
                value: reg_val(Value::F64(4.0), 3),
                overwritten: Value::F64(0.0),
                value_depends_on_dest: false,
            },
            None,
        );
        match analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(63)) {
            OpVerdict::Propagate { corrupt } => {
                assert!(corrupt
                    .iter()
                    .any(|c| matches!(c, CorruptLoc::Mem { addr: 0x1000, .. })));
                assert!(corrupt.iter().any(|c| matches!(c, CorruptLoc::Reg { .. })));
            }
            other => panic!("expected Propagate, got {other:?}"),
        }
    }

    #[test]
    fn call_argument_corruption_reaches_callee_frame() {
        let r = rec(
            TraceOp::Call {
                callee: FuncId(1),
                args: vec![reg_val(Value::F64(3.0), 4)],
                callee_frame: 7,
                param_regs: vec![RegId(0)],
            },
            Some(RegId(5)),
        );
        match analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(1)) {
            OpVerdict::Propagate { corrupt } => {
                assert!(corrupt
                    .iter()
                    .any(|c| matches!(c, CorruptLoc::Reg { frame: 7, .. })));
            }
            other => panic!("expected Propagate, got {other:?}"),
        }
    }

    #[test]
    fn intrinsics_read_at_most_two_arguments() {
        // The intrinsic rule evaluates on the first two arguments only.
        use moard_ir::Intrinsic::*;
        for intr in [
            Sqrt, Fabs, Sin, Cos, Exp, Log, Pow, Floor, Ceil, FMin, FMax, SMin, SMax,
        ] {
            for (a, b) in [
                (Value::F64(2.5), Value::F64(-1.5)),
                (Value::I64(7), Value::I64(-3)),
            ] {
                let two = eval_intrinsic(intr, &[a, b]).unwrap();
                let three = eval_intrinsic(intr, &[a, b, Value::F64(9.0)]).unwrap();
                assert!(two.bits_eq(&three), "{intr:?}");
            }
        }
        // A corrupted third argument is therefore masked.
        let r = rec(
            TraceOp::Intrinsic {
                intr: FMin,
                args: vec![
                    reg_val(Value::F64(1.0), 1),
                    reg_val(Value::F64(2.0), 2),
                    reg_val(Value::F64(3.0), 3),
                ],
                result: Value::F64(1.0),
            },
            Some(RegId(4)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(2), &ErrorPattern::single(62)),
            OpVerdict::Masked(OpMaskKind::Overshadowing)
        );
    }

    #[test]
    fn seeds_hold_two_locations_inline() {
        let reg = CorruptLoc::Reg {
            frame: 1,
            reg: RegId(2),
            value: Value::I64(3),
        };
        let mem = CorruptLoc::Mem {
            addr: 0x1000,
            value: Value::F64(4.0),
        };
        let mut seeds = CorruptSeeds::new();
        assert!(seeds.is_empty());
        seeds.push(reg);
        let one = seeds;
        seeds.push(mem);
        assert_eq!(&seeds[..], &[reg, mem]);
        assert_eq!(&one[..], &[reg]);
        assert_ne!(seeds, one);
        // Equality and `Debug` see the held locations only.
        let mut other = CorruptSeeds::new();
        other.push(reg);
        assert_eq!(other, one);
        assert_eq!(format!("{seeds:?}"), format!("{:?}", [reg, mem]));
    }

    #[test]
    #[should_panic(expected = "at most 2 corrupted locations")]
    fn a_third_seed_location_panics() {
        let loc = CorruptLoc::Mem {
            addr: 0x1000,
            value: Value::F64(4.0),
        };
        let mut seeds = CorruptSeeds::new();
        for _ in 0..3 {
            seeds.push(loc);
        }
    }

    #[test]
    fn fabs_masks_sign_flip() {
        let r = rec(
            TraceOp::Intrinsic {
                intr: moard_ir::Intrinsic::Fabs,
                args: vec![reg_val(Value::F64(3.0), 1)],
                result: Value::F64(3.0),
            },
            Some(RegId(2)),
        );
        assert_eq!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(63)),
            OpVerdict::Masked(OpMaskKind::Overshadowing)
        );
        assert!(matches!(
            analyze_operation(&r, SiteSlot::Operand(0), &ErrorPattern::single(52)),
            OpVerdict::Propagate { .. }
        ));
    }
}
