//! Runtime values, bit-level fault manipulation, and the shared operation
//! evaluator.
//!
//! The evaluator functions ([`eval_binop`], [`eval_cmp`], [`eval_cast`],
//! [`eval_intrinsic`]) are used both by the `moard-vm` interpreter (golden and
//! fault-injected executions) and by the `moard-core` error-propagation
//! analysis, which *re-evaluates* trace records with corrupted operand values
//! substituted ("shadow replay").  Sharing a single evaluator guarantees the
//! two views of an operation's semantics can never drift apart.

use crate::types::Type;
use std::fmt;

use crate::inst::{BinOp, CastKind, CmpPred, Intrinsic};

/// A dynamically typed scalar value.
///
/// Integers are stored sign-extended in their natural Rust integer type;
/// floats as IEEE-754.  `Ptr` is an address into the VM's flat memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    I1(bool),
    I8(i8),
    I16(i16),
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Ptr(u64),
}

/// Errors raised while evaluating an operation.
///
/// In the VM these become execution traps ("crash" outcomes, the analogue of
/// the segmentation faults / arithmetic exceptions observed by the paper's
/// deterministic fault injector); in shadow replay they conservatively mark
/// the analysis as unresolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Operand types do not match the operation (indicates a malformed
    /// module; the verifier rejects these statically).
    TypeMismatch,
    /// Signed integer overflow in division (`i64::MIN / -1`).
    Overflow,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DivideByZero => write!(f, "integer division by zero"),
            EvalError::TypeMismatch => write!(f, "operand type mismatch"),
            EvalError::Overflow => write!(f, "integer overflow in division"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Value {
    /// The IR type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::I1(_) => Type::I1,
            Value::I8(_) => Type::I8,
            Value::I16(_) => Type::I16,
            Value::I32(_) => Type::I32,
            Value::I64(_) => Type::I64,
            Value::F32(_) => Type::F32,
            Value::F64(_) => Type::F64,
            Value::Ptr(_) => Type::Ptr,
        }
    }

    /// A zero value of the given type.
    pub fn zero(ty: Type) -> Value {
        match ty {
            Type::I1 => Value::I1(false),
            Type::I8 => Value::I8(0),
            Type::I16 => Value::I16(0),
            Type::I32 => Value::I32(0),
            Type::I64 => Value::I64(0),
            Type::F32 => Value::F32(0.0),
            Type::F64 => Value::F64(0.0),
            Type::Ptr => Value::Ptr(0),
        }
    }

    /// Raw bit pattern of the value, zero-extended to 64 bits.
    ///
    /// This is the representation fault injection operates on: flipping bit
    /// `b` of a value means XOR-ing `1 << b` into these bits.
    pub fn to_bits(&self) -> u64 {
        match *self {
            Value::I1(b) => b as u64,
            Value::I8(v) => v as u8 as u64,
            Value::I16(v) => v as u16 as u64,
            Value::I32(v) => v as u32 as u64,
            Value::I64(v) => v as u64,
            Value::F32(v) => v.to_bits() as u64,
            Value::F64(v) => v.to_bits(),
            Value::Ptr(p) => p,
        }
    }

    /// Reconstruct a value of type `ty` from a 64-bit pattern (low bits used).
    pub fn from_bits(ty: Type, bits: u64) -> Value {
        match ty {
            Type::I1 => Value::I1(bits & 1 != 0),
            Type::I8 => Value::I8(bits as u8 as i8),
            Type::I16 => Value::I16(bits as u16 as i16),
            Type::I32 => Value::I32(bits as u32 as i32),
            Type::I64 => Value::I64(bits as i64),
            Type::F32 => Value::F32(f32::from_bits(bits as u32)),
            Type::F64 => Value::F64(f64::from_bits(bits)),
            Type::Ptr => Value::Ptr(bits),
        }
    }

    /// Return a copy of this value with bit `bit` flipped.
    ///
    /// `bit` must be below [`Type::bit_width`]; this is the elementary
    /// transient-fault model of the paper (single-bit flip in an
    /// architecturally visible value).
    pub fn flip_bit(&self, bit: u32) -> Value {
        debug_assert!(
            bit < self.ty().bit_width(),
            "bit {} out of range for {}",
            bit,
            self.ty()
        );
        Value::from_bits(self.ty(), self.to_bits() ^ (1u64 << bit))
    }

    /// Return a copy with every bit listed in `bits` flipped (multi-bit error
    /// patterns, paper §VII-B).
    pub fn flip_bits(&self, bits: &[u32]) -> Value {
        let mut raw = self.to_bits();
        for &b in bits {
            debug_assert!(b < self.ty().bit_width());
            raw ^= 1u64 << b;
        }
        Value::from_bits(self.ty(), raw)
    }

    /// The all-ones mask covering exactly this value's bit width.
    pub fn width_mask(&self) -> u64 {
        let width = self.ty().bit_width();
        if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// Return a copy with every set bit of `mask` flipped — the one-XOR
    /// fault-application primitive every injected error pattern reduces to.
    /// Mask bits at or above the value width are ignored, so a pattern
    /// enumerated for a wider type degrades to a (possibly empty) flip
    /// instead of corrupting unrelated state.
    pub fn flip_mask(&self, mask: u64) -> Value {
        Value::from_bits(self.ty(), self.to_bits() ^ (mask & self.width_mask()))
    }

    /// Bit-exact equality (distinguishes `-0.0` from `0.0` and compares NaNs
    /// by payload), which is the "numerically the same as the error-free
    /// case" criterion used throughout the model.
    pub fn bits_eq(&self, other: &Value) -> bool {
        self.ty() == other.ty() && self.to_bits() == other.to_bits()
    }

    /// Interpret the value as a signed 64-bit integer (floats are truncated).
    pub fn as_i64(&self) -> i64 {
        match *self {
            Value::I1(b) => b as i64,
            Value::I8(v) => v as i64,
            Value::I16(v) => v as i64,
            Value::I32(v) => v as i64,
            Value::I64(v) => v,
            Value::F32(v) => v as i64,
            Value::F64(v) => v as i64,
            Value::Ptr(p) => p as i64,
        }
    }

    /// Interpret the value as an unsigned 64-bit integer.
    pub fn as_u64(&self) -> u64 {
        match *self {
            Value::I1(b) => b as u64,
            Value::I8(v) => v as u8 as u64,
            Value::I16(v) => v as u16 as u64,
            Value::I32(v) => v as u32 as u64,
            Value::I64(v) => v as u64,
            Value::F32(v) => v as u64,
            Value::F64(v) => v as u64,
            Value::Ptr(p) => p,
        }
    }

    /// Interpret the value as a double-precision float.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Value::I1(b) => b as u8 as f64,
            Value::I8(v) => v as f64,
            Value::I16(v) => v as f64,
            Value::I32(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            Value::Ptr(p) => p as f64,
        }
    }

    /// Truthiness used by conditional branches (`I1` expected, but any
    /// non-zero value is treated as true for robustness under corruption).
    pub fn is_truthy(&self) -> bool {
        match *self {
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
            _ => self.to_bits() != 0,
        }
    }

    /// Magnitude of the value as an `f64` (used by the overshadowing rule).
    pub fn magnitude(&self) -> f64 {
        self.as_f64().abs()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I1(b) => write!(f, "i1 {}", *b as u8),
            Value::I8(v) => write!(f, "i8 {v}"),
            Value::I16(v) => write!(f, "i16 {v}"),
            Value::I32(v) => write!(f, "i32 {v}"),
            Value::I64(v) => write!(f, "i64 {v}"),
            Value::F32(v) => write!(f, "f32 {v}"),
            Value::F64(v) => write!(f, "f64 {v}"),
            Value::Ptr(p) => write!(f, "ptr 0x{p:x}"),
        }
    }
}

fn int_pair(lhs: &Value, rhs: &Value) -> Result<(i64, i64), EvalError> {
    if lhs.ty() != rhs.ty() || !lhs.ty().is_integer() {
        return Err(EvalError::TypeMismatch);
    }
    Ok((lhs.as_i64(), rhs.as_i64()))
}

fn float_pair(lhs: &Value, rhs: &Value) -> Result<(f64, f64), EvalError> {
    if lhs.ty() != rhs.ty() || !lhs.ty().is_float() {
        return Err(EvalError::TypeMismatch);
    }
    Ok((lhs.as_f64(), rhs.as_f64()))
}

fn wrap_int(ty: Type, v: i64) -> Value {
    // Integer arithmetic wraps at the type width, like LLVM's default
    // (no-nsw/nuw) semantics.
    Value::from_bits(ty, v as u64)
}

fn wrap_float(ty: Type, v: f64) -> Value {
    match ty {
        Type::F32 => Value::F32(v as f32),
        Type::F64 => Value::F64(v),
        _ => unreachable!("wrap_float on non-float type"),
    }
}

/// `op` on two `f64` operands when it is `fadd`, `fsub`, `fmul` or `fdiv`:
/// the one IEEE-754 double operation each computes, or `None` for any
/// other operation.  [`eval_binop`] evaluates those four through it
/// (`f32` operands in double precision, the result rounded to `f32`), so a
/// caller that applies one of them to many `f64` operand pairs can skip
/// the generic evaluation and still get the interpreter's bits.
#[inline]
pub fn f64_arith(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::FAdd => a + b,
        BinOp::FSub => a - b,
        BinOp::FMul => a * b,
        BinOp::FDiv => a / b,
        _ => return None,
    })
}

/// Evaluate a binary operation on two values of type `ty`.
///
/// Pointer operands participate in integer arithmetic (address computation)
/// with wrap-around semantics.
pub fn eval_binop(op: BinOp, ty: Type, lhs: &Value, rhs: &Value) -> Result<Value, EvalError> {
    match op {
        BinOp::Add => {
            let (a, b) = int_pair(lhs, rhs)?;
            Ok(wrap_int(ty, a.wrapping_add(b)))
        }
        BinOp::Sub => {
            let (a, b) = int_pair(lhs, rhs)?;
            Ok(wrap_int(ty, a.wrapping_sub(b)))
        }
        BinOp::Mul => {
            let (a, b) = int_pair(lhs, rhs)?;
            Ok(wrap_int(ty, a.wrapping_mul(b)))
        }
        BinOp::SDiv => {
            let (a, b) = int_pair(lhs, rhs)?;
            if b == 0 {
                return Err(EvalError::DivideByZero);
            }
            if a == i64::MIN && b == -1 {
                return Err(EvalError::Overflow);
            }
            Ok(wrap_int(ty, a.wrapping_div(b)))
        }
        BinOp::UDiv => {
            let (a, b) = (lhs.as_u64(), rhs.as_u64());
            if lhs.ty() != rhs.ty() || !lhs.ty().is_integer() {
                return Err(EvalError::TypeMismatch);
            }
            if b == 0 {
                return Err(EvalError::DivideByZero);
            }
            Ok(Value::from_bits(ty, a / b))
        }
        BinOp::SRem => {
            let (a, b) = int_pair(lhs, rhs)?;
            if b == 0 {
                return Err(EvalError::DivideByZero);
            }
            if a == i64::MIN && b == -1 {
                return Err(EvalError::Overflow);
            }
            Ok(wrap_int(ty, a.wrapping_rem(b)))
        }
        BinOp::URem => {
            let (a, b) = (lhs.as_u64(), rhs.as_u64());
            if lhs.ty() != rhs.ty() || !lhs.ty().is_integer() {
                return Err(EvalError::TypeMismatch);
            }
            if b == 0 {
                return Err(EvalError::DivideByZero);
            }
            Ok(Value::from_bits(ty, a % b))
        }
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
            let (a, b) = float_pair(lhs, rhs)?;
            let r = f64_arith(op, a, b).expect("fadd, fsub, fmul and fdiv are f64 arithmetic");
            Ok(wrap_float(ty, r))
        }
        BinOp::FRem => {
            let (a, b) = float_pair(lhs, rhs)?;
            Ok(wrap_float(ty, a % b))
        }
        BinOp::Shl => {
            let (a, b) = (lhs.to_bits(), rhs.as_u64());
            let width = ty.bit_width() as u64;
            let shifted = if b >= width { 0 } else { a << b };
            Ok(Value::from_bits(ty, shifted))
        }
        BinOp::LShr => {
            let width = ty.bit_width() as u64;
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let (a, b) = (lhs.to_bits() & mask, rhs.as_u64());
            let shifted = if b >= width { 0 } else { a >> b };
            Ok(Value::from_bits(ty, shifted))
        }
        BinOp::AShr => {
            let b = rhs.as_u64();
            let width = ty.bit_width() as u64;
            let a = lhs.as_i64();
            let shifted = if b >= width {
                if a < 0 {
                    -1
                } else {
                    0
                }
            } else {
                a >> b
            };
            Ok(wrap_int(ty, shifted))
        }
        BinOp::And => {
            let (a, b) = (lhs.to_bits(), rhs.to_bits());
            Ok(Value::from_bits(ty, a & b))
        }
        BinOp::Or => {
            let (a, b) = (lhs.to_bits(), rhs.to_bits());
            Ok(Value::from_bits(ty, a | b))
        }
        BinOp::Xor => {
            let (a, b) = (lhs.to_bits(), rhs.to_bits());
            Ok(Value::from_bits(ty, a ^ b))
        }
    }
}

/// Evaluate a comparison; the result is always an `I1`.
pub fn eval_cmp(pred: CmpPred, lhs: &Value, rhs: &Value) -> Result<Value, EvalError> {
    let res = match pred {
        CmpPred::Eq => lhs.to_bits() == rhs.to_bits(),
        CmpPred::Ne => lhs.to_bits() != rhs.to_bits(),
        CmpPred::Slt => lhs.as_i64() < rhs.as_i64(),
        CmpPred::Sle => lhs.as_i64() <= rhs.as_i64(),
        CmpPred::Sgt => lhs.as_i64() > rhs.as_i64(),
        CmpPred::Sge => lhs.as_i64() >= rhs.as_i64(),
        CmpPred::Ult => lhs.as_u64() < rhs.as_u64(),
        CmpPred::Ule => lhs.as_u64() <= rhs.as_u64(),
        CmpPred::Ugt => lhs.as_u64() > rhs.as_u64(),
        CmpPred::Uge => lhs.as_u64() >= rhs.as_u64(),
        CmpPred::FOeq => lhs.as_f64() == rhs.as_f64(),
        CmpPred::FOne => {
            lhs.as_f64() != rhs.as_f64() && !lhs.as_f64().is_nan() && !rhs.as_f64().is_nan()
        }
        CmpPred::FOlt => lhs.as_f64() < rhs.as_f64(),
        CmpPred::FOle => lhs.as_f64() <= rhs.as_f64(),
        CmpPred::FOgt => lhs.as_f64() > rhs.as_f64(),
        CmpPred::FOge => lhs.as_f64() >= rhs.as_f64(),
    };
    Ok(Value::I1(res))
}

/// Evaluate a cast/conversion of `src` to `to`.
pub fn eval_cast(kind: CastKind, to: Type, src: &Value) -> Result<Value, EvalError> {
    let v = match kind {
        CastKind::Trunc => {
            // Keep the low `to` bits.
            Value::from_bits(to, src.to_bits())
        }
        CastKind::ZExt => Value::from_bits(to, src.as_u64()),
        CastKind::SExt => Value::from_bits(to, src.as_i64() as u64),
        CastKind::FPTrunc | CastKind::FPExt => wrap_float(to, src.as_f64()),
        CastKind::FPToSI => {
            let f = src.as_f64();
            // Saturating conversion, mirroring Rust's `as` and avoiding UB on
            // corrupted values that exceed the integer range.
            let clamped = if f.is_nan() { 0.0 } else { f };
            Value::from_bits(to, clamped as i64 as u64)
        }
        CastKind::SIToFP => wrap_float(to, src.as_i64() as f64),
        CastKind::BitCast => Value::from_bits(to, src.to_bits()),
        CastKind::PtrToInt => Value::from_bits(to, src.as_u64()),
        CastKind::IntToPtr => Value::Ptr(src.as_u64()),
    };
    Ok(v)
}

/// Evaluate a math intrinsic call.
pub fn eval_intrinsic(intr: Intrinsic, args: &[Value]) -> Result<Value, EvalError> {
    let a = |i: usize| -> f64 { args.get(i).map(|v| v.as_f64()).unwrap_or(0.0) };
    let out = match intr {
        Intrinsic::Sqrt => a(0).sqrt(),
        Intrinsic::Fabs => a(0).abs(),
        Intrinsic::Sin => a(0).sin(),
        Intrinsic::Cos => a(0).cos(),
        Intrinsic::Exp => a(0).exp(),
        Intrinsic::Log => a(0).ln(),
        Intrinsic::Pow => a(0).powf(a(1)),
        Intrinsic::Floor => a(0).floor(),
        Intrinsic::Ceil => a(0).ceil(),
        Intrinsic::FMin => a(0).min(a(1)),
        Intrinsic::FMax => a(0).max(a(1)),
        Intrinsic::SMin => {
            let (x, y) = (
                args.first().map(|v| v.as_i64()).unwrap_or(0),
                args.get(1).map(|v| v.as_i64()).unwrap_or(0),
            );
            return Ok(Value::I64(x.min(y)));
        }
        Intrinsic::SMax => {
            let (x, y) = (
                args.first().map(|v| v.as_i64()).unwrap_or(0),
                args.get(1).map(|v| v.as_i64()).unwrap_or(0),
            );
            return Ok(Value::I64(x.max(y)));
        }
    };
    // Float intrinsics return the type of their first argument (F64 default).
    let ty = args.first().map(|v| v.ty()).unwrap_or(Type::F64);
    if ty == Type::F32 {
        Ok(Value::F32(out as f32))
    } else {
        Ok(Value::F64(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip_all_types() {
        let samples = [
            Value::I1(true),
            Value::I8(-3),
            Value::I16(1234),
            Value::I32(-55555),
            Value::I64(1 << 40),
            Value::F32(3.5),
            Value::F64(-2.25e100),
            Value::Ptr(0xdead_beef),
        ];
        for v in samples {
            let back = Value::from_bits(v.ty(), v.to_bits());
            assert!(v.bits_eq(&back), "{v} did not round trip");
        }
    }

    #[test]
    fn flip_bit_is_involution() {
        let v = Value::F64(1.5);
        for bit in 0..64 {
            let flipped = v.flip_bit(bit);
            assert!(!flipped.bits_eq(&v), "flip changed nothing at bit {bit}");
            assert!(flipped.flip_bit(bit).bits_eq(&v));
        }
    }

    #[test]
    fn flip_sign_bit_of_double_negates() {
        let v = Value::F64(42.0);
        let flipped = v.flip_bit(63);
        assert_eq!(flipped.as_f64(), -42.0);
    }

    #[test]
    fn integer_arithmetic_wraps() {
        let r = eval_binop(BinOp::Add, Type::I8, &Value::I8(127), &Value::I8(1)).unwrap();
        assert_eq!(r, Value::I8(-128));
        let r = eval_binop(BinOp::Mul, Type::I32, &Value::I32(1 << 30), &Value::I32(4)).unwrap();
        assert_eq!(r, Value::I32(0));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            eval_binop(BinOp::SDiv, Type::I32, &Value::I32(7), &Value::I32(0)),
            Err(EvalError::DivideByZero)
        );
        assert_eq!(
            eval_binop(BinOp::URem, Type::I64, &Value::I64(7), &Value::I64(0)),
            Err(EvalError::DivideByZero)
        );
    }

    #[test]
    fn sdiv_min_by_minus_one_overflows() {
        assert_eq!(
            eval_binop(
                BinOp::SDiv,
                Type::I64,
                &Value::I64(i64::MIN),
                &Value::I64(-1)
            ),
            Err(EvalError::Overflow)
        );
    }

    #[test]
    fn shift_discards_high_bits() {
        // This is the bit-shifting error-masking example from the paper
        // (Listing 1, line 10): shifting right throws away low bits.
        let x = Value::I64(0b1011);
        let shifted = eval_binop(BinOp::LShr, Type::I64, &x, &Value::I64(2)).unwrap();
        assert_eq!(shifted, Value::I64(0b10));
        // Flipping bit 0 of x before the shift produces the same output:
        let corrupted = x.flip_bit(0);
        let shifted2 = eval_binop(BinOp::LShr, Type::I64, &corrupted, &Value::I64(2)).unwrap();
        assert!(
            shifted.bits_eq(&shifted2),
            "low-bit error must be shifted away"
        );
    }

    #[test]
    fn shift_by_width_or_more_is_zero_not_ub() {
        let r = eval_binop(BinOp::Shl, Type::I32, &Value::I32(1), &Value::I32(200)).unwrap();
        assert_eq!(r, Value::I32(0));
        let r = eval_binop(BinOp::AShr, Type::I32, &Value::I32(-8), &Value::I32(200)).unwrap();
        assert_eq!(r, Value::I32(-1));
    }

    #[test]
    fn float_absorption_masks_small_corruption() {
        // Value-overshadowing example from the paper: 10e6 + 10 vs 10e6 + 11.
        let big = Value::F64(1.0e20);
        let small = Value::F64(1.0);
        let clean = eval_binop(BinOp::FAdd, Type::F64, &big, &small).unwrap();
        let corrupted_small = small.flip_bit(0); // tiny perturbation in mantissa
        let dirty = eval_binop(BinOp::FAdd, Type::F64, &big, &corrupted_small).unwrap();
        assert!(clean.bits_eq(&dirty), "absorption should mask the LSB flip");
    }

    #[test]
    fn comparisons_yield_i1() {
        let r = eval_cmp(CmpPred::Slt, &Value::I32(3), &Value::I32(4)).unwrap();
        assert_eq!(r, Value::I1(true));
        let r = eval_cmp(CmpPred::FOge, &Value::F64(2.0), &Value::F64(8.0)).unwrap();
        assert_eq!(r, Value::I1(false));
    }

    #[test]
    fn trunc_keeps_low_bits() {
        let r = eval_cast(CastKind::Trunc, Type::I8, &Value::I64(0x1_23)).unwrap();
        assert_eq!(r, Value::I8(0x23));
    }

    #[test]
    fn fptosi_saturates_nan_to_zero() {
        let r = eval_cast(CastKind::FPToSI, Type::I32, &Value::F64(f64::NAN)).unwrap();
        assert_eq!(r, Value::I32(0));
    }

    #[test]
    fn sitofp_and_back() {
        let r = eval_cast(CastKind::SIToFP, Type::F64, &Value::I64(7)).unwrap();
        assert_eq!(r, Value::F64(7.0));
        let back = eval_cast(CastKind::FPToSI, Type::I64, &r).unwrap();
        assert_eq!(back, Value::I64(7));
    }

    #[test]
    fn intrinsics_basic() {
        assert_eq!(
            eval_intrinsic(Intrinsic::Sqrt, &[Value::F64(9.0)]).unwrap(),
            Value::F64(3.0)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::Fabs, &[Value::F64(-2.0)]).unwrap(),
            Value::F64(2.0)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::SMax, &[Value::I64(3), Value::I64(9)]).unwrap(),
            Value::I64(9)
        );
        assert_eq!(
            eval_intrinsic(Intrinsic::FMin, &[Value::F64(3.0), Value::F64(9.0)]).unwrap(),
            Value::F64(3.0)
        );
    }

    #[test]
    fn truthiness() {
        assert!(Value::I1(true).is_truthy());
        assert!(!Value::I32(0).is_truthy());
        assert!(Value::F64(0.5).is_truthy());
        assert!(!Value::F64(0.0).is_truthy());
    }

    #[test]
    fn multi_bit_flip() {
        let v = Value::I32(0);
        let f = v.flip_bits(&[0, 1, 4]);
        assert_eq!(f, Value::I32(0b10011));
    }

    #[test]
    fn flip_mask_is_one_xor_and_respects_width() {
        let v = Value::I32(0);
        assert_eq!(v.flip_mask(0b10011), Value::I32(0b10011));
        // flip_mask agrees with flip_bits on in-range patterns.
        let w = Value::F64(1.5);
        assert!(w
            .flip_mask((1 << 0) | (1 << 63))
            .bits_eq(&w.flip_bits(&[0, 63])));
        // Mask bits beyond the type width are ignored, not wrapped.
        assert!(v.flip_mask(1u64 << 40).bits_eq(&v));
        assert_eq!(Value::I8(0).width_mask(), 0xff);
        assert_eq!(Value::F64(0.0).width_mask(), u64::MAX);
        // An involution, like the single-bit primitive.
        assert!(w.flip_mask(0xdead_beef).flip_mask(0xdead_beef).bits_eq(&w));
    }
}
