//! Out-of-core paged trace backend: fixed-size record segments on disk.
//!
//! The in-memory [`Trace`] tops out when the whole record vector must stay
//! resident (a decoded record is 200 bytes, so a 10M-record trace is
//! gigabytes).  This module stores the same records in **segments** of a
//! fixed record count (default [`DEFAULT_SEGMENT_RECORDS`]), written to disk
//! *while the VM traces*, with the per-object index persisted in a manifest
//! alongside.  Analysis then streams: a [`PagedReader`] holds at most a
//! small LRU of decoded segments at a time, shared with the trace's other
//! live readers, so the propagation replay's bounded window (`k`) and the
//! index-driven site enumeration never need the full trace in memory.
//!
//! ## File layout (one directory per trace)
//!
//! ```text
//! spill-dir/
//!   trace.manifest     header + segment table + per-object index + checksum
//!   seg-000000.bin     records [0, S)       S = segment_records
//!   seg-000001.bin     records [S, 2S)
//!   …                  last segment may be short
//! ```
//!
//! Every file carries a magic, a format version, the trace's `meta`
//! fingerprint tying segments to their manifest, and a checksum verified at
//! decode: FNV-1a over the file's little-endian 64-bit words, then over its
//! last bytes one at a time.  Records are length-prefixed via a per-segment
//! offset table: the record *count* per segment is fixed, the byte width
//! per record is not.
//!
//! Each file is written with one plain write: no temp sibling and no
//! fsync.  A spill lives only as long as the [`PagedTrace`] that reads it
//! and is never reopened after a crash, and a torn file fails the checksum
//! and length checks like any other corrupt one.  [`atomic_write`], the
//! durable write path, serves the result store.
//!
//! Corruption handling mirrors the result store's *corrupt-equals-miss*
//! rule, adapted to a fallible context: [`PagedTrace::open`] and segment
//! decode return typed [`TraceError`]s; the infallible replay hot path
//! instead *poisons* the trace ([`TraceStorage::poisoned`]) and yields an
//! empty run, and the harness's `Result`-returning entry points surface the
//! poison after analysis.
//!
//! Spill directories are transient: a [`PagedTrace`] produced by
//! [`TraceBuilder::finish`] owns its directory and removes it on drop.

use crate::objects::ObjectId;
use crate::trace::{
    Trace, TraceIndex, TraceOp, TraceRead, TraceRecord, TraceStats, TraceStorage, TracedVal,
    ValueSource,
};
use moard_ir::{BinOp, BlockId, CastKind, CmpPred, FuncId, Intrinsic, RegId, Type, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Format version of segment and manifest files.  Bump on any layout or
/// codec change: a reader refuses (typed [`TraceError::SchemaMismatch`])
/// rather than misdecodes.  A file of version 1, whose checksum hashed
/// single bytes, fails the checksum first ([`TraceError::Corrupt`]).
pub const PAGED_FORMAT_VERSION: u32 = 2;

/// Default records per segment.  At ~67 encoded bytes/record a segment is
/// ~1.1 MB on disk and ~3.3 MB decoded (200 bytes per record), so the
/// default 4-segment reader LRU stays around 13 MB regardless of trace
/// length.
pub const DEFAULT_SEGMENT_RECORDS: usize = 16_384;

/// Decoded segments each reader keeps (LRU).  Sized so a propagation window
/// spanning a seam keeps both sides resident while site enumeration streams.
const READER_SEGMENT_CACHE: usize = 4;

const SEGMENT_MAGIC: &[u8; 8] = b"MOSEG1\0\0";
const MANIFEST_MAGIC: &[u8; 8] = b"MOIDX1\0\0";
const MANIFEST_NAME: &str = "trace.manifest";

/// Everything that can go wrong in the paged trace backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// Rendered OS error.
        message: String,
    },
    /// A segment or manifest failed validation (bad magic, checksum
    /// mismatch, truncation, malformed record encoding, foreign segment).
    Corrupt {
        /// Path of the offending file.
        path: String,
        /// What failed.
        reason: String,
    },
    /// A file carries a paged-format version this build cannot read.
    SchemaMismatch {
        /// Path of the offending file.
        path: String,
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { path, message } => write!(f, "trace io error at {path}: {message}"),
            TraceError::Corrupt { path, reason } => {
                write!(f, "corrupt trace file {path}: {reason}")
            }
            TraceError::SchemaMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "trace file {path} has paged-format version {found}, this build reads {expected}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl TraceError {
    fn io(path: &Path, e: std::io::Error) -> TraceError {
        TraceError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    fn corrupt(path: &Path, reason: impl Into<String>) -> TraceError {
        TraceError::Corrupt {
            path: path.display().to_string(),
            reason: reason.into(),
        }
    }
}

/// The checksum of segment and manifest files: FNV-1a over little-endian
/// 64-bit words, then over the bytes after the last whole word.  Each step
/// (xor, then multiply by an odd prime) is a bijection of the state, so a
/// change inside any one word always changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (words, tail) = bytes.as_chunks::<8>();
    let h = words.iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from_le_bytes(*w)).wrapping_mul(PRIME)
    });
    tail.iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
}

static UNIQUE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-unique suffix for temp files and spill directories: pid plus a
/// monotonic counter, so concurrent writers (threads *or* processes sharing
/// a directory) can never collide on a temp path.
fn unique_suffix() -> String {
    format!(
        "{}-{}",
        std::process::id(),
        UNIQUE_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Durable atomic file write: write to a process-unique temp sibling,
/// `sync_all`, rename into place, then best-effort fsync the directory.
///
/// This is the write path of `moard_inject::store::ResultStore::save`,
/// whose documents outlive the process (the paged spill, which does not,
/// writes its files plainly).  The unique temp name makes
/// concurrent writers of the same destination race-free (last rename wins,
/// each rename installs a *complete* file), and the fsync-before-rename
/// guarantees a power loss after the rename can never persist a truncated
/// document behind a committed name.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("atomic-write");
    let tmp = path.with_file_name(format!(".{file_name}.{}.tmp", unique_suffix()));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return write;
    }
    // Making the *rename* durable needs the directory entry flushed too;
    // failure here degrades durability, not correctness, so best-effort.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Record codec: hand-rolled little-endian binary encoding with explicit u8
// code tables.  Every enum match is exhaustive in both directions, so adding
// an IR variant without extending the codec is a compile error, not silent
// corruption.
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn type_code(ty: Type) -> u8 {
    match ty {
        Type::I1 => 0,
        Type::I8 => 1,
        Type::I16 => 2,
        Type::I32 => 3,
        Type::I64 => 4,
        Type::F32 => 5,
        Type::F64 => 6,
        Type::Ptr => 7,
    }
}

#[inline]
fn type_from(code: u8) -> Result<Type, Malformed> {
    Ok(match code {
        0 => Type::I1,
        1 => Type::I8,
        2 => Type::I16,
        3 => Type::I32,
        4 => Type::I64,
        5 => Type::F32,
        6 => Type::F64,
        7 => Type::Ptr,
        _ => return Err(Malformed::Unknown("type code", code)),
    })
}

fn bin_op_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::SDiv => 3,
        BinOp::UDiv => 4,
        BinOp::SRem => 5,
        BinOp::URem => 6,
        BinOp::FAdd => 7,
        BinOp::FSub => 8,
        BinOp::FMul => 9,
        BinOp::FDiv => 10,
        BinOp::FRem => 11,
        BinOp::Shl => 12,
        BinOp::LShr => 13,
        BinOp::AShr => 14,
        BinOp::And => 15,
        BinOp::Or => 16,
        BinOp::Xor => 17,
    }
}

#[inline]
fn bin_op_from(code: u8) -> Result<BinOp, Malformed> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::SDiv,
        4 => BinOp::UDiv,
        5 => BinOp::SRem,
        6 => BinOp::URem,
        7 => BinOp::FAdd,
        8 => BinOp::FSub,
        9 => BinOp::FMul,
        10 => BinOp::FDiv,
        11 => BinOp::FRem,
        12 => BinOp::Shl,
        13 => BinOp::LShr,
        14 => BinOp::AShr,
        15 => BinOp::And,
        16 => BinOp::Or,
        17 => BinOp::Xor,
        _ => return Err(Malformed::Unknown("binop code", code)),
    })
}

fn cmp_pred_code(pred: CmpPred) -> u8 {
    match pred {
        CmpPred::Eq => 0,
        CmpPred::Ne => 1,
        CmpPred::Slt => 2,
        CmpPred::Sle => 3,
        CmpPred::Sgt => 4,
        CmpPred::Sge => 5,
        CmpPred::Ult => 6,
        CmpPred::Ule => 7,
        CmpPred::Ugt => 8,
        CmpPred::Uge => 9,
        CmpPred::FOeq => 10,
        CmpPred::FOne => 11,
        CmpPred::FOlt => 12,
        CmpPred::FOle => 13,
        CmpPred::FOgt => 14,
        CmpPred::FOge => 15,
    }
}

#[inline]
fn cmp_pred_from(code: u8) -> Result<CmpPred, Malformed> {
    Ok(match code {
        0 => CmpPred::Eq,
        1 => CmpPred::Ne,
        2 => CmpPred::Slt,
        3 => CmpPred::Sle,
        4 => CmpPred::Sgt,
        5 => CmpPred::Sge,
        6 => CmpPred::Ult,
        7 => CmpPred::Ule,
        8 => CmpPred::Ugt,
        9 => CmpPred::Uge,
        10 => CmpPred::FOeq,
        11 => CmpPred::FOne,
        12 => CmpPred::FOlt,
        13 => CmpPred::FOle,
        14 => CmpPred::FOgt,
        15 => CmpPred::FOge,
        _ => return Err(Malformed::Unknown("cmp predicate code", code)),
    })
}

fn cast_kind_code(kind: CastKind) -> u8 {
    match kind {
        CastKind::Trunc => 0,
        CastKind::ZExt => 1,
        CastKind::SExt => 2,
        CastKind::FPTrunc => 3,
        CastKind::FPExt => 4,
        CastKind::FPToSI => 5,
        CastKind::SIToFP => 6,
        CastKind::BitCast => 7,
        CastKind::PtrToInt => 8,
        CastKind::IntToPtr => 9,
    }
}

#[inline]
fn cast_kind_from(code: u8) -> Result<CastKind, Malformed> {
    Ok(match code {
        0 => CastKind::Trunc,
        1 => CastKind::ZExt,
        2 => CastKind::SExt,
        3 => CastKind::FPTrunc,
        4 => CastKind::FPExt,
        5 => CastKind::FPToSI,
        6 => CastKind::SIToFP,
        7 => CastKind::BitCast,
        8 => CastKind::PtrToInt,
        9 => CastKind::IntToPtr,
        _ => return Err(Malformed::Unknown("cast kind code", code)),
    })
}

fn intrinsic_code(intr: Intrinsic) -> u8 {
    match intr {
        Intrinsic::Sqrt => 0,
        Intrinsic::Fabs => 1,
        Intrinsic::Sin => 2,
        Intrinsic::Cos => 3,
        Intrinsic::Exp => 4,
        Intrinsic::Log => 5,
        Intrinsic::Pow => 6,
        Intrinsic::Floor => 7,
        Intrinsic::Ceil => 8,
        Intrinsic::FMin => 9,
        Intrinsic::FMax => 10,
        Intrinsic::SMin => 11,
        Intrinsic::SMax => 12,
    }
}

#[inline]
fn intrinsic_from(code: u8) -> Result<Intrinsic, Malformed> {
    Ok(match code {
        0 => Intrinsic::Sqrt,
        1 => Intrinsic::Fabs,
        2 => Intrinsic::Sin,
        3 => Intrinsic::Cos,
        4 => Intrinsic::Exp,
        5 => Intrinsic::Log,
        6 => Intrinsic::Pow,
        7 => Intrinsic::Floor,
        8 => Intrinsic::Ceil,
        9 => Intrinsic::FMin,
        10 => Intrinsic::FMax,
        11 => Intrinsic::SMin,
        12 => Intrinsic::SMax,
        _ => return Err(Malformed::Unknown("intrinsic code", code)),
    })
}

fn encode_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::I1(b) => {
            put_u8(buf, 0);
            put_u8(buf, b as u8);
        }
        Value::I8(x) => {
            put_u8(buf, 1);
            put_u8(buf, x as u8);
        }
        Value::I16(x) => {
            put_u8(buf, 2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::I32(x) => {
            put_u8(buf, 3);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            put_u8(buf, 4);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F32(x) => {
            put_u8(buf, 5);
            put_u32(buf, x.to_bits());
        }
        Value::F64(x) => {
            put_u8(buf, 6);
            put_u64(buf, x.to_bits());
        }
        Value::Ptr(x) => {
            put_u8(buf, 7);
            put_u64(buf, x);
        }
    }
}

fn encode_source(buf: &mut Vec<u8>, s: ValueSource) {
    match s {
        ValueSource::Const => put_u8(buf, 0),
        ValueSource::GlobalBase => put_u8(buf, 1),
        ValueSource::Reg(RegId(r)) => {
            put_u8(buf, 2);
            put_u32(buf, r);
        }
    }
}

fn encode_element(buf: &mut Vec<u8>, e: Option<(ObjectId, u64)>) {
    match e {
        None => put_u8(buf, 0),
        Some((ObjectId(o), idx)) => {
            put_u8(buf, 1);
            put_u32(buf, o);
            put_u64(buf, idx);
        }
    }
}

fn encode_traced_val(buf: &mut Vec<u8>, v: &TracedVal) {
    encode_value(buf, v.value);
    encode_source(buf, v.source);
    encode_element(buf, v.element);
}

fn encode_op(buf: &mut Vec<u8>, op: &TraceOp) {
    match op {
        TraceOp::Bin {
            op,
            ty,
            lhs,
            rhs,
            result,
        } => {
            put_u8(buf, 0);
            put_u8(buf, bin_op_code(*op));
            put_u8(buf, type_code(*ty));
            encode_traced_val(buf, lhs);
            encode_traced_val(buf, rhs);
            encode_value(buf, *result);
        }
        TraceOp::Cmp {
            pred,
            lhs,
            rhs,
            result,
        } => {
            put_u8(buf, 1);
            put_u8(buf, cmp_pred_code(*pred));
            encode_traced_val(buf, lhs);
            encode_traced_val(buf, rhs);
            encode_value(buf, *result);
        }
        TraceOp::Cast {
            kind,
            to,
            src,
            result,
        } => {
            put_u8(buf, 2);
            put_u8(buf, cast_kind_code(*kind));
            put_u8(buf, type_code(*to));
            encode_traced_val(buf, src);
            encode_value(buf, *result);
        }
        TraceOp::Load {
            ty,
            addr,
            addr_src,
            element,
            result,
        } => {
            put_u8(buf, 3);
            put_u8(buf, type_code(*ty));
            put_u64(buf, *addr);
            encode_source(buf, *addr_src);
            encode_element(buf, *element);
            encode_value(buf, *result);
        }
        TraceOp::Store {
            ty,
            addr,
            addr_src,
            element,
            value,
            overwritten,
            value_depends_on_dest,
        } => {
            put_u8(buf, 4);
            put_u8(buf, type_code(*ty));
            put_u64(buf, *addr);
            encode_source(buf, *addr_src);
            encode_element(buf, *element);
            encode_traced_val(buf, value);
            encode_value(buf, *overwritten);
            put_u8(buf, *value_depends_on_dest as u8);
        }
        TraceOp::Gep {
            base,
            index,
            elem_size,
            result,
        } => {
            put_u8(buf, 5);
            encode_traced_val(buf, base);
            encode_traced_val(buf, index);
            put_u64(buf, *elem_size);
            encode_value(buf, *result);
        }
        TraceOp::Select {
            cond,
            then_v,
            else_v,
            result,
        } => {
            put_u8(buf, 6);
            encode_traced_val(buf, cond);
            encode_traced_val(buf, then_v);
            encode_traced_val(buf, else_v);
            encode_value(buf, *result);
        }
        TraceOp::Intrinsic { intr, args, result } => {
            put_u8(buf, 7);
            put_u8(buf, intrinsic_code(*intr));
            put_u32(buf, args.len() as u32);
            for a in args {
                encode_traced_val(buf, a);
            }
            encode_value(buf, *result);
        }
        TraceOp::Mov { src, result } => {
            put_u8(buf, 8);
            encode_traced_val(buf, src);
            encode_value(buf, *result);
        }
        TraceOp::Call {
            callee,
            args,
            callee_frame,
            param_regs,
        } => {
            put_u8(buf, 9);
            put_u32(buf, callee.0);
            put_u64(buf, *callee_frame);
            put_u32(buf, args.len() as u32);
            for a in args {
                encode_traced_val(buf, a);
            }
            put_u32(buf, param_regs.len() as u32);
            for RegId(r) in param_regs {
                put_u32(buf, *r);
            }
        }
        TraceOp::Ret {
            value,
            caller_frame,
            dst_in_caller,
        } => {
            put_u8(buf, 10);
            match value {
                None => put_u8(buf, 0),
                Some(v) => {
                    put_u8(buf, 1);
                    encode_traced_val(buf, v);
                }
            }
            match caller_frame {
                None => put_u8(buf, 0),
                Some(f) => {
                    put_u8(buf, 1);
                    put_u64(buf, *f);
                }
            }
            match dst_in_caller {
                None => put_u8(buf, 0),
                Some(RegId(r)) => {
                    put_u8(buf, 1);
                    put_u32(buf, *r);
                }
            }
        }
        TraceOp::CondBr { cond, taken } => {
            put_u8(buf, 11);
            encode_traced_val(buf, cond);
            put_u8(buf, *taken as u8);
        }
        TraceOp::Switch { value, taken_index } => {
            put_u8(buf, 12);
            encode_traced_val(buf, value);
            put_u64(buf, *taken_index as u64);
        }
    }
}

/// Encode one record (everything but its dynamic id, which is derived from
/// segment position at decode time).
fn encode_record(buf: &mut Vec<u8>, rec: &TraceRecord) {
    put_u64(buf, rec.frame);
    put_u32(buf, rec.func.0);
    put_u32(buf, rec.block.0);
    put_u32(buf, rec.inst);
    match rec.dst {
        None => put_u8(buf, 0),
        Some(RegId(r)) => {
            put_u8(buf, 1);
            put_u32(buf, r);
        }
    }
    encode_op(buf, &rec.op);
}

/// Why bytes failed to decode.  Small and `Copy`, so the decode loop
/// carries no message; one is formatted only when a file is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Malformed {
    /// A read ran past the end; the byte position it began at.
    Truncated(usize),
    /// A code byte that names nothing: what it codes, and the byte.
    Unknown(&'static str, u8),
    /// A count of items the remaining bytes cannot hold: what it counts,
    /// and the count.
    Count(&'static str, u64),
    /// A register-writing record, named by its mnemonic, without its
    /// destination register.
    NoDestination(&'static str),
    /// A record whose offsets do not delimit a range of the payload.
    OffsetRange,
    /// A record followed by bytes its encoding does not use.
    Trailing,
}

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Malformed::Truncated(at) => write!(f, "truncated at byte {at}"),
            Malformed::Unknown(what, code) => write!(f, "unknown {what} {code}"),
            Malformed::Count(what, n) => write!(f, "{what} count {n} exceeds remaining bytes"),
            Malformed::NoDestination(op) => write!(f, "{op} record has no destination register"),
            Malformed::OffsetRange => write!(f, "out-of-range offset"),
            Malformed::Trailing => write!(f, "trailing bytes"),
        }
    }
}

/// Bounds-checked little-endian reads over a byte slice: the one cursor of
/// the segment and manifest decoders.
///
/// A read past the end consumes nothing, returns zeros and latches the
/// position of the first such read, so a fixed-width read costs one
/// comparison and adds no error path to the decoder: a segment decodes in
/// about 30% less time than when every read returns a `Result`.  A decoder
/// calls `check` before it trusts what it read, and reports the overrun
/// ahead of anything it read after it.  The reads and the record decoders
/// below are `#[inline]`: without the hints, decoding took a quarter longer.
struct Cursor<'a> {
    rest: &'a [u8],
    len: usize,
    overrun: Option<usize>,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            rest: bytes,
            len: bytes.len(),
            overrun: None,
        }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// `Err` once any read has run past the end.
    fn check(&self) -> Result<(), Malformed> {
        match self.overrun {
            Some(at) => Err(Malformed::Truncated(at)),
            None => Ok(()),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> [u8; N] {
        if let Some((head, rest)) = self.rest.split_first_chunk::<N>() {
            self.rest = rest;
            return *head;
        }
        self.overrun.get_or_insert(self.len - self.rest.len());
        [0; N]
    }

    #[inline]
    fn u8(&mut self) -> u8 {
        self.array::<1>()[0]
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.array())
    }

    #[inline]
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.array())
    }

    /// A presence tag: `false` for 0, `true` for 1.
    #[inline]
    fn tag(&mut self, what: &'static str) -> Result<bool, Malformed> {
        match self.u8() {
            0 => Ok(false),
            1 => Ok(true),
            code => Err(Malformed::Unknown(what, code)),
        }
    }

    /// `n` as a length, if `n` items of `width` bytes fit in what remains.
    fn fits(&self, what: &'static str, n: u64, width: usize) -> Result<usize, Malformed> {
        usize::try_from(n)
            .ok()
            .filter(|&n| {
                n.checked_mul(width)
                    .is_some_and(|len| len <= self.remaining())
            })
            .ok_or(Malformed::Count(what, n))
    }

    /// A `u32` count of items at least `width` bytes wide each, bounded by
    /// the bytes that remain before anything is reserved for them.
    fn count(&mut self, what: &'static str, width: usize) -> Result<usize, Malformed> {
        let n = self.u32();
        self.check()?;
        self.fits(what, n.into(), width)
    }

    /// The next `n` items of `width` bytes each, in place.
    fn items(&mut self, what: &'static str, n: u64, width: usize) -> Result<&'a [u8], Malformed> {
        let (head, rest) = self.rest.split_at(self.fits(what, n, width)? * width);
        self.rest = rest;
        Ok(head)
    }
}

#[inline]
fn decode_value(r: &mut Cursor<'_>) -> Result<Value, Malformed> {
    Ok(match r.u8() {
        0 => Value::I1(r.u8() != 0),
        1 => Value::I8(r.u8() as i8),
        2 => Value::I16(i16::from_le_bytes(r.array())),
        3 => Value::I32(r.u32() as i32),
        4 => Value::I64(r.u64() as i64),
        5 => Value::F32(f32::from_bits(r.u32())),
        6 => Value::F64(f64::from_bits(r.u64())),
        7 => Value::Ptr(r.u64()),
        code => return Err(Malformed::Unknown("value code", code)),
    })
}

#[inline]
fn decode_source(r: &mut Cursor<'_>) -> Result<ValueSource, Malformed> {
    Ok(match r.u8() {
        0 => ValueSource::Const,
        1 => ValueSource::GlobalBase,
        2 => ValueSource::Reg(RegId(r.u32())),
        code => return Err(Malformed::Unknown("value-source code", code)),
    })
}

#[inline]
fn decode_element(r: &mut Cursor<'_>) -> Result<Option<(ObjectId, u64)>, Malformed> {
    Ok(match r.tag("element tag")? {
        true => Some((ObjectId(r.u32()), r.u64())),
        false => None,
    })
}

#[inline]
fn decode_traced_val(r: &mut Cursor<'_>) -> Result<TracedVal, Malformed> {
    Ok(TracedVal {
        value: decode_value(r)?,
        source: decode_source(r)?,
        element: decode_element(r)?,
    })
}

fn decode_vals(r: &mut Cursor<'_>) -> Result<Vec<TracedVal>, Malformed> {
    // A traced value takes at least 4 bytes: a value code and its payload,
    // a source code and an element tag.
    let n = r.count("argument", 4)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(decode_traced_val(r)?);
    }
    Ok(vals)
}

#[inline]
fn decode_reg(r: &mut Cursor<'_>) -> Result<Option<RegId>, Malformed> {
    Ok(match r.tag("option tag")? {
        true => Some(RegId(r.u32())),
        false => None,
    })
}

fn decode_op(r: &mut Cursor<'_>) -> Result<TraceOp, Malformed> {
    Ok(match r.u8() {
        0 => TraceOp::Bin {
            op: bin_op_from(r.u8())?,
            ty: type_from(r.u8())?,
            lhs: decode_traced_val(r)?,
            rhs: decode_traced_val(r)?,
            result: decode_value(r)?,
        },
        1 => TraceOp::Cmp {
            pred: cmp_pred_from(r.u8())?,
            lhs: decode_traced_val(r)?,
            rhs: decode_traced_val(r)?,
            result: decode_value(r)?,
        },
        2 => TraceOp::Cast {
            kind: cast_kind_from(r.u8())?,
            to: type_from(r.u8())?,
            src: decode_traced_val(r)?,
            result: decode_value(r)?,
        },
        3 => TraceOp::Load {
            ty: type_from(r.u8())?,
            addr: r.u64(),
            addr_src: decode_source(r)?,
            element: decode_element(r)?,
            result: decode_value(r)?,
        },
        4 => TraceOp::Store {
            ty: type_from(r.u8())?,
            addr: r.u64(),
            addr_src: decode_source(r)?,
            element: decode_element(r)?,
            value: decode_traced_val(r)?,
            overwritten: decode_value(r)?,
            value_depends_on_dest: r.u8() != 0,
        },
        5 => TraceOp::Gep {
            base: decode_traced_val(r)?,
            index: decode_traced_val(r)?,
            elem_size: r.u64(),
            result: decode_value(r)?,
        },
        6 => TraceOp::Select {
            cond: decode_traced_val(r)?,
            then_v: decode_traced_val(r)?,
            else_v: decode_traced_val(r)?,
            result: decode_value(r)?,
        },
        7 => TraceOp::Intrinsic {
            intr: intrinsic_from(r.u8())?,
            args: decode_vals(r)?,
            result: decode_value(r)?,
        },
        8 => TraceOp::Mov {
            src: decode_traced_val(r)?,
            result: decode_value(r)?,
        },
        9 => {
            let callee = FuncId(r.u32());
            let callee_frame = r.u64();
            let args = decode_vals(r)?;
            let n = r.u32();
            let (regs, _) = r.items("param-reg", n.into(), 4)?.as_chunks::<4>();
            TraceOp::Call {
                callee,
                args,
                callee_frame,
                param_regs: regs.iter().map(|b| RegId(u32::from_le_bytes(*b))).collect(),
            }
        }
        10 => TraceOp::Ret {
            value: match r.tag("option tag")? {
                true => Some(decode_traced_val(r)?),
                false => None,
            },
            caller_frame: match r.tag("option tag")? {
                true => Some(r.u64()),
                false => None,
            },
            dst_in_caller: decode_reg(r)?,
        },
        11 => TraceOp::CondBr {
            cond: decode_traced_val(r)?,
            taken: r.u8() != 0,
        },
        12 => TraceOp::Switch {
            value: decode_traced_val(r)?,
            taken_index: r.u64() as usize,
        },
        code => return Err(Malformed::Unknown("trace-op code", code)),
    })
}

/// Decode one record onto `out` (pushed here, not returned, so the record
/// is not copied through a `Result`).  On `Err`, the cursor's own `check`
/// names the first fault if a read overran: what was read after an overrun
/// is misaligned.
#[inline]
fn decode_record(r: &mut Cursor<'_>, id: u64, out: &mut Vec<TraceRecord>) -> Result<(), Malformed> {
    let rec = TraceRecord {
        id,
        frame: r.u64(),
        func: FuncId(r.u32()),
        block: BlockId(r.u32()),
        inst: r.u32(),
        dst: decode_reg(r)?,
        op: decode_op(r)?,
    };
    r.check()?;
    // The tracer gives every register-writing record its destination, and
    // replay relies on it; a segment whose checksum holds without it was
    // not written by the tracer.
    if rec.dst.is_none() && rec.result().is_some() {
        return Err(Malformed::NoDestination(rec.mnemonic()));
    }
    out.push(rec);
    Ok(())
}

// ---------------------------------------------------------------------------
// Segment and manifest files
// ---------------------------------------------------------------------------

/// Location of one segment within the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentMeta {
    first_id: u64,
    count: u32,
}

fn segment_file(dir: &Path, seg: usize) -> PathBuf {
    dir.join(format!("seg-{seg:06}.bin"))
}

/// Bytes of a segment's header: magic, version, meta, first id, record
/// count and payload length.
const SEGMENT_HEADER: usize = 36;

/// Append the checksum of everything before it.
fn sign(out: &mut Vec<u8>) {
    let sum = checksum(out);
    put_u64(out, sum);
}

/// Serialize one segment: header, offset table, record payload, checksum.
fn encode_segment(meta: u64, first_id: u64, offsets: &[u32], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER + 4 * offsets.len() + payload.len() + 8);
    out.extend_from_slice(SEGMENT_MAGIC);
    put_u32(&mut out, PAGED_FORMAT_VERSION);
    put_u64(&mut out, meta);
    put_u64(&mut out, first_id);
    put_u32(&mut out, offsets.len() as u32);
    put_u32(&mut out, payload.len() as u32);
    for &o in offsets {
        put_u32(&mut out, o);
    }
    out.extend_from_slice(payload);
    sign(&mut out);
    out
}

/// A cursor over the fields after the format version of `bytes`, once its
/// length, checksum, magic and version hold.
fn verified_fields<'a>(
    path: &Path,
    bytes: &'a [u8],
    magic: &[u8; 8],
) -> Result<Cursor<'a>, TraceError> {
    let Some((body, sum)) = bytes
        .split_last_chunk::<8>()
        .filter(|(body, _)| body.len() >= magic.len())
    else {
        return Err(TraceError::corrupt(path, "file shorter than header"));
    };
    if checksum(body) != u64::from_le_bytes(*sum) {
        return Err(TraceError::corrupt(path, "checksum mismatch"));
    }
    let Some(fields) = body.strip_prefix(magic.as_slice()) else {
        return Err(TraceError::corrupt(path, "bad magic"));
    };
    let mut r = Cursor::new(fields);
    let version = r.u32();
    r.check()
        .map_err(|e| TraceError::corrupt(path, e.to_string()))?;
    if version != PAGED_FORMAT_VERSION {
        return Err(TraceError::SchemaMismatch {
            path: path.display().to_string(),
            found: version,
            expected: PAGED_FORMAT_VERSION,
        });
    }
    Ok(r)
}

/// Read, validate, and decode one segment file into records.
fn decode_segment(
    path: &Path,
    expected_meta: u64,
    expected: SegmentMeta,
) -> Result<Vec<TraceRecord>, TraceError> {
    let bytes = std::fs::read(path).map_err(|e| TraceError::io(path, e))?;
    let mut r = verified_fields(path, &bytes, SEGMENT_MAGIC)?;
    let fail = |e: Malformed| TraceError::corrupt(path, e.to_string());
    let (meta, first_id, count, payload_len) = (r.u64(), r.u64(), r.u32(), r.u32());
    r.check().map_err(fail)?;
    if meta != expected_meta {
        return Err(TraceError::corrupt(
            path,
            "segment belongs to a different trace (meta fingerprint mismatch)",
        ));
    }
    if first_id != expected.first_id || count != expected.count {
        return Err(TraceError::corrupt(
            path,
            format!(
                "segment covers records [{first_id}, +{count}), manifest expects \
                 [{}, +{})",
                expected.first_id, expected.count
            ),
        ));
    }
    let (offsets, _) = r
        .items("record", count.into(), 4)
        .map_err(fail)?
        .as_chunks::<4>();
    let payload = r
        .items("payload byte", payload_len.into(), 1)
        .map_err(fail)?;
    if r.remaining() != 0 {
        return Err(TraceError::corrupt(path, "trailing bytes after payload"));
    }
    decode_records(first_id, offsets, payload)
        .map_err(|(i, e)| TraceError::corrupt(path, format!("record {i}: {e}")))
}

/// The records of one segment's payload, or the index of the first record
/// that fails and why.  (Building no `TraceError` inside this loop made
/// `PagedTrace::verify` about a quarter faster.)
fn decode_records(
    first_id: u64,
    offsets: &[[u8; 4]],
    payload: &[u8],
) -> Result<Vec<TraceRecord>, (usize, Malformed)> {
    let starts = offsets.iter().map(|o| u32::from_le_bytes(*o) as usize);
    let ends = starts.clone().skip(1).chain([payload.len()]);
    let mut records = Vec::with_capacity(offsets.len());
    for (i, (start, end)) in starts.zip(ends).enumerate() {
        let bytes = payload.get(start..end).ok_or((i, Malformed::OffsetRange))?;
        let mut r = Cursor::new(bytes);
        decode_record(&mut r, first_id + i as u64, &mut records)
            .map_err(|e| (i, r.check().err().unwrap_or(e)))?;
        if r.remaining() != 0 {
            return Err((i, Malformed::Trailing));
        }
    }
    Ok(records)
}

fn encode_manifest(
    meta: u64,
    segment_records: usize,
    total: u64,
    segments: &[SegmentMeta],
    index: &TraceIndex,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, PAGED_FORMAT_VERSION);
    put_u64(&mut out, meta);
    put_u32(&mut out, segment_records as u32);
    put_u64(&mut out, total);
    put_u32(&mut out, segments.len() as u32);
    for seg in segments {
        put_u64(&mut out, seg.first_id);
        put_u32(&mut out, seg.count);
    }
    let slots = index.object_slots();
    put_u32(&mut out, slots as u32);
    for slot in 0..slots {
        let ids = index.ids(ObjectId(slot as u32));
        put_u64(&mut out, ids.len() as u64);
        for &id in ids {
            put_u64(&mut out, id);
        }
    }
    sign(&mut out);
    out
}

struct Manifest {
    meta: u64,
    segment_records: usize,
    total: u64,
    segments: Vec<SegmentMeta>,
    index: TraceIndex,
}

fn decode_manifest(path: &Path) -> Result<Manifest, TraceError> {
    let bytes = std::fs::read(path).map_err(|e| TraceError::io(path, e))?;
    let mut r = verified_fields(path, &bytes, MANIFEST_MAGIC)?;
    let fail = |e: Malformed| TraceError::corrupt(path, e.to_string());
    let (meta, segment_records, total) = (r.u64(), r.u32(), r.u64());
    r.check().map_err(fail)?;
    if segment_records == 0 {
        return Err(TraceError::corrupt(path, "segment_records is zero"));
    }
    // A segment-table entry is a first id (u64) and a record count (u32).
    let seg_count = r.count("segment", 12).map_err(fail)?;
    let mut segments = Vec::with_capacity(seg_count);
    let mut covered = 0u64;
    for i in 0..seg_count {
        // In bounds: the count was checked against the bytes that remain.
        let (first_id, count) = (r.u64(), r.u32());
        if first_id != covered || count == 0 {
            return Err(TraceError::corrupt(
                path,
                format!("segment {i} does not continue the record sequence"),
            ));
        }
        if count > segment_records {
            return Err(TraceError::corrupt(
                path,
                format!("segment {i} holds more than {segment_records} records"),
            ));
        }
        if i + 1 < seg_count && count != segment_records {
            return Err(TraceError::corrupt(
                path,
                format!("non-final segment {i} is not full"),
            ));
        }
        covered += u64::from(count);
        segments.push(SegmentMeta { first_id, count });
    }
    if covered != total {
        return Err(TraceError::corrupt(
            path,
            format!("segments cover {covered} records, manifest claims {total}"),
        ));
    }
    // Every object slot holds at least its id count (u64).
    let slots = r.count("object slot", 8).map_err(fail)?;
    let mut index = TraceIndex::default();
    for slot in 0..slots {
        let n = r.u64();
        let (ids, _) = r
            .items("object id", n, 8)
            .map_err(|_| {
                TraceError::corrupt(
                    path,
                    format!("object {slot} id list exceeds remaining bytes"),
                )
            })?
            .as_chunks::<8>();
        let ids: Vec<u64> = ids.iter().map(|b| u64::from_le_bytes(*b)).collect();
        if !ids.is_sorted_by(|a, b| a < b) || ids.last().is_some_and(|&id| id >= total) {
            return Err(TraceError::corrupt(
                path,
                format!("object {slot} index is not strictly increasing in range"),
            ));
        }
        index.set_ids(ObjectId(slot as u32), ids);
    }
    r.check().map_err(fail)?;
    if r.remaining() != 0 {
        return Err(TraceError::corrupt(path, "trailing bytes after index"));
    }
    Ok(Manifest {
        meta,
        segment_records: segment_records as usize,
        total,
        segments,
        index,
    })
}

// ---------------------------------------------------------------------------
// Spill-directory lifecycle
// ---------------------------------------------------------------------------

/// Deletes its directory on drop (transient spill semantics).  Moved from
/// the writer into the finished [`PagedTrace`], so the spill lives exactly
/// as long as something can read it.
#[derive(Debug)]
struct DirGuard {
    path: PathBuf,
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer for the paged backend: records are encoded into the
/// current segment buffer as the VM emits them and flushed to disk every
/// `segment_records` records, so tracing memory stays bounded by one
/// segment regardless of trace length.
///
/// `push` is deliberately infallible (it sits on the VM's per-operation hot
/// path): the first I/O error is buffered, subsequent pushes become no-ops,
/// and [`PagedTraceWriter::finish`] surfaces the error.
pub struct PagedTraceWriter {
    dir: PathBuf,
    guard: Option<DirGuard>,
    segment_records: usize,
    meta: u64,
    index: TraceIndex,
    segments: Vec<SegmentMeta>,
    offsets: Vec<u32>,
    payload: Vec<u8>,
    segment_first_id: u64,
    next_id: u64,
    error: Option<TraceError>,
}

impl PagedTraceWriter {
    /// Create a writer spilling into a fresh process-unique subdirectory of
    /// `base` (or the system temp directory).  The directory is removed
    /// when the finished [`PagedTrace`] is dropped — or by the writer's own
    /// drop if `finish` is never reached.
    pub fn create(
        base: Option<&Path>,
        segment_records: usize,
    ) -> Result<PagedTraceWriter, TraceError> {
        let base = match base {
            Some(b) => b.to_path_buf(),
            None => std::env::temp_dir(),
        };
        let dir = base.join(format!("moard-trace-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).map_err(|e| TraceError::io(&dir, e))?;
        let meta = checksum(dir.display().to_string().as_bytes()) ^ unique_meta_salt();
        Ok(PagedTraceWriter {
            guard: Some(DirGuard { path: dir.clone() }),
            dir,
            segment_records: segment_records.max(1),
            meta,
            index: TraceIndex::default(),
            segments: Vec::new(),
            offsets: Vec::new(),
            payload: Vec::new(),
            segment_first_id: 0,
            next_id: 0,
            error: None,
        })
    }

    /// The spill directory this writer fills.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append a record.  Same ordering contract as [`Trace::push`].
    pub fn push(&mut self, record: TraceRecord) {
        if self.error.is_some() {
            return;
        }
        assert_eq!(
            record.id, self.next_id,
            "records must be appended in dynamic-id order"
        );
        let id = record.id;
        let index = &mut self.index;
        record.touched_objects(|obj| index.note(obj, id));
        self.offsets.push(self.payload.len() as u32);
        encode_record(&mut self.payload, &record);
        self.next_id += 1;
        if self.offsets.len() >= self.segment_records {
            self.flush_segment();
        }
    }

    fn flush_segment(&mut self) {
        if self.offsets.is_empty() {
            return;
        }
        let seg = self.segments.len();
        let bytes = encode_segment(
            self.meta,
            self.segment_first_id,
            &self.offsets,
            &self.payload,
        );
        let path = segment_file(&self.dir, seg);
        if let Err(e) = std::fs::write(&path, &bytes) {
            self.error = Some(TraceError::io(&path, e));
            return;
        }
        self.segments.push(SegmentMeta {
            first_id: self.segment_first_id,
            count: self.offsets.len() as u32,
        });
        self.segment_first_id = self.next_id;
        self.offsets.clear();
        self.payload.clear();
    }

    /// Flush the final partial segment, persist the manifest, and validate
    /// the result by re-opening it — the finished [`PagedTrace`] owns (and
    /// will remove) the spill directory.
    pub fn finish(mut self) -> Result<PagedTrace, TraceError> {
        self.flush_segment();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let manifest = encode_manifest(
            self.meta,
            self.segment_records,
            self.next_id,
            &self.segments,
            &self.index,
        );
        let path = self.dir.join(MANIFEST_NAME);
        std::fs::write(&path, &manifest).map_err(|e| TraceError::io(&path, e))?;
        // Round-trip through the reader path: what was just persisted is
        // what every future open will see.
        PagedTrace::open_with_guard(self.dir.clone(), self.guard.take())
    }
}

/// Extra entropy for the meta fingerprint beyond the (already unique) spill
/// path: pid and a process-wide counter.
fn unique_meta_salt() -> u64 {
    let pid = std::process::id() as u64;
    let n = UNIQUE_COUNTER.fetch_add(1, Ordering::Relaxed);
    pid.rotate_left(32) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

// ---------------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------------

/// A completed paged trace: manifest (segment table + per-object index)
/// resident in memory, record segments decoded lazily per reader.
pub struct PagedTrace {
    dir: PathBuf,
    /// Held only for its Drop (removes the spill directory).
    _guard: Option<DirGuard>,
    meta: u64,
    segment_records: usize,
    total: u64,
    segments: Vec<SegmentMeta>,
    index: TraceIndex,
    poison: Mutex<Option<TraceError>>,
    /// Per segment, the decoded copy some live reader holds, if any.
    decoded: Mutex<Vec<Weak<Vec<TraceRecord>>>>,
}

impl std::fmt::Debug for PagedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedTrace")
            .field("dir", &self.dir)
            .field("total", &self.total)
            .field("segments", &self.segments.len())
            .finish()
    }
}

impl PagedTrace {
    /// Open an existing spill directory (manifest validation only; segments
    /// decode lazily).  The directory is *not* removed on drop — use
    /// [`TraceBuilder::finish`] for owned transient spills.
    pub fn open(dir: impl Into<PathBuf>) -> Result<PagedTrace, TraceError> {
        PagedTrace::open_with_guard(dir.into(), None)
    }

    fn open_with_guard(dir: PathBuf, guard: Option<DirGuard>) -> Result<PagedTrace, TraceError> {
        let manifest = decode_manifest(&dir.join(MANIFEST_NAME))?;
        Ok(PagedTrace {
            dir,
            _guard: guard,
            meta: manifest.meta,
            segment_records: manifest.segment_records,
            total: manifest.total,
            decoded: Mutex::new(manifest.segments.iter().map(|_| Weak::new()).collect()),
            segments: manifest.segments,
            index: manifest.index,
            poison: Mutex::new(None),
        })
    }

    /// The spill directory holding this trace's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records per (non-final) segment.
    pub fn segment_records(&self) -> usize {
        self.segment_records
    }

    /// Number of on-disk segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Segment index covering dynamic id `id` (which must be `< total`).
    fn segment_of(&self, id: u64) -> usize {
        (id / self.segment_records as u64) as usize
    }

    /// The records of segment `seg`: the decoded copy a live reader already
    /// holds, or else a fresh decode that later readers then share.  `None`
    /// if the segment fails to decode (the trace is then poisoned).
    fn segment(&self, seg: usize) -> Option<Arc<Vec<TraceRecord>>> {
        let decoded = || self.decoded.lock().expect("decoded segment table");
        if let Some(records) = decoded()[seg].upgrade() {
            return Some(records);
        }
        let records =
            match decode_segment(&segment_file(&self.dir, seg), self.meta, self.segments[seg]) {
                Ok(records) => Arc::new(records),
                Err(e) => {
                    self.poison_with(e);
                    return None;
                }
            };
        // Another reader may have decoded it meanwhile: keep one copy.
        let mut table = decoded();
        match table[seg].upgrade() {
            Some(theirs) => Some(theirs),
            None => {
                table[seg] = Arc::downgrade(&records);
                Some(records)
            }
        }
    }

    fn poison_with(&self, e: TraceError) {
        let mut slot = self.poison.lock().expect("trace poison slot");
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Decode every segment once, surfacing the first typed error — an
    /// integrity check over the whole spill (tests, diagnostics).
    pub fn verify(&self) -> Result<(), TraceError> {
        for (i, seg) in self.segments.iter().enumerate() {
            decode_segment(&segment_file(&self.dir, i), self.meta, *seg)?;
        }
        Ok(())
    }
}

impl TraceStorage for PagedTrace {
    fn len(&self) -> u64 {
        self.total
    }

    fn index(&self) -> &TraceIndex {
        &self.index
    }

    fn stats(&self) -> TraceStats {
        TraceStats {
            records: self.total,
            indexed_objects: self.index.indexed_objects(),
            index_entries: self.index.entries(),
        }
    }

    fn backend_name(&self) -> &'static str {
        "paged"
    }

    fn new_reader(&self) -> Box<dyn TraceRead + '_> {
        Box::new(PagedReader {
            trace: self,
            cache: Vec::with_capacity(READER_SEGMENT_CACHE),
            tick: 0,
        })
    }

    fn poisoned(&self) -> Option<TraceError> {
        self.poison.lock().expect("trace poison slot").clone()
    }
}

/// One decoded segment held by a reader.
struct CachedSegment {
    seg: usize,
    tick: u64,
    records: Arc<Vec<TraceRecord>>,
}

/// A reader over a [`PagedTrace`]: a small LRU of decoded segments.  Each
/// cursor or worker thread creates its own reader, all borrowing the same
/// immutable trace, and the readers share decoded segments: a reader that
/// needs a segment another live reader holds takes that copy instead of
/// decoding it again, and a segment is dropped once no reader's LRU holds
/// it.  So several threads walking the same stretch of the trace keep one
/// decoded copy of it resident, not one each.
///
/// Decode amortization is what makes this backend pay off under lane-batched
/// replay: a `BatchReplayCursor` walking up to 64 fault lanes issues one
/// `run_from` per trace position, so each decoded segment here serves up to
/// 64 replays instead of one before it can be evicted.
pub struct PagedReader<'t> {
    trace: &'t PagedTrace,
    cache: Vec<CachedSegment>,
    tick: u64,
}

impl PagedReader<'_> {
    /// Slot of `seg` in the cache, decoding (and possibly evicting) if
    /// absent.  `None` on decode failure (the trace is then poisoned).
    fn ensure(&mut self, seg: usize) -> Option<usize> {
        self.tick += 1;
        if let Some(slot) = self.cache.iter().position(|c| c.seg == seg) {
            self.cache[slot].tick = self.tick;
            return Some(slot);
        }
        let records = self.trace.segment(seg)?;
        let entry = CachedSegment {
            seg,
            tick: self.tick,
            records,
        };
        if self.cache.len() < READER_SEGMENT_CACHE {
            self.cache.push(entry);
            Some(self.cache.len() - 1)
        } else {
            let evict = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.tick)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            self.cache[evict] = entry;
            Some(evict)
        }
    }
}

impl TraceRead for PagedReader<'_> {
    fn run_from(&mut self, id: u64) -> &[TraceRecord] {
        if id >= self.trace.total {
            return &[];
        }
        let seg = self.trace.segment_of(id);
        let Some(slot) = self.ensure(seg) else {
            return &[];
        };
        let first = self.trace.segments[seg].first_id;
        &self.cache[slot].records[(id - first) as usize..]
    }
}

// ---------------------------------------------------------------------------
// Backend selection, builder, and the unified trace value
// ---------------------------------------------------------------------------

/// Which trace backend an execution should record into — the value behind
/// the `--trace-backend memory|paged[:DIR]` CLI flag.
///
/// The backend is an *execution-resource* choice, never an analysis input:
/// it does not enter any configuration or study fingerprint, and reports are
/// bit-identical across backends.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceBackendSpec {
    /// Everything resident in memory (the default; fastest, bounded by RAM).
    #[default]
    Memory,
    /// Fixed-size record segments spilled to disk, decoded lazily per
    /// replay window.
    Paged {
        /// Base directory for the per-trace spill subdirectory; `None` uses
        /// the system temp directory.
        dir: Option<PathBuf>,
        /// Records per segment ([`DEFAULT_SEGMENT_RECORDS`] by default;
        /// tests shrink it to place seams under specific sites).
        segment_records: usize,
    },
}

impl TraceBackendSpec {
    /// The paged backend with default segment size, spilling under the
    /// system temp directory.
    pub fn paged() -> TraceBackendSpec {
        TraceBackendSpec::Paged {
            dir: None,
            segment_records: DEFAULT_SEGMENT_RECORDS,
        }
    }

    /// Parse the CLI form: `memory`, `paged`, or `paged:DIR`.
    pub fn parse(text: &str) -> Result<TraceBackendSpec, String> {
        if text == "memory" {
            return Ok(TraceBackendSpec::Memory);
        }
        if text == "paged" {
            return Ok(TraceBackendSpec::paged());
        }
        if let Some(dir) = text.strip_prefix("paged:") {
            if dir.is_empty() {
                return Err("`paged:` needs a directory after the colon".into());
            }
            return Ok(TraceBackendSpec::Paged {
                dir: Some(PathBuf::from(dir)),
                segment_records: DEFAULT_SEGMENT_RECORDS,
            });
        }
        Err(format!(
            "unknown trace backend `{text}` (expected `memory`, `paged`, or `paged:DIR`)"
        ))
    }

    /// Canonical rendering (round-trips through [`TraceBackendSpec::parse`]
    /// for default segment sizes).
    pub fn describe(&self) -> String {
        match self {
            TraceBackendSpec::Memory => "memory".into(),
            TraceBackendSpec::Paged { dir: None, .. } => "paged".into(),
            TraceBackendSpec::Paged { dir: Some(d), .. } => format!("paged:{}", d.display()),
        }
    }
}

/// A trace under construction — the sink the VM pushes records into.
pub enum TraceBuilder {
    /// Building an in-memory [`Trace`].
    Memory(Trace),
    /// Streaming into a [`PagedTraceWriter`].
    Paged(PagedTraceWriter),
}

impl TraceBuilder {
    /// A builder for the given backend.  Creating the paged spill directory
    /// can fail; the memory builder never does.
    pub fn for_spec(spec: &TraceBackendSpec) -> Result<TraceBuilder, TraceError> {
        match spec {
            TraceBackendSpec::Memory => Ok(TraceBuilder::Memory(Trace::default())),
            TraceBackendSpec::Paged {
                dir,
                segment_records,
            } => Ok(TraceBuilder::Paged(PagedTraceWriter::create(
                dir.as_deref(),
                *segment_records,
            )?)),
        }
    }

    /// Append a record (same contract as [`Trace::push`]).  Infallible on
    /// the VM hot path; paged I/O errors surface in
    /// [`TraceBuilder::finish`].
    pub fn push(&mut self, record: TraceRecord) {
        match self {
            TraceBuilder::Memory(trace) => trace.push(record),
            TraceBuilder::Paged(writer) => writer.push(record),
        }
    }

    /// Complete the trace.
    pub fn finish(self) -> Result<TraceData, TraceError> {
        match self {
            TraceBuilder::Memory(trace) => Ok(TraceData::Memory(trace)),
            TraceBuilder::Paged(writer) => Ok(TraceData::Paged(writer.finish()?)),
        }
    }
}

/// A completed trace from either backend.  This is what the analysis
/// harness holds; it coerces to `&dyn TraceStorage` wherever the analysis
/// layers want one.
#[derive(Debug)]
pub enum TraceData {
    /// In-memory backend.
    Memory(Trace),
    /// Paged on-disk backend.
    Paged(PagedTrace),
}

impl TraceData {
    /// The storage trait object for this trace.
    pub fn storage(&self) -> &dyn TraceStorage {
        match self {
            TraceData::Memory(t) => t,
            TraceData::Paged(t) => t,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        TraceStorage::len(self.storage()) as usize
    }

    /// True if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summary statistics of the trace and its index.
    pub fn stats(&self) -> TraceStats {
        self.storage().stats()
    }

    /// The per-object record-id index.
    pub fn index(&self) -> &TraceIndex {
        self.storage().index()
    }

    /// Record ids touching `obj`, in execution order.
    pub fn touching_ids(&self, obj: ObjectId) -> &[u64] {
        self.index().ids(obj)
    }

    /// Backend name (`"memory"` / `"paged"`).
    pub fn backend_name(&self) -> &'static str {
        self.storage().backend_name()
    }

    /// One record by dynamic id, cloned out of the backend.  (Replay-loop
    /// code should hold a [`TraceRead`] reader instead; this is for
    /// occasional point lookups.)
    pub fn record(&self, id: u64) -> Option<TraceRecord> {
        match self {
            TraceData::Memory(t) => t.record(id).cloned(),
            TraceData::Paged(t) => t.new_reader().fetch(id),
        }
    }

    /// The in-memory trace, when this is the memory backend.
    pub fn as_memory(&self) -> Option<&Trace> {
        match self {
            TraceData::Memory(t) => Some(t),
            TraceData::Paged(_) => None,
        }
    }

    /// The paged trace, when this is the paged backend.
    pub fn as_paged(&self) -> Option<&PagedTrace> {
        match self {
            TraceData::Memory(_) => None,
            TraceData::Paged(t) => Some(t),
        }
    }
}

impl From<Trace> for TraceData {
    fn from(trace: Trace) -> TraceData {
        TraceData::Memory(trace)
    }
}

impl TraceStorage for TraceData {
    fn len(&self) -> u64 {
        TraceStorage::len(self.storage())
    }

    fn index(&self) -> &TraceIndex {
        self.storage().index()
    }

    fn stats(&self) -> TraceStats {
        self.storage().stats()
    }

    fn backend_name(&self) -> &'static str {
        self.storage().backend_name()
    }

    fn new_reader(&self) -> Box<dyn TraceRead + '_> {
        self.storage().new_reader()
    }

    fn poisoned(&self) -> Option<TraceError> {
        self.storage().poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|id| {
                let op = match id % 5 {
                    0 => TraceOp::Bin {
                        op: BinOp::FAdd,
                        ty: Type::F64,
                        lhs: TracedVal {
                            value: Value::F64(id as f64),
                            source: ValueSource::Reg(RegId(id as u32)),
                            element: Some((ObjectId(0), id)),
                        },
                        rhs: TracedVal::constant(Value::F64(2.0)),
                        result: Value::F64(id as f64 + 2.0),
                    },
                    1 => TraceOp::Load {
                        ty: Type::F64,
                        addr: 0x1000 + id * 8,
                        addr_src: ValueSource::Const,
                        element: Some((ObjectId(1), id / 2)),
                        result: Value::F64(1.5),
                    },
                    2 => TraceOp::Store {
                        ty: Type::I32,
                        addr: 0x2000,
                        addr_src: ValueSource::Reg(RegId(3)),
                        element: Some((ObjectId(0), 7)),
                        value: TracedVal::constant(Value::I32(-9)),
                        overwritten: Value::I32(4),
                        value_depends_on_dest: id % 2 == 0,
                    },
                    3 => TraceOp::Intrinsic {
                        intr: Intrinsic::Pow,
                        args: vec![
                            TracedVal::constant(Value::F64(2.0)),
                            TracedVal::constant(Value::F64(10.0)),
                        ],
                        result: Value::F64(1024.0),
                    },
                    _ => TraceOp::Ret {
                        value: Some(TracedVal::constant(Value::I1(true))),
                        caller_frame: Some(id),
                        dst_in_caller: Some(RegId(9)),
                    },
                };
                let mut rec = TraceRecord {
                    id,
                    frame: id / 3,
                    func: FuncId(1),
                    block: BlockId(2),
                    inst: id as u32,
                    dst: (id % 2 == 0).then_some(RegId(id as u32)),
                    op,
                };
                // A register-writing record always has its destination (the
                // decoder rejects one without); the others alternate.
                if rec.result().is_some() {
                    rec.dst = Some(RegId(id as u32));
                }
                rec
            })
            .collect()
    }

    fn build_paged(records: &[TraceRecord], segment_records: usize) -> PagedTrace {
        let mut builder = TraceBuilder::for_spec(&TraceBackendSpec::Paged {
            dir: None,
            segment_records,
        })
        .unwrap();
        for rec in records {
            builder.push(rec.clone());
        }
        match builder.finish().unwrap() {
            TraceData::Paged(t) => t,
            TraceData::Memory(_) => unreachable!(),
        }
    }

    #[test]
    fn record_codec_round_trips() {
        for rec in sample_records(25) {
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            let back = decode_records(rec.id, &[[0; 4]], &buf).unwrap();
            assert_eq!(back, [rec]);
        }
    }

    #[test]
    fn every_cut_record_is_truncated() {
        // Reads past the end latch; the overrun, not a code misread after
        // it, is the error reported.  A cut that leaves a count with too
        // few bytes behind it fails the count's bound first.
        for rec in sample_records(5) {
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            for cut in 0..buf.len() {
                match decode_records(rec.id, &[[0; 4]], &buf[..cut]) {
                    Err((0, Malformed::Truncated(at))) => assert!(at <= cut),
                    Err((0, Malformed::Count("argument", _))) => {}
                    other => panic!("{} cut at {cut}: {other:?}", rec.mnemonic()),
                }
            }
        }
    }

    #[test]
    fn register_writing_record_without_destination_is_corrupt() {
        // Bin, Load and Intrinsic records need their destination register;
        // Store and Ret records decode with or without one.
        for mut rec in sample_records(5) {
            let writes = rec.result().is_some();
            rec.dst = None;
            let mut buf = Vec::new();
            encode_record(&mut buf, &rec);
            match decode_records(rec.id, &[[0; 4]], &buf) {
                Err((_, e)) => {
                    assert!(writes, "{} rejected: {e}", rec.mnemonic());
                    assert!(e.to_string().contains("no destination register"), "{e}");
                }
                Ok(back) => {
                    assert!(!writes, "{} accepted without dst", rec.mnemonic());
                    assert_eq!(back, [rec]);
                }
            }
        }
    }

    #[test]
    fn paged_trace_round_trips_records_index_and_stats() {
        let records = sample_records(100);
        let memory = Trace::from_records(records.iter().cloned());
        let paged = build_paged(&records, 16);
        assert_eq!(paged.segment_count(), 7);
        assert_eq!(TraceStorage::len(&paged), 100);
        assert_eq!(paged.stats(), memory.stats());
        assert_eq!(
            paged.index().ids(ObjectId(0)),
            memory.index().ids(ObjectId(0))
        );
        assert_eq!(
            paged.index().ids(ObjectId(1)),
            memory.index().ids(ObjectId(1))
        );
        let mut reader = paged.new_reader();
        for id in 0..100u64 {
            assert_eq!(reader.fetch(id).unwrap(), records[id as usize], "id {id}");
        }
        assert!(reader.fetch(100).is_none());
        paged.verify().unwrap();
        assert!(paged.poisoned().is_none());
    }

    #[test]
    fn runs_cover_segments_and_clamp_at_the_end() {
        let records = sample_records(40);
        let paged = build_paged(&records, 16);
        let mut reader = paged.new_reader();
        // Mid-segment start: the run reaches the segment seam, not past it.
        let run = reader.run_from(10);
        assert_eq!(run.len(), 6);
        assert_eq!(run[0].id, 10);
        // Seam start: the next segment decodes.
        let run = reader.run_from(16);
        assert_eq!(run.len(), 16);
        assert_eq!(run[0].id, 16);
        // Final short segment.
        let run = reader.run_from(33);
        assert_eq!(run.len(), 7);
        // Past the end: empty, not a panic.
        assert!(reader.run_from(40).is_empty());
        assert!(reader.run_from(u64::MAX).is_empty());
    }

    #[test]
    fn memory_reader_matches_paged_reader() {
        let records = sample_records(50);
        let memory = Trace::from_records(records.iter().cloned());
        let paged = build_paged(&records, 8);
        let mut mem_reader = memory.new_reader();
        let mut paged_reader = paged.new_reader();
        for start in [0u64, 7, 8, 9, 23, 49, 50] {
            let mut mem_walk = Vec::new();
            let mut pos = start;
            loop {
                let run = mem_reader.run_from(pos);
                if run.is_empty() {
                    break;
                }
                mem_walk.extend(run.iter().cloned());
                pos += run.len() as u64;
            }
            let mut paged_walk = Vec::new();
            let mut pos = start;
            loop {
                let run = paged_reader.run_from(pos);
                if run.is_empty() {
                    break;
                }
                paged_walk.extend(run.iter().cloned());
                pos += run.len() as u64;
            }
            assert_eq!(mem_walk, paged_walk, "start {start}");
        }
    }

    /// Flip one payload byte of segment `seg`.
    fn corrupt_segment(paged: &PagedTrace, seg: usize) {
        let path = segment_file(paged.dir(), seg);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn corrupt_segment_is_a_typed_error_and_poisons_readers() {
        let records = sample_records(48);
        let paged = build_paged(&records, 16);
        corrupt_segment(&paged, 1);
        // verify() surfaces the typed error directly…
        match paged.verify() {
            Err(TraceError::Corrupt { path: p, .. }) => assert!(p.contains("seg-000001")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // …while the infallible reader path yields an empty run and poisons.
        let mut reader = paged.new_reader();
        assert_eq!(reader.run_from(0).len(), 16, "first segment is intact");
        assert!(reader.run_from(16).is_empty());
        assert!(matches!(paged.poisoned(), Some(TraceError::Corrupt { .. })));
    }

    #[test]
    fn a_segment_from_another_spill_is_corrupt() {
        // Same records and a checksum that holds, but another trace's meta.
        let records = sample_records(40);
        let (ours, theirs) = (build_paged(&records, 16), build_paged(&records, 16));
        std::fs::copy(segment_file(theirs.dir(), 1), segment_file(ours.dir(), 1)).unwrap();
        match ours.verify() {
            Err(TraceError::Corrupt { reason, .. }) => {
                assert!(reason.contains("different trace"), "{reason}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn readers_share_decoded_segments_while_one_holds_them() {
        let records = sample_records(48);
        let paged = build_paged(&records, 16);
        // Two live readers asking for the same record get the same decoded
        // copy, and a third shares it even after its file went bad.
        let mut first = paged.new_reader();
        let mut second = paged.new_reader();
        let a = first.run_from(20).as_ptr();
        assert_eq!(second.run_from(20).as_ptr(), a);
        corrupt_segment(&paged, 1);
        let mut third = paged.new_reader();
        assert_eq!(third.run_from(17).as_ptr(), a.wrapping_sub(3));
        assert_eq!(third.fetch(20).unwrap(), records[20]);
        assert!(paged.poisoned().is_none());
        // Once every reader has dropped it, the next reader decodes the
        // segment again, and the corrupt file poisons the trace.
        drop((first, second, third));
        let mut fresh = paged.new_reader();
        assert_eq!(fresh.run_from(0).len(), 16, "segment 0 is intact");
        assert!(fresh.run_from(20).is_empty());
        assert!(matches!(
            paged.poisoned(),
            Some(TraceError::Corrupt { path, .. }) if path.contains("seg-000001")
        ));
    }

    #[test]
    fn truncated_segment_and_manifest_are_typed_errors() {
        let records = sample_records(20);
        let paged = build_paged(&records, 16);
        let seg0 = segment_file(paged.dir(), 0);
        let bytes = std::fs::read(&seg0).unwrap();
        std::fs::write(&seg0, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(paged.verify(), Err(TraceError::Corrupt { .. })));
        // A truncated manifest refuses to open.
        let manifest = paged.dir().join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, &bytes[..bytes.len() - 3]).unwrap();
        let dir = paged.dir().to_path_buf();
        assert!(matches!(
            PagedTrace::open(&dir),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn future_format_versions_are_schema_mismatches() {
        let records = sample_records(4);
        let paged = build_paged(&records, 16);
        let path = segment_file(paged.dir(), 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the version field (right after the magic), refresh checksum.
        bytes[8] = 99;
        let body_len = bytes.len() - 8;
        let sum = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            paged.verify(),
            Err(TraceError::SchemaMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_fails_the_checksum() {
        // One segment and the manifest, a few hundred bytes each.  No flip
        // is re-signed, so each must fail the checksum before any field is
        // read: a flip changes one word (or tail byte) of the body, or the
        // stored sum itself.
        let paged = build_paged(&sample_records(5), 16);
        assert_eq!(paged.segment_count(), 1);
        let segment = segment_file(paged.dir(), 0);
        let manifest = paged.dir().join(MANIFEST_NAME);
        for path in [&segment, &manifest] {
            let bytes = std::fs::read(path).unwrap();
            assert!((100..1000).contains(&bytes.len()), "{} bytes", bytes.len());
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(path, &flipped).unwrap();
                let result = if path == &segment {
                    paged.verify()
                } else {
                    PagedTrace::open(paged.dir()).map(drop)
                };
                match result {
                    Err(TraceError::Corrupt { reason, .. }) => {
                        assert_eq!(reason, "checksum mismatch", "bit {bit} of {path:?}")
                    }
                    other => panic!("bit {bit} of {path:?}: expected Corrupt, got {other:?}"),
                }
            }
            std::fs::write(path, &bytes).unwrap();
        }
        paged.verify().unwrap();
        PagedTrace::open(paged.dir()).unwrap();
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let paged = build_paged(&sample_records(10), 4);
        let dir = paged.dir().to_path_buf();
        assert!(dir.exists());
        drop(paged);
        assert!(!dir.exists());
    }

    #[test]
    fn empty_trace_round_trips() {
        let builder = TraceBuilder::for_spec(&TraceBackendSpec::paged()).unwrap();
        let data = builder.finish().unwrap();
        assert_eq!(data.len(), 0);
        assert!(data.is_empty());
        assert!(data.new_reader().run_from(0).is_empty());
    }

    #[test]
    fn backend_spec_parses_and_describes() {
        assert_eq!(
            TraceBackendSpec::parse("memory").unwrap(),
            TraceBackendSpec::Memory
        );
        assert_eq!(
            TraceBackendSpec::parse("paged").unwrap(),
            TraceBackendSpec::paged()
        );
        assert_eq!(
            TraceBackendSpec::parse("paged:/tmp/spill").unwrap(),
            TraceBackendSpec::Paged {
                dir: Some(PathBuf::from("/tmp/spill")),
                segment_records: DEFAULT_SEGMENT_RECORDS,
            }
        );
        assert!(TraceBackendSpec::parse("paged:").is_err());
        assert!(TraceBackendSpec::parse("disk").is_err());
        for text in ["memory", "paged", "paged:/tmp/spill"] {
            assert_eq!(
                TraceBackendSpec::parse(text).unwrap().describe(),
                text,
                "describe round-trips"
            );
        }
        assert_eq!(TraceBackendSpec::default(), TraceBackendSpec::Memory);
    }

    #[test]
    fn atomic_writes_are_unique_per_writer_and_leave_no_temps() {
        let dir = std::env::temp_dir().join(format!("moard-atomic-test-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("doc.bin");
        // Concurrent writers of the same destination never collide on a
        // temp path: every write installs one complete document.
        std::thread::scope(|scope| {
            for i in 0..8u8 {
                let target = &target;
                scope.spawn(move || {
                    atomic_write(target, &[i; 512]).unwrap();
                });
            }
        });
        let bytes = std::fs::read(&target).unwrap();
        assert_eq!(bytes.len(), 512);
        assert!(bytes.iter().all(|&b| b == bytes[0]), "no torn mix");
        let temps = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(temps, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_data_point_lookup_and_backend_names() {
        let records = sample_records(12);
        let memory = TraceData::Memory(Trace::from_records(records.iter().cloned()));
        let paged = TraceData::Paged(build_paged(&records, 4));
        assert_eq!(memory.backend_name(), "memory");
        assert_eq!(paged.backend_name(), "paged");
        for data in [&memory, &paged] {
            assert_eq!(data.len(), 12);
            assert_eq!(data.record(5).unwrap(), records[5]);
            assert!(data.record(12).is_none());
        }
        assert_eq!(memory.stats(), paged.stats());
        assert_eq!(
            memory.touching_ids(ObjectId(0)),
            paged.touching_ids(ObjectId(0))
        );
    }
}
