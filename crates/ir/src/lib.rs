//! # moard-ir
//!
//! An architecture-independent, LLVM-like intermediate representation (IR)
//! used throughout the MOARD reproduction.
//!
//! The original MOARD tool ("MOARD: Modeling Application Resilience to
//! Transient Faults on Data Objects", Guo & Li, IPDPS 2019) analyzes dynamic
//! LLVM IR traces produced by an instrumentation pass.  This crate provides
//! the IR that plays the role of LLVM IR in this reproduction: a small, typed,
//! register-based instruction set with explicit loads/stores, pointer
//! arithmetic (`Gep`), integer/floating-point arithmetic, logic, comparisons,
//! casts, calls and structured control flow.  Programs ("modules") built from
//! this IR are executed and traced by the companion `moard-vm` crate; the
//! dynamic trace is then consumed by the `moard-core` analysis.
//!
//! The design goal is fidelity to the *semantics the MOARD analysis reasons
//! about*, not to LLVM's full feature set: every operation class named in the
//! paper's operation-level error-masking analysis (store overwriting,
//! truncation, bit shifting, logical and comparison operations, floating-point
//! addition/subtraction overshadowing, ...) has a direct counterpart here.
//!
//! ## Quick tour
//!
//! ```
//! use moard_ir::prelude::*;
//!
//! // Build a module with one global array and a function that sums it.
//! let mut module = Module::new("sum");
//! let data = module.add_global(Global::zeroed("data", Type::F64, 8));
//!
//! let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
//! let acc = f.alloc_reg(Type::F64);
//! f.mov(acc, Operand::const_f64(0.0));
//! f.for_loop(Operand::const_i64(0), Operand::const_i64(8), |f, i| {
//!     let v = f.load_elem(Type::F64, data, Operand::Reg(i));
//!     let next = f.fadd(Operand::Reg(acc), Operand::Reg(v));
//!     f.mov(acc, Operand::Reg(next));
//! });
//! f.ret(Some(Operand::Reg(acc)));
//! module.add_function(f.finish());
//!
//! moard_ir::verify::verify_module(&module).expect("module is well-formed");
//! ```

pub mod builder;
pub mod inst;
pub mod module;
pub mod pretty;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use inst::{BinOp, CastKind, CmpPred, Inst, Intrinsic, Operand, Terminator};
pub use module::{Block, BlockId, FuncId, Function, Global, GlobalId, GlobalInit, Module, RegId};
pub use types::Type;
pub use value::{eval_binop, eval_cast, eval_cmp, eval_intrinsic, f64_arith, EvalError, Value};

/// Commonly used items, for glob import in builders and tests.
pub mod prelude {
    pub use crate::builder::FunctionBuilder;
    pub use crate::inst::{BinOp, CastKind, CmpPred, Inst, Intrinsic, Operand, Terminator};
    pub use crate::module::{
        Block, BlockId, FuncId, Function, Global, GlobalId, GlobalInit, Module, RegId,
    };
    pub use crate::types::Type;
    pub use crate::value::Value;
}
