//! The tracing interpreter ("application trace generator" + "deterministic
//! fault injector" of the MOARD framework).
//!
//! One [`Vm`] instance owns a fresh copy of a module's memory image.  It can:
//!
//! * execute the module natively (the *golden run*),
//! * execute while recording a [`Trace`] — one record per dynamic operation,
//!   annotated with data semantics (which data-object element each consumed
//!   value corresponds to, and whether a stored value depends on the element
//!   it overwrites), and
//! * execute with a single deterministic fault ([`FaultSpec`]) applied at an
//!   exact dynamic instruction, which is how the model resolves
//!   overshadowing, propagation, and algorithm-level masking questions.
//!
//! # One loop, two sinks
//!
//! Every run kind goes through one interpreter loop, generic over where its
//! trace records go.  Traced runs hand it the [`TraceBuilder`]; golden and
//! fault-injected runs hand it a no-op sink whose `TRACED` flag is `false`,
//! so the compiler drops every trace-only block from their copy of the
//! loop.  The trace-only work is:
//!
//! * dependence sets ([`TaintSet`]) and element provenance of registers,
//!   including the per-frame vectors that hold them;
//! * the dependence set of every stored memory word (`mem_taint`);
//! * the data-object lookup of load and store addresses;
//! * the value a store overwrites, and whether the stored value depends
//!   on it;
//! * the parameter registers of a called function;
//! * building the [`TraceRecord`] itself.
//!
//! Both copies of the loop compute the same run only if nothing that
//! changes memory, registers, control flow, the step count or the outcome
//! sits inside a trace-only block.  Such a block may read machine state but
//! never write it.  The easy one to get wrong is the memory store in
//! `Store`: the value it overwrites is read in a trace-only block *before*
//! the store, and the store itself stays outside.  So do every register
//! write and every early return.  Instructions and terminators are borrowed
//! from the module, never cloned per step.  `tests/golden/dfi_outcomes.json` pins the untraced loop across
//! all four fault targets and every way a run can end.

use crate::fault::{FaultSpec, FaultTarget};
use crate::memory::Memory;
use crate::objects::{DataObjectRegistry, ObjectId};
use crate::outcome::{ExecOutcome, ExecStatus};
use crate::paged::{TraceBackendSpec, TraceBuilder, TraceData, TraceError};
use crate::taint::TaintSet;
use crate::trace::{Trace, TraceOp, TraceRecord, TracedVal, ValueSource, TERMINATOR_INST};
use moard_ir::{
    eval_binop, eval_cast, eval_cmp, eval_intrinsic, BlockId, FuncId, GlobalInit, Inst, Module,
    Operand, RegId, Terminator, Type, Value,
};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Maximum number of dynamic instructions before the run is classified as
    /// a timeout.  Protects against runaway loops caused by corrupted loop
    /// bounds or indices.
    pub max_steps: u64,
    /// Memory capacity in bytes available to globals.
    pub memory_capacity: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 20_000_000,
            memory_capacity: 64 << 20,
        }
    }
}

/// Errors occurring while *loading* a module (before execution) or while
/// persisting its trace.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A global did not fit into the configured memory capacity.
    OutOfMemory(String),
    /// The module has no entry function.
    NoEntry(String),
    /// The paged trace backend failed to persist the trace.
    Trace(TraceError),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::OutOfMemory(g) => write!(f, "global {g} does not fit in VM memory"),
            VmError::NoEntry(e) => write!(f, "entry function `{e}` not found"),
            VmError::Trace(e) => write!(f, "trace backend failed: {e}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<TraceError> for VmError {
    fn from(e: TraceError) -> VmError {
        VmError::Trace(e)
    }
}

/// Where the interpreter loop sends its trace records.
trait Sink {
    /// Whether this sink records a trace.  Every trace-only block of the
    /// loop is guarded by this constant, so `false` compiles them all away.
    const TRACED: bool;

    /// Append one record; only called when [`Sink::TRACED`] holds.
    fn push(&mut self, record: TraceRecord);
}

impl Sink for TraceBuilder {
    const TRACED: bool = true;

    fn push(&mut self, record: TraceRecord) {
        TraceBuilder::push(self, record);
    }
}

/// The sink of golden and fault-injected runs: records nothing.
struct NoTrace;

impl Sink for NoTrace {
    const TRACED: bool = false;

    fn push(&mut self, _: TraceRecord) {}
}

/// One function activation.  `prov` and `taint` are trace-only and stay
/// empty in untraced runs.
struct Frame {
    func: FuncId,
    frame_id: u64,
    block: BlockId,
    inst: usize,
    regs: Vec<Value>,
    prov: Vec<Option<(ObjectId, u64)>>,
    taint: Vec<TaintSet>,
    /// Register in the *caller* frame that receives this frame's return value.
    ret_dst: Option<RegId>,
}

/// The trace-only metadata of a register value: the data-object element it
/// was loaded from, and the elements it depends on.
type Meta = (Option<(ObjectId, u64)>, TaintSet);

impl Frame {
    /// Write `value` to `dst`, and its metadata when the run is traced
    /// (`meta` is `None` in untraced runs).
    fn set(&mut self, dst: RegId, value: Value, meta: Option<Meta>) {
        let r = dst.0 as usize;
        self.regs[r] = value;
        if let Some((prov, taint)) = meta {
            self.prov[r] = prov;
            self.taint[r] = taint;
        }
    }

    // The readers below are trace-only: untraced frames hold no metadata.

    /// The element `op`'s value was loaded from, if any.
    fn element(&self, op: &OpVal) -> Option<(ObjectId, u64)> {
        match op.source {
            ValueSource::Reg(r) => self.prov[r.0 as usize],
            _ => None,
        }
    }

    /// The elements `op`'s value depends on (constants and global bases
    /// depend on none).
    fn taint(&self, op: &OpVal) -> Option<&TaintSet> {
        match op.source {
            ValueSource::Reg(r) => Some(&self.taint[r.0 as usize]),
            _ => None,
        }
    }

    /// The metadata of a copy of `op`.
    fn meta(&self, op: &OpVal) -> Meta {
        (
            self.element(op),
            self.taint(op).cloned().unwrap_or_default(),
        )
    }

    /// The dependences of a value computed from `ops`.
    fn taint_union<'a>(&self, ops: impl IntoIterator<Item = &'a OpVal>) -> TaintSet {
        let mut taint = TaintSet::empty();
        for t in ops.into_iter().filter_map(|op| self.taint(op)) {
            taint.union_with(t);
        }
        taint
    }

    fn traced(&self, op: &OpVal) -> TracedVal {
        TracedVal {
            value: op.value,
            source: op.source,
            element: self.element(op),
        }
    }
}

/// An evaluated operand: its value and where it came from.
#[derive(Clone, Copy)]
struct OpVal {
    value: Value,
    source: ValueSource,
}

/// Apply an operand-targeted fault if `hit` (the fault, when it strikes the
/// current dynamic instruction) targets `slot`.  Persists the corruption in
/// the source register when the operand came from one.
fn inject_operand(hit: Option<&FaultSpec>, slot: usize, op: &mut OpVal, frame: &mut Frame) {
    if let Some(f) = hit {
        if f.target == FaultTarget::Operand(slot) {
            op.value = op.value.flip_mask(f.mask);
            if let ValueSource::Reg(r) = op.source {
                frame.regs[r.0 as usize] = op.value;
            }
        }
    }
}

fn inject_result(hit: Option<&FaultSpec>, result: Value) -> Value {
    match hit {
        Some(f) if f.target == FaultTarget::Result => result.flip_mask(f.mask),
        _ => result,
    }
}

/// A loaded module image ready to execute.
pub struct Vm<'m> {
    module: &'m Module,
    memory: Memory,
    objects: DataObjectRegistry,
    global_bases: Vec<u64>,
    config: VmConfig,
}

impl<'m> Vm<'m> {
    /// Load `module`: allocate and initialize every global, build the
    /// data-object registry.
    pub fn new(module: &'m Module, config: VmConfig) -> Result<Self, VmError> {
        if module.function_id(&module.entry).is_none() {
            return Err(VmError::NoEntry(module.entry.clone()));
        }
        let mut memory = Memory::new(config.memory_capacity);
        let mut objects = DataObjectRegistry::new();
        let mut global_bases = Vec::with_capacity(module.globals.len());
        for (gi, g) in module.globals.iter().enumerate() {
            let base = memory
                .alloc(g.byte_size(), g.elem_ty.alignment())
                .map_err(|_| VmError::OutOfMemory(g.name.clone()))?;
            global_bases.push(base);
            objects.register(
                g.name.clone(),
                moard_ir::GlobalId(gi as u32),
                base,
                g.elem_ty,
                g.count,
            );
            match &g.init {
                GlobalInit::Zero => {
                    // Memory is zero-initialized by the allocator.
                }
                GlobalInit::Values(vals) => {
                    for (i, v) in vals.iter().enumerate() {
                        let addr = base + i as u64 * g.elem_ty.byte_size();
                        memory
                            .store(g.elem_ty, addr, *v)
                            .map_err(|_| VmError::OutOfMemory(g.name.clone()))?;
                    }
                }
            }
        }
        Ok(Vm {
            module,
            memory,
            objects,
            global_bases,
            config,
        })
    }

    /// Load a module with the default configuration.
    pub fn with_defaults(module: &'m Module) -> Result<Self, VmError> {
        Vm::new(module, VmConfig::default())
    }

    /// The data-object registry for this image (stable across runs of the
    /// same module/config because allocation is deterministic).
    pub fn objects(&self) -> &DataObjectRegistry {
        &self.objects
    }

    /// Execute without tracing or faults (the golden run).
    pub fn execute(mut self) -> ExecOutcome {
        self.run(None, &mut NoTrace)
    }

    /// Execute while recording the full dynamic trace in memory.
    pub fn execute_traced(mut self) -> (ExecOutcome, Trace) {
        let mut builder = TraceBuilder::Memory(Trace::default());
        let outcome = self.run(None, &mut builder);
        match builder {
            TraceBuilder::Memory(trace) => (outcome, trace),
            TraceBuilder::Paged(_) => unreachable!("memory builder stays memory"),
        }
    }

    /// Execute while recording the full dynamic trace into the backend
    /// selected by `spec` — the memory backend yields the same trace as
    /// [`Vm::execute_traced`]; the paged backend spills segments to disk as
    /// the run progresses.
    pub fn execute_traced_with(
        mut self,
        spec: &TraceBackendSpec,
    ) -> Result<(ExecOutcome, TraceData), VmError> {
        let mut builder = TraceBuilder::for_spec(spec)?;
        let outcome = self.run(None, &mut builder);
        Ok((outcome, builder.finish()?))
    }

    /// Execute with a deterministic fault applied.
    pub fn execute_with_fault(mut self, fault: &FaultSpec) -> ExecOutcome {
        self.run(Some(fault), &mut NoTrace)
    }

    fn new_frame<S: Sink>(&self, func: FuncId, frame_id: u64, ret_dst: Option<RegId>) -> Frame {
        let f = self.module.function(func);
        let n = if S::TRACED { f.num_regs() } else { 0 };
        Frame {
            func,
            frame_id,
            block: BlockId(0),
            inst: 0,
            regs: f.reg_types.iter().map(|&t| Value::zero(t)).collect(),
            prov: vec![None; n],
            taint: vec![TaintSet::empty(); n],
            ret_dst,
        }
    }

    fn snapshot_globals(&self) -> BTreeMap<String, Vec<Value>> {
        let mut out = BTreeMap::new();
        for obj in self.objects.iter() {
            let mut vals = Vec::with_capacity(obj.count as usize);
            for i in 0..obj.count {
                let addr = obj.elem_addr(i);
                vals.push(
                    self.memory
                        .load(obj.elem_ty, addr)
                        .unwrap_or(Value::zero(obj.elem_ty)),
                );
            }
            out.insert(obj.name.clone(), vals);
        }
        out
    }

    fn finish(&self, status: ExecStatus, ret: Option<Value>, steps: u64) -> ExecOutcome {
        ExecOutcome {
            status,
            return_value: ret,
            globals: self.snapshot_globals(),
            steps,
        }
    }

    fn eval_operand(&self, frame: &Frame, op: &Operand) -> OpVal {
        let (value, source) = match op {
            Operand::Const(v) => (*v, ValueSource::Const),
            Operand::Reg(r) => (frame.regs[r.0 as usize], ValueSource::Reg(*r)),
            Operand::Global(g) => (
                Value::Ptr(self.global_bases[g.0 as usize]),
                ValueSource::GlobalBase,
            ),
        };
        OpVal { value, source }
    }

    /// Apply a memory-targeted fault (`target` is [`FaultTarget::LoadValue`]
    /// or [`FaultTarget::StoreDest`]) to the element at `address`, before
    /// the access consumes or overwrites it.
    fn inject_memory(
        &mut self,
        hit: Option<&FaultSpec>,
        target: FaultTarget,
        ty: Type,
        address: u64,
    ) -> Result<(), ExecStatus> {
        match hit {
            Some(f) if f.target == target => {
                self.memory.flip_mask(ty, address, f.mask).map_err(|_| {
                    ExecStatus::MemFault(format!("fault injection at unmapped 0x{address:x}"))
                })
            }
            _ => Ok(()),
        }
    }

    /// The interpreter loop behind every run kind.  A [`TraceBuilder`] sink
    /// receives one [`TraceRecord`] per dynamic operation (either backend;
    /// pushes are infallible on this hot path — see [`TraceBuilder::push`]);
    /// with [`NoTrace`] every trace-only block compiles away.
    fn run<S: Sink>(&mut self, fault: Option<&FaultSpec>, sink: &mut S) -> ExecOutcome {
        let module = self.module;
        let mut frames: Vec<Frame> = vec![self.new_frame::<S>(module.entry_id(), 0, None)];
        let mut next_frame_id: u64 = 1;
        let mut dyn_id: u64 = 0;
        let mut mem_taint: HashMap<u64, TaintSet> = HashMap::new();

        macro_rules! emit {
            ($frame:expr, $inst_idx:expr, $dst:expr, $op:expr) => {
                if S::TRACED {
                    sink.push(TraceRecord {
                        id: dyn_id,
                        frame: $frame.frame_id,
                        func: $frame.func,
                        block: $frame.block,
                        inst: $inst_idx,
                        dst: $dst,
                        op: $op,
                    });
                }
            };
        }

        loop {
            if dyn_id >= self.config.max_steps {
                return self.finish(ExecStatus::Timeout, None, dyn_id);
            }
            let frame_idx = frames.len() - 1;
            let frame = &mut frames[frame_idx];
            let function = module.function(frame.func);
            let blk = function.block(frame.block);
            let inst_idx = frame.inst;
            // The fault, if it strikes this dynamic instruction.
            let hit = fault.filter(|f| f.dyn_id == dyn_id);

            if let Some(inst) = blk.insts.get(inst_idx) {
                frame.inst += 1;
                match inst {
                    Inst::Bin {
                        op,
                        ty,
                        lhs,
                        rhs,
                        dst,
                    } => {
                        let mut a = self.eval_operand(frame, lhs);
                        let mut b = self.eval_operand(frame, rhs);
                        inject_operand(hit, 0, &mut a, frame);
                        inject_operand(hit, 1, &mut b, frame);
                        let result = match eval_binop(*op, *ty, &a.value, &b.value) {
                            Ok(v) => inject_result(hit, v),
                            Err(e) => {
                                return self.finish(ExecStatus::Trap(e.to_string()), None, dyn_id);
                            }
                        };
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Bin {
                                op: *op,
                                ty: *ty,
                                lhs: frame.traced(&a),
                                rhs: frame.traced(&b),
                                result,
                            }
                        );
                        frame.set(
                            *dst,
                            result,
                            S::TRACED.then(|| (None, frame.taint_union([&a, &b]))),
                        );
                    }
                    Inst::Cmp {
                        pred,
                        lhs,
                        rhs,
                        dst,
                    } => {
                        let mut a = self.eval_operand(frame, lhs);
                        let mut b = self.eval_operand(frame, rhs);
                        inject_operand(hit, 0, &mut a, frame);
                        inject_operand(hit, 1, &mut b, frame);
                        let result =
                            eval_cmp(*pred, &a.value, &b.value).unwrap_or(Value::I1(false));
                        let result = inject_result(hit, result);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Cmp {
                                pred: *pred,
                                lhs: frame.traced(&a),
                                rhs: frame.traced(&b),
                                result,
                            }
                        );
                        frame.set(
                            *dst,
                            result,
                            S::TRACED.then(|| (None, frame.taint_union([&a, &b]))),
                        );
                    }
                    Inst::Cast { kind, to, src, dst } => {
                        let mut s = self.eval_operand(frame, src);
                        inject_operand(hit, 0, &mut s, frame);
                        let result = match eval_cast(*kind, *to, &s.value) {
                            Ok(v) => inject_result(hit, v),
                            Err(e) => {
                                return self.finish(ExecStatus::Trap(e.to_string()), None, dyn_id);
                            }
                        };
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Cast {
                                kind: *kind,
                                to: *to,
                                src: frame.traced(&s),
                                result,
                            }
                        );
                        frame.set(
                            *dst,
                            result,
                            S::TRACED.then(|| (None, frame.taint_union([&s]))),
                        );
                    }
                    Inst::Load { ty, addr, dst } => {
                        let mut a = self.eval_operand(frame, addr);
                        inject_operand(hit, 0, &mut a, frame);
                        let address = a.value.as_u64();
                        // A fault targeting the loaded value corrupts the
                        // memory element before the load consumes it.
                        if let Err(status) =
                            self.inject_memory(hit, FaultTarget::LoadValue, *ty, address)
                        {
                            return self.finish(status, None, dyn_id);
                        }
                        let value = match self.memory.load(*ty, address) {
                            Ok(v) => inject_result(hit, v),
                            Err(e) => {
                                return self.finish(
                                    ExecStatus::MemFault(e.to_string()),
                                    None,
                                    dyn_id,
                                );
                            }
                        };
                        let element = if S::TRACED {
                            self.objects.locate(address)
                        } else {
                            None
                        };
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Load {
                                ty: *ty,
                                addr: address,
                                addr_src: a.source,
                                element,
                                result: value,
                            }
                        );
                        let meta = S::TRACED.then(|| {
                            let mut taint = mem_taint.get(&address).cloned().unwrap_or_default();
                            if let Some((o, e)) = element {
                                taint.insert(o, e);
                            }
                            (element, taint)
                        });
                        frame.set(*dst, value, meta);
                    }
                    Inst::Store { ty, value, addr } => {
                        let mut v = self.eval_operand(frame, value);
                        let mut a = self.eval_operand(frame, addr);
                        inject_operand(hit, 0, &mut v, frame);
                        inject_operand(hit, 1, &mut a, frame);
                        let address = a.value.as_u64();
                        // A fault targeting the store destination corrupts
                        // the element just before it is overwritten.
                        if let Err(status) =
                            self.inject_memory(hit, FaultTarget::StoreDest, *ty, address)
                        {
                            return self.finish(status, None, dyn_id);
                        }
                        // Trace-only, and read before the store: the element
                        // overwritten, its old value, and whether the stored
                        // value depends on it.
                        let op = S::TRACED.then(|| {
                            let element = self.objects.locate(address);
                            TraceOp::Store {
                                ty: *ty,
                                addr: address,
                                addr_src: a.source,
                                element,
                                value: frame.traced(&v),
                                overwritten: self
                                    .memory
                                    .load(*ty, address)
                                    .unwrap_or(Value::zero(*ty)),
                                value_depends_on_dest: element.is_some_and(|(o, e)| {
                                    frame.taint(&v).is_some_and(|t| t.may_depend_on(o, e))
                                }),
                            }
                        });
                        if let Err(e) = self.memory.store(*ty, address, v.value) {
                            return self.finish(ExecStatus::MemFault(e.to_string()), None, dyn_id);
                        }
                        if let Some(op) = op {
                            emit!(frame, inst_idx as u32, None, op);
                            match frame.taint(&v) {
                                Some(t) if !t.is_empty() => mem_taint.insert(address, t.clone()),
                                _ => mem_taint.remove(&address),
                            };
                        }
                    }
                    Inst::Gep {
                        base,
                        index,
                        elem_size,
                        dst,
                    } => {
                        let mut b = self.eval_operand(frame, base);
                        let mut i = self.eval_operand(frame, index);
                        inject_operand(hit, 0, &mut b, frame);
                        inject_operand(hit, 1, &mut i, frame);
                        let address = b
                            .value
                            .as_u64()
                            .wrapping_add((i.value.as_i64() as u64).wrapping_mul(*elem_size));
                        let result = inject_result(hit, Value::Ptr(address));
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Gep {
                                base: frame.traced(&b),
                                index: frame.traced(&i),
                                elem_size: *elem_size,
                                result,
                            }
                        );
                        frame.set(
                            *dst,
                            result,
                            S::TRACED.then(|| (None, frame.taint_union([&b, &i]))),
                        );
                    }
                    Inst::Select {
                        cond,
                        then_v,
                        else_v,
                        dst,
                    } => {
                        let mut c = self.eval_operand(frame, cond);
                        let mut t = self.eval_operand(frame, then_v);
                        let mut e = self.eval_operand(frame, else_v);
                        inject_operand(hit, 0, &mut c, frame);
                        inject_operand(hit, 1, &mut t, frame);
                        inject_operand(hit, 2, &mut e, frame);
                        let chosen = if c.value.is_truthy() { &t } else { &e };
                        let result = inject_result(hit, chosen.value);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Select {
                                cond: frame.traced(&c),
                                then_v: frame.traced(&t),
                                else_v: frame.traced(&e),
                                result,
                            }
                        );
                        // The unchosen arm's dependences do not flow into the
                        // result value, but the condition's do.
                        let meta = S::TRACED
                            .then(|| (frame.element(chosen), frame.taint_union([&c, chosen])));
                        frame.set(*dst, result, meta);
                    }
                    Inst::CallIntrinsic { intr, args, dst } => {
                        let mut vals: Vec<OpVal> =
                            args.iter().map(|a| self.eval_operand(frame, a)).collect();
                        for (i, v) in vals.iter_mut().enumerate() {
                            inject_operand(hit, i, v, frame);
                        }
                        let raw: Vec<Value> = vals.iter().map(|v| v.value).collect();
                        let result = match eval_intrinsic(*intr, &raw) {
                            Ok(v) => inject_result(hit, v),
                            Err(e) => {
                                return self.finish(ExecStatus::Trap(e.to_string()), None, dyn_id);
                            }
                        };
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Intrinsic {
                                intr: *intr,
                                args: vals.iter().map(|v| frame.traced(v)).collect(),
                                result,
                            }
                        );
                        frame.set(
                            *dst,
                            result,
                            S::TRACED.then(|| (None, frame.taint_union(&vals))),
                        );
                    }
                    Inst::Mov { src, dst } => {
                        let mut s = self.eval_operand(frame, src);
                        inject_operand(hit, 0, &mut s, frame);
                        let result = inject_result(hit, s.value);
                        emit!(
                            frame,
                            inst_idx as u32,
                            Some(*dst),
                            TraceOp::Mov {
                                src: frame.traced(&s),
                                result,
                            }
                        );
                        frame.set(*dst, result, S::TRACED.then(|| frame.meta(&s)));
                    }
                    Inst::Call {
                        func: callee,
                        args,
                        dst,
                    } => {
                        let mut vals: Vec<OpVal> =
                            args.iter().map(|a| self.eval_operand(frame, a)).collect();
                        for (i, v) in vals.iter_mut().enumerate() {
                            inject_operand(hit, i, v, frame);
                        }
                        let params = &module.function(*callee).params;
                        let callee_frame_id = next_frame_id;
                        next_frame_id += 1;
                        emit!(
                            frame,
                            inst_idx as u32,
                            *dst,
                            TraceOp::Call {
                                callee: *callee,
                                args: vals.iter().map(|v| frame.traced(v)).collect(),
                                callee_frame: callee_frame_id,
                                param_regs: params.iter().map(|(r, _)| *r).collect(),
                            }
                        );
                        let mut new_frame = self.new_frame::<S>(*callee, callee_frame_id, *dst);
                        for (v, (r, _)) in vals.iter().zip(params) {
                            new_frame.set(*r, v.value, S::TRACED.then(|| frame.meta(v)));
                        }
                        frames.push(new_frame);
                    }
                }
                dyn_id += 1;
            } else {
                match &blk.term {
                    Terminator::Br { target } => {
                        // Unconditional branches carry no data and are not
                        // counted as operations.
                        frame.block = *target;
                        frame.inst = 0;
                    }
                    Terminator::CondBr {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        let mut c = self.eval_operand(frame, cond);
                        inject_operand(hit, 0, &mut c, frame);
                        let taken = c.value.is_truthy();
                        emit!(
                            frame,
                            TERMINATOR_INST,
                            None,
                            TraceOp::CondBr {
                                cond: frame.traced(&c),
                                taken,
                            }
                        );
                        frame.block = if taken { *then_b } else { *else_b };
                        frame.inst = 0;
                        dyn_id += 1;
                    }
                    Terminator::Switch {
                        value,
                        cases,
                        default,
                    } => {
                        let mut v = self.eval_operand(frame, value);
                        inject_operand(hit, 0, &mut v, frame);
                        let key = v.value.as_i64();
                        let taken_index = cases
                            .iter()
                            .position(|(case, _)| *case == key)
                            .unwrap_or(cases.len());
                        emit!(
                            frame,
                            TERMINATOR_INST,
                            None,
                            TraceOp::Switch {
                                value: frame.traced(&v),
                                taken_index,
                            }
                        );
                        frame.block = cases.get(taken_index).map_or(*default, |(_, b)| *b);
                        frame.inst = 0;
                        dyn_id += 1;
                    }
                    Terminator::Ret { value } => {
                        let mut v = value.as_ref().map(|op| self.eval_operand(frame, op));
                        if let Some(val) = v.as_mut() {
                            inject_operand(hit, 0, val, frame);
                        }
                        let ret_val = match (&v, function.ret_ty) {
                            (Some(val), _) => Some(val.value),
                            (None, Some(t)) => Some(Value::zero(t)),
                            (None, None) => None,
                        };
                        let ret_dst = frame.ret_dst;
                        let meta = S::TRACED.then(|| v.map(|x| frame.meta(&x)).unwrap_or_default());
                        emit!(
                            frames[frame_idx],
                            TERMINATOR_INST,
                            ret_dst,
                            TraceOp::Ret {
                                value: v.as_ref().map(|x| frames[frame_idx].traced(x)),
                                caller_frame: frame_idx.checked_sub(1).map(|i| frames[i].frame_id),
                                dst_in_caller: ret_dst,
                            }
                        );
                        dyn_id += 1;
                        frames.pop();
                        match frames.last_mut() {
                            Some(caller) => {
                                if let (Some(dst), Some(val)) = (ret_dst, ret_val) {
                                    caller.set(dst, val, meta);
                                }
                            }
                            None => {
                                return self.finish(ExecStatus::Completed, ret_val, dyn_id);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Convenience: run a module's golden execution with default config.
pub fn run_golden(module: &Module) -> Result<ExecOutcome, VmError> {
    Ok(Vm::with_defaults(module)?.execute())
}

/// Convenience: run a module and record the trace with default config.
pub fn run_traced(module: &Module) -> Result<(ExecOutcome, Trace), VmError> {
    Ok(Vm::with_defaults(module)?.execute_traced())
}

/// Convenience: run a module and record the trace into the given backend
/// with default config.
pub fn run_traced_with(
    module: &Module,
    spec: &TraceBackendSpec,
) -> Result<(ExecOutcome, TraceData), VmError> {
    Vm::with_defaults(module)?.execute_traced_with(spec)
}

/// Convenience: run a module with a fault and default config.
pub fn run_with_fault(module: &Module, fault: &FaultSpec) -> Result<ExecOutcome, VmError> {
    Ok(Vm::with_defaults(module)?.execute_with_fault(fault))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::prelude::*;
    use moard_ir::verify::assert_verified;

    /// data[i] = i for i in 0..8, then sum them and return the sum.
    fn sum_module() -> Module {
        let mut m = Module::new("sum");
        let data = m.add_global(Global::zeroed("data", Type::F64, 8));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(8), |f, i| {
            let fi = f.sitofp(Operand::Reg(i));
            f.store_elem(Type::F64, data, Operand::Reg(i), Operand::Reg(fi));
        });
        let acc = f.alloc_reg(Type::F64);
        f.mov(acc, Operand::const_f64(0.0));
        f.for_loop(Operand::const_i64(0), Operand::const_i64(8), |f, i| {
            let v = f.load_elem(Type::F64, data, Operand::Reg(i));
            let s = f.fadd(Operand::Reg(acc), Operand::Reg(v));
            f.mov(acc, Operand::Reg(s));
        });
        f.ret(Some(Operand::Reg(acc)));
        m.add_function(f.finish());
        assert_verified(&m);
        m
    }

    #[test]
    fn golden_run_computes_expected_sum() {
        let m = sum_module();
        let out = run_golden(&m).unwrap();
        assert!(out.status.is_completed());
        assert_eq!(out.return_f64(), 28.0);
        assert_eq!(
            out.global_f64("data"),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn traced_run_matches_golden_and_has_records() {
        let m = sum_module();
        let (out, trace) = run_traced(&m).unwrap();
        assert_eq!(out.return_f64(), 28.0);
        assert!(!trace.is_empty());
        // Every record's id matches its index.
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id as usize, i);
        }
        // There are exactly 8 stores and 8 loads touching `data`.
        let data_obj = ObjectId(0);
        let stores = trace
            .iter()
            .filter(
                |r| matches!(&r.op, TraceOp::Store { element: Some((o, _)), .. } if *o == data_obj),
            )
            .count();
        let loads = trace
            .iter()
            .filter(
                |r| matches!(&r.op, TraceOp::Load { element: Some((o, _)), .. } if *o == data_obj),
            )
            .count();
        assert_eq!(stores, 8);
        assert_eq!(loads, 8);
    }

    #[test]
    fn store_dependence_flag_distinguishes_overwrite_from_accumulate() {
        // a[0] = 1.0            (pure overwrite, does not depend on a[0])
        // a[0] = a[0] + 1.0     (accumulate, depends on a[0])
        let mut m = Module::new("dep");
        let a = m.add_global(Global::zeroed("a", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        f.store_elem(Type::F64, a, Operand::const_i64(0), Operand::const_f64(1.0));
        let v = f.load_elem(Type::F64, a, Operand::const_i64(0));
        let s = f.fadd(Operand::Reg(v), Operand::const_f64(1.0));
        f.store_elem(Type::F64, a, Operand::const_i64(0), Operand::Reg(s));
        f.ret(None);
        m.add_function(f.finish());
        assert_verified(&m);

        let (_, trace) = run_traced(&m).unwrap();
        let stores: Vec<&TraceRecord> = trace
            .iter()
            .filter(|r| matches!(r.op, TraceOp::Store { .. }))
            .collect();
        assert_eq!(stores.len(), 2);
        match (&stores[0].op, &stores[1].op) {
            (
                TraceOp::Store {
                    value_depends_on_dest: d0,
                    ..
                },
                TraceOp::Store {
                    value_depends_on_dest: d1,
                    ..
                },
            ) => {
                assert!(!d0, "plain overwrite must not depend on destination");
                assert!(d1, "accumulation must depend on destination");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn fault_on_overwritten_element_is_masked() {
        // Flipping any bit of data[i] right before the first-phase store
        // (which overwrites it) must leave the outcome identical.
        let m = sum_module();
        let (golden, trace) = run_traced(&m).unwrap();
        // Find the first store to `data`.
        let store = trace
            .iter()
            .find(|r| matches!(r.op, TraceOp::Store { .. }))
            .unwrap();
        let fault = FaultSpec::single_bit(store.id, FaultTarget::StoreDest, 63);
        let out = run_with_fault(&m, &fault).unwrap();
        assert!(out.bits_identical(&golden));
    }

    #[test]
    fn fault_on_loaded_element_changes_sum() {
        let m = sum_module();
        let (golden, trace) = run_traced(&m).unwrap();
        // Find a load of data[3] (value 3.0) and flip its sign bit in memory.
        let load = trace
            .iter()
            .find(|r| matches!(&r.op, TraceOp::Load { result, .. } if result.as_f64() == 3.0))
            .unwrap();
        let fault = FaultSpec::single_bit(load.id, FaultTarget::LoadValue, 63);
        let out = run_with_fault(&m, &fault).unwrap();
        assert!(out.status.is_completed());
        assert_eq!(out.return_f64(), 22.0); // 28 - 2*3
        assert!(!out.bits_identical(&golden));
    }

    #[test]
    fn corrupted_index_can_cause_memory_fault() {
        // Load data[i] where i is corrupted to a huge value -> out of bounds.
        let mut m = Module::new("idxfault");
        let data = m.add_global(Global::zeroed("data", Type::F64, 4));
        let idx = m.add_global(Global::from_i64("idx", &[1]));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let i = f.load_elem(Type::I64, idx, Operand::const_i64(0));
        let v = f.load_elem(Type::F64, data, Operand::Reg(i));
        f.ret(Some(Operand::Reg(v)));
        m.add_function(f.finish());
        assert_verified(&m);

        let (_, trace) = run_traced(&m).unwrap();
        let idx_load = trace
            .iter()
            .find(|r| matches!(&r.op, TraceOp::Load { ty: Type::I64, .. }))
            .unwrap();
        // Flip a high bit of the index.
        let fault = FaultSpec::single_bit(idx_load.id, FaultTarget::LoadValue, 40);
        let out = run_with_fault(&m, &fault).unwrap();
        assert!(matches!(out.status, ExecStatus::MemFault(_)));
    }

    #[test]
    fn timeout_on_runaway_loop() {
        let mut m = Module::new("spin");
        let g = m.add_global(Global::zeroed("g", Type::I64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        // while (g[0] == 0) {}  -- never terminates since nothing writes g.
        f.loop_while(
            |f| {
                let v = f.load_elem(Type::I64, g, Operand::const_i64(0));
                Operand::Reg(f.cmp(CmpPred::Eq, Operand::Reg(v), Operand::const_i64(0)))
            },
            |_f| {},
        );
        f.ret(None);
        m.add_function(f.finish());
        assert_verified(&m);
        let vm = Vm::new(
            &m,
            VmConfig {
                max_steps: 10_000,
                ..VmConfig::default()
            },
        )
        .unwrap();
        let out = vm.execute();
        assert_eq!(out.status, ExecStatus::Timeout);
    }

    #[test]
    fn function_calls_pass_arguments_and_return_values() {
        let mut m = Module::new("call");
        let out_g = m.add_global(Global::zeroed("out", Type::F64, 1));
        // double square(double x) { return x * x; }
        let mut sq = FunctionBuilder::new("square", &[Type::F64], Some(Type::F64));
        let x = sq.param(0);
        let xx = sq.fmul(Operand::Reg(x), Operand::Reg(x));
        sq.ret(Some(Operand::Reg(xx)));
        let sq_id = m.add_function(sq.finish());

        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let r = f
            .call(sq_id, &[Operand::const_f64(3.0)], Some(Type::F64))
            .unwrap();
        f.store_elem(Type::F64, out_g, Operand::const_i64(0), Operand::Reg(r));
        f.ret(Some(Operand::Reg(r)));
        m.add_function(f.finish());
        assert_verified(&m);

        let out = run_golden(&m).unwrap();
        assert_eq!(out.return_f64(), 9.0);
        assert_eq!(out.global_f64("out"), vec![9.0]);

        // The trace contains call and ret records linked by frame ids.
        let (_, trace) = run_traced(&m).unwrap();
        let call = trace
            .iter()
            .find(|r| matches!(r.op, TraceOp::Call { .. }))
            .unwrap();
        let ret = trace
            .iter()
            .find(|r| {
                matches!(
                    &r.op,
                    TraceOp::Ret {
                        caller_frame: Some(_),
                        ..
                    }
                )
            })
            .unwrap();
        if let (TraceOp::Call { callee_frame, .. }, TraceOp::Ret { caller_frame, .. }) =
            (&call.op, &ret.op)
        {
            assert_eq!(ret.frame, *callee_frame);
            assert_eq!(*caller_frame, Some(call.frame));
        }
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("trap");
        m.add_global(Global::zeroed("pad", Type::I64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::I64));
        let d = f.sdiv(Operand::const_i64(1), Operand::const_i64(0));
        f.ret(Some(Operand::Reg(d)));
        m.add_function(f.finish());
        let out = run_golden(&m).unwrap();
        assert!(matches!(out.status, ExecStatus::Trap(_)));
    }

    #[test]
    fn operand_fault_persists_in_register() {
        // acc starts at 10; the corrupted consumption of acc in the fadd must
        // also persist for the final return of acc (register write-back).
        let mut m = Module::new("persist");
        let sink = m.add_global(Global::zeroed("sink", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let acc = f.alloc_reg(Type::F64);
        f.mov(acc, Operand::const_f64(10.0));
        let s = f.fadd(Operand::Reg(acc), Operand::const_f64(1.0));
        f.store_elem(Type::F64, sink, Operand::const_i64(0), Operand::Reg(s));
        f.ret(Some(Operand::Reg(acc)));
        m.add_function(f.finish());
        let (_, trace) = run_traced(&m).unwrap();
        let fadd = trace
            .iter()
            .find(|r| {
                matches!(
                    &r.op,
                    TraceOp::Bin {
                        op: BinOp::FAdd,
                        ..
                    }
                )
            })
            .unwrap();
        // Flip the sign of acc as consumed by the fadd.
        let fault = FaultSpec::single_bit(fadd.id, FaultTarget::Operand(0), 63);
        let out = run_with_fault(&m, &fault).unwrap();
        assert_eq!(out.global_f64("sink"), vec![-9.0]);
        assert_eq!(
            out.return_f64(),
            -10.0,
            "corruption persists in the register"
        );
    }

    #[test]
    fn switch_terminator_dispatches() {
        let mut m = Module::new("switch");
        let out_g = m.add_global(Global::zeroed("out", Type::I64, 1));
        let sel = m.add_global(Global::from_i64("sel", &[2]));
        let mut f = FunctionBuilder::new("main", &[], None);
        let v = f.load_elem(Type::I64, sel, Operand::const_i64(0));
        let b0 = f.new_block("case0");
        let b1 = f.new_block("case1");
        let bd = f.new_block("default");
        let join = f.new_block("join");
        f.terminate(Terminator::Switch {
            value: Operand::Reg(v),
            cases: vec![(0, b0), (2, b1)],
            default: bd,
        });
        f.switch_to(b0);
        f.store_elem(
            Type::I64,
            out_g,
            Operand::const_i64(0),
            Operand::const_i64(100),
        );
        f.terminate(Terminator::Br { target: join });
        f.switch_to(b1);
        f.store_elem(
            Type::I64,
            out_g,
            Operand::const_i64(0),
            Operand::const_i64(200),
        );
        f.terminate(Terminator::Br { target: join });
        f.switch_to(bd);
        f.store_elem(
            Type::I64,
            out_g,
            Operand::const_i64(0),
            Operand::const_i64(300),
        );
        f.terminate(Terminator::Br { target: join });
        f.switch_to(join);
        f.ret(None);
        m.add_function(f.finish());
        assert_verified(&m);
        let out = run_golden(&m).unwrap();
        assert_eq!(out.globals["out"][0].as_i64(), 200);
    }

    #[test]
    fn paged_backend_records_the_identical_trace() {
        use crate::trace::TraceStorage;
        let m = sum_module();
        let (out_mem, trace) = run_traced(&m).unwrap();
        // Small segments so the sum workload spans several of them.
        let spec = TraceBackendSpec::Paged {
            dir: None,
            segment_records: 16,
        };
        let (out_paged, data) = run_traced_with(&m, &spec).unwrap();
        assert!(out_mem.bits_identical(&out_paged));
        assert_eq!(data.backend_name(), "paged");
        assert_eq!(data.len(), trace.len());
        assert_eq!(data.stats(), trace.stats());
        let mut reader = data.new_reader();
        for rec in trace.iter() {
            assert_eq!(reader.fetch(rec.id).as_ref(), Some(rec));
        }
        assert_eq!(
            data.touching_ids(ObjectId(0)),
            trace.touching_ids(ObjectId(0))
        );
    }

    #[test]
    fn registry_is_stable_across_instances() {
        let m = sum_module();
        let vm1 = Vm::with_defaults(&m).unwrap();
        let vm2 = Vm::with_defaults(&m).unwrap();
        let o1: Vec<(String, u64)> = vm1
            .objects()
            .iter()
            .map(|o| (o.name.clone(), o.base))
            .collect();
        let o2: Vec<(String, u64)> = vm2
            .objects()
            .iter()
            .map(|o| (o.name.clone(), o.base))
            .collect();
        assert_eq!(o1, o2);
    }
}
