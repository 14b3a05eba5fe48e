//! Enumeration of participation sites and valid fault-injection sites.
//!
//! A *participation site* is one (dynamic operation, participating element of
//! the target data object) pair — the unit over which Equation 1 accumulates.
//! A *valid fault-injection site* (paper §V-B) is a bit of an instruction
//! operand or output holding a value of the target data object; the
//! exhaustive-injection validation and the RFI comparison both draw from the
//! same site enumeration so that the model and the injection campaigns look
//! at identical fault populations.

use crate::error_pattern::{ErrorPattern, ErrorPatternSet};
use moard_ir::Value;
use moard_vm::{FaultSpec, FaultTarget, ObjectId, TraceOp, TraceRead, TraceRecord, TraceStorage};

/// Which value of the operation holds the target data object's element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteSlot {
    /// The `idx`-th consumed operand (see [`TraceRecord::operands`]).
    Operand(usize),
    /// The destination element a store is about to overwrite.
    StoreDest,
}

impl SiteSlot {
    /// The fault-injection target corresponding to this slot.
    pub fn fault_target(self) -> FaultTarget {
        match self {
            SiteSlot::Operand(i) => FaultTarget::Operand(i),
            SiteSlot::StoreDest => FaultTarget::StoreDest,
        }
    }
}

/// One participating element occurrence of the target data object.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipationSite {
    /// Dynamic instruction id of the operation.
    pub record_id: u64,
    /// Which value of the operation holds the element.
    pub slot: SiteSlot,
    /// The element (object id, element index).
    pub element: (ObjectId, u64),
    /// The clean value of the element at this site.
    pub value: Value,
}

impl ParticipationSite {
    /// Build the deterministic-fault spec injecting `pattern` at this site —
    /// the whole pattern is applied in one XOR by the VM.
    pub fn fault(&self, pattern: &ErrorPattern) -> FaultSpec {
        FaultSpec::masked(self.record_id, self.slot.fault_target(), pattern.mask())
    }

    /// Convenience wrapper of [`ParticipationSite::fault`] for the classic
    /// single-bit flip at `bit`.
    pub fn fault_bit(&self, bit: u32) -> FaultSpec {
        FaultSpec::single_bit(self.record_id, self.slot.fault_target(), bit)
    }

    /// Number of single-bit fault-injection sites this participation
    /// contributes (= the bit width of the element value).
    pub fn bit_width(&self) -> u32 {
        self.value.ty().bit_width()
    }

    /// Number of fault-injection sites this participation contributes under
    /// a pattern set (= the patterns enumerable for the element type).
    pub fn pattern_count(&self, patterns: &ErrorPatternSet) -> usize {
        patterns.count_for(self.value.ty())
    }
}

/// Enumerate the participation sites of `obj` in a trace, in execution order.
///
/// Following the paper's counting convention (illustrated on the LU `l2norm`
/// example), the sites are:
///
/// * every consumed operand whose value is a direct copy of an element of the
///   object (tracked via load provenance / register tracking), and
/// * the destination element of every store that writes into the object
///   (the "assignment operation" participations of the paper's examples).
///
/// Bare loads are not counted separately: the loaded value's consumption by
/// the next operation is the participation (this mirrors the paper counting
/// the *addition* and the *assignment* in `sum[m] = sum[m] + v*v`, not the
/// load itself).
///
/// Served from the trace's per-object record index: only the records known
/// to touch `obj` are visited, so the cost is proportional to the object's
/// participation count, not to the trace length.  On the paged backend the
/// reader streams the touched segments through its LRU — the enumeration
/// never needs the full trace resident.
pub fn enumerate_sites(trace: &dyn TraceStorage, obj: ObjectId) -> Vec<ParticipationSite> {
    strided_sites_through(trace, trace.new_reader().as_mut(), obj, 1)
}

/// The strided subset of [`enumerate_sites`]: every `stride`-th
/// participation site, in trace order (`stride` 0 is treated as 1).
///
/// This is **the** site population of a strided analysis — the aDVF
/// analyzer and the validation engine's RFI sampler both call it, so the
/// two legs of a model-vs-injection comparison can never drift onto
/// different subsets (which would turn model-error measurements into
/// sampling bias).
pub fn enumerate_strided_sites(
    trace: &dyn TraceStorage,
    obj: ObjectId,
    stride: usize,
) -> Vec<ParticipationSite> {
    strided_sites_through(trace, trace.new_reader().as_mut(), obj, stride)
}

/// [`enumerate_strided_sites`] through a caller's reader.  A caller that
/// goes on to read the same records through it (the analyzer's scheduling
/// pass) finds the segments enumeration decoded still in the reader's LRU
/// on the paged backend only while the object's sites span at most as many
/// segments as that LRU holds (4).  A longer span is decoded again: AMG/A's
/// sites span 11 default segments, and one analysis decodes them 33 times.
pub(crate) fn strided_sites_through(
    trace: &dyn TraceStorage,
    reader: &mut dyn TraceRead,
    obj: ObjectId,
    stride: usize,
) -> Vec<ParticipationSite> {
    let mut sites = Vec::new();
    for &id in trace.index().ids(obj) {
        if let Some(rec) = reader.run_from(id).first() {
            collect_sites_for_record(rec, obj, &mut sites);
        }
    }
    let stride = stride.max(1);
    if stride > 1 {
        let mut kept = 0;
        for i in (0..sites.len()).step_by(stride) {
            sites.swap(kept, i);
            kept += 1;
        }
        sites.truncate(kept);
    }
    sites
}

/// Does `obj` participate anywhere in the trace?  Walks only the indexed
/// records touching `obj` and short-circuits on the first site instead of
/// materializing the full enumeration.  (A record can touch an object
/// without contributing a site — a bare load whose value is never consumed —
/// so a non-empty index alone is not sufficient.)
pub fn has_sites(trace: &dyn TraceStorage, obj: ObjectId) -> bool {
    let mut scratch = Vec::new();
    let mut reader = trace.new_reader();
    trace.index().ids(obj).iter().any(|&id| {
        if let Some(rec) = reader.run_from(id).first() {
            collect_sites_for_record(rec, obj, &mut scratch);
        }
        !scratch.is_empty()
    })
}

/// Enumerate the participation sites of `obj` within a single record.
pub fn collect_sites_for_record(
    rec: &TraceRecord,
    obj: ObjectId,
    out: &mut Vec<ParticipationSite>,
) {
    for (i, operand) in rec.operands().iter().enumerate() {
        if let Some((o, e)) = operand.element {
            if o == obj {
                out.push(ParticipationSite {
                    record_id: rec.id,
                    slot: SiteSlot::Operand(i),
                    element: (o, e),
                    value: operand.value,
                });
            }
        }
    }
    if let TraceOp::Store {
        element: Some((o, e)),
        overwritten,
        ..
    } = &rec.op
    {
        if *o == obj {
            out.push(ParticipationSite {
                record_id: rec.id,
                slot: SiteSlot::StoreDest,
                element: (*o, *e),
                value: *overwritten,
            });
        }
    }
}

/// Normalize a site population to ascending record order (stable: within one
/// record, operand/store-dest order is preserved).
///
/// [`enumerate_sites`] and [`enumerate_strided_sites`] already yield this
/// order, but the lane-batch replay scheduler *depends* on it — batches walk
/// the trace monotonically — so every consumer normalizes through this one
/// helper instead of re-sorting (or silently assuming) at each call site.
/// Already-sorted input is a single O(n) scan.
pub fn sites_by_record(sites: &mut [ParticipationSite]) {
    if !sites.windows(2).all(|w| w[0].record_id <= w[1].record_id) {
        sites.sort_by_key(|s| s.record_id);
    }
}

/// Total number of valid fault-injection sites for an object under a
/// pattern set (the "trillions of sites" quantity of §V-B, at our scale):
/// every participation site contributes one injection site per pattern the
/// set enumerates for its element type, so the same population the aDVF
/// analyzer walks and the RFI sampler draws from is being counted.
pub fn count_fault_sites(
    trace: &dyn TraceStorage,
    obj: ObjectId,
    patterns: &ErrorPatternSet,
) -> u64 {
    enumerate_sites(trace, obj)
        .iter()
        .map(|s| s.pattern_count(patterns) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_ir::prelude::*;
    use moard_vm::run_traced;

    /// sum[0] = 0; for i in 0..4 { sum[0] = sum[0] + v[i]*v[i] }
    fn l2norm_like() -> (Module, GlobalId, GlobalId) {
        let mut m = Module::new("l2");
        let v = m.add_global(Global::from_f64("v", &[1.0, 2.0, 3.0, 4.0]));
        let sum = m.add_global(Global::zeroed("sum", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        f.store_elem(
            Type::F64,
            sum,
            Operand::const_i64(0),
            Operand::const_f64(0.0),
        );
        f.for_loop(Operand::const_i64(0), Operand::const_i64(4), |f, i| {
            let vi = f.load_elem(Type::F64, v, Operand::Reg(i));
            let sq = f.fmul(Operand::Reg(vi), Operand::Reg(vi));
            let s = f.load_elem(Type::F64, sum, Operand::const_i64(0));
            let ns = f.fadd(Operand::Reg(s), Operand::Reg(sq));
            f.store_elem(Type::F64, sum, Operand::const_i64(0), Operand::Reg(ns));
        });
        let out = f.load_elem(Type::F64, sum, Operand::const_i64(0));
        f.ret(Some(Operand::Reg(out)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        (m, v, sum)
    }

    #[test]
    fn site_counting_matches_paper_convention() {
        let (m, _v, _sum) = l2norm_like();
        let (outcome, trace) = run_traced(&m).unwrap();
        assert_eq!(outcome.return_f64(), 30.0);

        let vm = moard_vm::Vm::with_defaults(&m).unwrap();
        let sum_obj = vm.objects().by_name("sum").unwrap().id;
        let v_obj = vm.objects().by_name("v").unwrap().id;

        // sum participations: 1 initial store-dest + per iteration
        // (fadd operand + store-dest) = 1 + 4*2, plus the final load's
        // consumption by ret (1).
        let sum_sites = enumerate_sites(&trace, sum_obj);
        assert_eq!(sum_sites.len(), 1 + 4 * 2 + 1);
        let store_dests = sum_sites
            .iter()
            .filter(|s| s.slot == SiteSlot::StoreDest)
            .count();
        assert_eq!(store_dests, 5);

        // v participations: each iteration consumes v[i] twice in the fmul.
        let v_sites = enumerate_sites(&trace, v_obj);
        assert_eq!(v_sites.len(), 8);
        assert!(v_sites
            .iter()
            .all(|s| matches!(s.slot, SiteSlot::Operand(_))));
    }

    #[test]
    fn fault_sites_scale_with_pattern_count() {
        let (m, _, _) = l2norm_like();
        let (_, trace) = run_traced(&m).unwrap();
        let vm = moard_vm::Vm::with_defaults(&m).unwrap();
        let v_obj = vm.objects().by_name("v").unwrap().id;
        assert_eq!(
            count_fault_sites(&trace, v_obj, &ErrorPatternSet::SingleBit),
            8 * 64
        );
        // 8 sites × 63 adjacent double-bit bursts per 64-bit element.
        assert_eq!(
            count_fault_sites(&trace, v_obj, &ErrorPatternSet::AdjacentBits { width: 2 }),
            8 * 63
        );
        assert_eq!(
            count_fault_sites(&trace, v_obj, &ErrorPatternSet::SeparatedPair { gap: 8 }),
            8 * 56
        );
    }

    #[test]
    fn sites_by_record_normalizes_and_is_stable() {
        let (m, _v, _sum) = l2norm_like();
        let (_, trace) = run_traced(&m).unwrap();
        let vm = moard_vm::Vm::with_defaults(&m).unwrap();
        // The fmul consumes v[i] twice, so each fmul record contributes two
        // sites — same record id, distinct slots — which exercises the
        // stability requirement.
        let v_obj = vm.objects().by_name("v").unwrap().id;
        let sorted = enumerate_sites(&trace, v_obj);
        assert!(sorted.windows(2).any(|w| w[0].record_id == w[1].record_id));

        // Enumeration order is already record order: normalizing is identity.
        let mut normalized = sorted.clone();
        sites_by_record(&mut normalized);
        assert_eq!(normalized, sorted);

        // Scramble by reversing whole record groups (within-record slot
        // order intact): the stable sort must restore exactly the
        // enumeration order.
        let mut scrambled: Vec<ParticipationSite> = Vec::with_capacity(sorted.len());
        let mut groups: Vec<&[ParticipationSite]> =
            sorted.chunk_by(|a, b| a.record_id == b.record_id).collect();
        groups.reverse();
        for g in groups {
            scrambled.extend_from_slice(g);
        }
        assert_ne!(scrambled, sorted);
        sites_by_record(&mut scrambled);
        assert_eq!(scrambled, sorted);
    }

    #[test]
    fn fault_spec_construction() {
        let site = ParticipationSite {
            record_id: 17,
            slot: SiteSlot::Operand(1),
            element: (ObjectId(0), 3),
            value: Value::F64(2.0),
        };
        let f = site.fault_bit(63);
        assert_eq!(f.dyn_id, 17);
        assert_eq!(f.target, FaultTarget::Operand(1));
        assert_eq!(f.mask, 1 << 63);
        assert_eq!(site.bit_width(), 64);
        // The pattern form produces the same spec for a single bit, and a
        // multi-bit mask for wider patterns.
        assert_eq!(site.fault(&ErrorPattern::single(63)), f);
        assert_eq!(site.fault(&ErrorPattern::new(vec![0, 1])).mask, 0b11);
        assert_eq!(site.pattern_count(&ErrorPatternSet::SingleBit), 64);

        let store_site = ParticipationSite {
            slot: SiteSlot::StoreDest,
            ..site
        };
        assert_eq!(store_site.fault_bit(0).target, FaultTarget::StoreDest);
    }
}
