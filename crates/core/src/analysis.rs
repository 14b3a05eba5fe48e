//! The aDVF analyzer: orchestration of the three-level masking analysis
//! over a dynamic trace (the "trace analysis tool" of MOARD's framework,
//! paper §IV and Fig. 3).
//!
//! For every participation site of the target data object and every error
//! pattern, the analyzer runs the resolution pipeline:
//!
//! 1. **operation-level rules** ([`crate::op_rules`]) — decide masking from
//!    the operation's own semantics;
//! 2. **bounded propagation replay** ([`crate::propagation`]) — follow the
//!    corrupted locations through at most `k` subsequent operations;
//! 3. **deterministic fault injection** ([`crate::resolver`]) — for anything
//!    still unresolved, re-run the application with that exact fault and
//!    classify the outcome (identical / acceptable / incorrect / crashed),
//!    memoized by error equivalence.
//!
//! [`AdvfAnalyzer::analyze`] is the one whole-object path: it replays up to
//! 64 faults per trace walk, plans the object's injections and runs them on
//! every core, settles every planned fault whose run stays on the golden
//! path from the trace instead of re-running the program, and then folds
//! the verdicts in (site, pattern) order.  The per-class masking fractions
//! accumulate into an [`AdvfAccumulator`] exactly as Equation 1 prescribes.
//! [`AdvfAnalyzer::classify`] runs the same pipeline for a single
//! (site, pattern), replaying it alone through a [`ReplayCursor`].

use crate::advf::{AdvfAccumulator, AdvfReport, PatternClassTally};
use crate::error_pattern::{ErrorPattern, ErrorPatternSet};
use crate::masking::{Masking, OpMaskKind};
use crate::op_rules::{analyze_operation, CorruptSeeds, OpVerdict};
use crate::parallel::{available_workers, run_indexed};
use crate::propagation::{
    BatchLane, BatchReplayCursor, PropagationResult, ReplayCursor, MAX_REPLAY_LANES,
};
use crate::resolver::{DfiResolver, EquivalenceCache, EquivalenceKey, ResolverStats};
use crate::sites::{sites_by_record, strided_sites_through, ParticipationSite, SiteSlot};
use moard_ir::Type;
use moard_vm::{FaultSpec, ObjectId, OutcomeClass, TraceRead, TraceRecord, TraceStorage};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Maximum number of operations the propagation replay examines after the
    /// target operation (the paper's `k`, default 50 — see §III-D).
    pub propagation_window: usize,
    /// Error patterns enumerated per participating element (default:
    /// single-bit across the element width).
    pub patterns: ErrorPatternSet,
    /// Optional cap on the number of deterministic fault injections per data
    /// object, counted per [`AdvfAnalyzer::analyze`] call.  Once exhausted,
    /// unresolved sites are conservatively counted as not masked.  `None`
    /// means unbounded.
    pub max_dfi_per_object: Option<u64>,
    /// Analyze every `site_stride`-th participation site (1 = all sites).
    /// Deterministic down-sampling for very long traces; the aDVF value is a
    /// ratio, so uniform striding keeps it representative.
    pub site_stride: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            propagation_window: 50,
            patterns: ErrorPatternSet::SingleBit,
            max_dfi_per_object: None,
            site_stride: 1,
        }
    }
}

impl AnalysisConfig {
    /// Configuration with a specific propagation window.
    pub fn with_window(k: usize) -> Self {
        AnalysisConfig {
            propagation_window: k,
            ..Default::default()
        }
    }

    /// Check every field is inside its valid domain.
    ///
    /// `site_stride = 0` would analyze no site at all while silently looking
    /// like a request for "all sites"; it is rejected rather than normalized
    /// so callers cannot ship a typo into a long campaign.
    pub fn validate(&self) -> Result<(), crate::MoardError> {
        if self.site_stride == 0 {
            return Err(crate::MoardError::InvalidConfig(
                "site_stride must be >= 1 (1 analyzes every site)".into(),
            ));
        }
        if self.max_dfi_per_object == Some(0) {
            return Err(crate::MoardError::InvalidConfig(
                "max_dfi_per_object must be >= 1, or None to disable the cap".into(),
            ));
        }
        if let crate::ErrorPatternSet::Explicit(patterns) = &self.patterns {
            // An empty set (or a pattern flipping no bits) enumerates zero
            // error patterns — every site would trivially count as fully
            // masked.  It also has no faithful canonical form, so rejecting
            // it keeps the config fingerprint collision-free.
            if patterns.is_empty() || patterns.iter().any(|p| p.bits.is_empty()) {
                return Err(crate::MoardError::InvalidConfig(
                    "explicit error-pattern sets must be non-empty and every \
                     pattern must flip at least one bit"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of the configuration (FNV-1a over a
    /// canonical rendering).  Serialized reports embed it so results
    /// computed under different settings are never conflated.
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
            "v1;k={};stride={};max_dfi={};patterns={}",
            self.propagation_window,
            self.site_stride,
            match self.max_dfi_per_object {
                Some(n) => n.to_string(),
                None => "unbounded".to_string(),
            },
            self.patterns.canonical()
        );
        crate::report::fnv1a(canonical.as_bytes())
    }
}

/// The aDVF analyzer bound to one dynamic trace (either storage backend —
/// in-memory or paged; the analysis itself never needs the whole trace
/// resident).
///
/// The analyzer is `Sync`: the trace is immutable and the equivalence cache
/// is internally locked, so the plan pass of [`AdvfAnalyzer::analyze`]
/// settles one object's faults on several threads, each walking the trace
/// with its own cursor (and thus its own segment reader on the paged
/// backend).  The cache, and with it its DFI verdicts, lives as long as the
/// analyzer; the DFI budget is per call.
pub struct AdvfAnalyzer<'a> {
    trace: &'a dyn TraceStorage,
    config: AnalysisConfig,
    cache: EquivalenceCache,
}

impl<'a> AdvfAnalyzer<'a> {
    /// Create an analyzer over `trace`.
    pub fn new(trace: &'a dyn TraceStorage, config: AnalysisConfig) -> Self {
        AdvfAnalyzer {
            trace,
            config,
            cache: EquivalenceCache::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Analyze the target data object and produce its aDVF report.
    ///
    /// `resolver` supplies deterministic fault injection; pass `None` for the
    /// purely analytical mode, in which unresolved sites count as not masked
    /// (a conservative lower bound on aDVF).
    ///
    /// *Scheduling pass* — per (site, pattern), the operation-level verdict
    /// is computed once; patterns that need a propagation replay become
    /// *lanes* grouped by record position into batches of up to
    /// [`MAX_REPLAY_LANES`], each batch walking the trace once through a
    /// [`BatchReplayCursor`] as soon as it fills.  The sites are enumerated
    /// through that cursor's reader, the configured patterns once per
    /// element type, and the lanes' seeds are inline, so the pass
    /// allocates nothing per pattern or per lane.
    ///
    /// *Plan pass* (only with a resolver) — lists, in fold order, every
    /// fault the fold will inject (same budget, same cache-hit rule) and
    /// settles that list on every available core, the calling thread
    /// included.  Faults whose run stays on the golden path are followed
    /// to the end of the trace and, if the resolver reconstructs their
    /// outcome ([`DfiResolver::classify_same_path`]), never re-run; the
    /// rest are injected.
    ///
    /// *Fold* — sites fold into the accumulator in site order, and every
    /// DFI consult happens here in (site, pattern) order, reading the
    /// planned verdicts.  The report — DFI run/hit counts and budget
    /// exhaustion included — therefore depends neither on the core count
    /// nor on how a verdict was computed.  `max_dfi_per_object` counts the
    /// DFI verdicts of this call only.
    ///
    /// The call never fails: on the paged backend a segment that fails to
    /// decode poisons the trace, and scheduling stops at the first site
    /// whose record it cannot read.  The report then covers only the sites
    /// before it (`sites_analyzed` says how many), so a direct caller must
    /// check [`TraceStorage::poisoned`] afterwards, as the harness does.
    pub fn analyze(
        &self,
        object: ObjectId,
        object_name: &str,
        workload: &str,
        resolver: Option<&dyn DfiResolver>,
    ) -> AdvfReport {
        let k = self.config.propagation_window;
        let stats_before = self.cache.stats();
        let mut cursor = BatchReplayCursor::new(self.trace);
        let sites = self.pattern_sites_through(cursor.reader(), object);
        let pattern_lists = PatternLists::new(&self.config.patterns, &sites);

        // Scheduling pass.
        let mut plans: Vec<SitePlan> = Vec::with_capacity(sites.len());
        let mut tags: Vec<LaneTag> = Vec::new();
        let mut lane_results: Vec<PropagationResult> = Vec::new();
        let mut batch: Vec<BatchLane> = Vec::new();
        let mut grouper = BatchGrouper::new(k);
        let mut batch_walks = 0u64;
        for site in &sites {
            let Some(rec) = cursor.fetch(site.record_id) else {
                // The trace is poisoned: analyze the sites scheduled so far.
                break;
            };
            let patterns = pattern_lists.get(site.value.ty());
            let first_tag = tags.len();
            for pattern in patterns {
                let tag = match analyze_operation(&rec, site.slot, pattern) {
                    OpVerdict::Masked(kind) => LaneTag::Class(Masking::Operation(kind)),
                    OpVerdict::NotMasked => LaneTag::Class(Masking::NotMasked),
                    OpVerdict::NeedsDfi => LaneTag::NeedsDfi,
                    OpVerdict::OvershadowCandidate { corrupt } => {
                        LaneTag::Overshadow(self.push_lane(
                            &mut cursor,
                            &mut grouper,
                            &mut batch,
                            &mut lane_results,
                            &mut batch_walks,
                            site,
                            corrupt,
                        ))
                    }
                    OpVerdict::Propagate { corrupt } => LaneTag::Propagate(self.push_lane(
                        &mut cursor,
                        &mut grouper,
                        &mut batch,
                        &mut lane_results,
                        &mut batch_walks,
                        site,
                        corrupt,
                    )),
                };
                tags.push(tag);
            }
            plans.push(SitePlan {
                rec,
                patterns,
                tags: first_tag..tags.len(),
            });
        }
        if !batch.is_empty() {
            cursor.replay_batch(&batch, k, &mut lane_results);
            batch_walks += 1;
        }
        let lanes_batched = lane_results.len() as u64;
        let batch_fallback_lanes = lane_results.iter().filter(|r| !r.is_masked()).count() as u64;
        let sites = &sites[..plans.len()];

        // Plan pass.
        let planned = resolver.map(|r| self.run_planned(sites, &plans, &tags, &lane_results, r));
        let dfi = planned.as_ref().map(|p| DfiCall::new(p, stats_before));

        // Fold.
        let mut acc = AdvfAccumulator::new();
        let mut tallies: Vec<PatternClassTally> = Vec::new();
        let mut resolved_analytically = 0u64;
        let mut fractions: Vec<(Masking, f64)> = Vec::new();
        for (site, plan) in sites.iter().zip(&plans) {
            let used_dfi = self.fold_site(
                site,
                plan,
                &tags[plan.tags.clone()],
                &lane_results,
                dfi.as_ref(),
                &mut tallies,
                &mut fractions,
            );
            if !used_dfi {
                resolved_analytically += 1;
            }
            acc.add_participation(&fractions);
        }

        let stats_after = self.cache.stats();
        AdvfReport {
            object: object_name.to_string(),
            workload: workload.to_string(),
            accumulator: acc,
            sites_analyzed: sites.len() as u64,
            dfi_runs: stats_after.injections - stats_before.injections,
            dfi_cache_hits: stats_after.cache_hits - stats_before.cache_hits,
            resolved_analytically,
            dfi_budget_exhausted: dfi.is_some_and(|d| d.exhausted.get()),
            patterns: self.config.patterns.canonical(),
            pattern_tallies: tallies,
            lanes_batched,
            batch_walks,
            batch_fallback_lanes,
            config_fingerprint: self.config.fingerprint(),
        }
    }

    /// Append one replay lane to the open batch (flushing it through the
    /// cursor first if full or spanning too far) and return its global lane
    /// index.
    #[allow(clippy::too_many_arguments)]
    fn push_lane(
        &self,
        cursor: &mut BatchReplayCursor<'a>,
        grouper: &mut BatchGrouper,
        batch: &mut Vec<BatchLane>,
        lane_results: &mut Vec<PropagationResult>,
        batch_walks: &mut u64,
        site: &ParticipationSite,
        corrupt: CorruptSeeds,
    ) -> usize {
        let start = site.record_id + 1;
        if grouper.must_flush(start) {
            cursor.replay_batch(batch, self.config.propagation_window, lane_results);
            batch.clear();
            grouper.reset();
            *batch_walks += 1;
        }
        grouper.push(start);
        let lane = lane_results.len() + batch.len();
        batch.push(BatchLane {
            start: start as usize,
            corrupt,
        });
        lane
    }

    /// Plan pass of [`AdvfAnalyzer::analyze`]: walk every DFI consult of
    /// the fold in fold order, apply [`AdvfAnalyzer::resolve_dfi`]'s
    /// budget rule and the [`EquivalenceCache`]'s hit rule, and settle the
    /// faults that will miss the cache on every available core.
    ///
    /// A fault the operation rules seeded (a propagation or overshadowing
    /// candidate) is first followed to the end of the trace, up to 64 per
    /// walk; if its run stays on the golden path and the resolver
    /// reconstructs its outcome ([`DfiResolver::classify_same_path`]), that
    /// verdict stands.  Every other fault is injected.
    ///
    /// The returned resolver answers those faults from their verdicts and
    /// hands anything else to `resolver`, so the cache still counts every
    /// DFI verdict and hit in the fold, and a gap in the plan costs time,
    /// never correctness.
    // Kept out of line: inlined into `analyze`, it slowed that
    // function's scheduling loop, and with it every analytic analysis, by
    // about 2.5% on a 2-core Xeon (`analytic-memory` `op_p50_ms` 13.6 ->
    // 14.0 ms).
    #[inline(never)]
    fn run_planned<'r>(
        &self,
        sites: &[ParticipationSite],
        plans: &[SitePlan],
        tags: &[LaneTag],
        lane_results: &[PropagationResult],
        resolver: &'r dyn DfiResolver,
    ) -> PlannedDfi<'r> {
        let limit = self.config.max_dfi_per_object.unwrap_or(u64::MAX);
        let reconstructs = resolver.reconstructs();
        let mut misses: HashSet<EquivalenceKey> = HashSet::new();
        let mut faults: Vec<FaultSpec> = Vec::new();
        // Faults the operation rules seeded, as walk lanes, and each lane's
        // index in `faults`.
        let mut lanes: Vec<BatchLane> = Vec::new();
        let mut lane_faults: Vec<usize> = Vec::new();
        'plan: for (site, plan) in sites.iter().zip(plans) {
            for (pattern, tag) in plan.patterns.iter().zip(&tags[plan.tags.clone()]) {
                if tag.settled(lane_results).is_some() {
                    continue;
                }
                if faults.len() as u64 >= limit {
                    break 'plan;
                }
                let key = equivalence_key(&plan.rec, site, pattern);
                if !self.cache.contains(&key) && misses.insert(key) {
                    if reconstructs {
                        if let OpVerdict::Propagate { corrupt }
                        | OpVerdict::OvershadowCandidate { corrupt } =
                            analyze_operation(&plan.rec, site.slot, pattern)
                        {
                            lane_faults.push(faults.len());
                            lanes.push(BatchLane {
                                start: site.record_id as usize + 1,
                                corrupt,
                            });
                        }
                    }
                    faults.push(site.fault(pattern));
                }
            }
        }
        let mut verdicts: Vec<Option<OutcomeClass>> = vec![None; faults.len()];
        if !lanes.is_empty() {
            let walks = lanes.len().div_ceil(MAX_REPLAY_LANES);
            let settled = run_indexed(available_workers(), walks, |w| {
                let lo = w * MAX_REPLAY_LANES;
                let hi = (lo + MAX_REPLAY_LANES).min(lanes.len());
                let mut ends = Vec::new();
                BatchReplayCursor::new(self.trace).walk_to_end(&lanes[lo..hi], &mut ends);
                ends.iter()
                    .zip(&lane_faults[lo..hi])
                    .map(|(end, &f)| {
                        end.as_ref()
                            .and_then(|end| resolver.classify_same_path(&faults[f], end))
                    })
                    .collect::<Vec<_>>()
            });
            for (&f, verdict) in lane_faults.iter().zip(settled.into_iter().flatten()) {
                verdicts[f] = verdict;
            }
        }
        let pending: Vec<usize> = (0..faults.len())
            .filter(|&f| verdicts[f].is_none())
            .collect();
        let injected = run_indexed(available_workers(), pending.len(), |i| {
            resolver.classify(&faults[pending[i]])
        });
        for (&f, verdict) in pending.iter().zip(injected) {
            verdicts[f] = Some(verdict);
        }
        PlannedDfi {
            verdicts: faults
                .into_iter()
                .zip(
                    verdicts
                        .into_iter()
                        .map(|v| v.expect("every planned fault is settled")),
                )
                .collect(),
            resolver,
        }
    }

    /// Fold one site's per-pattern outcomes into tallies and, in
    /// `fractions`, the masked fraction of each class: the scheduling
    /// pass's operation verdicts (`tags`, one per pattern) and batched
    /// replay results, and DFI for whatever they leave open.  Returns
    /// whether DFI was consulted.
    #[allow(clippy::too_many_arguments)]
    fn fold_site(
        &self,
        site: &ParticipationSite,
        plan: &SitePlan,
        tags: &[LaneTag],
        lane_results: &[PropagationResult],
        dfi: Option<&DfiCall>,
        tallies: &mut Vec<PatternClassTally>,
        fractions: &mut Vec<(Masking, f64)>,
    ) -> bool {
        fractions.clear();
        let mut used_dfi = false;
        for (pattern, tag) in plan.patterns.iter().zip(tags) {
            let (class, dfi_used) = match tag.settled(lane_results) {
                Some(class) => (class, false),
                None => {
                    let overshadow = matches!(tag, LaneTag::Overshadow(_));
                    self.resolve_dfi(&plan.rec, site, pattern, overshadow, dfi)
                }
            };
            used_dfi |= dfi_used;
            record_pattern_class(tallies, pattern.bits.len() as u32, class);
            if class == Masking::NotMasked {
                continue;
            }
            // Counts stay exact integers in f64, so dividing once below
            // gives the same fraction as `count as f64 / n`.
            match fractions.iter_mut().find(|(c, _)| *c == class) {
                Some((_, k)) => *k += 1.0,
                None => fractions.push((class, 1.0)),
            }
        }
        let n = plan.patterns.len() as f64;
        for (_, k) in fractions.iter_mut() {
            *k /= n;
        }
        used_dfi
    }

    /// The site population of this analysis: the strided participation
    /// sites whose element type enumerates at least one pattern of the
    /// configured set.  This is the *shared* population: the RFI sampler of
    /// the validation engine draws uniformly over exactly these sites ×
    /// their patterns, so model and injection can never drift onto
    /// different fault populations.  (Under `SingleBit` no site is ever
    /// filtered — every type has at least one bit.)
    pub fn pattern_sites(&self, object: ObjectId) -> Vec<ParticipationSite> {
        self.pattern_sites_through(self.trace.new_reader().as_mut(), object)
    }

    /// [`AdvfAnalyzer::pattern_sites`] through a caller's reader.
    fn pattern_sites_through(
        &self,
        reader: &mut dyn TraceRead,
        object: ObjectId,
    ) -> Vec<ParticipationSite> {
        let mut sites = strided_sites_through(self.trace, reader, object, self.config.site_stride);
        sites.retain(|s| s.pattern_count(&self.config.patterns) > 0);
        // Enumeration is already ascending by record; normalize anyway so the
        // lane scheduler's non-decreasing-start invariant never depends on
        // the enumeration implementation.
        sites_by_record(&mut sites);
        sites
    }

    /// Classify one (site, error pattern) through the full pipeline: the
    /// operation rules, a replay of this fault alone through a fresh
    /// [`ReplayCursor`], and DFI under a budget of its own.  The second
    /// element reports whether DFI was consulted.
    pub fn classify(
        &self,
        rec: &TraceRecord,
        site: &ParticipationSite,
        pattern: ErrorPattern,
        resolver: Option<&dyn DfiResolver>,
    ) -> (Masking, bool) {
        let dfi = resolver.map(|r| DfiCall::new(r, self.cache.stats()));
        self.classify_with(
            &mut ReplayCursor::new(self.trace),
            rec,
            site,
            &pattern,
            dfi.as_ref(),
        )
    }

    /// [`AdvfAnalyzer::classify`] with a caller's cursor and DFI budget.
    fn classify_with(
        &self,
        cursor: &mut ReplayCursor<'a>,
        rec: &TraceRecord,
        site: &ParticipationSite,
        pattern: &ErrorPattern,
        dfi: Option<&DfiCall>,
    ) -> (Masking, bool) {
        let k = self.config.propagation_window;
        match analyze_operation(rec, site.slot, pattern) {
            OpVerdict::Masked(kind) => (Masking::Operation(kind), false),
            OpVerdict::NotMasked => (Masking::NotMasked, false),
            OpVerdict::OvershadowCandidate { corrupt } => {
                // Overshadowing initiated the masking; whichever mechanism
                // finishes it, the event is attributed to overshadowing
                // (paper §III-C, discussion after the three classes).
                if cursor.replay(rec.id as usize + 1, &corrupt, k).is_masked() {
                    return (Masking::Operation(OpMaskKind::Overshadowing), false);
                }
                self.resolve_dfi(rec, site, pattern, true, dfi)
            }
            OpVerdict::Propagate { corrupt } => {
                if cursor.replay(rec.id as usize + 1, &corrupt, k).is_masked() {
                    return (Masking::Propagation, false);
                }
                self.resolve_dfi(rec, site, pattern, false, dfi)
            }
            OpVerdict::NeedsDfi => self.resolve_dfi(rec, site, pattern, false, dfi),
        }
    }

    /// Settle one (site, pattern) by DFI under the call's budget.  Returns
    /// the masking class and whether DFI was consulted; without a resolver,
    /// or once the budget is spent, the fault conservatively counts as not
    /// masked.  An `overshadow` candidate that the run masks keeps its
    /// overshadowing attribution.
    fn resolve_dfi(
        &self,
        rec: &TraceRecord,
        site: &ParticipationSite,
        pattern: &ErrorPattern,
        overshadow: bool,
        dfi: Option<&DfiCall>,
    ) -> (Masking, bool) {
        // The deterministic fault injector applies any error pattern in one
        // XOR, so *every* enumerated pattern resolves exactly — there is no
        // conservative single-bit-only path that would silently count wider
        // patterns as not masked.
        let Some(dfi) = dfi else {
            return (Masking::NotMasked, false);
        };
        if dfi.exhausted.get() {
            return (Masking::NotMasked, false);
        }
        if let Some(limit) = self.config.max_dfi_per_object {
            if self.cache.stats().injections - dfi.start >= limit {
                dfi.exhausted.set(true);
                return (Masking::NotMasked, false);
            }
        }
        let key = equivalence_key(rec, site, pattern);
        let class = match self.cache.classify(key, &site.fault(pattern), dfi.resolver) {
            c if overshadow && c.is_success() => Masking::Operation(OpMaskKind::Overshadowing),
            OutcomeClass::Identical if !overshadow => Masking::Propagation,
            OutcomeClass::Acceptable if !overshadow => Masking::Algorithm,
            _ => Masking::NotMasked,
        };
        (class, true)
    }

    /// Cumulative DFI statistics across all objects analyzed so far.
    pub fn dfi_stats(&self) -> crate::resolver::ResolverStats {
        self.cache.stats()
    }
}

/// Operation-level verdict of one (site, pattern) as recorded by the
/// scheduling pass.  Replay-dependent verdicts carry the global lane index
/// of their batched walk; the fold pass resolves them (and any DFI) later.
enum LaneTag {
    /// Fully decided by the operation rules (including analytically
    /// not-masked).
    Class(Masking),
    /// No analytical verdict at all — goes straight to DFI.
    NeedsDfi,
    /// Overshadow candidate: masked iff its replay lane masked, else DFI.
    Overshadow(usize),
    /// Propagation candidate: masked iff its replay lane masked, else DFI.
    Propagate(usize),
}

impl LaneTag {
    /// The class the trace settles without DFI, or `None` if the fold must
    /// consult DFI.
    fn settled(&self, lane_results: &[PropagationResult]) -> Option<Masking> {
        match *self {
            LaneTag::Class(class) => Some(class),
            LaneTag::NeedsDfi => None,
            LaneTag::Overshadow(lane) => lane_results[lane]
                .is_masked()
                .then_some(Masking::Operation(OpMaskKind::Overshadowing)),
            LaneTag::Propagate(lane) => lane_results[lane]
                .is_masked()
                .then_some(Masking::Propagation),
        }
    }
}

/// One call's access to DFI: the resolver and the call's own budget.
/// `max_dfi_per_object` counts the injections made since the call began,
/// so an analyzer reused for another object starts with its full budget.
struct DfiCall<'r> {
    resolver: &'r dyn DfiResolver,
    /// The cache's injection count when the call began.
    start: u64,
    exhausted: Cell<bool>,
}

impl<'r> DfiCall<'r> {
    fn new(resolver: &'r dyn DfiResolver, stats: ResolverStats) -> Self {
        DfiCall {
            resolver,
            start: stats.injections,
            exhausted: Cell::new(false),
        }
    }
}

/// The verdicts of one object's planned injections, standing in for the
/// real resolver during the fold; a fault the plan missed is injected then.
struct PlannedDfi<'r> {
    verdicts: HashMap<FaultSpec, OutcomeClass>,
    resolver: &'r dyn DfiResolver,
}

impl DfiResolver for PlannedDfi<'_> {
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        match self.verdicts.get(fault) {
            Some(&verdict) => verdict,
            None => self.resolver.classify(fault),
        }
    }
}

/// The [`EquivalenceCache`] key of one (site, pattern) fault.
fn equivalence_key(
    rec: &TraceRecord,
    site: &ParticipationSite,
    pattern: &ErrorPattern,
) -> EquivalenceKey {
    EquivalenceKey::new(rec, site.slot, site.value.to_bits(), pattern.mask())
}

/// One site's scheduled work: its trace record, the error patterns of its
/// element type (shared with every site of that type), and where its
/// [`LaneTag`]s, one per pattern, lie in the analysis's tag list.
struct SitePlan<'p> {
    rec: TraceRecord,
    patterns: &'p [ErrorPattern],
    tags: Range<usize>,
}

/// The configured error patterns, enumerated once per element type for
/// one analysis; every site of a type shares its list.
struct PatternLists {
    lists: Vec<(Type, Vec<ErrorPattern>)>,
}

impl PatternLists {
    /// Enumerate the patterns of every element type among `sites`.
    fn new(set: &ErrorPatternSet, sites: &[ParticipationSite]) -> Self {
        let mut lists: Vec<(Type, Vec<ErrorPattern>)> = Vec::new();
        for site in sites {
            let ty = site.value.ty();
            if !lists.iter().any(|(t, _)| *t == ty) {
                lists.push((ty, set.patterns_for(ty)));
            }
        }
        PatternLists { lists }
    }

    /// The patterns of element type `ty`, which must be among the sites'.
    fn get(&self, ty: Type) -> &[ErrorPattern] {
        let (_, list) = self
            .lists
            .iter()
            .find(|(t, _)| *t == ty)
            .expect("patterns enumerated for every site's type");
        list
    }
}

/// Decides batch boundaries for the lane scheduler.  A batch closes when it
/// holds [`MAX_REPLAY_LANES`] lanes or when the next lane would start more
/// than `span_cap` records after the batch's first lane: lanes sharing a
/// walk should overlap their windows, or the walk degenerates into
/// disjoint segments with dead skip-ahead in between.
struct BatchGrouper {
    span_cap: u64,
    len: usize,
    first_start: u64,
}

impl BatchGrouper {
    fn new(k: usize) -> Self {
        BatchGrouper {
            // k = 0 still allows grouping lanes at adjacent records: every
            // lane resolves on activation, so span hardly matters.
            span_cap: k.max(1) as u64,
            len: 0,
            first_start: 0,
        }
    }

    /// Must the open batch be flushed before a lane starting at `start`
    /// (a non-decreasing sequence) can be appended?
    fn must_flush(&self, start: u64) -> bool {
        self.len == MAX_REPLAY_LANES || (self.len > 0 && start - self.first_start > self.span_cap)
    }

    fn push(&mut self, start: u64) {
        if self.len == 0 {
            self.first_start = start;
        }
        self.len += 1;
    }

    fn reset(&mut self) {
        self.len = 0;
    }
}

/// Record one classified `(pattern, verdict)` into the tally keyed by its
/// pattern class, keeping the vector sorted by `flipped_bits` (the same
/// invariant [`crate::advf::merge_pattern_tallies`] maintains across
/// shards).
fn record_pattern_class(tallies: &mut Vec<PatternClassTally>, width: u32, class: Masking) {
    match tallies.iter_mut().find(|t| t.flipped_bits == width) {
        Some(t) => t.record(class),
        None => {
            let mut t = PatternClassTally::new(width);
            t.record(class);
            let at = tallies
                .iter()
                .position(|e| e.flipped_bits > width)
                .unwrap_or(tallies.len());
            tallies.insert(at, t);
        }
    }
}

/// Summarize the masking classes of a whole site (utility for tests and the
/// observation bench of §III-D).
pub fn site_masked_fraction(fractions: &[(Masking, f64)]) -> f64 {
    fractions.iter().map(|(_, f)| f).sum()
}

/// Convenience for filtering: true if a site slot is a store destination.
pub fn is_store_dest(slot: SiteSlot) -> bool {
    matches!(slot, SiteSlot::StoreDest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::SamePathEnd;
    use moard_ir::prelude::*;
    use moard_vm::{run_traced, run_with_fault, TraceError, TraceIndex, TraceRead, TraceStats, Vm};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The paper's Listing-1-like kernel:
    ///   par_a[0] = sqrt(2.0);                 // overwrite
    ///   c = par_a[2] * 2;                     // propagation into c
    ///   if (c > THR) par_a[4] = ((int)c) >> bits;  // shift masking
    ///   out[0] = par_a[0] + par_a[4];
    fn listing1_module() -> Module {
        let mut m = Module::new("listing1");
        let par_a = m.add_global(Global::from_f64("par_a", &[9.0, 1.0, 3.0, 1.0, 5.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], Some(Type::F64));
        let s = f.sqrt(Operand::const_f64(2.0));
        f.store_elem(Type::F64, par_a, Operand::const_i64(0), Operand::Reg(s));
        let a2 = f.load_elem(Type::F64, par_a, Operand::const_i64(2));
        let c = f.fmul(Operand::Reg(a2), Operand::const_f64(2.0));
        let cond = f.cmp(CmpPred::FOgt, Operand::Reg(c), Operand::const_f64(1.0));
        f.if_then(Operand::Reg(cond), |f| {
            let ci = f.fptosi(Operand::Reg(c));
            let shifted = f.lshr(Operand::Reg(ci), Operand::const_i64(2));
            let back = f.sitofp(Operand::Reg(shifted));
            f.store_elem(Type::F64, par_a, Operand::const_i64(4), Operand::Reg(back));
        });
        let a0 = f.load_elem(Type::F64, par_a, Operand::const_i64(0));
        let a4 = f.load_elem(Type::F64, par_a, Operand::const_i64(4));
        let sum = f.fadd(Operand::Reg(a0), Operand::Reg(a4));
        f.store_elem(Type::F64, out, Operand::const_i64(0), Operand::Reg(sum));
        f.ret(Some(Operand::Reg(sum)));
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    fn analyze_object(m: &Module, name: &str, config: AnalysisConfig) -> AdvfReport {
        let (golden, trace) = run_traced(m).unwrap();
        let vm = Vm::with_defaults(m).unwrap();
        let obj = vm.objects().by_name(name).unwrap().id;
        let analyzer = AdvfAnalyzer::new(&trace, config);
        // DFI resolver comparing only the output array and the return value.
        let resolver = |fault: &moard_vm::FaultSpec| {
            let outcome = run_with_fault(m, fault).unwrap();
            if !outcome.status.is_completed() {
                return OutcomeClass::Crashed;
            }
            let same_out = outcome
                .global_f64("out")
                .iter()
                .zip(golden.global_f64("out").iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if same_out {
                OutcomeClass::Identical
            } else if outcome.max_rel_diff(&golden, "out") < 1e-6 {
                OutcomeClass::Acceptable
            } else {
                OutcomeClass::Incorrect
            }
        };
        analyzer.analyze(obj, name, "listing1", Some(&resolver))
    }

    #[test]
    fn advf_is_within_unit_interval_and_nontrivial() {
        let m = listing1_module();
        let report = analyze_object(&m, "par_a", AnalysisConfig::default());
        let advf = report.advf();
        assert!((0.0..=1.0).contains(&advf), "aDVF out of range: {advf}");
        assert!(
            advf > 0.0,
            "the overwrite at par_a[0] must contribute masking"
        );
        assert!(report.sites_analyzed > 0);
        // Overwriting must contribute (store to par_a[0] and par_a[4]).
        assert!(report.accumulator.masked.overwriting > 0.0);
    }

    #[test]
    fn analytic_only_mode_is_a_lower_bound() {
        let m = listing1_module();
        let with_dfi = analyze_object(&m, "par_a", AnalysisConfig::default());
        let (_, trace) = run_traced(&m).unwrap();
        let vm = Vm::with_defaults(&m).unwrap();
        let obj = vm.objects().by_name("par_a").unwrap().id;
        let analyzer = AdvfAnalyzer::new(&trace, AnalysisConfig::default());
        let without_dfi = analyzer.analyze(obj, "par_a", "listing1", None);
        assert!(without_dfi.advf() <= with_dfi.advf() + 1e-12);
        assert_eq!(without_dfi.dfi_runs, 0);
    }

    #[test]
    fn dfi_budget_is_respected() {
        let m = listing1_module();
        let config = AnalysisConfig {
            max_dfi_per_object: Some(3),
            ..Default::default()
        };
        let report = analyze_object(&m, "par_a", config);
        assert!(report.dfi_runs <= 3);
    }

    #[test]
    fn site_stride_subsamples_participations() {
        let m = listing1_module();
        let full = analyze_object(&m, "par_a", AnalysisConfig::default());
        let strided = analyze_object(
            &m,
            "par_a",
            AnalysisConfig {
                site_stride: 2,
                ..Default::default()
            },
        );
        assert!(strided.sites_analyzed < full.sites_analyzed);
        assert!(strided.sites_analyzed >= full.sites_analyzed / 2);
    }

    #[test]
    fn model_agrees_with_direct_injection_on_overwritten_element() {
        // Every single-bit error in par_a[0] consumed by the overwriting
        // store must be masked according to the model, and indeed injection
        // at that store leaves the outcome identical.
        let m = listing1_module();
        let (golden, trace) = run_traced(&m).unwrap();
        let vm = Vm::with_defaults(&m).unwrap();
        let obj = vm.objects().by_name("par_a").unwrap().id;
        let sites = crate::sites::enumerate_sites(&trace, obj);
        let store_dest_site = sites
            .iter()
            .find(|s| s.slot == SiteSlot::StoreDest && s.element.1 == 0)
            .expect("store to par_a[0] participates");
        let analyzer = AdvfAnalyzer::new(&trace, AnalysisConfig::default());
        let rec = trace.record(store_dest_site.record_id).unwrap();
        for pattern in ErrorPatternSet::SingleBit.patterns_for(store_dest_site.value.ty()) {
            let (class, _) = analyzer.classify(rec, store_dest_site, pattern, None);
            assert!(class.is_masked(), "{class:?}");
        }
        // Cross-check with the injector.
        for bit in [0u32, 31, 63] {
            let outcome = run_with_fault(&m, &store_dest_site.fault_bit(bit)).unwrap();
            assert!(outcome.bits_identical(&golden));
        }
    }

    /// The inline-DFI oracle that [`AdvfAnalyzer::analyze`] must match: each
    /// (site, pattern) in fold order, replayed alone through one
    /// [`ReplayCursor`] and, where the trace cannot settle it, injected on
    /// the spot through `classify_with`, all under one `DfiCall` budget.
    /// Writes no batch telemetry.
    fn oracle(
        analyzer: &AdvfAnalyzer,
        object: ObjectId,
        object_name: &str,
        workload: &str,
        resolver: Option<&dyn DfiResolver>,
    ) -> AdvfReport {
        let mut acc = AdvfAccumulator::new();
        let mut tallies: Vec<PatternClassTally> = Vec::new();
        let mut resolved_analytically = 0u64;
        let sites = analyzer.pattern_sites(object);
        let stats_before = analyzer.cache.stats();
        let dfi = resolver.map(|r| DfiCall::new(r, stats_before));
        let mut cursor = ReplayCursor::new(analyzer.trace);
        for site in &sites {
            let rec = cursor.fetch(site.record_id).unwrap();
            let patterns = analyzer.config.patterns.patterns_for(site.value.ty());
            let mut counts: Vec<(Masking, u64)> = Vec::new();
            let mut used_dfi = false;
            for pattern in &patterns {
                let (class, dfi_used) =
                    analyzer.classify_with(&mut cursor, &rec, site, pattern, dfi.as_ref());
                used_dfi |= dfi_used;
                record_pattern_class(&mut tallies, pattern.bits.len() as u32, class);
                if class == Masking::NotMasked {
                    continue;
                }
                match counts.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, k)) => *k += 1,
                    None => counts.push((class, 1)),
                }
            }
            if !used_dfi {
                resolved_analytically += 1;
            }
            let n = patterns.len() as f64;
            let fractions: Vec<(Masking, f64)> =
                counts.into_iter().map(|(c, k)| (c, k as f64 / n)).collect();
            acc.add_participation(&fractions);
        }
        let stats_after = analyzer.cache.stats();
        AdvfReport {
            object: object_name.to_string(),
            workload: workload.to_string(),
            accumulator: acc,
            sites_analyzed: sites.len() as u64,
            dfi_runs: stats_after.injections - stats_before.injections,
            dfi_cache_hits: stats_after.cache_hits - stats_before.cache_hits,
            resolved_analytically,
            dfi_budget_exhausted: dfi.is_some_and(|d| d.exhausted.get()),
            patterns: analyzer.config.patterns.canonical(),
            pattern_tallies: tallies,
            lanes_batched: 0,
            batch_walks: 0,
            batch_fallback_lanes: 0,
            config_fingerprint: analyzer.config.fingerprint(),
        }
    }

    /// A DFI resolver comparing the `out` array and the return value, that
    /// counts its injections and remembers every fault it settled.  A
    /// reconstructing one also settles same-path faults from their end
    /// state, after checking the rebuilt outcome against an injection.
    struct CountingResolver<'m> {
        module: &'m Module,
        golden: moard_vm::ExecOutcome,
        objects: moard_vm::DataObjectRegistry,
        reconstructs: bool,
        calls: std::sync::atomic::AtomicU64,
        reconstructed: std::sync::atomic::AtomicU64,
        settled: std::sync::Mutex<HashSet<FaultSpec>>,
    }

    impl<'m> CountingResolver<'m> {
        fn new(module: &'m Module) -> Self {
            CountingResolver {
                module,
                golden: run_traced(module).unwrap().0,
                objects: Vm::with_defaults(module).unwrap().objects().clone(),
                reconstructs: false,
                calls: Default::default(),
                reconstructed: Default::default(),
                settled: Default::default(),
            }
        }

        fn reconstructing(module: &'m Module) -> Self {
            CountingResolver {
                reconstructs: true,
                ..Self::new(module)
            }
        }

        fn calls(&self) -> u64 {
            self.calls.load(Ordering::SeqCst)
        }

        fn reconstructed(&self) -> u64 {
            self.reconstructed.load(Ordering::SeqCst)
        }

        fn settle_once(&self, fault: &FaultSpec) {
            assert!(
                self.settled.lock().unwrap().insert(*fault),
                "fault settled twice: {fault:?}"
            );
        }

        fn verdict(&self, outcome: &moard_vm::ExecOutcome) -> OutcomeClass {
            if !outcome.status.is_completed() {
                OutcomeClass::Crashed
            } else if outcome.bits_identical(&self.golden) {
                OutcomeClass::Identical
            } else if outcome.max_rel_diff(&self.golden, "out") < 1e-6 {
                OutcomeClass::Acceptable
            } else {
                OutcomeClass::Incorrect
            }
        }
    }

    impl DfiResolver for CountingResolver<'_> {
        fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.settle_once(fault);
            self.verdict(&run_with_fault(self.module, fault).unwrap())
        }

        fn reconstructs(&self) -> bool {
            self.reconstructs
        }

        fn classify_same_path(&self, fault: &FaultSpec, end: &SamePathEnd) -> Option<OutcomeClass> {
            assert!(self.reconstructs, "asked to reconstruct {fault:?}");
            let mut outcome = self.golden.clone();
            for &(addr, value) in &end.memory {
                let (id, index) = self.objects.locate(addr)?;
                outcome.globals.get_mut(&self.objects.get(id).name)?[index as usize] = value;
            }
            if end.return_value.is_some() {
                outcome.return_value = end.return_value;
            }
            let injected = run_with_fault(self.module, fault).unwrap();
            assert!(
                outcome.bits_identical(&injected) && outcome.steps == injected.steps,
                "reconstruction of {fault:?} differs from injection"
            );
            self.reconstructed.fetch_add(1, Ordering::SeqCst);
            self.settle_once(fault);
            Some(self.verdict(&outcome))
        }
    }

    /// `t = x[0] + 1000.0`, read only by `t > 1.0`: most flips of `x[0]`
    /// stay below 1000 in magnitude and change the sum, so they are
    /// overshadowing candidates whose corrupted sum then dies unread — a
    /// replay masks them, and they still count as overshadowing.
    fn overshadow_module() -> Module {
        let mut m = Module::new("overshadow");
        let x = m.add_global(Global::from_f64("x", &[1.0]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 1));
        let mut f = FunctionBuilder::new("main", &[], None);
        let x0 = f.load_elem(Type::F64, x, Operand::const_i64(0));
        let t = f.fadd(Operand::Reg(x0), Operand::const_f64(1000.0));
        let c = f.cmp(CmpPred::FOgt, Operand::Reg(t), Operand::const_f64(1.0));
        f.if_then(Operand::Reg(c), |f| {
            f.store_elem(
                Type::F64,
                out,
                Operand::const_i64(0),
                Operand::const_f64(1.0),
            );
        });
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    #[test]
    fn batched_analysis_matches_sequential_engine_with_dfi() {
        // Same object, same resolver, `analyze` against the inline-DFI
        // oracle: the whole report — verdict fractions, tallies, DFI
        // run/hit counts, budget exhaustion — must match bit-for-bit; only
        // the batch telemetry may differ.  Budgets cut the planned faults
        // mid-object, and the resolvers prove the plan settles exactly
        // what the fold consumes: one injection or reconstruction per
        // counted run, no fault twice.  A reconstructing resolver must
        // change nothing in the report.
        let pattern_sets = [
            ErrorPatternSet::SingleBit,
            ErrorPatternSet::AdjacentBits { width: 2 },
            ErrorPatternSet::SeparatedPair { gap: 5 },
        ];
        let mut reconstructed = 0;
        for (m, object) in [(listing1_module(), "par_a"), (overshadow_module(), "x")] {
            let (_, trace) = run_traced(&m).unwrap();
            let vm = Vm::with_defaults(&m).unwrap();
            let obj = vm.objects().by_name(object).unwrap().id;
            for patterns in &pattern_sets {
                for budget in [Some(1u64), Some(3), Some(7), None] {
                    for k in [0usize, 2, 50] {
                        let config = AnalysisConfig {
                            propagation_window: k,
                            patterns: patterns.clone(),
                            max_dfi_per_object: budget,
                            ..Default::default()
                        };
                        let case =
                            format!("{object} patterns={patterns:?} budget={budget:?} k={k}");
                        let resolver = CountingResolver::new(&m);
                        let analyzer = AdvfAnalyzer::new(&trace, config.clone());
                        let expected = oracle(&analyzer, obj, object, "kernel", Some(&resolver));
                        assert_eq!(resolver.calls(), expected.dfi_runs, "{case}");
                        if let Some(limit) = budget {
                            assert!(expected.dfi_runs <= limit, "{case}");
                        }
                        for resolver in [
                            CountingResolver::new(&m),
                            CountingResolver::reconstructing(&m),
                        ] {
                            let report = AdvfAnalyzer::new(&trace, config.clone()).analyze(
                                obj,
                                object,
                                "kernel",
                                Some(&resolver),
                            );
                            let case = format!("{case} reconstructs={}", resolver.reconstructs);
                            assert_eq!(
                                resolver.calls() + resolver.reconstructed(),
                                report.dfi_runs,
                                "{case}"
                            );
                            reconstructed += resolver.reconstructed();
                            let mut normalized = report.clone();
                            normalized.lanes_batched = 0;
                            normalized.batch_walks = 0;
                            normalized.batch_fallback_lanes = 0;
                            assert_eq!(normalized, expected, "{case}");
                            assert_eq!(report.advf().to_bits(), expected.advf().to_bits());
                            if k > 0 {
                                assert!(report.lanes_batched > 0, "{case}");
                                assert!(report.batch_walks <= report.lanes_batched, "{case}");
                            }
                        }
                    }
                }
            }
        }
        assert!(reconstructed > 0, "some planned fault stays on the path");
    }

    /// Two objects, `a` and `b`, each consumed by its own instructions
    /// (`out[i] = x[0] * x[1] + x[2]`), so their DFI equivalence classes
    /// never overlap.
    fn two_object_module() -> Module {
        let mut m = Module::new("two_objects");
        let a = m.add_global(Global::from_f64("a", &[1.5, 2.5, 3.5]));
        let b = m.add_global(Global::from_f64("b", &[4.5, 5.5, 6.5]));
        let out = m.add_global(Global::zeroed("out", Type::F64, 2));
        let mut f = FunctionBuilder::new("main", &[], None);
        for (slot, g) in [a, b].into_iter().enumerate() {
            let x0 = f.load_elem(Type::F64, g, Operand::const_i64(0));
            let x1 = f.load_elem(Type::F64, g, Operand::const_i64(1));
            let x2 = f.load_elem(Type::F64, g, Operand::const_i64(2));
            let p = f.fmul(Operand::Reg(x0), Operand::Reg(x1));
            let s = f.fadd(Operand::Reg(p), Operand::Reg(x2));
            f.store_elem(
                Type::F64,
                out,
                Operand::const_i64(slot as i64),
                Operand::Reg(s),
            );
        }
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    #[test]
    fn dfi_budget_is_per_analyze_call() {
        // One analyzer, two objects, a budget of 3: the second object gets
        // its own 3 injections, exactly as on a fresh analyzer — it does not
        // inherit the first object's spent budget.  Analyzing the first
        // object again answers its earlier faults from the analyzer's cache
        // (never re-injecting them) and spends a new budget on the rest.
        let m = two_object_module();
        let (_, trace) = run_traced(&m).unwrap();
        let vm = Vm::with_defaults(&m).unwrap();
        let a = vm.objects().by_name("a").unwrap().id;
        let b = vm.objects().by_name("b").unwrap().id;
        let config = AnalysisConfig {
            max_dfi_per_object: Some(3),
            ..Default::default()
        };
        let resolver = CountingResolver::new(&m);
        let shared = AdvfAnalyzer::new(&trace, config.clone());
        let first = shared.analyze(a, "a", "two_objects", Some(&resolver));
        let second = shared.analyze(b, "b", "two_objects", Some(&resolver));
        let fresh = AdvfAnalyzer::new(&trace, config).analyze(
            b,
            "b",
            "two_objects",
            Some(&CountingResolver::new(&m)),
        );
        for report in [&first, &second] {
            assert_eq!(report.dfi_runs, 3);
            assert!(report.dfi_budget_exhausted);
        }
        assert_eq!(second, fresh);
        assert_eq!(resolver.calls(), 6);
        let again = shared.analyze(a, "a", "two_objects", Some(&resolver));
        assert_eq!(again.dfi_runs, 3);
        assert!(again.dfi_cache_hits >= first.dfi_cache_hits + 3);
        assert_eq!(resolver.calls(), 9);
        assert_eq!(shared.dfi_stats().injections, 9);
    }

    /// A trace whose reads, after the first `healthy` (site enumeration's),
    /// serve no record at or past `fails_from` and poison the trace instead
    /// — as a paged trace does when a segment stops decoding after site
    /// enumeration.  The count spans every reader of the trace.
    struct FailingReads<'t> {
        trace: &'t moard_vm::Trace,
        fails_from: u64,
        healthy: usize,
        reads: AtomicUsize,
        poison: Mutex<Option<TraceError>>,
    }

    impl<'t> FailingReads<'t> {
        fn new(trace: &'t moard_vm::Trace, fails_from: u64, healthy: usize) -> Self {
            FailingReads {
                trace,
                fails_from,
                healthy,
                reads: AtomicUsize::new(0),
                poison: Mutex::new(None),
            }
        }
    }

    impl TraceStorage for FailingReads<'_> {
        fn len(&self) -> u64 {
            TraceStorage::len(self.trace)
        }

        fn index(&self) -> &TraceIndex {
            TraceStorage::index(self.trace)
        }

        fn stats(&self) -> TraceStats {
            self.trace.stats()
        }

        fn backend_name(&self) -> &'static str {
            "failing"
        }

        fn new_reader(&self) -> Box<dyn TraceRead + '_> {
            Box::new(FailingReader {
                storage: self,
                inner: self.trace.new_reader(),
            })
        }

        fn poisoned(&self) -> Option<TraceError> {
            self.poison.lock().unwrap().clone()
        }
    }

    struct FailingReader<'s> {
        storage: &'s FailingReads<'s>,
        inner: Box<dyn TraceRead + 's>,
    }

    impl TraceRead for FailingReader<'_> {
        fn run_from(&mut self, id: u64) -> &[TraceRecord] {
            if self.storage.reads.fetch_add(1, Ordering::SeqCst) < self.storage.healthy {
                return self.inner.run_from(id);
            }
            let fails_from = self.storage.fails_from;
            if id >= fails_from {
                self.storage
                    .poison
                    .lock()
                    .unwrap()
                    .get_or_insert(TraceError::Corrupt {
                        path: "segment".into(),
                        reason: "fails to decode".into(),
                    });
                return &[];
            }
            let run = self.inner.run_from(id);
            &run[..run.len().min((fails_from - id) as usize)]
        }
    }

    #[test]
    fn unreadable_site_record_stops_the_analysis_without_panicking() {
        // Every read after site enumeration fails, then only the reads past
        // the middle site: `analyze` returns either way, with and without a
        // resolver, covering exactly the sites before the first unreadable
        // record, and leaves the poison for its caller to check.
        let m = listing1_module();
        let (_, trace) = run_traced(&m).unwrap();
        let vm = Vm::with_defaults(&m).unwrap();
        let obj = vm.objects().by_name("par_a").unwrap().id;
        let config = AnalysisConfig::default();
        let sites = AdvfAnalyzer::new(&trace, config.clone()).pattern_sites(obj);
        // Enumeration reads each record the object's index lists, once.
        let enumeration_reads = TraceStorage::index(&trace).ids(obj).len();
        for fails_from in [0, sites[sites.len() / 2].record_id] {
            let scheduled = sites.iter().filter(|s| s.record_id < fails_from).count() as u64;
            assert!(fails_from == 0 || scheduled > 0);
            for use_dfi in [false, true] {
                let failing = FailingReads::new(&trace, fails_from, enumeration_reads);
                let resolver = CountingResolver::new(&m);
                let resolver = use_dfi.then_some(&resolver as &dyn DfiResolver);
                let report = AdvfAnalyzer::new(&failing, config.clone())
                    .analyze(obj, "par_a", "listing1", resolver);
                let case = format!("fails_from={fails_from} dfi={use_dfi}");
                assert!(failing.poisoned().is_some(), "{case}");
                assert_eq!(report.sites_analyzed, scheduled, "{case}");
                assert_eq!(report.accumulator.participations, scheduled, "{case}");
            }
        }
    }

    #[test]
    fn helper_predicates() {
        assert!(is_store_dest(SiteSlot::StoreDest));
        assert!(!is_store_dest(SiteSlot::Operand(0)));
        assert_eq!(
            site_masked_fraction(&[(Masking::Propagation, 0.25), (Masking::Algorithm, 0.5)]),
            0.75
        );
    }
}
