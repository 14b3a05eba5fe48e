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
//! [`AdvfAnalyzer::analyze`] is the one whole-object path: it schedules
//! contiguous ranges of sites on every core, each replaying up to 64 faults
//! per trace walk, plans the object's injections and runs them on every
//! core, settles every planned fault whose run stays on the golden path
//! from the trace instead of re-running the program, and then folds the
//! verdicts in (site, pattern) order.  The per-class masking fractions
//! accumulate into an [`AdvfAccumulator`] exactly as Equation 1 prescribes.
//! [`AdvfAnalyzer::classify`] runs the same pipeline for a single
//! (site, pattern), replaying it alone through a [`ReplayCursor`].

use crate::advf::{AdvfAccumulator, AdvfReport, PatternClassTally};
use crate::error_pattern::{ErrorPattern, ErrorPatternSet};
use crate::masking::{Masking, OpMaskKind};
use crate::op_rules::{analyze_operation, analyze_site, CorruptSeeds, OpVerdict};
use crate::parallel::{available_workers, run_indexed, run_indexed_with};
use crate::propagation::{
    BatchLane, BatchReplayCursor, PropagationResult, ReplayCursor, MAX_REPLAY_LANES,
};
use crate::resolver::{DfiResolver, EquivalenceCache, EquivalenceKey, ResolverStats};
use crate::sites::{sites_by_record, strided_sites_through, ParticipationSite};
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
/// is internally locked, so [`AdvfAnalyzer::analyze`] schedules one
/// object's site ranges, and settles its faults, on several threads, each
/// walking the trace with its own cursor (and thus its own segment reader
/// on the paged backend, sharing decoded segments with the others).  The
/// cache, and with it its DFI verdicts, lives as long as the analyzer; the
/// DFI budget is per call.
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
    /// *Scheduling pass* — the sites are cut into contiguous ranges of 64,
    /// and the workers, the calling thread included, claim the ranges one
    /// at a time.  Per (site, pattern) of a range, the
    /// operation-level verdict is computed once; patterns that need a
    /// propagation replay become *lanes* grouped by record position into
    /// batches of up to [`MAX_REPLAY_LANES`], each walking the trace once
    /// through the worker's [`BatchReplayCursor`] as soon as it closes.
    /// Lanes are indexed within their range.  The sites are enumerated
    /// through the calling thread's cursor, which then schedules its share
    /// of the ranges; each helper opens a cursor of its own.  The
    /// configured patterns are enumerated once per element type and the
    /// lanes' seeds are inline, so the pass allocates per range and per
    /// worker, never per pattern, lane or batch.
    ///
    /// *Plan pass* (only with a resolver) — lists, in fold order, every
    /// fault the fold will inject (same budget, same cache-hit rule) and
    /// settles that list on the same workers.  Faults whose run stays on
    /// the golden path are followed to the end of the trace and, if the
    /// resolver reconstructs their outcome
    /// ([`DfiResolver::classify_same_path`]), never re-run; the rest are
    /// injected.
    ///
    /// *Fold* — the plan pass and the fold visit the ranges in order, and
    /// sites fold into the accumulator in site order; every DFI consult
    /// happens here in (site, pattern) order, reading the planned
    /// verdicts.  The report — DFI run/hit counts and budget exhaustion
    /// included — therefore depends neither on the core count nor on how
    /// or where a verdict was computed.  The call uses every available
    /// core: `available_parallelism()` workers, read once.
    /// `max_dfi_per_object` counts the DFI verdicts of this call only.
    ///
    /// The call never fails: on the paged backend a segment that fails to
    /// decode poisons the trace, and a range stops at the first site whose
    /// record it cannot read.  The report then covers only the sites before
    /// it (`sites_analyzed` says how many), so a direct caller must check
    /// [`TraceStorage::poisoned`] afterwards, as the harness does.
    pub fn analyze(
        &self,
        object: ObjectId,
        object_name: &str,
        workload: &str,
        resolver: Option<&dyn DfiResolver>,
    ) -> AdvfReport {
        self.analyze_on(available_workers(), object, object_name, workload, resolver)
    }

    /// [`AdvfAnalyzer::analyze`] on at most `workers` threads, the calling
    /// thread included.
    fn analyze_on(
        &self,
        workers: usize,
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
        let site_ranges: Vec<&[ParticipationSite]> = sites.chunks(RANGE_SITES).collect();
        let mut ranges = run_indexed_with(
            workers,
            site_ranges.len(),
            RangeWalker::new(cursor, k),
            || RangeWalker::new(BatchReplayCursor::new(self.trace), k),
            |walker, r| walker.schedule(site_ranges[r], &pattern_lists),
        );
        // A range stops at its first unreadable record (the trace is
        // poisoned): analyze the sites before it.
        if let Some(cut) = ranges.iter().position(|r| r.plans.len() < RANGE_SITES) {
            ranges.truncate(cut + 1);
        }

        // Plan pass.
        let planned = resolver.map(|r| self.run_planned(workers, &ranges, r));
        let dfi = planned.as_ref().map(|p| DfiCall::new(p, stats_before));

        // Fold.
        let mut acc = AdvfAccumulator::new();
        let mut tallies: Vec<PatternClassTally> = Vec::new();
        let mut resolved_analytically = 0u64;
        let mut fractions: Vec<(Masking, f64)> = Vec::new();
        for range in &ranges {
            for plan in &range.plans {
                let used_dfi = self.fold_site(
                    plan,
                    &range.tags[plan.tags.clone()],
                    &range.lanes,
                    dfi.as_ref(),
                    &mut tallies,
                    &mut fractions,
                );
                if !used_dfi {
                    resolved_analytically += 1;
                }
                acc.add_participation(&fractions);
            }
        }

        let stats_after = self.cache.stats();
        AdvfReport {
            object: object_name.to_string(),
            workload: workload.to_string(),
            accumulator: acc,
            sites_analyzed: ranges.iter().map(|r| r.plans.len() as u64).sum(),
            dfi_runs: stats_after.injections - stats_before.injections,
            dfi_cache_hits: stats_after.cache_hits - stats_before.cache_hits,
            resolved_analytically,
            dfi_budget_exhausted: dfi.is_some_and(|d| d.exhausted.get()),
            patterns: self.config.patterns.canonical(),
            pattern_tallies: tallies,
            config_fingerprint: self.config.fingerprint(),
        }
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
    fn run_planned<'r>(
        &self,
        workers: usize,
        ranges: &[ScheduledRange],
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
        'plan: for range in ranges {
            for plan in &range.plans {
                let site = plan.site;
                for (pattern, tag) in plan.patterns.iter().zip(&range.tags[plan.tags.clone()]) {
                    if tag.settled(&range.lanes).is_some() {
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
        }
        let mut verdicts: Vec<Option<OutcomeClass>> = vec![None; faults.len()];
        if !lanes.is_empty() {
            let walks = lanes.len().div_ceil(MAX_REPLAY_LANES);
            let settled = run_indexed(workers, walks, |w| {
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
        let injected = run_indexed(workers, pending.len(), |i| {
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
    /// replay results (`lane_results`, its range's), and DFI for whatever
    /// they leave open.  Returns whether DFI was consulted.
    fn fold_site(
        &self,
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
                    self.resolve_dfi(&plan.rec, plan.site, pattern, overshadow, dfi)
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
        // batch grouper's non-decreasing-start invariant never depends on
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
/// scheduling pass.  Replay-dependent verdicts carry the index of their
/// lane within the site's range; the fold pass resolves them (and any DFI)
/// later.
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

/// Participation sites per scheduling range: the unit of work a worker
/// claims in the scheduling pass of [`AdvfAnalyzer::analyze`].
const RANGE_SITES: usize = 64;

/// One site's scheduled work: the site, its trace record, the error
/// patterns of its element type (shared with every site of that type), and
/// where its [`LaneTag`]s, one per pattern, lie in its range's tag list.
struct SitePlan<'s> {
    site: &'s ParticipationSite,
    rec: TraceRecord,
    patterns: &'s [ErrorPattern],
    tags: Range<usize>,
}

/// The scheduled sites of one range, in site order: their plans, their
/// tags, and one replay result per lane, by lane index within the range.
struct ScheduledRange<'s> {
    plans: Vec<SitePlan<'s>>,
    tags: Vec<LaneTag>,
    lanes: Vec<PropagationResult>,
}

/// The configured error patterns, enumerated once per element type for
/// one analysis, each beside its XOR mask; every site of a type shares its
/// lists.
struct PatternLists {
    lists: Vec<(Type, Vec<ErrorPattern>, Vec<u64>)>,
}

impl PatternLists {
    /// Enumerate the patterns of every element type among `sites`.
    fn new(set: &ErrorPatternSet, sites: &[ParticipationSite]) -> Self {
        let mut lists: Vec<(Type, Vec<ErrorPattern>, Vec<u64>)> = Vec::new();
        for site in sites {
            let ty = site.value.ty();
            if !lists.iter().any(|(t, ..)| *t == ty) {
                let patterns = set.patterns_for(ty);
                let masks = patterns.iter().map(ErrorPattern::mask).collect();
                lists.push((ty, patterns, masks));
            }
        }
        PatternLists { lists }
    }

    /// The patterns of element type `ty`, which must be among the sites',
    /// and their masks.
    fn get(&self, ty: Type) -> (&[ErrorPattern], &[u64]) {
        let (_, patterns, masks) = self
            .lists
            .iter()
            .find(|(t, ..)| *t == ty)
            .expect("patterns enumerated for every site's type");
        (patterns, masks)
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

/// One scheduling worker: its trace cursor, the batch grouping of the range
/// it schedules, and buffers it reuses from range to range.
struct RangeWalker<'t> {
    cursor: BatchReplayCursor<'t>,
    k: usize,
    grouper: BatchGrouper,
    /// The open batch.
    batch: Vec<BatchLane>,
    /// One result per lane of the range, once its batch is walked.
    results: Vec<PropagationResult>,
}

impl<'t> RangeWalker<'t> {
    fn new(cursor: BatchReplayCursor<'t>, k: usize) -> Self {
        RangeWalker {
            cursor,
            k,
            grouper: BatchGrouper::new(k),
            batch: Vec::with_capacity(MAX_REPLAY_LANES),
            results: Vec::new(),
        }
    }

    /// Schedule one range of sites: fetch each site's record, classify all
    /// of its patterns with one call to the operation rules, and walk the
    /// replay lanes in batches, each as soon as it closes.  Stops at the
    /// first site whose record cannot be read.
    fn schedule<'s>(
        &mut self,
        sites: &'s [ParticipationSite],
        pattern_lists: &'s PatternLists,
    ) -> ScheduledRange<'s> {
        let patterns_of = |site: &ParticipationSite| pattern_lists.get(site.value.ty());
        let mut plans = Vec::with_capacity(sites.len());
        let mut tags = Vec::with_capacity(sites.iter().map(|s| patterns_of(s).1.len()).sum());
        for site in sites {
            let Some(rec) = self.cursor.fetch(site.record_id) else {
                // The trace is poisoned: the range ends here.
                break;
            };
            let (patterns, masks) = patterns_of(site);
            let first_tag = tags.len();
            analyze_site(&rec, site.slot, masks, |verdict| {
                tags.push(match verdict {
                    OpVerdict::Masked(kind) => LaneTag::Class(Masking::Operation(kind)),
                    OpVerdict::NotMasked => LaneTag::Class(Masking::NotMasked),
                    OpVerdict::NeedsDfi => LaneTag::NeedsDfi,
                    OpVerdict::OvershadowCandidate { corrupt } => {
                        LaneTag::Overshadow(self.push(site, corrupt))
                    }
                    OpVerdict::Propagate { corrupt } => {
                        LaneTag::Propagate(self.push(site, corrupt))
                    }
                })
            });
            plans.push(SitePlan {
                site,
                rec,
                patterns,
                tags: first_tag..tags.len(),
            });
        }
        if !self.batch.is_empty() {
            self.walk_batch();
        }
        let lanes = self.results.to_vec();
        self.results.clear();
        ScheduledRange { plans, tags, lanes }
    }

    /// Append one replay lane starting after `site`'s record (walking the
    /// open batch first if it is full or would span too far) and return
    /// its index within the range.
    fn push(&mut self, site: &ParticipationSite, corrupt: CorruptSeeds) -> usize {
        let start = site.record_id + 1;
        if self.grouper.must_flush(start) {
            self.walk_batch();
        }
        self.grouper.push(start);
        self.batch.push(BatchLane {
            start: start as usize,
            corrupt,
        });
        self.results.len() + self.batch.len() - 1
    }

    /// Walk the open batch and close it.
    fn walk_batch(&mut self) {
        self.cursor
            .replay_batch(&self.batch, self.k, &mut self.results);
        self.batch.clear();
        self.grouper.reset();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::SamePathEnd;
    use crate::sites::SiteSlot;
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
            config_fingerprint: analyzer.config.fingerprint(),
        }
    }

    /// The replay lanes of an analysis of `object`, and how many of them
    /// the replay masks, counted one (site, pattern) at a time through the
    /// operation rules and one [`ReplayCursor`].
    fn replay_lanes(analyzer: &AdvfAnalyzer, object: ObjectId) -> (usize, usize) {
        let k = analyzer.config.propagation_window;
        let mut cursor = ReplayCursor::new(analyzer.trace);
        let (mut lanes, mut masked) = (0, 0);
        for site in analyzer.pattern_sites(object) {
            let rec = cursor.fetch(site.record_id).unwrap();
            for pattern in analyzer.config.patterns.patterns_for(site.value.ty()) {
                if let OpVerdict::Propagate { corrupt }
                | OpVerdict::OvershadowCandidate { corrupt } =
                    analyze_operation(&rec, site.slot, &pattern)
                {
                    lanes += 1;
                    if cursor.replay(rec.id as usize + 1, &corrupt, k).is_masked() {
                        masked += 1;
                    }
                }
            }
        }
        (lanes, masked)
    }

    /// Schedule every range of `object` on the calling thread, check that
    /// each range's replay tags name its lanes in order, each once, and
    /// return the number of lanes.
    fn scheduled_lanes(analyzer: &AdvfAnalyzer, object: ObjectId) -> usize {
        let mut cursor = BatchReplayCursor::new(analyzer.trace);
        let sites = analyzer.pattern_sites_through(cursor.reader(), object);
        let lists = PatternLists::new(&analyzer.config.patterns, &sites);
        let mut walker = RangeWalker::new(cursor, analyzer.config.propagation_window);
        let mut lanes = 0;
        for range in sites.chunks(RANGE_SITES) {
            let scheduled = walker.schedule(range, &lists);
            assert_eq!(scheduled.plans.len(), range.len());
            let named: Vec<usize> = scheduled
                .tags
                .iter()
                .filter_map(|tag| match *tag {
                    LaneTag::Overshadow(lane) | LaneTag::Propagate(lane) => Some(lane),
                    _ => None,
                })
                .collect();
            assert_eq!(named, (0..scheduled.lanes.len()).collect::<Vec<_>>());
            lanes += scheduled.lanes.len();
        }
        lanes
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
        // run/hit counts, budget exhaustion — must match bit-for-bit.
        // Budgets cut the planned faults mid-object, and the resolvers
        // prove the plan settles exactly what the fold consumes: one
        // injection or reconstruction per counted run, no fault twice.  A
        // reconstructing resolver must change nothing in the report.  The
        // scheduling pass must replay exactly the lanes the operation rules
        // ask for.
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
                        let (lanes, _) = replay_lanes(&analyzer, obj);
                        assert!(lanes > 0, "{case}");
                        assert_eq!(scheduled_lanes(&analyzer, obj), lanes, "{case}");
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
                            assert_eq!(report, expected, "{case}");
                            assert_eq!(report.advf().to_bits(), expected.advf().to_bits());
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
    /// serve each record listed in `served` alone and no other record in
    /// `fails_from..fails_to`, poisoning the trace instead — as a paged
    /// trace does when a segment stops decoding after site enumeration.
    /// The count spans every reader of the trace.  It also records the threads
    /// that open readers, and a `home` thread, if set, is the only one that
    /// may open one without a panic.
    struct FailingReads<'t> {
        trace: &'t dyn TraceStorage,
        fails_from: u64,
        fails_to: u64,
        healthy: usize,
        served: HashSet<u64>,
        home: Option<std::thread::ThreadId>,
        reads: AtomicUsize,
        poison: Mutex<Option<TraceError>>,
        readers: Mutex<HashSet<std::thread::ThreadId>>,
    }

    impl<'t> FailingReads<'t> {
        fn new(trace: &'t dyn TraceStorage, fails_from: u64, healthy: usize) -> Self {
            FailingReads {
                trace,
                fails_from,
                fails_to: u64::MAX,
                healthy,
                served: HashSet::new(),
                home: None,
                reads: AtomicUsize::new(0),
                poison: Mutex::new(None),
                readers: Mutex::new(HashSet::new()),
            }
        }

        /// A wrapper that serves every read.
        fn healthy(trace: &'t dyn TraceStorage) -> Self {
            Self::new(trace, u64::MAX, 0)
        }

        /// Whether every reader was opened on the calling thread.
        fn read_on_this_thread_only(&self) -> bool {
            let readers = self.readers.lock().unwrap();
            readers.len() == 1 && readers.contains(&std::thread::current().id())
        }
    }

    impl TraceStorage for FailingReads<'_> {
        fn len(&self) -> u64 {
            self.trace.len()
        }

        fn index(&self) -> &TraceIndex {
            self.trace.index()
        }

        fn stats(&self) -> TraceStats {
            self.trace.stats()
        }

        fn backend_name(&self) -> &'static str {
            "failing"
        }

        fn new_reader(&self) -> Box<dyn TraceRead + '_> {
            let thread = std::thread::current().id();
            assert!(
                self.home.is_none_or(|home| home == thread),
                "reader off home"
            );
            self.readers.lock().unwrap().insert(thread);
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
            let storage = self.storage;
            if storage.reads.fetch_add(1, Ordering::SeqCst) < storage.healthy {
                return self.inner.run_from(id);
            }
            if storage.served.contains(&id) {
                return &self.inner.run_from(id)[..1];
            }
            if (storage.fails_from..storage.fails_to).contains(&id) {
                storage
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
            if id >= storage.fails_to {
                return run;
            }
            &run[..run.len().min((storage.fails_from - id) as usize)]
        }
    }

    /// `y = v[i] * 3.0; if y > 0.0 { out[i] = 1.0 } if y > 300.0 { out[i] =
    /// 2.0 }` over 200 elements: every flip of a `v[i]` load is a replay
    /// lane, masked unless it turns a branch, so a site's lowest bit is
    /// always masked and its sign bit never.  Its 200 sites make four
    /// scheduling ranges.
    fn loop_module() -> Module {
        const N: i64 = 200;
        let mut m = Module::new("loop");
        let init: Vec<f64> = (0..N).map(|i| 0.5 + i as f64).collect();
        let v = m.add_global(Global::from_f64("v", &init));
        let out = m.add_global(Global::zeroed("out", Type::F64, N as u64));
        let mut f = FunctionBuilder::new("main", &[], None);
        f.for_loop(Operand::const_i64(0), Operand::const_i64(N), |f, i| {
            let x = f.load_elem(Type::F64, v, Operand::Reg(i));
            let y = f.fmul(Operand::Reg(x), Operand::const_f64(3.0));
            for (threshold, mark) in [(0.0, 1.0), (300.0, 2.0)] {
                let threshold = Operand::const_f64(threshold);
                let c = f.cmp(CmpPred::FOgt, Operand::Reg(y), threshold);
                f.if_then(Operand::Reg(c), |f| {
                    let mark = Operand::const_f64(mark);
                    f.store_elem(Type::F64, out, Operand::Reg(i), mark);
                });
            }
        });
        f.ret(None);
        m.add_function(f.finish());
        moard_ir::verify::assert_verified(&m);
        m
    }

    /// The same trace on the paged backend, with segments of 16 records.
    fn paged_copy(trace: &moard_vm::Trace) -> moard_vm::TraceData {
        let mut builder = moard_vm::TraceBuilder::for_spec(&moard_vm::TraceBackendSpec::Paged {
            dir: None,
            segment_records: 16,
        })
        .unwrap();
        for rec in trace.iter() {
            builder.push(rec.clone());
        }
        builder.finish().unwrap()
    }

    #[test]
    fn reports_do_not_depend_on_the_worker_count() {
        // Whole reports are equal on 1, 2 and 3 workers, and equal to the
        // oracle's: on both backends, without a resolver and with a
        // reconstructing one.  One worker, or no more sites than one
        // range, opens readers on the calling thread only; the loop
        // kernel's ranges go to helpers too.
        let mut multi_range = 0;
        for (m, object) in [
            (listing1_module(), "par_a"),
            (overshadow_module(), "x"),
            (loop_module(), "v"),
        ] {
            let (_, memory) = run_traced(&m).unwrap();
            let paged = paged_copy(&memory);
            let obj = Vm::with_defaults(&m)
                .unwrap()
                .objects()
                .by_name(object)
                .unwrap()
                .id;
            let config = AnalysisConfig {
                max_dfi_per_object: Some(40),
                ..Default::default()
            };
            for (backend, trace) in [("memory", &memory as &dyn TraceStorage), ("paged", &paged)] {
                let analyzer = AdvfAnalyzer::new(trace, config.clone());
                let sites = analyzer.pattern_sites(obj).len();
                let (lanes, masked) = replay_lanes(&analyzer, obj);
                assert!(masked > 0, "{object} {backend}: {lanes} lanes, none masked");
                assert_eq!(scheduled_lanes(&analyzer, obj), lanes, "{object} {backend}");
                for reconstructs in [false, true] {
                    let reports: Vec<AdvfReport> = [1, 2, 3]
                        .into_iter()
                        .map(|workers| {
                            let resolver = CountingResolver::reconstructing(&m);
                            let resolver = reconstructs.then_some(&resolver as &dyn DfiResolver);
                            let probe = FailingReads::healthy(trace);
                            let report = AdvfAnalyzer::new(&probe, config.clone())
                                .analyze_on(workers, obj, object, "kernel", resolver);
                            // The plan pass's threads open readers too.
                            if resolver.is_none() && (workers == 1 || sites <= RANGE_SITES) {
                                assert!(probe.read_on_this_thread_only(), "{object} {workers}");
                            }
                            if resolver.is_none() && workers > 1 && sites > RANGE_SITES {
                                assert!(!probe.read_on_this_thread_only(), "{object} {workers}");
                                multi_range += 1;
                            }
                            report
                        })
                        .collect();
                    let case = format!("{object} {backend} reconstructs={reconstructs}");
                    assert_eq!(reports[1], reports[0], "{case}: 2 workers");
                    assert_eq!(reports[2], reports[0], "{case}: 3 workers");
                    // And every lane's result is stored at its own index.
                    let resolver = CountingResolver::new(&m);
                    let resolver = reconstructs.then_some(&resolver as &dyn DfiResolver);
                    let analyzer = AdvfAnalyzer::new(trace, config.clone());
                    let expected = oracle(&analyzer, obj, object, "kernel", resolver);
                    assert_eq!(reports[0], expected, "{case}");
                }
            }
        }
        assert_eq!(multi_range, 4, "the loop kernel has several ranges");
    }

    #[test]
    fn failing_walks_give_the_same_report_at_every_worker_count() {
        // Scheduling fetches every site's record, then every other read
        // fails: the walks of every range, on whichever thread, are cut
        // short the same way, the trace is poisoned, and every site is
        // still analyzed.
        let m = loop_module();
        let (_, trace) = run_traced(&m).unwrap();
        let obj = Vm::with_defaults(&m)
            .unwrap()
            .objects()
            .by_name("v")
            .unwrap()
            .id;
        let config = AnalysisConfig::default();
        let sites = AdvfAnalyzer::new(&trace, config.clone()).pattern_sites(obj);
        assert!(sites.len() > 3 * RANGE_SITES);
        let enumeration_reads = TraceStorage::index(&trace).ids(obj).len();
        for use_dfi in [false, true] {
            let reports: Vec<AdvfReport> = [1, 2, 3]
                .into_iter()
                .map(|workers| {
                    let resolver = CountingResolver::new(&m);
                    let resolver = use_dfi.then_some(&resolver as &dyn DfiResolver);
                    let mut failing = FailingReads::new(&trace, 0, enumeration_reads);
                    failing.served = sites.iter().map(|s| s.record_id).collect();
                    let report = AdvfAnalyzer::new(&failing, config.clone())
                        .analyze_on(workers, obj, "v", "loop", resolver);
                    assert!(failing.poisoned().is_some(), "workers={workers}");
                    assert_eq!(report.sites_analyzed, sites.len() as u64);
                    report
                })
                .collect();
            assert_eq!(reports[1], reports[0], "dfi={use_dfi}: 2 workers");
            assert_eq!(reports[2], reports[0], "dfi={use_dfi}: 3 workers");
        }
    }

    #[test]
    fn a_helper_panic_is_a_panic_of_analyze() {
        // Readers opened off the calling thread panic: with one worker the
        // analysis completes; with two, the helper's panic comes out of
        // `analyze` instead of leaving it waiting for the helper.
        let m = loop_module();
        let (_, trace) = run_traced(&m).unwrap();
        let obj = Vm::with_defaults(&m)
            .unwrap()
            .objects()
            .by_name("v")
            .unwrap()
            .id;
        let mut probe = FailingReads::healthy(&trace);
        probe.home = Some(std::thread::current().id());
        let analyzer = AdvfAnalyzer::new(&probe, AnalysisConfig::default());
        let alone = analyzer.analyze_on(1, obj, "v", "loop", None);
        assert_eq!(
            alone,
            AdvfAnalyzer::new(&trace, AnalysisConfig::default()).analyze(obj, "v", "loop", None)
        );
        let helped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            analyzer.analyze_on(2, obj, "v", "loop", None)
        }));
        assert!(helped.is_err());
    }

    #[test]
    fn unreadable_site_record_stops_the_analysis_without_panicking() {
        // Every read after site enumeration fails, then only the reads past
        // the middle site, then, on the loop kernel, whose 200 sites make
        // four ranges, only the record of one site in the second range:
        // `analyze` returns every time, on 1 and 2 workers, with and
        // without a resolver, covering exactly the sites before the first
        // unreadable record even though later ranges read theirs, and
        // leaves the poison for its caller to check.
        for (m, object) in [(listing1_module(), "par_a"), (loop_module(), "v")] {
            let (_, trace) = run_traced(&m).unwrap();
            let vm = Vm::with_defaults(&m).unwrap();
            let obj = vm.objects().by_name(object).unwrap().id;
            let config = AnalysisConfig::default();
            let sites = AdvfAnalyzer::new(&trace, config.clone()).pattern_sites(obj);
            // Enumeration reads each record the object's index lists, once.
            let enumeration_reads = TraceStorage::index(&trace).ids(obj).len();
            // Unreadable records: `fails_from..fails_to`.
            let bands = if sites.len() > RANGE_SITES {
                let id = sites[RANGE_SITES + RANGE_SITES / 2].record_id;
                vec![(id, id + 1)]
            } else {
                vec![(0, u64::MAX), (sites[sites.len() / 2].record_id, u64::MAX)]
            };
            for (fails_from, fails_to) in bands {
                let scheduled = sites.iter().filter(|s| s.record_id < fails_from).count() as u64;
                assert!(fails_from == 0 || scheduled > 0);
                for (use_dfi, workers) in [(false, 1), (false, 2), (true, 1), (true, 2)] {
                    let mut failing = FailingReads::new(&trace, fails_from, enumeration_reads);
                    failing.fails_to = fails_to;
                    let resolver = CountingResolver::new(&m);
                    let resolver = use_dfi.then_some(&resolver as &dyn DfiResolver);
                    let report = AdvfAnalyzer::new(&failing, config.clone())
                        .analyze_on(workers, obj, object, "kernel", resolver);
                    let case = format!(
                        "{object} {fails_from}..{fails_to} dfi={use_dfi} workers={workers}"
                    );
                    assert!(failing.poisoned().is_some(), "{case}");
                    assert_eq!(report.sites_analyzed, scheduled, "{case}");
                    assert_eq!(report.accumulator.participations, scheduled, "{case}");
                }
            }
        }
    }
}
