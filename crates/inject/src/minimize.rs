//! The fault-scenario minimizer: shrink a reproducing failure to a
//! 1-minimal scenario spec (delta debugging over the exact engine).
//!
//! A surprising campaign outcome — an SDC the model missed, a
//! model-optimistic validation cell — names a whole population: many
//! participation sites, a multi-bit error pattern, a generous propagation
//! window.  The minimizer delta-debugs three axes against the *same
//! deterministic engine* that discovered the failure:
//!
//! * the **strided site population** — ddmin over site subsets, the
//!   reproduction test being "some surviving site still yields the expected
//!   outcome class under the deterministic injector";
//! * the **error pattern's bit mask** — ddmin over the set bits, same
//!   oracle;
//! * the **replay window** `[0, k]` — bisection to the smallest `k` under
//!   which the analytic pipeline still classifies the reproducer the same
//!   way, followed by a single-step check so the result is 1-minimal even
//!   if the classification is not monotone in `k`.
//!
//! Site and bit minimization run to a joint fixpoint, so dropping *any*
//! single site or bit from the result no longer reproduces.  Every oracle
//! probe is memoized by `(record, slot, mask)`; the probe order is fixed
//! and the engine is deterministic, so the minimizer's output is
//! byte-identical across runs and thread counts.  The result is frozen as
//! a [`ScenarioSpec`] (see [`moard_core::scenario`]) whose fragment
//! fingerprint pins the replay bit-exactly.

use crate::cancel::CancelToken;
use crate::harness::WorkloadHarness;
use crate::injector::DeterministicInjector;
use crate::runner::Runner;
use moard_core::scenario::{masking_to_str, outcome_to_str, slot_to_string};
use moard_core::{
    AdvfAnalyzer, AnalysisConfig, CellVerdict, ErrorPattern, ErrorPatternSet, Masking, MoardError,
    ParticipationSite, ScenarioFragment, ScenarioSite, ScenarioSpec, SiteSlot, ValidationReport,
    SCHEMA_VERSION,
};
use moard_json::{FromJson, Json, JsonError, ToJson};
use moard_vm::{FaultSpec, OutcomeClass};
use moard_workloads::WorkloadRegistry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Declarative input of one minimization: where the failure lives and what
/// verdict must keep reproducing.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeSpec {
    /// Workload name or alias.
    pub workload: String,
    /// Data-object name.
    pub object: String,
    /// Stride of the starting site population (1 = every site), matching
    /// the analysis/validation population the failure came from.
    pub stride: usize,
    /// Restrict the starting population to one explicit site instead of
    /// the strided enumeration.
    pub site: Option<ScenarioSite>,
    /// Explicit starting error pattern (the failure's bit mask).  When
    /// absent, the finder scans `patterns` for a reproducing pattern.
    pub pattern: Option<ErrorPattern>,
    /// Candidate pattern set the finder scans when no explicit pattern is
    /// given (the campaign's pattern family).
    pub patterns: ErrorPatternSet,
    /// Starting propagation window `k` of the model leg.
    pub window: usize,
    /// The outcome class to reproduce.  `None` reproduces the first
    /// non-success (incorrect or crashed) outcome the finder encounters.
    pub expected: Option<OutcomeClass>,
    /// Provenance seed recorded in the emitted scenario.
    pub seed: u64,
    /// Scenario name override (defaults to `<workload>-<object>-<outcome>`).
    pub name: Option<String>,
}

impl Default for MinimizeSpec {
    fn default() -> Self {
        MinimizeSpec {
            workload: String::new(),
            object: String::new(),
            stride: 1,
            site: None,
            pattern: None,
            patterns: ErrorPatternSet::SingleBit,
            window: AnalysisConfig::default().propagation_window,
            expected: None,
            seed: 0,
            name: None,
        }
    }
}

impl MinimizeSpec {
    /// A spec targeting one (workload, object) cell with the defaults.
    pub fn cell(workload: impl Into<String>, object: impl Into<String>) -> Self {
        MinimizeSpec {
            workload: workload.into(),
            object: object.into(),
            ..Default::default()
        }
    }

    /// Set the site-population stride.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Restrict the population to one explicit site.
    pub fn site(mut self, record_id: u64, slot: SiteSlot) -> Self {
        self.site = Some(ScenarioSite { record_id, slot });
        self
    }

    /// Set the explicit starting error pattern.
    pub fn pattern(mut self, pattern: ErrorPattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Set the finder's candidate pattern set.
    pub fn patterns(mut self, patterns: ErrorPatternSet) -> Self {
        self.patterns = patterns;
        self
    }

    /// Set the starting propagation window.
    pub fn window(mut self, k: usize) -> Self {
        self.window = k;
        self
    }

    /// Pin the outcome class to reproduce.
    pub fn expected(mut self, outcome: OutcomeClass) -> Self {
        self.expected = Some(outcome);
        self
    }

    /// Set the provenance seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the emitted scenario's name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Check the specification is well-formed.
    pub fn validate(&self) -> Result<(), MoardError> {
        if self.workload.is_empty() || self.object.is_empty() {
            return Err(MoardError::InvalidConfig(
                "minimize needs a workload and a data object".into(),
            ));
        }
        if self.stride == 0 {
            return Err(MoardError::InvalidConfig(
                "site stride must be >= 1 (1 scans every site)".into(),
            ));
        }
        if let Some(pattern) = &self.pattern {
            if pattern.bits.is_empty() {
                return Err(MoardError::InvalidConfig(
                    "the starting error pattern must flip at least one bit".into(),
                ));
            }
            if !pattern.is_normalized() || pattern.bits.iter().any(|b| *b >= 64) {
                return Err(MoardError::InvalidConfig(format!(
                    "the starting error pattern must be normalized bits below 64, got {:?}",
                    pattern.bits
                )));
            }
        }
        Ok(())
    }
}

impl ToJson for MinimizeSpec {
    fn to_json(&self) -> Json {
        let mut members: Vec<(&'static str, Json)> = vec![
            ("workload", Json::from(self.workload.as_str())),
            ("object", Json::from(self.object.as_str())),
            ("stride", Json::from(self.stride as u64)),
        ];
        if let Some(site) = &self.site {
            members.push((
                "site",
                Json::object([
                    ("record_id", Json::from(site.record_id)),
                    ("slot", Json::from(slot_to_string(site.slot).as_str())),
                ]),
            ));
        }
        if let Some(pattern) = &self.pattern {
            members.push((
                "pattern_bits",
                Json::array(pattern.bits.iter().map(|b| Json::from(*b))),
            ));
        }
        members.push(("patterns", Json::from(self.patterns.canonical().as_str())));
        members.push(("window", Json::from(self.window as u64)));
        if let Some(expected) = self.expected {
            members.push(("expected", Json::from(outcome_to_str(expected))));
        }
        members.push(("seed", Json::from(self.seed)));
        if let Some(name) = &self.name {
            members.push(("name", Json::from(name.as_str())));
        }
        Json::object(members)
    }
}

impl FromJson for MinimizeSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let site = match value.get("site") {
            None => None,
            Some(site) => Some(ScenarioSite {
                record_id: site.u64_field("record_id")?,
                slot: moard_core::scenario::slot_from_str(site.str_field("slot")?)?,
            }),
        };
        let pattern = match value.get("pattern_bits") {
            None => None,
            Some(bits) => {
                let bits = bits.as_array().ok_or(JsonError::WrongType {
                    field: "pattern_bits".into(),
                    expected: "an array of bit positions",
                })?;
                let bits = bits
                    .iter()
                    .map(|b| {
                        b.as_u64()
                            .and_then(|b| u32::try_from(b).ok())
                            .ok_or(JsonError::WrongType {
                                field: "pattern_bits".into(),
                                expected: "an array of bit positions",
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(ErrorPattern { bits })
            }
        };
        let patterns = ErrorPatternSet::from_canonical(value.str_field("patterns")?).ok_or(
            JsonError::WrongType {
                field: "patterns".into(),
                expected: "a canonical error-pattern set",
            },
        )?;
        let expected = match value.get("expected") {
            None => None,
            Some(e) => Some(moard_core::scenario::outcome_from_str(e.as_str().ok_or(
                JsonError::WrongType {
                    field: "expected".into(),
                    expected: "an outcome class string",
                },
            )?)?),
        };
        let name = match value.get("name") {
            None => None,
            Some(n) => Some(
                n.as_str()
                    .ok_or(JsonError::WrongType {
                        field: "name".into(),
                        expected: "a string",
                    })?
                    .to_string(),
            ),
        };
        Ok(MinimizeSpec {
            workload: value.str_field("workload")?.to_string(),
            object: value.str_field("object")?.to_string(),
            stride: value.u64_field("stride")? as usize,
            site,
            pattern,
            patterns,
            window: value.u64_field("window")? as usize,
            expected,
            seed: value.u64_field("seed")?,
            name,
        })
    }
}

/// Result of one minimization: the frozen scenario plus the shrink facts.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeReport {
    /// The 1-minimal reproducer.
    pub scenario: ScenarioSpec,
    /// Site-population size before minimization.
    pub initial_sites: u64,
    /// Flipped-bit count before minimization.
    pub initial_bits: u32,
    /// Propagation window before minimization.
    pub initial_window: u64,
    /// Oracle probes, including memoized hits.
    pub probes: u64,
    /// Distinct injector executions (probes minus memoized hits).
    pub injections: u64,
}

impl MinimizeReport {
    /// Memoized oracle probes answered without re-running the VM.
    pub fn cache_hits(&self) -> u64 {
        self.probes - self.injections
    }
}

impl ToJson for MinimizeReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("moard-minimize")),
            ("scenario", self.scenario.to_json()),
            ("initial_sites", Json::from(self.initial_sites)),
            ("initial_bits", Json::from(self.initial_bits)),
            ("initial_window", Json::from(self.initial_window)),
            ("probes", Json::from(self.probes)),
            ("injections", Json::from(self.injections)),
        ])
    }
}

impl MinimizeReport {
    /// Rebuild from a JSON document (checks both schema versions).
    pub fn from_json(doc: &Json) -> Result<MinimizeReport, MoardError> {
        moard_core::check_schema_version(doc)?;
        let probes = doc.u64_field("probes")?;
        let injections = doc.u64_field("injections")?;
        if injections > probes {
            return Err(MoardError::Json(JsonError::WrongType {
                field: "injections".into(),
                expected: "at most the probe count",
            }));
        }
        Ok(MinimizeReport {
            scenario: ScenarioSpec::from_json(doc.field("scenario")?)?,
            initial_sites: doc.u64_field("initial_sites")?,
            initial_bits: doc.u32_field("initial_bits")?,
            initial_window: doc.u64_field("initial_window")?,
            probes,
            injections,
        })
    }

    /// Parse a report serialized with [`ToJson::to_json`].
    pub fn from_json_str(text: &str) -> Result<MinimizeReport, MoardError> {
        MinimizeReport::from_json(&Json::parse(text)?)
    }
}

/// The memoized reproduction oracle: one deterministic injection per
/// distinct `(record, slot, mask)`, every repeat answered from the cache.
struct Oracle<'h> {
    injector: &'h DeterministicInjector,
    cancel: CancelToken,
    cache: HashMap<(u64, SiteSlot, u64), OutcomeClass>,
    probes: u64,
    injections: u64,
}

impl<'h> Oracle<'h> {
    fn new(injector: &'h DeterministicInjector, cancel: CancelToken) -> Self {
        Oracle {
            injector,
            cancel,
            cache: HashMap::new(),
            probes: 0,
            injections: 0,
        }
    }

    /// Classified outcome of injecting `mask` at `site`.
    fn outcome(&mut self, site: &ParticipationSite, mask: u64) -> Result<OutcomeClass, MoardError> {
        self.probes += 1;
        let key = (site.record_id, site.slot, mask);
        if let Some(class) = self.cache.get(&key) {
            return Ok(*class);
        }
        self.cancel.checkpoint()?;
        let fault = FaultSpec::masked(site.record_id, site.slot.fault_target(), mask);
        let class = self.injector.run_classified(&fault);
        self.injections += 1;
        self.cache.insert(key, class);
        Ok(class)
    }

    /// True if some site of the subset reproduces `expected` under `mask`.
    fn reproduces(
        &mut self,
        sites: &[ParticipationSite],
        mask: u64,
        expected: OutcomeClass,
    ) -> Result<bool, MoardError> {
        for site in sites {
            if self.outcome(site, mask)? == expected {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Zeller's ddmin: shrink `current` to a 1-minimal subset still passing
/// `test`.  Precondition: `test(&current)` holds.  Subset order is
/// preserved, the candidate order is fixed, and the empty set is never
/// tested — so the result is deterministic and never empty.
///
/// Public because it is the generic shrinking engine both minimization
/// axes share (and the anchor of the property-test suite); most callers
/// want [`minimize`] instead.
pub fn ddmin<T: Clone>(
    mut current: Vec<T>,
    mut test: impl FnMut(&[T]) -> Result<bool, MoardError>,
) -> Result<Vec<T>, MoardError> {
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        // Try each chunk-sized subset.
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let subset = current[start..end].to_vec();
            if test(&subset)? {
                current = subset;
                n = 2;
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }
        // Try each complement (for n == 2 the complements are the subsets
        // again, so skip them).
        if n > 2 {
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let mut complement = current[..start].to_vec();
                complement.extend_from_slice(&current[end..]);
                if test(&complement)? {
                    current = complement;
                    n = (n - 1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
        }
        if !reduced {
            if chunk <= 1 {
                // Singleton granularity and nothing reproduces on any
                // subset or complement: 1-minimal.
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    Ok(current)
}

fn mask_of(bits: &[u32]) -> u64 {
    bits.iter()
        .fold(0u64, |m, b| m | 1u64.checked_shl(*b).unwrap_or(0))
}

/// Derive the default scenario name slug.
fn default_name(workload: &str, object: &str, outcome: OutcomeClass) -> String {
    let slug = |text: &str| -> String {
        text.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    };
    format!(
        "{}-{}-{}",
        slug(workload),
        slug(object),
        outcome_to_str(outcome)
    )
}

/// Classify one (site, pattern) through the full analytic pipeline under
/// window `k` — the window axis of the reproduction oracle.
fn model_class_at(
    harness: &WorkloadHarness,
    site: &ParticipationSite,
    pattern: &ErrorPattern,
    k: usize,
) -> Result<Masking, MoardError> {
    let rec = harness.trace().record(site.record_id).ok_or_else(|| {
        MoardError::InvalidConfig(format!(
            "trace record {} vanished during minimization",
            site.record_id
        ))
    })?;
    let config = AnalysisConfig {
        propagation_window: k,
        patterns: ErrorPatternSet::Explicit(vec![pattern.clone()]),
        site_stride: 1,
        ..Default::default()
    };
    let analyzer = AdvfAnalyzer::new(harness.trace(), config);
    let resolver = harness.injector() as &dyn moard_core::DfiResolver;
    Ok(analyzer
        .classify(&rec, site, pattern.clone(), Some(resolver))
        .0)
}

/// Run one minimization against a prepared harness.  See the module docs
/// for the axes and the oracle; the result is deterministic for a given
/// `(harness, spec)` regardless of thread count.
pub fn minimize(
    harness: &WorkloadHarness,
    spec: &MinimizeSpec,
    cancel: &CancelToken,
) -> Result<MinimizeReport, MoardError> {
    spec.validate()?;
    let workload = harness.workload().name().to_string();

    // The starting site population: the strided enumeration (the population
    // of the analysis or campaign that discovered the failure), or one
    // explicit site resolved against the full enumeration.
    let population: Vec<ParticipationSite> = match &spec.site {
        Some(wanted) => {
            let all = harness.sites(&spec.object)?;
            let site = all
                .into_iter()
                .find(|s| s.record_id == wanted.record_id && s.slot == wanted.slot)
                .ok_or_else(|| {
                    MoardError::InvalidConfig(format!(
                        "site record {} ({}) does not exist in `{}/{}`",
                        wanted.record_id,
                        slot_to_string(wanted.slot),
                        workload,
                        spec.object
                    ))
                })?;
            vec![site]
        }
        None => harness.strided_sites(&spec.object, spec.stride)?,
    };
    if population.is_empty() {
        return Err(MoardError::NoParticipationSites {
            workload,
            object: spec.object.clone(),
        });
    }

    let mut oracle = Oracle::new(harness.injector(), cancel.clone());

    // Find the reproducer: the first (site, pattern) in fixed scan order
    // whose classified outcome matches the requested verdict.
    let mut found: Option<(ErrorPattern, OutcomeClass)> = None;
    'find: for site in &population {
        let candidates = match &spec.pattern {
            Some(p) => vec![p.clone()],
            None => spec.patterns.patterns_for(site.value.ty()),
        };
        for pattern in candidates {
            let class = oracle.outcome(site, pattern.mask())?;
            let hit = match spec.expected {
                Some(expected) => class == expected,
                None => !class.is_success(),
            };
            if hit {
                found = Some((pattern, class));
                break 'find;
            }
        }
    }
    let (pattern0, expected) = found.ok_or_else(|| {
        MoardError::InvalidConfig(format!(
            "nothing to minimize: no injection over `{}/{}` ({} sites, patterns {}) reproduces {}",
            workload,
            spec.object,
            population.len(),
            spec.pattern
                .as_ref()
                .map(|p| format!("{:?}", p.bits))
                .unwrap_or_else(|| spec.patterns.canonical()),
            spec.expected
                .map(|e| outcome_to_str(e).to_string())
                .unwrap_or_else(|| "a failure (incorrect or crashed)".to_string()),
        ))
    })?;

    let initial_sites = population.len() as u64;
    let initial_bits = pattern0.bits.len() as u32;

    // ddmin the site population and the pattern bits to a joint fixpoint:
    // each pass can only shrink, so this terminates, and afterwards
    // removing any single site or bit no longer reproduces.
    let mut sites = population;
    let mut bits = pattern0.bits.clone();
    loop {
        let before = (sites.len(), bits.len());
        let mask = mask_of(&bits);
        sites = ddmin(sites, |subset| oracle.reproduces(subset, mask, expected))?;
        bits = ddmin(bits, |bitset| {
            oracle.reproduces(&sites, mask_of(bitset), expected)
        })?;
        if (sites.len(), bits.len()) == before {
            break;
        }
    }
    let pattern = ErrorPattern { bits };
    let mask = pattern.mask();

    // Per-site outcomes of the minimal reproducer (memoized: free).
    let mut outcomes = Vec::with_capacity(sites.len());
    for site in &sites {
        let scenario_site = ScenarioSite {
            record_id: site.record_id,
            slot: site.slot,
        };
        outcomes.push((scenario_site, oracle.outcome(site, mask)?));
    }

    // Window bisection: the smallest k under which the analytic pipeline
    // still classifies the witness the same way as the starting window.
    // The invariant `pred(hi)` holds throughout; the trailing single-step
    // loop certifies 1-minimality even if the predicate is not monotone.
    let witness = &sites[0];
    let target = model_class_at(harness, witness, &pattern, spec.window)?;
    let (mut lo, mut hi) = (0usize, spec.window);
    while lo < hi {
        cancel.checkpoint()?;
        let mid = lo + (hi - lo) / 2;
        if model_class_at(harness, witness, &pattern, mid)? == target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut window = lo;
    while window > 0 && model_class_at(harness, witness, &pattern, window - 1)? == target {
        window -= 1;
    }

    let name = spec
        .name
        .clone()
        .unwrap_or_else(|| default_name(&workload, &spec.object, expected));
    let fragment = ScenarioFragment {
        workload: workload.clone(),
        object: spec.object.clone(),
        outcomes: outcomes.clone(),
        pattern: pattern.clone(),
        window,
        model_class: target,
    };
    let scenario = ScenarioSpec {
        name,
        workload,
        object: spec.object.clone(),
        sites: outcomes.into_iter().map(|(site, _)| site).collect(),
        pattern,
        window,
        seed: spec.seed,
        expected_outcome: expected,
        expected_model_class: target,
        fragment_fingerprint: fragment.fingerprint(),
    };
    scenario.validate()?;
    Ok(MinimizeReport {
        scenario,
        initial_sites,
        initial_bits,
        initial_window: spec.window as u64,
        probes: oracle.probes,
        injections: oracle.injections,
    })
}

impl Runner {
    /// Resolve the workload through a registry (sharing any warm harness in
    /// the runner's cache) and run [`minimize`] under the runner's cancel
    /// token.
    pub fn minimize(
        &self,
        spec: &MinimizeSpec,
        registry: &dyn WorkloadRegistry,
    ) -> Result<MinimizeReport, MoardError> {
        let harness = self.harnesses.get_or_prepare(registry, &spec.workload)?;
        minimize(&harness, spec, &self.cancel)
    }
}

/// The replayed observations of a committed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReplay {
    /// The canonical replay fragment (hash it with
    /// [`ScenarioFragment::fingerprint`]).
    pub fragment: ScenarioFragment,
}

impl ScenarioReplay {
    /// The replay's fragment fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fragment.fingerprint()
    }

    /// Everything that diverged from the spec's expectations, rendered for
    /// a test-failure message; `None` when the replay matches bit-exactly.
    pub fn mismatch(&self, spec: &ScenarioSpec) -> Option<String> {
        let mut problems = Vec::new();
        for (site, outcome) in &self.fragment.outcomes {
            if *outcome != spec.expected_outcome {
                problems.push(format!(
                    "site record {} ({}): outcome {}, expected {}",
                    site.record_id,
                    slot_to_string(site.slot),
                    outcome_to_str(*outcome),
                    outcome_to_str(spec.expected_outcome),
                ));
            }
        }
        if self.fragment.model_class != spec.expected_model_class {
            problems.push(format!(
                "model class {} under window {}, expected {}",
                masking_to_str(self.fragment.model_class),
                spec.window,
                masking_to_str(spec.expected_model_class),
            ));
        }
        if self.fingerprint() != spec.fragment_fingerprint {
            problems.push(format!(
                "fragment fingerprint {:016x}, expected {:016x}",
                self.fingerprint(),
                spec.fragment_fingerprint,
            ));
        }
        if problems.is_empty() {
            None
        } else {
            Some(problems.join("; "))
        }
    }
}

/// Replay a scenario spec against a prepared harness: resolve every site
/// by `(record_id, slot)` in the fresh trace, inject the pattern at each,
/// and classify the first site under the spec's window.
pub fn replay_scenario(
    harness: &WorkloadHarness,
    spec: &ScenarioSpec,
) -> Result<ScenarioReplay, MoardError> {
    spec.validate()?;
    let all = harness.sites(&spec.object)?;
    let mut outcomes = Vec::with_capacity(spec.sites.len());
    let mut resolved = Vec::with_capacity(spec.sites.len());
    for wanted in &spec.sites {
        let site = all
            .iter()
            .find(|s| s.record_id == wanted.record_id && s.slot == wanted.slot)
            .ok_or_else(|| {
                MoardError::InvalidConfig(format!(
                    "scenario `{}`: site record {} ({}) not found in `{}/{}` — \
                     the trace has drifted",
                    spec.name,
                    wanted.record_id,
                    slot_to_string(wanted.slot),
                    spec.workload,
                    spec.object,
                ))
            })?;
        let class = harness
            .injector()
            .run_classified(&site.fault(&spec.pattern));
        outcomes.push((*wanted, class));
        resolved.push(site.clone());
    }
    let model_class = model_class_at(harness, &resolved[0], &spec.pattern, spec.window)?;
    Ok(ScenarioReplay {
        fragment: ScenarioFragment {
            workload: spec.workload.clone(),
            object: spec.object.clone(),
            outcomes,
            pattern: spec.pattern.clone(),
            window: spec.window,
            model_class,
        },
    })
}

/// Write a scenario spec under `dir` as `<name>.json` (pretty-printed,
/// trailing newline), creating the directory if needed.
pub fn write_scenario(dir: &Path, spec: &ScenarioSpec) -> Result<PathBuf, MoardError> {
    std::fs::create_dir_all(dir).map_err(|e| MoardError::io(dir.display().to_string(), e))?;
    let path = dir.join(spec.file_name());
    std::fs::write(&path, spec.to_file_string())
        .map_err(|e| MoardError::io(path.display().to_string(), e))?;
    Ok(path)
}

/// Load one scenario spec from a file.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, MoardError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| MoardError::io(path.display().to_string(), e))?;
    ScenarioSpec::from_json_str(&text)
}

/// Load every `*.json` scenario under `dir`, sorted by file name (so the
/// runner's order is stable).  A missing directory is an empty set, not an
/// error — a repository may have no committed scenarios yet.
pub fn load_scenario_dir(dir: &Path) -> Result<Vec<(PathBuf, ScenarioSpec)>, MoardError> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(MoardError::io(dir.display().to_string(), e)),
        Ok(entries) => entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect(),
    };
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let spec = load_scenario(&path)?;
        out.push((path, spec));
    }
    Ok(out)
}

/// One scenario emitted by [`emit_validation_scenarios`].
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedScenario {
    /// The divergent cell's workload.
    pub workload: String,
    /// The divergent cell's data object.
    pub object: String,
    /// Where the spec was written.
    pub path: PathBuf,
    /// The minimization result.
    pub report: MinimizeReport,
}

/// The outcome of auto-minimizing a validation report's divergences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EmitOutcome {
    /// Scenarios written, in cell order.
    pub emitted: Vec<EmittedScenario>,
    /// Cells that could not be minimized: `(workload, object, reason)`.
    /// A model-optimistic verdict reached through random sampling does not
    /// guarantee the deterministic scan finds a failing injection on the
    /// same strided population, so these are reported, not fatal.
    pub skipped: Vec<(String, String, String)>,
}

/// Minimize every model-optimistic cell of a validation report into a
/// scenario spec under `dir`, through `runner` (its harness cache and
/// cancel token).  The minimizer re-uses the report's site stride, pattern
/// family, propagation window, and seed, so the emitted reproducer is drawn
/// from exactly the population the verdict came from.
pub fn emit_validation_scenarios(
    report: &ValidationReport,
    registry: &dyn WorkloadRegistry,
    runner: &Runner,
    dir: &Path,
) -> Result<EmitOutcome, MoardError> {
    let mut outcome = EmitOutcome::default();
    for cell in &report.cells {
        if report.verdict(cell) != CellVerdict::ModelOptimistic {
            continue;
        }
        runner.cancel.checkpoint()?;
        let spec = MinimizeSpec::cell(cell.workload.clone(), cell.object.clone())
            .stride(report.config.site_stride)
            .patterns(report.config.patterns.clone())
            .window(report.config.propagation_window)
            .seed(report.seed);
        match runner.minimize(&spec, registry) {
            Ok(min_report) => {
                let path = write_scenario(dir, &min_report.scenario)?;
                outcome.emitted.push(EmittedScenario {
                    workload: cell.workload.clone(),
                    object: cell.object.clone(),
                    path,
                    report: min_report,
                });
            }
            Err(MoardError::Cancelled) => return Err(MoardError::Cancelled),
            Err(e) => {
                outcome
                    .skipped
                    .push((cell.workload.clone(), cell.object.clone(), e.to_string()))
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_a_single_witness() {
        // Oracle: the subset reproduces iff it contains the element 13.
        let items: Vec<u32> = (0..40).collect();
        let mut probes = 0;
        let minimal = ddmin(items, |subset| {
            probes += 1;
            Ok(subset.contains(&13))
        })
        .unwrap();
        assert_eq!(minimal, vec![13]);
        assert!(probes > 0);
    }

    #[test]
    fn ddmin_keeps_jointly_required_elements() {
        // Reproduction needs BOTH 3 and 17: the classic ddmin pair case.
        let items: Vec<u32> = (0..32).collect();
        let minimal = ddmin(items, |subset| {
            Ok(subset.contains(&3) && subset.contains(&17))
        })
        .unwrap();
        assert_eq!(minimal, vec![3, 17]);
    }

    #[test]
    fn ddmin_is_stable_on_singletons() {
        let minimal = ddmin(vec![7u32], |_| Ok(true)).unwrap();
        assert_eq!(minimal, vec![7]);
    }

    #[test]
    fn mask_of_matches_error_pattern_mask() {
        for bits in [vec![0u32], vec![3, 4], vec![0, 63], vec![52]] {
            let pattern = ErrorPattern { bits: bits.clone() };
            assert_eq!(mask_of(&bits), pattern.mask());
        }
    }

    #[test]
    fn default_name_slug_is_filename_safe() {
        let name = default_name("ABFT-MM", "C_out", OutcomeClass::Incorrect);
        assert_eq!(name, "abft-mm-c-out-incorrect");
        let spec = ScenarioSpec {
            name,
            workload: "ABFT-MM".into(),
            object: "C_out".into(),
            sites: vec![ScenarioSite {
                record_id: 0,
                slot: SiteSlot::StoreDest,
            }],
            pattern: ErrorPattern { bits: vec![0] },
            window: 0,
            seed: 0,
            expected_outcome: OutcomeClass::Incorrect,
            expected_model_class: Masking::NotMasked,
            fragment_fingerprint: 0,
        };
        spec.validate().unwrap();
    }

    #[test]
    fn minimize_spec_round_trips_through_json() {
        let specs = [
            MinimizeSpec::cell("mm", "C"),
            MinimizeSpec::cell("pf", "xe")
                .stride(16)
                .site(42, SiteSlot::Operand(1))
                .pattern(ErrorPattern { bits: vec![3, 4] })
                .patterns(ErrorPatternSet::AdjacentBits { width: 2 })
                .window(7)
                .expected(OutcomeClass::Crashed)
                .seed(0xF1F1)
                .name("pf-xe-crash"),
        ];
        for spec in specs {
            let doc = Json::parse(&spec.to_json().to_string()).unwrap();
            assert_eq!(MinimizeSpec::from_json(&doc).unwrap(), spec);
        }
    }

    #[test]
    fn minimize_spec_validation_catches_degenerate_input() {
        assert!(MinimizeSpec::default().validate().is_err(), "empty names");
        assert!(MinimizeSpec::cell("mm", "C").stride(0).validate().is_err());
        assert!(MinimizeSpec::cell("mm", "C")
            .pattern(ErrorPattern { bits: vec![] })
            .validate()
            .is_err());
        assert!(MinimizeSpec::cell("mm", "C")
            .pattern(ErrorPattern { bits: vec![64] })
            .validate()
            .is_err());
        assert!(MinimizeSpec::cell("mm", "C").validate().is_ok());
    }
}
