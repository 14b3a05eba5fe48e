//! Serialization of analysis results to a stable, versioned JSON schema.
//!
//! Reports are the machine-consumable face of the pipeline: the CLI's
//! `--format json`, the `moard report` subcommand, and any external tooling
//! all speak this schema.  Guarantees:
//!
//! * **versioned** — every document carries `schema_version`; readers reject
//!   versions they do not understand instead of mis-parsing them;
//! * **bit-exact** — floating-point tallies round-trip to identical bit
//!   patterns (shortest-roundtrip formatting in `moard-json`);
//! * **config-fingerprinted** — every report embeds the fingerprint of the
//!   [`AnalysisConfig`] that produced it, so results computed under
//!   different windows/strides/DFI caps are never conflated;
//! * **self-describing** — derived quantities consumers usually want (the
//!   aDVF value, the per-level and per-kind breakdowns of Figs. 4 and 5)
//!   are materialized alongside the raw numerator/denominator.

use crate::advf::{AdvfAccumulator, AdvfReport, MaskingTally, PatternClassTally};
use crate::analysis::AnalysisConfig;
use crate::error::MoardError;
use crate::error_pattern::ErrorPatternSet;
use moard_json::{FromJson, Json, JsonError, ToJson};

/// Version of the JSON report schema this build writes and reads.
///
/// Version history:
///
/// * **1** — initial versioned schema (session / study / validation
///   reports, single-bit-only injection substrate);
/// * **2** — pattern-generalized fault engine: `AdvfReport` documents gain
///   the additive `patterns` (canonical error-pattern-set string) and
///   `pattern_tallies` (per-pattern-class masking tallies) fields, and the
///   RFI entries of study reports record the pattern set their campaigns
///   sampled.  Masking tallies of single-bit reports are unchanged.
/// * **3** — lane-batched replay engine: `AdvfReport` documents gain the
///   additive telemetry fields `lanes_batched`, `batch_walks` and
///   `batch_fallback_lanes` (all zero when batching is off).  Verdicts and
///   every pre-existing field are byte-identical to version 2; only the
///   version number and the three new fields change.
/// * **4** — `AdvfReport` documents drop the three version-3 telemetry
///   fields: they described how the replays were grouped into trace
///   walks, not a verdict, and `batch_walks` tied a report to one
///   grouping.  Every remaining field is byte-identical to version 3.  A
///   version-3 document is rejected like any other version, so a result
///   store written by an older build recomputes those reports.
pub const SCHEMA_VERSION: u32 = 4;

/// FNV-1a over a byte string — the canonical 64-bit fingerprint hash.
/// Analysis-config fingerprints, study-spec fingerprints, and the result
/// store's content addresses all use this one construction so they can
/// never silently desynchronize.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Render a config fingerprint as the fixed-width hex string used in JSON.
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// Parse a fingerprint rendered by [`fingerprint_hex`].
pub fn parse_fingerprint(text: &str) -> Result<u64, JsonError> {
    u64::from_str_radix(text, 16).map_err(|_| JsonError::WrongType {
        field: "config_fingerprint".into(),
        expected: "a 16-digit hex string",
    })
}

/// Serialize trace-engine statistics ([`moard_vm::TraceStats`]: record
/// count, indexed objects, index entries) for embedding in benchmark and
/// diagnostic documents (`BENCH_*.json`).  Session reports do **not** embed
/// trace stats — their schema is pinned bit-for-bit by the golden tests.
pub fn trace_stats_to_json(stats: &moard_vm::TraceStats) -> Json {
    Json::object([
        ("records", Json::from(stats.records)),
        ("indexed_objects", Json::from(stats.indexed_objects)),
        ("index_entries", Json::from(stats.index_entries)),
    ])
}

/// Check a document's `schema_version` against what this build understands.
pub fn check_schema_version(doc: &Json) -> Result<(), MoardError> {
    let found = doc.u32_field("schema_version")?;
    if found != SCHEMA_VERSION {
        return Err(MoardError::SchemaMismatch {
            found,
            expected: SCHEMA_VERSION,
        });
    }
    Ok(())
}

impl ToJson for MaskingTally {
    fn to_json(&self) -> Json {
        Json::object([
            ("overwriting", Json::from(self.overwriting)),
            ("logic_compare", Json::from(self.logic_compare)),
            ("overshadowing", Json::from(self.overshadowing)),
            ("propagation", Json::from(self.propagation)),
            ("algorithm", Json::from(self.algorithm)),
        ])
    }
}

impl FromJson for MaskingTally {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(MaskingTally {
            overwriting: value.f64_field("overwriting")?,
            logic_compare: value.f64_field("logic_compare")?,
            overshadowing: value.f64_field("overshadowing")?,
            propagation: value.f64_field("propagation")?,
            algorithm: value.f64_field("algorithm")?,
        })
    }
}

impl ToJson for PatternClassTally {
    fn to_json(&self) -> Json {
        Json::object([
            ("flipped_bits", Json::from(self.flipped_bits)),
            ("evaluated", Json::from(self.evaluated)),
            ("overwriting", Json::from(self.overwriting)),
            ("logic_compare", Json::from(self.logic_compare)),
            ("overshadowing", Json::from(self.overshadowing)),
            ("propagation", Json::from(self.propagation)),
            ("algorithm", Json::from(self.algorithm)),
            // Derived, materialized for consumers; recomputed on read.
            ("masked", Json::from(self.masked())),
            ("masked_fraction", Json::from(self.masked_fraction())),
        ])
    }
}

impl FromJson for PatternClassTally {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tally = PatternClassTally {
            flipped_bits: value.u32_field("flipped_bits")?,
            evaluated: value.u64_field("evaluated")?,
            overwriting: value.u64_field("overwriting")?,
            logic_compare: value.u64_field("logic_compare")?,
            overshadowing: value.u64_field("overshadowing")?,
            propagation: value.u64_field("propagation")?,
            algorithm: value.u64_field("algorithm")?,
        };
        // `not_masked()` computes `evaluated - masked()`; a tampered
        // document must not be able to smuggle in an underflow.
        if tally
            .overwriting
            .checked_add(tally.logic_compare)
            .and_then(|n| n.checked_add(tally.overshadowing))
            .and_then(|n| n.checked_add(tally.propagation))
            .and_then(|n| n.checked_add(tally.algorithm))
            .is_none_or(|masked| masked > tally.evaluated)
        {
            return Err(JsonError::WrongType {
                field: "pattern_tallies".into(),
                expected: "per-class masked counts summing to at most `evaluated`",
            });
        }
        Ok(tally)
    }
}

impl ToJson for AdvfAccumulator {
    fn to_json(&self) -> Json {
        Json::object([
            ("masked", self.masked.to_json()),
            ("participations", Json::from(self.participations)),
        ])
    }
}

impl FromJson for AdvfAccumulator {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(AdvfAccumulator {
            masked: MaskingTally::from_json(value.field("masked")?)?,
            participations: value.u64_field("participations")?,
        })
    }
}

impl ToJson for AnalysisConfig {
    fn to_json(&self) -> Json {
        Json::object([
            ("propagation_window", Json::from(self.propagation_window)),
            ("site_stride", Json::from(self.site_stride)),
            (
                "max_dfi_per_object",
                match self.max_dfi_per_object {
                    Some(n) => Json::from(n),
                    None => Json::Null,
                },
            ),
            ("patterns", Json::from(self.patterns.canonical())),
        ])
    }
}

impl FromJson for AnalysisConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let patterns_text = value.str_field("patterns")?;
        let patterns =
            ErrorPatternSet::from_canonical(patterns_text).ok_or(JsonError::WrongType {
                field: "patterns".into(),
                expected: "a canonical error-pattern-set string",
            })?;
        let max_dfi_per_object = match value.field("max_dfi_per_object")? {
            Json::Null => None,
            other => Some(other.as_u64().ok_or(JsonError::WrongType {
                field: "max_dfi_per_object".into(),
                expected: "an unsigned integer or null",
            })?),
        };
        Ok(AnalysisConfig {
            propagation_window: value.u64_field("propagation_window")? as usize,
            site_stride: value.u64_field("site_stride")? as usize,
            max_dfi_per_object,
            patterns,
        })
    }
}

impl ToJson for AdvfReport {
    fn to_json(&self) -> Json {
        let (op, prop, alg) = self.accumulator.level_breakdown();
        let (ow, os, lc) = self.accumulator.kind_breakdown();
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("workload", Json::from(self.workload.as_str())),
            ("object", Json::from(self.object.as_str())),
            (
                "config_fingerprint",
                Json::from(fingerprint_hex(self.config_fingerprint)),
            ),
            ("advf", Json::from(self.advf())),
            (
                "levels",
                Json::object([
                    ("operation", Json::from(op)),
                    ("propagation", Json::from(prop)),
                    ("algorithm", Json::from(alg)),
                ]),
            ),
            (
                "kinds",
                Json::object([
                    ("overwriting", Json::from(ow)),
                    ("overshadowing", Json::from(os)),
                    ("logic_compare", Json::from(lc)),
                ]),
            ),
            ("accumulator", self.accumulator.to_json()),
            ("sites_analyzed", Json::from(self.sites_analyzed)),
            ("dfi_runs", Json::from(self.dfi_runs)),
            ("dfi_cache_hits", Json::from(self.dfi_cache_hits)),
            (
                "resolved_analytically",
                Json::from(self.resolved_analytically),
            ),
            (
                "dfi_budget_exhausted",
                Json::from(self.dfi_budget_exhausted),
            ),
            ("patterns", Json::from(self.patterns.as_str())),
            (
                "pattern_tallies",
                Json::array(self.pattern_tallies.iter().map(|t| t.to_json())),
            ),
        ])
    }
}

impl AdvfReport {
    /// Rebuild a report from its JSON document, checking the schema version.
    ///
    /// Derived members (`advf`, `levels`, `kinds`) are not trusted: they are
    /// recomputed from the accumulator on access, so a hand-edited document
    /// cannot carry an aDVF value inconsistent with its own numerator.
    pub fn from_json(doc: &Json) -> Result<AdvfReport, MoardError> {
        check_schema_version(doc)?;
        Ok(AdvfReport {
            workload: doc.str_field("workload")?.to_string(),
            object: doc.str_field("object")?.to_string(),
            config_fingerprint: parse_fingerprint(doc.str_field("config_fingerprint")?)?,
            accumulator: AdvfAccumulator::from_json(doc.field("accumulator")?)?,
            sites_analyzed: doc.u64_field("sites_analyzed")?,
            dfi_runs: doc.u64_field("dfi_runs")?,
            dfi_cache_hits: doc.u64_field("dfi_cache_hits")?,
            resolved_analytically: doc.u64_field("resolved_analytically")?,
            dfi_budget_exhausted: doc
                .field("dfi_budget_exhausted")?
                .as_bool()
                .ok_or(JsonError::WrongType {
                    field: "dfi_budget_exhausted".into(),
                    expected: "a boolean",
                })
                .map_err(MoardError::Json)?,
            patterns: doc.str_field("patterns")?.to_string(),
            pattern_tallies: doc
                .arr_field("pattern_tallies")?
                .iter()
                .map(PatternClassTally::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse a report serialized with [`AdvfReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<AdvfReport, MoardError> {
        AdvfReport::from_json(&Json::parse(text)?)
    }
}

/// Summary of one random-fault-injection validation campaign (the paper's
/// Fig. 7 leg), serialized inside a [`StudyReport`].
///
/// This is the serializable face of a campaign tally; the campaign *runner*
/// lives in `moard-inject`.  Derived quantities (`success_rate`,
/// `margin_95`) are materialized in JSON but recomputed from the raw counts
/// on read, so a hand-edited document cannot carry a rate inconsistent with
/// its own tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfiSummary {
    /// Number of injection tests requested.
    pub tests: u64,
    /// RNG seed of the campaign (campaigns are reproducible given the seed).
    pub seed: u64,
    /// Runs whose outcome was bit-identical to the golden run.
    pub identical: u64,
    /// Runs whose outcome was numerically different but acceptable.
    pub acceptable: u64,
    /// Runs with unacceptable (silently corrupted) outcomes.
    pub incorrect: u64,
    /// Runs that crashed or hung.
    pub crashed: u64,
}

impl RfiSummary {
    /// Total number of classified runs.
    pub fn runs(&self) -> u64 {
        self.identical + self.acceptable + self.incorrect + self.crashed
    }

    /// Fraction of runs with a correct (identical or acceptable) outcome.
    pub fn success_rate(&self) -> f64 {
        let runs = self.runs();
        if runs == 0 {
            return 0.0;
        }
        (self.identical + self.acceptable) as f64 / runs as f64
    }

    /// Margin of error of the success rate at 95% confidence (Wilson score
    /// half-width; see [`crate::stats`] — unlike the Wald margin it does not
    /// collapse to zero at success rates of 0 or 1, and an empty campaign
    /// honestly reports the maximal half-width 0.5 rather than certainty).
    pub fn margin_95(&self) -> f64 {
        crate::stats::wilson_margin(self.identical + self.acceptable, self.runs(), 0.95)
    }
}

impl ToJson for RfiSummary {
    fn to_json(&self) -> Json {
        Json::object([
            ("tests", Json::from(self.tests)),
            ("seed", Json::from(self.seed)),
            ("identical", Json::from(self.identical)),
            ("acceptable", Json::from(self.acceptable)),
            ("incorrect", Json::from(self.incorrect)),
            ("crashed", Json::from(self.crashed)),
            ("success_rate", Json::from(self.success_rate())),
            ("margin_95", Json::from(self.margin_95())),
        ])
    }
}

impl FromJson for RfiSummary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RfiSummary {
            tests: value.u64_field("tests")?,
            seed: value.u64_field("seed")?,
            identical: value.u64_field("identical")?,
            acceptable: value.u64_field("acceptable")?,
            incorrect: value.u64_field("incorrect")?,
            crashed: value.u64_field("crashed")?,
        })
    }
}

/// One cell of a study's task matrix: the aDVF report of one data object of
/// one workload under one analysis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyEntry {
    /// Workload name (canonical, e.g. `"MM"`).
    pub workload: String,
    /// Data object name.
    pub object: String,
    /// The analysis configuration this cell was computed under.
    pub config: AnalysisConfig,
    /// The aDVF report of (workload, object) under `config`.
    pub advf: AdvfReport,
}

/// One random-fault-injection validation cell of a study.
#[derive(Debug, Clone, PartialEq)]
pub struct RfiEntry {
    /// Workload name (canonical).
    pub workload: String,
    /// Data object name.
    pub object: String,
    /// Canonical rendering of the error-pattern set the campaign sampled
    /// (uniform over site × pattern — the same population as the aDVF cells
    /// of the same grid entry).
    pub patterns: String,
    /// The campaign tally.
    pub summary: RfiSummary,
}

/// The aggregate result of a multi-workload parameter sweep (a *study*):
/// the full cross-product of workloads × data objects × analysis
/// configurations, plus an optional random-fault-injection validation leg.
///
/// A study report is the one-document reproduction of the paper's batched
/// evaluation: Table I's workload/object matrix, the Fig. 4 per-object aDVF
/// aggregates, and the Fig. 7 RFI-vs-aDVF comparison all read off one
/// `StudyReport`.  Like [`crate::advf::AdvfReport`], it serializes to the
/// stable versioned schema and round-trips bit-exactly; it additionally
/// embeds the fingerprint of the *study specification* that produced it, so
/// reports from different sweeps are never conflated.  The sweep engine that
/// produces these (`Runner::sweep` in `moard-inject`) folds its task results
/// in task-matrix order, so the document is byte-identical whether the sweep
/// ran cold, in parallel, or resumed from a partial result store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StudyReport {
    /// Fingerprint of the study specification (`StudySpec::fingerprint` in
    /// `moard-inject`) that produced this report.
    pub study_fingerprint: u64,
    /// aDVF cells, in task-matrix order (workload × object × config).
    pub entries: Vec<StudyEntry>,
    /// RFI validation cells, in task-matrix order; empty when the study had
    /// no RFI leg.
    pub rfi: Vec<RfiEntry>,
}

impl StudyReport {
    /// The first aDVF cell of (workload, object), if the study covered it.
    /// With a multi-configuration grid this is the cell of the first grid
    /// point; use [`StudyReport::entries_for`] for the full series.
    pub fn entry(&self, workload: &str, object: &str) -> Option<&StudyEntry> {
        self.entries
            .iter()
            .find(|e| e.workload == workload && e.object == object)
    }

    /// All aDVF cells of (workload, object), in grid order.
    pub fn entries_for<'a>(
        &'a self,
        workload: &'a str,
        object: &'a str,
    ) -> impl Iterator<Item = &'a StudyEntry> {
        self.entries
            .iter()
            .filter(move |e| e.workload == workload && e.object == object)
    }

    /// The distinct workloads covered, in task-matrix order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.workload.as_str()) {
                out.push(&e.workload);
            }
        }
        out
    }

    /// The distinct objects of one workload, in task-matrix order — the
    /// Table I "target data objects" column of that row.
    pub fn objects_of(&self, workload: &str) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in self.entries.iter().filter(|e| e.workload == workload) {
            if !out.contains(&e.object.as_str()) {
                out.push(&e.object);
            }
        }
        out
    }

    /// RFI validation cells of (workload, object), in task-matrix order.
    pub fn rfi_for<'a>(
        &'a self,
        workload: &'a str,
        object: &'a str,
    ) -> impl Iterator<Item = &'a RfiEntry> {
        self.rfi
            .iter()
            .filter(move |e| e.workload == workload && e.object == object)
    }

    /// The JSON document of this report.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("moard-study")),
            (
                "study_fingerprint",
                Json::from(fingerprint_hex(self.study_fingerprint)),
            ),
            (
                "entries",
                Json::array(self.entries.iter().map(|e| {
                    Json::object([
                        ("workload", Json::from(e.workload.as_str())),
                        ("object", Json::from(e.object.as_str())),
                        ("config", e.config.to_json()),
                        (
                            "config_fingerprint",
                            Json::from(fingerprint_hex(e.config.fingerprint())),
                        ),
                        ("advf_report", e.advf.to_json()),
                    ])
                })),
            ),
            (
                "rfi",
                Json::array(self.rfi.iter().map(|e| {
                    Json::object([
                        ("workload", Json::from(e.workload.as_str())),
                        ("object", Json::from(e.object.as_str())),
                        ("patterns", Json::from(e.patterns.as_str())),
                        ("summary", e.summary.to_json()),
                    ])
                })),
            ),
        ])
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Rebuild from a JSON document, checking the schema version and the
    /// consistency of every embedded configuration fingerprint.
    pub fn from_json(doc: &Json) -> Result<StudyReport, MoardError> {
        check_schema_version(doc)?;
        let study_fingerprint = parse_fingerprint(doc.str_field("study_fingerprint")?)?;
        let mut entries = Vec::new();
        for cell in doc.arr_field("entries")? {
            let config = AnalysisConfig::from_json(cell.field("config")?)?;
            let found = parse_fingerprint(cell.str_field("config_fingerprint")?)?;
            if found != config.fingerprint() {
                return Err(MoardError::InvalidConfig(format!(
                    "study entry config fingerprint {found:016x} does not match its \
                     embedded config ({:016x})",
                    config.fingerprint()
                )));
            }
            let advf = AdvfReport::from_json(cell.field("advf_report")?)?;
            if advf.config_fingerprint != config.fingerprint() {
                return Err(MoardError::InvalidConfig(format!(
                    "study entry aDVF report was produced under config {:016x}, not \
                     the entry's config {:016x}",
                    advf.config_fingerprint,
                    config.fingerprint()
                )));
            }
            entries.push(StudyEntry {
                workload: cell.str_field("workload")?.to_string(),
                object: cell.str_field("object")?.to_string(),
                config,
                advf,
            });
        }
        let rfi = doc
            .arr_field("rfi")?
            .iter()
            .map(|cell| {
                Ok(RfiEntry {
                    workload: cell.str_field("workload")?.to_string(),
                    object: cell.str_field("object")?.to_string(),
                    patterns: cell.str_field("patterns")?.to_string(),
                    summary: RfiSummary::from_json(cell.field("summary")?)?,
                })
            })
            .collect::<Result<Vec<_>, MoardError>>()?;
        Ok(StudyReport {
            study_fingerprint,
            entries,
            rfi,
        })
    }

    /// Parse a report serialized with [`StudyReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<StudyReport, MoardError> {
        StudyReport::from_json(&Json::parse(text)?)
    }
}

/// One adaptive random-fault-injection campaign of the model-validation
/// engine: the outcome tallies plus the facts of its execution (how many
/// deterministic shards were folded, whether the margin target was reached
/// before the trial cap).
///
/// Derived quantities (`trials`, `success_rate`, the Wilson interval) are
/// materialized in JSON but recomputed from the raw counts on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfiCampaign {
    /// Deterministic trial shards folded (in shard order).
    pub shards: u64,
    /// Runs whose outcome was bit-identical to the golden run.
    pub identical: u64,
    /// Runs whose outcome was numerically different but acceptable.
    pub acceptable: u64,
    /// Runs with unacceptable (silently corrupted) outcomes.
    pub incorrect: u64,
    /// Runs that crashed or hung.
    pub crashed: u64,
    /// True if the Wilson half-width reached the target margin before the
    /// trial cap; false if the cap stopped the campaign first.
    pub converged: bool,
}

impl RfiCampaign {
    /// Total number of classified trials.
    pub fn trials(&self) -> u64 {
        self.identical + self.acceptable + self.incorrect + self.crashed
    }

    /// Trials with a correct (identical or acceptable) outcome.
    pub fn successes(&self) -> u64 {
        self.identical + self.acceptable
    }

    /// Fraction of trials with a correct outcome.
    pub fn success_rate(&self) -> f64 {
        let trials = self.trials();
        if trials == 0 {
            return 0.0;
        }
        self.successes() as f64 / trials as f64
    }

    /// Wilson score interval of the success rate at the given confidence
    /// level; bounds always lie in [0, 1].
    pub fn wilson_bounds(&self, confidence: f64) -> (f64, f64) {
        crate::stats::wilson_bounds(self.successes(), self.trials(), confidence)
    }

    /// Half-width of the Wilson interval.
    pub fn margin(&self, confidence: f64) -> f64 {
        crate::stats::wilson_margin(self.successes(), self.trials(), confidence)
    }
}

impl ToJson for RfiCampaign {
    fn to_json(&self) -> Json {
        Json::object([
            ("shards", Json::from(self.shards)),
            ("identical", Json::from(self.identical)),
            ("acceptable", Json::from(self.acceptable)),
            ("incorrect", Json::from(self.incorrect)),
            ("crashed", Json::from(self.crashed)),
            ("converged", Json::from(self.converged)),
            ("trials", Json::from(self.trials())),
            ("success_rate", Json::from(self.success_rate())),
        ])
    }
}

impl FromJson for RfiCampaign {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RfiCampaign {
            shards: value.u64_field("shards")?,
            identical: value.u64_field("identical")?,
            acceptable: value.u64_field("acceptable")?,
            incorrect: value.u64_field("incorrect")?,
            crashed: value.u64_field("crashed")?,
            converged: value
                .field("converged")?
                .as_bool()
                .ok_or(JsonError::WrongType {
                    field: "converged".into(),
                    expected: "a boolean",
                })?,
        })
    }
}

/// One (workload, data object) cell of a validation report: the model's
/// aDVF prediction next to the adaptive RFI campaign that tested it.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationCell {
    /// Workload name (canonical, e.g. `"MM"`).
    pub workload: String,
    /// Data-object name.
    pub object: String,
    /// The aDVF leg: the model's full report for this cell.
    pub advf: AdvfReport,
    /// The injection leg: the adaptive RFI campaign.
    pub rfi: RfiCampaign,
}

/// Per-cell verdict of the model-vs-injection comparison.
///
/// The model predicts the campaign success rate directly (aDVF is the
/// masking fraction).  The prediction is compared against the Wilson
/// interval of the observed rate widened by the model `tolerance`:
///
/// * [`CellVerdict::Agree`] — the prediction lies inside the widened
///   interval;
/// * [`CellVerdict::ModelConservative`] — the model claims *less* masking
///   than injection observed (the documented direction of error when the
///   DFI budget truncates: unresolved sites count as not masked);
/// * [`CellVerdict::ModelOptimistic`] — the model claims *more* masking
///   than injection observed (a genuine model error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// Prediction within the tolerance-widened confidence interval.
    Agree,
    /// Prediction below the interval: the model under-claims masking.
    ModelConservative,
    /// Prediction above the interval: the model over-claims masking.
    ModelOptimistic,
}

impl CellVerdict {
    /// Stable string form used in JSON and the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            CellVerdict::Agree => "agree",
            CellVerdict::ModelConservative => "model-conservative",
            CellVerdict::ModelOptimistic => "model-optimistic",
        }
    }
}

/// Per-workload rank-correlation summary: does the model order the
/// workload's data objects by resilience the same way injection does?
///
/// A pair of cells is **resolved** when the observed rates differ by more
/// than the sum of their margins (the campaigns distinguish the objects)
/// *and* the model's predictions are not exactly tied (a tie expresses no
/// ordering); only resolved pairs enter the Kendall tally — near-ties
/// carry no ranking information at the campaign's sample size.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRank {
    /// Workload name.
    pub workload: String,
    /// Number of validation cells of this workload.
    pub cells: u64,
    /// Object pairs whose observed rates are statistically distinguishable.
    pub resolved_pairs: u64,
    /// Resolved pairs the model orders the same way injection does.
    pub concordant: u64,
    /// Resolved pairs the model orders the opposite way.
    pub discordant: u64,
}

impl WorkloadRank {
    /// Kendall rank correlation over the resolved pairs:
    /// `(concordant − discordant) / resolved_pairs`, or `None` when no pair
    /// is resolved (a single object, or campaigns too small to separate
    /// any two objects).
    pub fn correlation(&self) -> Option<f64> {
        if self.resolved_pairs == 0 {
            return None;
        }
        Some((self.concordant as f64 - self.discordant as f64) / self.resolved_pairs as f64)
    }
}

/// The result of a model-validation run: for every selected (workload,
/// object) cell, the aDVF prediction, the adaptive RFI campaign with its
/// Wilson interval, the agree/disagree verdict, and per-workload rank
/// correlations — the engine-grade version of the paper's §V-B comparison.
///
/// Like every report in this module it is schema-versioned, embeds the
/// fingerprint of the `ValidationSpec` that produced it (so resumed runs
/// can never fold cells from a different campaign), and round-trips
/// bit-exactly; all judgment calls (verdicts, correlations, intervals) are
/// *derived* from the stored tallies, never stored themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Fingerprint of the producing `ValidationSpec` (`moard-inject`).
    pub spec_fingerprint: u64,
    /// Confidence level of every interval in this report (0.90/0.95/0.99).
    pub confidence: f64,
    /// Target Wilson half-width at which a cell's campaign stops early.
    pub target_margin: f64,
    /// Per-cell trial cap.
    pub max_trials: u64,
    /// Base RNG seed of the campaign's shard streams.
    pub seed: u64,
    /// Absolute model-error allowance added to each interval before the
    /// verdict is taken.
    pub tolerance: f64,
    /// Whether the aDVF legs consulted deterministic fault injection.
    /// Analytic runs (`--no-dfi`) count every unresolvable site as not
    /// masked, so their predictions are lower bounds by construction.
    pub use_dfi: bool,
    /// The analysis configuration of the aDVF leg (its `site_stride` also
    /// selects the site population both legs draw from).
    pub config: AnalysisConfig,
    /// The cells, in campaign-matrix order (workload-major, then object).
    pub cells: Vec<ValidationCell>,
}

impl ValidationReport {
    /// The cell of (workload, object), if the campaign covered it.
    pub fn cell(&self, workload: &str, object: &str) -> Option<&ValidationCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.object == object)
    }

    /// The distinct workloads covered, in campaign-matrix order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.workload.as_str()) {
                out.push(&c.workload);
            }
        }
        out
    }

    /// Absolute deviation between the model's prediction and the observed
    /// success rate of a cell.
    pub fn deviation(&self, cell: &ValidationCell) -> f64 {
        (cell.advf.advf() - cell.rfi.success_rate()).abs()
    }

    /// True if the aDVF leg of this cell could not resolve every masking
    /// question, making its prediction a *lower bound* (unresolved sites
    /// count as not masked): either deterministic injection was disabled
    /// outright, or at least one DFI request of this cell was denied by the
    /// exhausted budget (the exact signal the analyzer records — a run that
    /// lands on the cap with nothing left to ask is *not* truncated).
    pub fn model_truncated(&self, cell: &ValidationCell) -> bool {
        !self.use_dfi || cell.advf.dfi_budget_exhausted
    }

    /// The verdict of one cell (see [`CellVerdict`]).
    pub fn verdict(&self, cell: &ValidationCell) -> CellVerdict {
        let (low, high) = cell.rfi.wilson_bounds(self.confidence);
        let predicted = cell.advf.advf();
        if predicted < low - self.tolerance {
            CellVerdict::ModelConservative
        } else if predicted > high + self.tolerance {
            CellVerdict::ModelOptimistic
        } else {
            CellVerdict::Agree
        }
    }

    /// True if the cell counts as agreeing: the verdict is
    /// [`CellVerdict::Agree`], or the model under-claims while its DFI
    /// budget was truncated (the prediction is then an honest lower bound,
    /// not a model error).
    pub fn agrees(&self, cell: &ValidationCell) -> bool {
        match self.verdict(cell) {
            CellVerdict::Agree => true,
            CellVerdict::ModelConservative => self.model_truncated(cell),
            CellVerdict::ModelOptimistic => false,
        }
    }

    /// Number of agreeing cells (see [`ValidationReport::agrees`]).
    pub fn agreed(&self) -> u64 {
        self.cells.iter().filter(|c| self.agrees(c)).count() as u64
    }

    /// The rank-correlation summary of one workload's cells.
    pub fn rank(&self, workload: &str) -> WorkloadRank {
        let cells: Vec<&ValidationCell> = self
            .cells
            .iter()
            .filter(|c| c.workload == workload)
            .collect();
        let mut rank = WorkloadRank {
            workload: workload.to_string(),
            cells: cells.len() as u64,
            resolved_pairs: 0,
            concordant: 0,
            discordant: 0,
        };
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                let observed = a.rfi.success_rate() - b.rfi.success_rate();
                let resolved =
                    observed.abs() > a.rfi.margin(self.confidence) + b.rfi.margin(self.confidence);
                if !resolved {
                    continue;
                }
                // Kendall convention: a pair the model predicts as exactly
                // tied expresses no ordering — it is neither concordant nor
                // discordant, and does not enter the denominator.
                let predicted = a.advf.advf() - b.advf.advf();
                if predicted == 0.0 {
                    continue;
                }
                rank.resolved_pairs += 1;
                if predicted * observed > 0.0 {
                    rank.concordant += 1;
                } else {
                    rank.discordant += 1;
                }
            }
        }
        rank
    }

    /// Rank-correlation summaries of every covered workload, in
    /// campaign-matrix order.
    pub fn ranks(&self) -> Vec<WorkloadRank> {
        self.workloads().iter().map(|w| self.rank(w)).collect()
    }

    /// The JSON document of this report.  Verdicts, intervals, deviations,
    /// and rank correlations are materialized for consumers but recomputed
    /// from the raw tallies on read.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("moard-validation")),
            (
                "spec_fingerprint",
                Json::from(fingerprint_hex(self.spec_fingerprint)),
            ),
            ("confidence", Json::from(self.confidence)),
            ("target_margin", Json::from(self.target_margin)),
            ("max_trials", Json::from(self.max_trials)),
            ("seed", Json::from(self.seed)),
            ("tolerance", Json::from(self.tolerance)),
            ("use_dfi", Json::from(self.use_dfi)),
            ("config", self.config.to_json()),
            (
                "config_fingerprint",
                Json::from(fingerprint_hex(self.config.fingerprint())),
            ),
            (
                "cells",
                Json::array(self.cells.iter().map(|c| {
                    let (low, high) = c.rfi.wilson_bounds(self.confidence);
                    Json::object([
                        ("workload", Json::from(c.workload.as_str())),
                        ("object", Json::from(c.object.as_str())),
                        ("advf_report", c.advf.to_json()),
                        ("rfi", c.rfi.to_json()),
                        ("ci_low", Json::from(low)),
                        ("ci_high", Json::from(high)),
                        ("margin", Json::from(c.rfi.margin(self.confidence))),
                        ("deviation", Json::from(self.deviation(c))),
                        ("model_truncated", Json::from(self.model_truncated(c))),
                        ("verdict", Json::from(self.verdict(c).as_str())),
                        ("agree", Json::from(self.agrees(c))),
                    ])
                })),
            ),
            (
                "ranks",
                Json::array(self.ranks().iter().map(|r| {
                    Json::object([
                        ("workload", Json::from(r.workload.as_str())),
                        ("cells", Json::from(r.cells)),
                        ("resolved_pairs", Json::from(r.resolved_pairs)),
                        ("concordant", Json::from(r.concordant)),
                        ("discordant", Json::from(r.discordant)),
                        (
                            "rank_correlation",
                            match r.correlation() {
                                Some(tau) => Json::from(tau),
                                None => Json::Null,
                            },
                        ),
                    ])
                })),
            ),
            ("agreed", Json::from(self.agreed())),
        ])
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Rebuild from a JSON document: checks the schema version, re-derives
    /// every judgment from the stored tallies, and verifies that each cell's
    /// aDVF report was produced under this report's analysis configuration.
    pub fn from_json(doc: &Json) -> Result<ValidationReport, MoardError> {
        check_schema_version(doc)?;
        // Every derived interval would silently fall back to the 95% z
        // value for a level this build does not know; reject instead of
        // mislabeling the statistics.
        let confidence = doc.f64_field("confidence")?;
        if !crate::stats::supported_confidence(confidence) {
            return Err(MoardError::InvalidConfig(format!(
                "validation report confidence level {confidence} is not supported \
                 (use 0.90, 0.95, or 0.99)"
            )));
        }
        let config = AnalysisConfig::from_json(doc.field("config")?)?;
        let found = parse_fingerprint(doc.str_field("config_fingerprint")?)?;
        if found != config.fingerprint() {
            return Err(MoardError::InvalidConfig(format!(
                "validation config fingerprint {found:016x} does not match its embedded \
                 config ({:016x})",
                config.fingerprint()
            )));
        }
        let mut cells = Vec::new();
        for cell in doc.arr_field("cells")? {
            let advf = AdvfReport::from_json(cell.field("advf_report")?)?;
            if advf.config_fingerprint != config.fingerprint() {
                return Err(MoardError::InvalidConfig(format!(
                    "validation cell aDVF report was produced under config {:016x}, not \
                     the campaign's config {:016x}",
                    advf.config_fingerprint,
                    config.fingerprint()
                )));
            }
            cells.push(ValidationCell {
                workload: cell.str_field("workload")?.to_string(),
                object: cell.str_field("object")?.to_string(),
                advf,
                rfi: RfiCampaign::from_json(cell.field("rfi")?)?,
            });
        }
        Ok(ValidationReport {
            spec_fingerprint: parse_fingerprint(doc.str_field("spec_fingerprint")?)?,
            confidence,
            target_margin: doc.f64_field("target_margin")?,
            max_trials: doc.u64_field("max_trials")?,
            seed: doc.u64_field("seed")?,
            tolerance: doc.f64_field("tolerance")?,
            use_dfi: doc
                .field("use_dfi")?
                .as_bool()
                .ok_or(JsonError::WrongType {
                    field: "use_dfi".into(),
                    expected: "a boolean",
                })
                .map_err(MoardError::Json)?,
            config,
            cells,
        })
    }

    /// Parse a report serialized with [`ValidationReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<ValidationReport, MoardError> {
        ValidationReport::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masking::{Masking, OpMaskKind};

    fn sample_report() -> AdvfReport {
        let mut acc = AdvfAccumulator::new();
        acc.add_participation(&[(Masking::Operation(OpMaskKind::Overwriting), 1.0)]);
        acc.add_participation(&[(Masking::Propagation, 1.0 / 3.0)]);
        acc.add_participation(&[
            (Masking::Algorithm, 0.125),
            (Masking::Operation(OpMaskKind::LogicCompare), 0.25),
        ]);
        acc.add_participation(&[]);
        let mut tally = PatternClassTally::new(1);
        for class in [
            Masking::Operation(OpMaskKind::Overwriting),
            Masking::Propagation,
            Masking::Algorithm,
            Masking::NotMasked,
        ] {
            tally.record(class);
        }
        AdvfReport {
            workload: "CG".into(),
            object: "colidx".into(),
            accumulator: acc,
            sites_analyzed: 4,
            dfi_runs: 2,
            dfi_cache_hits: 7,
            resolved_analytically: 2,
            dfi_budget_exhausted: false,
            patterns: "single-bit".into(),
            pattern_tallies: vec![tally],
            config_fingerprint: AnalysisConfig::default().fingerprint(),
        }
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = AdvfReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.advf().to_bits(), report.advf().to_bits());
    }

    #[test]
    fn report_json_materializes_derived_fields() {
        let report = sample_report();
        let doc = report.to_json();
        assert_eq!(doc.u32_field("schema_version").unwrap(), SCHEMA_VERSION);
        let advf = doc.f64_field("advf").unwrap();
        assert_eq!(advf.to_bits(), report.advf().to_bits());
        let (op, prop, alg) = report.accumulator.level_breakdown();
        let levels = doc.field("levels").unwrap();
        assert_eq!(levels.f64_field("operation").unwrap(), op);
        assert_eq!(levels.f64_field("propagation").unwrap(), prop);
        assert_eq!(levels.f64_field("algorithm").unwrap(), alg);
    }

    #[test]
    fn schema_version_is_enforced() {
        let mut doc = sample_report().to_json();
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::from(99u32);
        }
        match AdvfReport::from_json(&doc) {
            Err(MoardError::SchemaMismatch {
                found: 99,
                expected,
            }) => {
                assert_eq!(expected, SCHEMA_VERSION);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn config_round_trips_including_patterns() {
        for config in [
            AnalysisConfig::default(),
            AnalysisConfig {
                propagation_window: 10,
                site_stride: 4,
                max_dfi_per_object: Some(5_000),
                patterns: ErrorPatternSet::AdjacentBits { width: 2 },
            },
            AnalysisConfig {
                patterns: ErrorPatternSet::Explicit(vec![
                    crate::ErrorPattern { bits: vec![0, 7] },
                    crate::ErrorPattern { bits: vec![63] },
                ]),
                ..Default::default()
            },
        ] {
            let doc = config.to_json();
            let back = AnalysisConfig::from_json(&doc).unwrap();
            assert_eq!(back, config);
            assert_eq!(back.fingerprint(), config.fingerprint());
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = AnalysisConfig::default();
        let b = AnalysisConfig {
            site_stride: 2,
            ..Default::default()
        };
        let c = AnalysisConfig {
            max_dfi_per_object: Some(1),
            ..Default::default()
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
        // Hex rendering round-trips.
        let hex = fingerprint_hex(a.fingerprint());
        assert_eq!(parse_fingerprint(&hex).unwrap(), a.fingerprint());
    }

    #[test]
    fn trace_stats_serialize_for_bench_documents() {
        let doc = trace_stats_to_json(&moard_vm::TraceStats {
            records: 42,
            indexed_objects: 3,
            index_entries: 17,
        });
        assert_eq!(doc.u64_field("records").unwrap(), 42);
        assert_eq!(doc.u64_field("indexed_objects").unwrap(), 3);
        assert_eq!(doc.u64_field("index_entries").unwrap(), 17);
    }

    fn sample_study() -> StudyReport {
        let config = AnalysisConfig {
            site_stride: 2,
            ..Default::default()
        };
        let mut advf = sample_report();
        advf.config_fingerprint = config.fingerprint();
        StudyReport {
            study_fingerprint: 0xDEAD_BEEF_0123_4567,
            entries: vec![StudyEntry {
                workload: "CG".into(),
                object: "colidx".into(),
                config,
                advf,
            }],
            rfi: vec![RfiEntry {
                workload: "CG".into(),
                object: "colidx".into(),
                patterns: "single-bit".into(),
                summary: RfiSummary {
                    tests: 500,
                    seed: 0xF1F1,
                    identical: 300,
                    acceptable: 100,
                    incorrect: 80,
                    crashed: 20,
                },
            }],
        }
    }

    #[test]
    fn study_report_round_trips_bit_exactly() {
        let study = sample_study();
        let text = study.to_json_string();
        let back = StudyReport::from_json_str(&text).unwrap();
        assert_eq!(back, study);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn study_report_aggregates() {
        let study = sample_study();
        assert_eq!(study.workloads(), vec!["CG"]);
        assert_eq!(study.objects_of("CG"), vec!["colidx"]);
        assert!(study.entry("CG", "colidx").is_some());
        assert!(study.entry("CG", "rowstr").is_none());
        assert_eq!(study.entries_for("CG", "colidx").count(), 1);
        assert_eq!(study.rfi_for("CG", "colidx").count(), 1);
        assert_eq!(study.rfi_for("MM", "C").count(), 0);
    }

    #[test]
    fn rfi_summary_derives_rate_and_margin() {
        let s = sample_study().rfi[0].summary;
        assert_eq!(s.runs(), 500);
        assert!((s.success_rate() - 0.8).abs() < 1e-12);
        // Wilson half-width for 400/500 at 95%; close to (but not) Wald.
        assert_eq!(s.margin_95(), crate::stats::wilson_margin(400, 500, 0.95));
        assert!((s.margin_95() - 1.96 * (0.8f64 * 0.2 / 500.0).sqrt()).abs() < 0.002);
        let doc = s.to_json();
        assert_eq!(
            doc.f64_field("success_rate").unwrap().to_bits(),
            s.success_rate().to_bits()
        );
        let back = RfiSummary::from_json(&doc).unwrap();
        assert_eq!(back, s);
        // An empty campaign knows nothing: maximal half-width, not a
        // zero-width claim of certainty.
        let empty = RfiSummary {
            tests: 0,
            seed: 0,
            identical: 0,
            acceptable: 0,
            incorrect: 0,
            crashed: 0,
        };
        assert_eq!(empty.margin_95(), 0.5);
    }

    #[test]
    fn study_report_rejects_inconsistent_fingerprints() {
        let study = sample_study();
        // Tamper: swap the entry's config for a different one without
        // updating the embedded fingerprint.
        let mut doc = study.to_json();
        if let Json::Obj(members) = &mut doc {
            let entries = members
                .iter_mut()
                .find(|(k, _)| k == "entries")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(cells) = entries {
                if let Json::Obj(cell) = &mut cells[0] {
                    let config = cell.iter_mut().find(|(k, _)| k == "config").unwrap();
                    config.1 = AnalysisConfig::default().to_json();
                }
            }
        }
        assert!(matches!(
            StudyReport::from_json(&doc),
            Err(MoardError::InvalidConfig(_))
        ));
        // A wrong schema version is rejected before anything else.
        let bad = study.to_json_string().replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":99",
            1,
        );
        assert!(matches!(
            StudyReport::from_json_str(&bad),
            Err(MoardError::SchemaMismatch { .. })
        ));
    }

    fn validation_cell(
        workload: &str,
        object: &str,
        advf_value: f64,
        successes: u64,
        trials: u64,
        config: &AnalysisConfig,
        dfi_budget_exhausted: bool,
    ) -> ValidationCell {
        // An accumulator whose advf() equals `advf_value` over 1000 sites.
        let mut acc = AdvfAccumulator::new();
        for _ in 0..1000 {
            acc.add_participation(&[(Masking::Algorithm, advf_value)]);
        }
        ValidationCell {
            workload: workload.into(),
            object: object.into(),
            advf: AdvfReport {
                workload: workload.into(),
                object: object.into(),
                accumulator: acc,
                sites_analyzed: 1000,
                dfi_runs: 40,
                dfi_cache_hits: 0,
                resolved_analytically: 0,
                dfi_budget_exhausted,
                patterns: config.patterns.canonical(),
                pattern_tallies: vec![],
                config_fingerprint: config.fingerprint(),
            },
            rfi: RfiCampaign {
                shards: trials.div_ceil(32),
                identical: successes,
                acceptable: 0,
                incorrect: trials - successes,
                crashed: 0,
                converged: false,
            },
        }
    }

    fn sample_validation() -> ValidationReport {
        let config = AnalysisConfig {
            site_stride: 8,
            max_dfi_per_object: Some(100),
            ..Default::default()
        };
        let cells = vec![
            // Agrees: prediction 0.50 vs observed 100/200 = 0.50.
            validation_cell("CG", "r", 0.50, 100, 200, &config, false),
            // Conservative with a truncated budget: counts as agreeing.
            validation_cell("CG", "colidx", 0.05, 160, 200, &config, true),
            // Optimistic: prediction 0.90 vs observed 20/200 = 0.10.
            validation_cell("MM", "C", 0.90, 20, 200, &config, false),
        ];
        ValidationReport {
            spec_fingerprint: 0x0123_4567_89AB_CDEF,
            confidence: 0.95,
            target_margin: 0.05,
            max_trials: 200,
            seed: 0xF1F1,
            tolerance: 0.10,
            use_dfi: true,
            config,
            cells,
        }
    }

    #[test]
    fn analytic_predictions_are_lower_bounds() {
        // With DFI disabled, every prediction is a lower bound by
        // construction: a conservative verdict must count as agreeing even
        // though no cell can exhaust a DFI budget.
        let report = ValidationReport {
            use_dfi: false,
            ..sample_validation()
        };
        assert!(report.model_truncated(&report.cells[0]));
        assert!(report.agrees(&report.cells[1]));
        // The optimistic cell still fails: over-claiming masking is a model
        // error regardless of the resolver.
        assert!(!report.agrees(&report.cells[2]));
    }

    #[test]
    fn rank_correlation_excludes_exactly_tied_predictions() {
        let config = AnalysisConfig {
            site_stride: 8,
            max_dfi_per_object: Some(100),
            ..Default::default()
        };
        // Both predictions exactly 1.0, observed rates clearly separated:
        // the model expresses no ordering, so the pair must not be tallied
        // (and certainly not as discordant).
        let report = ValidationReport {
            cells: vec![
                validation_cell("FT", "plane", 1.0, 198, 200, &config, false),
                validation_cell("FT", "exp1", 1.0, 150, 200, &config, false),
            ],
            ..sample_validation()
        };
        let rank = report.rank("FT");
        assert_eq!(rank.resolved_pairs, 0);
        assert_eq!(rank.discordant, 0);
        assert_eq!(rank.correlation(), None);
    }

    #[test]
    fn validation_verdicts_follow_the_widened_interval() {
        let report = sample_validation();
        let verdicts: Vec<CellVerdict> = report.cells.iter().map(|c| report.verdict(c)).collect();
        assert_eq!(
            verdicts,
            vec![
                CellVerdict::Agree,
                CellVerdict::ModelConservative,
                CellVerdict::ModelOptimistic
            ]
        );
        // The conservative cell ran out of DFI budget: it still agrees.
        assert!(report.agrees(&report.cells[0]));
        assert!(report.model_truncated(&report.cells[1]));
        assert!(report.agrees(&report.cells[1]));
        assert!(!report.agrees(&report.cells[2]));
        assert_eq!(report.agreed(), 2);
        // Interval bounds stay inside the unit interval.
        for cell in &report.cells {
            let (low, high) = cell.rfi.wilson_bounds(report.confidence);
            assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
            assert!(low <= cell.rfi.success_rate() && cell.rfi.success_rate() <= high);
        }
    }

    #[test]
    fn validation_rank_correlation_skips_unresolved_pairs() {
        let report = sample_validation();
        // CG: observed 0.50 vs 0.80 (resolved), predicted 0.50 vs 0.05 —
        // the model orders the pair the opposite way.
        let rank = report.rank("CG");
        assert_eq!(rank.cells, 2);
        assert_eq!(rank.resolved_pairs, 1);
        assert_eq!(rank.discordant, 1);
        assert_eq!(rank.correlation(), Some(-1.0));
        // MM has a single cell: no pairs to rank.
        let rank = report.rank("MM");
        assert_eq!(rank.resolved_pairs, 0);
        assert_eq!(rank.correlation(), None);
        assert_eq!(report.ranks().len(), 2);
        assert_eq!(report.workloads(), vec!["CG", "MM"]);
    }

    #[test]
    fn validation_report_round_trips_bit_exactly() {
        let report = sample_validation();
        let text = report.to_json_string();
        let back = ValidationReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json_string(), text);
        // Pretty form parses to the same report.
        let back = ValidationReport::from_json_str(&report.to_json().to_pretty()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn validation_report_rejects_tampering() {
        let report = sample_validation();
        // Wrong schema version.
        let bad = report.to_json_string().replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":99",
            1,
        );
        assert!(matches!(
            ValidationReport::from_json_str(&bad),
            Err(MoardError::SchemaMismatch { .. })
        ));
        // A cell's aDVF report produced under a different configuration.
        let mut doc = report.to_json();
        if let Json::Obj(members) = &mut doc {
            let config = members
                .iter_mut()
                .find(|(k, _)| k == "config")
                .map(|(_, v)| v)
                .unwrap();
            *config = AnalysisConfig::default().to_json();
        }
        assert!(matches!(
            ValidationReport::from_json(&doc),
            Err(MoardError::InvalidConfig(_))
        ));
        // An unsupported confidence level would silently fall back to the
        // 95% z value in every derived interval; it must be rejected.
        let bad = report
            .to_json_string()
            .replacen("\"confidence\":0.95", "\"confidence\":0.8", 1);
        assert!(matches!(
            ValidationReport::from_json_str(&bad),
            Err(MoardError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rfi_campaign_round_trips_and_derives() {
        let campaign = RfiCampaign {
            shards: 4,
            identical: 90,
            acceptable: 10,
            incorrect: 20,
            crashed: 8,
            converged: true,
        };
        assert_eq!(campaign.trials(), 128);
        assert_eq!(campaign.successes(), 100);
        let doc = campaign.to_json();
        assert_eq!(doc.u64_field("trials").unwrap(), 128);
        let back = RfiCampaign::from_json(&doc).unwrap();
        assert_eq!(back, campaign);
    }

    #[test]
    fn tampered_pattern_tallies_are_rejected() {
        // Per-class counts exceeding `evaluated` would underflow
        // `not_masked()`; the parser must refuse them.
        let text = sample_report().to_json_string();
        let bad = text.replacen("\"evaluated\":4", "\"evaluated\":1", 1);
        assert!(matches!(
            AdvfReport::from_json_str(&bad),
            Err(MoardError::Json(JsonError::WrongType { .. }))
        ));
        // The untampered document still parses.
        assert!(AdvfReport::from_json_str(&text).is_ok());
    }

    #[test]
    fn tampered_documents_fail_loudly() {
        let text = sample_report().to_json_string();
        let broken = text.replace("\"participations\"", "\"particignorations\"");
        assert!(matches!(
            AdvfReport::from_json_str(&broken),
            Err(MoardError::Json(JsonError::MissingField(_)))
        ));
        assert!(AdvfReport::from_json_str("{not json").is_err());
    }
}
