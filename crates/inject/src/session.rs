//! The `AnalysisSession` façade: one fluent, `Result`-based entry point for
//! the whole MOARD pipeline.
//!
//! ```no_run
//! use moard_inject::Session;
//!
//! let report = Session::for_workload("mm")?
//!     .object("C")
//!     .window(50)
//!     .stride(4)
//!     .max_dfi(5_000)
//!     .run()?;
//! println!("aDVF(C in MM) = {:.4}", report.reports[0].advf());
//! println!("{}", report.to_json().to_pretty());
//! # Ok::<(), moard_core::MoardError>(())
//! ```
//!
//! A session prepares the workload once (module build, golden run, dynamic
//! trace, data-object table), then analyzes any number of objects — in
//! parallel across objects by default, with reports bit-identical to a
//! sequential run.  [`SessionReport`] serializes to the stable versioned
//! JSON schema of `moard_core::report`, embedding the exact analysis
//! configuration and its fingerprint.

use crate::campaign::Parallelism;
use crate::harness::WorkloadHarness;
use moard_core::{check_schema_version, AdvfReport, AnalysisConfig, MoardError, SCHEMA_VERSION};
use moard_json::{FromJson, Json, ToJson};
use moard_workloads::{Workload, WorkloadRegistry};

/// Builder for an [`AnalysisSession`]; created by
/// [`AnalysisSession::for_workload`] (or its registry-/instance-taking
/// variants), consumed by [`SessionBuilder::run`] or
/// [`SessionBuilder::build`].
pub struct SessionBuilder {
    workload: Box<dyn Workload>,
    config: AnalysisConfig,
    objects: Vec<String>,
    parallelism: Parallelism,
    use_dfi: bool,
    trace_backend: moard_vm::TraceBackendSpec,
}

impl SessionBuilder {
    fn new(workload: Box<dyn Workload>) -> SessionBuilder {
        SessionBuilder {
            workload,
            config: AnalysisConfig::default(),
            objects: Vec::new(),
            parallelism: Parallelism::Auto,
            use_dfi: true,
            trace_backend: moard_vm::TraceBackendSpec::Memory,
        }
    }

    /// Add a data object to analyze.  May be called repeatedly; when no
    /// object is selected, the workload's target objects are analyzed.
    pub fn object(mut self, name: impl Into<String>) -> Self {
        self.objects.push(name.into());
        self
    }

    /// Add several data objects to analyze.
    pub fn objects<I: IntoIterator<Item = S>, S: Into<String>>(mut self, names: I) -> Self {
        self.objects.extend(names.into_iter().map(Into::into));
        self
    }

    /// Propagation window `k` (paper §III-D; default 50).
    pub fn window(mut self, k: usize) -> Self {
        self.config.propagation_window = k;
        self
    }

    /// Analyze every `stride`-th participation site (default 1 = all).
    /// Zero is rejected with a typed error when the session runs.
    pub fn stride(mut self, stride: usize) -> Self {
        self.config.site_stride = stride;
        self
    }

    /// Cap deterministic fault injections per object (default unbounded).
    pub fn max_dfi(mut self, cap: u64) -> Self {
        self.config.max_dfi_per_object = Some(cap);
        self
    }

    /// Error-pattern set enumerated per participation site (default:
    /// single-bit; e.g. `ErrorPatternSet::AdjacentBits { width: 2 }` for
    /// the §VII-B adjacent double-bit study).
    pub fn patterns(mut self, patterns: moard_core::ErrorPatternSet) -> Self {
        self.config.patterns = patterns;
        self
    }

    /// Replace the whole analysis configuration.
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Disable deterministic fault injection (purely analytical lower
    /// bound).
    pub fn without_dfi(mut self) -> Self {
        self.use_dfi = false;
        self
    }

    /// Worker-thread policy for multi-object analysis (default
    /// [`Parallelism::Auto`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Trace storage backend: in-memory (default) or paged on-disk
    /// segments.  An execution-resource choice only — it never enters the
    /// configuration fingerprint, and reports are bit-identical across
    /// backends.
    pub fn trace_backend(mut self, backend: moard_vm::TraceBackendSpec) -> Self {
        self.trace_backend = backend;
        self
    }

    /// Validate the configuration and prepare the session (module build,
    /// golden run, trace, object table).
    pub fn build(self) -> Result<AnalysisSession, MoardError> {
        self.config.validate()?;
        let harness = WorkloadHarness::new_with(self.workload, &self.trace_backend)?;
        // Unknown objects surface now, not after minutes of analysis.
        for object in &self.objects {
            harness.object_id(object)?;
        }
        Ok(AnalysisSession {
            harness,
            config: self.config,
            objects: self.objects,
            parallelism: self.parallelism,
            use_dfi: self.use_dfi,
        })
    }

    /// Build the session and run the analysis in one call.
    pub fn run(self) -> Result<SessionReport, MoardError> {
        self.build()?.run()
    }
}

/// A prepared analysis session: workload harness plus the selected
/// configuration and data objects.  Reusable — [`AnalysisSession::run`]
/// borrows immutably, so several reports can be produced from one prepared
/// workload without re-tracing.
pub struct AnalysisSession {
    harness: WorkloadHarness,
    config: AnalysisConfig,
    objects: Vec<String>,
    parallelism: Parallelism,
    use_dfi: bool,
}

impl AnalysisSession {
    /// Start a session for a workload from the built-in registry.
    pub fn for_workload(name: &str) -> Result<SessionBuilder, MoardError> {
        Self::for_workload_in(moard_workloads::builtin_registry(), name)
    }

    /// Start a session for a workload from a caller-supplied registry (e.g.
    /// one extended with the ABFT variants or external workload families).
    pub fn for_workload_in(
        registry: &dyn WorkloadRegistry,
        name: &str,
    ) -> Result<SessionBuilder, MoardError> {
        Ok(SessionBuilder::new(crate::harness::create_workload(
            registry, name,
        )?))
    }

    /// Start a session for an already-constructed workload instance.
    pub fn from_workload(workload: Box<dyn Workload>) -> SessionBuilder {
        SessionBuilder::new(workload)
    }

    /// The underlying harness (trace, injector, object table, campaigns).
    pub fn harness(&self) -> &WorkloadHarness {
        &self.harness
    }

    /// Trace-engine statistics of the prepared workload (record count and
    /// per-object index sizes).
    pub fn trace_stats(&self) -> moard_vm::TraceStats {
        self.harness.trace_stats()
    }

    /// The analysis configuration of this session.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The data objects this session will analyze: the explicit selection,
    /// or the workload's target objects when none was selected.
    pub fn selected_objects(&self) -> Vec<String> {
        if self.objects.is_empty() {
            self.harness
                .workload()
                .target_objects()
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            self.objects.clone()
        }
    }

    /// Analyze the selected objects (in parallel across objects unless
    /// configured otherwise) and assemble the versioned session report.
    pub fn run(&self) -> Result<SessionReport, MoardError> {
        let objects = self.selected_objects();
        let reports = if self.use_dfi {
            self.harness
                .analyze_objects(&objects, &self.config, self.parallelism)?
        } else {
            self.harness
                .analyze_objects_without_dfi(&objects, &self.config, self.parallelism)?
        };
        Ok(SessionReport {
            workload: self.harness.workload().name().to_string(),
            config: self.config.clone(),
            reports,
        })
    }

    /// Analyze one object with this session's configuration.
    pub fn analyze(&self, object: &str) -> Result<AdvfReport, MoardError> {
        if self.use_dfi {
            self.harness.analyze(object, self.config.clone())
        } else {
            self.harness
                .analyze_without_dfi(object, self.config.clone())
        }
    }
}

/// The serializable result of one session run: per-object aDVF reports plus
/// the exact configuration (and fingerprint) that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Workload name.
    pub workload: String,
    /// The analysis configuration the reports were computed under.
    pub config: AnalysisConfig,
    /// One aDVF report per analyzed data object, in selection order.
    pub reports: Vec<AdvfReport>,
}

impl SessionReport {
    /// The report of one object, if it was analyzed.
    pub fn report_for(&self, object: &str) -> Option<&AdvfReport> {
        self.reports.iter().find(|r| r.object == object)
    }

    /// The JSON document of this report (inherent mirror of the
    /// [`ToJson`] impl so callers need no trait import).
    pub fn to_json(&self) -> Json {
        ToJson::to_json(self)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse a report serialized with [`SessionReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<SessionReport, MoardError> {
        SessionReport::from_json(&Json::parse(text)?)
    }

    /// Rebuild from a JSON document, checking the schema version.
    pub fn from_json(doc: &Json) -> Result<SessionReport, MoardError> {
        check_schema_version(doc)?;
        let config = AnalysisConfig::from_json(doc.field("config")?)?;
        let expected = config.fingerprint();
        let found = moard_core::parse_fingerprint(doc.str_field("config_fingerprint")?)?;
        if found != expected {
            return Err(MoardError::InvalidConfig(format!(
                "config fingerprint {found:016x} does not match the embedded config \
                 ({expected:016x}); the document was produced by a different configuration"
            )));
        }
        let reports = doc
            .arr_field("reports")?
            .iter()
            .map(AdvfReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SessionReport {
            workload: doc.str_field("workload")?.to_string(),
            config,
            reports,
        })
    }
}

impl ToJson for SessionReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("workload", Json::from(self.workload.as_str())),
            ("config", self.config.to_json()),
            (
                "config_fingerprint",
                Json::from(moard_core::fingerprint_hex(self.config.fingerprint())),
            ),
            (
                "reports",
                Json::array(self.reports.iter().map(|r| r.to_json())),
            ),
        ])
    }
}

/// `Session` is the short name the façade is documented under; it is the
/// same type as [`AnalysisSession`].
pub type Session = AnalysisSession;

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(builder: SessionBuilder) -> SessionBuilder {
        builder.stride(16).max_dfi(200)
    }

    #[test]
    fn fluent_chain_produces_a_report() {
        let report = quick(Session::for_workload("mm").unwrap())
            .object("C")
            .window(50)
            .run()
            .unwrap();
        assert_eq!(report.workload, "MM");
        assert_eq!(report.reports.len(), 1);
        assert_eq!(report.reports[0].object, "C");
        assert!(report.report_for("C").is_some());
        assert!(report.report_for("A").is_none());
        assert_eq!(
            report.reports[0].config_fingerprint,
            report.config.fingerprint()
        );
    }

    #[test]
    fn default_selection_is_the_target_objects() {
        let session = quick(Session::for_workload("mm").unwrap()).build().unwrap();
        assert_eq!(
            session.selected_objects(),
            session
                .harness()
                .workload()
                .target_objects()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_workload_and_object_are_typed_errors() {
        assert!(matches!(
            Session::for_workload("warp-drive"),
            Err(MoardError::UnknownWorkload { .. })
        ));
        let err = quick(Session::for_workload("mm").unwrap())
            .object("no-such-object")
            .run()
            .unwrap_err();
        assert!(matches!(err, MoardError::UnknownObject { .. }));
    }

    #[test]
    fn zero_stride_is_rejected_not_normalized() {
        let err = Session::for_workload("mm")
            .unwrap()
            .object("C")
            .stride(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, MoardError::InvalidConfig(_)));
    }

    #[test]
    fn session_report_round_trips_through_json() {
        let report = quick(Session::for_workload("mm").unwrap())
            .object("C")
            .parallelism(Parallelism::Sequential)
            .run()
            .unwrap();
        let text = report.to_json_string();
        let back = SessionReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn without_dfi_is_a_lower_bound() {
        let with_dfi = quick(Session::for_workload("mm").unwrap())
            .object("C")
            .run()
            .unwrap();
        let without = quick(Session::for_workload("mm").unwrap())
            .object("C")
            .without_dfi()
            .run()
            .unwrap();
        assert!(without.reports[0].advf() <= with_dfi.reports[0].advf() + 1e-12);
        assert_eq!(without.reports[0].dfi_runs, 0);
    }

    #[test]
    fn analytic_single_object_report_is_identical_across_parallelism() {
        // The session report must not depend on the worker count.
        let run = |parallelism| {
            quick(Session::for_workload("mm").unwrap())
                .object("C")
                .without_dfi()
                .parallelism(parallelism)
                .run()
                .unwrap()
        };
        let seq = run(Parallelism::Sequential);
        let par = run(Parallelism::Fixed(8));
        assert_eq!(seq, par);
        assert_eq!(seq.to_json_string(), par.to_json_string());
    }

    #[test]
    fn session_exposes_trace_stats() {
        let session = quick(Session::for_workload("mm").unwrap()).build().unwrap();
        let stats = session.trace_stats();
        assert_eq!(stats.records, session.harness().trace().len() as u64);
        assert!(stats.index_entries > 0);
    }
}
