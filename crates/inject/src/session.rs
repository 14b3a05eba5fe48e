//! One workload analysis: [`Runner::analyze`] and the [`SessionReport`] it
//! returns.
//!
//! ```no_run
//! use moard_inject::Runner;
//!
//! let config = moard_core::AnalysisConfig {
//!     site_stride: 4,
//!     max_dfi_per_object: Some(5_000),
//!     ..Default::default()
//! };
//! let registry = moard_workloads::builtin_registry();
//! let report = Runner::default().analyze("mm", &["C".into()], &config, true, registry)?;
//! println!("aDVF(C in MM) = {:.4}", report.reports[0].advf());
//! println!("{}", report.to_json().to_pretty());
//! # Ok::<(), moard_core::MoardError>(())
//! ```
//!
//! The analysis is the one-configuration study of [`StudySpec::analysis`],
//! run by [`Runner::sweep`]: the workload is prepared once (module build,
//! golden run, dynamic trace, data-object table) and its objects are
//! analyzed as parallel tasks, with reports bit-identical to a sequential
//! run.  [`SessionReport`] serializes to the stable versioned JSON schema
//! of `moard_core::report`, embedding the exact analysis configuration and
//! its fingerprint.

use crate::harness::create_workload;
use crate::runner::Runner;
use crate::sweep::StudySpec;
use moard_core::{check_schema_version, AdvfReport, AnalysisConfig, MoardError, SCHEMA_VERSION};
use moard_json::{FromJson, Json, ToJson};
use moard_workloads::WorkloadRegistry;

impl Runner {
    /// Analyze `objects` of one workload under `config`: the workload's
    /// target objects when `objects` is empty, otherwise the named ones in
    /// request order, repeats kept.  Without `use_dfi` the analysis makes no
    /// deterministic fault injection (a purely analytical lower bound).
    ///
    /// An unknown workload is [`MoardError::UnknownWorkload`], a bad config
    /// [`MoardError::InvalidConfig`], and an unknown object
    /// [`MoardError::UnknownObject`], all before any analysis runs.
    pub fn analyze(
        &self,
        workload: &str,
        objects: &[String],
        config: &AnalysisConfig,
        use_dfi: bool,
        registry: &dyn WorkloadRegistry,
    ) -> Result<SessionReport, MoardError> {
        // Resolved first: an unknown workload is reported before a bad
        // config, and the report carries the canonical name.
        let name = create_workload(registry, workload)?.name().to_string();
        let spec = StudySpec::analysis(workload, objects, config, use_dfi);
        let (study, _) = self.sweep(&spec, registry)?;
        Ok(SessionReport {
            workload: name,
            config: config.clone(),
            reports: study.entries.into_iter().map(|e| e.advf).collect(),
        })
    }
}

/// The serializable result of one workload analysis: per-object aDVF
/// reports plus the exact configuration (and fingerprint) that produced them.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Parallelism;
    use moard_workloads::builtin_registry;

    fn quick() -> AnalysisConfig {
        AnalysisConfig {
            site_stride: 16,
            max_dfi_per_object: Some(200),
            ..Default::default()
        }
    }

    /// `objects` of MM under `runner` and `config`.
    fn mm(
        runner: &Runner,
        objects: &[&str],
        config: &AnalysisConfig,
        use_dfi: bool,
    ) -> Result<SessionReport, MoardError> {
        let objects: Vec<String> = objects.iter().map(|o| o.to_string()).collect();
        runner.analyze("mm", &objects, config, use_dfi, builtin_registry())
    }

    #[test]
    fn one_report_per_named_object_carries_the_config_fingerprint() {
        let report = mm(&Runner::default(), &["C", "A", "C"], &quick(), true).unwrap();
        assert_eq!(report.workload, "MM");
        assert_eq!(report.config, quick());
        let objects: Vec<&str> = report.reports.iter().map(|r| r.object.as_str()).collect();
        assert_eq!(objects, ["C", "A", "C"]);
        assert_eq!(report.reports[0], report.reports[2]);
        for r in &report.reports {
            assert_eq!(r.config_fingerprint, quick().fingerprint());
        }
        assert!(report.report_for("B").is_none());
    }

    #[test]
    fn default_selection_is_the_target_objects() {
        let report = mm(&Runner::default(), &[], &quick(), true).unwrap();
        let targets = builtin_registry().create("mm").unwrap().target_objects();
        let objects: Vec<&str> = report.reports.iter().map(|r| r.object.as_str()).collect();
        assert_eq!(objects, targets);
    }

    #[test]
    fn unknown_workload_and_object_are_typed_errors() {
        let runner = Runner::default();
        let err = runner
            .analyze("warp-drive", &[], &quick(), true, builtin_registry())
            .unwrap_err();
        assert!(matches!(err, MoardError::UnknownWorkload { .. }));
        let err = mm(&runner, &["C", "no-such-object"], &quick(), true).unwrap_err();
        assert!(matches!(err, MoardError::UnknownObject { .. }));
    }

    #[test]
    fn zero_stride_is_rejected_not_normalized() {
        let config = AnalysisConfig {
            site_stride: 0,
            ..Default::default()
        };
        let err = mm(&Runner::default(), &["C"], &config, true).unwrap_err();
        assert!(matches!(err, MoardError::InvalidConfig(_)));
    }

    #[test]
    fn session_report_round_trips_through_json() {
        let report = mm(&Runner::default(), &["C"], &quick(), true).unwrap();
        let back = SessionReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn without_dfi_is_a_lower_bound() {
        let with_dfi = mm(&Runner::default(), &["C"], &quick(), true).unwrap();
        let without = mm(&Runner::default(), &["C"], &quick(), false).unwrap();
        assert!(without.reports[0].advf() <= with_dfi.reports[0].advf() + 1e-12);
        assert_eq!(without.reports[0].dfi_runs, 0);
    }

    #[test]
    fn analytic_single_object_report_is_identical_across_parallelism() {
        // The report must not depend on the worker count.
        let run = |parallelism| {
            let runner = Runner {
                parallelism,
                ..Runner::default()
            };
            mm(&runner, &["C"], &quick(), false).unwrap()
        };
        let seq = run(Parallelism::Sequential);
        let par = run(Parallelism::Fixed(8));
        assert_eq!(seq, par);
        assert_eq!(seq.to_json_string(), par.to_json_string());
    }
}
