//! The workload registry: uniform, extensible workload lookup.
//!
//! Earlier revisions resolved workload names with a hard-coded `match`; this
//! module replaces that with a first-class registry so the Table I
//! benchmarks, the MM/PF case studies, and out-of-crate workload families
//! (e.g. the ABFT variants in `moard-abft`, or workloads defined by a
//! downstream crate) all register through the same interface and become
//! visible to the CLI, `Runner::analyze`, and the figure binaries without
//! touching this crate.

use crate::spec::Workload;
use std::sync::OnceLock;

/// Factory producing a fresh instance of a registered workload.
pub type WorkloadFactory = fn() -> Box<dyn Workload>;

/// Metadata describing one registered workload.
#[derive(Debug, Clone)]
pub struct WorkloadDescriptor {
    /// Canonical name (matches `Workload::name`), e.g. `"CG"`.
    pub name: &'static str,
    /// Extra lookup names, e.g. `"matmul"` for MM.
    pub aliases: &'static [&'static str],
    /// One-line description (Table I).
    pub description: &'static str,
    /// Evaluated code segment (Table I).
    pub code_segment: &'static str,
    /// Target data objects (Table I's last column).
    pub targets: Vec<&'static str>,
    /// True for the eight Table I benchmarks (excludes case studies).
    pub table1: bool,
}

/// A source of workloads.  `moard-workloads` ships [`Registry`], a concrete
/// mutable implementation; external crates can either register into a
/// [`Registry`] or implement this trait over their own storage.
pub trait WorkloadRegistry: Send + Sync {
    /// Metadata of every registered workload, in registration order.
    fn descriptors(&self) -> Vec<WorkloadDescriptor>;

    /// Instantiate a workload by name or alias (case-insensitive).
    fn create(&self, name: &str) -> Option<Box<dyn Workload>>;

    /// Canonical names of every registered workload, in registration order.
    fn names(&self) -> Vec<&'static str> {
        self.descriptors().iter().map(|d| d.name).collect()
    }

    /// True if `name` resolves to a registered workload.
    fn contains(&self, name: &str) -> bool {
        self.create(name).is_some()
    }

    /// Metadata of one registered workload, looked up by name or alias
    /// (case-insensitive) — the per-workload view of [`Self::descriptors`]
    /// used by the sweep engine's reporting surfaces.
    fn descriptor(&self, name: &str) -> Option<WorkloadDescriptor> {
        let wanted = name.to_ascii_lowercase();
        self.descriptors().into_iter().find(|d| {
            d.name.to_ascii_lowercase() == wanted
                || d.aliases.iter().any(|a| a.to_ascii_lowercase() == wanted)
        })
    }
}

struct Entry {
    aliases: &'static [&'static str],
    table1: bool,
    factory: WorkloadFactory,
}

/// The concrete, composable registry.
///
/// Starts [`Registry::empty`] or with the ten built-in workloads
/// ([`Registry::builtin`]); grows via [`Registry::register`].
#[derive(Default)]
pub struct Registry {
    entries: Vec<Entry>,
}

impl Registry {
    /// A registry with nothing registered.
    pub fn empty() -> Registry {
        Registry::default()
    }

    /// A registry holding the eight Table I benchmarks plus the MM and PF
    /// case studies, in the order of the paper's figures.
    pub fn builtin() -> Registry {
        let mut r = Registry::empty();
        r.register_table1(&[], || Box::new(crate::npb::Cg::default()));
        r.register_table1(&[], || Box::new(crate::npb::Mg::default()));
        r.register_table1(&[], || Box::new(crate::npb::Ft::default()));
        r.register_table1(&[], || Box::new(crate::npb::Bt::default()));
        r.register_table1(&[], || Box::new(crate::npb::Sp::default()));
        r.register_table1(&[], || Box::new(crate::npb::Lu::default()));
        r.register_table1(&[], || Box::new(crate::Lulesh::default()));
        r.register_table1(&[], || Box::new(crate::Amg::default()));
        r.register(&["matmul"], || Box::new(crate::MatMul::default()));
        r.register(&["particlefilter"], || Box::new(crate::Pf::default()));
        r
    }

    /// Register a workload (case study / external family).
    pub fn register(&mut self, aliases: &'static [&'static str], factory: WorkloadFactory) {
        self.entries.push(Entry {
            aliases,
            table1: false,
            factory,
        });
    }

    /// Register one of the Table I benchmarks.
    pub fn register_table1(&mut self, aliases: &'static [&'static str], factory: WorkloadFactory) {
        self.entries.push(Entry {
            aliases,
            table1: true,
            factory,
        });
    }

    /// Fresh instances of the Table I benchmarks, in registration order.
    pub fn table1(&self) -> Vec<Box<dyn Workload>> {
        self.entries
            .iter()
            .filter(|e| e.table1)
            .map(|e| (e.factory)())
            .collect()
    }

    /// Fresh instances of every registered workload, in registration order.
    pub fn all(&self) -> Vec<Box<dyn Workload>> {
        self.entries.iter().map(|e| (e.factory)()).collect()
    }
}

impl WorkloadRegistry for Registry {
    fn descriptors(&self) -> Vec<WorkloadDescriptor> {
        self.entries
            .iter()
            .map(|e| {
                let w = (e.factory)();
                WorkloadDescriptor {
                    name: w.name(),
                    aliases: e.aliases,
                    description: w.description(),
                    code_segment: w.code_segment(),
                    targets: w.target_objects(),
                    table1: e.table1,
                }
            })
            .collect()
    }

    fn create(&self, name: &str) -> Option<Box<dyn Workload>> {
        let wanted = name.to_ascii_lowercase();
        self.entries.iter().find_map(|e| {
            let w = (e.factory)();
            let hit = w.name().to_ascii_lowercase() == wanted
                || e.aliases.iter().any(|a| a.to_ascii_lowercase() == wanted);
            hit.then_some(w)
        })
    }
}

/// The process-wide built-in registry (Table I + case studies), built once.
pub fn builtin_registry() -> &'static Registry {
    static BUILTIN: OnceLock<Registry> = OnceLock::new();
    BUILTIN.get_or_init(Registry::builtin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_ten_workloads_in_figure_order() {
        let names = builtin_registry().names();
        assert_eq!(
            names,
            vec!["CG", "MG", "FT", "BT", "SP", "LU", "LULESH", "AMG", "MM", "PF"]
        );
        assert_eq!(builtin_registry().table1().len(), 8);
        assert_eq!(builtin_registry().all().len(), 10);
    }

    #[test]
    fn lookup_is_case_insensitive_and_knows_aliases() {
        let r = builtin_registry();
        assert_eq!(r.create("cg").unwrap().name(), "CG");
        assert_eq!(r.create("LULESH").unwrap().name(), "LULESH");
        assert_eq!(r.create("MatMul").unwrap().name(), "MM");
        assert_eq!(r.create("ParticleFilter").unwrap().name(), "PF");
        assert!(r.create("not-a-workload").is_none());
        assert!(r.contains("mm") && !r.contains("zz"));
    }

    #[test]
    fn descriptors_carry_table1_metadata() {
        let descriptors = builtin_registry().descriptors();
        let cg = &descriptors[0];
        assert_eq!(cg.name, "CG");
        assert!(cg.table1);
        assert!(!cg.targets.is_empty());
        let mm = descriptors.iter().find(|d| d.name == "MM").unwrap();
        assert!(!mm.table1);
        assert_eq!(mm.aliases, &["matmul"]);
    }

    #[test]
    fn descriptor_lookup_follows_names_and_aliases() {
        let r = builtin_registry();
        assert_eq!(r.descriptor("CG").unwrap().name, "CG");
        assert_eq!(r.descriptor("matmul").unwrap().name, "MM");
        assert_eq!(r.descriptor("pf").unwrap().name, "PF");
        assert!(r.descriptor("nope").is_none());
    }

    #[test]
    fn external_registration_extends_a_registry() {
        let mut r = Registry::empty();
        assert!(r.create("mm").is_none());
        r.register(&["gemm"], || Box::new(crate::MatMul::default()));
        assert_eq!(r.create("gemm").unwrap().name(), "MM");
        assert_eq!(r.names(), vec!["MM"]);
        assert!(r.table1().is_empty());
    }
}
