//! The deterministic fault injector bound to one workload.
//!
//! This is the component labelled "deterministic fault injector" in the
//! MOARD framework figure (paper Fig. 3): given a fault site (dynamic
//! instruction, operand/destination, bit), it re-executes the workload with
//! exactly that bit flipped and classifies the outcome against the golden
//! run using the workload's own acceptance criterion.
//!
//! A fault whose run provably stays on the golden path needs no re-run: the
//! analyzer hands the injector the words that run corrupts
//! ([`SamePathEnd`]), and [`DeterministicInjector::reconstruct`] patches them
//! into the golden outcome.

use moard_core::{DfiResolver, MoardError, SamePathEnd};
use moard_ir::Module;
use moard_vm::{DataObjectRegistry, ExecOutcome, FaultSpec, OutcomeClass, Vm, VmConfig};
use moard_workloads::Workload;

/// A reusable deterministic fault injector for one workload instance.
pub struct DeterministicInjector {
    workload: Box<dyn Workload>,
    module: Module,
    golden: ExecOutcome,
    /// The data objects of the golden run's memory image, to place the
    /// words of a reconstructed outcome.
    objects: DataObjectRegistry,
    config: VmConfig,
}

impl DeterministicInjector {
    /// Build the injector: constructs the module and runs the golden
    /// execution once.  Fails with a typed error if the module does not
    /// load or the golden run does not complete.
    pub fn new(workload: Box<dyn Workload>) -> Result<Self, MoardError> {
        let module = workload.build();
        let config = VmConfig {
            max_steps: workload.max_steps(),
            ..VmConfig::default()
        };
        let vm = Vm::new(&module, config.clone())?;
        let objects = vm.objects().clone();
        let golden = vm.execute();
        if !golden.status.is_completed() {
            return Err(MoardError::GoldenRunFailed {
                workload: workload.name().to_string(),
                status: format!("{:?}", golden.status),
            });
        }
        Ok(DeterministicInjector {
            workload,
            module,
            golden,
            objects,
            config,
        })
    }

    /// The workload under test.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// The built IR module (shared with trace generation).
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The golden outcome.
    pub fn golden(&self) -> &ExecOutcome {
        &self.golden
    }

    /// The data-object table of the golden run's memory image (the same for
    /// every run of this module and configuration).
    pub(crate) fn objects(&self) -> &DataObjectRegistry {
        &self.objects
    }

    /// The VM configuration used for every injected run.
    pub fn vm_config(&self) -> &VmConfig {
        &self.config
    }

    /// Run one fault injection and return the raw outcome.
    pub fn run(&self, fault: &FaultSpec) -> ExecOutcome {
        Vm::new(&self.module, self.config.clone())
            .expect("module loads")
            .execute_with_fault(fault)
    }

    /// Run one fault injection and classify it against the golden run.
    pub fn run_classified(&self, fault: &FaultSpec) -> OutcomeClass {
        let outcome = self.run(fault);
        self.workload.classify(&self.golden, &outcome)
    }

    /// The outcome of a faulty run that stays on the golden path, rebuilt
    /// from its end state: the golden outcome (status, steps) with every
    /// corrupted word and the corrupted return value patched in.
    ///
    /// `None` when a word is not the start of an element of a global of
    /// the word's type, or a return value does not match the golden one's
    /// type; such a fault must be injected instead.
    pub fn reconstruct(&self, end: &SamePathEnd) -> Option<ExecOutcome> {
        let mut outcome = self.golden.clone();
        for &(addr, value) in &end.memory {
            let (id, index) = self.objects.locate(addr)?;
            let object = self.objects.get(id);
            if object.elem_addr(index) != addr || object.elem_ty != value.ty() {
                return None;
            }
            *outcome
                .globals
                .get_mut(&object.name)?
                .get_mut(index as usize)? = value;
        }
        if let Some(value) = end.return_value {
            if self.golden.return_value?.ty() != value.ty() {
                return None;
            }
            outcome.return_value = Some(value);
        }
        Some(outcome)
    }
}

impl DfiResolver for DeterministicInjector {
    fn classify(&self, fault: &FaultSpec) -> OutcomeClass {
        self.run_classified(fault)
    }

    fn reconstructs(&self) -> bool {
        true
    }

    fn classify_same_path(&self, _: &FaultSpec, end: &SamePathEnd) -> Option<OutcomeClass> {
        let outcome = self.reconstruct(end)?;
        Some(self.workload.classify(&self.golden, &outcome))
    }

    fn name(&self) -> &str {
        self.workload.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_core::{enumerate_sites, SiteSlot};
    use moard_vm::run_traced;
    use moard_workloads::MatMul;

    #[test]
    fn injector_classifies_mm_faults() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let (_, trace) = run_traced(injector.module()).unwrap();
        let vm = Vm::with_defaults(injector.module()).unwrap();
        let c = vm.objects().by_name("C").unwrap().id;
        let sites = enumerate_sites(&trace, c);
        assert!(!sites.is_empty());

        // A store-destination fault on C is overwritten -> identical outcome.
        let store_site = sites
            .iter()
            .find(|s| s.slot == SiteSlot::StoreDest)
            .unwrap();
        assert_eq!(
            injector.run_classified(&store_site.fault_bit(63)),
            OutcomeClass::Identical
        );

        // Corrupting the sign of a C element consumed by the final trace
        // reduction changes the output matrix?  No — the trace reduction
        // reads C but writes only the return value, so flip an operand that
        // participates in C's own computation instead: the last store's
        // *value* operand (an Operand slot) propagates into C.
        let value_site = sites
            .iter()
            .rev()
            .find(|s| matches!(s.slot, SiteSlot::Operand(_)))
            .unwrap();
        let verdict = injector.run_classified(&value_site.fault_bit(62));
        assert_ne!(verdict, OutcomeClass::Identical);
    }

    #[test]
    fn dfi_resolver_trait_is_implemented() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let resolver: &dyn DfiResolver = &injector;
        assert_eq!(resolver.name(), "MM");
        // A fault at a non-existent dynamic instruction is a no-op: identical.
        let nop = FaultSpec::single_bit(u64::MAX - 1, moard_vm::FaultTarget::Result, 0);
        assert_eq!(resolver.classify(&nop), OutcomeClass::Identical);
    }
}
