//! # moard-abft
//!
//! Algorithm-based fault tolerance (ABFT) case-study workloads (paper §VI).
//!
//! Two protected workloads are provided, each directly comparable with its
//! unprotected baseline from `moard-workloads`:
//!
//! * [`AbftMatMul`] — Wu & Ding checksum ABFT for `C = A × B`; the aDVF of
//!   `C` jumps from ≈0.02 to ≈0.8 because corrupted elements are corrected
//!   (overwritten) during the verification phase (Fig. 8);
//! * [`AbftPf`] — the same checksum idea applied to the particle filter's
//!   estimate vector `xe`; the aDVF barely moves (Fig. 9), demonstrating how
//!   a model-driven analysis can tell *useful* protection from redundant
//!   protection before paying its runtime overhead.
//!
//! The host-side checksum arithmetic lives in [`checksum`] and is reused by
//! the tests to cross-check the in-IR implementations.

pub mod abft_mm;
pub mod abft_pf;
pub mod checksum;

pub use abft_mm::AbftMatMul;
pub use abft_pf::AbftPf;
pub use checksum::{
    encode_column_checksum, encode_row_checksum, full_checksum_product, verify_full_product,
    DetectedError,
};

use moard_workloads::Registry;

/// Register the ABFT case-study variants into a workload registry, making
/// them addressable by the CLI and `Runner::analyze` exactly like the
/// built-in workloads (`abft-mm`, `abft-pf`, plus long-form aliases).
pub fn register(registry: &mut Registry) {
    registry.register(&["abft-matmul", "abftmm"], || {
        Box::new(AbftMatMul::default())
    });
    registry.register(&["abft-particlefilter", "abftpf"], || {
        Box::new(AbftPf::default())
    });
}

/// A registry holding the built-in workloads plus the ABFT variants.
pub fn registry_with_abft() -> Registry {
    let mut registry = Registry::builtin();
    register(&mut registry);
    registry
}

#[cfg(test)]
mod registry_tests {
    use moard_workloads::WorkloadRegistry;

    #[test]
    fn abft_variants_register_uniformly() {
        let registry = super::registry_with_abft();
        assert_eq!(registry.create("abft-mm").unwrap().name(), "ABFT-MM");
        assert_eq!(registry.create("ABFT-PF").unwrap().name(), "ABFT-PF");
        assert_eq!(registry.create("abftmm").unwrap().name(), "ABFT-MM");
        // The built-ins are still there and the Table I subset is unchanged.
        assert!(registry.contains("lulesh"));
        assert_eq!(registry.table1().len(), 8);
        assert_eq!(registry.names().len(), 12);
    }
}
