//! Acceptance tests of the pattern-generalized fault engine: multi-bit
//! error patterns behave as first-class citizens of the whole pipeline —
//! degenerate multi-bit sets reduce exactly to the single-bit engine,
//! multi-bit analysis is bit-identical at any worker count, and the
//! validation engine's site × pattern RFI streams are invariant under the
//! thread count.

use moard::inject::{
    Parallelism, PatternSampler, Runner, SessionReport, ValidationSpec, WorkloadHarness,
    WorkloadSelector,
};
use moard::model::{AnalysisConfig, ErrorPattern, ErrorPatternSet};

/// MM's C under `config`.
fn mm_c(runner: &Runner, config: &AnalysisConfig, use_dfi: bool) -> SessionReport {
    let registry = moard::workloads::builtin_registry();
    runner
        .analyze("mm", &["C".into()], config, use_dfi, registry)
        .unwrap()
}

/// (a) `AdjacentBits { width: 1 }` enumerates exactly the single-bit
/// patterns, so its analysis must be bit-identical to `SingleBit` —
/// accumulator, per-site tallies, DFI usage, everything except the
/// canonical pattern string (and with it the config fingerprint).
#[test]
fn adjacent_width_one_analysis_is_bit_identical_to_single_bit() {
    let run = |patterns: ErrorPatternSet| {
        let config = AnalysisConfig {
            site_stride: 16,
            max_dfi_per_object: Some(150),
            patterns,
            ..Default::default()
        };
        mm_c(&Runner::default(), &config, true)
    };
    let single = run(ErrorPatternSet::SingleBit);
    let adj1 = run(ErrorPatternSet::AdjacentBits { width: 1 });
    let (s, a) = (&single.reports[0], &adj1.reports[0]);
    assert_eq!(s.accumulator, a.accumulator);
    assert_eq!(s.advf().to_bits(), a.advf().to_bits());
    assert_eq!(s.sites_analyzed, a.sites_analyzed);
    assert_eq!(s.dfi_runs, a.dfi_runs);
    assert_eq!(s.dfi_cache_hits, a.dfi_cache_hits);
    assert_eq!(s.resolved_analytically, a.resolved_analytically);
    assert_eq!(s.pattern_tallies, a.pattern_tallies);
    // The two spellings are distinct configurations on purpose: the
    // canonical strings (and fingerprints) must not collide…
    assert_eq!(s.patterns, "single-bit");
    assert_eq!(a.patterns, "adjacent-bits:1");
    assert_ne!(s.config_fingerprint, a.config_fingerprint);
    // …and an explicit spelling of the same bits also matches bit-for-bit.
    let explicit = run(ErrorPatternSet::Explicit(
        (0..64).map(ErrorPattern::single).collect(),
    ));
    assert_eq!(explicit.reports[0].accumulator, s.accumulator);
}

/// (b) Multi-bit analysis folds per-site fractions in site order and
/// pattern-class tallies as exact integer sums, so any worker count
/// reproduces the sequential report bit-for-bit.
#[test]
fn multibit_sharded_analysis_is_bit_identical_to_sequential() {
    for patterns in [
        ErrorPatternSet::AdjacentBits { width: 2 },
        ErrorPatternSet::SeparatedPair { gap: 8 },
        ErrorPatternSet::Explicit(vec![
            ErrorPattern::new(vec![0, 1, 2]),
            ErrorPattern::single(63),
        ]),
    ] {
        let run = |parallelism| {
            let runner = Runner {
                parallelism,
                ..Runner::default()
            };
            let config = AnalysisConfig {
                site_stride: 8,
                patterns: patterns.clone(),
                ..Default::default()
            };
            mm_c(&runner, &config, false)
        };
        let seq = run(Parallelism::Sequential);
        let parallel = run(Parallelism::Fixed(8));
        assert_eq!(seq, parallel, "patterns {}", patterns.canonical());
        assert_eq!(seq.to_json_string(), parallel.to_json_string());
        assert!(!seq.reports[0].pattern_tallies.is_empty());
    }
}

/// (c) The validation engine's RFI leg draws shard-indexed streams over the
/// site × pattern population: the folded campaign — and with it the whole
/// report — is bit-identical for any thread count, multi-bit included.
#[test]
fn multibit_rfi_sampling_is_bit_identical_across_shard_counts() {
    let spec = || {
        ValidationSpec::default()
            .workloads(WorkloadSelector::Named(vec!["mm".into()]))
            .stride(16)
            .max_dfi(150)
            .patterns(ErrorPatternSet::AdjacentBits { width: 2 })
            .target_margin(0.12)
            .max_trials(96)
            .shards(16, 2)
            .seed(7)
    };
    let validate = |parallelism| {
        Runner {
            parallelism,
            ..Runner::default()
        }
        .validate(&spec(), moard::workloads::builtin_registry())
        .unwrap()
        .0
    };
    let seq = validate(Parallelism::Sequential);
    for workers in [2usize, 8, 32] {
        let par = validate(Parallelism::Fixed(workers));
        assert_eq!(seq, par, "workers={workers}");
        assert_eq!(seq.to_json_string(), par.to_json_string());
    }
    // Every sampled fault really was a double-bit burst: the raw shard
    // streams only contain two-bit masks over the shared site population.
    let harness = WorkloadHarness::by_name("mm").unwrap();
    let sites = harness.strided_sites("C", 16).unwrap();
    let sampler = PatternSampler::new(&sites, &ErrorPatternSet::AdjacentBits { width: 2 });
    for shard in 0..4 {
        for fault in sampler.sample_shard(7, shard, 32) {
            assert_eq!(fault.mask.count_ones(), 2);
            assert_eq!(fault.mask, 0b11 << fault.mask.trailing_zeros());
        }
    }
    // And the aDVF leg of the campaign resolved its multi-bit DFI requests
    // exactly — the engine has no conservative single-bit-only path left.
    let cell = &seq.cells[0];
    assert_eq!(cell.advf.patterns, "adjacent-bits:2");
    assert!(cell.advf.dfi_runs > 0, "multi-bit patterns reach the DFI");
}
