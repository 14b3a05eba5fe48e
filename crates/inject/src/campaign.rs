//! Parallel campaign runner.
//!
//! The original MOARD evaluation ran its analysis and fault-injection
//! campaigns on a 256-core cluster; here the same embarrassingly parallel
//! structure is exploited on the local machine with
//! [`moard_core::run_indexed`]: scoped worker threads pull task indices off
//! a shared atomic counter.  Each worker owns nothing but a reference to the
//! injector and writes its verdicts back by task index, so results are
//! bit-identical regardless of thread count.

use crate::injector::DeterministicInjector;
use crate::stats::CampaignStats;
use moard_core::{available_workers, run_indexed};
use moard_vm::{FaultSpec, OutcomeClass};

/// How many worker threads to use for a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Use every available CPU (as reported by the OS).
    Auto,
    /// Use exactly this many workers.
    Fixed(usize),
    /// Run every task on the calling thread (useful for debugging and for
    /// deterministic micro-benchmarks).  Each object's analysis, with or
    /// without DFI, still schedules and replays its site ranges and runs
    /// its planned injections on every core
    /// (`moard_core::AdvfAnalyzer::analyze`); its report is the same.
    Sequential,
}

impl Parallelism {
    /// The number of worker threads this policy resolves to on this machine.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Auto => available_workers(),
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Sequential => 1,
        }
    }
}

/// Run every fault in `faults` through the injector and return the outcomes
/// in the same order.
pub fn run_campaign(
    injector: &DeterministicInjector,
    faults: &[FaultSpec],
    parallelism: Parallelism,
) -> Vec<OutcomeClass> {
    run_indexed(parallelism.worker_count(), faults.len(), |i| {
        injector.run_classified(&faults[i])
    })
}

/// Run a campaign and summarize it.
pub fn run_campaign_stats(
    injector: &DeterministicInjector,
    faults: &[FaultSpec],
    parallelism: Parallelism,
) -> CampaignStats {
    CampaignStats::from_outcomes(&run_campaign(injector, faults, parallelism))
}

/// Run `shard_count` independent fault shards across the worker pool and
/// return each shard's tally **in shard order**.
///
/// `faults_of(i)` materializes shard `i`'s faults (typically from a
/// shard-indexed RNG stream, see `random::sample_shard`); each shard's
/// outcomes are tallied by the worker that ran it.  Because the result is
/// ordered by shard index, folding the tallies left-to-right is
/// bit-identical regardless of thread count — the invariant the validation
/// engine's adaptive stopping rule rests on.
pub fn run_shard_campaign<F>(
    injector: &DeterministicInjector,
    shard_count: usize,
    parallelism: Parallelism,
    faults_of: F,
) -> Vec<CampaignStats>
where
    F: Fn(usize) -> Vec<FaultSpec> + Sync,
{
    run_indexed(parallelism.worker_count(), shard_count, |i| {
        let faults = faults_of(i);
        let outcomes: Vec<OutcomeClass> =
            faults.iter().map(|f| injector.run_classified(f)).collect();
        CampaignStats::from_outcomes(&outcomes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moard_core::enumerate_sites;
    use moard_vm::{run_traced, Vm};
    use moard_workloads::MatMul;

    fn some_faults(injector: &DeterministicInjector, count: usize) -> Vec<FaultSpec> {
        let (_, trace) = run_traced(injector.module()).unwrap();
        let vm = Vm::with_defaults(injector.module()).unwrap();
        let c = vm.objects().by_name("C").unwrap().id;
        enumerate_sites(&trace, c)
            .iter()
            .take(count)
            .map(|s| s.fault_bit(31))
            .collect()
    }

    #[test]
    fn parallel_and_sequential_results_agree() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let faults = some_faults(&injector, 12);
        let seq = run_campaign(&injector, &faults, Parallelism::Sequential);
        let par = run_campaign(&injector, &faults, Parallelism::Fixed(4));
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 12);
    }

    #[test]
    fn stats_wrapper_counts_runs() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let faults = some_faults(&injector, 6);
        let stats = run_campaign_stats(&injector, &faults, Parallelism::Fixed(2));
        assert_eq!(stats.runs, 6);
        assert_eq!(
            stats.identical + stats.acceptable + stats.incorrect + stats.crashed,
            6
        );
    }

    #[test]
    fn empty_campaign() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let outcomes = run_campaign(&injector, &[], Parallelism::Auto);
        assert!(outcomes.is_empty());
    }

    #[test]
    fn shard_campaign_is_ordered_and_thread_invariant() {
        let injector = DeterministicInjector::new(Box::new(MatMul::default())).unwrap();
        let faults = some_faults(&injector, 12);
        // Three shards of four faults each, materialized by index.
        let faults_of = |i: usize| faults[i * 4..(i + 1) * 4].to_vec();
        let seq = run_shard_campaign(&injector, 3, Parallelism::Sequential, faults_of);
        let par = run_shard_campaign(&injector, 3, Parallelism::Fixed(4), faults_of);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|s| s.runs == 4));
        // The shard-order fold equals the flat campaign's tally.
        let mut folded = CampaignStats::default();
        for shard in &seq {
            folded.merge(shard);
        }
        assert_eq!(
            folded,
            run_campaign_stats(&injector, &faults, Parallelism::Auto)
        );
    }
}
