//! The execution settings every batch of analyses shares.
//!
//! An analysis ([`Runner::analyze`]), a sweep ([`Runner::sweep`]), a
//! validation campaign ([`Runner::validate`]) and a minimization
//! ([`Runner::minimize`]) run under the same settings: how many workers,
//! which [`ResultStore`] and whether to resume from it, which
//! [`CancelToken`] to observe, and which [`HarnessCache`] to take warm
//! workloads from.  [`Runner`] holds them in one place; each study's
//! `impl Runner` block lives next to its spec (see the examples in
//! [`crate::session`], [`crate::sweep`] and [`crate::validate`]).

use crate::campaign::Parallelism;
use crate::cancel::CancelToken;
use crate::harness::{HarnessCache, WorkloadHarness};
use crate::store::ResultStore;
use crate::sweep::ObjectSelector;
use moard_core::{run_indexed, MoardError};
use moard_json::Json;
use moard_workloads::WorkloadRegistry;
use std::sync::Arc;

/// How an analysis, a sweep, a validation campaign or a minimization
/// executes.  None of these settings enters a fingerprint or a report: a
/// study gives the same report under every runner.
#[derive(Clone)]
pub struct Runner {
    /// Worker-thread policy for tasks, cells and shards.
    pub parallelism: Parallelism,
    /// Where completed tasks and cell legs are persisted, if anywhere.
    pub store: Option<ResultStore>,
    /// Fold results already in `store` as cache hits instead of recomputing
    /// them.  Without a store it has no effect.
    pub resume: bool,
    /// Observed at every task, cell, shard-round and oracle checkpoint: once
    /// cancelled, the run returns [`MoardError::Cancelled`], and everything
    /// it persisted so far stays valid for resumption.
    pub cancel: CancelToken,
    /// Warm workload harnesses, looked up before preparing (and tracing) a
    /// workload again.  Its trace backend is the runner's.
    pub harnesses: Arc<HarnessCache>,
}

impl Default for Runner {
    /// Every core, no store, no resume, a fresh token, and a private cache
    /// on the in-memory trace backend.
    fn default() -> Self {
        Runner {
            parallelism: Parallelism::Auto,
            store: None,
            resume: false,
            cancel: CancelToken::new(),
            harnesses: Arc::default(),
        }
    }
}

impl Runner {
    /// The stored payload under `(fingerprint, key)`, if resuming.
    pub(crate) fn load(&self, fingerprint: u64, key: &str) -> Option<Json> {
        if !self.resume {
            return None;
        }
        self.store.as_ref()?.load(fingerprint, key)
    }

    /// Persist a completed payload, if there is a store.
    pub(crate) fn save(
        &self,
        fingerprint: u64,
        key: &str,
        payload: &Json,
    ) -> Result<(), MoardError> {
        match &self.store {
            Some(store) => store.save(fingerprint, key, payload),
            None => Ok(()),
        }
    }

    /// Prepare one harness per workload in `pending` (the workloads that
    /// still have work, repeats allowed), in parallel.  A fully cached
    /// workload is never built, run or traced: that is what makes resuming
    /// a finished study near-instant.  Explicitly selected objects fail
    /// fast here, before any analysis time is spent.
    pub(crate) fn prepare<'a>(
        &self,
        registry: &dyn WorkloadRegistry,
        pending: impl IntoIterator<Item = &'a str>,
        objects: &ObjectSelector,
    ) -> Result<Prepared<'a>, MoardError> {
        let mut names: Vec<&str> = Vec::new();
        for name in pending {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        let harnesses = run_indexed(self.parallelism.worker_count(), names.len(), |i| {
            self.harnesses.get_or_prepare(registry, names[i])
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        if let ObjectSelector::Named(objects) = objects {
            for harness in &harnesses {
                for object in objects {
                    harness.object_id(object)?;
                }
            }
        }
        Ok(Prepared { names, harnesses })
    }
}

/// The harnesses [`Runner::prepare`] made ready, by workload.
pub(crate) struct Prepared<'a> {
    names: Vec<&'a str>,
    harnesses: Vec<Arc<WorkloadHarness>>,
}

impl Prepared<'_> {
    /// Number of harnesses prepared.
    pub(crate) fn len(&self) -> usize {
        self.harnesses.len()
    }

    /// The harness of a workload that had work.
    pub(crate) fn get(&self, workload: &str) -> &WorkloadHarness {
        let i = self
            .names
            .iter()
            .position(|n| *n == workload)
            .expect("every workload with work was prepared");
        &self.harnesses[i]
    }
}
