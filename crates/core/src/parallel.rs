//! Index-ordered fan-out over scoped worker threads.
//!
//! The one parallel helper shared by the analyzer (planned DFI walks and
//! injections, see [`crate::AdvfAnalyzer::analyze`]) and `moard-inject`
//! (campaigns, multi-object analysis, study and validation task pools).
//! Workers pull task indices off a shared atomic counter and results are
//! assembled by index, so the output never depends on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of CPUs the OS makes available to this process (at least 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `len` independent tasks over up to `workers` threads — the calling
/// thread plus `workers - 1` scoped helpers, never more than `len` — and
/// return the results in index order.
///
/// The output is identical to a sequential `(0..len).map(task)` regardless
/// of `workers`; with `workers <= 1` no thread is spawned.
pub fn run_indexed<T, F>(workers: usize, len: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(len);
    if workers <= 1 {
        return (0..len).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            local.push((i, task(i)));
        }
        local
    };
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut shards = vec![claim()];
        shards.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
        for (i, result) in shards.into_iter().flatten() {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn run_indexed_is_ordered_and_worker_invariant() {
        let sequential: Vec<u64> = (0..37u64).map(|i| i * i + 1).collect();
        for workers in [1usize, 2, 8] {
            let threads = Mutex::new(HashSet::new());
            let got = run_indexed(workers, sequential.len(), |i| {
                threads.lock().unwrap().insert(std::thread::current().id());
                (i as u64) * (i as u64) + 1
            });
            assert_eq!(got, sequential, "workers={workers}");
            let threads = threads.into_inner().unwrap();
            assert!(threads.len() <= workers, "workers={workers}");
            if workers == 1 {
                assert!(threads.contains(&std::thread::current().id()));
            }
        }
        assert!(run_indexed(8, 0, |i| i).is_empty());
        assert_eq!(run_indexed(8, 1, |i| i + 5), vec![5]);
    }
}
