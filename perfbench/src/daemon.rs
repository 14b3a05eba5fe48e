//! The `daemon-mixed` workload: an in-process `Daemon` on loopback with two
//! workers and a fresh result store per pass, driven by two closed-loop
//! client connections over a seeded sequence of analyze jobs.
//!
//! Every distinct job is owned by one client, and a client sends its next
//! job only after the previous answer arrived, so a repeat always follows
//! its cold first occurrence and the store-hit counts do not depend on
//! scheduling.  Jobs come in pairs that differ only in the propagation
//! window; the seed gives one of each pair to each client, so both clients
//! carry the same kind of work.

use crate::layers::{add, digest, median, secs, Sample};
use crate::local::{
    analyze_traced, dir_bytes, finish_ratios, instance, prepare, prepared_for, probe_rules, Cell,
    Prepared,
};
use crate::{Pass, SplitMix};
use moard_core::{fingerprint_hex, parse_fingerprint, AnalysisConfig, StudyReport};
use moard_inject::ResultStore;
use moard_json::{FromJson, Json, ToJson};
use moard_server::{
    read_frame, write_frame, Client, Daemon, DaemonConfig, Priority, Request, Response,
};
use moard_vm::TraceBackendSpec;
use moard_workloads::{builtin_registry, WorkloadRegistry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Worker threads of the daemon's job pool.
const WORKERS: usize = 2;
/// Repeats of every distinct job after its cold first occurrence.
const REPEATS: usize = 3;
/// Extra start/connect/stop cycles per untraced pass, to steady `setup_s`.
const EXTRA_SETUPS: usize = 4;
/// Analytic job strides.
const STRIDES: [usize; 2] = [4, 16];
/// The two propagation windows of each job pair.
const WINDOWS: [usize; 2] = [50, 40];
/// Jobs with a DFI budget: (workload, object, stride, budget).
const DFI_JOBS: [(&str, &str, usize, u64); 3] = [
    ("MM", "C", 16, 16),
    ("CG", "r", 16, 16),
    ("PF", "xe", 32, 6),
];

/// One answered job as the client saw it.
struct JobRecord {
    job: usize,
    latency_ms: f64,
    accept_ms: Option<f64>,
    response: Result<Response, String>,
}

pub struct DaemonBench {
    jobs: Vec<Cell>,
    sequences: Vec<Vec<usize>>,
    work_dir: PathBuf,
}

/// The distinct jobs: every Table-1 target plus MM/C and PF/xe at each
/// analytic stride, plus the DFI jobs; each as a pair over [`WINDOWS`].
fn distinct_jobs() -> Vec<Cell> {
    let mut targets: Vec<(&'static str, &'static str)> = builtin_registry()
        .descriptors()
        .into_iter()
        .filter(|d| d.table1)
        .flat_map(|d| d.targets.into_iter().map(move |o| (d.name, o)))
        .collect();
    targets.extend([("MM", "C"), ("PF", "xe")]);
    let mut jobs = Vec::new();
    let mut push = |workload, object, stride, budget: Option<u64>| {
        for window in WINDOWS {
            jobs.push(Cell {
                workload,
                object,
                config: AnalysisConfig {
                    propagation_window: window,
                    site_stride: stride,
                    max_dfi_per_object: budget,
                    ..AnalysisConfig::default()
                },
                use_dfi: budget.is_some(),
            });
        }
    };
    for stride in STRIDES {
        for &(workload, object) in &targets {
            push(workload, object, stride, None);
        }
    }
    for (workload, object, stride, budget) in DFI_JOBS {
        push(workload, object, stride, Some(budget));
    }
    jobs
}

fn request(cell: &Cell) -> Request {
    Request::Analyze {
        workload: cell.workload.to_string(),
        objects: vec![cell.object.to_string()],
        config: cell.config.clone(),
        use_dfi: cell.use_dfi,
        priority: Priority::Normal,
    }
}

/// Each client's job sequence: its cold jobs in seeded order, each followed
/// later by [`REPEATS`] repeats, interleaved so that cold jobs stay spread
/// over the sequence (about one job in `REPEATS + 1` is cold).
fn sequences(jobs: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = SplitMix::new(seed ^ 0xdae0);
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); CLIENTS];
    for pair in (0..jobs).step_by(2) {
        let swap = rng.below(2);
        owned[0].push(pair + swap);
        owned[1].push(pair + 1 - swap);
    }
    owned
        .into_iter()
        .map(|mut cold| {
            rng.shuffle(&mut cold);
            cold.reverse();
            let mut open: Vec<(usize, usize)> = Vec::new();
            let mut seq = Vec::new();
            loop {
                let repeats_left: usize = open.iter().map(|&(_, n)| n).sum();
                let total = cold.len() + repeats_left;
                if total == 0 {
                    break;
                }
                if !cold.is_empty() && (open.is_empty() || rng.below(total) < cold.len()) {
                    let job = cold.pop().expect("cold jobs remain");
                    seq.push(job);
                    open.push((job, REPEATS));
                } else {
                    let i = rng.below(open.len());
                    seq.push(open[i].0);
                    open[i].1 -= 1;
                    if open[i].1 == 0 {
                        open.swap_remove(i);
                    }
                }
            }
            seq
        })
        .collect()
}

/// One client's closed loop over its sequence.
fn run_client(
    mut client: Client,
    seq: &[usize],
    requests: &[Request],
    traced: bool,
) -> Vec<JobRecord> {
    seq.iter()
        .map(|&job| {
            let started = Instant::now();
            let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
            let (accept_ms, response) = if traced {
                match client.submit_nowait(&requests[job]) {
                    Ok(_) => (Some(ms(started)), client.read_response()),
                    Err(e) => (None, Err(e)),
                }
            } else {
                (None, client.submit(&requests[job]).map(|(_, r)| r))
            };
            JobRecord {
                job,
                latency_ms: ms(started),
                accept_ms,
                response: response.map_err(|e| e.to_string()),
            }
        })
        .collect()
}

fn stop(daemon: Daemon) {
    daemon.shutdown();
    daemon.join();
}

impl DaemonBench {
    pub fn new(seed: u64, work_dir: &Path) -> DaemonBench {
        let jobs = distinct_jobs();
        let sequences = sequences(jobs.len(), seed);
        DaemonBench {
            jobs,
            sequences,
            work_dir: work_dir.to_path_buf(),
        }
    }

    /// `Daemon::start` on a fresh store plus the first client connect.
    fn start(&self) -> Result<(Daemon, Client, f64, PathBuf), String> {
        let store = self.work_dir.join("store");
        let _ = std::fs::remove_dir_all(&store);
        let started = Instant::now();
        let daemon = Daemon::start(DaemonConfig {
            addr: "127.0.0.1:0".into(),
            threads: WORKERS,
            store: Some(store.clone()),
            ..DaemonConfig::default()
        })
        .map_err(|e| e.to_string())?;
        match Client::connect(daemon.addr()) {
            Ok(client) => Ok((daemon, client, secs(started), store)),
            Err(e) => {
                stop(daemon);
                Err(e.to_string())
            }
        }
    }

    /// One pass: start a daemon, run both clients' sequences, stop it.
    pub fn pass(&self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        if !traced {
            for _ in 0..EXTRA_SETUPS {
                match self.start() {
                    Ok((daemon, client, setup_s, _)) => {
                        pass.setup_s.push(setup_s);
                        drop(client);
                        stop(daemon);
                    }
                    Err(e) => pass.problems.push(e),
                }
            }
        }
        let (daemon, first, setup_s, store_dir) = match self.start() {
            Ok(started) => started,
            Err(e) => {
                pass.problems.push(e);
                pass.attempted = self.sequences.iter().map(Vec::len).sum::<usize>() as u64;
                pass.failed = pass.attempted;
                return pass;
            }
        };
        pass.setup_s.push(setup_s);
        let addr = daemon.addr();
        let requests: Vec<Request> = self.jobs.iter().map(request).collect();

        let started = Instant::now();
        let mut first = Some(first);
        let records: Vec<Vec<JobRecord>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sequences
                .iter()
                .map(|seq| {
                    let client = first.take();
                    let requests = &requests;
                    scope.spawn(move || {
                        let client = match client {
                            Some(c) => Ok(c),
                            None => Client::connect(addr).map_err(|e| e.to_string()),
                        };
                        match client {
                            Ok(c) => run_client(c, seq, requests, traced),
                            Err(e) => seq
                                .iter()
                                .map(|&job| JobRecord {
                                    job,
                                    latency_ms: 0.0,
                                    accept_ms: None,
                                    response: Err(e.clone()),
                                })
                                .collect(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        pass.wall_s = secs(started);

        // Correctness: every repeat must be a store hit that matches the
        // cold answer; every error frame is a failed operation.
        let mut cold: Vec<Option<String>> = vec![None; self.jobs.len()];
        // In client order, then sequence order: slot `k` of `op_ms` is the
        // same job in every pass of a seed.
        for r in records.iter().flatten() {
            pass.attempted += 1;
            pass.op_ms.push(r.latency_ms);
            let key = self.jobs[r.job].key();
            match self.check(r, &mut cold[r.job]) {
                Ok(()) => {}
                Err(e) => {
                    pass.failed += 1;
                    pass.problems.push(format!("{key}: {e}"));
                }
            }
        }
        for (cell, d) in self.jobs.iter().zip(&cold) {
            if let Some(d) = d {
                pass.digests.insert(cell.key(), d.clone());
            }
        }
        // Trace lengths are known only to the traced pass's replay probe.
        let mut trace_lengths: Vec<(&str, usize)> = Vec::new();
        if traced {
            let mut s = Sample::new();
            let metrics = Client::connect(addr).and_then(|mut c| c.metrics());
            drop(first);
            stop(daemon);
            match metrics {
                Ok(doc) => self.server_layers(&doc, &records, setup_s, pass.wall_s, &mut s),
                Err(e) => pass.problems.push(format!("metrics request failed: {e}")),
            }
            let probe = Instant::now();
            self.store_probe(&store_dir, &mut s);
            codec_probe(&records, &requests, &mut s);
            match self.replay_probe(&cold, &mut s) {
                Ok(lengths) => trace_lengths = lengths,
                Err(e) => pass.problems.push(e),
            }
            add(&mut s, "bench.probe_s", secs(probe));
            finish_ratios(&mut s);
            pass.layers = Some(s);
        } else {
            drop(first);
            stop(daemon);
        }
        let _ = std::fs::remove_dir_all(&store_dir);
        pass.context = self
            .jobs
            .iter()
            .map(|cell| {
                let trace_records = trace_lengths
                    .iter()
                    .find(|(w, _)| *w == cell.workload)
                    .map_or("null".to_string(), |(_, n)| n.to_string());
                format!(
                    "{{\"cell\":\"{}\",\"config_fingerprint\":\"{}\",\"trace_records\":{trace_records}}}",
                    cell.key(),
                    fingerprint_hex(cell.config.fingerprint())
                )
            })
            .collect();
        pass
    }

    /// Check one answer against its job's cold answer (recording the cold
    /// digest on first sight).
    fn check(&self, r: &JobRecord, cold: &mut Option<String>) -> Result<(), String> {
        let (hits, executed, payload) = match &r.response {
            Ok(Response::Result {
                cache_hits,
                executed,
                payload,
                ..
            }) => (*cache_hits, *executed, payload),
            Ok(other) => return Err(format!("answered with a `{}` frame", other.kind())),
            Err(e) => return Err(e.clone()),
        };
        let report = StudyReport::from_json(payload).map_err(|e| e.to_string())?;
        let [entry] = report.entries.as_slice() else {
            return Err(format!(
                "{} report entries, expected 1",
                report.entries.len()
            ));
        };
        let d = digest(&entry.advf);
        match cold {
            None if (hits, executed) == (0, 1) => {
                *cold = Some(d);
                Ok(())
            }
            None => Err(format!(
                "cold job had {hits} store hits, {executed} executed"
            )),
            Some(c) if (hits, executed) != (1, 0) => Err(format!(
                "repeat of {c} had {hits} store hits, {executed} executed"
            )),
            Some(c) if *c != d => Err(format!("repeat digest {d} differs from cold {c}")),
            Some(_) => Ok(()),
        }
    }

    /// `server` layer: the daemon's own `Metrics` document plus client-side
    /// timing.  The job buckets are summed over the concurrent clients, so
    /// the accounting divides them by [`CLIENTS`].
    fn server_layers(
        &self,
        doc: &Json,
        records: &[Vec<JobRecord>],
        setup_s: f64,
        wall_s: f64,
        s: &mut Sample,
    ) {
        let exec_s = doc
            .get("ops")
            .and_then(|o| o.get("analyze"))
            .and_then(|a| a.get("latency"))
            .and_then(|l| l.get("sum_ns"))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
            / 1e9;
        let count = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        let client_s: f64 = records.iter().flatten().map(|r| r.latency_ms / 1e3).sum();
        let accepts: Vec<f64> = records
            .iter()
            .flatten()
            .filter_map(|r| r.accept_ms)
            .collect();
        add(s, "server.start_s", setup_s);
        add(s, "server.exec_s", exec_s);
        add(s, "server.cache_hits", count("cache_hits"));
        add(s, "server.tasks_executed", count("tasks_executed"));
        add(s, "server.accept_ms_p50", median(&accepts));
        add(s, "server.wait_s", client_s - exec_s);
        let wall = setup_s + wall_s;
        s.insert("bench.traced_wall_s", wall);
        s.insert("bench.other_s", wall - setup_s - client_s / CLIENTS as f64);
    }

    /// `inject.store`: occupancy after the pass, then a load of every
    /// document and a save of each into a scratch store.
    fn store_probe(&self, dir: &Path, s: &mut Sample) {
        let Ok(store) = ResultStore::open(dir) else {
            return;
        };
        let probe_dir = self.work_dir.join("store-probe");
        let _ = std::fs::remove_dir_all(&probe_dir);
        let entries = store.entries();
        add(s, "inject.store.entries", entries.len() as f64);
        add(s, "inject.store.bytes", dir_bytes(dir) as f64);
        let mut docs = Vec::new();
        let started = Instant::now();
        for e in &entries {
            if let Ok(fp) = parse_fingerprint(&e.study_fingerprint) {
                if let Some(doc) = store.load(fp, &e.task_key) {
                    docs.push((fp, e.task_key.clone(), doc));
                }
            }
        }
        add(s, "inject.store.load_s", secs(started));
        if let Ok(scratch) = ResultStore::open(&probe_dir) {
            let started = Instant::now();
            for (fp, key, doc) in &docs {
                let _ = scratch.save(*fp, key, doc);
            }
            add(s, "inject.store.save_s", secs(started));
        }
        let _ = std::fs::remove_dir_all(&probe_dir);
    }

    /// The inject/vm/core layers of the daemon's cold work: every cold job
    /// analyzed again in this process through the counting seams, on the
    /// same registry workloads the daemon prepares.  Its digests must equal
    /// the daemon's.  Returns the trace length of each workload.
    fn replay_probe(
        &self,
        cold: &[Option<String>],
        s: &mut Sample,
    ) -> Result<Vec<(&'static str, usize)>, String> {
        let mut prepared = Vec::new();
        for (cell, daemon_digest) in self.jobs.iter().zip(cold) {
            if !prepared.iter().any(|p: &Prepared| p.name == cell.workload) {
                prepared.push(prepare(
                    instance(cell.workload, None),
                    &TraceBackendSpec::Memory,
                    Some(s),
                )?);
            }
            let p = prepared_for(&prepared, cell.workload);
            let t = analyze_traced(p, cell, s)?;
            probe_rules(p.trace.storage(), &t.sites, &cell.config, s);
            let d = digest(&t.report);
            if daemon_digest.as_ref().is_some_and(|dd| *dd != d) {
                return Err(format!(
                    "{}: daemon digest differs from the local analysis {d}",
                    cell.key()
                ));
            }
        }
        Ok(prepared.iter().map(|p| (p.name, p.trace.len())).collect())
    }
}

/// `server.codec_s` and `server.bytes`: every frame of the pass (request,
/// `Accepted`, final answer) encoded with `write_frame` and decoded with
/// `read_frame` + JSON parsing.
fn codec_probe(records: &[Vec<JobRecord>], requests: &[Request], s: &mut Sample) {
    let mut frames: Vec<(Json, bool)> = Vec::new();
    for r in records.iter().flatten() {
        frames.push((requests[r.job].to_json(), true));
        frames.push((Response::Accepted { job: 1 }.to_json(), false));
        if let Ok(response) = &r.response {
            frames.push((response.to_json(), false));
        }
    }
    let started = Instant::now();
    let mut bytes = 0usize;
    for (doc, is_request) in &frames {
        let mut wire = Vec::new();
        if write_frame(&mut wire, doc.to_string().as_bytes()).is_err() {
            continue;
        }
        bytes += wire.len();
        let Ok(Some(payload)) = read_frame(&mut wire.as_slice()) else {
            continue;
        };
        let Ok(parsed) = std::str::from_utf8(&payload).map(Json::parse) else {
            continue;
        };
        if let Ok(parsed) = parsed {
            if *is_request {
                let _ = Request::from_json(&parsed);
            } else {
                let _ = Response::from_json(&parsed);
            }
        }
    }
    add(s, "server.codec_s", secs(started));
    add(s, "server.bytes", bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_repeat_follows_its_cold_job_on_the_same_client() {
        let jobs = distinct_jobs().len();
        let seqs = sequences(jobs, 11);
        assert_eq!(seqs.len(), CLIENTS);
        let mut owner = vec![None; jobs];
        for (client, seq) in seqs.iter().enumerate() {
            assert_eq!(seq.len(), jobs / CLIENTS * (REPEATS + 1));
            let mut seen = vec![0; jobs];
            for &job in seq {
                assert!(owner[job].is_none() || owner[job] == Some(client));
                owner[job] = Some(client);
                seen[job] += 1;
            }
            assert!(seen.iter().all(|&n| n == 0 || n == REPEATS + 1));
        }
        assert!(owner.iter().all(Option::is_some));
        // The two jobs of a pair go to different clients.
        for pair in (0..jobs).step_by(2) {
            assert_ne!(owner[pair], owner[pair + 1]);
        }
        assert_eq!(sequences(jobs, 11), seqs);
        assert_ne!(sequences(jobs, 12), seqs);
    }
}
