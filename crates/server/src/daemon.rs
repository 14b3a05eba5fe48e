//! The daemon itself: a TCP listener, a priority job scheduler over a
//! bounded worker pool, and the shared warm state every job benefits from.
//!
//! ## Architecture
//!
//! ```text
//!            accept loop (1 thread)
//!                 │ one thread per connection
//!                 ▼
//!   connection threads ──immediate ops──▶ response frame
//!                 │ job ops
//!                 ▼
//!   priority queue (Mutex<BinaryHeap> + Condvar)
//!                 │
//!                 ▼
//!   worker pool (`--threads` threads) ── runners run `Parallelism::Sequential`
//!                 │                       (one task at a time per job; each
//!                 ▼                        analysis still schedules, replays and
//!   shared warm state                      injects on every core)
//!     · one template `Runner`, cloned per job with the job's cancel token:
//!         `HarnessCache` — one prepared harness per workload, ever
//!         `ResultStore` — completed cells/tasks, shared across jobs
//!     · `MetricsRegistry` — counters + latency histograms
//! ```
//!
//! Jobs are scheduled strictly by (priority, submission order).  Every job
//! carries a [`CancelToken`]; `cancel` requests (from any connection) set
//! it, and the engines abandon the job at their next checkpoint —
//! everything already persisted to the store stays valid, so resubmitting
//! the job resumes instead of restarting.
//!
//! Shutdown is cooperative everywhere: the `shutdown` request sets the flag,
//! cancels every live job, wakes the workers (which drain and exit), and
//! unblocks the accept loop with a self-connection.  A daemon killed with
//! SIGKILL instead loses nothing but in-flight work: the store's atomic
//! writes guarantee a restart serves every completed cell as a cache hit.

use crate::metrics::MetricsRegistry;
use crate::protocol::{
    read_frame, write_json, FrameError, Priority, Request, Response, MAX_FRAME_BYTES,
};
use moard_core::MoardError;
use moard_inject::{CancelToken, HarnessCache, Parallelism, ResultStore, Runner, StudySpec};
use moard_json::{Json, ToJson};
use std::collections::{BinaryHeap, HashMap};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Daemon configuration (the `moard serve` flags).  [`Daemon::start`]
/// turns it into the [`Runner`] every job clones: sequential, resuming from
/// `store`, with a harness cache on `trace_backend`.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads of the job pool (0 = one per available core).
    pub threads: usize,
    /// Result-store directory; `None` disables cross-job result caching.
    pub store: Option<PathBuf>,
    /// Trace storage backend the warm-harness cache prepares workloads
    /// with (in-memory by default; paged bounds resident trace memory).
    /// Reports are bit-identical across backends.
    pub trace_backend: moard_vm::TraceBackendSpec,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            store: None,
            trace_backend: moard_vm::TraceBackendSpec::Memory,
        }
    }
}

/// The terminal state of a scheduled job.
enum JobOutcome {
    Pending,
    Done(Response),
}

/// One accepted job: its work item, cancel token, and completion cell.
struct JobState {
    id: u64,
    request: Request,
    cancel: CancelToken,
    outcome: Mutex<JobOutcome>,
    done: Condvar,
}

impl JobState {
    fn complete(&self, response: Response) {
        *self.outcome.lock().expect("job outcome poisoned") = JobOutcome::Done(response);
        self.done.notify_all();
    }

    fn wait(&self) -> Response {
        let mut outcome = self.outcome.lock().expect("job outcome poisoned");
        loop {
            match &*outcome {
                JobOutcome::Done(response) => return response.clone(),
                JobOutcome::Pending => outcome = self.done.wait(outcome).expect("job poisoned"),
            }
        }
    }
}

/// Queue entry: priority first, then FIFO within a priority.
struct QueuedJob {
    priority: Priority,
    seq: u64,
    job: Arc<JobState>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins, then lower seq.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    /// Every job's runner, but for its cancel token: sequential, over the
    /// daemon's store (resuming) and its warm-harness cache.
    runner: Runner,
    metrics: MetricsRegistry,
    queue: Mutex<BinaryHeap<QueuedJob>>,
    queue_ready: Condvar,
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    next_job: AtomicU64,
    next_seq: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    /// Idle state around every job's runner: empty queue and job table,
    /// zeroed metrics.
    fn new(runner: Runner) -> Shared {
        Shared {
            runner,
            metrics: MetricsRegistry::new(),
            queue: Mutex::new(BinaryHeap::new()),
            queue_ready: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Enqueue a job request, returning its state handle.
    fn submit(&self, request: Request) -> Arc<JobState> {
        let job = Arc::new(JobState {
            id: self.next_job.fetch_add(1, Ordering::Relaxed) + 1,
            request,
            cancel: CancelToken::new(),
            outcome: Mutex::new(JobOutcome::Pending),
            done: Condvar::new(),
        });
        self.jobs
            .lock()
            .expect("job table poisoned")
            .insert(job.id, job.clone());
        self.queue
            .lock()
            .expect("job queue poisoned")
            .push(QueuedJob {
                priority: job.request.priority(),
                seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
                job: job.clone(),
            });
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_ready.notify_one();
        job
    }

    /// Set the shutdown flag, cancel every live job, and wake the workers.
    fn begin_shutdown(&self) {
        {
            // Set under the queue lock: a worker holds that lock from its
            // flag check until it sleeps on `queue_ready`, so the wake-up
            // below cannot slip in between and leave it asleep (and
            // `Daemon::join` hung) for good.
            let _queue = self.queue.lock().expect("job queue poisoned");
            self.shutdown.store(true, Ordering::SeqCst);
        }
        for job in self.jobs.lock().expect("job table poisoned").values() {
            job.cancel.cancel();
        }
        self.queue_ready.notify_all();
    }

    /// Worker loop: pop by (priority, order), execute, publish.
    fn worker_loop(&self) {
        loop {
            let entry = {
                let mut queue = self.queue.lock().expect("job queue poisoned");
                loop {
                    if let Some(entry) = queue.pop() {
                        break entry;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self.queue_ready.wait(queue).expect("job queue poisoned");
                }
            };
            self.run_job(&entry.job);
            self.jobs
                .lock()
                .expect("job table poisoned")
                .remove(&entry.job.id);
        }
    }

    /// Execute one job end to end and publish its final response.
    fn run_job(&self, job: &JobState) {
        job.complete(self.respond(job, |job| self.execute(job)));
    }

    /// Run `job` through `execute`, book it in the metrics, and return its
    /// final response.  All of it runs under `catch_unwind`: a job that
    /// panics answers with an error, counted as one in its operation's row,
    /// and its worker goes on to the next job instead of dying with the
    /// job's client still waiting for an answer.
    fn respond(
        &self,
        job: &JobState,
        execute: impl FnOnce(&JobState) -> Result<(Json, u64, u64), MoardError>,
    ) -> Response {
        let op = job.request.kind();
        let started = Instant::now();
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            let result = if job.cancel.is_cancelled() {
                Err(MoardError::Cancelled)
            } else {
                execute(job)
            };
            let ns = started.elapsed().as_nanos() as u64;
            match result {
                Ok((payload, cache_hits, executed)) => {
                    self.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .cache_hits
                        .fetch_add(cache_hits, Ordering::Relaxed);
                    self.metrics
                        .tasks_executed
                        .fetch_add(executed, Ordering::Relaxed);
                    self.metrics.record(op, ns, true);
                    Response::Result {
                        job: job.id,
                        op: op.to_string(),
                        cache_hits,
                        executed,
                        payload,
                    }
                }
                Err(MoardError::Cancelled) => {
                    self.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record(op, ns, true);
                    Response::Cancelled { job: job.id }
                }
                Err(e) => {
                    self.metrics.record(op, ns, false);
                    Response::Error {
                        message: e.to_string(),
                    }
                }
            }
        }));
        run.unwrap_or_else(|payload| {
            self.metrics
                .record(op, started.elapsed().as_nanos() as u64, false);
            let detail = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            Response::Error {
                message: match detail {
                    Some(detail) => format!("job {} panicked: {detail}", job.id),
                    None => format!("job {} panicked", job.id),
                },
            }
        })
    }

    /// Run the job's engine.  Every engine runs `Parallelism::Sequential`:
    /// the worker pool provides the cross-job concurrency, and a job's
    /// result must not depend on how many neighbors it had.  Each object's
    /// analysis, with or without DFI, still schedules and replays its site
    /// ranges and runs its planned injections on every core
    /// (`AdvfAnalyzer::analyze`), which leaves its result unchanged.
    fn execute(&self, job: &JobState) -> Result<(Json, u64, u64), MoardError> {
        let runner = Runner {
            cancel: job.cancel.clone(),
            ..self.runner.clone()
        };
        let registry = moard_workloads::builtin_registry();
        let sweep = |spec: &StudySpec| -> Result<(Json, u64, u64), MoardError> {
            let (report, stats) = runner.sweep(spec, registry)?;
            Ok((
                report.to_json(),
                stats.cache_hits as u64,
                stats.executed as u64,
            ))
        };
        match &job.request {
            Request::Analyze {
                workload,
                objects,
                config,
                use_dfi,
                ..
            } => sweep(&StudySpec::analysis(workload, objects, config, *use_dfi)),
            Request::Sweep { spec, .. } => sweep(spec),
            Request::Validate { spec, .. } => {
                let (report, stats) = runner.validate(spec, registry)?;
                Ok((
                    report.to_json(),
                    stats.cache_hits as u64,
                    (stats.advf_executed + stats.rfi_executed) as u64,
                ))
            }
            Request::Minimize { spec, .. } => {
                let report = runner.minimize(spec, registry)?;
                let cache_hits = report.cache_hits();
                let executed = report.injections;
                Ok((report.to_json(), cache_hits, executed))
            }
            other => Err(MoardError::InvalidConfig(format!(
                "`{}` is not a job request",
                other.kind()
            ))),
        }
    }

    /// Answer to the `metrics` request.
    fn metrics_snapshot(&self) -> Json {
        self.metrics.to_json(
            self.runner.store.as_ref().map(|s| s.len()),
            &self.runner.harnesses.prepared(),
        )
    }
}

/// A running daemon, returned by [`Daemon::start`].
pub struct Daemon {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind, spawn the worker pool and the accept loop, and return.  The
    /// daemon serves until a `shutdown` request arrives (or
    /// [`Daemon::shutdown`] is called in-process).
    pub fn start(config: DaemonConfig) -> Result<Daemon, MoardError> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| MoardError::io(config.addr.clone(), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| MoardError::io(config.addr.clone(), e))?;
        let store = match &config.store {
            Some(dir) => Some(ResultStore::open(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared::new(Runner {
            parallelism: Parallelism::Sequential,
            resume: store.is_some(),
            store,
            harnesses: Arc::new(HarnessCache::with_backend(config.trace_backend.clone())),
            ..Runner::default()
        }));
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.threads
        };
        let workers = (0..threads)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Daemon {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Initiate shutdown from inside the process (tests, signal handlers).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        // Unblock the accept loop; any error just means it is already gone.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the daemon has fully stopped (listener closed, workers
    /// drained and joined).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Small request/response frames: Nagle would stack ~40ms of
        // delayed-ACK latency onto every exchange.
        let _ = stream.set_nodelay(true);
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        let shared = shared.clone();
        std::thread::spawn(move || serve_connection(stream, shared));
    }
}

/// One connection: read frames until EOF, answering each.  Malformed JSON
/// is answered with an error frame and the connection stays usable; a
/// frame-layer violation (oversized announcement, torn frame) is answered
/// where possible and the connection closed, because the stream position
/// can no longer be trusted.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(FrameError::Oversized { len }) => {
                shared
                    .metrics
                    .frames_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_json(
                    &mut writer,
                    &Response::Error {
                        message: format!(
                            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                        ),
                    }
                    .to_json(),
                );
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let started = Instant::now();
        let request = std::str::from_utf8(&frame)
            .map_err(|e| format!("frame is not UTF-8: {e}"))
            .and_then(|text| Json::parse(text).map_err(|e| format!("frame is not JSON: {e}")))
            .and_then(|doc| {
                use moard_json::FromJson;
                Request::from_json(&doc).map_err(|e| format!("not a valid request: {e}"))
            });
        let request = match request {
            Ok(request) => request,
            Err(message) => {
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                if write_json(&mut writer, &Response::Error { message }.to_json()).is_err() {
                    return;
                }
                continue;
            }
        };
        if request.is_job() {
            let job = shared.submit(request);
            if write_json(&mut writer, &Response::Accepted { job: job.id }.to_json()).is_err() {
                return;
            }
            // Latency of the job itself is recorded by the worker; the
            // connection just relays the final frame when it is ready.
            let response = job.wait();
            if write_json(&mut writer, &response.to_json()).is_err() {
                return;
            }
            continue;
        }
        let (response, close) = match &request {
            Request::Ping => (Response::Pong, false),
            Request::Metrics => (
                Response::Metrics {
                    payload: shared.metrics_snapshot(),
                },
                false,
            ),
            Request::Cancel { job } => {
                let found = shared
                    .jobs
                    .lock()
                    .expect("job table poisoned")
                    .get(job)
                    .cloned();
                match found {
                    Some(job) => {
                        job.cancel.cancel();
                        (Response::Ok, false)
                    }
                    None => (
                        Response::Error {
                            message: format!("no live job with id {job}"),
                        },
                        false,
                    ),
                }
            }
            Request::Shutdown => (Response::Ok, true),
            _ => unreachable!("job requests were dispatched above"),
        };
        let ok = !matches!(response, Response::Error { .. });
        shared
            .metrics
            .record(request.kind(), started.elapsed().as_nanos() as u64, ok);
        if write_json(&mut writer, &response.to_json()).is_err() {
            return;
        }
        if close {
            shared.begin_shutdown();
            // Unblock our own accept loop.
            if let Ok(local) = writer.local_addr() {
                let _ = TcpStream::connect(local);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_answers_with_an_error_and_counts_as_one() {
        let shared = Shared::new(Runner::default());
        let job = shared.submit(Request::Analyze {
            workload: "mm".into(),
            objects: Vec::new(),
            config: moard_core::AnalysisConfig::default(),
            use_dfi: false,
            priority: Priority::Normal,
        });
        let row = shared.metrics.op("analyze");
        let errors = || row.errors.load(Ordering::Relaxed);
        match shared.respond(&job, |_| panic!("executor failed")) {
            Response::Error { message } => {
                assert_eq!(message, format!("job {} panicked: executor failed", job.id))
            }
            other => panic!("expected an error response, got {other:?}"),
        }
        assert_eq!(errors(), 1);
        // A payload that is not a string still answers.
        match shared.respond(&job, |_| panic::panic_any(7u32)) {
            Response::Error { message } => assert_eq!(message, format!("job {} panicked", job.id)),
            other => panic!("expected an error response, got {other:?}"),
        }
        assert_eq!(errors(), 2);
        // The next job on the same path answers as usual.
        let response = shared.respond(&job, |_| Ok((Json::Null, 0, 1)));
        assert!(
            matches!(response, Response::Result { executed: 1, .. }),
            "{response:?}"
        );
        assert_eq!(errors(), 2);
        assert_eq!(row.requests.load(Ordering::Relaxed), 3);
        assert_eq!(shared.metrics.jobs_completed.load(Ordering::Relaxed), 1);
    }
}
