//! End-to-end daemon tests: protocol robustness under garbage input,
//! concurrent clients sharing the result cache, cooperative cancellation,
//! and kill/restart resume.

use moard_core::AnalysisConfig;
use moard_json::ToJson;
use moard_server::{Client, Daemon, DaemonConfig, Priority, Request, Response};
use std::io::{Read, Write};
use std::net::TcpStream;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moard-daemon-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(threads: usize, store: Option<std::path::PathBuf>) -> Daemon {
    Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        threads,
        store,
        ..DaemonConfig::default()
    })
    .expect("daemon binds an ephemeral port")
}

fn analyze_at(workload: &str, priority: Priority) -> Request {
    Request::Analyze {
        workload: workload.into(),
        objects: vec![],
        config: AnalysisConfig {
            site_stride: 16,
            max_dfi_per_object: Some(200),
            ..AnalysisConfig::default()
        },
        use_dfi: true,
        priority,
    }
}

fn quick_analyze(workload: &str) -> Request {
    analyze_at(workload, Priority::Normal)
}

/// A validate job of MM whose margin is out of reach, so it runs until it
/// has injected `max_trials` faults (or is cancelled).
fn validate_trials(max_trials: u64) -> Request {
    use moard_inject::{ValidationSpec, WorkloadSelector};
    Request::Validate {
        spec: ValidationSpec::default()
            .workloads(WorkloadSelector::Named(vec!["mm".into()]))
            .stride(4)
            .target_margin(0.005)
            .max_trials(max_trials)
            .shards(8, 1),
        priority: Priority::Normal,
    }
}

/// Trials of the long normal-priority job in
/// `high_priority_jobs_overtake_queued_normal_jobs`: about 0.2 s of work in
/// a release build, against a few milliseconds for a quick analysis.
const LONG_TRIALS: u64 = 500;

/// A validate job big enough to still be running when we cancel it.
fn slow_validate() -> Request {
    validate_trials(2_000_000)
}

fn shutdown_and_join(daemon: Daemon) {
    let mut client = Client::connect(daemon.addr()).unwrap();
    client.shutdown().unwrap();
    daemon.join();
}

#[test]
fn ping_metrics_and_clean_shutdown() {
    let daemon = start(2, None);
    let mut client = Client::connect(daemon.addr()).unwrap();
    client.ping().unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.u64_field("jobs_submitted").unwrap(), 0);
    assert!(matches!(
        metrics.field("store_entries").unwrap(),
        moard_json::Json::Null
    ));
    shutdown_and_join(daemon);
}

#[test]
fn garbage_frames_get_error_responses_never_a_hang_or_panic() {
    let daemon = start(1, None);
    // 1. Valid frames with garbage payloads: every one is answered with a
    //    typed error frame and the connection stays usable.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let mut lcg: u64 = 0x5EED;
    for case in 0..64u32 {
        let payload: Vec<u8> = match case % 4 {
            // Pseudo-random bytes (deterministic LCG, frequently invalid UTF-8).
            0 => (0..(case as usize * 3 + 1))
                .map(|_| {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (lcg >> 33) as u8
                })
                .collect(),
            // Truncated / malformed JSON.
            1 => b"{\"protocol\":1,\"kind\":\"anal".to_vec(),
            // Valid JSON, wrong shape.
            2 => b"[1,2,3]".to_vec(),
            // Valid envelope, unknown kind / wrong version.
            _ => b"{\"protocol\":99,\"kind\":\"ping\"}".to_vec(),
        };
        client.send_raw(&payload).unwrap();
        match client.read_response().unwrap() {
            Response::Error { message } => assert!(!message.is_empty()),
            other => panic!("garbage frame answered with `{}`", other.kind()),
        }
    }
    // The connection still works after 64 rejected frames.
    client.ping().unwrap();

    // 2. An oversized length announcement is rejected without allocating,
    //    answered, and the connection closed.
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    raw.flush().unwrap();
    // The daemon counts the rejection before it answers and closes, so
    // reading to EOF orders the count before the metrics query below.
    let mut answer = Vec::new();
    raw.read_to_end(&mut answer).unwrap();
    assert!(!answer.is_empty(), "the oversized frame is answered");
    let mut oversized = Client::connect(daemon.addr()).unwrap();
    oversized.ping().unwrap(); // daemon is alive and serving others

    // 3. A truncated length prefix followed by EOF must not wedge anything.
    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(&[0, 0]).unwrap();
    drop(raw);

    let mut client = Client::connect(daemon.addr()).unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.u64_field("bad_requests").unwrap(), 64);
    assert_eq!(metrics.u64_field("frames_rejected").unwrap(), 1);
    shutdown_and_join(daemon);
}

#[test]
fn concurrent_clients_share_the_cache_byte_identically() {
    let dir = temp_dir("concurrent");
    let daemon = start(2, Some(dir.clone()));
    let addr = daemon.addr();

    // Two clients race the same cell on a 2-worker pool.
    let submit = move || {
        let mut client = Client::connect(addr).unwrap();
        client.submit(&quick_analyze("mm")).unwrap()
    };
    let racer = std::thread::spawn(submit);
    let (_, first) = submit();
    let (_, second) = racer.join().unwrap();

    let payload = |response: &Response| match response {
        Response::Result { payload, .. } => payload.to_string(),
        other => panic!("job answered with `{}`", other.kind()),
    };
    // Byte-identical reports regardless of which one computed the cell.
    assert_eq!(payload(&first), payload(&second));

    // A third submission of the same cell is a pure cache hit.
    let mut client = Client::connect(addr).unwrap();
    let (_, third) = client.submit(&quick_analyze("mm")).unwrap();
    assert_eq!(payload(&third), payload(&first));
    match third {
        Response::Result {
            cache_hits,
            executed,
            ..
        } => {
            assert!(cache_hits > 0, "repeat job must be served from the store");
            assert_eq!(executed, 0);
        }
        _ => unreachable!(),
    }
    let metrics = client.metrics().unwrap();
    assert!(metrics.u64_field("cache_hits").unwrap() > 0);
    assert_eq!(metrics.u64_field("jobs_completed").unwrap(), 3);
    // One warm harness serves all three jobs.
    let warm = metrics.field("warm_harnesses").unwrap().as_array().unwrap();
    assert_eq!(warm.len(), 1);

    // A minimization on the same warm harness answers with the report a
    // local run gives, and is metered like every other job.
    let spec = moard_inject::MinimizeSpec::cell("mm", "C").stride(16);
    let (_, minimized) = client
        .submit(&Request::Minimize {
            spec: spec.clone(),
            priority: Priority::Normal,
        })
        .unwrap();
    let local = moard_inject::Runner::default()
        .minimize(&spec, moard_workloads::builtin_registry())
        .unwrap();
    assert_eq!(payload(&minimized), local.to_json().to_string());
    let metrics = client.metrics().unwrap();
    let minimize = metrics.field("ops").unwrap().field("minimize").unwrap();
    assert_eq!(minimize.u64_field("requests").unwrap(), 1);
    assert_eq!(
        metrics
            .field("warm_harnesses")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        1
    );
    shutdown_and_join(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_frees_its_pool_slot() {
    let daemon = start(1, None); // single worker: a stuck job would block everything
    let addr = daemon.addr();

    let mut submitter = Client::connect(addr).unwrap();
    let job = submitter.submit_nowait(&slow_validate()).unwrap();

    // Cancel from a second connection while the job occupies the only slot.
    let mut canceller = Client::connect(addr).unwrap();
    assert_eq!(canceller.cancel(job).unwrap(), Response::Ok);

    // The submitter's final frame is the cancellation.
    assert_eq!(
        submitter.read_response().unwrap(),
        Response::Cancelled { job }
    );

    // The pool slot is free again: a fresh job completes on the same
    // single-worker daemon.
    let (_, response) = canceller.submit(&quick_analyze("mm")).unwrap();
    assert!(matches!(response, Response::Result { .. }));

    let metrics = canceller.metrics().unwrap();
    assert_eq!(metrics.u64_field("jobs_cancelled").unwrap(), 1);
    assert_eq!(metrics.u64_field("jobs_completed").unwrap(), 1);
    // Cancelling a job that already left the table is a typed error.
    assert!(matches!(
        canceller.cancel(job).unwrap(),
        Response::Error { .. }
    ));
    shutdown_and_join(daemon);
}

#[test]
fn restarted_daemon_serves_previous_results_from_its_store() {
    let dir = temp_dir("restart");
    let request = quick_analyze("mm");

    // First daemon computes the cell, then is torn down (join only —
    // the store's atomic writes make this equivalent to a SIGKILL between
    // completed cells).
    let first = start(2, Some(dir.clone()));
    let mut client = Client::connect(first.addr()).unwrap();
    let (_, cold) = client.submit(&request).unwrap();
    shutdown_and_join(first);

    // A second daemon over the same store answers byte-identically, purely
    // from cache.
    let second = start(2, Some(dir.clone()));
    let mut client = Client::connect(second.addr()).unwrap();
    let (_, warm) = client.submit(&request).unwrap();
    match (&cold, &warm) {
        (
            Response::Result { payload: a, .. },
            Response::Result {
                payload: b,
                cache_hits,
                executed,
                ..
            },
        ) => {
            assert_eq!(a.to_string(), b.to_string());
            assert!(*cache_hits > 0);
            assert_eq!(*executed, 0);
        }
        _ => panic!("both submissions must produce results"),
    }
    let metrics = client.metrics().unwrap();
    assert!(metrics.u64_field("store_entries").unwrap() > 0);
    shutdown_and_join(second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn high_priority_jobs_overtake_queued_normal_jobs() {
    // One worker, and occupy it so subsequent submissions truly queue.
    let daemon = start(1, None);
    let addr = daemon.addr();
    let mut blocker = Client::connect(addr).unwrap();
    let blocking_job = blocker.submit_nowait(&slow_validate()).unwrap();

    // Queue a long normal job, then a quick high-priority one: whichever
    // leaves the queue first finishes a whole long job before the other,
    // far more than the two client threads' wake-up times can differ.
    let normal = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.submit(&validate_trials(LONG_TRIALS)).unwrap();
        std::time::Instant::now()
    });
    // Give the normal job time to enter the queue first.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let high = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.submit(&analyze_at("mm", Priority::High)).unwrap();
        std::time::Instant::now()
    });

    // Release the worker.
    std::thread::sleep(std::time::Duration::from_millis(150));
    Client::connect(addr).unwrap().cancel(blocking_job).unwrap();
    assert_eq!(
        blocker.read_response().unwrap(),
        Response::Cancelled { job: blocking_job }
    );

    let normal_done = normal.join().unwrap();
    let high_done = high.join().unwrap();
    assert!(
        high_done <= normal_done,
        "the high-priority job must leave the queue before the earlier normal job"
    );
    shutdown_and_join(daemon);
}
