//! # moard-server
//!
//! The long-running analysis daemon of the MOARD reproduction, plus its
//! client library and load generator.
//!
//! A single cold analysis pays for workload construction, the golden run,
//! and trace indexing before the first fault is injected; a CLI process
//! pays that price on every invocation.  The daemon amortizes it: one
//! process holds a [`moard_inject::HarnessCache`] of warm workload
//! harnesses and one shared [`moard_inject::ResultStore`] (in one template
//! [`moard_inject::Runner`]), accepts analyze/sweep/validate/minimize jobs
//! over a simple length-framed JSON protocol ([`protocol`]), schedules them
//! across a bounded worker pool by priority ([`daemon`]), serves repeated
//! cells straight from the store, and reports per-operation latency
//! histograms and cache counters ([`metrics`]).
//!
//! ```no_run
//! use moard_server::{Client, Daemon, DaemonConfig, Priority, Request};
//! use moard_core::AnalysisConfig;
//!
//! let daemon = Daemon::start(DaemonConfig {
//!     addr: "127.0.0.1:0".into(),
//!     threads: 4,
//!     store: Some("daemon-store".into()),
//!     ..DaemonConfig::default()
//! })?;
//! let mut client = Client::connect(daemon.addr())?;
//! let (job, response) = client.submit(&Request::Analyze {
//!     workload: "mm".into(),
//!     objects: vec![],
//!     config: AnalysisConfig::default(),
//!     use_dfi: true,
//!     priority: Priority::Normal,
//! })?;
//! println!("job {job}: {}", response.kind());
//! client.shutdown()?;
//! daemon.join();
//! # Ok::<(), moard_core::MoardError>(())
//! ```

pub mod client;
pub mod daemon;
pub mod metrics;
pub mod protocol;

pub use client::Client;
pub use daemon::{Daemon, DaemonConfig};
pub use metrics::{LatencyHistogram, MetricsRegistry};
pub use protocol::{
    read_frame, write_frame, FrameError, Priority, Request, Response, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
