//! # simload — open-loop workload generation and SLO tracking
//!
//! The Fig 1–3 reproductions in `cloudbench` are *closed-loop*: each
//! client issues its next request only after the previous one returns,
//! which is the paper's own protocol but systematically understates
//! latency under overload (the offered rate backs off exactly when the
//! service saturates — coordinated omission). This crate adds the
//! complementary *open-loop* view:
//!
//! * [`ArrivalProcess`] — deterministic arrival schedules (constant
//!   rate, Poisson, MMPP-style bursty on/off, diurnal curve, recorded
//!   replay) drawn from a dedicated `simcore` RNG stream, so the event
//!   stream is byte-reproducible and shard-invariant;
//! * [`OpenLoop`] — the one open-loop cell harness: it draws the
//!   schedule from a named stream, injects each op at its instant
//!   ([`inject`]), charges latency from the scheduled instant, and
//!   folds the measurement window into one [`SloTracker`]. The
//!   elastic, geo and consistency runners are built on it too;
//! * [`run_open_loop`] — a client fleet that fires blob/table/queue
//!   operations against `azstore` through the harness;
//! * [`SloTracker`] — mergeable SLO accounting (deadline violations,
//!   goodput, p50/p95/p99/p99.9) on `simlab`'s exact-merge statistics.
//!
//! The `frontier` campaign in `bench` sweeps offered load through
//! these pieces to locate each service's saturation knee and
//! cross-validates it against the closed-loop Fig 1–3 peaks.

#![warn(missing_docs)]

pub mod arrival;
pub mod fleet;
pub mod harness;
pub mod inject;
pub mod observe;
pub mod slo;

pub use arrival::ArrivalProcess;
pub use fleet::{
    classify, fire, fire_once, run_open_loop, seed_workload, LoadCellResult, LoadConfig,
    LoadObserver, ShedRetry, Workload,
};
pub use harness::{OpenLoop, OpenLoopCell, OpenLoopResult, Served};
pub use inject::{inject, Arrival};
pub use observe::WindowedArrivals;
pub use slo::{FailClass, SloTracker};
