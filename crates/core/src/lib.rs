//! Treadmill: a precisely-timed, statistically sound load tester —
//! the primary contribution of the ISCA 2016 paper, reproduced in Rust.
//!
//! The design addresses the four pitfalls the paper identifies in prior
//! load testers:
//!
//! | Pitfall (§II) | This crate's answer |
//! |---|---|
//! | Query inter-arrival generation | [`OpenLoopSource`]: precisely-timed open-loop control with exponential inter-arrivals ([`InterArrival`]); [`ClosedLoopSource`] exists to demonstrate the flaw. |
//! | Statistical aggregation | [`TreadmillInstance`]: warm-up / calibration / measurement phases over an adaptive, re-binnable histogram; per-instance metric extraction then cross-instance aggregation ([`aggregation`]). |
//! | Client-side queueing bias | [`LoadTest`]: multiple lightly-utilised instances split the target throughput (§III-B). |
//! | Performance hysteresis | [`experiment::run_until_converged`]: repeat the whole experiment until the mean of per-run metrics converges ([`ConvergenceTracker`]). |
//!
//! Plus the paper's generality/configurability features: any
//! [`treadmill_workloads::Workload`] plugs in, and a whole test is
//! expressible as JSON via [`LoadTestConfig`].
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use treadmill_core::LoadTest;
//! use treadmill_workloads::Memcached;
//!
//! // 100k RPS against the simulated server, 4 Treadmill instances.
//! let report = LoadTest::new(Arc::new(Memcached::default()), 100_000.0)
//!     .clients(4)
//!     .seed(7)
//!     .run(0);
//! // The per-instance p99s are aggregated, not pooled:
//! println!("p99 = {:.0}us", report.aggregated.p99);
//! assert!(report.aggregated.p99 > report.aggregated.p50);
//! ```

#![forbid(unsafe_code)]
// Unit tests unwrap freely and assert exact float equality: bit-exact
// reproducibility is the property under test. Library code is held to
// the workspace lint table (see DESIGN.md, "Static analysis").
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)
)]
#![warn(missing_docs)]

pub mod aggregation;
mod config;
mod controller;
mod convergence;
pub mod experiment;
mod instance;
mod interarrival;
pub mod omission;
mod phases;
pub mod pool;
pub mod report;
mod resumable;
mod runner;
pub mod sweep;
pub mod timeline;

pub use aggregation::{
    holistic_summary, latencies_per_client, tail_composition, AggregationMethod,
    TailShareRow,
};
pub use config::{ConfigError, LoadTestConfig, ScreenSpec};
pub use controller::{ClosedLoopSource, OpenLoopSource, RateLimitedClosedLoopSource};
pub use convergence::ConvergenceTracker;
pub use experiment::{run_until_converged, ExperimentOptions, ExperimentOutcome};
pub use instance::{InstanceConfig, TreadmillInstance};
pub use interarrival::InterArrival;
pub use phases::PhaseConfig;
pub use report::{health_warnings, render_report};
pub use resumable::{ResumableRun, TailMonitor};
pub use runner::{LoadTest, LoadTestReport};
pub use sweep::{
    run_factorial_sweep, run_factorial_sweep_controlled, run_screened_sweep,
    run_sweep_controlled, CellSummary, FactorialCellResult, FactorialOutcome,
    ScreenedCell, ScreenedSweepPlan, SweepControl, SweepError, SweepEvent, SweepOptions,
    SweepOutcome, FACTORIAL_CELLS,
};
