//! Load testing as a service: `treadmill-serve`.
//!
//! The paper's Treadmill is meant to run *continuously* against
//! production systems; this crate wraps the crash-tolerant sweep
//! orchestration of [`treadmill_core::sweep`] in a long-running HTTP
//! service with submit / monitor / fetch semantics. Robustness is the
//! design driver — a tail-latency tool that adds its own tail (or
//! loses work to a crash) is self-defeating — so every layer degrades
//! gracefully:
//!
//! * **Journaled jobs** ([`store`]): the [`FileStore`] appends every
//!   job state transition to an fsynced `jobs.jsonl` journal (same
//!   torn-line-tolerant pattern as the sweep manifest); there is no
//!   volatile store.
//!   A SIGKILL'd server restarted with `--resume` replays the journal
//!   and continues in-flight experiments from their checkpoints,
//!   producing byte-identical artifacts.
//! * **Admission control** ([`queue`]): a bounded job queue sheds
//!   excess submissions with `503` + `Retry-After` instead of growing
//!   without bound; a connection cap and per-request socket timeouts
//!   bound HTTP-side memory and latency.
//! * **Graceful drain** ([`shutdown`], [`service`]): SIGTERM stops the
//!   acceptor, cancels the in-flight sweep at the next checkpoint
//!   boundary of each running cell (sealing it to disk), and flushes the journal before
//!   exit — indistinguishable on disk from a SIGKILL, minus the lost
//!   batch.
//! * **Audit trail** ([`audit`]): an append-only `audit.jsonl` records
//!   seed, config hash, and snapshot version for every run.
//!
//! The HTTP layer ([`http`]) is dependency-free: a hand-rolled
//! HTTP/1.1 parser over `std::net::TcpListener` with a fixed
//! worker-thread pool. [`client`] is the matching minimal client used
//! by the `treadmill-cli` `submit` / `status` / `fetch` subcommands.

// Unlike the simulation crates this one is allowed to read wall
// clocks (it serves real sockets); tml-lint carries the matching
// allowlist entry. Panic budget is zero: handlers must degrade, not
// abort.
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_possible_truncation)
)]

pub mod audit;
pub mod client;
pub mod http;
pub mod job;
pub mod jsonx;
pub mod queue;
pub mod service;
pub mod shutdown;
pub mod store;

pub use audit::{AuditEntry, AuditLog};
pub use job::{ExperimentSpec, JobStatus, SpecError};
pub use queue::{BoundedQueue, Pop, Push};
pub use service::{start, ServeOptions, ServerHandle, StartError};
pub use store::{FileStore, ReplayReport, StoredJob, SubmitOutcome};
