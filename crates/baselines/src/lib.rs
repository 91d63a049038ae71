//! Baseline load testers for the comparison experiments (§II, §III-C).
//!
//! The paper demonstrates Treadmill's accuracy by running prior load
//! testers on the same setup and comparing each against tcpdump ground
//! truth. This crate reproduces those comparators as [`TesterProfile`]s
//! that run against the simulated cluster:
//!
//! * [`ycsb`] — single-client, closed-loop, static histogram;
//! * [`cloudsuite`] — open-loop but single heavy client;
//! * [`mutilate`] — 8 efficient agents but closed-loop;
//! * [`treadmill_shape`] — Treadmill expressed in the same vocabulary.
//!
//! [`feature_table`] regenerates Table I.
//!
//! # Examples
//!
//! ```
//! use treadmill_baselines::feature_table;
//!
//! let table = feature_table();
//! assert_eq!(table.len(), 5);
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

mod common;
mod features;
mod testers;

pub use common::{run_profile, BaselineReport, ControlLoop, MeasurementStyle, TesterProfile};
pub use features::{feature_table, FeatureRow, FeatureSupport};
pub use testers::{cloudsuite, mutilate, treadmill_shape, ycsb};
