// The library boundary is panic-free: untrusted input must surface as a
// typed error (`lpfps_kernel::SimError`) or a reported `Violation`, never
// abort the process. Tests and binaries may still unwrap freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # lpfps-oracle
//!
//! The differential oracle for the LPFPS kernel: everything in this crate
//! exists to catch a kernel optimization that silently changed behavior.
//!
//! Three independent lines of defense:
//!
//! * [`sim::oracle_simulate_for`] — a deliberately *naive* reference
//!   simulator: a direct transcription of the paper's Figure 4 with no
//!   power table, no workspace reuse, and dumb queue structures. The
//!   differential tests assert the optimized engine matches it **field
//!   for field, bit for bit** on the full workload × policy × fault
//!   matrix. Like the engine, it is generic over the dispatch discipline
//!   and streams its events to a probe.
//! * [`invariants::check_report`] — a trace checker enforcing the paper's
//!   guarantees as machine-checked invariants (dispatch order under the
//!   report's discipline — fixed-priority or EDF — full-speed releases,
//!   speed changes only at scheduler invocations, power-downs strictly
//!   inside idle gaps, energy consistency, …), plus
//!   [`invariants::check_theorem1`] for the `r_heu >= r_opt` safety bound
//!   over [`lpfps::RatioLogger`] samples.
//! * [`diff::first_divergence`] — a structural report diff that turns
//!   "hash mismatch" into "first diverging field, with both values",
//!   reused by the golden suite and the differential tests;
//!   [`diff::first_trace_divergence`] does the same for event traces.

pub mod diff;
pub mod invariants;
pub(crate) mod queues;
pub mod run;
pub mod sim;

pub use diff::{first_divergence, first_trace_divergence, Divergence};
pub use invariants::{check_report, check_theorem1, Violation};
pub use run::oracle_run;
pub use sim::oracle_simulate_for;
