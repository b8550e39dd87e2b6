// The library boundary is panic-free: untrusted input must surface as a
// typed error (`error::TaskSetError`), never abort the process. Tests and
// binaries may still unwrap freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # lpfps-tasks
//!
//! Periodic task model, fixed-priority assignment, schedulability analysis,
//! and execution-time models for the reproduction of *Power Conscious Fixed
//! Priority Scheduling for Hard Real-Time Systems* (Shin & Choi, DAC 1999).
//!
//! This crate is the foundation of the workspace: everything that can be
//! said about a task set *before* running it lives here.
//!
//! * [`time`], [`freq`], [`cycles`] — exact integer quantities (nanosecond
//!   instants, kilohertz clocks, cycle counts) shared by all crates.
//! * [`task`], [`taskset`], [`priority`] — the periodic task model with
//!   rate-/deadline-monotonic priority assignment.
//! * [`analysis`] — the Liu–Layland utilization bound, exact response-time
//!   analysis, busy-period simulation, hyperperiods, breakdown
//!   utilization, and sensitivity analysis.
//! * [`exec`] — realized per-job execution-time models, including the
//!   paper's clamped Gaussian (Eqs. 4–5).
//! * [`gen`] — UUniFast synthetic task-set generation for sweeps.
//! * [`rng`] — counter-based deterministic random streams, so every
//!   scheduling policy sees an identical workload realization.
//!
//! # Example
//!
//! Build the paper's Table 1 set and verify it is exactly schedulable:
//!
//! ```
//! use lpfps_tasks::analysis::{response_times, RtaConfig, RtaOutcome};
//! use lpfps_tasks::{task::Task, taskset::TaskSet, time::Dur};
//!
//! let ts = TaskSet::rate_monotonic("table1", vec![
//!     Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
//!     Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
//!     Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
//! ]);
//! let outcomes = response_times(&ts, &RtaConfig::default());
//! assert_eq!(outcomes[2], RtaOutcome::Schedulable(Dur::from_us(80)));
//! ```

pub mod analysis;
pub mod cycles;
pub mod error;
pub mod exec;
pub mod freq;
pub mod gen;
pub mod priority;
pub mod rng;
pub mod task;
pub mod taskset;
pub mod time;

pub use cycles::Cycles;
pub use error::TaskSetError;
pub use freq::Freq;
pub use task::{Priority, Task, TaskId};
pub use taskset::TaskSet;
pub use time::{Dur, Time};
