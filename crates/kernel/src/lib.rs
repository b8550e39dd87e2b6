// The library boundary is panic-free: untrusted input must surface as a
// typed error (`error::SimError`), never abort the process. Tests and
// binaries may still unwrap freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # lpfps-kernel
//!
//! A deterministic discrete-event simulator of a preemptive real-time
//! kernel, built for the reproduction of *Power Conscious Fixed Priority
//! Scheduling for Hard Real-Time Systems* (Shin & Choi, DAC 1999). The
//! dispatch discipline is pluggable (see [`discipline`]): the default
//! [`FixedPriority`] reproduces the paper's scheduler exactly, and
//! [`Edf`] drives the same engine by earliest absolute deadline for the
//! deadline-driven baselines.
//!
//! The kernel model is the one the paper builds on (Katcher et al.; Burns,
//! Tindell & Wellings): a priority-ordered **run queue** of released tasks
//! and a release-time-ordered **delay queue** of tasks waiting for their
//! next period, with the currently executing **active task** held in
//! neither. Scheduling policies plug in through the
//! [`PowerPolicy`] hook, which receives exactly the
//! information a real scheduler has (queue contents, the active job's
//! WCET-remaining work, the delay-queue head) and answers with a
//! [`PowerDirective`]: stay at full speed, power
//! down with a wake timer, or slow the clock for the lone active task.
//!
//! The engine models the paper's processor physics faithfully: execution
//! continues *during* voltage/clock ramps, power-down wake-ups cost 10
//! cycles, and every scheduler invocation at reduced speed first raises
//! the clock to maximum (pseudo-code L1–L4).
//!
//! # Example
//!
//! ```
//! use lpfps_kernel::{engine::{simulate, SimConfig}, policy::AlwaysFullSpeed};
//! use lpfps_cpu::spec::CpuSpec;
//! use lpfps_tasks::{exec::AlwaysWcet, task::Task, taskset::TaskSet, time::Dur};
//!
//! let ts = TaskSet::rate_monotonic("table1", vec![
//!     Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
//!     Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
//!     Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
//! ]);
//! let cpu = CpuSpec::arm8();
//! let report = simulate(
//!     &ts,
//!     &cpu,
//!     &mut AlwaysFullSpeed,
//!     &AlwaysWcet,
//!     &SimConfig::new(Dur::from_us(400)),
//! ).unwrap();
//! assert!(report.all_deadlines_met());
//! // FPS burns the 15% schedule slack in the NOP loop: 0.85 + 0.15*0.2.
//! assert!((report.average_power() - 0.88).abs() < 1e-6);
//! ```

pub mod discipline;
pub mod engine;
pub mod error;
pub mod policy;
mod power_table;
pub mod probe;
pub mod queues;
pub mod report;
pub mod stats;
pub mod steady;
pub mod trace;

pub use discipline::{Discipline, Edf, EdfKey, FixedPriority};
pub use engine::{simulate, simulate_in, SimConfig};
pub use error::{PartialDiagnostic, SimError};
pub use policy::{ActiveView, PolicyCore, PowerDirective, PowerPolicy, SchedulerContext};
pub use probe::{NoProbe, Probe};
pub use report::{Counters, DeadlineMiss, ResponseStats, SimReport};
pub use stats::{IntervalStats, ResponseHistogram};
pub use steady::FastForwardStats;
pub use trace::{Trace, TraceEvent};
