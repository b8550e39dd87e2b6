//! Schedulability analysis for fixed-priority preemptive scheduling.
//!
//! The paper relies on its workloads being *just* schedulable under
//! rate-monotonic priorities (its Table 1 example "just meets its
//! schedulability"); these analyses are what establishes that, and the
//! integration tests use them to cross-check the simulator: a task set the
//! analysis declares schedulable must never miss a deadline in simulation
//! at any speed-scaling policy.
//!
//! * [`utilization`] — the Liu–Layland bound (a sufficient test).
//! * [`response_time`](mod@response_time) — exact response-time analysis
//!   (Joseph & Pandya; Audsley et al.), with optional release jitter and
//!   per-preemption overhead terms.
//! * [`hyperperiod`](mod@hyperperiod) — LCM of periods.
//! * [`breakdown`] — breakdown utilization by binary-search scaling.
//! * [`busy_period`] — exact schedulability by synchronous busy-period
//!   simulation (an oracle independent of the RTA fixed point).
//! * [`sensitivity`] — per-task slack and critical scaling factors.

pub mod breakdown;
pub mod busy_period;
pub mod hyperperiod;
pub mod response_time;
pub mod sensitivity;
pub mod utilization;

pub use breakdown::breakdown_utilization;
pub use busy_period::{busy_period_responses, BusyPeriodOutcome};
pub use hyperperiod::hyperperiod;
pub use response_time::{response_time, response_times, rta_schedulable, RtaConfig, RtaOutcome};
pub use sensitivity::{critical_scaling_factor, slack};
pub use utilization::{liu_layland_bound, utilization_schedulable};
