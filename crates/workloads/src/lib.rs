//! # lpfps-workloads
//!
//! The hard-real-time task sets evaluated in *Power Conscious Fixed
//! Priority Scheduling for Hard Real-Time Systems* (Shin & Choi, DAC
//! 1999), reconstructed from the paper's Table 2 and the primary sources
//! it cites, plus the paper's motivating data:
//!
//! * [`table1`] — the 3-task example driving Figures 2, 3 and 5;
//! * [`avionics`] — the Generic Avionics Platform (Locke et al., RTSS '91),
//!   17 tasks, WCETs 1–9 ms;
//! * [`ins`] — the inertial navigation system (Burns/Tindell/Wellings),
//!   6 tasks, WCETs 1 180–100 280 µs, U = 0.736 dominated by one
//!   0.472-utilization task — the paper's best case for LPFPS;
//! * [`flight_control`] — the PERTS flight controller (Liu et al.),
//!   6 tasks, WCETs 10–60 ms;
//! * [`cnc`] — the CNC machine controller (Kim et al., RTSS '96),
//!   8 tasks, WCETs 35–720 µs — short enough that the 10 µs voltage
//!   transition matters;
//! * [`bcet_ratios`] — the BCET/WCET spread of Figure 1 (Ernst & Ye);
//! * [`WorkloadBuilder`] — seeded `replicate(n)` derivation of
//!   multicore-scale workloads from any of the above.
//!
//! Exact task tables are not printed in the paper; each module documents
//! which constraints are published (task counts, WCET ranges, utilization
//! structure) and how the reconstruction satisfies all of them. Every set
//! is asserted RM-schedulable by exact response-time analysis.
//!
//! # Example
//!
//! ```
//! use lpfps_tasks::analysis::rta_schedulable;
//!
//! for ts in lpfps_workloads::applications() {
//!     assert!(rta_schedulable(&ts), "{} is schedulable", ts.name());
//! }
//! ```

mod avionics;
mod bcet_figure1;
mod builder;
mod catalog;
mod cnc;
mod flight;
mod ins;
mod table1;

pub use avionics::avionics;
pub use bcet_figure1::{bcet_ratios, BcetRatio, BenchmarkClass};
pub use builder::WorkloadBuilder;
pub use catalog::{applications, table2, Table2Row};
pub use cnc::cnc;
pub use flight::flight_control;
pub use ins::ins;
pub use table1::table1;
