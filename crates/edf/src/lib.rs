//! # lpfps-edf
//!
//! The dynamic-priority DVS baselines discussed (but not evaluated) in
//! §2.2 of *Power Conscious Fixed Priority Scheduling for Hard Real-Time
//! Systems* (Shin & Choi, DAC 1999):
//!
//! * the **YDS optimal offline** speed schedule of Yao, Demers & Shenker
//!   (the paper’s reference \[14\]) — [`yds::YdsSchedule`];
//! * the **AVR (Average Rate) heuristic** from the same work —
//!   [`profile::SpeedProfile::avr`] executed by the EDF simulator in
//!   [`sim`];
//! * the **Ishihara–Yasuura discrete-voltage theorem** (reference \[16\]):
//!   realizing a continuous schedule on a finite frequency ladder with at
//!   most two adjacent levels per segment — [`discrete`];
//! * a full-speed EDF baseline for reference.
//!
//! These run in Yao's *idealized* processor model — continuous speeds,
//! instantaneous transitions, free idle time — which is deliberately more
//! generous than the LPFPS model (discrete 1 MHz ladder, linear voltage
//! ramps, 20 % NOP idle). Results are therefore comparable *within* this
//! crate, and the `related_work_dvs` experiment binary uses them to
//! demonstrate the paper's §2.2 argument: AVR's rates are computed from
//! worst-case cycles, so it cannot exploit execution-time variation —
//! its energy is flat in BCET while the clairvoyant optimal (YDS on the
//! realized work) keeps dropping; LPFPS reclaims that gap at run time.
//!
//! **Run-time EDF lives elsewhere.** Since the kernel grew a pluggable
//! dispatch discipline (`lpfps_kernel::discipline`), dispatching by
//! earliest deadline is the shared engine's job (`PolicyKind::Edf` /
//! `PolicyKind::CcEdf` in the driver); the simulator in [`sim`] is *not*
//! that path — it remains a deliberately tiny idealized-model cross-check
//! for the offline analyses in this crate.
//!
//! # Example
//!
//! ```
//! use lpfps_cpu::power::PowerModel;
//! use lpfps_edf::{model::JobSet, profile::SpeedProfile, sim::simulate_edf, yds::YdsSchedule};
//! use lpfps_tasks::exec::AlwaysWcet;
//! use lpfps_tasks::time::Dur;
//!
//! let jobs = JobSet::from_taskset(
//!     &lpfps_workloads::table1(), Dur::from_us(400), &AlwaysWcet, 0);
//! let power = PowerModel::default();
//! let optimal = YdsSchedule::compute(&jobs);
//! let avr = simulate_edf(&jobs, &SpeedProfile::avr(&jobs), &power);
//! assert_eq!(avr.misses, 0);
//! // The optimum never burns more than the heuristic.
//! assert!(optimal.energy(&power) <= avr.energy + 1e-12);
//! ```

pub mod discrete;
pub mod model;
pub mod profile;
pub mod sim;
pub mod yds;

pub use discrete::{DiscreteSchedule, DiscreteSegment};
pub use model::{Job, JobSet};
pub use profile::SpeedProfile;
pub use sim::{simulate_edf, simulate_edf_full_speed, EdfReport};
pub use yds::{SpeedSegment, YdsSchedule};
