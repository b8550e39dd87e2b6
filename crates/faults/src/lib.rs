//! Deterministic, seedable fault models for stress-testing LPFPS.
//!
//! The paper's guarantees (Theorem 1's safeness of `r_heu`, exact
//! power-down wake-up) hold only under an idealized model: jobs never
//! exceed their WCET, releases are punctual, wake-ups take exactly the
//! specified latency, and voltage ramps hit their nominal rate. Real DVS
//! hardware and real kernels violate all four. This crate defines the
//! perturbations the kernel can inject so experiments can answer *what
//! breaks LPFPS, and how gracefully does it degrade*:
//!
//! * [`OverrunFault`] — a job's realized demand exceeds its WCET budget
//!   (per-job probability, exponential magnitude, clamped or unbounded);
//! * [`ReleaseJitter`] — a release is noticed late, beyond the tick model;
//! * [`WakeupJitter`] — waking from power-down takes longer than the
//!   processor's nominal relock latency;
//! * [`RampDegradation`] — a voltage/clock ramp progresses slower than the
//!   nominal rate `rho` (aging, thermal throttling, a weak regulator).
//!
//! Every draw is a pure function of `(simulation seed, fault seed,
//! domain, event coordinates)` via the same counter-based SplitMix64
//! streams the execution-time models use — no draw depends on simulation
//! order, so fault streams are byte-identical across scheduling policies
//! and across sweep thread counts, and any stream can be regenerated in
//! isolation. Quantities the engine treats as integers (cycles,
//! nanoseconds) are drawn as integers; `f64` appears only in the
//! probability / magnitude parameters, mirroring the engine's own split.

use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::rng::{job_stream, SplitMix64};
use lpfps_tasks::time::Dur;
use serde::Serialize;

/// Domain separators so the four fault streams (and the execution-time
/// stream, which uses the raw seed) never alias even for equal
/// coordinates.
const DOMAIN_OVERRUN: u64 = 0x5BD1_E995_97F4_A7C5;
const DOMAIN_RELEASE: u64 = 0xC2B2_AE3D_27D4_EB4F;
const DOMAIN_WAKEUP: u64 = 0x1656_67B1_9E37_79F9;
const DOMAIN_RAMP: u64 = 0x27D4_EB2F_1656_67C7;

/// Domain separator for [`core_seed`]: per-core seed derivation in
/// partitioned-multiprocessor runs.
const DOMAIN_CORE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the seed of core `core` of a partitioned-multiprocessor run
/// from a fleet-level base seed.
///
/// Applied to both the simulation seed and the fault seed of each per-core
/// uniprocessor run, this keys every counter-based stream (execution
/// times and all four fault domains) per core. Two guarantees follow:
///
/// * **Core 0 is the identity** (`core_seed(s, 0) == s`), so a one-core
///   "fleet" reproduces the corresponding uniprocessor run byte for byte —
///   the anchor of the multicore golden-matrix gate.
/// * **Order independence across cores.** Each derived seed depends only
///   on `(seed, core)`, and every draw under it is already a pure function
///   of `(seeds, domain, event coordinates)` — so core *k*'s streams are
///   identical whether its subset is simulated first, last, in parallel
///   with the others, or standalone. Cross-core replay is pinned by tests
///   here and in `crates/core/tests/fault_safety_prop.rs`.
pub fn core_seed(seed: u64, core: usize) -> u64 {
    if core == 0 {
        return seed;
    }
    SplitMix64::new(seed ^ DOMAIN_CORE ^ core as u64).next_u64()
}

/// The stream for one fault draw: mixes the simulation seed, the fault
/// model's own seed, and a domain constant, then derives the per-event
/// stream exactly like [`job_stream`] does for execution times.
fn fault_stream(sim_seed: u64, fault_seed: u64, domain: u64, a: usize, b: u64) -> SplitMix64 {
    job_stream(sim_seed ^ fault_seed.rotate_left(17) ^ domain, a, b)
}

/// WCET overrun: with probability `probability`, a job's realized demand
/// exceeds its full WCET budget by an exponentially-distributed extra
/// (mean `magnitude` × WCET). `clamp` caps the *total* demand at
/// `clamp` × WCET; `None` leaves the exponential tail unbounded.
///
/// This is the fault that breaks Theorem 1 directly: a slowed-down job
/// that overruns was stretched on the assumption that `C_i − E_i` cycles
/// remained, so the excess lands after the planned completion bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OverrunFault {
    /// Per-job probability of overrunning, in `[0, 1]`.
    pub probability: f64,
    /// Mean of the exponential extra demand, as a fraction of the WCET.
    pub magnitude: f64,
    /// Cap on total demand as a multiple of WCET (`Some(1.5)` = at most
    /// 150 % of the budget); `None` = unbounded.
    pub clamp: Option<f64>,
}

impl OverrunFault {
    /// A clamped overrun model (the common "misbehaving but bounded"
    /// case).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of range (probability outside
    /// `[0, 1]`, non-positive magnitude, clamp below 1).
    pub fn clamped(probability: f64, magnitude: f64, clamp: f64) -> Self {
        let fault = OverrunFault {
            probability,
            magnitude,
            clamp: Some(clamp),
        };
        fault.validate();
        fault
    }

    /// An unbounded overrun model (pure exponential tail).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are out of range.
    pub fn unbounded(probability: f64, magnitude: f64) -> Self {
        let fault = OverrunFault {
            probability,
            magnitude,
            clamp: None,
        };
        fault.validate();
        fault
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.probability),
            "overrun probability must be in [0, 1]"
        );
        assert!(
            self.magnitude.is_finite() && self.magnitude > 0.0,
            "overrun magnitude must be positive"
        );
        if let Some(c) = self.clamp {
            assert!(c.is_finite() && c >= 1.0, "overrun clamp must be >= 1");
        }
    }

    /// Extra demand (beyond the WCET budget `wcet`) injected into job
    /// `job` of task `task`, in whole cycles; zero when the per-job coin
    /// flip does not fire.
    pub fn extra_cycles(
        &self,
        sim_seed: u64,
        fault_seed: u64,
        task: usize,
        job: u64,
        wcet: Cycles,
    ) -> Cycles {
        let mut s = fault_stream(sim_seed, fault_seed, DOMAIN_OVERRUN, task, job);
        if s.next_f64() >= self.probability {
            return Cycles::ZERO;
        }
        // Exponential with mean `magnitude`, as a fraction of the WCET.
        let mut frac = self.magnitude * -s.next_f64_open().ln();
        if let Some(clamp) = self.clamp {
            frac = frac.min(clamp - 1.0);
        }
        let extra = (frac * wcet.as_u64() as f64).ceil();
        // A firing overrun always exceeds the budget by at least one cycle,
        // so budget-exhaustion detection is well-defined.
        Cycles::new((extra.max(0.0) as u64).max(1))
    }
}

/// Release jitter beyond the tick model: the kernel notices each release
/// up to `max_delay` late (uniform, whole nanoseconds). Deadlines and
/// response times still count from the nominal arrival, so jitter eats
/// the job's slack — the standard interpretation of release jitter in
/// response-time analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReleaseJitter {
    /// Upper bound on the per-release notice delay.
    pub max_delay: Dur,
}

impl ReleaseJitter {
    /// Uniform jitter in `[0, max_delay]`.
    ///
    /// # Panics
    ///
    /// Panics if the bound is zero (use `None` in [`FaultConfig`] for "no
    /// jitter").
    pub fn uniform(max_delay: Dur) -> Self {
        assert!(!max_delay.is_zero(), "jitter bound must be positive");
        ReleaseJitter { max_delay }
    }

    /// The notice delay for job `job` of task `task`.
    pub fn delay(&self, sim_seed: u64, fault_seed: u64, task: usize, job: u64) -> Dur {
        let mut s = fault_stream(sim_seed, fault_seed, DOMAIN_RELEASE, task, job);
        Dur::from_ns(s.next_u64() % (self.max_delay.as_ns() + 1))
    }
}

/// Wake-up-latency variance: returning from power-down takes the nominal
/// relock delay plus up to `max_extra` (uniform, whole nanoseconds). The
/// policy plans its wake timer with the nominal latency, so a drawn extra
/// can make the processor oversleep a release — the kernel reports that
/// as a timing violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WakeupJitter {
    /// Upper bound on the extra relock time per wake-up.
    pub max_extra: Dur,
}

impl WakeupJitter {
    /// Uniform extra latency in `[0, max_extra]`.
    ///
    /// # Panics
    ///
    /// Panics if the bound is zero.
    pub fn uniform(max_extra: Dur) -> Self {
        assert!(
            !max_extra.is_zero(),
            "wake-up jitter bound must be positive"
        );
        WakeupJitter { max_extra }
    }

    /// The extra latency of the `event`-th wake-up of the run.
    pub fn extra(&self, sim_seed: u64, fault_seed: u64, event: u64) -> Dur {
        let mut s = fault_stream(sim_seed, fault_seed, DOMAIN_WAKEUP, 0, event);
        Dur::from_ns(s.next_u64() % (self.max_extra.as_ns() + 1))
    }
}

/// Degraded ramp rate: each voltage/clock transition progresses at
/// `factor × rho` for a per-ramp factor drawn uniformly from
/// `[min_factor, max_factor]`. The policy still plans speed-up timers
/// with the nominal `rho`, so a degraded ramp back to full speed can
/// still be in flight when the next task arrives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RampDegradation {
    /// Slowest ramp-rate multiplier, in `(0, 1]`.
    pub min_factor: f64,
    /// Fastest ramp-rate multiplier, in `[min_factor, 1]`.
    pub max_factor: f64,
}

impl RampDegradation {
    /// Every ramp degraded by the same constant factor.
    ///
    /// # Panics
    ///
    /// Panics if the factor is outside `(0, 1]`.
    pub fn constant(factor: f64) -> Self {
        RampDegradation::uniform(factor, factor)
    }

    /// Per-ramp factors drawn uniformly from `[min_factor, max_factor]`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside `(0, 1]` or is inverted.
    pub fn uniform(min_factor: f64, max_factor: f64) -> Self {
        assert!(
            min_factor > 0.0 && max_factor <= 1.0 && min_factor <= max_factor,
            "ramp degradation factors must satisfy 0 < min <= max <= 1"
        );
        RampDegradation {
            min_factor,
            max_factor,
        }
    }

    /// The rate multiplier of the `event`-th ramp of the run.
    pub fn factor(&self, sim_seed: u64, fault_seed: u64, event: u64) -> f64 {
        if self.min_factor == self.max_factor {
            return self.min_factor;
        }
        let mut s = fault_stream(sim_seed, fault_seed, DOMAIN_RAMP, 0, event);
        self.min_factor + (self.max_factor - self.min_factor) * s.next_f64()
    }
}

/// The complete fault model of one simulation: which perturbations are
/// active, plus the fault seed that (together with the simulation seed)
/// keys every draw. [`FaultConfig::none`] — the default — injects
/// nothing and reproduces the paper's idealized model exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct FaultConfig {
    /// Fault-stream seed, mixed with the simulation seed so sweeping
    /// either varies the stream.
    pub seed: u64,
    /// WCET overruns, if enabled.
    pub overrun: Option<OverrunFault>,
    /// Release-notice jitter, if enabled.
    pub release_jitter: Option<ReleaseJitter>,
    /// Wake-up-latency variance, if enabled.
    pub wakeup_jitter: Option<WakeupJitter>,
    /// Ramp-rate degradation, if enabled.
    pub ramp_degradation: Option<RampDegradation>,
}

impl FaultConfig {
    /// No faults: the idealized model.
    pub fn none() -> Self {
        FaultConfig::default()
    }

    /// True when no perturbation is active (the engine takes its exact
    /// fast paths).
    pub fn is_none(&self) -> bool {
        self.overrun.is_none()
            && self.release_jitter.is_none()
            && self.wakeup_jitter.is_none()
            && self.ramp_degradation.is_none()
    }

    /// Sets the fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables WCET overruns.
    pub fn with_overrun(mut self, fault: OverrunFault) -> Self {
        self.overrun = Some(fault);
        self
    }

    /// Enables release-notice jitter.
    pub fn with_release_jitter(mut self, fault: ReleaseJitter) -> Self {
        self.release_jitter = Some(fault);
        self
    }

    /// Enables wake-up-latency variance.
    pub fn with_wakeup_jitter(mut self, fault: WakeupJitter) -> Self {
        self.wakeup_jitter = Some(fault);
        self
    }

    /// Enables ramp-rate degradation.
    pub fn with_ramp_degradation(mut self, fault: RampDegradation) -> Self {
        self.ramp_degradation = Some(fault);
        self
    }

    /// A compact label of the active perturbations for reports
    /// (`"none"`, `"overrun"`, `"overrun+ramp"`, ...).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.overrun.is_some() {
            parts.push("overrun");
        }
        if self.release_jitter.is_some() {
            parts.push("jitter");
        }
        if self.wakeup_jitter.is_some() {
            parts.push("wakeup");
        }
        if self.ramp_degradation.is_some() {
            parts.push("ramp");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_reproducible() {
        let o = OverrunFault::clamped(0.5, 0.3, 1.5);
        for job in 0..50 {
            assert_eq!(
                o.extra_cycles(7, 3, 1, job, Cycles::new(1_000)),
                o.extra_cycles(7, 3, 1, job, Cycles::new(1_000))
            );
        }
        let j = ReleaseJitter::uniform(Dur::from_us(5));
        assert_eq!(j.delay(7, 3, 0, 9), j.delay(7, 3, 0, 9));
        let w = WakeupJitter::uniform(Dur::from_us(2));
        assert_eq!(w.extra(7, 3, 4), w.extra(7, 3, 4));
        let r = RampDegradation::uniform(0.2, 0.9);
        assert_eq!(r.factor(7, 3, 4).to_bits(), r.factor(7, 3, 4).to_bits());
    }

    #[test]
    fn streams_differ_across_domains_and_seeds() {
        // The same coordinates must not alias across fault kinds.
        let j = ReleaseJitter::uniform(Dur::from_ns(u64::MAX - 1));
        let w = WakeupJitter::uniform(Dur::from_ns(u64::MAX - 1));
        assert_ne!(j.delay(1, 2, 0, 5), w.extra(1, 2, 5));
        assert_ne!(j.delay(1, 2, 0, 5), j.delay(1, 3, 0, 5));
        assert_ne!(j.delay(1, 2, 0, 5), j.delay(2, 2, 0, 5));
    }

    #[test]
    fn overrun_probability_zero_never_fires() {
        let o = OverrunFault::clamped(0.0, 0.5, 2.0);
        for job in 0..200 {
            assert_eq!(o.extra_cycles(1, 0, 0, job, Cycles::new(500)), Cycles::ZERO);
        }
    }

    #[test]
    fn overrun_probability_one_always_fires_with_at_least_one_cycle() {
        let o = OverrunFault::clamped(1.0, 0.25, 1.5);
        for job in 0..200 {
            let extra = o.extra_cycles(1, 0, 0, job, Cycles::new(1_000));
            assert!(!extra.is_zero());
            // Clamp 1.5x: extra at most half the budget (rounded up).
            assert!(extra.as_u64() <= 501, "extra {extra} beyond clamp");
        }
    }

    #[test]
    fn overrun_firing_rate_tracks_probability() {
        let o = OverrunFault::unbounded(0.3, 0.2);
        let n = 20_000;
        let fired = (0..n)
            .filter(|&job| !o.extra_cycles(42, 0, 0, job, Cycles::new(1_000)).is_zero())
            .count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "firing rate {rate}");
    }

    #[test]
    fn unbounded_overruns_exceed_any_clamp_eventually() {
        let clamped = OverrunFault::clamped(1.0, 0.5, 1.2);
        let unbounded = OverrunFault::unbounded(1.0, 0.5);
        let wcet = Cycles::new(1_000);
        let max_clamped = (0..500)
            .map(|j| clamped.extra_cycles(9, 0, 0, j, wcet).as_u64())
            .max()
            .unwrap();
        let max_unbounded = (0..500)
            .map(|j| unbounded.extra_cycles(9, 0, 0, j, wcet).as_u64())
            .max()
            .unwrap();
        assert!(max_clamped <= 201, "clamp violated: {max_clamped}");
        assert!(max_unbounded > max_clamped);
    }

    #[test]
    fn jitter_respects_its_bound() {
        let j = ReleaseJitter::uniform(Dur::from_us(3));
        let w = WakeupJitter::uniform(Dur::from_ns(77));
        for e in 0..2_000 {
            assert!(j.delay(5, 1, 2, e) <= Dur::from_us(3));
            assert!(w.extra(5, 1, e) <= Dur::from_ns(77));
        }
    }

    #[test]
    fn ramp_factors_stay_in_range() {
        let r = RampDegradation::uniform(0.25, 0.75);
        for e in 0..2_000 {
            let f = r.factor(11, 0, e);
            assert!((0.25..=0.75).contains(&f), "factor {f}");
        }
        assert_eq!(RampDegradation::constant(0.5).factor(11, 0, 3), 0.5);
    }

    #[test]
    fn core_seed_is_identity_on_core_zero_and_distinct_elsewhere() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(core_seed(seed, 0), seed, "core 0 must be the identity");
        }
        // Distinct cores of the same base seed get distinct streams.
        let seeds: Vec<u64> = (0..16).map(|core| core_seed(42, core)).collect();
        for (a, sa) in seeds.iter().enumerate() {
            for (b, sb) in seeds.iter().enumerate() {
                if a != b {
                    assert_ne!(sa, sb, "cores {a} and {b} alias");
                }
            }
        }
    }

    #[test]
    fn per_core_fault_streams_replay_independently_of_core_order() {
        // A core's stream is a pure function of (base seeds, core,
        // coordinates): drawing core 2's overruns before, after, or
        // without core 1's yields the same values.
        let o = OverrunFault::clamped(0.5, 0.3, 1.5);
        let draw = |core: usize, job: u64| {
            o.extra_cycles(
                core_seed(42, core),
                core_seed(7, core),
                0,
                job,
                Cycles::new(1_000),
            )
        };
        let core2_alone: Vec<_> = (0..50).map(|j| draw(2, j)).collect();
        let _core1_first: Vec<_> = (0..50).map(|j| draw(1, j)).collect();
        let core2_after: Vec<_> = (0..50).map(|j| draw(2, j)).collect();
        assert_eq!(core2_alone, core2_after);
        // And distinct cores see distinct streams for equal coordinates.
        assert_ne!(core2_alone, (0..50).map(|j| draw(1, j)).collect::<Vec<_>>());
    }

    #[test]
    fn config_label_names_active_faults() {
        assert_eq!(FaultConfig::none().label(), "none");
        assert!(FaultConfig::none().is_none());
        let cfg = FaultConfig::none()
            .with_overrun(OverrunFault::clamped(0.1, 0.2, 1.5))
            .with_ramp_degradation(RampDegradation::constant(0.5));
        assert_eq!(cfg.label(), "overrun+ramp");
        assert!(!cfg.is_none());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = OverrunFault::clamped(1.5, 0.2, 1.5);
    }

    #[test]
    #[should_panic(expected = "clamp")]
    fn clamp_below_one_rejected() {
        let _ = OverrunFault::clamped(0.5, 0.2, 0.9);
    }
}
