//! Energy accounting with per-state breakdowns.
//!
//! Energy is accumulated as `normalized power x seconds`, so a meter that
//! reads `1.0` after one second means "the energy a full-speed busy
//! processor burns in a second". Average power over the run (energy /
//! elapsed time) is the unit of the paper's Figure 8.
//!
//! Energy is *reporting-only*: nothing in the scheduling path reads the
//! meter, so its use of `f64` cannot perturb the (integer-exact) schedule.

use crate::state::{CpuState, StateKind};
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accumulates energy and residency per processor state.
///
/// # Examples
///
/// ```
/// use lpfps_cpu::{energy::EnergyMeter, spec::CpuSpec, state::CpuState};
/// use lpfps_tasks::time::Dur;
///
/// let cpu = CpuSpec::arm8();
/// let mut meter = EnergyMeter::new();
/// let idle = CpuState::IdleNop;
/// meter.accumulate_with_power(idle, cpu.state_power(idle), Dur::from_ms(1));
/// // 20% power for 1 ms = 0.0002 normalized joule-equivalents.
/// assert!((meter.total_energy() - 2e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    total_energy: f64,
    /// One slot per [`StateKind`], indexed by declaration order — a plain
    /// array store on the simulation hot path (the meter is charged on
    /// every advance) where a `BTreeMap` lookup used to sit. A kind was
    /// "entered" iff its residency is non-zero (charges are only ever
    /// positive), which the serialized form below relies on.
    buckets: [StateBucket; StateKind::ALL.len()],
}

/// Residency and energy attributed to one state kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StateBucket {
    /// Total time spent in this state.
    pub residency: Dur,
    /// Total normalized energy burned in this state.
    pub energy: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges `dur` spent in `state` drawing `power`
    /// ([`CpuSpec::state_power`](crate::spec::CpuSpec::state_power), which
    /// the kernel serves for busy and ramp states from its power table),
    /// and returns the energy charged, `power * dur.as_secs_f64()` (0 for
    /// a zero `dur`, which charges nothing).
    pub fn accumulate_with_power(&mut self, state: CpuState, power: f64, dur: Dur) -> f64 {
        if dur.is_zero() {
            return 0.0;
        }
        let energy = power * dur.as_secs_f64();
        self.accumulate_energy(state, energy, dur);
        energy
    }

    /// Charges `dur` spent in `state` that burned `energy`: the second
    /// half of [`accumulate_with_power`](Self::accumulate_with_power),
    /// whose returned product the kernel records and replays through this
    /// call when it fast-forwards. A zero `dur` charges nothing.
    pub fn accumulate_energy(&mut self, state: CpuState, energy: f64, dur: Dur) {
        if dur.is_zero() {
            return;
        }
        self.total_energy += energy;
        let bucket = &mut self.buckets[state.kind() as usize];
        bucket.residency += dur;
        bucket.energy += energy;
    }

    /// Total normalized energy over the run.
    pub fn total_energy(&self) -> f64 {
        self.total_energy
    }

    /// Average normalized power over an elapsed wall-clock span.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn average_power(&self, elapsed: Dur) -> f64 {
        assert!(!elapsed.is_zero(), "cannot average power over zero time");
        self.total_energy / elapsed.as_secs_f64()
    }

    /// The bucket for one state kind (zero if never entered).
    pub fn bucket(&self, kind: StateKind) -> StateBucket {
        self.buckets[kind as usize]
    }

    /// Iterates non-empty buckets in report order.
    pub fn buckets(&self) -> impl Iterator<Item = (StateKind, StateBucket)> + '_ {
        StateKind::ALL
            .into_iter()
            .map(|k| (k, self.bucket(k)))
            .filter(|(_, b)| !b.residency.is_zero())
    }

    /// Total residency across all states (should equal elapsed sim time;
    /// the kernel asserts this).
    pub fn total_residency(&self) -> Dur {
        self.buckets
            .iter()
            .fold(Dur::ZERO, |acc, b| acc + b.residency)
    }
}

/// Serializes exactly like the historical
/// `{ total_energy, per_state: BTreeMap<StateKind, StateBucket> }` layout:
/// `per_state` is an object holding only the entered kinds, in
/// [`StateKind::ALL`] (= `BTreeMap` iteration) order — so report JSON and
/// the golden fingerprints over it are unchanged by the array-backed
/// representation.
impl Serialize for EnergyMeter {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.entry("total_energy", &self.total_energy);
        s.key("per_state");
        s.begin_object();
        for (kind, bucket) in self.buckets() {
            s.entry(&kind, &bucket);
        }
        s.end_object();
        s.end_object();
    }
}

impl Deserialize for EnergyMeter {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected an object for EnergyMeter"))?;
        let total_energy = f64::from_value(
            obj.get("total_energy")
                .ok_or_else(|| serde::Error::missing_field("EnergyMeter", "total_energy"))?,
        )?;
        let per_state = BTreeMap::<StateKind, StateBucket>::from_value(
            obj.get("per_state")
                .ok_or_else(|| serde::Error::missing_field("EnergyMeter", "per_state"))?,
        )?;
        let mut buckets = [StateBucket::default(); StateKind::ALL.len()];
        for (kind, bucket) in per_state {
            buckets[kind as usize] = bucket;
        }
        Ok(EnergyMeter {
            total_energy,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CpuSpec;
    use lpfps_tasks::freq::Freq;

    #[test]
    fn empty_meter_reads_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.total_energy(), 0.0);
        assert_eq!(m.total_residency(), Dur::ZERO);
        assert_eq!(m.bucket(StateKind::Busy), StateBucket::default());
    }

    /// Charges `dur` in `state` at the power `cpu` draws there.
    fn charge(m: &mut EnergyMeter, cpu: &CpuSpec, state: CpuState, dur: Dur) {
        m.accumulate_with_power(state, cpu.state_power(state), dur);
    }

    #[test]
    fn accumulation_splits_by_state() {
        let cpu = CpuSpec::arm8();
        let mut m = EnergyMeter::new();
        charge(
            &mut m,
            &cpu,
            CpuState::Busy(Freq::from_mhz(100)),
            Dur::from_ms(2),
        );
        charge(
            &mut m,
            &cpu,
            CpuState::PowerDown { power_frac: 0.05 },
            Dur::from_ms(8),
        );
        assert_eq!(m.bucket(StateKind::Busy).residency, Dur::from_ms(2));
        assert_eq!(m.bucket(StateKind::PowerDown).residency, Dur::from_ms(8));
        assert_eq!(m.total_residency(), Dur::from_ms(10));
        // 1.0 * 2ms + 0.05 * 8ms = 2.4 ms-units.
        assert!((m.total_energy() - 2.4e-3).abs() < 1e-12);
        // Average power over 10 ms = 0.24.
        assert!((m.average_power(Dur::from_ms(10)) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_is_a_no_op() {
        let cpu = CpuSpec::arm8();
        let mut m = EnergyMeter::new();
        charge(&mut m, &cpu, CpuState::IdleNop, Dur::ZERO);
        assert_eq!(m.total_energy(), 0.0);
        assert_eq!(m.buckets().count(), 0);
    }

    #[test]
    fn busy_at_low_frequency_is_cheap() {
        let cpu = CpuSpec::arm8();
        let mut slow = EnergyMeter::new();
        let mut fast = EnergyMeter::new();
        charge(
            &mut slow,
            &cpu,
            CpuState::Busy(Freq::from_mhz(50)),
            Dur::from_ms(2),
        );
        charge(
            &mut fast,
            &cpu,
            CpuState::Busy(Freq::from_mhz(100)),
            Dur::from_ms(1),
        );
        // Same work (100 Mcycles), but the slow run burns much less energy.
        assert!(slow.total_energy() < 0.7 * fast.total_energy());
    }

    #[test]
    #[should_panic(expected = "zero time")]
    fn average_over_zero_time_panics() {
        let _ = EnergyMeter::new().average_power(Dur::ZERO);
    }
}
