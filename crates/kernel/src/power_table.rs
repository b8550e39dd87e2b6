//! The engine's power table.
//!
//! Every advance charges its segment [`CpuSpec::state_power`]. For a
//! ramp state that is [`PowerModel::ramp_average`], a 16-panel Simpson
//! quadrature; for a settled `Busy(f)` it is the `V²f` power
//! [`PowerModel::busy`], a square root and a handful of divides. A sweep
//! meets the same few hundred ramp states (ladder level to full speed and
//! back, plus the mid-ramp retargets) and the ladder's busy frequencies
//! hundreds of thousands of times. The table keeps the `f64` each one
//! returned, so a repeat is a lookup. It is exact for three reasons:
//!
//! * **The key is the whole state**: the frequency of a `Busy` state, or
//!   the ordered `(from, to)` pair of a ramp state in integer kHz with its
//!   `Ramping`/`RampingIdle` tag. A lookup compares all of it, so a slot
//!   collision recomputes and never aliases. The direction matters: the
//!   quadrature is symmetric only to rounding, not bit for bit.
//! * **The table knows its model.** `state_power` of these states reads
//!   only the spec's [`PowerModel`] — the V–f curve, which fixes the
//!   reference frequency, and the idle fraction — never the ladder, the
//!   ramp rate, the wake-up cycles or the sleep modes. The table records
//!   the model it was filled under, bit for bit, and empties itself when
//!   a run brings another ([`PowerTable::adopt`]).
//! * **`state_power` is pure**, so a stored value is the one a fresh call
//!   returns.
//!
//! `IdleNop`, `PowerDown` and `WakingUp` bypass the table: their
//! `state_power` is a field read or a constant.

use lpfps_cpu::power::PowerModel;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::state::CpuState;
use lpfps_tasks::freq::Freq;

/// log2 of the slot count. At 256 slots the busy keys of a Figure 8
/// batch evict ramp keys, whose misses cost a quadrature each (4,428
/// against 2,544 with ramp keys alone); at 512 the batch recomputes
/// 2,223 ramp and 1,240 busy states (DESIGN §7, "The power table").
const SLOT_BITS: u32 = 9;
const SLOTS: usize = 1 << SLOT_BITS;

/// A direct-mapped cache of `state_power` for busy and ramp states, valid
/// for one [`PowerModel`]. It lives in the
/// [`SimWorkspace`](crate::engine::SimWorkspace), so a sweep worker fills
/// it once per batch.
#[derive(Debug, Default)]
pub(crate) struct PowerTable {
    /// Bit patterns of the model the slots were filled under; `None`
    /// before the first run.
    model: Option<[u64; 5]>,
    /// `(state, state_power(state))` per slot. Empty until the first
    /// lookup after a reset, then `SLOTS` long.
    slots: Vec<Option<(CpuState, f64)>>,
}

impl PowerTable {
    /// Prepares the table for a run under `model`: keeps the slots if
    /// they were filled under a bitwise-identical model and empties them
    /// otherwise. Bitwise, not `==`: idle fractions `0.0` and `-0.0`
    /// compare equal but give `RampingIdle` powers of opposite sign.
    pub(crate) fn adopt(&mut self, model: &PowerModel) {
        let bits = model_bits(model);
        if self.model != Some(bits) {
            self.model = Some(bits);
            self.slots.clear();
        }
    }

    /// `cpu.state_power(state)`, bit for bit, with busy and ramp states
    /// served from the table. `cpu` carries the model last passed to
    /// [`adopt`](Self::adopt).
    pub(crate) fn state_power(&mut self, cpu: &CpuSpec, state: CpuState) -> f64 {
        let slot = match state {
            // No ramp ends at 0 kHz, so `Busy(f)` hashes like a ramp no
            // run has, and the ramp states keep their slots.
            CpuState::Busy(f) => slot_of(f, Freq::ZERO, false),
            CpuState::Ramping { from, to } => slot_of(from, to, false),
            CpuState::RampingIdle { from, to } => slot_of(from, to, true),
            _ => return cpu.state_power(state),
        };
        debug_assert_eq!(
            self.model,
            Some(model_bits(cpu.power())),
            "the power table was adopted under another power model"
        );
        if self.slots.is_empty() {
            self.slots.resize(SLOTS, None);
        }
        match self.slots[slot] {
            Some((key, power)) if key == state => power,
            _ => {
                let power = cpu.state_power(state);
                self.slots[slot] = Some((state, power));
                power
            }
        }
    }
}

/// Every field of `model`, as bits.
fn model_bits(model: &PowerModel) -> [u64; 5] {
    let vf = model.vf();
    [
        vf.f_max().as_khz(),
        vf.v_max().0.to_bits(),
        vf.v_t().0.to_bits(),
        model.idle_nop().to_bits(),
        model.power_down().to_bits(),
    ]
}

/// The slot of a ramp state (and of `Busy(f)`, as the ramp `(f, 0 kHz)`):
/// Fibonacci hashing of the ordered pair and the tag, top `SLOT_BITS`
/// bits.
fn slot_of(from: Freq, to: Freq, idle: bool) -> usize {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15; // 2^64 / golden ratio
    let h = ((from.as_khz() << 1) | u64::from(idle)).wrapping_mul(MIX) ^ to.as_khz();
    (h.wrapping_mul(MIX) >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::ladder::FrequencyLadder;
    use lpfps_cpu::vf::VfCurve;

    /// The paper's processor with V–f threshold `v_t` and NOP idle
    /// fraction `idle_frac`.
    fn arm8_with(v_t: f64, idle_frac: f64) -> CpuSpec {
        let vf = VfCurve::new(Freq::from_mhz(100), 3.3, v_t);
        CpuSpec::new(
            FrequencyLadder::default(),
            PowerModel::new(vf, idle_frac, 0.05),
            0.07,
            10,
        )
    }

    /// Looks `state` up and checks it against a fresh `state_power`, bit
    /// for bit.
    fn check(table: &mut PowerTable, cpu: &CpuSpec, state: CpuState) {
        let (got, want) = (table.state_power(cpu, state), cpu.state_power(state));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{state}: table {got:e}, state_power {want:e}"
        );
    }

    /// Every ordered pair of ladder levels and of a few mid-ramp
    /// endpoints (a retargeted ramp starts at an arbitrary kHz), as
    /// `Ramping` and `RampingIdle`, and every one of those frequencies as
    /// `Busy`. The two tags and the two directions of a pair are looked
    /// up back to back, and each `Busy(a)` right after the ramps that
    /// start at `a`, so a key that dropped a tag, a direction or the busy
    /// frequency would serve the wrong twin. The second pass reads what
    /// the first stored.
    fn check_every_state(table: &mut PowerTable, cpu: &CpuSpec) {
        let off_ladder = [8_001, 37_513, 64_999, 99_999].map(Freq::from_khz);
        let ends: Vec<Freq> = cpu.ladder().iter().chain(off_ladder).collect();
        for _ in 0..2 {
            for &a in &ends {
                for &b in &ends {
                    for (from, to) in [(a, b), (b, a)] {
                        check(table, cpu, CpuState::Ramping { from, to });
                        check(table, cpu, CpuState::RampingIdle { from, to });
                    }
                }
                check(table, cpu, CpuState::Busy(a));
            }
        }
    }

    #[test]
    fn every_table_state_is_bit_identical_to_state_power() {
        let arm8 = CpuSpec::arm8();
        assert_eq!(arm8.ladder().level_count(), 93);
        let mut table = PowerTable::default();
        table.adopt(arm8.power());
        check_every_state(&mut table, &arm8);
        // The same table, switched to another model, must not serve a
        // single arm8 value.
        let low_vt = arm8_with(0.4, 0.2);
        table.adopt(low_vt.power());
        check_every_state(&mut table, &low_vt);
    }

    #[test]
    fn idle_power_down_and_wake_up_bypass_the_table() {
        let cpu = CpuSpec::arm8();
        let mut table = PowerTable::default();
        table.adopt(cpu.power());
        for state in [
            CpuState::IdleNop,
            CpuState::PowerDown { power_frac: 0.05 },
            CpuState::WakingUp,
        ] {
            check(&mut table, &cpu, state);
        }
        assert!(table.slots.is_empty(), "a bypassing state took a slot");
        check(&mut table, &cpu, CpuState::Busy(Freq::from_mhz(42)));
        assert_eq!(
            table.slots.iter().flatten().count(),
            1,
            "a busy state is served from the table"
        );
    }

    #[test]
    fn a_model_change_empties_the_table_bitwise() {
        // Idle fractions 0.0 and -0.0 are `==` but give `RampingIdle`
        // powers of opposite sign.
        let (plus, minus) = (arm8_with(0.8, 0.0), arm8_with(0.8, -0.0));
        assert_eq!(plus.power(), minus.power());
        let idle = CpuState::RampingIdle {
            from: Freq::from_mhz(30),
            to: Freq::from_mhz(100),
        };
        let mut table = PowerTable::default();
        table.adopt(plus.power());
        check(&mut table, &plus, idle);
        table.adopt(minus.power());
        check(&mut table, &minus, idle);
        // Re-adopting the same model keeps what was computed.
        table.adopt(minus.power());
        assert!(table.slots.iter().flatten().any(|&(key, _)| key == idle));
    }
}
