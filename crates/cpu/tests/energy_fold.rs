//! `EnergyMeter::repeat_cycle` against the plain loop it replaces, bit for
//! bit: a recorded cycle of charges added `k` more times, in order, to the
//! total, the kind buckets and the per-task energies.
//!
//! The cases aim at the fold's edges: exact half-ulp ties (odd multiples
//! of half an ulp at the accumulator's exponent and the next few), charges
//! below half an ulp, ±0.0, subnormals, charges at least as large as the
//! accumulator, accumulators at 0, subnormal or a few ulps below a binade
//! top, and `k` from 0 up to 20,000.

use lpfps_cpu::energy::{Charge, EnergyMeter, FoldScratch};
use lpfps_cpu::state::{CpuState, StateKind};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::Dur;
use proptest::prelude::*;

/// `2^e` for `e` in `-1074..=1023`.
fn pow2(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// The exponent of `x`'s ulp (`-1074` for zero and the subnormals).
fn ulp_exp(x: f64) -> i32 {
    ((x.to_bits() >> 52) & 0x7ff).max(1) as i32 - 1075
}

/// A state of each kind, to charge a bucket through the public path.
fn state_of(kind: StateKind) -> CpuState {
    match kind {
        StateKind::Busy => CpuState::Busy(Freq::from_mhz(100)),
        StateKind::Ramping => CpuState::Ramping {
            from: Freq::from_mhz(50),
            to: Freq::from_mhz(100),
        },
        StateKind::IdleNop => CpuState::IdleNop,
        StateKind::PowerDown => CpuState::PowerDown { power_frac: 0.05 },
        StateKind::WakingUp => CpuState::WakingUp,
    }
}

/// An accumulator start: 0, a subnormal, a few ulps below a binade top,
/// or an ordinary value.
fn accumulator(sel: u8, raw: u64) -> f64 {
    match sel % 4 {
        0 => 0.0,
        1 => f64::from_bits(raw % (1 << 52)),
        2 => {
            let top = pow2((raw % 1_100) as i32 - 1_070);
            f64::from_bits(top.to_bits() - 1 - (raw >> 32) % 8)
        }
        _ => f64::from_bits(raw % (0x7fe << 52)),
    }
}

/// A charge relative to an accumulator whose ulp is `2^g`.
fn addend(sel: u8, raw: u64, g: i32, acc: f64) -> f64 {
    let small = raw % 16;
    let fraction = (raw >> 8) as f64 / (1u64 << 56) as f64;
    match sel % 8 {
        // An exact tie: an odd multiple of half an ulp at the exponent
        // `g` or one of the next three.
        0 | 1 => {
            let half = (g + (small % 4) as i32 - 1).max(-1074);
            (2 * (raw >> 4) % 16 + 1) as f64 * pow2(half)
        }
        // Below half an ulp.
        2 => pow2((g - 2 - (small as i32) * 4).max(-1074)) * (1.0 + fraction),
        3 => 0.0,
        4 => -0.0,
        5 => f64::from_bits(raw % (1 << 52) + 1),
        // At least as large as the accumulator.
        6 => (acc.max(pow2(-1074)) * (1.0 + small as f64 * fraction)).min(f64::MAX),
        // A few ulps and a fraction.
        _ => pow2(g.min(1_000)) * (small as f64 + fraction),
    }
}

/// The cycle count: 0, 1 or 2, or log-uniform up to 20,000.
fn cycles(sel: u8, raw: u64) -> u64 {
    match sel % 4 {
        0 => raw % 3,
        _ => {
            let magnitude = 1 + raw % 20_000;
            1 + (raw >> 20) % magnitude
        }
    }
}

/// Runs the fold and the plain loop from the same start and compares
/// every accumulator's bits.
fn check(
    meter_start: (StateKind, f64),
    task_start: &[f64],
    tape: &[Charge],
    k: u64,
) -> Result<(), TestCaseError> {
    let mut meter = EnergyMeter::new();
    let (kind, energy) = meter_start;
    // One second at `energy` power charges exactly `energy`.
    meter.accumulate_with_power(state_of(kind), energy, Dur::from_secs(1));
    let mut total = meter.total_energy();
    let mut buckets = StateKind::ALL.map(|kind| meter.bucket(kind).energy);
    let mut tasks = task_start.to_vec();
    for _ in 0..k {
        for c in tape {
            total += c.energy;
            buckets[c.kind as usize] += c.energy;
            if let Some(t) = tasks.get_mut(c.task as usize) {
                *t += c.energy;
            }
        }
    }
    let residency = meter.total_residency();
    let mut task_energy = task_start.to_vec();
    meter.repeat_cycle(&mut task_energy, tape, k, &mut FoldScratch::default());
    prop_assert_eq!(meter.total_energy().to_bits(), total.to_bits());
    for kind in StateKind::ALL {
        prop_assert_eq!(
            meter.bucket(kind).energy.to_bits(),
            buckets[kind as usize].to_bits(),
            "bucket {:?}",
            kind
        );
    }
    for (got, want) in task_energy.iter().zip(&tasks) {
        prop_assert_eq!(got.to_bits(), want.to_bits(), "task energy");
    }
    prop_assert_eq!(meter.total_residency(), residency);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    #[test]
    fn repeat_cycle_matches_the_plain_loop_bit_for_bit(
        acc in (0u8..4, 0u64..=u64::MAX),
        second_acc in (0u8..4, 0u64..=u64::MAX),
        meter_sel in (0u8..4, 0u64..=u64::MAX, 0usize..5),
        charges in proptest::collection::vec((0u8..8, 0u64..=u64::MAX, 0usize..5, 0u32..3), 1..12),
        k in (0u8..4, 0u64..=u64::MAX),
    ) {
        let a = accumulator(acc.0, acc.1);
        let g = ulp_exp(a);
        let tape: Vec<Charge> = charges
            .iter()
            .map(|&(sel, raw, kind, task)| Charge {
                energy: addend(sel, raw, g, a),
                // Task 2 is out of range: the charge feeds no task.
                task: if task == 2 { Charge::NO_TASK } else { task },
                kind: StateKind::ALL[kind],
            })
            .collect();
        let meter_start = (StateKind::ALL[meter_sel.2], accumulator(meter_sel.0, meter_sel.1));
        let task_start = [a, accumulator(second_acc.0, second_acc.1)];
        check(meter_start, &task_start, &tape, cycles(k.0, k.1))?;
    }
}

/// Charges of `energy`, each to the idle bucket and task 0.
fn idle_tape(energies: &[f64]) -> Vec<Charge> {
    energies
        .iter()
        .map(|&energy| Charge {
            energy,
            task: 0,
            kind: StateKind::IdleNop,
        })
        .collect()
}

/// An exact half-ulp tie at 1.0 rounds to even, so it adds nothing to 1.0
/// and rounds 1.0 + 1 ulp up by one ulp: the two parity lanes differ.
#[test]
fn ties_round_to_even_from_either_parity() {
    let half_ulp = pow2(-53);
    for start in [1.0, 1.0 + pow2(-52), 1.5 - pow2(-52)] {
        for k in [1, 2, 3, 1_000, 1_001] {
            let tape = idle_tape(&[half_ulp, pow2(-52), half_ulp]);
            check((StateKind::Busy, 0.0), &[start], &tape, k).unwrap();
        }
    }
}

/// Every way to walk the last few ulps below a binade top: accumulators
/// 1 to 8 ulps short of 2.0, cycles adding fractions of an ulp, ties and
/// whole ulps, and every `k` up to 12, so a jump may end anywhere next to
/// the top.
#[test]
fn jumps_end_next_to_a_binade_top() {
    let u = pow2(-52);
    let patterns: [&[f64]; 6] = [
        &[0.75 * u],
        &[0.5 * u],
        &[0.5 * u, 0.5 * u],
        &[1.5 * u],
        &[u, 0.5 * u],
        &[0.7 * u, 0.7 * u, 0.25 * u],
    ];
    for below in 1..=8 {
        let start = f64::from_bits(2.0f64.to_bits() - below);
        for energies in patterns {
            for k in 0..=12 {
                check((StateKind::Busy, start), &[start], &idle_tape(energies), k).unwrap();
            }
        }
    }
}

/// Every cycle crosses a binade at some point when the cycle's sum is
/// comparable to the accumulator, and the energies of a real cycle are
/// a mix of magnitudes.
#[test]
fn long_folds_cross_many_binades() {
    let tape = idle_tape(&[1.25e-4, 3.0e-9, 2.5e-5, 7.0e-12, 1.0e-3]);
    for k in [0, 1, 2, 48, 1_000, 1_001, 20_000] {
        check((StateKind::PowerDown, 3.0e-3), &[0.0, 1.0e-300], &tape, k).unwrap();
    }
}

/// Non-finite accumulators and charges absorb every later addition.
#[test]
fn infinite_values_stay_put() {
    let tape = idle_tape(&[1.0, f64::MAX]);
    check((StateKind::Busy, f64::MAX), &[f64::INFINITY], &tape, 10).unwrap();
}

/// An empty tape or `k = 0` leaves every accumulator's bits alone, -0.0
/// included.
#[test]
fn nothing_to_add_changes_no_bits() {
    check((StateKind::Busy, 0.5), &[-0.0, 3.0], &[], 7).unwrap();
    check((StateKind::Busy, 0.5), &[-0.0], &idle_tape(&[-0.0, 0.0]), 0).unwrap();
    check((StateKind::Busy, 0.5), &[-0.0], &idle_tape(&[-0.0]), 5).unwrap();
}
