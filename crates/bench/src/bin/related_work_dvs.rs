//! Related-work experiment: the §2.2 dynamic-priority DVS algorithms.
//!
//! The paper dismisses the AVR heuristic (Yao et al.) for the same reason
//! it dismisses static schedules: "average-rate requirements are computed
//! statically with fixed numbers of execution cycles, \[so\] the same
//! problem occurs when variations of execution time exist." This
//! experiment makes that argument quantitative in Yao's own idealized
//! model (continuous speeds, free transitions, free idle):
//!
//! * **edf@1** — race-to-idle at full speed;
//! * **avr** — the Average Rate heuristic (WCET-based densities);
//! * **yds-wcet** — the optimal *offline* schedule against WCETs
//!   (clairvoyant about arrivals, pessimistic about work);
//! * **yds-real** — the optimal schedule against the *realized* work: a
//!   clairvoyant lower bound no online policy can beat.
//!
//! As BCET shrinks, `avr` and `yds-wcet` barely move (they budget WCETs)
//! while `yds-real` keeps falling — the gap is exactly the dynamic slack
//! that run-time reclamation (LPFPS, in the fixed-priority world) exists
//! to harvest.
//!
//! Usage: `cargo run --release --bin related_work_dvs [--json out.json]`

use lpfps_cpu::ladder::FrequencyLadder;
use lpfps_cpu::power::PowerModel;
use lpfps_edf::{
    simulate_edf, simulate_edf_full_speed, DiscreteSchedule, JobSet, SpeedProfile, YdsSchedule,
};
use lpfps_sweep::Cli;
use lpfps_tasks::exec::{AlwaysWcet, PaperGaussian};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use lpfps_workloads::applications;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct DvsCell {
    app: String,
    bcet_fraction: f64,
    edf_full: f64,
    avr: f64,
    yds_wcet: f64,
    yds_realized: f64,
}

/// A horizon that keeps the O(n^2)-per-round YDS runs fast even for INS.
fn edf_horizon(ts: &TaskSet) -> Dur {
    let max_period = ts.iter().map(|(_, t, _)| t.period()).max().unwrap();
    max_period * 2
}

fn main() {
    let parsed = Cli::new(
        "related_work_dvs",
        "SS2.2 dynamic-priority DVS baselines: EDF@1, AVR, YDS, discrete levels",
    )
    .json()
    .parse();
    let power = PowerModel::default();
    let mut cells = Vec::new();

    println!("Related-work DVS (idealized EDF model): energy, busy-time only\n");
    println!(
        "{:<16} {:>6} {:>11} {:>11} {:>11} {:>11}",
        "application", "bcet%", "edf@1", "avr", "yds-wcet", "yds-real"
    );
    for ts in applications() {
        let horizon = edf_horizon(&ts);
        let wcet_jobs = JobSet::from_taskset(&ts, horizon, &AlwaysWcet, 0);
        let yds_wcet = YdsSchedule::compute(&wcet_jobs).energy(&power);
        for frac in [0.2, 0.6, 1.0] {
            let scaled = ts.with_bcet_fraction(frac);
            let real_jobs = JobSet::from_taskset(&scaled, horizon, &PaperGaussian, 1);

            let edf_full = simulate_edf_full_speed(&real_jobs, &power);
            assert_eq!(edf_full.misses, 0, "{} edf@1", ts.name());

            // AVR's *speeds* come from the WCET windows (the heuristic is
            // static in its rates); the *work* executed is the realized one.
            let avr_profile = SpeedProfile::avr(&wcet_jobs);
            let avr = simulate_edf(&real_jobs, &avr_profile, &power);
            assert_eq!(avr.misses, 0, "{} avr", ts.name());

            let yds_real = YdsSchedule::compute(&real_jobs).energy(&power);

            println!(
                "{:<16} {:>6.0} {:>11.6} {:>11.6} {:>11.6} {:>11.6}",
                ts.name(),
                frac * 100.0,
                edf_full.energy,
                avr.energy,
                yds_wcet,
                yds_real
            );
            // Ordering invariants of the model.
            assert!(
                yds_real <= avr.energy + 1e-9,
                "{}: optimal must win",
                ts.name()
            );
            assert!(
                avr.energy <= edf_full.energy + 1e-9,
                "{}: avr beats racing",
                ts.name()
            );
            cells.push(DvsCell {
                app: ts.name().into(),
                bcet_fraction: frac,
                edf_full: edf_full.energy,
                avr: avr.energy,
                yds_wcet,
                yds_realized: yds_real,
            });
        }
        println!();
    }

    // The §2.2 argument, asserted: the clairvoyant optimum improves
    // markedly as variation grows, while AVR barely moves.
    for ts in applications() {
        let get = |frac: f64, f: fn(&DvsCell) -> f64| {
            cells
                .iter()
                .find(|c| c.app == ts.name() && (c.bcet_fraction - frac).abs() < 1e-9)
                .map(f)
                .unwrap()
        };
        let avr_drop = 1.0 - get(0.2, |c| c.avr) / get(1.0, |c| c.avr);
        let yds_drop = 1.0 - get(0.2, |c| c.yds_realized) / get(1.0, |c| c.yds_realized);
        println!(
            "{:<16} energy drop from BCET 100% -> 20%: avr {:>5.1}%  yds-real {:>5.1}%",
            ts.name(),
            avr_drop * 100.0,
            yds_drop * 100.0
        );
        assert!(
            yds_drop > avr_drop + 0.05,
            "{}: the clairvoyant optimum should exploit variation far better than AVR",
            ts.name()
        );
    }
    // Reference [16] (Ishihara & Yasuura): the price of discrete voltage
    // levels, and how the two-adjacent-levels theorem erases most of it.
    println!("\nDiscrete-voltage realization of the optimal schedule (ref. [16]):");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "application", "continuous", "1MHz split", "20MHz split", "20MHz round"
    );
    let reference = Freq::from_mhz(100);
    let fine = FrequencyLadder::default();
    let coarse = FrequencyLadder::new(Freq::from_mhz(20), Freq::from_mhz(100), Freq::from_mhz(20));
    for ts in applications() {
        let horizon = edf_horizon(&ts);
        let jobs = JobSet::from_taskset(&ts, horizon, &AlwaysWcet, 0);
        let sched = YdsSchedule::compute(&jobs);
        let continuous = sched.energy(&power);
        let fine_split = DiscreteSchedule::realize(&sched, &fine, reference).energy(&power);
        let coarse_split = DiscreteSchedule::realize(&sched, &coarse, reference).energy(&power);
        let coarse_round = DiscreteSchedule::round_up_energy(&sched, &coarse, reference, &power);
        println!(
            "{:<16} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            ts.name(),
            continuous,
            fine_split,
            coarse_split,
            coarse_round
        );
        assert!(continuous <= fine_split + 1e-12);
        assert!(fine_split <= coarse_split + 1e-12);
        assert!(coarse_split <= coarse_round + 1e-12);
    }
    println!("continuous <= fine split <= coarse split <= coarse round-up: the");
    println!("two-adjacent-levels theorem recovers most of what coarse ladders lose.");

    println!("\nAVR's static rates leave the dynamic slack on the table — the gap");
    println!("run-time reclamation (LPFPS) exists to harvest.");
    parsed.write_json(&cells);
}
