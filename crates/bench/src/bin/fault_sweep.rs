//! Robustness experiment: degradation curves under WCET-overrun faults.
//!
//! Theorem 1 (and every DVS slow-down built on it) assumes jobs never
//! exceed their WCET budget. This sweep measures what happens when they
//! do: a grid of overrun probability × policy on a mid-slack workload
//! where plain FPS has enough headroom to absorb bounded overruns at full
//! speed, but vanilla LPFPS has stretched the active job onto the
//! critical path — so the unbudgeted excess lands after the planned
//! completion bound and deadlines fall. LPFPS with the safety watchdog
//! reverts to full speed on each budget overrun and rides out a cooldown
//! before trusting slow-down again, which restores FPS-grade robustness
//! while keeping the DVS savings between fault bursts.
//!
//! Usage: `cargo run --release --bin fault_sweep -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_sweep::{run_sweep, Cell, CellResult, Cli, ExecKind, SweepSpec};
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use serde::Serialize;

/// Per-job overrun probabilities swept (0.0 = the idealized fault-free
/// kernel, the control column).
const PROBABILITIES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Mean extra demand of a firing overrun, as a fraction of the WCET.
const MAGNITUDE: f64 = 0.5;

/// Total demand cap as a multiple of WCET. At 1.5× the inflated
/// utilization is 0.9 — still feasible at full speed for this harmonic
/// set (RM bound 1.0), so every miss below is a *policy* failure, not an
/// overload.
const CLAMP: f64 = 1.5;

/// Seed of the fault coin-flip streams (independent of the cell seed).
const FAULT_SEED: u64 = 21;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
];

/// One aggregated grid point: a (probability, policy) pair averaged over
/// the seed list.
#[derive(Debug, Serialize)]
struct FaultPoint {
    probability: f64,
    policy: String,
    seeds: usize,
    /// Overruns injected across all seeds (identical streams per policy).
    overruns: u64,
    /// Deadline misses across all seeds.
    misses: usize,
    /// Watchdog degradations engaged across all seeds.
    degradations: u64,
    /// Mean normalized power across seeds.
    average_power: f64,
}

/// Everything `--json` persists: the aggregated curves plus the raw
/// per-cell results (with their typed `status` fields).
#[derive(Debug, Serialize)]
struct FaultSweepJson {
    points: Vec<FaultPoint>,
    cells: Vec<CellResult>,
}

/// Mid-slack harmonic set (U = 0.6): enough headroom that FPS absorbs
/// clamped overruns, enough idle time that LPFPS slows down aggressively.
fn workload() -> TaskSet {
    TaskSet::rate_monotonic(
        "midslack",
        vec![
            Task::new("a", Dur::from_us(100), Dur::from_us(20)),
            Task::new("b", Dur::from_us(200), Dur::from_us(40)),
            Task::new("c", Dur::from_us(400), Dur::from_us(80)),
        ],
    )
}

fn faults_at(probability: f64) -> FaultConfig {
    if probability == 0.0 {
        FaultConfig::none()
    } else {
        FaultConfig::none()
            .with_seed(FAULT_SEED)
            .with_overrun(OverrunFault::clamped(probability, MAGNITUDE, CLAMP))
    }
}

fn main() {
    let parsed = Cli::new(
        "fault_sweep",
        "degradation curves: overrun probability × policy, vanilla LPFPS vs watchdog",
    )
    .sweep()
    .default_seeds(1)
    .parse();
    let seeds = parsed.seed_list();

    let ts = workload();
    let mut spec = SweepSpec::new("fault_sweep");
    for &probability in &PROBABILITIES {
        for policy in POLICIES {
            for &seed in &seeds {
                spec.push(
                    Cell::new(ts.clone(), CpuSpec::arm8(), policy)
                        .with_exec(ExecKind::AlwaysWcet)
                        .with_seed(seed)
                        .with_horizon(Dur::from_ms(20))
                        .with_faults(faults_at(probability)),
                );
            }
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());
    assert!(outcome.all_ok(), "fault_sweep cells must all complete");

    println!(
        "Fault sweep: WCET overruns (mean +{:.0}% of WCET, clamped at {CLAMP}x)",
        MAGNITUDE * 100.0
    );
    println!("workload {ts}");
    println!();
    println!(
        "{:>6} {:>10} | {:>8} {:>8} {:>8} {:>10}",
        "p", "policy", "overruns", "misses", "degrade", "power"
    );
    let mut points = Vec::new();
    let per_policy = seeds.len();
    let per_prob = POLICIES.len() * per_policy;
    for (pi, &probability) in PROBABILITIES.iter().enumerate() {
        for (li, policy) in POLICIES.iter().enumerate() {
            let base = pi * per_prob + li * per_policy;
            let mut overruns = 0;
            let mut misses = 0;
            let mut degradations = 0;
            let mut power = 0.0;
            for s in 0..per_policy {
                let r = &outcome.results[base + s];
                let report = outcome.report(base + s).expect("cell completed");
                overruns += report.counters.overruns;
                misses += r.misses;
                degradations += r.degradations;
                power += r.average_power;
            }
            let average_power = power / per_policy as f64;
            println!(
                "{probability:>6.2} {:>10} | {overruns:>8} {misses:>8} {degradations:>8} {average_power:>10.4}",
                policy.name()
            );
            points.push(FaultPoint {
                probability,
                policy: policy.name().to_string(),
                seeds: per_policy,
                overruns,
                misses,
                degradations,
                average_power,
            });
        }
    }

    // The qualitative claims need the full horizon; a run at
    // `--horizon-scale` below 1 still exercises every cell but skips them.
    if parsed.horizon_scale >= 1.0 {
        fn by<'a>(
            points: &'a [FaultPoint],
            policy: &'a str,
        ) -> impl Iterator<Item = &'a FaultPoint> {
            points.iter().filter(move |p| p.policy == policy)
        }
        for p in &points {
            if p.probability == 0.0 {
                assert_eq!(p.overruns, 0, "{}: control column must be clean", p.policy);
                assert_eq!(p.misses, 0, "{}: control column must be clean", p.policy);
                assert_eq!(p.degradations, 0, "{}: watchdog must stay silent", p.policy);
            } else {
                assert!(p.overruns > 0, "{}: faults must inject at p>0", p.policy);
            }
        }
        // FPS has the headroom to absorb clamped overruns at full speed...
        assert!(
            by(&points, "fps").all(|p| p.misses == 0),
            "fps must absorb overruns"
        );
        // ...vanilla LPFPS does not: its slow-down spent the very slack the
        // overruns need...
        assert!(
            by(&points, "lpfps").map(|p| p.misses).sum::<usize>() > 0,
            "vanilla LPFPS should miss under overruns"
        );
        // ...and the watchdog restores FPS-grade robustness.
        assert!(
            by(&points, "lpfps-wd").all(|p| p.misses == 0),
            "watchdog must recover every overrun"
        );
        assert!(
            by(&points, "lpfps-wd")
                .filter(|p| p.probability > 0.0)
                .all(|p| p.degradations > 0),
            "watchdog must engage under faults"
        );
        // Degradation costs energy: watchdog power sits between vanilla
        // LPFPS (oblivious) and FPS (always flat out) at the fault-free end.
        let power_at_zero = |policy: &str| {
            by(&points, policy)
                .find(|p| p.probability == 0.0)
                .expect("control column present")
                .average_power
        };
        assert!(power_at_zero("lpfps") < power_at_zero("fps"));
        assert_eq!(
            power_at_zero("lpfps"),
            power_at_zero("lpfps-wd"),
            "fault-free watchdog must cost nothing"
        );
        println!();
        println!("fps absorbs every clamped overrun; vanilla lpfps trades that slack");
        println!("for power and misses deadlines; lpfps-wd degrades to full speed on");
        println!("each budget overrun and misses nothing — at zero cost when fault-free.");
    }

    let payload = FaultSweepJson {
        points,
        cells: outcome.results.clone(),
    };
    parsed.emit(&payload, &spec, &outcome);
}
