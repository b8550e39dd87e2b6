//! # lpfps-bench
//!
//! The experiment harness: one binary per table/figure of the paper plus
//! extension ablations. The simulator's benchmark is the separate
//! `perfbench` package (see `BENCHMARK.json`).
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `fig1_bcet_ratio`     | Figure 1 — BCET/WCET ratios |
//! | `fig2_schedule`       | Figures 2, 3, 5 — Table 1 schedules and queue snapshots |
//! | `table2_summary`      | Table 2 — workload summary |
//! | `fig7_ratio`          | Figure 7 — optimal vs heuristic ratio |
//! | `fig8_power`          | Figure 8 — average power, FPS vs LPFPS, four apps (`--svg`: the panels as SVG charts) |
//! | `ablation_policies`   | power-down-only / DVS-only / static slowdown split |
//! | `ablation_ratio`      | heuristic vs optimal ratio energy |
//! | `ablation_shutdown`   | exact vs timeout power-down (+ idle-gap stats) |
//! | `ablation_overhead`   | context-switch cost vs RTA admission |
//! | `ablation_sleep_modes`| multi-level sleep-mode selection |
//! | `ablation_ladder`     | frequency-ladder granularity |
//! | `ablation_tick`       | tick-driven kernel vs jitter-aware RTA |
//! | `tradeoff_scheduler`  | the paper's §5 future-work trade-off, carried out |
//! | `related_work_dvs`    | §2.2 baselines: EDF@1, AVR, YDS, Ishihara–Yasuura |
//! | `sweep_utilization`   | synthetic UUniFast utilization sweep |
//! | `multicore_sweep`     | partitioned fleets: cores × partitioner × policy |
//! | `fault_sweep`         | degradation curves under WCET-overrun faults |
//! | `fp_vs_edf`           | fixed-priority vs EDF through the shared kernel |
//! | `simulate`            | ad-hoc CLI (named apps or `--taskset file.json`) |
//!
//! Each binary prints a human-readable table to stdout and asserts its own
//! qualitative claims. Simulation grids are declared as
//! [`lpfps_sweep::SweepSpec`]s and executed by the multi-threaded
//! [`lpfps_sweep::run_sweep`] runner; every binary shares the
//! [`lpfps_sweep::Cli`] flags (`--json`, `--metrics`, `--threads`,
//! `--horizon-scale`, `--trace-out`, `--quiet`, … — see `README.md`;
//! `--seeds` only where the experiment sweeps seeds), so `--json <path>`
//! emits machine-readable results for EXPERIMENTS.md regeneration and
//! unknown flags are hard errors everywhere.

pub mod chart;
pub mod fingerprint;
pub mod golden;

use lpfps_sweep::CellResult;
use serde::Serialize;

/// The BCET/WCET fractions swept in Figure 8 (10 % steps).
pub const BCET_FRACTIONS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// One measured cell of a power experiment, possibly aggregated across
/// seeds (the Figure-8 table averages power over the seed list).
#[derive(Debug, Clone, Serialize)]
pub struct PowerCell {
    /// Application name.
    pub app: String,
    /// Scheduling policy.
    pub policy: String,
    /// BCET as a fraction of WCET.
    pub bcet_fraction: f64,
    /// Average normalized power (1.0 = flat-out busy processor).
    pub average_power: f64,
    /// Deadline misses observed (must be zero).
    pub misses: usize,
}

impl PowerCell {
    /// Averages power (and sums misses) over one `(app, policy, fraction)`
    /// group of per-seed results.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or mixes apps/policies/fractions.
    pub fn mean_over_seeds(group: &[&CellResult]) -> Self {
        let first = group.first().expect("non-empty seed group");
        assert!(
            group.iter().all(|r| r.app == first.app
                && r.policy == first.policy
                && r.bcet_fraction == first.bcet_fraction),
            "seed group must share (app, policy, fraction)"
        );
        PowerCell {
            app: first.app.clone(),
            policy: first.policy.clone(),
            bcet_fraction: first.bcet_fraction,
            average_power: group.iter().map(|r| r.average_power).sum::<f64>() / group.len() as f64,
            misses: group.iter().map(|r| r.misses).sum(),
        }
    }
}

/// Formats a Figure-8-style table: one row per BCET fraction, one column
/// pair (power, reduction vs the first policy) per policy.
pub fn render_power_table(app: &str, policies: &[&str], cells: &[PowerCell]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== {app} ==");
    let _ = write!(out, "{:>6}", "bcet%");
    for p in policies {
        let _ = write!(out, " {p:>11}");
    }
    let _ = writeln!(out, " {:>11}", "reduction");
    for &frac in BCET_FRACTIONS.iter() {
        let row: Vec<&PowerCell> = policies
            .iter()
            .map(|p| {
                cells
                    .iter()
                    .find(|c| {
                        c.app == app && &c.policy == p && (c.bcet_fraction - frac).abs() < 1e-9
                    })
                    .unwrap_or_else(|| panic!("missing cell {app}/{p}/{frac}"))
            })
            .collect();
        let _ = write!(out, "{:>6.0}", frac * 100.0);
        for c in &row {
            let _ = write!(out, " {:>11.4}", c.average_power);
        }
        let red = 1.0 - row.last().unwrap().average_power / row[0].average_power;
        let _ = writeln!(out, " {:>10.1}%", red * 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps::driver::PolicyKind;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_sweep::{run_sweep, ExecKind, RunOptions, SweepSpec};

    fn cells_for(policies: &[PolicyKind], fractions: &[f64], seed: u64) -> Vec<CellResult> {
        let ts = lpfps_workloads::table1();
        let spec = SweepSpec::grid(
            "bench-test",
            std::slice::from_ref(&ts),
            &CpuSpec::arm8(),
            policies,
            fractions,
            &[seed],
            ExecKind::PaperGaussian,
        );
        run_sweep(&spec, &RunOptions::serial()).results
    }

    #[test]
    fn power_cell_from_result_checks_out() {
        let results = cells_for(&[PolicyKind::Fps], &[1.0], 0);
        let cell = PowerCell::mean_over_seeds(&[&results[0]]);
        assert_eq!(cell.app, "table1");
        assert_eq!(cell.policy, "fps");
        assert_eq!(cell.average_power, results[0].average_power);
        assert!(cell.average_power > 0.5 && cell.average_power <= 1.0);
        assert_eq!(cell.misses, 0);
    }

    #[test]
    fn mean_over_seeds_averages_power_and_sums_misses() {
        let ts = lpfps_workloads::table1();
        let spec = SweepSpec::grid(
            "bench-test",
            std::slice::from_ref(&ts),
            &CpuSpec::arm8(),
            &[PolicyKind::Lpfps],
            &[0.5],
            &[0, 1, 2],
            ExecKind::PaperGaussian,
        );
        let results = run_sweep(&spec, &RunOptions::serial()).results;
        let group: Vec<&CellResult> = results.iter().collect();
        let mean = PowerCell::mean_over_seeds(&group);
        let expected = results.iter().map(|r| r.average_power).sum::<f64>() / results.len() as f64;
        assert!((mean.average_power - expected).abs() < 1e-12);
        assert_eq!(mean.misses, 0);
    }

    #[test]
    fn table_renderer_includes_all_fractions() {
        let cells: Vec<PowerCell> =
            cells_for(&[PolicyKind::Fps, PolicyKind::Lpfps], &BCET_FRACTIONS, 1)
                .iter()
                .map(|r| PowerCell::mean_over_seeds(&[r]))
                .collect();
        let table = render_power_table("table1", &["fps", "lpfps"], &cells);
        assert!(table.contains("== table1 =="));
        assert_eq!(table.lines().count(), 2 + BCET_FRACTIONS.len());
    }
}
