//! The shared sweep CLI's flag contract, checked on the built binaries:
//! `--cores`, `--partitioner`, `--seeds` and the sweep flags are accepted
//! only by the binaries that act on them (elsewhere they exit 2 before
//! any simulation runs), every sweep binary honors `--trace-out` and
//! `--hist` and runs at short horizons, `--check` audits sampled cells,
//! `simulate --trace-out` writes the committed Perfetto golden, and
//! out-of-range `simulate` values are usage errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    run(bin, args).status.code()
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

/// A per-process temporary path for `bin`'s output with extension `ext`.
fn tmp_path(bin: &str, ext: &str) -> PathBuf {
    let name = Path::new(bin).file_stem().unwrap().to_str().unwrap();
    let file = format!("lpfps_{}_{name}.{ext}", std::process::id());
    std::env::temp_dir().join(file)
}

/// Reads and deletes a file a binary wrote.
fn take(path: &Path) -> String {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} was not written: {e}", path.display()));
    std::fs::remove_file(path).ok();
    body
}

#[test]
fn bad_multicore_flag_values_exit_2() {
    let bin = env!("CARGO_BIN_EXE_multicore_sweep");
    for args in [
        ["--cores", "0"],
        ["--cores", "x"],
        ["--partitioner", "bogus"],
    ] {
        assert_eq!(exit_code(bin, &args), Some(2), "multicore_sweep {args:?}");
    }
}

#[test]
fn other_binaries_reject_the_multicore_flags() {
    let bin = env!("CARGO_BIN_EXE_fig8_power");
    for args in [["--cores", "4"], ["--partitioner", "ffd"]] {
        assert_eq!(exit_code(bin, &args), Some(2), "fig8_power {args:?}");
    }
}

/// `--seeds` is declared only by the binaries that sweep seeds
/// (`fig8_power`, `fault_sweep`); elsewhere it would change nothing.
#[test]
fn binaries_without_a_seed_sweep_reject_seeds() {
    let bin = env!("CARGO_BIN_EXE_ablation_policies");
    assert_eq!(exit_code(bin, &["--seeds", "2"]), Some(2));
}

/// The five table binaries compute their tables without a sweep, so the
/// sweep flags would change nothing there: each is an unknown flag (exit
/// 2) and absent from the usage text. `fig2_schedule` writes only stdout,
/// so it rejects `--json` too.
#[test]
fn table_binaries_reject_the_sweep_flags() {
    let sweep_flags: [&[&str]; 6] = [
        &["--threads", "3"],
        &["--check", "2"],
        &["--hist"],
        &["--metrics", "m.json"],
        &["--horizon-scale", "0.5"],
        &["--trace-out", "t.json"],
    ];
    let fig2_json: &[&str] = &["--json", "out.json"];
    for (bin, extra) in [
        (env!("CARGO_BIN_EXE_fig1_bcet_ratio"), None),
        (env!("CARGO_BIN_EXE_fig2_schedule"), Some(fig2_json)),
        (env!("CARGO_BIN_EXE_fig7_ratio"), None),
        (env!("CARGO_BIN_EXE_table2_summary"), None),
        (env!("CARGO_BIN_EXE_related_work_dvs"), None),
    ] {
        let help = run(bin, &["--help"]);
        assert_eq!(help.status.code(), Some(0), "{bin} --help");
        let usage = String::from_utf8_lossy(&help.stdout);
        for args in sweep_flags.into_iter().chain(extra) {
            let out = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let unknown = format!("unknown flag `{}`", args[0]);
            assert!(stderr.contains(&unknown), "{bin} {args:?}: {stderr}");
            assert!(!usage.contains(args[0]), "{bin} --help lists {}", args[0]);
        }
    }
}

/// `--gantt 0` used to reach the assertion in `Gantt::render` and
/// `--bcet 0` the one in `Cell::with_bcet_fraction` (exit 101), and a
/// `--horizon-ms` past `u64` nanoseconds wrapped to a short horizon; all
/// are usage errors.
#[test]
fn simulate_rejects_zero_gantt_and_bcet() {
    let bin = env!("CARGO_BIN_EXE_simulate");
    for (args, message) in [
        (
            ["--gantt", "0"],
            "positive number of microseconds per column",
        ),
        (["--bcet", "0"], "fraction in (0, 1]"),
        (["--bcet", "1.5"], "fraction in (0, 1]"),
        (
            ["--horizon-ms", "18446744073710"],
            "takes at most 18446744073709 milliseconds",
        ),
    ] {
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "simulate {args:?}: {stderr}");
        assert!(stderr.contains(message), "simulate {args:?}: {stderr}");
    }
}

/// `--trace-out` writes a Perfetto file that validates, and `--hist`
/// wraps the `--json` results in a `histograms` block.
#[test]
fn every_sweep_binary_honors_trace_out() {
    let bin = env!("CARGO_BIN_EXE_ablation_policies");
    let (trace, json) = (tmp_path(bin, "perfetto.json"), tmp_path(bin, "json"));
    let args = [
        "--quiet",
        "--hist",
        "--trace-out",
        trace.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ];
    assert_eq!(exit_code(bin, &args), Some(0), "{bin} {args:?}");
    lpfps_obs::validate_chrome_trace(&take(&trace)).expect("the exported trace validates");
    let doc: serde_json::Value = serde_json::from_str(&take(&json)).expect("--json is JSON");
    let responses = doc
        .get("histograms")
        .and_then(|h| h.get("response_ns"))
        .and_then(|r| r.get("count"))
        .and_then(serde_json::Value::as_u64);
    assert!(
        responses.is_some_and(|n| n > 0),
        "--hist --json must carry a histograms block with response_ns samples, got {responses:?}"
    );
}

/// `--check N` re-runs N sampled cells traced through the invariant
/// checker, which panics on a violation: exit 0 is the check.
#[test]
fn check_audits_sampled_cells() {
    let bin = env!("CARGO_BIN_EXE_fig8_power");
    let args = [
        "--quiet",
        "--seeds",
        "1",
        "--horizon-scale",
        "0.25",
        "--check",
        "4",
    ];
    assert_eq!(exit_code(bin, &args), Some(0), "fig8_power {args:?}");
}

/// Every sweep binary (`Cli::sweep`) finishes a short smoke run: the
/// policy orderings the binaries assert need the full horizon, so below
/// `--horizon-scale 1` they are skipped and only the deadline-miss and
/// soundness checks run. At 0.05 and 0.01 LPFPS does not beat FPS at
/// every BCET fraction of every set, FPS power need not grow with
/// utilization, and a costlier scheduler can burn less.
#[test]
fn every_sweep_binary_runs_at_short_horizons() {
    let sweep_binaries = [
        env!("CARGO_BIN_EXE_ablation_ladder"),
        env!("CARGO_BIN_EXE_ablation_overhead"),
        env!("CARGO_BIN_EXE_ablation_policies"),
        env!("CARGO_BIN_EXE_ablation_ratio"),
        env!("CARGO_BIN_EXE_ablation_shutdown"),
        env!("CARGO_BIN_EXE_ablation_sleep_modes"),
        env!("CARGO_BIN_EXE_ablation_tick"),
        env!("CARGO_BIN_EXE_fault_sweep"),
        env!("CARGO_BIN_EXE_fig8_power"),
        env!("CARGO_BIN_EXE_fp_vs_edf"),
        env!("CARGO_BIN_EXE_multicore_sweep"),
        env!("CARGO_BIN_EXE_simulate"),
        env!("CARGO_BIN_EXE_sweep_utilization"),
        env!("CARGO_BIN_EXE_tradeoff_scheduler"),
    ];
    let mut failed = Vec::new();
    for bin in sweep_binaries {
        for scale in ["0.05", "0.01"] {
            let args = ["--quiet", "--horizon-scale", scale];
            let code = exit_code(bin, &args);
            if code != Some(0) {
                failed.push(format!("{bin} {args:?}: exit {code:?}"));
            }
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// The committed Perfetto golden regenerates from one `simulate` command:
/// Table 1 under LPFPS at BCET = 50 %, seed 42, half the default 800 µs
/// horizon.
#[test]
fn simulate_trace_out_regenerates_the_fig2_golden() {
    let bin = env!("CARGO_BIN_EXE_simulate");
    let trace = tmp_path(bin, "perfetto.json");
    let args = [
        "--seed",
        "42",
        "--horizon-scale",
        "0.5",
        "--quiet",
        "--trace-out",
        trace.to_str().unwrap(),
    ];
    assert_eq!(exit_code(bin, &args), Some(0), "simulate {args:?}");
    let golden = include_str!("../../../results/fig2_trace.perfetto.json");
    assert!(
        take(&trace) == golden,
        "simulate --trace-out no longer reproduces results/fig2_trace.perfetto.json"
    );
}
