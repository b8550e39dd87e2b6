//! The shared sweep CLI's flag contract, checked on the built binaries:
//! `--cores`, `--partitioner` and `--seeds` are accepted only by the
//! binaries that act on them (elsewhere they exit 2 before any
//! simulation runs), and every sweep binary honors `--trace-out`.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
        .status
        .code()
}

/// Runs `bin` with `args` followed by `--trace-out <tmp>` and returns the
/// exported file.
fn trace_out(bin: &str, args: &[&str]) -> String {
    let name = std::path::Path::new(bin)
        .file_stem()
        .unwrap()
        .to_str()
        .unwrap();
    let file = format!("lpfps_{}_{name}.perfetto.json", std::process::id());
    let path = std::env::temp_dir().join(file);
    let out = path.to_str().unwrap();
    let code = exit_code(bin, &[args, &["--trace-out", out]].concat());
    assert_eq!(code, Some(0), "{bin} {args:?} --trace-out");
    let json = std::fs::read_to_string(&path).expect("--trace-out wrote its file");
    std::fs::remove_file(&path).ok();
    json
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

#[test]
fn every_sweep_binary_honors_trace_out() {
    let json = trace_out(env!("CARGO_BIN_EXE_ablation_policies"), &["--quiet"]);
    lpfps_obs::validate_chrome_trace(&json).expect("the exported trace validates");
}

/// The committed Perfetto golden regenerates from one `simulate` command:
/// Table 1 under LPFPS at BCET = 50 %, seed 42, half the default 800 µs
/// horizon.
#[test]
fn simulate_trace_out_regenerates_the_fig2_golden() {
    let args = ["--seed", "42", "--horizon-scale", "0.5", "--quiet"];
    let fresh = trace_out(env!("CARGO_BIN_EXE_simulate"), &args);
    let golden = include_str!("../../../results/fig2_trace.perfetto.json");
    assert!(
        fresh == golden,
        "simulate --trace-out no longer reproduces results/fig2_trace.perfetto.json"
    );
}
