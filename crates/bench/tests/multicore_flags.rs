//! `--cores` and `--partitioner` are `multicore_sweep`'s own flags: a bad
//! value exits 2 before any simulation runs, and the shared sweep CLI of
//! every other binary rejects them as unknown flags.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
        .status
        .code()
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
