//! Every file under `results/` regenerates from one row of [`ROWS`].
//!
//! A row names a binary, its arguments and the committed files it
//! writes. A file's name says which output it is:
//!
//! * `.txt` is stdout;
//! * `.perfetto.json` is `--trace-out`;
//! * any other `.json` is `--json`;
//! * `.svg` is a panel `fig8_power --svg <dir>` writes into `<dir>`.
//!
//! The test runs every row with `--quiet` and temporary output paths and
//! requires exit 0, so each binary's own claim `assert!`s run here too.
//! It then compares every output with the committed bytes. It checks
//! every row before failing, and for each file that differs it prints the
//! first differing line and the command that rewrites the file.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// One binary run and the committed files it writes.
struct Row {
    bin: &'static str,
    exe: &'static str,
    args: &'static [&'static str],
    files: &'static [&'static str],
}

macro_rules! row {
    ($bin:ident, [$($arg:literal),*], [$($file:literal),+ $(,)?]) => {
        Row {
            bin: stringify!($bin),
            exe: env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            args: &[$($arg),*],
            files: &[$($file),+],
        }
    };
}

/// One row per binary, sorted by binary name.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    row!(ablation_ladder, [], ["ablation_ladder.json", "ablation_ladder.txt"]),
    row!(ablation_overhead, [], ["ablation_overhead.json", "ablation_overhead.txt"]),
    row!(ablation_policies, [], ["ablation_policies.json", "ablation_policies.txt"]),
    row!(ablation_ratio, [], ["ablation_ratio.json", "ablation_ratio.txt"]),
    row!(ablation_shutdown, [], ["ablation_shutdown.json", "ablation_shutdown.txt"]),
    row!(ablation_sleep_modes, [], ["ablation_sleep_modes.json", "ablation_sleep_modes.txt"]),
    row!(ablation_tick, [], ["ablation_tick.json", "ablation_tick.txt"]),
    row!(fault_sweep, ["--seeds", "3"], ["fault_sweep.json", "fault_sweep.txt"]),
    row!(fig1_bcet_ratio, [], ["fig1_bcet_ratio.json", "fig1_bcet_ratio.txt"]),
    row!(fig2_schedule, [], ["fig2.txt"]),
    row!(fig7_ratio, [], ["fig7_ratio.json", "fig7_ratio.txt"]),
    row!(fig8_power, [], ["fig8_avionics.svg", "fig8_cnc.svg", "fig8_flight_control.svg", "fig8_ins.svg", "fig8_power.json", "fig8_power.txt"]),
    row!(fp_vs_edf, [], ["fp_vs_edf.json", "fp_vs_edf.txt"]),
    row!(multicore_sweep, [], ["multicore_sweep.json", "multicore_sweep.txt"]),
    row!(related_work_dvs, [], ["related_work_dvs.json", "related_work_dvs.txt"]),
    row!(simulate, ["--seed", "42", "--horizon-scale", "0.5"], ["fig2_trace.perfetto.json", "simulate.txt"]),
    row!(sweep_utilization, [], ["sweep_utilization.json", "sweep_utilization.txt"]),
    row!(table2_summary, [], ["table2_summary.json", "table2_summary.txt"]),
    row!(tradeoff_scheduler, [], ["tradeoff_scheduler.json", "tradeoff_scheduler.txt"]),
];

impl Row {
    /// The row's arguments with its outputs directed into `dir`, and the
    /// file its stdout is compared with, if any.
    fn command_line(&self, dir: &str) -> (Vec<String>, Option<&'static str>) {
        let mut args: Vec<String> = self.args.iter().map(|a| a.to_string()).collect();
        args.push("--quiet".into());
        let mut stdout = None;
        let mut svg = false;
        for &file in self.files {
            let path = format!("{dir}/{file}");
            if file.ends_with(".txt") {
                stdout = Some(file);
            } else if file.ends_with(".perfetto.json") {
                args.extend(["--trace-out".into(), path]);
            } else if file.ends_with(".json") {
                args.extend(["--json".into(), path]);
            } else if file.ends_with(".svg") {
                svg = true;
            } else {
                panic!("{file}: no rule says which output of `{}` it is", self.bin);
            }
        }
        if svg {
            args.extend(["--svg".into(), dir.into()]);
        }
        (args, stdout)
    }

    /// The command that rewrites the row's committed files.
    fn regenerate(&self) -> String {
        let (args, stdout) = self.command_line("results");
        let redirect = stdout.map_or(String::new(), |f| format!(" > results/{f}"));
        format!(
            "cargo run --release --bin {} -- {}{redirect}",
            self.bin,
            args.join(" ")
        )
    }

    /// Runs the row with its outputs in `dir`. Returns each file's fresh
    /// bytes (`None` if the binary did not write it), or why the run
    /// failed.
    fn run(&self, dir: &Path) -> Result<Vec<Option<Vec<u8>>>, String> {
        std::fs::create_dir_all(dir).expect("create a temporary output directory");
        let (args, stdout_file) = self.command_line(dir.to_str().expect("UTF-8 temp path"));
        // Without a backtrace, stderr ends with the panic message.
        let out = Command::new(self.exe)
            .args(&args)
            .current_dir(dir)
            .env("RUST_BACKTRACE", "0")
            .output()
            .map_err(|e| format!("could not start: {e}"))?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
            let tail = &lines[lines.len().saturating_sub(6)..];
            return Err(format!(
                "{}; stderr ends:\n    {}",
                out.status,
                tail.join("\n    ")
            ));
        }
        let fresh = self
            .files
            .iter()
            .map(|&file| match stdout_file {
                Some(txt) if txt == file => Some(out.stdout.clone()),
                _ => std::fs::read(dir.join(file)).ok(),
            })
            .collect();
        Ok(fresh)
    }
}

/// The first line (numbered from 1) where `committed` and `fresh`
/// differ, with both versions of it.
fn first_difference(committed: &[u8], fresh: &[u8]) -> String {
    let (committed, fresh) = (
        String::from_utf8_lossy(committed),
        String::from_utf8_lossy(fresh),
    );
    let (mut old, mut new) = (committed.split_inclusive('\n'), fresh.split_inclusive('\n'));
    let show = |line: Option<&str>| match line {
        None => "<end of file>".to_string(),
        Some(line) => {
            let line = line.strip_suffix('\n').unwrap_or(line);
            let mut cut: String = line.chars().take(160).collect();
            if cut.len() < line.len() {
                cut.push('…');
            }
            cut
        }
    };
    let mut n = 1;
    loop {
        match (old.next(), new.next()) {
            (None, None) => return "identical text, different bytes".into(),
            (a, b) if a == b => n += 1,
            (a, b) => {
                return format!(
                    "line {n}:\n    committed: {}\n    fresh:     {}",
                    show(a),
                    show(b)
                )
            }
        }
    }
}

#[test]
fn every_committed_file_has_exactly_one_row() {
    let mut rows_of: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for row in ROWS {
        for &file in row.files {
            rows_of.entry(file).or_default().push(row.bin);
        }
    }
    let mut committed: Vec<String> = std::fs::read_dir(RESULTS)
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable results/ entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 file name"))
        .collect();
    committed.sort();
    let mut problems = Vec::new();
    for file in &committed {
        match rows_of.get(file.as_str()).map(Vec::as_slice) {
            None => problems.push(format!("results/{file} is named by no row")),
            Some([_]) => {}
            Some(bins) => problems.push(format!("results/{file} is named by rows {bins:?}")),
        }
    }
    for (file, bins) in &rows_of {
        if !committed.iter().any(|c| c == file) {
            problems.push(format!(
                "row {bins:?} names results/{file}, which is missing"
            ));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn every_row_reproduces_its_committed_files() {
    let scratch = std::env::temp_dir().join(format!("lpfps_committed_{}", std::process::id()));
    let mut failures = Vec::new();
    let mut matched = 0;
    for row in ROWS {
        let fresh = match row.run(&scratch.join(row.bin)) {
            Ok(fresh) => fresh,
            Err(why) => {
                failures.push(format!(
                    "`{}` failed, so {:?} were not compared: {why}\n  run: {}",
                    row.bin,
                    row.files,
                    row.regenerate()
                ));
                continue;
            }
        };
        for (&file, fresh) in row.files.iter().zip(fresh) {
            let committed = std::fs::read(Path::new(RESULTS).join(file));
            let problem = match (committed, fresh) {
                (Err(_), _) => format!("results/{file} is missing"),
                (_, None) => format!("`{}` did not write {file}", row.bin),
                (Ok(committed), Some(fresh)) if committed == fresh => {
                    matched += 1;
                    continue;
                }
                (Ok(committed), Some(fresh)) => format!(
                    "results/{file} differs from its fresh output at {}",
                    first_difference(&committed, &fresh)
                ),
            };
            failures.push(format!("{problem}\n  rewrite with: {}", row.regenerate()));
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    assert!(
        failures.is_empty(),
        "committed results do not regenerate ({matched} files match):\n\n{}",
        failures.join("\n\n")
    );
}
