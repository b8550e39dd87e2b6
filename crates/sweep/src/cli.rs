//! The shared experiment CLI.
//!
//! Every sweep binary used to scan `std::env::args` by hand, which
//! silently ignored typos (`--jsn out.json` ran the whole sweep and wrote
//! nothing) and only discovered a missing `--json` path when the iterator
//! happened to reach it. This module gives all binaries one strict parser:
//!
//! * uniform flags: `--quiet`, `--help`;
//! * `--json PATH` only where the binary writes results (`json`), and the
//!   sweep flags `--json PATH`, `--metrics PATH`, `--threads N`,
//!   `--horizon-scale F`, `--check N`, `--hist`, `--trace-out PATH` only
//!   where it runs a sweep (`sweep`);
//! * binary-specific valued flags declared up front (`opt` /
//!   `opt_default`), and `--seeds N` only where the binary reads it
//!   (`default_seeds`);
//! * *errors* on unknown flags, missing values, and unparsable numbers.
//!
//! A flag a binary would ignore is therefore an unknown flag there.

use crate::runner::{RunOptions, SweepOutcome};
use crate::spec::SweepSpec;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::trace::Trace;
use lpfps_tasks::time::Time;
use serde::Serialize;
use std::collections::BTreeMap;

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag the binary did not declare (typos land here).
    UnknownFlag(String),
    /// A valued flag appeared last with no value after it.
    MissingValue(String),
    /// A value that failed to parse (`--threads x`).
    BadValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
    /// A positional argument; sweep binaries take none.
    UnexpectedPositional(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` requires a value"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag `{flag}`: `{value}` is not a valid {expected}"),
            CliError::UnexpectedPositional(arg) => {
                write!(f, "unexpected positional argument `{arg}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

#[derive(Debug, Clone)]
struct OptSpec {
    flag: &'static str,
    value_name: &'static str,
    help: &'static str,
    default: Option<&'static str>,
}

/// Builder for a sweep binary's command line.
#[derive(Debug, Clone)]
pub struct Cli {
    name: &'static str,
    about: &'static str,
    json: bool,
    sweep: bool,
    default_seeds: Option<u64>,
    opts: Vec<OptSpec>,
}

impl Cli {
    /// A CLI that accepts only `--quiet` and `--help`.
    pub fn new(name: &'static str, about: &'static str) -> Self {
        Cli {
            name,
            about,
            json: false,
            sweep: false,
            default_seeds: None,
            opts: Vec::new(),
        }
    }

    /// Declares `--json PATH`, for a binary whose tables are computed
    /// rather than swept ([`Parsed::write_json`]).
    pub fn json(mut self) -> Self {
        self.json = true;
        self
    }

    /// Declares `--json` and the sweep flags (`--metrics`, `--threads`,
    /// `--horizon-scale`, `--check`, `--hist`, `--trace-out`): only a
    /// binary that runs a sweep through [`Parsed::run_options`] and
    /// [`Parsed::emit`] accepts them.
    pub fn sweep(mut self) -> Self {
        self.json = true;
        self.sweep = true;
        self
    }

    /// Declares `--seeds N` with its default: only a binary that sweeps
    /// seeds accepts the flag, every other one rejects it as unknown.
    pub fn default_seeds(mut self, seeds: u64) -> Self {
        self.default_seeds = Some(seeds);
        self
    }

    /// Declares a binary-specific valued flag (e.g. `--app NAME`).
    pub fn opt(mut self, flag: &'static str, value_name: &'static str, help: &'static str) -> Self {
        self.opts.push(OptSpec {
            flag,
            value_name,
            help,
            default: None,
        });
        self
    }

    /// Declares a binary-specific valued flag with a default.
    pub fn opt_default(
        mut self,
        flag: &'static str,
        value_name: &'static str,
        help: &'static str,
        default: &'static str,
    ) -> Self {
        self.opts.push(OptSpec {
            flag,
            value_name,
            help,
            default: Some(default),
        });
        self
    }

    /// The usage text.
    fn usage(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.name, self.about);
        let _ = writeln!(out, "\nUsage: {} [OPTIONS]", self.name);
        let _ = writeln!(out, "\nOptions:");
        let mut row = |flag: &str, help: &str| {
            let _ = writeln!(out, "  {flag:<28} {help}");
        };
        for o in &self.opts {
            let help = match o.default {
                Some(d) => format!("{} [default: {d}]", o.help),
                None => o.help.to_string(),
            };
            row(&format!("{} <{}>", o.flag, o.value_name), &help);
        }
        if self.json {
            row(
                "--json <PATH>",
                "write deterministic results as pretty JSON",
            );
        }
        if self.sweep {
            row(
                "--metrics <PATH>",
                "write SweepMetrics (wall times, throughput) as JSON",
            );
            row("--threads <N>", "worker threads [default: all cores]");
            row(
                "--horizon-scale <F>",
                "stretch every cell's horizon by F [default: 1.0]",
            );
            row(
                "--check <N>",
                "invariant-check N sampled cells after the sweep [default: 0 = off]",
            );
            row(
                "--hist",
                "collect per-job response/energy histograms (deterministic percentiles)",
            );
            row(
                "--trace-out <PATH>",
                "export the first completed cell's schedule as Perfetto/Chrome-trace JSON",
            );
        }
        if let Some(n) = self.default_seeds {
            let help = format!("execution-time seeds per cell (0..N) [default: {n}]");
            row("--seeds <N>", &help);
        }
        row("--quiet", "suppress per-cell progress on stderr");
        row("--help", "print this help");
        out
    }

    /// Parses explicit arguments (no program name).
    fn try_parse(&self, args: &[String]) -> Result<Parsed, CliError> {
        let mut parsed = Parsed {
            json: None,
            metrics: None,
            threads: None,
            seeds: self.default_seeds.unwrap_or(1),
            horizon_scale: 1.0,
            check: 0,
            hist: false,
            trace_out: None,
            quiet: false,
            help: false,
            values: BTreeMap::new(),
        };
        for o in &self.opts {
            if let Some(d) = o.default {
                parsed.values.insert(o.flag.to_string(), d.to_string());
            }
        }
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_for = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::MissingValue(flag.to_string()))
            };
            match arg.as_str() {
                "--help" | "-h" => parsed.help = true,
                "--quiet" => parsed.quiet = true,
                "--json" if self.json => parsed.json = Some(value_for("--json")?),
                "--hist" if self.sweep => parsed.hist = true,
                "--trace-out" if self.sweep => parsed.trace_out = Some(value_for(arg)?),
                "--metrics" if self.sweep => parsed.metrics = Some(value_for(arg)?),
                "--threads" if self.sweep => {
                    let n = number(arg, value_for(arg)?, "positive integer", |&n| n > 0)?;
                    parsed.threads = Some(n);
                }
                "--seeds" if self.default_seeds.is_some() => {
                    parsed.seeds = number(arg, value_for(arg)?, "positive integer", |&n| n > 0)?;
                }
                "--horizon-scale" if self.sweep => {
                    let positive = |&f: &f64| f.is_finite() && f > 0.0;
                    parsed.horizon_scale =
                        number(arg, value_for(arg)?, "positive number", positive)?;
                }
                "--check" if self.sweep => {
                    parsed.check = number(arg, value_for(arg)?, "non-negative integer", |_| true)?;
                }
                flag if self.opts.iter().any(|o| o.flag == flag) => {
                    let value = value_for(flag)?;
                    parsed.values.insert(flag.to_string(), value);
                }
                flag if flag.starts_with('-') && flag.len() > 1 => {
                    return Err(CliError::UnknownFlag(flag.to_string()));
                }
                positional => {
                    return Err(CliError::UnexpectedPositional(positional.to_string()));
                }
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments. Prints usage and exits 0 on `--help`;
    /// prints the error plus usage to stderr and exits 2 on a bad command
    /// line.
    pub fn parse(&self) -> Parsed {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.try_parse(&args) {
            Ok(parsed) if parsed.help => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Ok(parsed) => parsed,
            Err(err) => {
                eprint!("{}: {err}\n\n{}", self.name, self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// Parses `value` of `flag` as a `T` that passes `valid`.
fn number<T: std::str::FromStr>(
    flag: &str,
    value: String,
    expected: &'static str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    match value.parse() {
        Ok(n) if valid(&n) => Ok(n),
        _ => Err(CliError::BadValue {
            flag: flag.to_string(),
            value,
            expected,
        }),
    }
}

/// The parsed command line of a sweep binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// `--json PATH`: where to write deterministic results.
    pub json: Option<String>,
    /// `--metrics PATH`: where to write the (nondeterministic) metrics.
    pub metrics: Option<String>,
    /// `--threads N` if given; `None` = all cores.
    pub threads: Option<usize>,
    /// `--seeds N`, or the binary's default (1 when it declares none).
    pub seeds: u64,
    /// `--horizon-scale F`.
    pub horizon_scale: f64,
    /// `--check N`: sampled invariant checks after the sweep (0 = off).
    pub check: usize,
    /// `--hist`: collect per-job response/energy histograms.
    pub hist: bool,
    /// `--trace-out PATH`: export the first completed cell's schedule as
    /// Perfetto/Chrome-trace JSON after the sweep.
    pub trace_out: Option<String>,
    /// `--quiet`.
    pub quiet: bool,
    /// `--help` was requested (only observable through `try_parse`).
    pub help: bool,
    values: BTreeMap<String, String>,
}

impl Parsed {
    /// The seed list sweep grids should use: `0..seeds`.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds).collect()
    }

    /// The value of a declared binary-specific flag.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// Runner options implied by the uniform flags.
    pub fn run_options(&self) -> RunOptions {
        let mut opts = RunOptions {
            quiet: self.quiet,
            ..RunOptions::default()
        };
        if let Some(threads) = self.threads {
            opts.threads = threads;
        }
        opts.horizon_scale = self.horizon_scale;
        opts.check_sample = self.check;
        opts.collect_histograms = self.hist;
        opts
    }

    /// Honors `--trace-out PATH`: re-runs the first *completed* cell of
    /// the sweep fully simulated with a [`Trace`] attached, renders it as a
    /// Chrome-trace-event/Perfetto JSON document
    /// ([`lpfps_obs::export_chrome_trace`]), self-validates it
    /// ([`lpfps_obs::validate_chrome_trace`]), and writes it to the
    /// requested path. No-op when the flag is absent; a warning when the
    /// sweep has no completed cell to export.
    fn maybe_export_trace(&self, spec: &SweepSpec, outcome: &SweepOutcome) {
        let Some(path) = &self.trace_out else {
            return;
        };
        let Some(index) = outcome.results.iter().position(|r| r.status.is_ok()) else {
            eprintln!("--trace-out: no completed cell to export");
            return;
        };
        let cell = &spec.cells[index];
        let (mut ws, mut trace) = (SimWorkspace::new(), Trace::new());
        cell.run_probed_opts(self.horizon_scale, &mut ws, true, &mut trace)
            .expect("traced re-run of a completed cell succeeds");
        let end = Time::ZERO + cell.effective_horizon(self.horizon_scale);
        let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
        let json = lpfps_obs::export_chrome_trace(&trace, &scaled, end);
        let stats = lpfps_obs::validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!(
            "wrote {path} ({} events, {} spans — load in chrome://tracing or ui.perfetto.dev)",
            stats.events, stats.spans
        );
    }

    /// Writes the deterministic results to the `--json` path, if any.
    /// For binaries whose tables are computed rather than swept (no
    /// [`SweepOutcome`] to report); sweeps use [`Parsed::emit`].
    ///
    /// # Panics
    ///
    /// Panics if the requested output file cannot be written.
    pub fn write_json<T: Serialize>(&self, results: &T) {
        if let Some(path) = &self.json {
            let body = serde_json::to_string_pretty(results).expect("results serialize");
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    /// Writes every output a sweep's flags ask for: the deterministic
    /// results (`--json`), the metrics of `outcome` (`--metrics` / stderr
    /// summary) and the `--trace-out` export of `spec`'s first completed
    /// cell. The results and the metrics are kept strictly separate so
    /// results stay byte-identical across thread counts — with one
    /// deliberate exception: under `--hist` the sweep-wide histogram
    /// percentiles are *also* deterministic (associative merge in spec
    /// order), so they ride along in the `--json` document as a
    /// `histograms` block wrapping the results.
    ///
    /// # Panics
    ///
    /// Panics if a requested output file cannot be written, if the
    /// traced re-run of the exported cell fails (it cannot: the cell
    /// already completed, and cell execution is deterministic), or if the
    /// export fails its own validator.
    pub fn emit<T: Serialize>(&self, results: &T, spec: &SweepSpec, outcome: &SweepOutcome) {
        let metrics = &outcome.metrics;
        match (&metrics.response_ns, &metrics.job_energy_fj) {
            (Some(response), Some(energy)) if self.hist => {
                if let Some(path) = &self.json {
                    let results_body =
                        serde_json::to_string_pretty(results).expect("results serialize");
                    let response_body =
                        serde_json::to_string(response).expect("summary serializes");
                    let energy_body = serde_json::to_string(energy).expect("summary serializes");
                    let body = format!(
                        "{{\n\"histograms\": {{\n\"response_ns\": {response_body},\n\
                         \"job_energy_fj\": {energy_body}\n}},\n\
                         \"results\": {results_body}\n}}"
                    );
                    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
                    eprintln!("wrote {path}");
                }
            }
            _ => self.write_json(results),
        }
        if let Some(path) = &self.metrics {
            let body = serde_json::to_string_pretty(metrics).expect("metrics serialize");
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        if !self.quiet {
            eprint!("{}", metrics.render());
        }
        self.maybe_export_trace(spec, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Cli {
        Cli::new("test_sweep", "a test CLI")
            .sweep()
            .default_seeds(3)
            .opt("--app", "NAME", "application to run")
    }

    fn parse(args: &[&str]) -> Result<Parsed, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        cli().try_parse(&owned)
    }

    #[test]
    fn defaults_apply_without_flags() {
        let p = parse(&[]).unwrap();
        assert_eq!(p.seeds, 3);
        assert_eq!(p.seed_list(), vec![0, 1, 2]);
        assert_eq!(p.horizon_scale, 1.0);
        assert!(p.json.is_none() && p.threads.is_none() && !p.quiet);
    }

    #[test]
    fn uniform_flags_parse() {
        let p = parse(&[
            "--json",
            "out.json",
            "--threads",
            "4",
            "--seeds",
            "7",
            "--horizon-scale",
            "0.25",
            "--quiet",
            "--metrics",
            "m.json",
        ])
        .unwrap();
        assert_eq!(p.json.as_deref(), Some("out.json"));
        assert_eq!(p.metrics.as_deref(), Some("m.json"));
        assert_eq!(p.threads, Some(4));
        assert_eq!(p.seeds, 7);
        assert_eq!(p.horizon_scale, 0.25);
        assert!(p.quiet);
        assert_eq!(p.run_options().threads, 4);
    }

    #[test]
    fn check_flag_parses_and_reaches_run_options() {
        let p = parse(&["--check", "8"]).unwrap();
        assert_eq!(p.check, 8);
        assert_eq!(p.run_options().check_sample, 8);
        assert_eq!(parse(&[]).unwrap().run_options().check_sample, 0);
        assert!(matches!(
            parse(&["--check", "x"]),
            Err(CliError::BadValue { .. })
        ));
        assert_eq!(
            parse(&["--check"]),
            Err(CliError::MissingValue("--check".into()))
        );
    }

    #[test]
    fn hist_and_trace_out_parse_and_reach_run_options() {
        let p = parse(&["--hist", "--trace-out", "out.perfetto.json"]).unwrap();
        assert!(p.hist);
        assert!(p.run_options().collect_histograms);
        assert_eq!(p.trace_out.as_deref(), Some("out.perfetto.json"));
        let p = parse(&[]).unwrap();
        assert!(!p.hist && p.trace_out.is_none());
        assert!(!p.run_options().collect_histograms);
        assert_eq!(
            parse(&["--trace-out"]),
            Err(CliError::MissingValue("--trace-out".into()))
        );
    }

    /// Under `--hist` the `--json` document gains a deterministic
    /// `histograms` block wrapping the results; without it (or without
    /// collected summaries) the payload is the bare results as before.
    #[test]
    fn hist_summaries_ride_along_in_the_json_document() {
        use lpfps_obs::LogHistogram;
        let dir = std::env::temp_dir().join("lpfps_cli_hist_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path_str = path.to_str().unwrap().to_string();

        let mut h = LogHistogram::new();
        h.record(1_000);
        h.record(2_000);
        let spec = SweepSpec::new("t");
        let mut outcome = crate::run_sweep(&spec, &RunOptions::serial());
        outcome.metrics.response_ns = Some(h.summary());
        outcome.metrics.job_energy_fj = Some(h.summary());

        let mut p = parse(&["--hist", "--quiet"]).unwrap();
        p.json = Some(path_str.clone());
        p.emit(&vec![41u64, 42u64], &spec, &outcome);
        let body = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        let hist = doc.get("histograms").expect("histograms block present");
        assert_eq!(
            hist.get("response_ns")
                .and_then(|h| h.get("count"))
                .and_then(serde_json::Value::as_u64),
            Some(2)
        );
        assert!(doc.get("results").is_some());

        // No --hist: bare results, no wrapper.
        let mut p = parse(&["--quiet"]).unwrap();
        p.json = Some(path_str);
        p.emit(&vec![41u64, 42u64], &spec, &outcome);
        let body = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(doc.get("histograms").is_none(), "bare payload: {body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_specific_flags_parse() {
        let p = parse(&["--app", "ins"]).unwrap();
        assert_eq!(p.value("--app"), Some("ins"));
        assert_eq!(parse(&[]).unwrap().value("--app"), None);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        // The old maybe_write_json silently ignored typos like `--jsn`.
        assert_eq!(
            parse(&["--jsn", "out.json"]),
            Err(CliError::UnknownFlag("--jsn".into()))
        );
    }

    #[test]
    fn json_without_path_is_an_error_up_front() {
        // The old scanner only panicked when iteration happened to reach
        // the dangling flag; now it is a parse error before any work runs.
        assert_eq!(
            parse(&["--json"]),
            Err(CliError::MissingValue("--json".into()))
        );
        assert_eq!(
            parse(&["--app"]),
            Err(CliError::MissingValue("--app".into()))
        );
    }

    #[test]
    fn bad_numbers_are_errors() {
        assert!(matches!(
            parse(&["--threads", "x"]),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--seeds", "-1"]),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["--horizon-scale", "-2"]),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn non_finite_and_non_positive_horizon_scales_are_errors() {
        // Regression: these used to reach an assert in the runner or,
        // worse, silently produce zero-length horizons.
        for bad in ["NaN", "nan", "0", "0.0", "-1", "inf", "-inf", "infinity"] {
            assert!(
                matches!(
                    parse(&["--horizon-scale", bad]),
                    Err(CliError::BadValue { .. })
                ),
                "--horizon-scale {bad} must be rejected"
            );
        }
        // The boundary stays permissive: any finite positive value parses.
        for good in ["0.001", "1", "1e3"] {
            let p = parse(&["--horizon-scale", good]).unwrap();
            assert!(p.horizon_scale > 0.0 && p.horizon_scale.is_finite());
        }
    }

    #[test]
    fn positionals_are_rejected() {
        assert_eq!(
            parse(&["out.json"]),
            Err(CliError::UnexpectedPositional("out.json".into()))
        );
    }

    #[test]
    fn seeds_is_accepted_only_where_declared() {
        let plain = Cli::new("t", "t");
        assert_eq!(
            plain.try_parse(&["--seeds".to_string(), "2".to_string()]),
            Err(CliError::UnknownFlag("--seeds".into()))
        );
        assert!(!plain.usage().contains("--seeds"));
        assert_eq!(plain.try_parse(&[]).unwrap().seed_list(), vec![0]);
    }

    /// `--json` and the sweep flags exist only where declared: a binary
    /// that would ignore them rejects them as unknown, and its usage text
    /// does not list them.
    #[test]
    fn sweep_flags_are_accepted_only_where_declared() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let sweep_flags: [&[&str]; 6] = [
            &["--threads", "3"],
            &["--check", "2"],
            &["--hist"],
            &["--metrics", "m.json"],
            &["--horizon-scale", "0.5"],
            &["--trace-out", "t.json"],
        ];
        let (bare, json) = (Cli::new("t", "t"), Cli::new("t", "t").json());
        for flag in sweep_flags {
            for cli in [&bare, &json] {
                assert_eq!(
                    cli.try_parse(&args(flag)),
                    Err(CliError::UnknownFlag(flag[0].into()))
                );
                assert!(!cli.usage().contains(flag[0]), "{}", flag[0]);
            }
            assert!(cli().try_parse(&args(flag)).is_ok());
        }
        assert_eq!(
            bare.try_parse(&args(&["--json", "out.json"])),
            Err(CliError::UnknownFlag("--json".into()))
        );
        assert!(!bare.usage().contains("--json"));
        let p = json
            .try_parse(&args(&["--json", "out.json", "--quiet"]))
            .unwrap();
        assert_eq!(p.json.as_deref(), Some("out.json"));
        assert!(p.quiet && json.usage().contains("--json"));
    }

    #[test]
    fn help_is_recognized_and_usage_lists_flags() {
        let p = parse(&["--help"]).unwrap();
        assert!(p.help);
        let usage = cli().usage();
        for flag in [
            "--json",
            "--metrics",
            "--threads",
            "--seeds",
            "--horizon-scale",
            "--quiet",
            "--app",
        ] {
            assert!(usage.contains(flag), "usage must mention {flag}");
        }
    }

    #[test]
    fn opt_defaults_are_visible() {
        let cli = Cli::new("t", "t").opt_default("--out", "PATH", "output", "chart.svg");
        let p = cli.try_parse(&[]).unwrap();
        assert_eq!(p.value("--out"), Some("chart.svg"));
        let p = cli
            .try_parse(&["--out".to_string(), "x.svg".to_string()])
            .unwrap();
        assert_eq!(p.value("--out"), Some("x.svg"));
    }
}
