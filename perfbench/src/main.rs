//! The LPFPS simulator's layered benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8-gaussian [--seed 0] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Runs one named workload as a batch job in this process, checks its
//! outputs, and prints as the last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! they are the per-layer ones, from a traced run. See README.md for the
//! workloads, every metric, and how each is measured.

mod calib;
mod golden;
mod layers;
mod spans;
mod stats;
mod workload;

use spans::{self_time_by_name, Span};
use stats::{median, tail, Tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{committed_mismatch, run_batch, Batch, Counts, Kind, Workload, DEFAULT_SEED};

/// Set-up runs this many times per run: once before the timed batches,
/// then after each of the first batches.
const SETUP_REPS: usize = 60;
/// Batches of a run whose per-layer figures are taken: those with the
/// smallest wall time. It is also the fewest batches a run makes, however
/// short `--seconds`.
const QUIET: usize = 5;
/// Spans written out per traced run, at most.
const SPAN_DUMP_CAP: usize = 200_000;

const USAGE: &str = "usage: lpfps-perfbench --workload <fig8-gaussian|long-horizon-wcet|tiny-cells|multicore-fleet> \
[--seed N (default 0)] [--seconds S (default 10)] [--trace 0|1 (default 0)]";

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("cell_p50_us", "us"),
    ("cell_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("sweep.overhead_frac", "frac"),
    ("sweep.retries", "count"),
    ("sweep.emit_ns_per_cell", "ns"),
    ("sweep.emit_bytes_per_cell", "bytes"),
    ("kernel.busy_s", "s"),
    ("kernel.events", "count"),
    ("kernel.sched_passes", "count"),
    ("kernel.dispatches", "count"),
    ("kernel.releases", "count"),
    ("kernel.ns_per_event", "ns"),
    ("kernel.steady.cycles_detected", "count"),
    ("kernel.steady.events_skipped", "count"),
    ("kernel.steady.skip_frac", "frac"),
    ("kernel.steady.full_over_fast", "ratio"),
    ("kernel.queues.run_ns_per_op", "ns"),
    ("kernel.queues.delay_ns_per_op", "ns"),
    ("kernel.queues.ops", "count"),
    ("kernel.queues.share_est", "frac"),
    ("kernel.report.serialize_ns", "ns"),
    ("kernel.report.bytes", "bytes"),
    ("core.r_heu_ns", "ns"),
    ("core.r_opt_ns", "ns"),
    ("core.r_opt_over_r_heu", "ratio"),
    ("core.ramps", "count"),
    ("core.power_downs", "count"),
    ("core.slowdowns", "count"),
    ("core.share_est", "frac"),
    ("cpu.ramp_average_ns", "ns"),
    ("cpu.state_power_ns", "ns"),
    ("cpu.energy_accumulate_ns", "ns"),
    ("cpu.quantize_up_ns", "ns"),
    ("cpu.ramp_evals", "count"),
    ("cpu.segments", "count"),
    ("cpu.ramp_share_est", "frac"),
    ("cpu.accumulate_share_est", "frac"),
    ("tasks.exec_sample_ns.dyn", "ns"),
    ("tasks.exec_sample_ns.direct", "ns"),
    ("tasks.exec_share_est", "frac"),
    ("tasks.rta_ns", "ns"),
    ("tasks.hyperperiod_ns", "ns"),
    ("multi.partition_ns.ffd", "ns"),
    ("multi.partition_ns.bfd", "ns"),
    ("multi.partition_ns.wfd", "ns"),
    ("multi.partition_ns.rta-ff", "ns"),
    ("multi.merge_overhead_frac", "frac"),
    ("multi.cores_used", "count"),
    ("workloads.build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_s.sweep", "s"),
    ("trace.self_s.kernel", "s"),
    ("trace.self_s.sweep.emit", "s"),
    ("trace.self_s.multi", "s"),
    ("cell_tail.pct", "pct"),
    ("cell_tail.samples", "count"),
    ("host.nproc", "count"),
    ("host.workers", "count"),
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag `{flag}` requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("`{v}` is not a seed"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("`{v}` is not a positive number of seconds"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace {v}`: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failures and output mismatches, counted against cells attempted.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    /// Counts a batch's cells, its failed cells, and each output claim it
    /// broke.
    fn batch(&mut self, b: &Batch) {
        self.attempted += b.counts.cells;
        if b.failed > 0 {
            self.failed += b.failed as u64 - 1;
            self.problem(format!("{} of {} cells failed", b.failed, b.counts.cells));
        }
        for v in &b.violations {
            self.problem(v.clone());
        }
    }

    fn problem(&mut self, p: String) {
        self.failed += 1;
        self.problems.push(p);
    }

    /// A timed batch must repeat the reference batch exactly: same
    /// payload bytes, same work counts.
    fn same_as(&mut self, reference: &Batch, b: &Batch, what: &str) {
        if b.counts != reference.counts {
            self.problem(format!(
                "{what}: deterministic counts drifted (behaviour change): {:?} vs {:?}",
                b.counts, reference.counts
            ));
        }
        if b.digest != reference.digest {
            self.problem(format!("{what}: results payload digest drifted"));
        }
    }
}

/// The correctness passes every run makes before timing, untimed.
fn check_outputs(w: &Workload, ledger: &mut Ledger) -> Batch {
    let kind = w.kind;
    let default = if w.seed == DEFAULT_SEED {
        w.clone()
    } else {
        Workload::build(kind, DEFAULT_SEED, w.workers)
    };
    let b0 = run_batch(&default, w.workers);
    ledger.batch(&b0);
    let (digest, counts) = golden::expected(kind);
    if b0.digest != digest || b0.counts != counts {
        ledger.problem(format!(
            "{}: default-seed outputs differ from the recorded seed-commit digest \
             (digest {:#018x} vs {digest:#018x}; counts {:?} vs {counts:?})",
            kind.name(),
            b0.digest,
            b0.counts
        ));
    }
    if let Some(m) = committed_mismatch(kind, &b0) {
        ledger.problem(m);
    }
    let reference = if w.seed == DEFAULT_SEED {
        b0
    } else {
        let b = run_batch(w, w.workers);
        ledger.batch(&b);
        b
    };
    if w.workers > 1 {
        let serial = run_batch(w, 1);
        ledger.batch(&serial);
        ledger.same_as(&reference, &serial, "1 worker vs nproc workers");
    }
    reference
}

/// One set-up: build the cells, validate them, warm up. Returns the
/// workload, the validation outcome, and the build and whole set-up
/// times in seconds.
fn set_up(kind: Kind, seed: u64, workers: usize) -> (Workload, Result<(), String>, f64, f64) {
    let t = Instant::now();
    let w = Workload::build(kind, seed, workers);
    let build_s = t.elapsed().as_secs_f64();
    let valid = w.validate();
    w.warm_up();
    (w, valid, build_s, t.elapsed().as_secs_f64())
}

/// What a run keeps of its untraced batches: minimum host times,
/// unscaled, ns. The host this benchmark was tuned on shares its cores;
/// its speed flips between two levels, 1.8x apart, many times a second,
/// and for minutes at a time it stays at the slow one. A minimum over the
/// run finds the moments at the fast level when there are any; dividing
/// by the run's smallest calibration slowdown (see `calib`) makes up for
/// a run that has none.
#[derive(Debug, Clone)]
struct Minimums {
    /// Per cell, its smallest latency.
    cell: Vec<u64>,
    /// The smallest part of a batch's wall time that its cells do not
    /// account for: `wall - sum(cells) / workers` (runner, contention,
    /// imbalance and results emission).
    rest: f64,
    /// The smallest slowdown a calibration measured.
    slowdown: f64,
    setup: f64,
    build: f64,
}

impl Minimums {
    fn new(cells: usize) -> Minimums {
        Minimums {
            cell: vec![u64::MAX; cells],
            rest: f64::MAX,
            slowdown: f64::MAX,
            setup: f64::MAX,
            build: f64::MAX,
        }
    }

    /// A host time scaled to the reference speed.
    fn scaled(&self, t: f64) -> f64 {
        t / self.slowdown
    }

    fn set_up(&mut self, build_s: f64, setup_s: f64) {
        self.build = self.build.min(build_s);
        self.setup = self.setup.min(setup_s);
    }

    /// The scaled wall time of one batch, ns: every cell at its fastest,
    /// spread over the workers, plus the rest at its smallest.
    fn wall_ns(&self, workers: usize) -> f64 {
        let cells: u64 = self.cell.iter().sum();
        self.scaled(cells as f64 / workers as f64 + self.rest)
    }
}

/// The median of the [`QUIET`] smallest values.
fn quiet_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(QUIET);
    median(&v)
}

/// Untraced batches of one run.
struct Timed {
    mins: Minimums,
    /// The [`QUIET`] batches with the smallest wall time, unordered.
    quiet: Vec<Batch>,
    /// Batches run in all.
    batches: usize,
}

/// Repeats untraced batches for `budget` (at least [`QUIET`] of them),
/// checking each against the reference. Every batch is followed by
/// [`calib::REPS`] calibrations, and each of the first [`SETUP_REPS`]
/// by a set-up repetition: interleaved, so a slow spell of the host
/// does not hit them all, and at fixed points, so the process allocates
/// in the same order on every run. `first_setup` is the run's own
/// set-up, `(build_s, setup_s)`.
fn timed_batches(
    w: &Workload,
    reference: &Batch,
    budget: Duration,
    first_setup: (f64, f64),
    ledger: &mut Ledger,
) -> Timed {
    let started = Instant::now();
    let calibration = w.kind.calibration_rounds();
    let mut mins = Minimums::new(reference.cell_ns.len());
    let mut quiet: Vec<Batch> = Vec::with_capacity(QUIET + 1);
    let mut batches = 0;
    mins.set_up(first_setup.0, first_setup.1);
    let mut setups = 1;
    while batches < QUIET || started.elapsed() < budget {
        let mut b = run_batch(w, w.workers);
        batches += 1;
        for _ in 0..calib::REPS {
            mins.slowdown = mins.slowdown.min(calib::slowdown(calibration));
        }
        for (m, &ns) in mins.cell.iter_mut().zip(&b.cell_ns) {
            *m = (*m).min(ns);
        }
        let cells: u64 = b.cell_ns.iter().sum();
        let rest = b.wall_ns as f64 - cells as f64 / w.workers as f64;
        mins.rest = mins.rest.min(rest.max(0.0));
        if setups < SETUP_REPS {
            let (_, _, build_s, setup_s) = set_up(w.kind, w.seed, w.workers);
            mins.set_up(build_s, setup_s);
            setups += 1;
        }
        ledger.batch(&b);
        ledger.same_as(reference, &b, "timed batch");
        b.payload = String::new();
        quiet.push(b);
        if quiet.len() > QUIET {
            let slowest = (0..quiet.len())
                .max_by_key(|&i| quiet[i].wall_ns)
                .expect("quiet holds batches");
            quiet.swap_remove(slowest);
        }
    }
    for _ in setups..SETUP_REPS {
        let (_, _, build_s, setup_s) = set_up(w.kind, w.seed, w.workers);
        mins.set_up(build_s, setup_s);
        mins.slowdown = mins.slowdown.min(calib::slowdown(calibration));
    }
    Timed {
        mins,
        quiet,
        batches,
    }
}

fn median_of(batches: &[Batch], f: impl Fn(&Batch) -> f64) -> f64 {
    median(&batches.iter().map(f).collect::<Vec<f64>>())
}

fn end_to_end(
    timed: &Timed,
    counts: &Counts,
    workers: usize,
) -> (BTreeMap<&'static str, f64>, Option<Tail>) {
    let mins = &timed.mins;
    let wall = mins.wall_ns(workers) / 1e9;
    let cells: Vec<u64> = mins
        .cell
        .iter()
        .map(|&ns| mins.scaled(ns as f64).round() as u64)
        .collect();
    let t = tail(&cells);
    let mut m = BTreeMap::new();
    m.insert("wall_s", wall);
    m.insert("sim_events_per_s", counts.events as f64 / wall);
    m.insert(
        "cell_p50_us",
        median(&cells.iter().map(|&c| c as f64).collect::<Vec<_>>()) / 1e3,
    );
    m.insert("cell_tail_us", t.map_or(0.0, |t| t.value as f64 / 1e3));
    m.insert("setup_s", mins.scaled(mins.setup));
    m.insert("peak_rss_mb", peak_rss_mb());
    (m, t)
}

/// Sums span durations by name within one batch's spans.
fn dur_by_name(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

fn per_layer(
    w: &Workload,
    reference: &Batch,
    batches: &[Batch],
    build_s: f64,
    seconds: f64,
    ledger: &mut Ledger,
) -> BTreeMap<&'static str, f64> {
    let counts = reference.counts;
    let cells = counts.cells as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Traced batches: the same work through the benchmark's own closed
    // loop, a span around each layer call. They alternate with untraced
    // batches, so that a slow spell of the host hits both alike, and the
    // quietest of each are kept.
    let epoch = Instant::now();
    let started = Instant::now();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut lane = 0;
    while traced.len() < QUIET || started.elapsed().as_secs_f64() < 0.6 * seconds {
        let b = run_batch(w, w.workers);
        ledger.batch(&b);
        ledger.same_as(reference, &b, "untraced batch");
        untraced.push(b.wall_ns as f64);
        traced.push(workload::run_traced_batch(w, epoch, lane));
        lane += 64;
    }
    traced.sort_by_key(|t| t.wall_ns);
    traced.truncate(QUIET);
    let per_batch_self: Vec<BTreeMap<&'static str, u64>> =
        traced.iter().map(|t| self_time_by_name(&t.spans)).collect();
    let self_s = |name: &str| {
        median(
            &per_batch_self
                .iter()
                .map(|st| st.get(name).copied().unwrap_or(0) as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_wall = quiet_median(&untraced);
    let traced_wall = median(&traced.iter().map(|t| t.wall_ns as f64).collect::<Vec<_>>());
    m.insert("trace.overhead_ratio", traced_wall / untraced_wall);
    m.insert("trace.self_s.sweep", self_s("sweep"));
    m.insert("trace.self_s.kernel", self_s("kernel"));
    m.insert("trace.self_s.sweep.emit", self_s("sweep.emit"));
    m.insert("trace.self_s.multi", self_s("multi"));
    let emit_ns = median(
        &traced
            .iter()
            .map(|t| dur_by_name(&t.spans, "sweep.emit") as f64)
            .collect::<Vec<_>>(),
    );

    // The sweep runner, from its own metrics on the untraced batches.
    m.insert(
        "sweep.overhead_frac",
        median_of(batches, |b| {
            let busy: u64 = b.cell_ns.iter().sum();
            1.0 - busy as f64 / (w.workers as f64 * b.run_ns as f64)
        }),
    );
    m.insert(
        "sweep.retries",
        batches.iter().map(|b| b.retries).sum::<u64>() as f64,
    );
    m.insert("sweep.emit_ns_per_cell", emit_ns / cells);
    m.insert(
        "sweep.emit_bytes_per_cell",
        reference.payload.len() as f64 / cells,
    );

    // Kernel busy time: the kernel spans of the traced batches, or, for
    // multicore cells, the per-core runs of the engine split.
    let kernel_cells = w.kernel_cells();
    let busy_ns = if w.kind == Kind::MulticoreFleet {
        // The quietest of three passes.
        let split = (0..3)
            .map(|_| workload::multi_split(w))
            .min_by_key(|s| s.engine_ns)
            .expect("three passes ran");
        m.insert(
            "multi.merge_overhead_frac",
            1.0 - (split.derive_ns + split.cores_ns) as f64 / split.engine_ns as f64,
        );
        split.cores_ns as f64
    } else {
        m.insert("multi.merge_overhead_frac", 0.0);
        median(
            &traced
                .iter()
                .map(|t| dur_by_name(&t.spans, "kernel") as f64)
                .collect::<Vec<_>>(),
        )
    };
    let simulated = counts.simulated_events() as f64;
    m.insert("kernel.busy_s", busy_ns / 1e9);
    m.insert("kernel.events", counts.events as f64);
    m.insert("kernel.sched_passes", counts.sched_passes as f64);
    m.insert("kernel.dispatches", counts.dispatches as f64);
    m.insert("kernel.releases", counts.releases as f64);
    m.insert("kernel.ns_per_event", busy_ns / simulated);
    m.insert(
        "kernel.steady.cycles_detected",
        counts.cycles_detected as f64,
    );
    m.insert("kernel.steady.events_skipped", counts.events_skipped as f64);
    m.insert(
        "kernel.steady.skip_frac",
        counts.events_skipped as f64 / counts.events as f64,
    );
    let (fast_ns, full_ns, mismatches) = workload::fast_vs_full(&kernel_cells);
    m.insert(
        "kernel.steady.full_over_fast",
        full_ns as f64 / fast_ns as f64,
    );
    ledger.attempted += kernel_cells.len() as u64;
    for p in mismatches {
        ledger.problem(p);
    }

    // Isolated layer costs on the workload's recorded inputs.
    let obs = layers::observe(&kernel_cells);
    let c = layers::measure(w, &kernel_cells, &obs);
    m.insert("kernel.queues.run_ns_per_op", c.run_queue_ns);
    m.insert("kernel.queues.delay_ns_per_op", c.delay_queue_ns);
    m.insert("kernel.queues.ops", (obs.run_ops + obs.delay_ops) as f64);
    m.insert(
        "kernel.queues.share_est",
        (c.run_queue_ns * obs.run_ops as f64 + c.delay_queue_ns * obs.delay_ops as f64) / busy_ns,
    );
    m.insert("kernel.report.serialize_ns", c.report_serialize_ns);
    m.insert("kernel.report.bytes", c.report_bytes);
    m.insert("core.r_heu_ns", c.r_heu_ns);
    m.insert("core.r_opt_ns", c.r_opt_ns);
    m.insert("core.r_opt_over_r_heu", c.r_opt_ns / c.r_heu_ns);
    m.insert("core.ramps", counts.ramps as f64);
    m.insert("core.power_downs", counts.power_downs as f64);
    m.insert("core.slowdowns", obs.slowdowns as f64);
    m.insert(
        "core.share_est",
        c.r_heu_ns * obs.slowdowns as f64 / busy_ns,
    );
    m.insert("cpu.ramp_average_ns", c.ramp_average_ns);
    m.insert("cpu.state_power_ns", c.state_power_ns);
    m.insert("cpu.energy_accumulate_ns", c.accumulate_ns);
    m.insert("cpu.quantize_up_ns", c.quantize_up_ns);
    m.insert("cpu.ramp_evals", obs.ramp_evals as f64);
    m.insert("cpu.segments", obs.segments as f64);
    m.insert(
        "cpu.ramp_share_est",
        c.ramp_average_ns * obs.ramp_evals as f64 / busy_ns,
    );
    // Fast-forward replays each skipped cycle's energy tape, one
    // accumulation per recorded segment; scale the simulated segment
    // count by the skipped share of events to estimate those.
    let replayed = obs.segments as f64 * counts.events_skipped as f64 / simulated;
    m.insert(
        "cpu.accumulate_share_est",
        c.accumulate_ns * (obs.segments as f64 + replayed) / busy_ns,
    );
    m.insert("tasks.exec_sample_ns.dyn", c.exec_dyn_ns);
    m.insert("tasks.exec_sample_ns.direct", c.exec_direct_ns);
    m.insert(
        "tasks.exec_share_est",
        c.exec_dyn_ns * obs.releases as f64 / busy_ns,
    );
    m.insert("tasks.rta_ns", c.rta_ns);
    m.insert("tasks.hyperperiod_ns", c.hyperperiod_ns);
    for (name, ns) in [
        "multi.partition_ns.ffd",
        "multi.partition_ns.bfd",
        "multi.partition_ns.wfd",
        "multi.partition_ns.rta-ff",
    ]
    .into_iter()
    .zip(c.partition_ns)
    {
        m.insert(name, ns);
    }
    m.insert("multi.cores_used", counts.cores_used as f64);
    m.insert("workloads.build_s", build_s);

    dump_spans(w, traced.into_iter().flat_map(|t| t.spans));
    m
}

/// Writes the traced run's spans to `perfbench/out/` as JSON.
fn dump_spans(w: &Workload, spans: impl Iterator<Item = Span>) {
    let spans: Vec<Span> = spans.take(SPAN_DUMP_CAP).collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-s{}.json", w.kind.name(), w.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&spans).expect("spans serialize"),
        )
    });
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Formats the result line. Non-finite values print as 0.
fn result_line(ledger: &Ledger, metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Pins glibc malloc to a single arena. The sweep runner spawns fresh
/// worker threads for every batch, and a new thread that starts before
/// the previous one has handed back its arena gets a new one: a timing
/// race that, on this benchmark's hosts, added 4 MiB to `peak_rss_mb` in
/// some runs and not others. One arena makes the peak a property of the
/// workload, not of thread timing.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // before this process starts any thread or depends on any arena.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-golden") {
        golden::print_current();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = args.kind.workers(nproc);
    let mut ledger = Ledger::default();

    // Set-up: build the cells, validate them, warm up. It is repeated
    // during the timed phase.
    let (w, valid, build_s, setup_s) = set_up(args.kind, args.seed, workers);
    if let Err(e) = valid {
        ledger.problem(format!("set-up validation: {e}"));
    }

    let reference = check_outputs(&w, &mut ledger);
    let run_budget = Duration::from_secs_f64(if args.trace {
        0.2 * args.seconds
    } else {
        args.seconds
    });
    let timed = timed_batches(&w, &reference, run_budget, (build_s, setup_s), &mut ledger);
    let (e2e, t) = end_to_end(&timed, &reference.counts, workers);

    let values = if args.trace {
        let mut m = per_layer(
            &w,
            &reference,
            &timed.quiet,
            timed.mins.scaled(timed.mins.build),
            args.seconds,
            &mut ledger,
        );
        m.insert("cell_tail.pct", t.map_or(0.0, |t| t.pct));
        m.insert("cell_tail.samples", t.map_or(0, |t| t.samples) as f64);
        m.insert("host.nproc", nproc as f64);
        m.insert("host.workers", workers as f64);
        m
    } else {
        e2e
    };

    for p in &ledger.problems {
        eprintln!("FAILED: {p}");
    }
    println!(
        "# workload={} seed={} nproc={nproc} workers={workers} batches={} slowdown={:.3} \
         cells_per_batch={} events_per_batch={} tail={} trace={}",
        args.kind.name(),
        args.seed,
        timed.batches,
        timed.mins.slowdown,
        reference.counts.cells,
        reference.counts.events,
        t.map_or("none".to_string(), |t| format!(
            "p{} of {} samples ({} beyond)",
            t.pct, t.samples, t.beyond
        )),
        u8::from(args.trace),
    );
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&ledger, metrics, &values));
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(Kind::ALL.iter().map(|k| k.name()));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// BENCHMARK.json lists exactly the metrics and workloads this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let own: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let ledger = Ledger {
            attempted: 3,
            ..Ledger::default()
        };
        let mut values = BTreeMap::new();
        values.insert("wall_s", 0.125);
        let line = result_line(&ledger, &END_TO_END, &values);
        let doc: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(doc["correct"].as_bool(), Some(true));
        assert_eq!(doc["attempted"].as_u64(), Some(3));
        for (name, unit) in END_TO_END {
            assert_eq!(doc["metrics"][name]["unit"].as_str(), Some(unit), "{name}");
            assert!(doc["metrics"][name]["value"].as_f64().is_some(), "{name}");
        }
        assert_eq!(doc["metrics"]["wall_s"]["value"].as_f64(), Some(0.125));
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload tiny-cells --seed 4 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.kind, Kind::TinyCells);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 2.0, true));
        let d = parse_args(&argv("--workload fig8-gaussian")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload tiny-cells --trace 2",
            "--workload tiny-cells --seconds 0",
            "--workload tiny-cells --seed",
            "--workload tiny-cells --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Per-layer counts are the sums of the `SimReport` counters, and
    /// they repeat exactly across batches and worker counts.
    #[test]
    fn batch_counts_are_report_counter_sums_and_repeat_exactly() {
        let mut w = Workload::build(Kind::TinyCells, 3, 2);
        w.spec.cells.truncate(120);
        let b = run_batch(&w, 2);
        let mut events = 0;
        let mut ramps = 0;
        let mut ws = lpfps_kernel::engine::SimWorkspace::new();
        for cell in &w.spec.cells {
            let r = cell.run_in(1.0, &mut ws).unwrap();
            events += r.counters.events;
            ramps += r.counters.ramps;
        }
        assert_eq!(b.counts.events, events);
        assert_eq!(b.counts.ramps, ramps);
        let again = run_batch(&w, 1);
        assert_eq!(again.counts, b.counts);
        assert_eq!(again.digest, b.digest);
    }

    #[test]
    fn default_seed_reproduces_the_recorded_digests() {
        for kind in Kind::ALL {
            let w = Workload::build(kind, DEFAULT_SEED, kind.workers(2));
            let b = run_batch(&w, w.workers);
            assert!(
                b.violations.is_empty(),
                "{}: {:?}",
                kind.name(),
                b.violations
            );
            assert_eq!(
                (b.digest, b.counts),
                golden::expected(kind),
                "{}",
                kind.name()
            );
            assert_eq!(committed_mismatch(kind, &b), None);
        }
    }
}
