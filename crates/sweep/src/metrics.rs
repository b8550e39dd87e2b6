//! Sweep observability: wall-clock and throughput accounting.
//!
//! Metrics are *not* part of the deterministic results: they contain
//! wall-clock timings that vary run to run, so they are printed to stderr
//! (or written to a separate `--metrics` file), never mixed into the
//! `--json` results payload.

use lpfps_obs::HistSummary;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// Timing for one executed cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellMetrics {
    /// Position in the spec (results index).
    pub index: usize,
    /// Human-readable cell label (`app/policy/b50%/s3`).
    pub label: String,
    /// Wall-clock time for this cell, nanoseconds.
    pub wall_ns: u64,
    /// Kernel decision points the cell processed (0 for failed cells).
    pub events: u64,
    /// Times the cell was executed: always 1 (cells are deterministic, so
    /// the runner never retries one).
    pub attempts: u32,
    /// Whole hyperperiods the kernel's steady-state detector skipped
    /// (0 when the cell was ineligible or no recurrence was found).
    pub cycles_detected: u64,
    /// Decision points covered by extrapolation instead of simulation.
    /// `events` already includes them — this is how many were free.
    pub events_skipped: u64,
}

impl CellMetrics {
    /// Events per second for this cell alone.
    fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// Whole-sweep summary emitted by the runner.
#[derive(Debug, Clone, Serialize)]
pub struct SweepMetrics {
    /// Sweep name (from the spec).
    pub sweep: String,
    /// Cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time, nanoseconds.
    pub wall_ns: u64,
    /// Total kernel decision points across all cells.
    pub total_events: u64,
    /// Total hyperperiods skipped by steady-state fast-forward.
    pub cycles_detected: u64,
    /// Total decision points extrapolated instead of simulated (already
    /// counted inside `total_events`).
    pub events_skipped: u64,
    /// Cells that finished [`CellStatus::Failed`](crate::cell::CellStatus).
    pub failures: usize,
    /// Failure count per error kind (`"invalid-config"`,
    /// `"budget-exhausted"`, ..., `"panic"`), sorted by kind. Empty for a
    /// clean sweep. Deterministic, unlike the timings — derived from the
    /// results, not the clock.
    pub failure_kinds: BTreeMap<String, usize>,
    /// Log-histogram summary of per-cell wall-clock times (nanoseconds).
    /// Nondeterministic like every other timing here.
    pub cell_wall_ns: HistSummary,
    /// Sweep-wide job response-time percentiles (nanoseconds), merged
    /// associatively across all completed cells in spec order — present
    /// only when histogram collection (`--hist`) was on. *Deterministic*:
    /// byte-identical across thread counts.
    pub response_ns: Option<HistSummary>,
    /// Sweep-wide per-job energy percentiles (femtojoules); same
    /// collection and determinism contract as `response_ns`.
    pub job_energy_fj: Option<HistSummary>,
    /// Per-cell timings, in spec order.
    pub per_cell: Vec<CellMetrics>,
}

impl SweepMetrics {
    /// Cells completed per wall-clock second.
    fn cells_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.cells as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Kernel decision points processed per wall-clock second, across all
    /// workers — the sweep engine's headline throughput number.
    fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.total_events as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// End-to-end wall time.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns)
    }

    /// A compact multi-line summary: totals plus the slowest cells.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep `{}`: {} cells on {} thread{} in {:.3?} — {:.1} cells/s, {:.2}M events/s ({} events)",
            self.sweep,
            self.cells,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall(),
            self.cells_per_sec(),
            self.events_per_sec() / 1e6,
            self.total_events,
        );
        if self.cycles_detected > 0 {
            let _ = writeln!(
                out,
                "  fast-forward: {} hyperperiod{} skipped, {} of those events extrapolated",
                self.cycles_detected,
                if self.cycles_detected == 1 { "" } else { "s" },
                self.events_skipped,
            );
        }
        if let (Some(resp), Some(energy)) = (&self.response_ns, &self.job_energy_fj) {
            let _ = writeln!(
                out,
                "  response: p50 {:.1}us / p95 {:.1}us / p99 {:.1}us / max {:.1}us over {} jobs",
                resp.p50 as f64 / 1e3,
                resp.p95 as f64 / 1e3,
                resp.p99 as f64 / 1e3,
                resp.max as f64 / 1e3,
                resp.count,
            );
            let _ = writeln!(
                out,
                "  job energy: p50 {:.3}uJ / p95 {:.3}uJ / p99 {:.3}uJ / max {:.3}uJ",
                energy.p50 as f64 / 1e9,
                energy.p95 as f64 / 1e9,
                energy.p99 as f64 / 1e9,
                energy.max as f64 / 1e9,
            );
        }
        if self.failures > 0 {
            let kinds: Vec<String> = self
                .failure_kinds
                .iter()
                .map(|(kind, count)| format!("{kind}: {count}"))
                .collect();
            let _ = writeln!(
                out,
                "  {} cell{} FAILED [{}] (see statuses in the results payload)",
                self.failures,
                if self.failures == 1 { "" } else { "s" },
                kinds.join(", "),
            );
        }
        let mut slowest: Vec<&CellMetrics> = self.per_cell.iter().collect();
        slowest.sort_by_key(|m| std::cmp::Reverse(m.wall_ns));
        for m in slowest.iter().take(3) {
            let _ = writeln!(
                out,
                "  slowest: {:<36} {:>9.3?}  {:>7.2}M events/s",
                m.label,
                Duration::from_nanos(m.wall_ns),
                m.events_per_sec() / 1e6,
            );
        }
        out
    }
}
