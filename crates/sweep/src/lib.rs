//! Declarative, multi-threaded sweep engine for LPFPS experiments.
//!
//! Every experiment binary in `lpfps-bench` used to carry its own nested
//! `for` loops, its own `std::env::args` scanning, and no timing at all.
//! This crate factors that machinery into five pieces:
//!
//! * [`spec`] — a [`SweepSpec`] is an ordered list of [`Cell`]s (workload ×
//!   policy × BCET fraction × execution model × seed × horizon), with
//!   builders for the recurring shapes: the Figure-8 cross product
//!   ([`SweepSpec::grid`]), ablation ladders ([`SweepSpec::policy_ladder`]),
//!   and the synthetic utilization sweep ([`SweepSpec::utilization`]).
//! * [`runner`] — [`run_sweep`] executes a spec across worker threads
//!   (work-stealing over `std::thread::scope`, no external dependencies)
//!   and returns results in spec order, byte-for-byte identical to the
//!   serial path. Cells are failure-isolated: a cell rejected with a
//!   typed `SimError` — or, as a last resort, one that panics — becomes a
//!   [`cell::CellStatus::Failed`] entry carrying a structured
//!   [`cell::CellError`] instead of aborting the sweep.
//! * [`cli`] — the uniform experiment command line (`--json`, `--metrics`,
//!   `--threads`, `--seeds`, `--horizon-scale`, `--check`, `--quiet`),
//!   which *errors* on unknown flags instead of silently ignoring them.
//! * [`check`] — the `--check N` invariant-sampling pass: after a sweep,
//!   re-run N evenly-spaced cells with tracing and push their traces
//!   through the oracle's invariant checker (`lpfps-oracle`).
//! * [`metrics`] — per-cell and whole-sweep wall-clock/throughput
//!   accounting ([`SweepMetrics`]), kept strictly separate from the
//!   deterministic results payload.

pub mod cell;
pub mod check;
pub mod cli;
pub mod metrics;
pub mod runner;
pub mod spec;

pub use cell::{Cell, CellError, CellResult, CellStatus, ExecKind, PolicyChoice};
pub use check::{check_sampled_cells, CellCheck};
pub use cli::{Cli, CliError, Parsed};
pub use metrics::{CellMetrics, SweepMetrics};
pub use runner::{run_sweep, RunOptions, SweepOutcome};
pub use spec::SweepSpec;
