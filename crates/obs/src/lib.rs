// Same panic-free boundary as the kernel: library code must not abort.
// Tests and binaries may unwrap freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # lpfps-obs
//!
//! The observability layer of the LPFPS reproduction: everything that
//! *watches* a simulation without being allowed to *change* it. The
//! kernel only simulates; every view of a run lives here.
//!
//! Five pieces, layered on the kernel's [`lpfps_kernel::probe::Probe`]
//! seam:
//!
//! * [`probe`] — recording probes. [`JobRecorder`] streams per-job
//!   response times and energies into histograms (the kernel's own
//!   `Trace` is the probe that records the raw stream). The kernel
//!   guarantees a probed run produces a bit-identical `SimReport`
//!   (`NoProbe` monomorphizes the tap away entirely).
//! * [`hist`] — deterministic log-scale [`LogHistogram`]s whose merge is
//!   exactly associative and commutative, making sweep-level percentiles
//!   (`p50`/`p95`/`p99`/`max`) byte-identical across `--threads 1..=8`.
//! * [`perfetto`] — a Chrome-trace-event exporter
//!   ([`export_chrome_trace`]) rendering any `Trace` as a document
//!   `chrome://tracing` / ui.perfetto.dev loads directly, plus an
//!   independent schema validator ([`validate_chrome_trace`]).
//! * [`gantt`] — the schedule reconstructed from a `Trace` as execution
//!   segments ([`gantt::Gantt`]), rendered as a text chart; the Perfetto
//!   task lanes are built from it.
//! * [`text`] — the other terminal views: the event list, the detailed
//!   report and a one-line summary.
//!
//! "Observability is free" is enforced, not assumed: the bench crate
//! re-runs the 24-cell golden fingerprint matrix and the oracle
//! differential matrix with probes attached, and the `obs_free_prop`
//! property suite does the same over arbitrary workloads and fault
//! streams.

pub mod gantt;
pub mod hist;
pub mod perfetto;
pub mod probe;
pub mod text;

pub use hist::{HistSummary, LogHistogram};
pub use perfetto::{export_chrome_trace, validate_chrome_trace, ChromeTraceStats};
pub use probe::{JobRecorder, FJ_PER_J};
