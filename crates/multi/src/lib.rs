// The library boundary is panic-free: partitioning and multicore
// simulation surface typed errors, never abort. Tests may unwrap freely.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! # lpfps-multi
//!
//! Partitioned multiprocessor scheduling on M identical cores, layered on
//! the uniprocessor LPFPS kernel — the canonical multicore extension of
//! the paper (Nélis et al., *Power-Aware Real-Time Scheduling upon
//! Identical Multiprocessor Platforms*): partition the task set once,
//! offline, then run a power-conscious uniprocessor policy independently
//! per core.
//!
//! Three pieces:
//!
//! * [`partition`] — the [`Partitioner`] trait and its deterministic
//!   allocators, the variants of [`PartitionerKind`]: First-/Best-/Worst-
//!   Fit Decreasing by utilization (`Ffd`, `Bfd`, `Wfd`, capacity 1.0 per
//!   core) and the RTA-admission-gated first fit (`RtaFf`, places a task
//!   only where exact response-time analysis still passes). Each checks
//!   the fleet set once with `validate_task_set`, then emits a typed
//!   [`Partition`] — every task assigned exactly once, per-core `TaskSet`s
//!   with re-derived RM priorities — or a structured [`PartitionError`]
//!   that folds into the kernel's `SimError` taxonomy (kind
//!   `"invalid-partition"`).
//! * [`engine`] — [`MultiCell`] (a uniprocessor sweep `Cell` plus a core
//!   count and a partitioner). It derives one ordinary sweep `Cell` per
//!   non-idle core and merges their reports in core order
//!   ([`MultiCell::assemble`]). A grid of fleets runs its per-core cells
//!   through `lpfps_sweep::run_sweep`, the same parallel runner as every
//!   other experiment, so output is byte-deterministic across thread
//!   counts; [`MultiEngine`] runs one fleet serially. Both simulate each
//!   distinct per-core cell once: when partitioners place a fleet alike,
//!   a repeated core cell takes the report of its first run.
//! * [`report`] — [`MultiReport`]: the per-core `SimReport`s plus
//!   fleet-level energy / average-power / miss aggregation and a per-core
//!   utilization/energy breakdown, serialized in field order.
//!
//! # Bit-identity contract
//!
//! Each core's report is **bit-identical** to running that core's subset
//! standalone through the uniprocessor kernel: per-core seeds derive via
//! [`lpfps_faults::core_seed`] (identity on core 0), per-core task sets
//! keep the parent's declaration order, and all counter-based streams are
//! order-independent — so a one-core run through any partitioner
//! reproduces the uniprocessor golden fingerprint matrix byte for byte
//! (pinned in `crates/bench/tests/multicore_golden.rs`).

pub mod engine;
pub mod partition;
pub mod report;

pub use engine::{MultiCell, MultiEngine};
pub use partition::{Partition, PartitionError, Partitioner, PartitionerKind};
pub use report::{CoreBreakdown, MultiReport};
