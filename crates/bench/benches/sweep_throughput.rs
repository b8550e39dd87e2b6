//! End-to-end sweep throughput: the utilization-sweep grid (the same
//! UUniFast construction as the `sweep_utilization` experiment, reduced)
//! through the parallel runner at one thread and at all host threads.
//!
//! This is the workload the committed `BENCH_kernel.json` trajectory
//! tracks: per-worker `SimWorkspace` reuse and the zero-allocation queues
//! both land on this path. `bench_kernel`
//! (`src/bin/bench_kernel.rs`) measures the full grid and maintains the
//! committed before/after numbers; this bench is the quick,
//! statistics-backed view of the same path.

use criterion::{criterion_group, criterion_main, Criterion};
use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, ExecKind, RunOptions, SweepSpec};

/// A reduced utilization grid (2 utilizations x 2 sets x 2 policies =
/// 8 cells) so a criterion round stays in the tens of milliseconds.
fn grid() -> SweepSpec {
    SweepSpec::utilization(
        "bench_utilization_quick",
        &CpuSpec::arm8(),
        &[0.3, 0.6],
        2,
        8,
        &[PolicyKind::Fps, PolicyKind::Lpfps],
        0.5,
        ExecKind::PaperGaussian,
    )
}

fn bench_sweep(c: &mut Criterion) {
    let spec = grid();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("sweep_throughput");
    for threads in [1, host] {
        group.bench_function(format!("utilization-grid/{threads}-threads"), |b| {
            let opts = RunOptions::serial().with_threads(threads);
            b.iter(|| run_sweep(&spec, &opts))
        });
        if host == 1 {
            break;
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
