//! Kernel simulator throughput: simulated events per second of host time.
//!
//! Measures single-simulation latency over the full paper workload matrix
//! (Table 1, avionics, CNC, INS — under FPS and LPFPS) — the knob that
//! decides how long the Figure 8 sweeps take. The `reused-workspace`
//! variants run through one recycled [`SimWorkspace`], the sweep runner's
//! hot path. `benches/sweep_throughput.rs` covers the end-to-end grid.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lpfps::driver::{default_horizon, run, run_in, PolicyKind};
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::{SimConfig, SimWorkspace};
use lpfps_kernel::NoProbe;
use lpfps_tasks::exec::PaperGaussian;
use lpfps_workloads::{avionics, cnc, ins, table1};

fn bench_kernel(c: &mut Criterion) {
    let cpu = CpuSpec::arm8();
    let mut group = c.benchmark_group("kernel_throughput");

    for (name, ts) in [
        ("table1", table1()),
        ("avionics", avionics()),
        ("cnc", cnc()),
        ("ins", ins()),
    ] {
        let ts = ts.with_bcet_fraction(0.5);
        let horizon = default_horizon(&ts);
        for policy in [PolicyKind::Fps, PolicyKind::Lpfps] {
            group.bench_function(format!("{name}/{policy}"), |b| {
                b.iter_batched(
                    || SimConfig::new(horizon).with_seed(7),
                    |cfg| run(&ts, &cpu, policy, &PaperGaussian, &cfg),
                    BatchSize::SmallInput,
                )
            });
        }
        // The sweep runner's path: buffers recycled across iterations.
        let cfg = SimConfig::new(horizon).with_seed(7);
        let mut ws = SimWorkspace::new();
        group.bench_function(format!("{name}/lpfps/reused-workspace"), |b| {
            b.iter(|| {
                let exec = &PaperGaussian;
                run_in(
                    &ts,
                    &cpu,
                    PolicyKind::Lpfps,
                    exec,
                    &cfg,
                    &mut ws,
                    &mut NoProbe,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
