//! Property-based proof that observability is free.
//!
//! Two families:
//!
//! 1. **Probes are invisible.** For random schedulable task sets under
//!    every driver-dispatched policy (both dispatch disciplines: the
//!    fixed-priority family and the EDF family), with and without an
//!    injected WCET-overrun fault stream, the engine entry point carrying
//!    a recording [`JobRecorder`], a kernel [`Trace`] or an
//!    event-counting closure probe must produce a **bit-identical
//!    serialized `SimReport`** to the plain `NoProbe` run. Probes observe; they never perturb (not
//!    even fast-forward eligibility).
//!
//! 2. **Histogram merge is a commutative monoid.** Merging per-shard
//!    [`LogHistogram`]s of an arbitrary partition of an arbitrary value
//!    multiset, in arbitrary shard order and grouping, equals recording
//!    every value into one histogram. This is the property that makes the
//!    sweep's percentile summaries byte-identical at every thread count.

use lpfps::driver::{run_in, PolicyKind};
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::engine::{SimConfig, SimWorkspace};
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_kernel::NoProbe;
use lpfps_obs::{JobRecorder, LogHistogram};
use lpfps_tasks::analysis::rta_schedulable;
use lpfps_tasks::exec::PaperGaussian;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use proptest::prelude::*;

/// Both dispatch disciplines through the one kernel: the fixed-priority
/// family (plain, power-down, full heuristic, watchdog) and the
/// deadline-ordered family (full-speed EDF, cycle-conserving EDF).
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Fps,
    PolicyKind::FpsPd,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
    PolicyKind::Edf,
    PolicyKind::CcEdf,
];

const PERIOD_POOL_US: [u64; 6] = [100, 200, 250, 400, 500, 1000];

fn pool_set(n: usize, picks: &[usize], wcet_pcts: &[u64]) -> TaskSet {
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let period = Dur::from_us(PERIOD_POOL_US[picks[i] % PERIOD_POOL_US.len()]);
            let wcet_ns = period.as_ns() * (2 + wcet_pcts[i] % 11) / 100;
            Task::new(format!("t{i}"), period, Dur::from_ns(wcet_ns.max(1)))
        })
        .collect();
    TaskSet::rate_monotonic("prop", tasks)
}

fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Probed vs plain: bit-identical serialized reports for every
    /// policy, fault-free and under overruns.
    #[test]
    fn probed_reports_are_bit_identical_to_noprobe(
        n in 2usize..=5,
        picks in proptest::collection::vec(0usize..6, 5..6),
        wcet_pcts in proptest::collection::vec(0u64..100, 5..6),
        seed in 0u64..=1_000,
        fault_seed in 0u64..=1_000,
        bcet_pct in 3u64..=10,
    ) {
        let ts = pool_set(n, &picks, &wcet_pcts);
        prop_assume!(rta_schedulable(&ts));
        // One more boolean dimension, derived from the seed (the
        // vendored proptest caps tuple strategies at six parameters).
        let faulted = seed & 1 == 1;
        let scaled = ts.with_bcet_fraction(bcet_pct as f64 / 10.0);
        let cpu = CpuSpec::arm8();
        let horizon = Dur::from_ms(4);
        let mut cfg = SimConfig::new(horizon).with_seed(seed);
        if faulted {
            cfg = cfg.with_faults(
                FaultConfig::none()
                    .with_seed(fault_seed)
                    .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3)),
            );
        }
        let mut ws = SimWorkspace::new();
        for kind in POLICIES {
            let exec = &PaperGaussian;
            let plain = run_in(&scaled, &cpu, kind, exec, &cfg, &mut ws, &mut NoProbe).unwrap();
            let plain_json = report_json(&plain);

            // A recording JobRecorder...
            let mut rec = JobRecorder::new();
            let probed = run_in(&scaled, &cpu, kind, exec, &cfg, &mut ws, &mut rec).unwrap();
            prop_assert_eq!(
                &report_json(&probed), &plain_json,
                "{}: JobRecorder perturbed the report", kind.name()
            );

            // ...a kernel Trace...
            let mut trace = Trace::new();
            let probed = run_in(&scaled, &cpu, kind, exec, &cfg, &mut ws, &mut trace).unwrap();
            prop_assert_eq!(
                &report_json(&probed), &plain_json,
                "{}: Trace perturbed the report", kind.name()
            );

            // ...and an arbitrary closure probe (the blanket FnMut impl).
            let mut count = 0u64;
            let mut counter = |_at: Time, _e: &TraceEvent| count += 1;
            let probed = run_in(&scaled, &cpu, kind, exec, &cfg, &mut ws, &mut counter).unwrap();
            prop_assert_eq!(
                &report_json(&probed), &plain_json,
                "{}: closure probe perturbed the report", kind.name()
            );
        }
    }

    /// Merging shard histograms of any partition, in any order and
    /// grouping, equals one histogram of the whole multiset.
    #[test]
    fn histogram_merge_is_associative_and_commutative_over_partitions(
        values in proptest::collection::vec(0u64..=u64::MAX, 0..300),
        cuts in proptest::collection::vec(0usize..300, 0..8),
        order_seed in 0u64..=1_000,
    ) {
        // Reference: every value into one histogram.
        let mut reference = LogHistogram::new();
        for &v in &values {
            reference.record(v);
        }

        // Partition `values` at the (sorted, deduped, clamped) cut points.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(values.len())).collect();
        bounds.push(0);
        bounds.push(values.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut shards: Vec<LogHistogram> = bounds
            .windows(2)
            .map(|w| {
                let mut h = LogHistogram::new();
                for &v in &values[w[0]..w[1]] {
                    h.record(v);
                }
                h
            })
            .collect();

        // Commutativity: merge the shards in a seed-shuffled order.
        let mut order: Vec<usize> = (0..shards.len()).collect();
        let mut state = order_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut left_fold = LogHistogram::new();
        for &i in &order {
            left_fold.merge(&shards[i]);
        }
        prop_assert_eq!(&left_fold, &reference, "shuffled left fold diverged");

        // Associativity: pairwise tree reduction instead of a fold.
        while shards.len() > 1 {
            let mut next = Vec::with_capacity(shards.len().div_ceil(2));
            for pair in shards.chunks(2) {
                let mut h = pair[0].clone();
                if let Some(rhs) = pair.get(1) {
                    h.merge(rhs);
                }
                next.push(h);
            }
            shards = next;
        }
        let tree = shards.pop().unwrap_or_default();
        prop_assert_eq!(&tree, &reference, "tree reduction diverged");
        prop_assert_eq!(tree.summary(), reference.summary());
    }
}
