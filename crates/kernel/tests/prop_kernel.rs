//! Property-based tests for the kernel: queue laws and whole-simulation
//! invariants on randomly generated schedulable task sets.

use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::state::StateKind;
use lpfps_kernel::engine::{simulate, simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::policy::AlwaysFullSpeed;
use lpfps_kernel::queues::{DelayQueue, RunQueue};
use lpfps_kernel::trace::Trace;
use lpfps_kernel::FixedPriority;
use lpfps_tasks::exec::AlwaysWcet;
use lpfps_tasks::task::{Priority, Task, TaskId};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use proptest::prelude::*;

proptest! {
    // ---- queue laws ---------------------------------------------------------

    #[test]
    fn run_queue_pops_in_strict_priority_order(levels in proptest::collection::vec(0u32..64, 1..20)) {
        // Deduplicate levels (the kernel guarantees unique priorities).
        let mut uniq = levels.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let mut q = RunQueue::new();
        for (i, &lvl) in uniq.iter().enumerate() {
            q.insert(TaskId(i), Priority::new(lvl));
        }
        let mut last: Option<Priority> = None;
        prop_assert_eq!(q.len(), uniq.len());
        while let Some(head) = q.head_priority() {
            if let Some(prev) = last {
                prop_assert!(prev.is_higher_than(head) || prev == head);
            }
            q.pop();
            last = Some(head);
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn delay_queue_pop_due_splits_exactly(
        releases in proptest::collection::vec(0u64..10_000, 1..20),
        cut in 0u64..10_000,
    ) {
        let mut q = DelayQueue::new();
        for (i, &r) in releases.iter().enumerate() {
            q.insert(TaskId(i), Priority::new(i as u32), Time::from_us(r));
        }
        let total = q.len();
        let due = q.pop_due(Time::from_us(cut));
        // Everything popped was due; everything left is not.
        prop_assert!(due.iter().all(|&(_, r)| r <= Time::from_us(cut)));
        prop_assert!(q.iter().all(|(_, r)| r > Time::from_us(cut)));
        prop_assert_eq!(due.len() + q.len(), total);
        // Popped in release order.
        prop_assert!(due.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    // ---- whole-simulation invariants -----------------------------------------

    #[test]
    fn harmonic_sets_simulate_exactly(
        base_period in 50u64..200,
        util_pcts in proptest::collection::vec(1u64..30, 1..5),
        seed in 0u64..50,
    ) {
        // Harmonic periods (P, 2P, 4P, ...) are RM-schedulable up to U = 1;
        // cap the per-task utilizations so the sum stays below ~0.9.
        let mut tasks = Vec::new();
        let mut total_util = 0.0;
        for (i, &u) in util_pcts.iter().enumerate() {
            let period = base_period << i; // harmonic chain
            let wcet = (period * u / 100).max(1);
            total_util += wcet as f64 / period as f64;
            tasks.push(Task::new(
                format!("t{i}"),
                Dur::from_us(period),
                Dur::from_us(wcet),
            ));
        }
        prop_assume!(total_util < 0.9);
        let ts = TaskSet::rate_monotonic("harmonic", tasks);
        let hyper = lpfps_tasks::analysis::hyperperiod(&ts).expect("small LCM");
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(hyper * 2).with_seed(seed);
        let report = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg).unwrap();

        // 1. A schedulable harmonic set never misses.
        prop_assert!(report.all_deadlines_met());

        // 2. Over whole hyperperiods at WCET, busy time is exactly the sum
        //    of released work.
        let expected_busy: Dur = ts
            .iter()
            .map(|(_, t, _)| t.wcet() * ((hyper * 2) / t.period()))
            .sum();
        prop_assert_eq!(report.energy.bucket(StateKind::Busy).residency, expected_busy);

        // 3. Residency covers the whole horizon.
        prop_assert_eq!(report.energy.total_residency(), hyper * 2);

        // 4. Releases and completions match the job count.
        let jobs: u64 = ts.iter().map(|(_, t, _)| (hyper * 2) / t.period()).sum();
        prop_assert_eq!(report.counters.releases, jobs);
        prop_assert_eq!(report.counters.completions, jobs);
    }

    #[test]
    fn fps_average_power_formula_holds(
        base_period in 100u64..500,
        util_pct in 5u64..85,
    ) {
        // Single task: avg power = U * 1.0 + (1 - U) * 0.2 exactly, over
        // whole periods at WCET.
        let wcet = (base_period * util_pct / 100).max(1);
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(base_period), Dur::from_us(wcet))],
        );
        let cpu = CpuSpec::arm8();
        let horizon = Dur::from_us(base_period * 10);
        let report = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &SimConfig::new(horizon)).unwrap();
        let u = wcet as f64 / base_period as f64;
        let expected = u + (1.0 - u) * 0.2;
        prop_assert!((report.average_power() - expected).abs() < 1e-9,
            "U={u}: got {} expected {expected}", report.average_power());
    }

    #[test]
    fn tracing_does_not_change_physics(
        periods in proptest::collection::vec(64u64..512, 1..4),
        seed in 0u64..20,
    ) {
        let tasks: Vec<Task> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Task::new(format!("t{i}"), Dur::from_us(p), Dur::from_us((p / 8).max(1)))
                    .with_bcet_fraction(0.5)
            })
            .collect();
        let ts = TaskSet::rate_monotonic("traced", tasks);
        let cpu = CpuSpec::arm8();
        let horizon = Dur::from_ms(5);
        let plain = simulate(
            &ts, &cpu, &mut AlwaysFullSpeed, &lpfps_tasks::exec::PaperGaussian,
            &SimConfig::new(horizon).with_seed(seed),
        ).unwrap();
        let mut trace = Trace::new();
        let traced = simulate_in::<FixedPriority, _>(
            &ts, &cpu, &mut AlwaysFullSpeed, &lpfps_tasks::exec::PaperGaussian,
            &SimConfig::new(horizon).with_seed(seed), &mut SimWorkspace::new(), &mut trace,
        ).unwrap();
        prop_assert_eq!(plain.energy.total_energy(), traced.energy.total_energy());
        prop_assert_eq!(plain.counters, traced.counters);
        prop_assert!(!trace.is_empty());
    }
}
