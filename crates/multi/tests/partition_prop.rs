//! Property-based verification of the partitioners, over random
//! UUniFast-generated task sets:
//!
//! * every task lands on exactly one core, and the per-core sets are an
//!   exact partition of the parent (names, counts, utilization mass);
//! * every core [`PartitionerKind::RtaFf`] admits passes exact
//!   response-time analysis;
//! * the capacity allocators and the RTA gate are *permutation
//!   deterministic*: shuffling the declaration order never changes the
//!   task → core mapping (the placement order is intrinsic);
//! * unpartitionable sets return a structured [`PartitionError`] — never
//!   a panic — and zero cores is always [`PartitionError::NoCores`].

use lpfps_multi::PartitionError;
use lpfps_multi::{Partitioner, PartitionerKind};
use lpfps_tasks::analysis::rta_schedulable;
use lpfps_tasks::gen::{generate, GenConfig};
use lpfps_tasks::rng::SplitMix64;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn random_set(seed: u64, n: usize, util_pct: u64) -> TaskSet {
    let cfg = GenConfig::new(n, util_pct as f64 / 100.0)
        .with_periods(Dur::from_us(200), Dur::from_ms(20));
    generate(&cfg, seed)
}

/// A seeded Fisher–Yates shuffle of the declaration order. Task names
/// are unique, so the intrinsic placement order is total and the
/// assignment must not move.
fn shuffled(ts: &TaskSet, seed: u64) -> TaskSet {
    let mut tasks: Vec<Task> = ts.tasks().to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..tasks.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        tasks.swap(i, j);
    }
    TaskSet::rate_monotonic("shuffled", tasks)
}

/// The task name → core map of a partition.
fn placement(ts: &TaskSet, p: &lpfps_multi::Partition) -> BTreeMap<String, usize> {
    ts.tasks()
        .iter()
        .zip(&p.assignment)
        .map(|(t, &k)| (t.name().to_string(), k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_task_is_assigned_exactly_once(
        set_seed in 0u64..=10_000,
        n in 3usize..=8,
        util_pct in 30u64..=90,
        cores in 1usize..=4,
    ) {
        let ts = random_set(set_seed, n, util_pct);
        for kind in PartitionerKind::ALL {
            // A structured error is acceptable (the set may genuinely not
            // fit); a panic or a malformed partition is not.
            let Ok(p) = kind.partition(&ts, cores) else { continue };
            prop_assert_eq!(p.assignment.len(), ts.len());
            prop_assert!(p.assignment.iter().all(|&k| k < cores));
            prop_assert_eq!(p.cores.len(), cores);
            let mut names: Vec<&str> = p
                .cores
                .iter()
                .flatten()
                .flat_map(|s| s.tasks().iter().map(Task::name))
                .collect();
            names.sort_unstable();
            let mut expected: Vec<&str> = ts.tasks().iter().map(Task::name).collect();
            expected.sort_unstable();
            prop_assert_eq!(names, expected, "{} must partition the set", kind.name());
            for k in 0..cores {
                prop_assert_eq!(
                    p.tasks_on(k),
                    p.cores[k].as_ref().map_or(0, TaskSet::len)
                );
            }
            let mass: f64 = p.utilizations.iter().sum();
            prop_assert!((mass - ts.utilization()).abs() < 1e-9);
        }
    }

    #[test]
    fn rta_admitted_cores_pass_response_time_analysis(
        set_seed in 0u64..=10_000,
        n in 3usize..=8,
        util_pct in 30u64..=90,
        cores in 1usize..=4,
    ) {
        let ts = random_set(set_seed, n, util_pct);
        let Ok(p) = PartitionerKind::RtaFf.partition(&ts, cores) else { return Ok(()) };
        for set in p.cores.iter().flatten() {
            prop_assert!(
                rta_schedulable(set),
                "rta-ff emitted an unschedulable core: {}",
                set.name()
            );
        }
    }

    #[test]
    fn partitioners_are_permutation_deterministic(
        set_seed in 0u64..=10_000,
        shuffle_seed in 1u64..=10_000,
        n in 3usize..=8,
        util_pct in 30u64..=90,
        cores in 2usize..=4,
    ) {
        let ts = random_set(set_seed, n, util_pct);
        let permuted = shuffled(&ts, shuffle_seed);
        for kind in PartitionerKind::ALL {
            match (kind.partition(&ts, cores), kind.partition(&permuted, cores)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    placement(&ts, &a),
                    placement(&permuted, &b),
                    "{} moved tasks under permutation",
                    kind.name()
                ),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "{}: outcome flipped under permutation ({} vs {})",
                    kind.name(),
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    #[test]
    fn overloaded_sets_fail_with_structured_errors(
        cores in 1usize..=4,
        extra in 1usize..=3,
        period_us in 100u64..=10_000,
    ) {
        // cores + extra tasks at utilization 0.9 each: every core fits at
        // most one, so every allocator must refuse — with a typed error,
        // not a panic.
        let tasks: Vec<Task> = (0..cores + extra)
            .map(|i| {
                Task::new(
                    format!("heavy{i}"),
                    Dur::from_us(period_us),
                    Dur::from_ns(period_us * 900),
                )
            })
            .collect();
        let ts = TaskSet::rate_monotonic("overloaded", tasks);
        for kind in PartitionerKind::ALL {
            match kind.partition(&ts, cores) {
                Err(
                    PartitionError::CapacityExceeded { .. }
                    | PartitionError::Unschedulable { .. },
                ) => {}
                other => prop_assert!(
                    false,
                    "{} must refuse an overloaded set, got {:?}",
                    kind.name(),
                    other.map(|p| p.assignment)
                ),
            }
        }
    }
}

#[test]
fn zero_cores_is_always_no_cores() {
    let ts = random_set(1, 4, 50);
    for kind in PartitionerKind::ALL {
        assert!(matches!(
            kind.partition(&ts, 0),
            Err(PartitionError::NoCores)
        ));
    }
}

#[test]
fn kind_names_round_trip() {
    for kind in PartitionerKind::ALL {
        assert_eq!(PartitionerKind::parse(kind.name()), Some(kind));
    }
    assert_eq!(PartitionerKind::parse("round-robin"), None);
}
