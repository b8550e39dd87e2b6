//! Outputs recorded at the seed commit for the default workload seed.
//!
//! Each workload's default-seed batch must reproduce the FNV-1a digest of
//! its results payload and its deterministic work counts exactly. A
//! change that moves them changed what the simulator computes; re-record
//! only deliberately, with `--print-golden`.

use crate::workload::{run_batch, Counts, Kind, Workload, DEFAULT_SEED};

/// `(digest, counts)` of the default-seed batch of `kind`.
pub fn expected(kind: Kind) -> (u64, Counts) {
    let (digest, c) = match kind {
        Kind::Fig8Gaussian => (
            0xd9b0a53e39de7dc4,
            [
                240, 914919, 642969, 449288, 365520, 176392, 95462, 0, 0, 240,
            ],
        ),
        Kind::LongHorizonWcet => (
            0xe6b9297f7cde9313,
            [
                20, 9914100, 8619550, 7674250, 6869500, 863100, 344200, 960, 9517536, 20,
            ],
        ),
        Kind::TinyCells => (
            0x2560b93c13b5f3f4,
            [
                1800, 209323, 167586, 137953, 129600, 26612, 15760, 0, 0, 1800,
            ],
        ),
        Kind::MulticoreFleet => (
            0xdda190147e4ad6dc,
            [
                96, 2413149, 1610995, 1029690, 811620, 502926, 299348, 0, 0, 324,
            ],
        ),
    };
    (
        digest,
        Counts {
            cells: c[0],
            events: c[1],
            sched_passes: c[2],
            dispatches: c[3],
            releases: c[4],
            ramps: c[5],
            power_downs: c[6],
            cycles_detected: c[7],
            events_skipped: c[8],
            cores_used: c[9],
        },
    )
}

/// Prints the current default-seed digests and counts in the form
/// [`expected`] takes them.
pub fn print_current() {
    for kind in Kind::ALL {
        let w = Workload::build(kind, DEFAULT_SEED, kind.workers(2));
        let b = run_batch(&w, w.workers);
        let c = b.counts;
        println!(
            "Kind::{kind:?} => ({:#018x}, [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}]),",
            b.digest,
            c.cells,
            c.events,
            c.sched_passes,
            c.dispatches,
            c.releases,
            c.ramps,
            c.power_downs,
            c.cycles_detected,
            c.events_skipped,
            c.cores_used
        );
    }
}
