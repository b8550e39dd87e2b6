//! Reproduces **Table 2**: the task sets used in the experiments.
//!
//! Usage: `cargo run --release --bin table2_summary [--json out.json]`

use lpfps_sweep::Cli;
use lpfps_workloads::{applications, table2};

fn main() {
    let parsed = Cli::new("table2_summary", "Table 2: the experiment task sets")
        .json()
        .parse();
    println!("Table 2: task sets for experiments");
    println!(
        "{:<16} {:>7} {:>22} {:>12}",
        "application", "#tasks", "range of WCETs (us)", "utilization"
    );
    let apps = applications();
    for (row, ts) in table2().iter().zip(&apps) {
        println!(
            "{:<16} {:>7} {:>9} ~ {:>10} {:>12.3}",
            row.application,
            row.tasks,
            row.wcet_min.as_us(),
            row.wcet_max.as_us(),
            ts.utilization(),
        );
    }
    println!();
    for ts in &apps {
        println!("{ts}");
    }
    parsed.write_json(&table2());
}
