//! Reproduces **Figure 1**: the ratio between BCET and WCET for a number
//! of applications (data after Ernst & Ye, ICCAD 1997).
//!
//! Usage: `cargo run --release --bin fig1_bcet_ratio [--json out.json]`

use lpfps_sweep::Cli;
use lpfps_workloads::{bcet_ratios, BenchmarkClass};

fn main() {
    let parsed = Cli::new(
        "fig1_bcet_ratio",
        "Figure 1: BCET/WCET ratio per application (Ernst & Ye data)",
    )
    .json()
    .parse();
    println!("Figure 1: BCET/WCET ratio per application");
    println!("{:<20} {:>8}  {:<16} bar", "application", "ratio", "class");
    for b in bcet_ratios() {
        let class = match b.class {
            BenchmarkClass::DataIndependent => "data-independent",
            BenchmarkClass::DataDependent => "data-dependent",
        };
        let bar = "#".repeat((b.ratio * 40.0).round() as usize);
        println!("{:<20} {:>8.2}  {:<16} {bar}", b.name, b.ratio, class);
    }
    let min = bcet_ratios()
        .iter()
        .map(|b| b.ratio)
        .fold(f64::MAX, f64::min);
    let max = bcet_ratios()
        .iter()
        .map(|b| b.ratio)
        .fold(f64::MIN, f64::max);
    println!();
    println!(
        "ratios span {min:.2}..{max:.2}: execution times frequently deviate far \
         below the WCET, the slack LPFPS reclaims"
    );
    parsed.write_json(&bcet_ratios().to_vec());
}
