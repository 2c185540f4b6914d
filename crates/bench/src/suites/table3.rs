//! Regenerate the paper's **Table 3**: which optimizations were applied
//! dynamically, per benchmark.
//!
//! Usage: `bench table3 [--smoke]`

use crate::driver::{Args, Report};
use crate::{run_all, table3_header};

pub fn run(args: &Args) -> Report {
    let scale = args.scale;
    println!("Table 3: Optimizations Applied Dynamically ({scale:?} scale)");
    println!("{}", table3_header());
    println!("{}", "-".repeat(90));
    let rows = run_all(scale).unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    });
    // Table 3 has one row per benchmark (not per configuration).
    let mut seen = std::collections::HashSet::new();
    for row in &rows {
        if seen.insert(row.name) {
            println!("{}", row.table3_row());
        }
    }
    println!();
    println!("Columns: constant folding, static branch elimination, load elimination,");
    println!("dead code elimination, complete loop unrolling, strength reduction.");
    Report::default()
}
