//! The §5 register-actions experiment: the paper reports the calculator's
//! speedup rising from 1.7× to 4.1× when the stitcher additionally
//! allocates constant-offset array elements (the operand stack) to
//! registers.
//!
//! Usage: `bench regactions [--smoke]`

use crate::driver::{Args, Report};
use crate::kernels::calculator;
use crate::Scale;

pub fn run(args: &Args) -> Report {
    let iters = match args.scale {
        Scale::Smoke => 100,
        Scale::Paper => 2000,
    };
    println!("Register actions experiment (calculator, {iters} interpretations)");
    println!();

    let base = calculator::measure_regactions(iters, None).unwrap_or_else(die);
    let ra = calculator::measure_regactions(iters, Some(4)).unwrap_or_else(die);
    assert_eq!(
        base.measurement.checksum, ra.measurement.checksum,
        "results must agree"
    );

    for (label, r) in [
        ("without register actions", &base),
        ("with register actions", &ra),
    ] {
        let m = &r.measurement;
        println!(
            "{label:<26}: speedup {:>5.2}x  (static {:.0} / dynamic {:.0} cycles per interpretation)",
            m.speedup, m.static_cycles, m.dynamic_cycles
        );
    }
    let s = &ra.measurement.stitch;
    println!();
    println!(
        "promoted {} stack addresses; rewrote {} loads (incl. dead address loads) and {} stores",
        s.regaction_promoted, s.regaction_loads_removed, s.regaction_stores_rewritten
    );
    println!(
        "speedup improvement factor: {:.2}x -> {:.2}x (paper: 1.7x -> 4.1x)",
        base.measurement.speedup, ra.measurement.speedup
    );
    Report::default()
}

fn die<T>(e: dyncomp::Error) -> T {
    eprintln!("experiment failed: {e}");
    std::process::exit(1);
}
