//! Quickstart: compile an annotated C function, run it on the simulated
//! machine, and watch the dynamic compiler work.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dyncomp::{Compiler, Session};
use std::sync::Arc;

fn main() -> Result<(), dyncomp::Error> {
    // A polynomial whose coefficient vector is fixed at run time: the
    // `dynamicRegion (coef, n)` annotation promises `coef` and `n` never
    // change after the first execution, so the compiler may specialize.
    let src = r#"
        int horner(int *coef, int n, int x) {
            dynamicRegion (coef, n) {
                int acc = 0;
                int i;
                unrolled for (i = 0; i < n; i++) {
                    acc = acc * x + coef[i];
                }
                return acc;
            }
        }
    "#;

    // Static compiler: analyses, region splitting, templates, codegen.
    let program = Arc::new(Compiler::new().compile(src)?);
    println!(
        "compiled: {} region(s), {} template instruction(s), {} table slot(s)",
        program.region_count(),
        program.compiled.regions[0].template.template_words(),
        program.compiled.regions[0].table_static_len,
    );

    // Run-time: build the constant data, call the function.
    let mut engine = Session::new(Arc::clone(&program));
    let coef = engine.heap().array_i64(&[2, -3, 0, 7]).unwrap();

    // First call: set-up code runs, the stitcher instantiates the
    // template, and the region entry is patched to branch straight to the
    // stitched code.
    let first_start = engine.cycles();
    let v = engine.call("horner", &[coef, 4, 10])?;
    let first = engine.cycles() - first_start;
    println!("horner(x=10) = {v}   (first call: {first} cycles, includes set-up)");
    assert_eq!(v as i64, 2 * 1000 - 3 * 100 + 7);

    // Later calls run the specialized code: the loop is fully unrolled,
    // the coefficients are immediates, the loads are gone.
    let again_start = engine.cycles();
    let v = engine.call("horner", &[coef, 4, 2])?;
    let again = engine.cycles() - again_start;
    println!("horner(x=2)  = {v}   (warm call: {again} cycles)");
    assert_eq!(v as i64, 2 * 8 - 3 * 4 + 7);

    let report = engine.region_report(0);
    println!();
    println!("dynamic compilation report:");
    println!("  stitched once:        {}", report.stitches == 1);
    println!("  set-up cycles:        {}", report.setup_cycles);
    println!("  stitcher cycles:      {}", report.stitch_cycles);
    println!("  instructions emitted: {}", report.instructions_stitched);
    println!(
        "  loop iterations unrolled: {}",
        report.stitch_stats.loop_iterations
    );
    println!(
        "  constants patched inline: {}",
        report.stitch_stats.holes_inline
    );
    Ok(())
}
