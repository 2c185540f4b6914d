//! Table 2, row 1: the reverse-polish stack-based desk calculator.
//!
//! The run-time constant is the *program* being interpreted — the paper's
//! canonical "interpreter whose interpreted program is invariant" example.
//! The interpreted expression is the paper's:
//!
//! ```text
//! x·y − 3·y² − x² + (x+5)·(y−x) + x + y − 1
//! ```
//!
//! Dynamic compilation completely unrolls the fetch–decode loop over the
//! constant instruction array, resolves each opcode's `switch` (a constant
//! switch per unrolled copy), and patches pushed literals as immediates —
//! the interpreter compiles itself away.

use crate::{KernelResult, Workload};
use dyncomp::{Compiler, EngineOptions, Error, KernelSetup, Session};

/// Opcodes: 0 push-literal, 1 push-x, 2 push-y, 3 add, 4 sub, 5 mul.
pub const SRC: &str = r#"
    struct Prog { int n; int *ops; int *args; };
    int calc(struct Prog *p, int x, int y) {
        dynamicRegion (p) {
            int stack[32];
            int sp = 0;
            int i;
            unrolled for (i = 0; i < p->n; i++) {
                switch (p->ops[i]) {
                    case 0: stack[sp] = p->args[i]; sp = sp + 1; break;
                    case 1: stack[sp] = x; sp = sp + 1; break;
                    case 2: stack[sp] = y; sp = sp + 1; break;
                    case 3: sp = sp - 1; stack[sp - 1] = stack[sp - 1] + stack[sp]; break;
                    case 4: sp = sp - 1; stack[sp - 1] = stack[sp - 1] - stack[sp]; break;
                    default: sp = sp - 1; stack[sp - 1] = stack[sp - 1] * stack[sp]; break;
                }
            }
            return stack[0];
        }
    }
"#;

/// The register-actions variant (§5): the operand stack is a *global*
/// array, so `gstack[sp]` with a constant `sp` is a run-time-constant
/// address — exactly the "array loads and stores through run-time
/// constant offsets" the paper's register actions promote to registers.
/// Reads are annotated `dynamic[...]` because the region itself writes the
/// stack (§2: "a load through a constant pointer whose target has been
/// modified … should use dynamic*"). The stack is pure scratch (dead
/// outside the region), so promotion without write-back is sound.
pub const SRC_GLOBAL_STACK: &str = r#"
    int gstack[32];
    struct Prog { int n; int *ops; int *args; };
    int calc(struct Prog *p, int x, int y) {
        dynamicRegion (p) {
            int sp = 0;
            int i;
            unrolled for (i = 0; i < p->n; i++) {
                switch (p->ops[i]) {
                    case 0: gstack[sp] = p->args[i]; sp = sp + 1; break;
                    case 1: gstack[sp] = x; sp = sp + 1; break;
                    case 2: gstack[sp] = y; sp = sp + 1; break;
                    case 3: sp = sp - 1;
                            gstack[sp - 1] = gstack dynamic[ sp - 1 ] + gstack dynamic[ sp ];
                            break;
                    case 4: sp = sp - 1;
                            gstack[sp - 1] = gstack dynamic[ sp - 1 ] - gstack dynamic[ sp ];
                            break;
                    default: sp = sp - 1;
                            gstack[sp - 1] = gstack dynamic[ sp - 1 ] * gstack dynamic[ sp ];
                            break;
                }
            }
            return gstack dynamic[ 0 ];
        }
    }
"#;

/// The paper's expression in RPN:
/// `x y * 3 y y * * - x x * - x 5 + y x - * + x + y + 1 -`.
pub fn program() -> (Vec<i64>, Vec<i64>) {
    // (opcode, literal) pairs.
    let insts: &[(i64, i64)] = &[
        (1, 0), // x
        (2, 0), // y
        (5, 0), // *
        (0, 3), // 3
        (2, 0), // y
        (2, 0), // y
        (5, 0), // *
        (5, 0), // *
        (4, 0), // -
        (1, 0), // x
        (1, 0), // x
        (5, 0), // *
        (4, 0), // -
        (1, 0), // x
        (0, 5), // 5
        (3, 0), // +
        (2, 0), // y
        (1, 0), // x
        (4, 0), // -
        (5, 0), // *
        (3, 0), // +
        (1, 0), // x
        (3, 0), // +
        (2, 0), // y
        (3, 0), // +
        (0, 1), // 1
        (4, 0), // -
    ];
    (
        insts.iter().map(|&(o, _)| o).collect(),
        insts.iter().map(|&(_, a)| a).collect(),
    )
}

/// The interpreted expression, natively, for cross-checking.
pub fn expected(x: i64, y: i64) -> i64 {
    x * y - 3 * y * y - x * x + (x + 5) * (y - x) + x + y - 1
}

/// Build the constant program in VM memory; returns the `Prog*`.
pub fn build_program(engine: &mut Session) -> u64 {
    let (ops, args) = program();
    let mut h = engine.heap();
    let ops_a = h.array_i64(&ops).unwrap();
    let args_a = h.array_i64(&args).unwrap();
    h.record(&[ops.len() as u64, ops_a, args_a]).unwrap()
}

/// The calculator workload: `iterations` interpretations with varying
/// `x`, `y` (shared by [`workload`] and the concurrency harnesses).
pub fn setup(iterations: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "calc",
        iterations,
        prepare: Box::new(|e: &mut Session| vec![build_program(e)]),
        args: Box::new(|i, p| {
            let x = (i % 23) as i64 - 11;
            let y = (i % 17) as i64 - 8;
            vec![p[0], x as u64, y as u64]
        }),
    }
}

/// The Table 2 row for [`setup`]`(iterations)`.
pub fn workload(iterations: u64) -> Workload {
    Workload {
        kernel: "calculator",
        config: format!("{iterations} interpretations"),
        setup: setup(iterations),
        name: "Reverse-polish stack-based desk calculator",
        table2_config: format!("{iterations} interpretations, varying x, y"),
        unit: "interpretations",
        unit_scale: 1,
    }
}

/// Measure the global-stack variant, optionally with register actions
/// promoting up to `k` stack slots (the paper's §5 experiment: 1.7× → 4.1×).
pub fn measure_regactions(iterations: u64, k: Option<usize>) -> Result<KernelResult, Error> {
    let setup = KernelSetup {
        src: SRC_GLOBAL_STACK,
        func: "calc",
        iterations,
        prepare: Box::new(|e: &mut Session| vec![build_program(e)]),
        args: Box::new(|i, p| {
            let x = (i % 23) as i64 - 11;
            let y = (i % 17) as i64 - 8;
            vec![p[0], x as u64, y as u64]
        }),
    };
    let mut opts = EngineOptions::default();
    opts.stitch.register_actions = k;
    let m = dyncomp::measure_kernel_full(&setup, &Compiler::new(), opts)?;
    Ok(KernelResult {
        name: "Calculator (global stack)",
        config: match k {
            Some(k) => format!("{iterations} interpretations, register actions k={k}"),
            None => format!("{iterations} interpretations, no register actions"),
        },
        unit: "interpretations",
        unit_scale: 1,
        measurement: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::Session;
    use std::sync::Arc;

    #[test]
    fn interpreter_matches_native_expression() {
        for dynamic in [false, true] {
            let c = if dynamic {
                Compiler::new()
            } else {
                Compiler::static_baseline()
            };
            let p = Arc::new(c.compile(SRC).unwrap());
            let mut e = Session::new(p);
            let prog = build_program(&mut e);
            for (x, y) in [(2i64, 3i64), (0, 0), (-4, 7), (10, -10)] {
                let r = e.call("calc", &[prog, x as u64, y as u64]).unwrap() as i64;
                assert_eq!(r, expected(x, y), "x={x} y={y} dyn={dynamic}");
            }
        }
    }

    #[test]
    fn global_stack_variant_matches_native() {
        for dynamic in [false, true] {
            let c = if dynamic {
                Compiler::new()
            } else {
                Compiler::static_baseline()
            };
            let p = Arc::new(c.compile(SRC_GLOBAL_STACK).unwrap());
            let mut e = Session::new(p);
            let prog = build_program(&mut e);
            for (x, y) in [(2i64, 3i64), (-1, 4)] {
                let r = e.call("calc", &[prog, x as u64, y as u64]).unwrap() as i64;
                assert_eq!(r, expected(x, y), "x={x} y={y} dyn={dynamic}");
            }
        }
    }

    #[test]
    fn register_actions_preserve_results_and_remove_accesses() {
        let base = measure_regactions(40, None).unwrap();
        let ra = measure_regactions(40, Some(6)).unwrap();
        assert_eq!(base.measurement.checksum, ra.measurement.checksum);
        let s = &ra.measurement.stitch;
        assert!(s.regaction_promoted > 0, "stack slots promoted: {s:?}");
        assert!(
            s.regaction_loads_removed + s.regaction_stores_rewritten > 0,
            "accesses rewritten: {s:?}"
        );
        assert!(
            ra.measurement.dynamic_cycles < base.measurement.dynamic_cycles,
            "register actions speed up the stitched code: {} vs {}",
            ra.measurement.dynamic_cycles,
            base.measurement.dynamic_cycles
        );
    }

    #[test]
    fn small_measurement_speeds_up() {
        let r = workload(60)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let m = &r.measurement;
        assert!(
            m.speedup > 1.0,
            "interpreter should speed up, got {:.3}",
            m.speedup
        );
        let o = m.optimizations();
        assert!(o.constant_folding);
        assert!(o.static_branch_elimination, "opcode switches eliminated");
        assert!(o.load_elimination, "ops/args loads eliminated");
        assert!(o.complete_loop_unrolling);
    }
}
