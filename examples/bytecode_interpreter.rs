//! An interpreter that compiles itself away — the paper's flagship use
//! case ("interpreters, where the data structure that represents the
//! program being interpreted is the run-time constant").
//!
//! A tiny stack bytecode is interpreted by an annotated MiniC interpreter;
//! dynamic compilation unrolls the fetch–decode loop over the constant
//! bytecode and resolves every opcode switch, leaving straight-line
//! arithmetic. The example prints per-interpretation cycle counts for the
//! static interpreter vs the dynamically compiled one.
//!
//! ```text
//! cargo run --release --example bytecode_interpreter
//! ```

use dyncomp::{Compiler, Session};
use std::sync::Arc;

const SRC: &str = r#"
    /* opcodes: 0 lit, 1 arg0, 2 arg1, 3 add, 4 sub, 5 mul, 6 neg, 7 dup */
    struct Prog { int n; int *ops; int *lits; };
    int run(struct Prog *p, int a, int b) {
        dynamicRegion (p) {
            int stack[64];
            int sp = 0;
            int i;
            unrolled for (i = 0; i < p->n; i++) {
                switch (p->ops[i]) {
                    case 0: stack[sp] = p->lits[i]; sp = sp + 1; break;
                    case 1: stack[sp] = a; sp = sp + 1; break;
                    case 2: stack[sp] = b; sp = sp + 1; break;
                    case 3: sp = sp - 1; stack[sp - 1] = stack[sp - 1] + stack[sp]; break;
                    case 4: sp = sp - 1; stack[sp - 1] = stack[sp - 1] - stack[sp]; break;
                    case 5: sp = sp - 1; stack[sp - 1] = stack[sp - 1] * stack[sp]; break;
                    case 6: stack[sp - 1] = 0 - stack[sp - 1]; break;
                    default: stack[sp] = stack[sp - 1]; sp = sp + 1; break;
                }
            }
            return stack[0];
        }
    }
"#;

/// A tiny assembler for the bytecode.
#[derive(Clone, Copy)]
#[allow(dead_code)] // demo ISA is complete even where the demo program isn't
enum BcOp {
    Lit(i64),
    Arg0,
    Arg1,
    Add,
    Sub,
    Mul,
    Neg,
    Dup,
}

fn assemble(prog: &[BcOp]) -> (Vec<i64>, Vec<i64>) {
    let mut ops = Vec::new();
    let mut lits = Vec::new();
    for &op in prog {
        let (o, l) = match op {
            BcOp::Lit(v) => (0, v),
            BcOp::Arg0 => (1, 0),
            BcOp::Arg1 => (2, 0),
            BcOp::Add => (3, 0),
            BcOp::Sub => (4, 0),
            BcOp::Mul => (5, 0),
            BcOp::Neg => (6, 0),
            BcOp::Dup => (7, 0),
        };
        ops.push(o);
        lits.push(l);
    }
    (ops, lits)
}

fn main() -> Result<(), dyncomp::Error> {
    // (a*a + b*b) * 3 - a, via the stack machine (with a dup and a neg for
    // opcode coverage).
    use BcOp::*;
    let bytecode = [
        Arg0,
        Dup,
        Mul, // a*a
        Arg1,
        Dup,
        Mul, // b*b
        Add,
        Lit(3),
        Mul,
        Arg0,
        Neg,
        Add, // ... - a  == + (-a)
    ];
    let (ops, lits) = assemble(&bytecode);
    let native = |a: i64, b: i64| (a * a + b * b) * 3 - a;

    let mut results = Vec::new();
    for dynamic in [false, true] {
        let compiler = if dynamic {
            Compiler::new()
        } else {
            Compiler::static_baseline()
        };
        let program = Arc::new(compiler.compile(SRC)?);
        let mut engine = Session::new(program);
        let prog = {
            let mut h = engine.heap();
            let ops_a = h.array_i64(&ops).unwrap();
            let lits_a = h.array_i64(&lits).unwrap();
            h.record(&[ops.len() as u64, ops_a, lits_a]).unwrap()
        };

        // Warm up (first dynamic call pays set-up + stitching).
        engine.call("run", &[prog, 1, 1])?;
        let start = engine.cycles();
        let n = 500u64;
        for i in 0..n {
            let (a, b) = ((i % 13) as i64 - 6, (i % 7) as i64 - 3);
            let r = engine.call("run", &[prog, a as u64, b as u64])? as i64;
            assert_eq!(r, native(a, b), "a={a} b={b}");
        }
        let per_call = (engine.cycles() - start) / n;
        let label = if dynamic {
            "dynamically compiled"
        } else {
            "static interpreter  "
        };
        println!("{label}: {per_call} cycles per interpretation");
        results.push(per_call);
    }
    println!(
        "\nspeedup from compiling the interpreter away: {:.2}x",
        results[0] as f64 / results[1] as f64
    );
    Ok(())
}
