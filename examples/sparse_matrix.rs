//! Sparse matrix–vector multiply specialized to a fixed sparsity pattern —
//! the paper's "numerical codes (where … the patterns of sparsity can be
//! run-time constant)".
//!
//! Builds a banded sparse matrix, multiplies a stream of dense vectors,
//! and compares static vs dynamically compiled cycle counts.
//!
//! ```text
//! cargo run --release --example sparse_matrix
//! ```

use dyncomp::{Compiler, Session};
use std::sync::Arc;

const SRC: &str = r#"
    struct Sparse { int n; int *rowptr; int *col; double *val; };
    void spmv(struct Sparse *m, double *x, double *y) {
        dynamicRegion (m) {
            int i;
            int j;
            unrolled for (i = 0; i < m->n; i++) {
                double acc = 0.0;
                unrolled for (j = m->rowptr[i]; j < m->rowptr[i + 1]; j++) {
                    acc = acc + m->val[j] * x dynamic[ m->col[j] ];
                }
                y dynamic[ i ] = acc;
            }
        }
    }
"#;

fn main() -> Result<(), dyncomp::Error> {
    // A tridiagonal-ish band matrix of dimension n.
    let n: usize = 24;
    let mut rowptr = vec![0i64];
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..n as i64 {
        for d in [-1i64, 0, 1] {
            let c = i + d;
            if (0..n as i64).contains(&c) {
                col.push(c);
                val.push(if d == 0 { 2.0 } else { -1.0 });
            }
        }
        rowptr.push(col.len() as i64);
    }

    let mut cycles = Vec::new();
    for dynamic in [false, true] {
        let compiler = if dynamic {
            Compiler::new()
        } else {
            Compiler::static_baseline()
        };
        let program = Arc::new(compiler.compile(SRC)?);
        let mut engine = Session::new(program);
        let (mp, xp, yp) = {
            let mut h = engine.heap();
            let rp = h.array_i64(&rowptr).unwrap();
            let cl = h.array_i64(&col).unwrap();
            let vl = h.array_f64(&val).unwrap();
            let mp = h.record(&[n as u64, rp, cl, vl]).unwrap();
            let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
            let xp = h.array_f64(&x).unwrap();
            let yp = h.alloc(8 * n as u64).unwrap();
            (mp, xp, yp)
        };

        engine.call("spmv", &[mp, xp, yp])?; // warm-up / stitch
        let start = engine.cycles();
        let reps = 200u64;
        for _ in 0..reps {
            engine.call("spmv", &[mp, xp, yp])?;
        }
        let per = (engine.cycles() - start) / reps;
        cycles.push(per);

        // Verify y = A·x against a host computation (Laplacian stencil).
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
        for i in 0..n {
            let got = f64::from_bits(engine.heap().get_u64(yp + 8 * i as u64).unwrap());
            let mut want = 2.0 * x[i];
            if i > 0 {
                want -= x[i - 1];
            }
            if i + 1 < n {
                want -= x[i + 1];
            }
            assert!((got - want).abs() < 1e-12, "row {i}: {got} vs {want}");
        }
        let label = if dynamic {
            "specialized to the pattern"
        } else {
            "static CSR loop          "
        };
        println!("{label}: {per} cycles per multiply");
    }
    println!(
        "\nspeedup from baking in the sparsity pattern: {:.2}x",
        cycles[0] as f64 / cycles[1] as f64
    );
    Ok(())
}
