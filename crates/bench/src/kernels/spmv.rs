//! Table 2, rows 3–4: sparse matrix–vector multiply.
//!
//! The sparse matrix — its dimensions, sparsity structure *and* values —
//! is the run-time constant (the paper's "patterns of sparsity can be
//! run-time constant"). Dynamic compilation fully unrolls both the row
//! loop and each row's element loop, eliminates the `rowptr`/`col` index
//! loads (they become immediate offsets into the dense vector), and
//! patches the matrix values through the linearized constants table
//! (floats never fit immediates, §4).

use crate::Workload;
use dyncomp::{KernelSetup, Session};
use dyncomp_ir::prng::SplitMix64;

/// CSR sparse matrix–vector multiply; returns a scaled-integer checksum of
/// the result so both compilations can be cross-checked.
pub const SRC: &str = r#"
    struct Sparse { int n; int *rowptr; int *col; double *val; };
    int spmv(struct Sparse *m, double *x, double *y) {
        dynamicRegion (m) {
            int chk = 0;
            int i;
            int j;
            unrolled for (i = 0; i < m->n; i++) {
                double acc = 0.0;
                unrolled for (j = m->rowptr[i]; j < m->rowptr[i + 1]; j++) {
                    acc = acc + m->val[j] * x dynamic[ m->col[j] ];
                }
                y dynamic[ i ] = acc;
                chk = chk + (int) (acc * 16.0);
            }
            return chk;
        }
    }
"#;

/// A reproducible random CSR matrix with ~`per_row` entries per row.
pub struct Csr {
    /// Dimension (square).
    pub n: u64,
    /// Row pointers (n+1).
    pub rowptr: Vec<i64>,
    /// Column indices.
    pub col: Vec<i64>,
    /// Values.
    pub val: Vec<f64>,
}

/// Generate the matrix.
pub fn gen_matrix(n: u64, per_row: u64, seed: u64) -> Csr {
    let mut rng = SplitMix64::new(seed);
    let mut rowptr = vec![0i64];
    let mut col = Vec::new();
    let mut val = Vec::new();
    for _ in 0..n {
        let mut cols: Vec<i64> = (0..per_row).map(|_| rng.below(n) as i64).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            col.push(c);
            val.push(rng.range_f64(-2.0, 2.0));
        }
        rowptr.push(col.len() as i64);
    }
    Csr {
        n,
        rowptr,
        col,
        val,
    }
}

/// Install the matrix and a dense vector in VM memory; returns
/// `(matrix_ptr, x_ptr, y_ptr)`.
pub fn build(engine: &mut Session, m: &Csr) -> (u64, u64, u64) {
    let x: Vec<f64> = (0..m.n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut h = engine.heap();
    let rowptr = h.array_i64(&m.rowptr).unwrap();
    let col = h.array_i64(&m.col).unwrap();
    let val = h.array_f64(&m.val).unwrap();
    let mp = h.record(&[m.n, rowptr, col, val]).unwrap();
    let xp = h.array_f64(&x).unwrap();
    let yp = h.alloc(8 * m.n).unwrap();
    (mp, xp, yp)
}

/// Host-side reference result (the checksum the kernel computes).
pub fn reference_checksum(m: &Csr) -> i64 {
    let x: Vec<f64> = (0..m.n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut chk = 0i64;
    for i in 0..m.n as usize {
        let mut acc = 0.0;
        for j in m.rowptr[i] as usize..m.rowptr[i + 1] as usize {
            acc += m.val[j] * x[m.col[j] as usize];
        }
        chk += (acc * 16.0) as i64;
    }
    chk
}

/// The spmv workload: `iterations` multiplications of a reproducible
/// `n × n` matrix with `per_row` entries per row.
pub fn setup(n: u64, per_row: u64, iterations: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "spmv",
        iterations,
        prepare: Box::new(move |e: &mut Session| {
            let m = gen_matrix(n, per_row, 42);
            let (mp, xp, yp) = build(e, &m);
            vec![mp, xp, yp]
        }),
        args: Box::new(|_, p| vec![p[0], p[1], p[2]]),
    }
}

/// The Table 2 row for [`setup`]`(n, per_row, iterations)`.
pub fn workload(n: u64, per_row: u64, iterations: u64) -> Workload {
    let density = 100.0 * per_row as f64 / n as f64;
    Workload {
        kernel: "spmv",
        config: format!("{n}x{n}, {per_row}/row"),
        setup: setup(n, per_row, iterations),
        name: "Sparse matrix-vector multiply",
        table2_config: format!("{n}x{n} matrix, {per_row} elements/row, {density:.0}% density"),
        unit: "matrix multiplications",
        unit_scale: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::{Compiler, EngineOptions, Session};
    use std::sync::Arc;

    #[test]
    fn result_matches_host_reference() {
        let m = gen_matrix(8, 3, 7);
        let want = reference_checksum(&m);
        for dynamic in [false, true] {
            let c = if dynamic {
                Compiler::new()
            } else {
                Compiler::static_baseline()
            };
            let p = Arc::new(c.compile(SRC).unwrap());
            let mut e = Session::new(p);
            let (mp, xp, yp) = build(&mut e, &m);
            let got = e.call("spmv", &[mp, xp, yp]).unwrap() as i64;
            assert_eq!(got, want, "dyn={dynamic}");
            // y is actually written.
            let y0 = f64::from_bits(e.heap().get_u64(yp).unwrap());
            assert!(y0.is_finite());
        }
    }

    #[test]
    fn small_measurement_unrolls_and_eliminates_loads() {
        let r = workload(6, 2, 25)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let m = &r.measurement;
        let o = m.optimizations();
        assert!(o.complete_loop_unrolling);
        assert!(o.load_elimination, "rowptr/col/val loads eliminated");
        assert!(o.constant_folding);
        assert!(
            m.stitch.holes_big > 0,
            "float values through the linearized table"
        );
        assert!(m.speedup > 1.0, "got {:.3}", m.speedup);
    }
}
