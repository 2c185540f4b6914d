//! Table 2, row 2: scalar–matrix multiply (adapted from ʻC's benchmark,
//! as in the paper).
//!
//! The matrix is multiplied by every scalar `1..=n_scalars`; the region is
//! *keyed* by the scalar, so each scalar gets its own specialized multiply
//! routine — the paper's "separate code generated dynamically for each
//! distinct combination of values of the key variables". The win is
//! strength reduction: `element * scalar` becomes shifts/adds chosen for
//! the actual scalar, plus the constant trip count as an immediate.

use crate::Workload;
use dyncomp::{KernelSetup, Session};

/// The kernel: `dst[i] = src[i] * s` over a flattened matrix.
pub const SRC: &str = r#"
    int smatmul(int s, int n, int *src, int *dst) {
        dynamicRegion key(s) (s, n) {
            int i;
            for (i = 0; i < n; i++) {
                dst dynamic[ i ] = src dynamic[ i ] * s;
            }
            return dst dynamic[ n - 1 ];
        }
    }
"#;

/// Build `rows × cols` source/destination matrices; returns
/// `(src, dst, len)`.
pub fn build_matrices(engine: &mut Session, rows: u64, cols: u64) -> (u64, u64, u64) {
    let len = rows * cols;
    let data: Vec<i64> = (0..len).map(|i| (i as i64 % 97) - 48).collect();
    let mut h = engine.heap();
    let src = h.array_i64(&data).unwrap();
    let dst = h.alloc(8 * len).unwrap();
    (src, dst, len)
}

/// The smatmul workload: every scalar `1..=n_scalars` against a
/// `rows × cols` matrix (one keyed stitch per scalar).
pub fn setup(rows: u64, cols: u64, n_scalars: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "smatmul",
        iterations: n_scalars,
        prepare: Box::new(move |e: &mut Session| {
            let (src, dst, len) = build_matrices(e, rows, cols);
            vec![src, dst, len]
        }),
        args: Box::new(|i, p| vec![i + 1, p[2], p[0], p[1]]),
    }
}

/// The Table 2 row for [`setup`]`(rows, cols, n_scalars)`.
pub fn workload(rows: u64, cols: u64, n_scalars: u64) -> Workload {
    Workload {
        kernel: "smatmul",
        config: format!("{rows}x{cols}, scalars 1..{n_scalars}"),
        setup: setup(rows, cols, n_scalars),
        name: "Scalar-matrix multiply",
        table2_config: format!("{rows}x{cols} matrix, multiplied by all scalars 1..{n_scalars}"),
        unit: "individual multiplications",
        unit_scale: rows * cols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::{Compiler, EngineOptions, Session};
    use std::sync::Arc;

    #[test]
    fn multiplies_correctly_per_scalar() {
        let p = Arc::new(Compiler::new().compile(SRC).unwrap());
        let mut e = Session::new(p);
        let (src, dst, len) = build_matrices(&mut e, 3, 4);
        for s in [1u64, 2, 7] {
            e.call("smatmul", &[s, len, src, dst]).unwrap();
            for i in 0..len {
                let a = e.heap().get_u64(src + 8 * i).unwrap() as i64;
                let b = e.heap().get_u64(dst + 8 * i).unwrap() as i64;
                assert_eq!(b, a * s as i64, "s={s} i={i}");
            }
        }
        // One stitched instance per scalar key.
        assert_eq!(e.region_report(0).stitches, 3);
    }

    #[test]
    fn small_measurement_strength_reduces() {
        let r = workload(4, 8, 6)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let m = &r.measurement;
        assert!(m.stitch.strength_reductions > 0, "{:?}", m.stitch);
        let o = m.optimizations();
        assert!(o.constant_folding);
        assert!(o.strength_reduction);
        assert!(!o.complete_loop_unrolling, "the element loop is dynamic");
    }
}
