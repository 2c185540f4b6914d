//! Inlining workload 2: the query-compiler row filter.
//!
//! A query plan — how many predicates, each testing one row *field*
//! against a constant with one comparison *operator* — is the run-time
//! constant; the table rows are not. Predicate evaluation lives in a
//! separate `pred` helper called from the per-row matcher's dynamic
//! region, so the region crosses a function boundary once per predicate:
//! without demand-driven inlining each stitched row test performs one
//! template call and a runtime operator `switch` per predicate; with
//! `--inline-depth` the helper is pulled into the region, each operator
//! `switch` resolves at stitch time, and the comparison constants fold
//! to immediates — flat compare-and-branch code, one per predicate.
//!
//! `matchrow` returns the row's *selectivity prefix* — how many leading
//! predicates it satisfies before the first failure — so the scan's
//! checksum reflects every evaluated predicate, not just accepted rows.

use crate::Workload;
use dyncomp::{KernelSetup, Session};
use dyncomp_ir::prng::SplitMix64;

/// Operators: 0 `==`, 1 `!=`, 2 `<`, 3 `>`, 4 divisible-by, 5 mask-set.
pub const SRC: &str = r#"
    struct Query { int n; int *op; int *field; int *k; };
    int pred(int op, int v, int k) {
        int r = 0;
        switch (op) {
            case 0: r = v == k; break;
            case 1: r = v != k; break;
            case 2: r = v < k; break;
            case 3: r = v > k; break;
            case 4: r = v % k == 0; break;
            default: r = (v & k) == k; break;
        }
        return r;
    }
    int matchrow(struct Query *q, int *row) {
        dynamicRegion (q) {
            int i;
            unrolled for (i = 0; i < q->n; i++) {
                if (pred(q->op[i], row dynamic[ q->field[i] ], q->k[i]) == 0)
                    return i;
            }
            return q->n;
        }
    }
    int runquery(struct Query *q, int **rows, int n) {
        int score = 0;
        int i;
        for (i = 0; i < n; i++) score = score + matchrow(q, rows[i]);
        return score;
    }
"#;

/// A reproducible query plan over `width`-field rows.
pub struct Query {
    /// Operator per predicate (0..=5).
    pub op: Vec<i64>,
    /// Row field tested per predicate.
    pub field: Vec<i64>,
    /// Comparison constant per predicate.
    pub k: Vec<i64>,
}

/// Generate an `n`-predicate plan covering all six operators, ordered
/// loose-to-selective (`>`, `<`, mask, divisible, `!=`, `==`) so rows
/// evaluate several predicates before short-circuiting out.
pub fn gen_query(n: u64, width: u64, seed: u64) -> Query {
    let mut rng = SplitMix64::new(seed);
    const ORDER: [i64; 6] = [3, 2, 5, 4, 1, 0];
    let mut q = Query {
        op: vec![],
        field: vec![],
        k: vec![],
    };
    for i in 0..n {
        let op = ORDER[(i % 6) as usize];
        q.op.push(op);
        q.field.push(rng.range_i64(0, width as i64 - 1));
        q.k.push(match op {
            0 | 1 => rng.range_i64(0, 31), // eq / ne
            2 => rng.range_i64(24, 31),    // v < k: usually true
            3 => rng.range_i64(1, 6),      // v > k: usually true
            4 => rng.range_i64(1, 3),      // divisible-by
            _ => 1 << rng.range_i64(0, 3), // single mask bit
        });
    }
    q
}

/// Generate `n` reproducible `width`-field rows (non-negative values keep
/// `%` and `&` semantics identical on host and VM).
pub fn gen_rows(n: u64, width: u64, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..width).map(|_| rng.range_i64(0, 31)).collect())
        .collect()
}

/// Host-side reference scan: sum over rows of the selectivity prefix.
pub fn reference(q: &Query, rows: &[Vec<i64>]) -> i64 {
    let mut score = 0i64;
    for row in rows {
        let mut prefix = q.op.len() as i64;
        for i in 0..q.op.len() {
            let (v, k) = (row[q.field[i] as usize], q.k[i]);
            let m = match q.op[i] {
                0 => v == k,
                1 => v != k,
                2 => v < k,
                3 => v > k,
                4 => v % k == 0,
                _ => (v & k) == k,
            };
            if !m {
                prefix = i as i64;
                break;
            }
        }
        score += prefix;
    }
    score
}

/// Install the plan and rows; returns `(query, rows, n)`.
pub fn build(engine: &mut Session, q: &Query, rows: &[Vec<i64>]) -> (u64, u64, u64) {
    let mut h = engine.heap();
    let op = h.array_i64(&q.op).unwrap();
    let field = h.array_i64(&q.field).unwrap();
    let k = h.array_i64(&q.k).unwrap();
    let query = h.record(&[q.op.len() as u64, op, field, k]).unwrap();
    let mut ptrs = Vec::new();
    for r in rows {
        ptrs.push(h.array_i64(r).unwrap());
    }
    let rows_a = h.array_u64(&ptrs).unwrap();
    (query, rows_a, ptrs.len() as u64)
}

/// Row width used by the harness configurations.
pub const WIDTH: u64 = 8;

/// The query workload: `iterations` full scans of `n_rows` reproducible
/// rows under an `n_preds`-predicate plan.
pub fn setup(n_preds: u64, n_rows: u64, iterations: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "runquery",
        iterations,
        prepare: Box::new(move |e: &mut Session| {
            let q = gen_query(n_preds, WIDTH, 23);
            let rows = gen_rows(n_rows, WIDTH, 29);
            let (query, rows_a, n) = build(e, &q, &rows);
            vec![query, rows_a, n]
        }),
        args: Box::new(|_, p| vec![p[0], p[1], p[2]]),
    }
}

/// The row-filter row for [`setup`]`(n_preds, n_rows, iterations)`,
/// measured with the inliner off and on by `inline_bench`.
pub fn workload(n_preds: u64, n_rows: u64, iterations: u64) -> Workload {
    Workload {
        kernel: "queryexec",
        config: format!("{n_preds} predicates, {n_rows} rows"),
        setup: setup(n_preds, n_rows, iterations),
        name: "Query-compiler row filter",
        table2_config: format!("6 operators; {n_preds} predicates over {n_rows} rows"),
        unit: "rows filtered",
        unit_scale: n_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::{Compiler, EngineOptions, Session};
    use std::sync::Arc;

    #[test]
    fn filter_matches_host_reference_in_every_mode() {
        let q = gen_query(6, WIDTH, 23);
        let rows = gen_rows(40, WIDTH, 29);
        let want = reference(&q, &rows);
        let max = 6 * rows.len() as i64;
        assert!(want > max / 4, "degenerate plan: rows exit immediately");
        assert!(want < max, "degenerate plan: every row passes everything");
        for compiler in [
            Compiler::static_baseline(),
            Compiler::new(),
            Compiler::with_inline_depth(2),
        ] {
            let p = Arc::new(compiler.compile(SRC).unwrap());
            let mut e = Session::new(p);
            let (query, rows_a, n) = build(&mut e, &q, &rows);
            let got = e.call("runquery", &[query, rows_a, n]).unwrap() as i64;
            assert_eq!(got, want);
        }
    }

    #[test]
    fn inlining_creates_exactly_one_site() {
        let p = Compiler::with_inline_depth(2).compile(SRC).unwrap();
        assert_eq!(p.inline_sites.len(), 1);
        assert_eq!(p.inline_sites[0].callee_name, "pred");
    }

    #[test]
    fn inlined_measurement_beats_template_calls() {
        let w = workload(6, 30, 5);
        let plain = w
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let inlined = w
            .measure(&Compiler::with_inline_depth(2), EngineOptions::default())
            .unwrap();
        assert_eq!(plain.measurement.checksum, inlined.measurement.checksum);
        assert!(
            inlined.measurement.dynamic_cycles < plain.measurement.dynamic_cycles,
            "inlined {} vs plain {}",
            inlined.measurement.dynamic_cycles,
            plain.measurement.dynamic_cycles
        );
        let o = inlined.measurement.optimizations();
        assert!(o.static_branch_elimination, "operator switches resolved");
        assert!(o.complete_loop_unrolling);
    }
}
