//! Table 2, rows 6–7: the QuickSort record sorter (extended from Keppel,
//! Eggers & Henry, as in the paper).
//!
//! Records are compared by a multi-key comparator whose key specification
//! — how many keys, at which offsets, each of which comparison *type* —
//! is the run-time constant. Dynamic compilation specializes the
//! comparator: the key loop unrolls, each key's type `switch` resolves,
//! and the offsets become immediates. QuickSort itself stays ordinary
//! static code calling the (once-stitched) comparator.

use crate::Workload;
use dyncomp::{KernelSetup, Session};
use dyncomp_ir::prng::SplitMix64;

/// Key types: 0 int ascending, 1 int descending, 2 unsigned ascending,
/// 3 magnitude ascending.
pub const SRC: &str = r#"
    struct Spec { int nkeys; int *off; int *dir; };
    int compare(struct Spec *s, int *a, int *b) {
        dynamicRegion (s) {
            int i;
            unrolled for (i = 0; i < s->nkeys; i++) {
                int av = a dynamic[ s->off[i] ];
                int bv = b dynamic[ s->off[i] ];
                int r = 0;
                switch (s->dir[i]) {
                    case 0: r = (av > bv) - (av < bv); break;
                    case 1: r = (bv > av) - (bv < av); break;
                    case 2: r = ((unsigned) av > (unsigned) bv)
                              - ((unsigned) av < (unsigned) bv); break;
                    default: r = (abs(av) > abs(bv)) - (abs(av) < abs(bv)); break;
                }
                if (r) return r;
            }
            return 0;
        }
    }
    void qsortr(struct Spec *s, int **recs, int lo, int hi) {
        if (lo >= hi) return;
        int *pivot = recs[(lo + hi) / 2];
        int i = lo;
        int j = hi;
        while (i <= j) {
            while (compare(s, recs[i], pivot) < 0) i++;
            while (compare(s, recs[j], pivot) > 0) j--;
            if (i <= j) {
                int *t = recs[i];
                recs[i] = recs[j];
                recs[j] = t;
                i++;
                j--;
            }
        }
        qsortr(s, recs, lo, j);
        qsortr(s, recs, i, hi);
    }
    int sortrecs(struct Spec *s, int **master, int **work, int n) {
        int i;
        for (i = 0; i < n; i++) work[i] = master[i];
        qsortr(s, work, 0, n - 1);
        int chk = 0;
        for (i = 0; i < n; i++) chk = chk * 31 + work[i][0];
        return chk;
    }
"#;

/// Reproducible record set: `n` records of `nkeys` small integers (small
/// ranges force deep multi-key comparisons).
pub fn gen_records(n: u64, nkeys: u64, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..nkeys).map(|_| rng.range_i64(-3, 3)).collect())
        .collect()
}

/// Install the key spec and records; returns `(spec, master, work, n)`.
pub fn build(engine: &mut Session, records: &[Vec<i64>]) -> (u64, u64, u64, u64) {
    let nkeys = records.first().map(|r| r.len()).unwrap_or(0) as u64;
    let mut h = engine.heap();
    let off: Vec<i64> = (0..nkeys as i64).collect();
    let dir: Vec<i64> = (0..nkeys as i64).map(|i| i % 4).collect();
    let off_a = h.array_i64(&off).unwrap();
    let dir_a = h.array_i64(&dir).unwrap();
    let spec = h.record(&[nkeys, off_a, dir_a]).unwrap();
    let mut ptrs = Vec::new();
    for r in records {
        ptrs.push(h.array_i64(r).unwrap());
    }
    let master = h.array_u64(&ptrs).unwrap();
    let work = h.alloc(8 * ptrs.len() as u64).unwrap();
    (spec, master, work, ptrs.len() as u64)
}

/// The sorter workload: `sorts` sorts of `n` reproducible records under an
/// `nkeys`-key comparator.
pub fn setup(n: u64, nkeys: u64, sorts: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "sortrecs",
        iterations: sorts,
        prepare: Box::new(move |e: &mut Session| {
            let recs = gen_records(n, nkeys, 5);
            let (spec, master, work, n) = build(e, &recs);
            vec![spec, master, work, n]
        }),
        args: Box::new(|_, p| vec![p[0], p[1], p[2], p[3]]),
    }
}

/// The Table 2 row for [`setup`]`(n, nkeys, sorts)`.
pub fn workload(n: u64, nkeys: u64, sorts: u64) -> Workload {
    Workload {
        kernel: "sorter",
        config: format!("{nkeys} keys, {n} records"),
        setup: setup(n, nkeys, sorts),
        name: "QuickSort record sorter",
        table2_config: format!("{nkeys} keys, each of a different type; {n} records"),
        unit: "records",
        unit_scale: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::{Compiler, EngineOptions, Session};
    use std::sync::Arc;

    /// Host reference comparator mirroring the MiniC one.
    fn host_cmp(a: &[i64], b: &[i64]) -> std::cmp::Ordering {
        for i in 0..a.len() {
            let (av, bv) = (a[i], b[i]);
            let r = match i % 4 {
                0 => av.cmp(&bv),
                1 => bv.cmp(&av),
                2 => (av as u64).cmp(&(bv as u64)),
                _ => av.abs().cmp(&bv.abs()),
            };
            if r != std::cmp::Ordering::Equal {
                return r;
            }
        }
        std::cmp::Ordering::Equal
    }

    #[test]
    fn sorts_like_the_host() {
        let recs = gen_records(24, 4, 9);
        let mut sorted = recs.clone();
        sorted.sort_by(|a, b| host_cmp(a, b));
        let want: i64 = sorted
            .iter()
            .fold(0i64, |c, r| c.wrapping_mul(31).wrapping_add(r[0]));
        for dynamic in [false, true] {
            let c = if dynamic {
                Compiler::new()
            } else {
                Compiler::static_baseline()
            };
            let p = Arc::new(c.compile(SRC).unwrap());
            let mut e = Session::new(p);
            let (spec, master, work, n) = build(&mut e, &recs);
            let got = e.call("sortrecs", &[spec, master, work, n]).unwrap() as i64;
            assert_eq!(got, want, "dyn={dynamic}");
        }
    }

    #[test]
    fn small_measurement_specializes_comparator() {
        let r = workload(30, 4, 6)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let m = &r.measurement;
        let o = m.optimizations();
        assert!(o.complete_loop_unrolling, "key loop unrolled");
        assert!(o.static_branch_elimination, "key-type switches resolved");
        assert!(o.load_elimination, "off/dir loads eliminated");
        assert!(m.stitch.instructions_stitched > 0);
    }
}
