//! Seeded inputs and host-side reference results.
//!
//! Everything the program under test sees is generated here from the
//! workload seed; the expected result of every call is computed on the host,
//! by code that shares nothing with the compiler or the VM. Five kernels
//! ship their own `expected`/`reference*` functions in `crates/bench`; the
//! references for `smatmul`, `sorter` and the synthetic units live here.

use crate::stats::Fnv64;
use dyncomp::Session;
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use dyncomp_ir::prng::SplitMix64;

/// A kernel with generated inputs: how to build them in a session's memory,
/// the argument tuple of each distinct call, and each call's host-computed
/// expected result.
pub struct KernelCase {
    /// Kernel name, one of [`crate::metrics::KERNELS`].
    pub kernel: &'static str,
    pub src: &'static str,
    pub func: &'static str,
    data: Data,
    /// Expected `r0` of each distinct call, in the order `prepare` returns
    /// their argument tuples.
    pub expected: Vec<u64>,
}

enum Data {
    Calculator {
        xy: Vec<(i64, i64)>,
    },
    Dispatch {
        table: dispatch::GuardTable,
        events: Vec<(i64, i64)>,
    },
    Spmv {
        m: spmv::Csr,
    },
    Smatmul {
        data: Vec<i64>,
        scalars: Vec<u64>,
    },
    Sorter {
        records: Vec<Vec<i64>>,
    },
    Protomsg {
        layout: protomsg::Layout,
        msgs: Vec<Vec<i64>>,
    },
    Queryexec {
        q: queryexec::Query,
        rows: Vec<Vec<i64>>,
    },
}

/// Problem sizes of one kernel case. Cold-start uses small inputs so that
/// steady execution stays a sliver of the cold script; steady-state uses
/// the Table 2 sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Distinct argument tuples generated (calculator, dispatch, protomsg).
    pub calls: usize,
    /// spmv: matrix dimension and entries per row.
    pub spmv: (u64, u64),
    /// smatmul: matrix elements and how many scalars `1..=n` are used.
    pub smatmul: (usize, u64),
    /// sorter: records (always 4 keys).
    pub sorter_records: u64,
    /// queryexec: rows scanned per call (always 12 predicates).
    pub query_rows: u64,
}

impl KernelCase {
    /// Generate the case for `kernel`, feeding its source and every data
    /// buffer to the fingerprint.
    pub fn generate(kernel: &'static str, sizes: &Sizes, seed: u64, fnv: &mut Fnv64) -> KernelCase {
        let mut rng = SplitMix64::new(seed);
        let (src, func, data, expected): (&'static str, &'static str, Data, Vec<u64>) = match kernel
        {
            "calculator" => {
                let xy: Vec<(i64, i64)> = (0..sizes.calls)
                    .map(|_| (rng.range_i64(-11, 12), rng.range_i64(-8, 9)))
                    .collect();
                for &(x, y) in &xy {
                    fnv.i64s(&[x, y]);
                }
                let expected = xy
                    .iter()
                    .map(|&(x, y)| calculator::expected(x, y) as u64)
                    .collect();
                (calculator::SRC, "calc", Data::Calculator { xy }, expected)
            }
            "dispatch" => {
                let table = dispatch::gen_guards(10, rng.next_u64());
                let events: Vec<(i64, i64)> = (0..sizes.calls)
                    .map(|_| (rng.range_i64(0, 37), rng.range_i64(1, 6)))
                    .collect();
                fnv.i64s(&table.kind);
                fnv.i64s(&table.param);
                fnv.i64s(&table.hval);
                for &(ev, arg) in &events {
                    fnv.i64s(&[ev, arg]);
                }
                let expected = events
                    .iter()
                    .map(|&(ev, arg)| dispatch::reference(&table, ev, arg) as u64)
                    .collect();
                (
                    dispatch::SRC,
                    "dispatch",
                    Data::Dispatch { table, events },
                    expected,
                )
            }
            "spmv" => {
                let m = spmv::gen_matrix(sizes.spmv.0, sizes.spmv.1, rng.next_u64());
                fnv.i64s(&m.rowptr);
                fnv.i64s(&m.col);
                fnv.f64s(&m.val);
                let expected = vec![spmv::reference_checksum(&m) as u64];
                (spmv::SRC, "spmv", Data::Spmv { m }, expected)
            }
            "smatmul" => {
                let data: Vec<i64> = (0..sizes.smatmul.0)
                    .map(|_| rng.range_i64(-48, 49))
                    .collect();
                // The scalars are the Table 2 ones (1, 2, 3, …), not seeded:
                // strength reduction makes stitch cost depend on the
                // scalar's bit pattern, which must not vary run to run.
                let scalars: Vec<u64> = (1..=sizes.smatmul.1).collect();
                fnv.i64s(&data);
                let expected = scalars
                    .iter()
                    .map(|&s| smatmul_reference(&data, s).last().copied().unwrap_or(0) as u64)
                    .collect();
                (
                    smatmul::SRC,
                    "smatmul",
                    Data::Smatmul { data, scalars },
                    expected,
                )
            }
            "sorter" => {
                let records = sorter::gen_records(sizes.sorter_records, 4, rng.next_u64());
                for r in &records {
                    fnv.i64s(r);
                }
                let expected = vec![sorter_reference(&records)];
                (sorter::SRC, "sortrecs", Data::Sorter { records }, expected)
            }
            "protomsg" => {
                let layout = protomsg::gen_layout(16, rng.next_u64());
                let msgs: Vec<Vec<i64>> = (0..sizes.calls)
                    .map(|_| protomsg::gen_msg(16, rng.next_u64()))
                    .collect();
                fnv.i64s(&layout.kind);
                fnv.i64s(&layout.param);
                for m in &msgs {
                    fnv.i64s(m);
                }
                let expected = msgs
                    .iter()
                    .map(|m| protomsg::reference(&layout, m) as u64)
                    .collect();
                (
                    protomsg::SRC,
                    "decode_msg",
                    Data::Protomsg { layout, msgs },
                    expected,
                )
            }
            "queryexec" => {
                let q = queryexec::gen_query(12, queryexec::WIDTH, rng.next_u64());
                let rows = queryexec::gen_rows(sizes.query_rows, queryexec::WIDTH, rng.next_u64());
                fnv.i64s(&q.op);
                fnv.i64s(&q.field);
                fnv.i64s(&q.k);
                for r in &rows {
                    fnv.i64s(r);
                }
                let expected = vec![queryexec::reference(&q, &rows) as u64];
                (
                    queryexec::SRC,
                    "runquery",
                    Data::Queryexec { q, rows },
                    expected,
                )
            }
            other => panic!("unknown kernel `{other}`"),
        };
        fnv.str(src);
        KernelCase {
            kernel,
            src,
            func,
            data,
            expected,
        }
    }

    /// Build the inputs in the session's memory and return the argument
    /// tuple of every call.
    ///
    /// # Panics
    /// Panics when the session's data memory is too small for the inputs:
    /// sizes are fixed by the benchmark, so that is a harness bug.
    pub fn prepare(&self, s: &mut Session) -> Vec<Vec<u64>> {
        match &self.data {
            Data::Calculator { xy } => {
                let p = calculator::build_program(s);
                xy.iter()
                    .map(|&(x, y)| vec![p, x as u64, y as u64])
                    .collect()
            }
            Data::Dispatch { table, events } => {
                let g = dispatch::build(s, table);
                events
                    .iter()
                    .map(|&(ev, arg)| vec![g, ev as u64, arg as u64])
                    .collect()
            }
            Data::Spmv { m } => {
                let (mp, xp, yp) = spmv::build(s, m);
                vec![vec![mp, xp, yp]]
            }
            Data::Smatmul { data, scalars } => {
                let mut h = s.heap();
                let src = h.array_i64(data).expect("matrix fits in VM memory");
                let dst = h
                    .alloc(8 * data.len() as u64)
                    .expect("product fits in VM memory");
                scalars
                    .iter()
                    .map(|&k| vec![k, data.len() as u64, src, dst])
                    .collect()
            }
            Data::Sorter { records } => {
                let (spec, master, work, n) = sorter::build(s, records);
                vec![vec![spec, master, work, n]]
            }
            Data::Protomsg { layout, msgs } => {
                let l = protomsg::build(s, layout);
                msgs.iter()
                    .map(|m| {
                        let a = s.heap().array_i64(m).expect("message fits in VM memory");
                        vec![l, a]
                    })
                    .collect()
            }
            Data::Queryexec { q, rows } => {
                let (query, rows_a, n) = queryexec::build(s, q, rows);
                vec![vec![query, rows_a, n]]
            }
        }
    }

    /// For smatmul: whether the whole product the last call left in VM
    /// memory equals the host reference (the return value only covers the
    /// last element). `true` for every other kernel.
    pub fn memory_matches(&self, s: &mut Session, args: &[u64]) -> bool {
        let Data::Smatmul { data, .. } = &self.data else {
            return true;
        };
        let want = smatmul_reference(data, args[0]);
        let dst = args[3];
        want.iter().enumerate().all(
            |(i, &w)| matches!(s.heap().get_u64(dst + 8 * i as u64), Ok(got) if got == w as u64),
        )
    }
}

/// Host reference for `smatmul`: every element times the scalar, wrapping
/// like the VM's 64-bit multiply.
pub fn smatmul_reference(data: &[i64], scalar: u64) -> Vec<i64> {
    data.iter()
        .map(|&v| v.wrapping_mul(scalar as i64))
        .collect()
}

/// Host comparator mirroring the MiniC `compare`: key `i` has type `i % 4`
/// (ascending, descending, unsigned ascending, magnitude ascending).
fn sorter_cmp(a: &[i64], b: &[i64]) -> std::cmp::Ordering {
    for (i, (&av, &bv)) in a.iter().zip(b).enumerate() {
        let ord = match i % 4 {
            0 => av.cmp(&bv),
            1 => bv.cmp(&av),
            2 => (av as u64).cmp(&(bv as u64)),
            _ => av.unsigned_abs().cmp(&bv.unsigned_abs()),
        };
        if ord.is_ne() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Host reference for `sorter`: the checksum `sortrecs` returns, from the
/// host's own sort. Records that compare equal share their first key (key 0
/// is compared exactly), so any correct sort yields the same checksum.
pub fn sorter_reference(records: &[Vec<i64>]) -> u64 {
    let mut sorted: Vec<&Vec<i64>> = records.iter().collect();
    sorted.sort_by(|a, b| sorter_cmp(a, b));
    sorted
        .iter()
        .fold(0i64, |chk, r| chk.wrapping_mul(31).wrapping_add(r[0])) as u64
}

/// One function of a synthetic unit: the seeded constants of its body.
pub struct SynthFunc {
    pub name: String,
    init: i64,
    mul: i64,
    shift: u32,
}

/// A synthetic compilation unit: `funcs.len()` functions, each one
/// `dynamicRegion` holding an `unrolled for` over a constant table and a
/// `switch` on the table's kinds. The structure is the same for every seed
/// (so compile cost does not depend on it); the constants are seeded.
pub struct SynthUnit {
    pub src: String,
    pub funcs: Vec<SynthFunc>,
    pub kinds: Vec<i64>,
    pub vals: Vec<i64>,
    pub x: i64,
}

impl SynthUnit {
    pub fn generate(n_funcs: usize, seed: u64, fnv: &mut Fnv64) -> SynthUnit {
        let mut rng = SplitMix64::new(seed);
        let mut src = String::from("struct Tab { int n; int *kind; int *val; };\n");
        let mut funcs = Vec::with_capacity(n_funcs);
        for i in 0..n_funcs {
            let f = SynthFunc {
                name: format!("f{i}"),
                init: rng.range_i64(1, 100),
                mul: [3, 5, 7, 9][rng.below(4) as usize],
                shift: rng.range_u64(1, 5) as u32,
            };
            src.push_str(&format!(
                "int {name}(struct Tab *t, int x) {{
    dynamicRegion (t) {{
        int acc = {init};
        int j;
        unrolled for (j = 0; j < t->n; j++) {{
            switch (t->kind[j]) {{
                case 0: acc = acc + t->val[j] * x; break;
                case 1: acc = acc - (x & t->val[j]); break;
                case 2: acc = acc * {mul} + t->val[j]; break;
                default: acc = acc + (x >> {shift}) - t->val[j]; break;
            }}
        }}
        return acc;
    }}
}}
",
                name = f.name,
                init = f.init,
                mul = f.mul,
                shift = f.shift,
            ));
            funcs.push(f);
        }
        // Every kind appears, so every `case` arm is stitched at least once.
        let kinds: Vec<i64> = vec![0, 1, 2, 3, rng.range_i64(0, 4), rng.range_i64(0, 4)];
        let vals: Vec<i64> = (0..kinds.len()).map(|_| rng.range_i64(1, 64)).collect();
        let x = rng.range_i64(0, 1000);
        fnv.str(&src);
        fnv.i64s(&kinds);
        fnv.i64s(&vals);
        fnv.i64s(&[x]);
        SynthUnit {
            src,
            funcs,
            kinds,
            vals,
            x,
        }
    }

    /// Host reference for function `f` on the unit's table and `x`.
    pub fn expected(&self, f: usize) -> u64 {
        let g = &self.funcs[f];
        let mut acc = g.init;
        for (&kind, &val) in self.kinds.iter().zip(&self.vals) {
            acc = match kind {
                0 => acc.wrapping_add(val.wrapping_mul(self.x)),
                1 => acc.wrapping_sub(self.x & val),
                2 => acc.wrapping_mul(g.mul).wrapping_add(val),
                _ => acc.wrapping_add(self.x >> g.shift).wrapping_sub(val),
            };
        }
        acc as u64
    }

    /// Build the table in the session's memory; returns the `Tab*`.
    pub fn build(&self, s: &mut Session) -> u64 {
        let mut h = s.heap();
        let kind = h.array_i64(&self.kinds).expect("table fits in VM memory");
        let val = h.array_i64(&self.vals).expect("table fits in VM memory");
        h.record(&[self.kinds.len() as u64, kind, val])
            .expect("table fits in VM memory")
    }
}

/// Independent sub-seeds for a workload's generators.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorter_reference_orders_by_typed_keys() {
        // Key 0 ascending decides; ties fall to key 1 descending.
        let recs = vec![vec![2, 0, 0, 0], vec![1, 5, 0, 0], vec![1, 9, 0, 0]];
        // Sorted: [1,9..], [1,5..], [2,..] -> first keys 1, 1, 2.
        let want = (31i64 + 1) * 31 + 2;
        assert_eq!(sorter_reference(&recs), want as u64);
        // Unsigned key: -1 sorts after 3. Magnitude key: -2 ties with 2.
        assert!(sorter_cmp(&[0, 0, -1, 0], &[0, 0, 3, 0]).is_gt());
        assert!(sorter_cmp(&[0, 0, 0, -2], &[0, 0, 0, 2]).is_eq());
    }

    #[test]
    fn smatmul_reference_wraps() {
        assert_eq!(smatmul_reference(&[3, -4], 5), vec![15, -20]);
        assert_eq!(
            smatmul_reference(&[i64::MAX], 2),
            vec![i64::MAX.wrapping_mul(2)]
        );
    }

    #[test]
    fn same_seed_same_inputs_and_fingerprint() {
        let sizes = Sizes {
            calls: 4,
            spmv: (8, 2),
            smatmul: (16, 3),
            sorter_records: 8,
            query_rows: 4,
        };
        let fingerprint = |seed| {
            let mut fnv = Fnv64::default();
            for k in crate::metrics::KERNELS {
                KernelCase::generate(k, &sizes, seed, &mut fnv);
            }
            SynthUnit::generate(3, seed, &mut fnv);
            fnv.finish()
        };
        assert_eq!(fingerprint(7), fingerprint(7));
        assert_ne!(fingerprint(7), fingerprint(8));
    }
}
