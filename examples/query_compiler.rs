//! Query compiler: specialize a record-filter predicate to each query.
//!
//! ```text
//! cargo run --example query_compiler
//! ```
//!
//! A database-style workload, the other classic home of dynamic
//! compilation (the paper's §6 cites Keppel's and Engler's work on
//! exactly this pattern). A query is a little condition program —
//! `(field, op, value)` triples — normally run by an interpreter that
//! re-decodes it for every record. Annotating the query pointer as a
//! run-time constant and unrolling the condition loop compiles each
//! query down to straight-line compares against inline immediates: the
//! interpreter disappears, exactly like the paper's bytecode dispatcher.
//!
//! The region is `key(q)`, so each distinct query gets its own stitched
//! instance in the region's code cache, and switching between live
//! queries is a cache hit, not a re-compile.

use dyncomp::{Compiler, EngineOptions, Session};
use std::sync::Arc;

/// Condition ops in the query encoding.
const EQ: i64 = 0;
const LT: i64 = 1;
const GT: i64 = 2;

/// Record field indices (a tiny "employees" schema).
const AGE: i64 = 0;
const DEPT: i64 = 1;
const SALARY: i64 = 2;
const YEARS: i64 = 3;

fn main() -> Result<(), dyncomp::Error> {
    // The predicate interpreter. `q` points at [n, f0,op0,v0, f1,op1,v1, …]
    // and is constant per query; `rec` is a different record every call.
    // Everything derived from `q` — the trip count, each condition's
    // field/op/value, even which comparison runs — folds away at stitch
    // time; only the `rec[...]` loads and compares remain.
    let src = r#"
        int matches(int *q, int *rec) {
            dynamicRegion key(q) (q) {
                int n = q[0];
                int i;
                unrolled for (i = 0; i < n; i++) {
                    int field = q[1 + 3 * i];
                    int op    = q[2 + 3 * i];
                    int val   = q[3 + 3 * i];
                    int rv = rec[field];
                    if (op == 0) {
                        if (rv != val) return 0;
                    } else if (op == 1) {
                        if (rv >= val) return 0;
                    } else {
                        if (rv <= val) return 0;
                    }
                }
                return 1;
            }
        }
    "#;
    let program = Arc::new(Compiler::new().compile(src)?);
    let mut engine = Session::with_options(
        program,
        // Keep at most 8 compiled queries around (plenty here; with more
        // live queries than capacity, the least recently used would be
        // evicted and re-stitched on return).
        EngineOptions {
            keyed_cache_capacity: Some(8),
            ..EngineOptions::default()
        },
    );

    // A synthetic table of 1000 records.
    let mut records = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut rand = move |m: i64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as i64
    };
    for _ in 0..1000 {
        let rec = [rand(45) + 20, rand(5), rand(90_000) + 30_000, rand(30)];
        records.push(engine.heap().array_i64(&rec).unwrap());
    }

    // Three queries, compiled on first use.
    let queries: Vec<(&str, Vec<i64>)> = vec![
        ("age > 40 AND dept == 2", vec![2, AGE, GT, 40, DEPT, EQ, 2]),
        ("salary < 50000", vec![1, SALARY, LT, 50_000]),
        (
            "30 < age < 50 AND years > 10 AND dept == 1",
            vec![4, AGE, GT, 30, AGE, LT, 50, YEARS, GT, 10, DEPT, EQ, 1],
        ),
    ];
    let handles: Vec<u64> = queries
        .iter()
        .map(|(_, enc)| engine.heap().array_i64(enc).unwrap())
        .collect();

    for (qi, (text, _)) in queries.iter().enumerate() {
        let mut hits = 0u64;
        for &rec in &records {
            hits += engine.call("matches", &[handles[qi], rec])?;
        }
        println!("query {qi}: {text:<44} -> {hits:>4}/1000 records");
    }

    // Re-running a query is a code-cache hit: no new stitches.
    let before = engine.region_report(0).stitches;
    for &rec in records.iter().take(100) {
        engine.call("matches", &[handles[0], rec])?;
    }
    let report = engine.region_report(0);
    assert_eq!(report.stitches, before, "query 0 was already compiled");

    println!();
    println!(
        "region 0: {} entries, {} compile(s) (one per query), {} eviction(s)",
        report.invocations, report.stitches, report.evictions
    );
    for (i, (key, code)) in engine.stitched_instances(0).iter().enumerate() {
        println!(
            "  query at {:#x}: {:>3} instructions of straight-line code",
            key[0],
            code.len()
        );
        // The single-condition query compiles to just a handful of
        // instructions: load the field, one compare, one branch, returns.
        if i == 1 {
            for line in dyncomp_machine::disasm::disassemble(code, 0) {
                println!("        {}", line.text);
            }
        }
    }
    Ok(())
}
