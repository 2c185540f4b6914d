//! The paper's running example (§2): a cache simulator whose lookup
//! routine is dynamically compiled for each cache configuration.
//!
//! Simulates a synthetic address trace against several cache
//! configurations simultaneously — the paper's motivation for `key(...)`:
//! "if the cache simulator were simulating multiple cache configurations
//! simultaneously, each configuration would have its own cache values and
//! need cache lookup code specialized to each of them."
//!
//! ```text
//! cargo run --release --example cache_simulator
//! ```

use dyncomp::{Compiler, Session};
use std::sync::Arc;

/// The §2 cacheLookup, keyed by the cache descriptor, plus an insert
/// routine used by the simulator to fill lines on misses.
const SRC: &str = r#"
    struct setStructure { unsigned tag; };
    struct cacheLine { struct setStructure **sets; };
    struct Cache {
        unsigned blockSize;
        unsigned numLines;
        struct cacheLine **lines;
        int associativity;
    };
    int cacheLookup(unsigned addr, struct Cache *cache) {
        dynamicRegion key(cache) (cache) {
            unsigned blockSize = cache->blockSize;
            unsigned numLines = cache->numLines;
            unsigned tag = addr / (blockSize * numLines);
            unsigned line = (addr / blockSize) % numLines;
            struct setStructure **setArray = cache->lines[line]->sets;
            int assoc = cache->associativity;
            int set;
            unrolled for (set = 0; set < assoc; set++) {
                if (setArray[set] dynamic-> tag == tag)
                    return 1;
            }
            return 0;
        }
    }
    void cacheInsert(unsigned addr, struct Cache *cache) {
        unsigned blockSize = cache->blockSize;
        unsigned numLines = cache->numLines;
        unsigned tag = addr / (blockSize * numLines);
        unsigned line = (addr / blockSize) % numLines;
        struct setStructure **setArray = cache->lines[line]->sets;
        int assoc = cache->associativity;
        int set;
        /* shift existing entries down (LRU-ish), insert at slot 0 */
        int s;
        for (s = assoc - 1; s > 0; s--) {
            setArray[s]->tag = setArray[s - 1]->tag;
        }
        setArray[0]->tag = tag;
    }
"#;

/// Build one cache in VM memory; returns the `Cache*`.
fn build_cache(engine: &mut Session, block_size: u64, num_lines: u64, assoc: u64) -> u64 {
    let mut h = engine.heap();
    let mut line_recs = Vec::new();
    for _ in 0..num_lines {
        let mut sets = Vec::new();
        for _ in 0..assoc {
            sets.push(h.record(&[u64::MAX]).unwrap()); // empty tag
        }
        let sets_arr = h.array_u64(&sets).unwrap();
        line_recs.push(h.record(&[sets_arr]).unwrap());
    }
    let lines = h.array_u64(&line_recs).unwrap();
    h.record(&[block_size, num_lines, lines, assoc]).unwrap()
}

/// A simple strided-plus-random reference trace.
fn trace(n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut lcg = 0x2545F4914F6CDD1Du64;
    for i in 0..n {
        // Mix sequential locality with jumps.
        if i % 4 != 0 {
            out.push(((i * 8) % 0x8000) as u64);
        } else {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push(lcg % 0x10000);
        }
    }
    out
}

fn main() -> Result<(), dyncomp::Error> {
    let program = Arc::new(Compiler::new().compile(SRC)?);
    let mut engine = Session::new(program);

    // Three configurations simulated against the same trace — one stitched
    // lookup routine per configuration, cached by key.
    let configs = [(32u64, 512u64, 4u64), (64, 128, 2), (16, 1024, 1)];
    let caches: Vec<u64> = configs
        .iter()
        .map(|&(bs, nl, a)| build_cache(&mut engine, bs, nl, a))
        .collect();

    let addrs = trace(3000);
    println!(
        "simulating {} references against {} configurations\n",
        addrs.len(),
        configs.len()
    );
    for (ci, (&cache, &(bs, nl, a))) in caches.iter().zip(configs.iter()).enumerate() {
        let mut hits = 0u64;
        let start = engine.cycles();
        for &addr in &addrs {
            if engine.call("cacheLookup", &[addr, cache])? == 1 {
                hits += 1;
            } else {
                engine.call("cacheInsert", &[addr, cache])?;
            }
        }
        let cycles = engine.cycles() - start;
        println!(
            "config {ci}: {bs}B blocks x {nl} lines x {a}-way  ->  hit rate {:5.1}%  ({cycles} cycles)",
            100.0 * hits as f64 / addrs.len() as f64,
        );
    }

    let report = engine.region_report(0);
    println!();
    println!(
        "lookup region: {} stitched versions (one per configuration), \
         {} loop iterations unrolled in total,",
        report.stitches, report.stitch_stats.loop_iterations
    );
    println!(
        "{} constant branches resolved, {} divisions/modulos strength-reduced to shifts/masks",
        report.stitch_stats.const_branches_resolved, report.stitch_stats.strength_reductions
    );
    Ok(())
}
