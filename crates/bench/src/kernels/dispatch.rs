//! Table 2, row 5: the extensible-OS event dispatcher (SPIN-style).
//!
//! The installed guard list is the run-time constant — the paper's
//! "current set of extensions to the kernel is run-time constant". Each
//! guard has one of six predicate kinds and a parameter; dispatch walks
//! the list, evaluates matching guards against the event, and accumulates
//! handler results. Dynamic compilation unrolls the guard loop, resolves
//! each guard's kind `switch` (constant per guard), and inlines the
//! parameters as immediates — leaving a flat sequence of compare-and-act
//! code, one per installed guard.

use crate::Workload;
use dyncomp::{KernelSetup, Session};
use dyncomp_ir::prng::SplitMix64;

/// Predicate kinds: 0 eq, 1 ne, 2 lt, 3 gt, 4 mask, 5 range-low.
pub const SRC: &str = r#"
    struct Guards { int n; int *kind; int *param; int *hval; };
    int dispatch(struct Guards *g, int ev, int arg) {
        dynamicRegion (g) {
            int result = 0;
            int i;
            unrolled for (i = 0; i < g->n; i++) {
                int match = 0;
                switch (g->kind[i]) {
                    case 0: match = ev == g->param[i]; break;
                    case 1: match = ev != g->param[i]; break;
                    case 2: match = ev < g->param[i]; break;
                    case 3: match = ev > g->param[i]; break;
                    case 4: match = (ev & g->param[i]) != 0; break;
                    default: match = ev >= g->param[i] && ev < g->param[i] + 8; break;
                }
                if (match) result = result + g->hval[i] + arg;
            }
            return result;
        }
    }
"#;

/// A reproducible guard table.
pub struct GuardTable {
    /// Predicate kind per guard (0..=5).
    pub kind: Vec<i64>,
    /// Parameter per guard.
    pub param: Vec<i64>,
    /// Handler value per guard.
    pub hval: Vec<i64>,
}

/// Generate `n` guards covering all six predicate kinds.
pub fn gen_guards(n: u64, seed: u64) -> GuardTable {
    let mut rng = SplitMix64::new(seed);
    let mut t = GuardTable {
        kind: vec![],
        param: vec![],
        hval: vec![],
    };
    for i in 0..n {
        t.kind.push((i % 6) as i64);
        t.param.push(rng.range_i64(0, 32));
        t.hval.push(rng.range_i64(1, 100));
    }
    t
}

/// Host-side reference dispatcher.
pub fn reference(t: &GuardTable, ev: i64, arg: i64) -> i64 {
    let mut result = 0;
    for i in 0..t.kind.len() {
        let p = t.param[i];
        let m = match t.kind[i] {
            0 => ev == p,
            1 => ev != p,
            2 => ev < p,
            3 => ev > p,
            4 => (ev & p) != 0,
            _ => ev >= p && ev < p + 8,
        };
        if m {
            result += t.hval[i] + arg;
        }
    }
    result
}

/// Install the guard table; returns the `Guards*`.
pub fn build(engine: &mut Session, t: &GuardTable) -> u64 {
    let mut h = engine.heap();
    let kind = h.array_i64(&t.kind).unwrap();
    let param = h.array_i64(&t.param).unwrap();
    let hval = h.array_i64(&t.hval).unwrap();
    h.record(&[t.kind.len() as u64, kind, param, hval]).unwrap()
}

/// The dispatch workload: `iterations` event dispatches against a
/// reproducible table of `n_guards` guards.
pub fn setup(n_guards: u64, iterations: u64) -> KernelSetup<'static> {
    KernelSetup {
        src: SRC,
        func: "dispatch",
        iterations,
        prepare: Box::new(move |e: &mut Session| {
            let t = gen_guards(n_guards, 11);
            vec![build(e, &t)]
        }),
        args: Box::new(|i, p| vec![p[0], i % 37, (i % 5) + 1]),
    }
}

/// The Table 2 row for [`setup`]`(n_guards, iterations)`.
pub fn workload(n_guards: u64, iterations: u64) -> Workload {
    Workload {
        kernel: "dispatch",
        config: format!("{n_guards} guards, {iterations} events"),
        setup: setup(n_guards, iterations),
        name: "Event dispatcher in an extensible OS",
        table2_config: format!("6 predicate types; {n_guards} different event guards"),
        unit: "event dispatches",
        unit_scale: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp::{Compiler, EngineOptions, Session};
    use std::sync::Arc;

    #[test]
    fn dispatch_matches_host_reference() {
        let t = gen_guards(10, 3);
        for dynamic in [false, true] {
            let c = if dynamic {
                Compiler::new()
            } else {
                Compiler::static_baseline()
            };
            let p = Arc::new(c.compile(SRC).unwrap());
            let mut e = Session::new(p);
            let g = build(&mut e, &t);
            for ev in 0..40i64 {
                let got = e.call("dispatch", &[g, ev as u64, 2]).unwrap() as i64;
                assert_eq!(got, reference(&t, ev, 2), "ev={ev} dyn={dynamic}");
            }
        }
    }

    #[test]
    fn small_measurement_eliminates_guard_switches() {
        let r = workload(10, 50)
            .measure(&Compiler::new(), EngineOptions::default())
            .unwrap();
        let m = &r.measurement;
        let o = m.optimizations();
        assert!(o.static_branch_elimination, "kind switches resolved");
        assert!(o.dead_code_elimination);
        assert!(o.load_elimination);
        assert!(o.complete_loop_unrolling);
        assert!(m.speedup > 1.0, "got {:.3}", m.speedup);
    }
}
