//! The annotation advisor: "what would specialization buy here?"
//!
//! The paper's §7 lists *"tools to help the programmer identify good
//! dynamic regions"* as future work. This module is that tool: it takes
//! un-annotated MiniC source and, for each function, evaluates the
//! hypothesis *"parameter `p` is a run-time constant"* by running the real
//! §3.1 analyses over a pseudo-region spanning the whole function body —
//! with every loop hypothetically `unrolled` (loops the unrolling check
//! rejects are withdrawn and the analysis re-run, so reported numbers only
//! credit legal annotations).
//!
//! The result ranks parameters by how much of the function folds away,
//! which is exactly the judgement a programmer makes before writing
//! `dynamicRegion (p)`.
//!
//! ```
//! let advice = dyncomp::advise(
//!     "int power(int k, int x) {
//!          int r = 1;
//!          int i;
//!          for (i = 0; i < k; i++) { r = r * x; }
//!          return r;
//!      }",
//! )?;
//! let f = &advice[0];
//! // Holding k constant unrolls the loop and folds the control flow;
//! // holding x constant folds almost nothing.
//! assert!(f.params[0].score() > f.params[1].score());
//! assert_eq!(f.params[0].unrollable_loops, 1);
//! # Ok::<(), dyncomp::Error>(())
//! ```

use crate::{Compiler, Error, Scratch};
use dyncomp_analysis::{analyze_region, AnalysisConfig, RegionAnalysis};
use dyncomp_ir::dom::DomTree;
use dyncomp_ir::loops::find_loops;
use dyncomp_ir::{BlockId, DynRegion, Function, IdSet, InstId, InstKind, Terminator};

/// What holding one set of parameters constant would buy.
#[derive(Clone, Debug)]
pub struct Hypothesis {
    /// Parameter indices assumed constant.
    pub params: Vec<usize>,
    /// Instructions the analysis proves are run-time constants (excluding
    /// compile-time literals, which are constant regardless).
    pub const_insts: usize,
    /// Instructions eligible for folding (same exclusion).
    pub total_insts: usize,
    /// Branches/switches that would become stitch-time `CONST_BRANCH`es.
    pub const_branches: usize,
    /// Multi-way branches in the function.
    pub total_branches: usize,
    /// Loops that could legally be annotated `unrolled` and completely
    /// unrolled under this hypothesis.
    pub unrollable_loops: usize,
    /// Natural loops in the function.
    pub total_loops: usize,
}

impl Hypothesis {
    /// Fraction of foldable instructions that fold, in `[0, 1]` — the
    /// headline number for ranking annotation candidates.
    pub fn score(&self) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            self.const_insts as f64 / self.total_insts as f64
        }
    }
}

/// Advice for one function: one [`Hypothesis`] per parameter, plus the
/// all-parameters-constant bound.
#[derive(Clone, Debug)]
pub struct FunctionAdvice {
    /// Function name.
    pub func: String,
    /// Single-parameter hypotheses, in parameter order.
    pub params: Vec<Hypothesis>,
    /// Every parameter held constant at once (the upper bound any
    /// annotation of this function can reach).
    pub all_params: Hypothesis,
}

impl FunctionAdvice {
    /// Parameter indices worth annotating: those whose single-parameter
    /// score reaches `threshold` (the paper's kernels sit well above 0.3).
    pub fn recommended(&self, threshold: f64) -> Vec<usize> {
        self.params
            .iter()
            .filter(|h| h.score() >= threshold)
            .flat_map(|h| h.params.iter().copied())
            .collect()
    }
}

/// Analyze un-annotated source and report, per function, what each
/// parameter would buy as a `dynamicRegion` constant.
///
/// Existing annotations in `src` are ignored (the advisor judges the plain
/// program, the way a programmer annotating from scratch would).
///
/// # Errors
/// Front-end failures, and a verifier failure of the prepped IR (a bug in
/// the compiler); the advisor never rejects a hypothesis, it just scores
/// it.
pub fn advise(src: &str) -> Result<Vec<FunctionAdvice>, Error> {
    // The static baseline's front end and prep, verifier included:
    // annotations ignored, every function in SSA and optimized.
    let (module, _) =
        Compiler::static_baseline().lower_and_prep(src, &mut (), &mut Scratch::default())?;
    let mut out = Vec::new();
    for template in module.funcs.iter() {
        let n_params = template.params.len();

        let mut params = Vec::new();
        for p in 0..n_params {
            params.push(evaluate(template, &[p]));
        }
        let all: Vec<usize> = (0..n_params).collect();
        let all_params = evaluate(template, &all);
        out.push(FunctionAdvice {
            func: template.name.clone(),
            params,
            all_params,
        });
    }
    Ok(out)
}

/// Score one hypothesis on a clean clone of the function.
fn evaluate(template: &Function, params: &[usize]) -> Hypothesis {
    let mut f = template.clone();
    let roots: Vec<InstId> = param_insts(&f, params);

    // Pseudo-region spanning every reachable block.
    let blocks: IdSet<BlockId> = dyncomp_ir::cfg::reachable(&f);
    let rid = f.regions.push(DynRegion {
        entry: f.entry,
        blocks: blocks.clone(),
        const_roots: roots,
        key_roots: Vec::new(),
    });

    // Pass 1: hypothetically unroll every loop, then withdraw the flags
    // the legality check rejects and re-analyze with only the legal set.
    let dom = DomTree::compute(&f);
    let forest = find_loops(&f, &dom);
    let headers: Vec<BlockId> = forest.loops.iter().map(|l| l.header).collect();
    for &h in &headers {
        f.blocks[h].unrolled_header = true;
    }
    let total_loops = headers.len();
    let analysis = analyze_region(&f, rid, &AnalysisConfig::default());
    let legal: Vec<BlockId> = headers
        .iter()
        .copied()
        .filter(|&h| {
            dyncomp_analysis::unroll::check_unrollable(&f, rid, &analysis, &forest, h).is_ok()
        })
        .collect();
    let analysis = if legal.len() == total_loops {
        analysis
    } else {
        for &h in &headers {
            f.blocks[h].unrolled_header = legal.contains(&h);
        }
        analyze_region(&f, rid, &AnalysisConfig::default())
    };

    count(&f, &blocks, &analysis, params, legal.len(), total_loops)
}

/// The `Param` instructions realizing the chosen parameter indices (a
/// parameter the optimizer removed as dead contributes nothing).
fn param_insts(f: &Function, params: &[usize]) -> Vec<InstId> {
    let mut roots = Vec::new();
    for (_, blk) in f.iter_blocks() {
        for &i in &blk.insts {
            if let InstKind::Param(p) = f.kind(i) {
                if params.contains(&(*p as usize)) {
                    roots.push(i);
                }
            }
        }
    }
    roots
}

fn count(
    f: &Function,
    blocks: &IdSet<BlockId>,
    analysis: &RegionAnalysis,
    params: &[usize],
    unrollable_loops: usize,
    total_loops: usize,
) -> Hypothesis {
    let mut const_insts = 0;
    let mut total_insts = 0;
    let mut const_branches = 0;
    let mut total_branches = 0;
    for b in blocks.iter() {
        for &i in &f.blocks[b].insts {
            // Literals and parameter reads are free either way; counting
            // them would flatter every hypothesis equally.
            if matches!(f.kind(i), InstKind::Const(_) | InstKind::Param(_)) {
                continue;
            }
            total_insts += 1;
            if analysis.is_const(i) {
                const_insts += 1;
            }
        }
        match f.blocks[b].term {
            Terminator::Branch { .. } | Terminator::Switch { .. } => {
                total_branches += 1;
                if analysis.const_branches.contains(b) {
                    const_branches += 1;
                }
            }
            _ => {}
        }
    }
    Hypothesis {
        params: params.to_vec(),
        const_insts,
        total_insts,
        const_branches,
        total_branches,
        unrollable_loops,
        total_loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_function_prefers_the_exponent() {
        let advice = advise(
            r#"
            int power(int k, int x) {
                int r = 1;
                int i;
                for (i = 0; i < k; i++) { r = r * x; }
                return r;
            }
            "#,
        )
        .unwrap();
        let f = &advice[0];
        assert_eq!(f.func, "power");
        assert_eq!(f.params.len(), 2);
        let k = &f.params[0];
        let x = &f.params[1];
        assert_eq!(k.unrollable_loops, 1, "k constant => loop unrolls");
        assert_eq!(k.total_loops, 1);
        assert_eq!(x.unrollable_loops, 0, "x constant does not bound the loop");
        assert!(
            k.score() > x.score(),
            "k {:.2} vs x {:.2}",
            k.score(),
            x.score()
        );
        assert!(k.const_branches >= 1, "the loop test becomes constant");
        assert_eq!(f.recommended(0.5), vec![0]);
    }

    #[test]
    fn cache_lookup_prefers_the_cache() {
        let advice = advise(
            r#"
            struct setStructure { unsigned tag; };
            struct cacheLine { struct setStructure **sets; };
            struct Cache {
                unsigned blockSize;
                unsigned numLines;
                struct cacheLine **lines;
                int associativity;
            };
            int cacheLookup(unsigned addr, struct Cache *cache) {
                unsigned blockSize = cache->blockSize;
                unsigned numLines = cache->numLines;
                unsigned tag = addr / (blockSize * numLines);
                unsigned line = (addr / blockSize) % numLines;
                struct setStructure **setArray = cache->lines[line]->sets;
                int assoc = cache->associativity;
                int set;
                for (set = 0; set < assoc; set++) {
                    if (setArray[set]->tag == tag)
                        return 1;
                }
                return 0;
            }
            "#,
        )
        .unwrap();
        let f = &advice[0];
        let addr = &f.params[0];
        let cache = &f.params[1];
        assert!(
            cache.score() > addr.score(),
            "cache {:.2} vs addr {:.2}",
            cache.score(),
            addr.score()
        );
        assert_eq!(cache.unrollable_loops, 1, "assoc bounds the set loop");
        // Both parameters together cover at least what cache alone does.
        assert!(f.all_params.const_insts >= cache.const_insts);
    }

    #[test]
    fn dynamic_only_function_scores_zero_everywhere() {
        let advice = advise("int add(int a, int b) { return a + b; }").unwrap();
        let f = &advice[0];
        // a + b needs both; single-parameter hypotheses fold nothing.
        assert_eq!(f.params[0].const_insts, 0);
        assert_eq!(f.params[1].const_insts, 0);
        assert_eq!(f.all_params.const_insts, f.all_params.total_insts);
        assert!(f.recommended(0.3).is_empty());
    }

    #[test]
    fn dispatcher_shape_matches_the_papers_annotation() {
        // The §5 event dispatcher annotates the guard list; the advisor,
        // shown the un-annotated interpreter, should reach the same
        // conclusion: the guard struct dominates, the event doesn't.
        let advice = advise(
            r#"
            struct Guards { int n; int *kind; int *param; };
            int dispatch(struct Guards *g, int ev) {
                int result = 0;
                int i;
                for (i = 0; i < g->n; i++) {
                    int match = 0;
                    switch (g->kind[i]) {
                        case 0: match = ev == g->param[i]; break;
                        case 1: match = ev != g->param[i]; break;
                        default: match = ev < g->param[i]; break;
                    }
                    result += match;
                }
                return result;
            }
            "#,
        )
        .unwrap();
        let f = &advice[0];
        let g = &f.params[0];
        let ev = &f.params[1];
        assert!(g.score() > ev.score());
        assert_eq!(g.unrollable_loops, 1, "g->n bounds the guard loop");
        assert!(
            g.const_branches >= 2,
            "loop test and guard-kind switch resolve: {g:?}"
        );
        assert_eq!(f.recommended(0.3), vec![0], "annotate the guard list only");
    }

    #[test]
    fn existing_annotations_are_ignored() {
        let annotated = r#"
            int f(int k, int x) {
                dynamicRegion (k) { return k * x; }
            }
        "#;
        let advice = advise(annotated).unwrap();
        assert_eq!(advice[0].params.len(), 2);
    }

    #[test]
    fn dead_parameters_contribute_nothing() {
        let advice = advise("int f(int unused, int x) { return x * 2; }").unwrap();
        let f = &advice[0];
        assert_eq!(f.params[0].const_insts, 0);
    }
}
