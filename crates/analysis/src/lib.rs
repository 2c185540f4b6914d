//! # dyncomp-analysis
//!
//! The static analyses of *"Fast, Effective Dynamic Compilation"* (PLDI
//! 1996), §3.1 / Appendix A: identification of **derived run-time
//! constants** within a dynamic region, driven by a pair of interconnected
//! dataflow analyses executed to a combined fixed point —
//!
//! 1. the **run-time constants analysis** ([`rtc`]), a forward analysis
//!    over SSA that propagates the programmer-annotated constant roots
//!    through idempotent, side-effect-free, non-trapping operations; and
//! 2. the **reachability analysis** ([`cond`]), which computes, for every
//!    program point, a disjunction of conjunctions of constant-branch
//!    outcomes (`B→S` literals in CNF-set form) and supplies the
//!    *mutual-exclusion* test that lets merges in **unstructured** control
//!    flow be classified as constant merges.
//!
//! [`unroll`] implements the §2 legality check for `unrolled` loops.
//!
//! ## Example
//!
//! ```
//! use dyncomp_ir::{Function, InstKind, Terminator, Ty, BinOp, DynRegion, IdSet};
//! use dyncomp_analysis::{analyze_region, AnalysisConfig};
//!
//! // A one-block region: root k, derived constant k*8, dynamic param p.
//! let mut f = Function::new("demo", vec![Ty::Int, Ty::Int], Ty::Int);
//! let e = f.entry;
//! let k = f.append(e, InstKind::Param(0));
//! let body = f.add_block();
//! f.blocks[e].term = Terminator::Jump(body);
//! let p = f.append(body, InstKind::Param(1));
//! let eight = f.const_int(body, 8);
//! let k8 = f.bin(body, BinOp::Mul, k, eight);
//! let sum = f.bin(body, BinOp::Add, k8, p);
//! f.blocks[body].term = Terminator::Return(Some(sum));
//! let region = f.regions.push(DynRegion {
//!     entry: body,
//!     blocks: [body].into_iter().collect::<IdSet<_>>(),
//!     const_roots: vec![k],
//!     key_roots: vec![],
//! });
//! f.is_ssa = true;
//!
//! let a = analyze_region(&f, region, &AnalysisConfig::default());
//! assert!(a.is_const(k8));   // derived from the annotated root
//! assert!(!a.is_const(sum)); // depends on the dynamic parameter
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cond;
pub mod rtc;
pub mod unroll;

pub use cond::{Cond, Literal};
pub use rtc::{
    analyze_region, analyze_region_with, AnalysisConfig, AnalysisScratch, RegionAnalysis,
};
pub use unroll::{check_unrollable, UnrollError};

#[cfg(test)]
mod tests;
