//! Legality checking for `unrolled`-annotated loops (§2).
//!
//! "The loop termination condition must be governed by a run-time
//! constant." Complete unrolling stitches one copy of the loop body per
//! iteration; the decision to stitch *another* copy is made by the run-time
//! constant branches recorded per iteration, so some constant branch inside
//! the loop must separate paths that reach the back edge from paths that do
//! not. Dynamic branches *may* exit the loop (the paper's cache-lookup
//! `return CacheHit` does), because the stitcher simply emits both sides —
//! but a dynamic branch must never be the only gate on the back edge, or
//! set-up code and stitching would not terminate.

use crate::rtc::RegionAnalysis;
use dyncomp_ir::loops::{LoopForest, NaturalLoop};
use dyncomp_ir::{BlockId, Function, IdSet, RegionId};
use std::fmt;

/// Why an annotated loop cannot be completely unrolled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollError {
    /// The annotated header is not the header of any natural loop.
    NotALoop(BlockId),
    /// The loop crosses the dynamic region boundary.
    EscapesRegion(BlockId),
    /// The function's CFG is irreducible; the set-up generator cannot
    /// schedule it.
    Irreducible,
    /// No constant branch inside the loop separates back-edge-reaching
    /// paths from the rest: termination is not governed by a run-time
    /// constant.
    NoConstantGate(BlockId),
}

impl fmt::Display for UnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrollError::NotALoop(b) => {
                write!(f, "unrolled annotation on {b}, which heads no natural loop")
            }
            UnrollError::EscapesRegion(b) => {
                write!(
                    f,
                    "unrolled loop at {b} is not contained in its dynamic region"
                )
            }
            UnrollError::Irreducible => write!(f, "control flow graph is irreducible"),
            UnrollError::NoConstantGate(b) => write!(
                f,
                "termination of unrolled loop at {b} is not governed by a run-time constant"
            ),
        }
    }
}

impl std::error::Error for UnrollError {}

/// Check that the loop headed by `header` may legally be fully unrolled.
///
/// # Errors
/// Returns the specific [`UnrollError`] explaining the failed requirement.
pub fn check_unrollable<'l>(
    f: &Function,
    region: RegionId,
    analysis: &RegionAnalysis,
    forest: &'l LoopForest,
    header: BlockId,
) -> Result<&'l NaturalLoop, UnrollError> {
    if forest.irreducible {
        return Err(UnrollError::Irreducible);
    }
    let l = forest
        .loop_with_header(header)
        .ok_or(UnrollError::NotALoop(header))?;
    let r = &f.regions[region];
    for b in l.blocks.iter() {
        if !r.blocks.contains(b) {
            return Err(UnrollError::EscapesRegion(header));
        }
    }

    // Blocks that can reach a latch through loop-internal, non-back edges.
    let latch_reaching = blocks_reaching_latches(f, l);

    // Some constant branch must have successors on both sides of that set.
    let gated = l.blocks.iter().any(|b| {
        if !analysis.const_branches.contains(b) {
            return false;
        }
        let succs = f.blocks[b].term.successors();
        let reaches = |s: BlockId| l.blocks.contains(s) && latch_reaching.contains(s);
        succs.clone().any(reaches) && succs.clone().any(|s| !reaches(s))
    });
    if !gated {
        return Err(UnrollError::NoConstantGate(header));
    }
    Ok(l)
}

/// The set of loop blocks from which a latch is reachable using only
/// loop-internal edges, never traversing a back edge (latch → header).
fn blocks_reaching_latches(f: &Function, l: &NaturalLoop) -> IdSet<BlockId> {
    // Reverse reachability from the latches.
    let mut out = IdSet::new();
    let mut work: Vec<BlockId> = l.latches.clone();
    for &b in &l.latches {
        out.insert(b);
    }
    while let Some(b) = work.pop() {
        for p in l.blocks.iter() {
            if !out.contains(p) && f.blocks[p].term.successors().contains(b) {
                // Walking backward never crosses a back edge: back edges
                // start at latches, and every latch is already in `out`.
                out.insert(p);
                work.push(p);
            }
        }
    }
    out
}
