//! The artifact/session determinism suite: many sessions over one shared
//! `Arc<Program>` must be *bit-identical* — same results, same per-session
//! simulated cycle counts, same region reports — whether they run on one
//! thread or eight. The simulated machine is fully deterministic; the
//! artifact/session split must not leak any host-side nondeterminism
//! (thread scheduling, allocation addresses) into simulated state.
//!
//! Each test is a lattice plan (`dyncomp_bench::lattice`) run with eight
//! concurrent sessions per cell, on the five paper kernels at smoke size.

use dyncomp_bench::lattice;

/// 8 threads × shared `Arc<Program>`, default options: every session is
/// bit-identical to the single-threaded run on all five paper kernels —
/// checksum, simulated cycle counts, and full per-region reports.
#[test]
fn eight_threads_bit_identical_to_single_threaded() {
    lattice::check("concurrent_determinism::default");
}

/// The same holds with the shared stitched-code cache enabled *for the
/// results*: cycle counts may differ between sessions (whoever stitches
/// first pays set-up; later sessions pay the cheaper install), but every
/// session must still compute identical checksums.
#[test]
fn shared_cache_preserves_results_across_threads() {
    lattice::check_with("concurrent_determinism::shared", |k, reference, got| {
        let stitches = |o: &lattice::Observed| -> u64 {
            o.outcome
                .reports
                .iter()
                .map(|r| u64::from(r.stitches))
                .sum()
        };
        let total_stitches: u64 = got.iter().map(stitches).sum();
        let shared_hits: u64 = got
            .iter()
            .flat_map(|o| &o.outcome.reports)
            .map(|r| r.shared_hits)
            .sum();
        // Reuse must actually happen: eight sessions need strictly fewer
        // stitches than eight independent runs would perform.
        assert!(
            total_stitches < got.len() as u64 * stitches(reference),
            "{k:?}: no cross-session reuse ({total_stitches} stitches, {shared_hits} shared hits)"
        );
        assert!(shared_hits > 0, "{k:?}: expected a shared-cache hit");
    });
}

/// Tiered mode must not weaken the determinism guarantee: install
/// visibility is decided on virtual worker clocks, not by when a stitch
/// job ran on the host, so eight threaded sessions with tiering
/// (and speculation) are still bit-identical to the single-threaded run —
/// checksums, cycle counts, and full reports including tiered counters.
#[test]
fn eight_threads_bit_identical_with_tiering() {
    lattice::check("concurrent_determinism::tiered");
}
