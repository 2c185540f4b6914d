//! The host-native backend as one facet of the session: dispatch,
//! served (install → chain → guard), severed (evict, quarantine,
//! degrade) and report, called from the sites DESIGN.md § "The native
//! facet" tabulates (a unit test holds that table to the code). Its
//! methods borrow the VM and the program beside [`NativeState`], and
//! return what happened: the session writes every health record and
//! trace event. Nothing here charges simulated cycles.

use super::{EngineOptions, NativeReport, KEYED_LOOKUP_CYCLES, PER_KEY_CYCLES, TRAP_CYCLES};
use crate::{Program, STATIC_REGION};
use dyncomp_ir::eval::EvalError;
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_machine::isa::{Op, SP};
use dyncomp_machine::template::ValueLoc;
use dyncomp_machine::vm::{Vm, VmError};
use dyncomp_native::{Artifact, Backend, ChainSpec, KeySlot, RunOutcome};
use std::time::Instant;

/// Native dispatches within a single `call` before the whole-static-code
/// instance is installed (chain mode). Kernels that bounce between
/// native instances and the VM loop cross this within their first
/// post-install call; kernels that enter native once per call never do,
/// and never pay the snapshot's one-time translate cost. Purely a
/// host-side heuristic: simulated cycles are identical either way.
const STATIC_CHAIN_THRESHOLD: u64 = 4;

/// Per-session state of the host-native backend (`Some` in the session
/// iff [`EngineOptions::native`] was set).
#[derive(Default)]
pub(super) struct NativeState {
    /// Installed instances and their executable arena.
    backend: Backend,
    /// [`EngineOptions::native_chain`]: direct threading, region
    /// instances severed on teardown.
    chain: bool,
    /// Whether `EnterRegion` guard sleds may be patched: chain mode, and
    /// a guard hit bypasses the trap handler, so not under tiering (the
    /// key predictor feeds on traps) nor under a `keyed_cache_capacity`
    /// bound (hits touch the LRU).
    guards: bool,
    /// Set after an install-layer failure (unsupported host, mapping
    /// refused): no further installs are attempted this session.
    disabled: bool,
    /// The translation [`NativeState::pretranslate`] made or
    /// [`NativeState::carry`] kept, by install base, until `install`.
    pending: Option<(u32, Artifact)>,
    /// The session-accumulated counters of [`NativeState::report`]
    /// (`enabled`, `active`, `chained` and `bytes` are read off the
    /// backend when the report is taken).
    counters: NativeReport,
    /// Whether the whole-static-code instance install was attempted
    /// (tried once, lazily, when a single call shows repeated native
    /// dispatches — the VM-bounce pattern chaining exists to collapse).
    static_attempted: bool,
    /// Value of `counters.entries` when the current `call` started; the
    /// install heuristic compares against it to detect repeated
    /// dispatches within one call.
    call_entries: u64,
    /// Install base → owning region ([`STATIC_REGION`] for the
    /// static-code instance), for attributing chained transfers, and the
    /// pcs marked for native dispatch — retired when the instance is
    /// severed so the VM never bounces on a dead pc.
    installed: FxHashMap<u32, (u16, Vec<u32>)>,
}

impl NativeState {
    /// The facet for a session under `options`; the two option bits the
    /// native code reads are taken here, once.
    pub(super) fn new(options: &EngineOptions) -> Self {
        let chain = options.native_chain;
        NativeState {
            chain,
            guards: chain && options.keyed_cache_capacity.is_none() && options.tiered.is_none(),
            ..NativeState::default()
        }
    }

    /// Call boundary for the static-instance install heuristic: only
    /// repeated dispatches *within* one call count as the bounce pattern
    /// worth paying the snapshot translate for.
    pub(super) fn begin_call(&mut self) {
        self.call_entries = self.counters.entries;
    }

    /// Serve a `Stop::Native` dispatch at `at`: run the installed host
    /// instance, then set the VM to resume at the native exit pc, or
    /// return the identical `VmError` the interpreter would have raised.
    /// Also returns the dispatched instance's region ([`STATIC_REGION`]
    /// for the static-code instance and a raced eviction) and the direct
    /// transfers the run took, for the session to book.
    ///
    /// A bail-out that made no progress — fuel too low to charge the
    /// first block, or an entry the translator could not cover — hands
    /// the pc back to the interpreter exactly once
    /// ([`Vm::skip_native_once`]), so execution always advances. The
    /// bounce heuristic may install the static-code instance here;
    /// `retired` names the `(region, base)` of every unkeyed region
    /// whose trap already retired, and is only walked then.
    pub(super) fn dispatch(
        &mut self,
        at: u32,
        vm: &mut Vm,
        program: &Program,
        retired: impl Iterator<Item = (u16, u32)>,
    ) -> (u16, u64, Result<(), VmError>) {
        let before = self.backend.chained();
        let out = self.backend.run(at, vm);
        let chained = self.backend.chained() - before;
        let region = self
            .backend
            .base_of(at)
            .and_then(|b| self.installed.get(&b).map(|&(r, _)| r))
            .unwrap_or(STATIC_REGION);
        // An entry is a dispatch that made progress: a bail-out straight
        // back to the dispatch pc (fuel too short for the first block)
        // and a raced eviction are not entries.
        let progressed = match out {
            RunOutcome::Missing => false,
            RunOutcome::Exit { pc } => pc != at || chained > 0,
            _ => true,
        };
        if progressed {
            self.counters.entries += 1;
            // One call re-dispatching this often is ping-ponging between
            // native code and the VM loop, so the one-time static-snapshot
            // translate will pay for itself.
            if !self.static_attempted
                && self.counters.entries - self.call_entries >= STATIC_CHAIN_THRESHOLD
            {
                self.install_static(vm, program, retired);
            }
        }
        let resume = match out {
            RunOutcome::Exit { pc } => {
                if pc == at {
                    vm.skip_native_once(at);
                }
                vm.pc = pc;
                Ok(())
            }
            RunOutcome::MemFault { addr } => Err(VmError::Mem(EvalError::OutOfBounds { addr })),
            RunOutcome::DivFault { pc } => Err(VmError::DivideByZero { pc }),
            RunOutcome::Missing => {
                vm.unmark_native(at);
                Ok(())
            }
        };
        (region, chained, resume)
    }

    /// Install the whole static code region as one native instance
    /// (chain mode): every supported block leader becomes a published
    /// chain target, `Jmp`/`Jsr` thread through the dispatch table, and
    /// `EnterRegion` pcs reserve patchable guard sleds. Attempted once; a
    /// decline (nothing lowered, arena refused) leaves the session on the
    /// per-instance path. The translation is the program's
    /// ([`Program::native_snapshot`]), made from the code as compiled, so
    /// traps retired before the install still appear as `EnterRegion`
    /// words — their guard sleds are armed retroactively below.
    fn install_static(
        &mut self,
        vm: &mut Vm,
        program: &Program,
        retired: impl Iterator<Item = (u16, u32)>,
    ) {
        self.static_attempted = true;
        // Host unavailability is reported once, by `install`.
        if !self.chain || self.disabled || !dyncomp_native::available() {
            return;
        }
        let start = Instant::now();
        let artifact = program.native_snapshot(&vm.model, self.guards);
        self.note_translation(start, &artifact);
        if self.backend.install_any(0, &artifact).is_err() {
            return;
        }
        self.counters.installs += 1;
        // Deliberately mark *no* VM dispatch pc for the static snapshot:
        // marking every leader would hand the VM off into many short
        // native runs (one per stretch between unsupported ops), and the
        // per-dispatch FFI overhead of those bounces costs more than the
        // VM interpreting the same stretch. The snapshot is reached only
        // through chained transfers — dispatch-table jumps and patched
        // exits from region instances, and patched entry guards — where
        // control is already native and the transfer is a bare `jmp`.
        self.installed.insert(0, (STATIC_REGION, Vec::new()));
        self.backend.chain(0);
        self.sever(vm, []);
        // Unkeyed regions whose trap retired before this install left
        // their guard sleds unarmed (retirement arms the guard, but the
        // sled did not exist yet). Arm them now; keyed guards re-arm on
        // the next cache hit without help.
        for (region, base) in retired {
            self.guard(vm, program, region, &[], base);
        }
    }

    /// Translate the `len` code words installed at `base`. Chain mode
    /// lowers `Jmp`/`Jsr` through the dispatch table; region instances
    /// carry no guard sleds (those live in the static-code instance, in
    /// front of the `EnterRegion` traps themselves).
    fn translate(&mut self, vm: &Vm, base: u32, len: u32) -> Artifact {
        let start = Instant::now();
        let code = &vm.code[base as usize..(base as usize + len as usize)];
        let spec = ChainSpec {
            indirect: self.chain,
            ..ChainSpec::default()
        };
        let artifact = dyncomp_native::translate_with(code, base, &vm.model, &spec);
        self.note_translation(start, &artifact);
        artifact
    }

    /// Fold one translation's host wall-clock and coverage into the
    /// counters.
    fn note_translation(&mut self, start: Instant, a: &Artifact) {
        self.counters.translate_ns += start.elapsed().as_nanos() as u64;
        self.counters.translated_instructions += u64::from(a.instructions);
        self.counters.covered_instructions += u64::from(a.covered);
    }

    /// The stitch rung's pre-translation of the instance it appended at
    /// `base`, held for [`NativeState::install`] and the persist store.
    /// Returns the instance's native footprint (the host bytes an install
    /// takes; 0 when its entry does not lower), which the published
    /// instance carries so byte-budgeted shards govern both backends.
    pub(super) fn pretranslate(&mut self, vm: &Vm, base: u32, len: u32) -> u64 {
        let artifact = self.translate(vm, base, len);
        let bytes = if artifact.entry_supported {
            artifact.bytes.len() as u64
        } else {
            0
        };
        self.pending = Some((base, artifact));
        bytes
    }

    /// The persist rung's carried translation of the instance it
    /// installed at `base`. Stubs are position-dependent and lower
    /// `Jmp`/`Jsr` for one chain mode: they are used only when the
    /// publisher installed at the same base in this session's mode.
    pub(super) fn carry(&mut self, base: u32, published_at: u32, artifact: Option<Artifact>) {
        if let Some(a) = artifact.filter(|a| published_at == base && a.indirect == self.chain) {
            self.pending = Some((base, a));
        }
    }

    /// The pending translation of `base`, for the persist store: only
    /// while [`NativeState::install`] has not consumed it, and only when
    /// it can serve entries.
    pub(super) fn held(&self, base: u32) -> Option<&Artifact> {
        let (b, a) = self.pending.as_ref()?;
        (*b == base && a.entry_supported).then_some(a)
    }

    /// Install the instance at `base` (`len` words): the pending
    /// translation when it is this base's, a fresh one otherwise. Returns
    /// the host bytes installed (0 for an entry that does not lower,
    /// which stays on the VM), or the message of the one
    /// `backend-unavailable` record the session writes when the host
    /// cannot run the backend or the arena refuses the install — either
    /// disables the facet for the session.
    pub(super) fn install(
        &mut self,
        vm: &mut Vm,
        region: u16,
        base: u32,
        len: u32,
    ) -> Result<u64, String> {
        if self.disabled {
            return Ok(0);
        }
        if !dyncomp_native::available() {
            self.disabled = true;
            return Err(
                "native backend unsupported on this host: session runs on the VM backend"
                    .to_string(),
            );
        }
        let artifact = match self.pending.take() {
            Some((b, a)) if b == base => a,
            _ => self.translate(vm, base, len),
        };
        if !artifact.entry_supported {
            self.counters.declined += 1;
            return Ok(0);
        }
        if let Err(e) = self.backend.install(base, &artifact) {
            self.disabled = true;
            return Err(format!(
                "native install failed: {e}; session runs on the VM backend"
            ));
        }
        self.counters.installs += 1;
        // Chain mode marks every dispatchable leader, so the VM re-enters
        // native code mid-instance after any exit; unchained mode keeps
        // the base-only mark.
        let marks: Vec<u32> = if self.chain {
            artifact.entries.iter().map(|&(pc, _)| pc).collect()
        } else {
            vec![base]
        };
        for &pc in &marks {
            vm.mark_native(pc);
        }
        self.installed.insert(base, (region, marks));
        Ok(artifact.bytes.len() as u64)
    }

    /// Whether installs are followed by a chain request (chain mode).
    pub(super) fn chains(&self) -> bool {
        self.chain
    }

    /// Request direct threading for the freshly installed instance at
    /// `base`: publish its blocks in the dispatch table and back-patch
    /// every exit blob that now has a native continuation.
    pub(super) fn chain(&mut self, vm: &mut Vm, base: u32) {
        if !self.chain || self.disabled || !self.backend.has(base) {
            return;
        }
        self.backend.chain(base);
        self.sever(vm, []);
    }

    /// Chain mode: patch the static instance's guard sled at `region`'s
    /// `EnterRegion` into a direct entry to the chained instance at
    /// `base`.
    ///
    /// Keyed regions (on a keyed trap hit, `key` non-empty) get a
    /// monomorphic inline cache: the guard compares the live key
    /// locations against `key` and on a hit charges exactly what the trap
    /// path does (1 fuel; trap + lookup + per-key cycles). Unkeyed
    /// regions (at trap retirement, `key` empty) get an unconditional
    /// entry charging what the VM pays interpreting the retirement `Br`
    /// it replaces (1 fuel; one taken branch). Any miss — different key,
    /// low fuel, unreadable frame slot — falls back to the VM path,
    /// uncharged. At most one guard per region is live at a time.
    pub(super) fn guard(
        &mut self,
        vm: &mut Vm,
        program: &Program,
        region: u16,
        key: &[u64],
        base: u32,
    ) {
        if !self.guards || self.disabled || !self.backend.has(0) {
            return;
        }
        let rc = &program.compiled.regions[region as usize];
        let pc = rc.enter_pc;
        let keys: Vec<(KeySlot, u64)> = rc
            .key_locs
            .iter()
            .zip(key)
            .map(|(l, &v)| (keyslot(l), v))
            .collect();
        let cycles = if key.is_empty() {
            vm.model.cost(Op::Br, true)
        } else {
            TRAP_CYCLES + KEYED_LOOKUP_CYCLES + PER_KEY_CYCLES * key.len() as u64
        };
        if self.backend.patch_guard(0, pc, &keys, SP, cycles, base) {
            // The guard lives and dies with its target: record the mark
            // under `base` so severing the instance retires it too.
            self.installed.entry(base).or_default().1.push(pc);
            vm.mark_native(pc);
        }
        self.sever(vm, []);
    }

    /// Tear down the native instances at `bases` (evicted, quarantined,
    /// or shed by the byte-budget ladder): every chain link through one
    /// is severed before its pages are released. Then retire the
    /// dispatch marks of those, and of every instance the backend removed
    /// on its own because a patch on it, or on a link it held, failed:
    /// the VM must never bounce on a dead pc. Returns how many of `bases`
    /// were installed. Chain mode only — the unchained backend keeps
    /// instances installed for the append-only code space.
    pub(super) fn sever(&mut self, vm: &mut Vm, bases: impl IntoIterator<Item = u32>) -> usize {
        let mut gone = Vec::new();
        if self.chain {
            gone.extend(bases.into_iter().filter(|&b| self.backend.remove(b)));
        }
        let severed = gone.len();
        gone.extend(self.backend.take_discarded());
        for (_, marks) in gone.into_iter().filter_map(|b| self.installed.remove(&b)) {
            for pc in marks {
                vm.unmark_native(pc);
            }
        }
        severed
    }

    /// Test hook: the next `n` patch batches land without resealing.
    pub(super) fn fail_reseals(&mut self, n: u32) {
        self.backend.fail_next_reseals(n);
    }

    /// The session's [`NativeReport`].
    pub(super) fn report(&self) -> NativeReport {
        NativeReport {
            enabled: true,
            active: !self.disabled && dyncomp_native::available(),
            chained: self.backend.chained(),
            bytes: self.backend.bytes(),
            ..self.counters
        }
    }
}

/// Mirror a region-key [`ValueLoc`] into the native translator's
/// [`KeySlot`] (same kinds, crate-local type).
pub(crate) fn keyslot(l: &ValueLoc) -> KeySlot {
    match *l {
        ValueLoc::Reg(r) => KeySlot::Reg(r),
        ValueLoc::FReg(r) => KeySlot::FReg(r),
        ValueLoc::Frame(off) => KeySlot::Frame(off),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    /// DESIGN.md's native table is the session's facet call sites: each
    /// row's site calls its facet calls, each function its event names
    /// calls the site, and every facet call in `engine.rs` has its row.
    #[test]
    fn design_native_table_is_the_code() {
        let src = include_str!("../engine.rs");
        let src = &src[..src.find("#[cfg(test)]").unwrap_or(src.len())];
        let body = |f: &str| {
            let start = src.find(&format!("fn {f}(")).expect("the site exists");
            let end = src[start..].find("\n    }\n").expect("the site ends");
            &src[start..start + end]
        };
        let ticked = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(String::from)
                .collect()
        };
        let design = include_str!("../../../../DESIGN.md");
        let header = "| engine event | session site | facet call | native action |";
        let start = design.find(header).expect("DESIGN.md has the native table");
        let mut rows = BTreeSet::new();
        for row in design[start..]
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
        {
            let cells: Vec<&str> = row.split('|').collect();
            let site = ticked(cells[2]).remove(0);
            for event in ticked(cells[1]).into_iter().filter(|e| *e != site) {
                let calls_site = body(&event).contains(&format!("self.{site}("));
                assert!(calls_site, "{event} does not call {site}: {row}");
            }
            for call in ticked(cells[3]) {
                let b = body(&site);
                let called = b.contains(&format!("ns.{call}("))
                    || b.contains(&format!("NativeState::{call}"));
                assert!(called, "{site} does not call the facet's {call}: {row}");
                rows.insert((site.clone(), call));
            }
        }
        let mut calls = BTreeSet::new();
        let mut site = "";
        for line in src.lines() {
            if let Some(rest) = line.strip_prefix("    ") {
                let rest = rest
                    .trim_start_matches("pub ")
                    .trim_start_matches("pub(crate) ");
                if let Some(name) = rest.strip_prefix("fn ") {
                    site = name.split(['(', '<']).next().unwrap_or("");
                }
            }
            for (i, _) in line
                .match_indices("ns.")
                .chain(line.match_indices("NativeState::"))
            {
                let before = line[..i].chars().last();
                if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let tail = &line[i..];
                let name = tail[tail.find(['.', ':']).unwrap_or(0)..]
                    .trim_start_matches(['.', ':'])
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or("");
                calls.insert((site.to_string(), name.to_string()));
            }
        }
        assert_eq!(
            calls, rows,
            "DESIGN.md's native table drifted from engine.rs"
        );
    }
}
