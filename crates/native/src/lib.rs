//! Host-native copy-and-patch backend for the SimAlpha VM.
//!
//! The stitcher produces SimAlpha instances — straight-line template
//! words with holes already patched. This crate lowers those instances
//! to real x86-64 machine code with the same copy-and-patch shape one
//! level down: each SimAlpha operation maps to a chain of pre-assembled
//! [`stubs`] (bulk byte copy + at most one 32-bit patch each), and the
//! result is sealed into a W^X executable arena ([`ExecMap`] on
//! supported hosts).
//!
//! The VM stays authoritative: it remains the cycle-accounting oracle
//! and the semantic reference, and every operation the translator does
//! not lower (indirect jumps, allocation, region traps, VM-defined
//! fault encodings) exits back to the interpreter at a precise pc. On a
//! fault-free run, registers, memory, cycles, and fuel are bit-identical
//! between the two backends; after a `VmError` the error itself is
//! identical while cycle/fuel counts may differ (the VM charges per
//! instruction, native per block — see [`translate`]).
//!
//! ## Context block ABI
//!
//! Generated code is `extern "C" fn(*mut NativeCtx)`. The context block
//! is a flat `#[repr(C)]` array of 8-byte slots so every stub addresses
//! state as `[r15 + disp32]`; writes to register 31 land in dedicated
//! discard slots, preserving the VM's hardwired-zero convention without
//! branches.

pub mod codec;
pub mod stubs;
pub mod translate;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod arena;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use arena::{ExecMap, POOL_BYTES, SLACK_FILL};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod arena {
    //! Hosts without the backend: no mapping is ever made, so no
    //! instance is ever installed.
    use crate::Patched;
    pub enum ExecMap {}
    impl ExecMap {
        pub fn new(_: &[u8]) -> Option<ExecMap> {
            None
        }
        pub fn entry(&self) -> *const u8 {
            match *self {}
        }
        pub fn len(&self) -> usize {
            match *self {}
        }
        pub fn capacity(&self) -> usize {
            match *self {}
        }
        pub fn patch(&mut self, _: &[(usize, &[u8])]) -> Patched {
            match *self {}
        }
        pub fn patch_without_reseal(&mut self, _: &[(usize, &[u8])]) -> Patched {
            match *self {}
        }
    }
}
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
use arena::ExecMap;

pub use translate::{translate, translate_with, Artifact, ChainSpec, GuardSpec, KeySlot};

use dyncomp_machine::Vm;
use std::collections::BTreeMap;
use std::fmt;

// ---- context-slot displacements (see `NativeCtx`) ----
/// Integer registers, 32 × 8 bytes.
pub const CTX_REGS: u32 = 0;
/// Float registers (as raw `f64` slots), 32 × 8 bytes.
pub const CTX_FREGS: u32 = 256;
/// Base pointer of simulated data memory.
pub const CTX_MEM_PTR: u32 = 512;
/// Length of simulated data memory in bytes.
pub const CTX_MEM_LEN: u32 = 520;
/// Accumulated simulated cycles.
pub const CTX_CYCLES: u32 = 528;
/// Remaining instruction budget.
pub const CTX_FUEL: u32 = 536;
/// SimAlpha pc to resume at on a clean exit.
pub const CTX_EXIT_PC: u32 = 544;
/// Exit status: see `NativeCtx::status`.
pub const CTX_STATUS: u32 = 552;
/// Faulting SimAlpha pc (divide faults).
pub const CTX_FAULT_PC: u32 = 560;
/// Faulting simulated address (memory faults).
pub const CTX_FAULT_ADDR: u32 = 568;
/// Write sink for integer register 31.
pub const CTX_IDISCARD: u32 = 576;
/// Write sink for float register 31.
pub const CTX_FDISCARD: u32 = 584;
/// Base pointer of the pc → host-entry dispatch table (8-byte slots).
pub const CTX_DISPATCH: u32 = 592;
/// Number of dispatch-table slots.
pub const CTX_DISPATCH_LEN: u32 = 600;
/// Direct transfers taken during this run (chained jumps and guard hits).
pub const CTX_CHAINED: u32 = 608;

/// The machine-state block generated code executes against.
///
/// Layout is frozen by the `CTX_*` displacements baked into the stubs;
/// the `ctx_layout` test pins every offset.
#[repr(C)]
#[derive(Clone)]
pub struct NativeCtx {
    /// Integer registers (slot 31 is kept 0; writes go to `idiscard`).
    pub regs: [u64; 32],
    /// Float registers (slot 31 is kept 0.0; writes go to `fdiscard`).
    pub fregs: [f64; 32],
    /// Base of the simulated memory image.
    pub mem_ptr: u64,
    /// Simulated memory length in bytes.
    pub mem_len: u64,
    /// Simulated cycle counter.
    pub cycles: u64,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// Resume pc on clean exit.
    pub exit_pc: u64,
    /// 0 = clean exit, 2 = memory fault, 3 = divide fault.
    pub status: u64,
    /// Faulting pc for divide faults.
    pub fault_pc: u64,
    /// Faulting address for memory faults.
    pub fault_addr: u64,
    /// Discard slot for integer r31 writes.
    pub idiscard: u64,
    /// Discard slot for float f31 writes.
    pub fdiscard: u64,
    /// Dispatch-table base: slot `pc` holds the host address of the
    /// native block body for SimAlpha pc, or 0 when unchained.
    pub dispatch: u64,
    /// Dispatch-table length in slots.
    pub dispatch_len: u64,
    /// Direct transfers taken during this run.
    pub chained: u64,
}

/// Whether this build can execute translated code. Translation itself
/// ([`translate`]) runs anywhere; only install/run are host-gated.
pub fn available() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// What a batch of edits did to a sealed mapping ([`ExecMap::patch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Patched {
    /// Every edit landed and the pages are read-execute again.
    Applied,
    /// Nothing changed: an edit fell outside the code, or the kernel
    /// refused to make the pages writable. The old code still runs.
    Refused,
    /// The edits landed but the pages could not be made executable
    /// again: they are read-write, and running them would fault. The
    /// holder must be discarded before anything jumps into it.
    Unsealed,
}

/// Why an artifact could not be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// The instance's first instruction has no native lowering, so
    /// dispatch would bounce straight back to the interpreter.
    EntryUnsupported,
    /// The artifact's tables leave it ([`Artifact::check_layout`]), or
    /// its code addresses overlap an installed instance's.
    Refused(&'static str),
    /// The host cannot provide an executable mapping (unsupported
    /// target, exhausted address space, or a W^X/mprotect refusal).
    Unavailable,
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::EntryUnsupported => write!(f, "instance entry has no native lowering"),
            InstallError::Refused(what) => write!(f, "artifact refused: {what}"),
            InstallError::Unavailable => write!(f, "executable arena unavailable on this host"),
        }
    }
}

impl std::error::Error for InstallError {}

/// What happened when translated code ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Clean exit: resume the VM at `pc` (fuel shortfall, an operation
    /// that needs the interpreter, or a branch out of the instance).
    Exit {
        /// SimAlpha pc to resume at.
        pc: u32,
    },
    /// Simulated memory fault at `addr` (maps to `VmError::Mem`).
    MemFault {
        /// The out-of-bounds simulated address.
        addr: u64,
    },
    /// Divide fault at `pc` (maps to `VmError::DivideByZero`).
    DivFault {
        /// SimAlpha pc of the divide.
        pc: u32,
    },
    /// No instance is installed at the requested address.
    Missing,
}

/// One slot of the pc table: who serves dispatches at its SimAlpha pc.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// Host address of the owner's FFI entry thunk for the pc; 0 while no
    /// live instance serves it.
    thunk: u64,
    /// Install base of the owning instance.
    base: u32,
    /// The region tag the owner was installed with.
    region: u16,
}

/// A patchable site of an instance — an exit blob or a guard sled — and
/// the base of the instance its live patch jumps into (`None` while it
/// holds the bytes `translate` emitted).
struct Site {
    pc: u32,
    off: u32,
    len: u32,
    target: Option<u32>,
}

struct Instance {
    map: ExecMap,
    /// One past its last word address: its entries are the live pc-table
    /// slots in `base..end` that name it.
    end: u32,
    /// Whether its blocks are published in the dispatch table.
    chained: bool,
    /// pc → block-body offset (in-native chain targets).
    blocks: Vec<(u32, u32)>,
    /// Exit sites (outside the instance): the back-patchable chain links.
    exits: Vec<Site>,
    /// Reserved `EnterRegion` guard sleds.
    sleds: Vec<Site>,
}

/// Byte length of a back-patched exit blob head: `inc [r15+chained]`,
/// `movabs rax, target`, `jmp rax`.
pub(crate) const EXIT_PATCH_LEN: usize = 20;

/// Reconstruct the first [`EXIT_PATCH_LEN`] bytes of the pristine exit
/// blob for `pc`, exactly as `translate` emitted them — severing a link
/// restores these over the back-patch.
fn exit_blob_head(pc: u32) -> Vec<u8> {
    let mut a = stubs::Asm::default();
    a.mov_slot_imm32(CTX_EXIT_PC, pc);
    a.mov_slot_imm32(CTX_STATUS, 0);
    a.copy(stubs::EPILOGUE);
    let mut bytes = a.finish();
    bytes.truncate(EXIT_PATCH_LEN);
    bytes
}

/// The back-patch over an exit blob's head that turns it into a direct
/// jump to the host address `addr`: count the chained transfer, then
/// `movabs rax, addr; jmp rax`.
fn exit_patch(addr: u64) -> [u8; EXIT_PATCH_LEN] {
    let mut patch = [0u8; EXIT_PATCH_LEN];
    patch[0..3].copy_from_slice(&[0x49, 0x83, 0x87]); // add qword [r15+d32], 1
    patch[3..7].copy_from_slice(&CTX_CHAINED.to_le_bytes());
    patch[7] = 0x01;
    patch[8..10].copy_from_slice(&[0x48, 0xB8]); // movabs rax, addr
    patch[10..18].copy_from_slice(&addr.to_le_bytes());
    patch[18..20].copy_from_slice(&[0xFF, 0xE0]); // jmp rax
    patch
}

/// The installed native instances, keyed by the SimAlpha code address
/// their translation starts at, and the one record of what runs
/// natively: the pc table (slot `pc` names the instance serving
/// dispatches there, the host address of its entry thunk and its region
/// tag), the dispatch table generated code reads, and the accumulated
/// chained-transfer counter. Each instance carries its own chain state:
/// whether its blocks are published, and which exit sites and guard
/// sleds hold a live patch into which instance.
#[derive(Default)]
pub struct Backend {
    instances: BTreeMap<u32, Instance>,
    bytes: u64,
    /// The pc table, grown to the end of the highest instance installed.
    pcs: Vec<Entry>,
    /// Dispatch table: slot `pc` = host block address or 0. Published
    /// only for chained instances.
    table: Vec<u64>,
    /// Test hook: this many upcoming patch batches skip their reseal
    /// ([`Backend::fail_next_reseals`]).
    fail_reseals: u32,
    /// Total direct transfers across all runs.
    chained: u64,
}

impl Backend {
    /// An empty backend.
    pub fn new() -> Backend {
        Backend::default()
    }

    /// Install a translated artifact for the instance at code address
    /// `base`, sealing its bytes into an executable mapping. Its entries
    /// carry region tag 0.
    ///
    /// # Errors
    /// [`InstallError::EntryUnsupported`] when the artifact's first
    /// instruction is interpreter-only; otherwise as
    /// [`Backend::install_any`].
    pub fn install(&mut self, base: u32, artifact: &Artifact) -> Result<(), InstallError> {
        if !artifact.entry_supported {
            return Err(InstallError::EntryUnsupported);
        }
        self.install_any(base, artifact, 0)
    }

    /// Install an artifact that may have an interpreter-only first
    /// instruction, as long as *some* block is natively dispatchable —
    /// the static-code instance dispatches at marked leaders, never at
    /// its base. Every entry takes its pc-table slot with `region` as
    /// its tag ([`Backend::region_at`]).
    ///
    /// # Errors
    /// [`InstallError::EntryUnsupported`] when no block lowered;
    /// [`InstallError::Refused`] when the artifact's tables leave it or
    /// its code overlaps an installed instance's;
    /// [`InstallError::Unavailable`] when the host cannot supply a W^X
    /// arena.
    pub fn install_any(
        &mut self,
        base: u32,
        artifact: &Artifact,
        region: u16,
    ) -> Result<(), InstallError> {
        if artifact.entries.is_empty() {
            return Err(InstallError::EntryUnsupported);
        }
        let words = artifact.end.wrapping_sub(base) as usize;
        artifact
            .check_layout(base, words)
            .map_err(InstallError::Refused)?;
        // Instances never overlap, so the one starting last before
        // `end` is the only candidate.
        let below = self.instances.range(..artifact.end).next_back();
        if below.is_some_and(|(_, i)| i.end > base) {
            return Err(InstallError::Refused("instance overlaps an installed one"));
        }
        let map = ExecMap::new(&artifact.bytes).ok_or(InstallError::Unavailable)?;
        let entry = map.entry() as u64;
        if self.pcs.len() < artifact.end as usize {
            self.pcs.resize(artifact.end as usize, Entry::default());
        }
        for &(pc, off) in &artifact.entries {
            let thunk = entry + u64::from(off);
            self.pcs[pc as usize] = Entry {
                thunk,
                base,
                region,
            };
        }
        let site = |pc, off, len| Site {
            pc,
            off,
            len,
            target: None,
        };
        self.bytes += map.len() as u64;
        let instance = Instance {
            map,
            end: artifact.end,
            chained: false,
            blocks: artifact.block_offsets.clone(),
            exits: (artifact.exit_sites.iter())
                .map(|&(pc, off)| site(pc, off, EXIT_PATCH_LEN as u32))
                .collect(),
            sleds: (artifact.guard_areas.iter())
                .map(|g| site(g.pc, g.offset, g.len))
                .collect(),
        };
        self.instances.insert(base, instance);
        Ok(())
    }

    /// Whether an instance is installed at `base`.
    pub fn has(&self, base: u32) -> bool {
        self.instances.contains_key(&base)
    }

    /// Drop the instance at `base` (e.g. when the VM code there is
    /// patched, evicted, quarantined, or shed by the byte budget).
    /// Returns `None` when none was installed, else the pcs it retired:
    /// the caller unmarks exactly these.
    ///
    /// Every chain link into the instance is severed *before* its pages
    /// are released: back-patched exit blobs are restored to their
    /// original return-to-VM bytes, patched guards revert to NOP sleds
    /// (their guard pcs are retired), and its dispatch-table slots are
    /// nulled, so no stale direct jump can outlive the target. A holder
    /// whose restore fails still jumps into the instance (or can no
    /// longer run at all), so it is removed too, transitively; every
    /// entry of every removed instance is retired.
    pub fn remove(&mut self, base: u32) -> Option<Vec<u32>> {
        self.has(base).then(|| self.remove_closure(vec![base]))
    }

    /// Remove every instance in `doomed`, plus every holder whose
    /// un-patch of a link into one of them fails, and only then release
    /// their pages: nothing left installed jumps into a page that is
    /// unmapped or recycled for another instance. Returns the retired
    /// pcs.
    fn remove_closure(&mut self, mut doomed: Vec<u32>) -> Vec<u32> {
        let mut retired = Vec::new();
        let mut next = 0;
        while next < doomed.len() {
            let gone = doomed[next];
            next += 1;
            // One read-write window per surviving holder of a link into
            // `gone`, in base order.
            for (&holder, inst) in &mut self.instances {
                if doomed.contains(&holder) {
                    continue;
                }
                let into = |s: &&Site| s.target == Some(gone);
                let restores: Vec<(usize, Vec<u8>)> = (inst.exits.iter().filter(into))
                    .map(|s| (s.off as usize, exit_blob_head(s.pc)))
                    .chain(
                        (inst.sleds.iter().filter(into))
                            .map(|s| (s.off as usize, vec![0x90u8; s.len as usize])),
                    )
                    .collect();
                if restores.is_empty() {
                    continue;
                }
                let edits: Vec<(usize, &[u8])> = restores
                    .iter()
                    .map(|(off, b)| (*off, b.as_slice()))
                    .collect();
                if Self::patch_map(&mut self.fail_reseals, &mut inst.map, &edits)
                    != Patched::Applied
                {
                    doomed.push(holder);
                    continue;
                }
                for s in inst.exits.iter_mut().filter(|s| s.target == Some(gone)) {
                    s.target = None;
                }
                // The sleds are pristine again: re-armed for a future
                // region instance, their guard pcs out of service.
                for s in inst.sleds.iter_mut().filter(|s| s.target == Some(gone)) {
                    s.target = None;
                    retired.push(s.pc);
                }
            }
        }
        for base in doomed {
            let Some(old) = self.instances.remove(&base) else {
                continue;
            };
            self.bytes -= old.map.len() as u64;
            if old.chained {
                for &(pc, _) in &old.blocks {
                    self.table[pc as usize] = 0;
                }
            }
            for pc in base..old.end {
                let slot = &mut self.pcs[pc as usize];
                if slot.thunk != 0 && slot.base == base {
                    *slot = Entry::default();
                    retired.push(pc);
                }
            }
        }
        retired
    }

    /// Apply one batch of edits to `map`, or, while the
    /// [`Backend::fail_next_reseals`] hook is armed, apply it without the
    /// reseal.
    fn patch_map(fail_reseals: &mut u32, map: &mut ExecMap, edits: &[(usize, &[u8])]) -> Patched {
        if *fail_reseals > 0 {
            *fail_reseals -= 1;
            map.patch_without_reseal(edits)
        } else {
            map.patch(edits)
        }
    }

    /// Test hook: the next `n` patch batches land without resealing,
    /// leaving their mapping writable and not executable, as a refused
    /// `mprotect` would.
    #[doc(hidden)]
    pub fn fail_next_reseals(&mut self, n: u32) {
        self.fail_reseals = n;
    }

    /// `(address, bytes)` of every live mapping, for the W^X checks.
    #[doc(hidden)]
    pub fn mappings(&self) -> Vec<(usize, usize)> {
        (self.instances.values())
            .map(|i| (i.map.entry() as usize, i.map.capacity()))
            .collect()
    }

    /// Number of installed instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total executable bytes currently mapped.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total direct (chained) transfers taken across all runs.
    pub fn chained(&self) -> u64 {
        self.chained
    }

    /// The region tag of the instance serving dispatches at `pc`.
    pub fn region_at(&self, pc: u32) -> Option<u16> {
        let slot = self.pcs.get(pc as usize)?;
        (slot.thunk != 0).then_some(slot.region)
    }

    /// The instance whose published block starts at `pc`, and the
    /// block's host address.
    fn published(&self, pc: u32) -> Option<(u32, u64)> {
        let addr = *self.table.get(pc as usize)?;
        let slot = self.pcs.get(pc as usize)?;
        (addr != 0 && slot.thunk != 0).then_some((slot.base, addr))
    }

    /// Request direct threading for the instance at `base`: publish its
    /// block bodies in the dispatch table, then back-patch every exit
    /// blob — its own and those of already-chained instances — whose
    /// exit pc now has a published native continuation. Returns the
    /// number of new links patched (0 if `base` is not installed) and the
    /// pcs retired when a holder's patch left it unsealed and it was
    /// removed ([`Backend::remove`]).
    pub fn chain(&mut self, base: u32) -> (u32, Vec<u32>) {
        let Some(inst) = self.instances.get_mut(&base) else {
            return (0, Vec::new());
        };
        // Publish chain targets: block bodies expect live r15/r13/r12,
        // which every chained transfer preserves.
        let entry = inst.map.entry() as u64;
        for &(pc, off) in &inst.blocks {
            if self.table.len() <= pc as usize {
                self.table.resize(pc as usize + 1, 0);
            }
            self.table[pc as usize] = entry + u64::from(off);
        }
        inst.chained = true;
        // Back-patch exit blobs that can now jump straight to a
        // published block: the new instance's own sites, plus every
        // already-chained instance's sites that land in it.
        let mut work: Vec<(u32, usize, u32, u64)> = Vec::new(); // (holder, site, target, addr)
        for (&holder, inst) in self.instances.iter().filter(|(_, i)| i.chained) {
            for (i, s) in inst.exits.iter().enumerate() {
                let Some((target, addr)) = self.published(s.pc) else {
                    continue;
                };
                if s.target.is_none() && (holder == base || target == base) {
                    work.push((holder, i, target, addr));
                }
            }
        }
        // One read-write window per holder, however many of its exits
        // are patched.
        let mut patched = 0u32;
        let mut broken: Vec<u32> = Vec::new();
        for group in work.chunk_by(|a, b| a.0 == b.0) {
            let holder = group[0].0;
            let Some(inst) = self.instances.get_mut(&holder) else {
                continue;
            };
            let patches: Vec<[u8; EXIT_PATCH_LEN]> =
                group.iter().map(|w| exit_patch(w.3)).collect();
            let edits: Vec<(usize, &[u8])> = (group.iter().zip(&patches))
                .map(|(w, p)| (inst.exits[w.1].off as usize, p.as_slice()))
                .collect();
            match Self::patch_map(&mut self.fail_reseals, &mut inst.map, &edits) {
                Patched::Applied => {}
                Patched::Refused => continue,
                Patched::Unsealed => {
                    broken.push(holder);
                    continue;
                }
            }
            for w in group {
                inst.exits[w.1].target = Some(w.2);
            }
            patched += group.len() as u32;
        }
        let retired = if broken.is_empty() {
            Vec::new()
        } else {
            self.remove_closure(broken)
        };
        (patched, retired)
    }

    /// Patch the reserved guard sled at `pc` inside the instance at
    /// `holder` into a monomorphic inline cache: compare the region keys
    /// against `keys` (frame slots relative to register `sp`), charge
    /// `cycles` + 1 fuel on a hit, and jump directly to the chained
    /// instance at `target` (its published base block). Any miss falls
    /// back to the VM's keyed trap, uncharged. Returns whether the sled
    /// was patched, and the pcs retired when the patch left `holder`
    /// unsealed and it was removed ([`Backend::remove`]).
    pub fn patch_guard(
        &mut self,
        holder: u32,
        pc: u32,
        keys: &[(KeySlot, u64)],
        sp: u8,
        cycles: u64,
        target: u32,
    ) -> (bool, Vec<u32>) {
        let declined = (false, Vec::new());
        // The target must be a chained instance base.
        let Some((_, addr)) = self.published(target).filter(|&(b, _)| b == target) else {
            return declined;
        };
        let Some(inst) = self.instances.get_mut(&holder) else {
            return declined;
        };
        // At most one live patch per sled.
        let armed = inst
            .sleds
            .iter_mut()
            .find(|s| s.pc == pc && s.target.is_none());
        let Some(sled) = armed else {
            return declined;
        };
        let code = translate::build_guard(keys, sp, cycles, addr);
        if code.len() > sled.len as usize {
            return declined;
        }
        let edit = [(sled.off as usize, code.as_slice())];
        match Self::patch_map(&mut self.fail_reseals, &mut inst.map, &edit) {
            Patched::Applied => {
                sled.target = Some(target);
                (true, Vec::new())
            }
            Patched::Refused => declined,
            Patched::Unsealed => (false, self.remove_closure(vec![holder])),
        }
    }

    /// Run the instance serving dispatches at `at` against `vm`'s machine
    /// state.
    ///
    /// Registers, memory, cycles, and fuel are synced into a context
    /// block, the sealed code runs to an exit or fault, and the state is
    /// synced back. The caller maps the outcome: on [`RunOutcome::Exit`]
    /// set `vm.pc` and continue; faults translate to the corresponding
    /// `VmError`s; [`RunOutcome::Missing`] means dispatch raced an
    /// eviction and the caller should unmark and interpret.
    pub fn run(&mut self, at: u32, vm: &mut Vm) -> RunOutcome {
        let thunk = self.pcs.get(at as usize).map_or(0, |slot| slot.thunk);
        if thunk == 0 {
            return RunOutcome::Missing;
        }
        let mem = vm.mem.bytes_mut();
        let mut ctx = NativeCtx {
            regs: vm.regs,
            fregs: vm.fregs,
            mem_ptr: mem.as_mut_ptr() as u64,
            mem_len: mem.len() as u64,
            cycles: vm.cycles,
            fuel: vm.fuel,
            exit_pc: 0,
            status: u64::MAX,
            fault_pc: 0,
            fault_addr: 0,
            idiscard: 0,
            fdiscard: 0,
            dispatch: self.table.as_ptr() as u64,
            dispatch_len: self.table.len() as u64,
            chained: 0,
        };
        ctx.regs[31] = 0;
        ctx.fregs[31] = 0.0;
        // SAFETY: a live pc-table slot holds the address of an entry
        // thunk inside a sealed RX mapping whose bytes `translate`
        // produced for this ABI: install checked the thunk offset lies
        // inside the code, and removal vacates the slot before the
        // mapping is released (an instance left unsealed is removed at
        // once). The context outlives the call and the memory window
        // is exclusively borrowed from the VM for its duration.
        unsafe {
            let f: extern "C" fn(*mut NativeCtx) =
                core::mem::transmute(thunk as usize as *const u8);
            f(&mut ctx);
        }
        self.chained += ctx.chained;
        vm.regs = ctx.regs;
        vm.regs[31] = 0;
        vm.fregs = ctx.fregs;
        vm.fregs[31] = 0.0;
        vm.cycles = ctx.cycles;
        vm.fuel = ctx.fuel;
        match ctx.status {
            0 => RunOutcome::Exit {
                pc: ctx.exit_pc as u32,
            },
            2 => RunOutcome::MemFault {
                addr: ctx.fault_addr,
            },
            3 => RunOutcome::DivFault {
                pc: ctx.fault_pc as u32,
            },
            s => unreachable!("native stub exited with unknown status {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp_machine::isa::{encode, Inst, Op, Operand};
    use dyncomp_machine::{Stop, Vm, VmError};

    #[test]
    fn ctx_layout_matches_stub_displacements() {
        let c = NativeCtx {
            regs: [0; 32],
            fregs: [0.0; 32],
            mem_ptr: 0,
            mem_len: 0,
            cycles: 0,
            fuel: 0,
            exit_pc: 0,
            status: 0,
            fault_pc: 0,
            fault_addr: 0,
            idiscard: 0,
            fdiscard: 0,
            dispatch: 0,
            dispatch_len: 0,
            chained: 0,
        };
        let base = &c as *const NativeCtx as usize;
        let off = |p: usize| (p - base) as u32;
        assert_eq!(off(c.regs.as_ptr() as usize), CTX_REGS);
        assert_eq!(off(c.fregs.as_ptr() as usize), CTX_FREGS);
        assert_eq!(off(&c.mem_ptr as *const _ as usize), CTX_MEM_PTR);
        assert_eq!(off(&c.mem_len as *const _ as usize), CTX_MEM_LEN);
        assert_eq!(off(&c.cycles as *const _ as usize), CTX_CYCLES);
        assert_eq!(off(&c.fuel as *const _ as usize), CTX_FUEL);
        assert_eq!(off(&c.exit_pc as *const _ as usize), CTX_EXIT_PC);
        assert_eq!(off(&c.status as *const _ as usize), CTX_STATUS);
        assert_eq!(off(&c.fault_pc as *const _ as usize), CTX_FAULT_PC);
        assert_eq!(off(&c.fault_addr as *const _ as usize), CTX_FAULT_ADDR);
        assert_eq!(off(&c.idiscard as *const _ as usize), CTX_IDISCARD);
        assert_eq!(off(&c.fdiscard as *const _ as usize), CTX_FDISCARD);
        assert_eq!(off(&c.dispatch as *const _ as usize), CTX_DISPATCH);
        assert_eq!(off(&c.dispatch_len as *const _ as usize), CTX_DISPATCH_LEN);
        assert_eq!(off(&c.chained as *const _ as usize), CTX_CHAINED);
        assert_eq!(core::mem::size_of::<NativeCtx>(), 616);
    }

    fn words(insts: &[Inst]) -> Vec<u32> {
        let mut out = Vec::new();
        for i in insts {
            let (w, extra) = encode(i).expect("test instruction encodes");
            out.push(w);
            if let Some(x) = extra {
                out.push(x);
            }
        }
        out
    }

    /// Run `code` to completion on the interpreter and through the
    /// native backend (dispatching at pc 0), asserting the final
    /// machine states match bit for bit. Returns the common result.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn differential(code: &[u32], prep: impl Fn(&mut Vm)) -> Result<Stop, VmError> {
        let mut reference = Vm::new(1 << 16);
        reference.append_code(code);
        prep(&mut reference);
        let mut native = reference.clone();

        let ref_result = reference.run();

        let artifact = translate(code, 0, &native.model);
        let mut backend = Backend::new();
        backend.install(0, &artifact).expect("install");
        native.mark_native(0);
        let native_result = loop {
            match native.run() {
                Ok(Stop::Native { at }) => match backend.run(at, &mut native) {
                    RunOutcome::Exit { pc } => {
                        if pc == at {
                            native.skip_native_once(at);
                        }
                        native.pc = pc;
                    }
                    RunOutcome::MemFault { addr } => {
                        break Err(VmError::Mem(dyncomp_ir::eval::EvalError::OutOfBounds {
                            addr,
                        }))
                    }
                    RunOutcome::DivFault { pc } => break Err(VmError::DivideByZero { pc }),
                    RunOutcome::Missing => panic!("instance vanished"),
                },
                other => break other,
            }
        };

        assert_eq!(ref_result, native_result, "stop/error mismatch");
        assert_eq!(reference.regs, native.regs, "integer registers diverge");
        let rbits: Vec<u64> = reference.fregs.iter().map(|f| f.to_bits()).collect();
        let nbits: Vec<u64> = native.fregs.iter().map(|f| f.to_bits()).collect();
        assert_eq!(rbits, nbits, "float registers diverge");
        if ref_result.is_ok() {
            assert_eq!(reference.cycles, native.cycles, "cycles diverge");
            assert_eq!(reference.fuel, native.fuel, "fuel diverges");
            assert_eq!(
                reference.mem.bytes_mut(),
                native.mem.bytes_mut(),
                "memory diverges"
            );
        }
        ref_result
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod host {
        use super::*;
        use dyncomp_ir::prng::SplitMix64;

        fn lit(l: u8) -> Operand {
            Operand::Lit(l)
        }
        fn r(n: u8) -> Operand {
            Operand::Reg(n)
        }

        #[test]
        fn arithmetic_and_compare_chain() {
            let code = words(&[
                Inst::ldiw(1, 1_000_003),
                Inst::ldiw(2, -7),
                Inst::op3(Op::Addq, 1, r(2), 3),
                Inst::op3(Op::Mulq, 3, lit(13), 4),
                Inst::op3(Op::Subq, 4, r(1), 5),
                Inst::op3(Op::Sll, 5, lit(7), 6),
                Inst::op3(Op::Sra, 2, lit(1), 7),
                Inst::op3(Op::Srl, 2, lit(1), 8),
                Inst::op3(Op::Ornot, 7, r(8), 9),
                Inst::op3(Op::Xor, 9, r(4), 10),
                Inst::op3(Op::Cmplt, 2, lit(0), 11),
                Inst::op3(Op::Cmpule, 8, r(7), 12),
                Inst::op3(Op::Cmoveq, 11, r(4), 13),
                Inst::op3(Op::Cmovne, 11, r(5), 14),
                Inst::op3(Op::Sextb, 6, r(31), 15),
                Inst::op3(Op::Zextw, 5, r(31), 16),
                Inst::op3(Op::Divq, 4, r(2), 17),
                Inst::op3(Op::Remqu, 4, lit(9), 18),
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: r(31),
                    rc: 0,
                    imm: 0,
                },
            ]);
            let result = differential(&code, |_| {});
            assert_eq!(result, Ok(Stop::Halted));
        }

        #[test]
        fn branch_loop_sums() {
            // r1 = 100; r2 = 0; loop { r2 += r1; r1 -= 1; if r1 > 0 loop }
            let code = words(&[
                Inst::ldiw(1, 100),
                Inst::op3(Op::Addq, 31, r(31), 2),
                Inst::op3(Op::Addq, 2, r(1), 2),
                Inst::op3(Op::Subq, 1, lit(1), 1),
                Inst::branch(Op::Bgt, 1, -3),
                Inst::branch(Op::Br, 26, 0),
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: r(31),
                    rc: 0,
                    imm: 0,
                },
            ]);
            let result = differential(&code, |_| {});
            assert_eq!(result, Ok(Stop::Halted));
        }

        #[test]
        fn memory_roundtrip_all_widths() {
            let code = words(&[
                Inst::ldiw(1, 4096),
                Inst::ldiw(2, -123456),
                Inst::mem(Op::Stq, 2, 1, 0),
                Inst::mem(Op::Stl, 2, 1, 8),
                Inst::mem(Op::Stw, 2, 1, 12),
                Inst::mem(Op::Stb, 2, 1, 14),
                Inst::mem(Op::Ldq, 3, 1, 0),
                Inst::mem(Op::Ldl, 4, 1, 8),
                Inst::mem(Op::Ldlu, 5, 1, 8),
                Inst::mem(Op::Ldw, 6, 1, 12),
                Inst::mem(Op::Ldwu, 7, 1, 12),
                Inst::mem(Op::Ldb, 8, 1, 14),
                Inst::mem(Op::Ldbu, 9, 1, 14),
                Inst::mem(Op::Lda, 10, 1, -16),
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: r(31),
                    rc: 0,
                    imm: 0,
                },
            ]);
            let result = differential(&code, |_| {});
            assert_eq!(result, Ok(Stop::Halted));
        }

        #[test]
        fn float_pipeline() {
            let code = words(&[
                Inst::ldiw(1, 41),
                Inst::op3(Op::Cvtqt, 1, r(31), 2),
                Inst::ldiw(3, 7),
                Inst::op3(Op::Cvtqt, 3, r(31), 4),
                Inst::op3(Op::Addt, 2, r(4), 5),
                Inst::op3(Op::Subt, 2, r(4), 6),
                Inst::op3(Op::Mult, 5, r(6), 7),
                Inst::op3(Op::Divt, 7, r(4), 8),
                Inst::op3(Op::Sqrtt, 31, r(8), 9),
                Inst::op3(Op::Fneg, 31, r(9), 10),
                Inst::op3(Op::Cmpteq, 9, r(10), 11),
                Inst::op3(Op::Cmptlt, 10, r(9), 12),
                Inst::op3(Op::Cmptle, 9, r(9), 13),
                Inst::op3(Op::Fmov, 31, r(9), 14),
                Inst::op3(Op::Fcmovne, 12, r(10), 14),
                Inst::op3(Op::Cvttq, 8, r(31), 15),
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: r(31),
                    rc: 0,
                    imm: 0,
                },
            ]);
            let result = differential(&code, |_| {});
            assert_eq!(result, Ok(Stop::Halted));
        }

        #[test]
        fn cvttq_edge_cases_match_interpreter() {
            // f16 (arg slot) is seeded by prep with NaN/±inf/MIN/huge.
            let probes: [f64; 6] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -9.223372036854776e18, // rounds to i64::MIN exactly
                9.3e18,                // positive overflow
                -4.25,
            ];
            for v in probes {
                let code = words(&[
                    Inst::op3(Op::Cvttq, 16, r(31), 1),
                    Inst {
                        op: Op::Halt,
                        ra: 0,
                        rb: r(31),
                        rc: 0,
                        imm: 0,
                    },
                ]);
                let result = differential(&code, |vm| vm.fregs[16] = v);
                assert_eq!(result, Ok(Stop::Halted), "probe {v}");
            }
        }

        #[test]
        fn divide_faults_match() {
            for (a, b) in [(5i32, 0i32), (i32::MIN, -1)] {
                let code = words(&[
                    Inst::ldiw(1, a),
                    Inst::op3(Op::Sll, 1, lit(32), 1), // scale toward i64::MIN
                    Inst::ldiw(2, b),
                    Inst::op3(Op::Divq, 1, r(2), 3),
                    Inst {
                        op: Op::Halt,
                        ra: 0,
                        rb: r(31),
                        rc: 0,
                        imm: 0,
                    },
                ]);
                let result = differential(&code, |_| {});
                assert!(
                    matches!(result, Err(VmError::DivideByZero { .. })),
                    "({a},{b}) -> {result:?}"
                );
            }
        }

        #[test]
        fn memory_faults_match() {
            // Null access and past-the-end access.
            for disp in [0i16, 4] {
                let code = words(&[
                    Inst::ldiw(1, if disp == 0 { 0 } else { (1 << 16) - 2 }),
                    Inst::mem(Op::Ldq, 2, 1, disp),
                    Inst {
                        op: Op::Halt,
                        ra: 0,
                        rb: r(31),
                        rc: 0,
                        imm: 0,
                    },
                ]);
                let result = differential(&code, |_| {});
                assert!(
                    matches!(result, Err(VmError::Mem(_))),
                    "disp {disp} -> {result:?}"
                );
            }
        }

        #[test]
        fn fuel_exhaustion_matches() {
            let code = words(&[
                Inst::ldiw(1, 1_000_000),
                Inst::op3(Op::Subq, 1, lit(1), 1),
                Inst::branch(Op::Bgt, 1, -2),
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: r(31),
                    rc: 0,
                    imm: 0,
                },
            ]);
            let result = differential(&code, |vm| vm.fuel = 1_000);
            assert_eq!(result, Err(VmError::OutOfFuel));
        }

        #[test]
        fn unsupported_entry_is_declined() {
            let code = words(&[
                Inst::jump(Op::Jmp, 26, 1),
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: r(31),
                    rc: 0,
                    imm: 0,
                },
            ]);
            let artifact = translate(&code, 0, &dyncomp_machine::CycleModel::default());
            assert!(!artifact.entry_supported);
            let mut backend = Backend::new();
            assert_eq!(
                backend.install(0, &artifact),
                Err(InstallError::EntryUnsupported)
            );
        }

        #[test]
        fn fuzz_straightline_ops_against_interpreter() {
            let mut rng = SplitMix64::new(0x5eed_0001);
            for case in 0..200 {
                let mut insts = Vec::new();
                // Seed a handful of registers with interesting values.
                for reg in 1..6u8 {
                    insts.push(Inst::ldiw(reg, rng.next_u64() as i32));
                }
                let safe_ops = [
                    Op::Addq,
                    Op::Subq,
                    Op::Mulq,
                    Op::And,
                    Op::Bis,
                    Op::Xor,
                    Op::Ornot,
                    Op::Sll,
                    Op::Srl,
                    Op::Sra,
                    Op::Cmpeq,
                    Op::Cmpne,
                    Op::Cmplt,
                    Op::Cmple,
                    Op::Cmpult,
                    Op::Cmpule,
                    Op::Sextb,
                    Op::Sextw,
                    Op::Sextl,
                    Op::Zextb,
                    Op::Zextw,
                    Op::Zextl,
                    Op::Cmoveq,
                    Op::Cmovne,
                ];
                for _ in 0..40 {
                    let op = safe_ops[rng.below(safe_ops.len() as u64) as usize];
                    let ra = rng.below(8) as u8;
                    let rb = if rng.chance(1, 2) {
                        Operand::Reg(rng.below(8) as u8)
                    } else {
                        Operand::Lit(rng.next_u64() as u8)
                    };
                    let rc = 1 + rng.below(7) as u8;
                    insts.push(Inst::op3(op, ra, rb, rc));
                }
                insts.push(Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: Operand::Reg(31),
                    rc: 0,
                    imm: 0,
                });
                let code = words(&insts);
                let result = differential(&code, |_| {});
                assert_eq!(result, Ok(Stop::Halted), "fuzz case {case}");
            }
        }

        /// What the model keeps of one live instance: its entry and block
        /// pcs (read off its artifact) and whether it was chained.
        struct Live {
            entries: Vec<u32>,
            blocks: Vec<u32>,
            chained: bool,
        }

        /// Seeded sequences of install, chain, `patch_guard` and remove
        /// over a holder with two guard sleds (base 0) and five small
        /// region instances (base 16·i, each exiting to another's base or
        /// into the holder), against a `BTreeMap` model: `run` is
        /// `Missing` exactly at the pcs no live instance owns, `region_at`
        /// names the owner's tag, every removal retires the model's pcs
        /// (the instance's entries and the guard pcs whose target it
        /// was), and the dispatch table is non-zero exactly at the
        /// blocks of live chained instances.
        #[test]
        fn pc_table_agrees_with_a_model() {
            const SPACE: u32 = 96;
            let model = dyncomp_machine::CycleModel::default();
            let halt = |op| Inst {
                op,
                ra: 0,
                rb: r(31),
                rc: 0,
                imm: 0,
            };
            let enter = |region| Inst {
                imm: region,
                ..halt(Op::EnterRegion)
            };
            let guards = [1u32, 3];
            let holder = words(&[
                Inst::op3(Op::Addq, 1, lit(1), 1),
                enter(0),
                Inst::op3(Op::Addq, 1, lit(1), 1),
                enter(1),
                halt(Op::Halt),
            ]);
            let holder_spec = ChainSpec {
                indirect: true,
                guards: (guards.iter())
                    .map(|&pc| GuardSpec {
                        pc,
                        keys: Vec::new(),
                    })
                    .collect(),
                leaders: Vec::new(),
            };
            let spec = ChainSpec {
                indirect: true,
                ..ChainSpec::default()
            };
            // Links patched, guards patched, guard pcs retired, installs
            // refused: every path the sequences must have taken.
            let mut seen = [0u32; 4];
            for seed in 0..8u64 {
                let mut rng = SplitMix64::new(0x5eed_7ab1_e000 + seed);
                // Instance i > 0 counts, skips a word on r2 == 0 and
                // leaves for its exit target.
                let artifacts: Vec<Artifact> = (0..6u32)
                    .map(|i| {
                        if i == 0 {
                            return translate_with(&holder, 0, &model, &holder_spec);
                        }
                        let base = 16 * i;
                        let exit = match rng.below(7) as u32 {
                            0 => 2,
                            j => 16 * (1 + (i + j) % 5),
                        };
                        let code = words(&[
                            Inst::op3(Op::Addq, 1, lit(1), 1),
                            Inst::branch(Op::Beq, 2, 1),
                            Inst::op3(Op::Addq, 1, lit(2), 1),
                            Inst::branch(Op::Br, 31, exit as i32 - (base as i32 + 4)),
                        ]);
                        translate_with(&code, base, &model, &spec)
                    })
                    .collect();
                let base_of = |i: usize| 16 * i as u32;
                let mut backend = Backend::new();
                let mut live: BTreeMap<u32, Live> = BTreeMap::new();
                // Guard pc → the base its live patch jumps into.
                let mut patched: BTreeMap<u32, u32> = BTreeMap::new();
                let mut vm = Vm::new(1 << 12);
                for step in 0..160 {
                    let i = rng.below(6) as usize;
                    let base = base_of(i);
                    let what = format!("seed {seed} step {step}");
                    match rng.below(4) {
                        0 => {
                            let got = backend.install_any(base, &artifacts[i], i as u16);
                            if live.contains_key(&base) {
                                assert!(matches!(got, Err(InstallError::Refused(_))), "{what}");
                                seen[3] += 1;
                                continue;
                            }
                            assert_eq!(got, Ok(()), "{what}");
                            let a = &artifacts[i];
                            live.insert(
                                base,
                                Live {
                                    entries: a.entries.iter().map(|e| e.0).collect(),
                                    blocks: a.block_offsets.iter().map(|b| b.0).collect(),
                                    chained: false,
                                },
                            );
                        }
                        1 => {
                            let (links, retired) = backend.chain(base);
                            assert!(retired.is_empty(), "{what}");
                            seen[0] += links;
                            if let Some(l) = live.get_mut(&base) {
                                l.chained = true;
                            }
                        }
                        2 => {
                            let pc = guards[rng.below(2) as usize];
                            let (got, retired) =
                                backend.patch_guard(0, pc, &[], dyncomp_machine::isa::SP, 1, base);
                            assert!(retired.is_empty(), "{what}");
                            let want = live.contains_key(&0)
                                && !patched.contains_key(&pc)
                                && live.get(&base).is_some_and(|l| l.chained);
                            assert_eq!(got, want, "{what}: patch_guard at {pc} into {base}");
                            if want {
                                patched.insert(pc, base);
                                seen[1] += 1;
                            }
                        }
                        _ => {
                            let got = backend.remove(base).map(|mut pcs| {
                                pcs.sort_unstable();
                                pcs
                            });
                            let want = live.remove(&base).map(|l| {
                                let mut pcs = l.entries;
                                if base == 0 {
                                    patched.clear();
                                } else {
                                    let len = pcs.len();
                                    pcs.extend(
                                        patched.iter().filter(|g| *g.1 == base).map(|g| *g.0),
                                    );
                                    seen[2] += (pcs.len() - len) as u32;
                                    patched.retain(|_, t| *t != base);
                                }
                                pcs.sort_unstable();
                                pcs
                            });
                            assert_eq!(got, want, "{what}: retired by removing {base}");
                        }
                    }
                    for pc in 0..SPACE {
                        let owner = live.iter().find(|(_, l)| l.entries.contains(&pc));
                        let tag = owner.map(|(&b, _)| (b / 16) as u16);
                        assert_eq!(backend.region_at(pc), tag, "{what}: owner of {pc}");
                        vm.fuel = 64;
                        vm.regs[2] = pc.into();
                        let missing = backend.run(pc, &mut vm) == RunOutcome::Missing;
                        assert_eq!(missing, owner.is_none(), "{what}: run at {pc}");
                        let published = backend.table.get(pc as usize).is_some_and(|&a| a != 0);
                        let chained = live.values().any(|l| l.chained && l.blocks.contains(&pc));
                        assert_eq!(published, chained, "{what}: dispatch slot {pc}");
                    }
                }
            }
            assert!(seen.iter().all(|&n| n > 0), "paths not taken: {seen:?}");
        }
    }
}
