//! SimAlpha → x86-64 translation: block discovery, micro-stub chains,
//! and the rel32 fix-up pass.
//!
//! The input is a *verified* stitched instance (every word decodes,
//! branch targets are range-checked) installed at word address `base` of
//! the VM code space. Translation is pure byte generation — it runs on
//! any host; only installing the result into an executable arena is
//! architecture-gated (see [`crate::backend`]).
//!
//! ## Execution model
//!
//! The instance is split into basic blocks at branch targets and after
//! terminators. Each block's prologue charges the whole block's fuel and
//! cycles up front against the context block:
//!
//! * if remaining fuel is short, the block *bails out* before charging
//!   anything, returning to the VM at the block's own pc — the
//!   interpreter then re-executes from an identical machine state and
//!   produces the exact out-of-fuel error the oracle expects;
//! * conditional-branch cycle costs are charged as untaken; the taken
//!   path routes through a per-target thunk that adds the
//!   taken − untaken difference before jumping.
//!
//! On a fault-free run the native cycle and fuel accounting is therefore
//! **bit-identical** to the interpreter's. After a memory or divide
//! fault the counts may differ (the VM charges per instruction, native
//! per block); the session surfaces the same `VmError` either way, and
//! errors abort checksum streams in both backends.
//!
//! Unsupported operations (`Jmp`, `Jsr`, `Alloc`, `Halt`, and float
//! operates with a literal operand, which the VM defines as faults) end
//! their block and return to the VM at their own pc, uncharged: the
//! interpreter executes them with full fidelity and re-enters native
//! code at the next marked dispatch point.

use crate::stubs::{self as s, Asm, Cc};
use crate::{
    CTX_CHAINED, CTX_CYCLES, CTX_DISPATCH, CTX_DISPATCH_LEN, CTX_EXIT_PC, CTX_FAULT_PC,
    CTX_FDISCARD, CTX_FREGS, CTX_FUEL, CTX_IDISCARD, CTX_MEM_LEN, CTX_MEM_PTR, CTX_REGS,
    CTX_STATUS, EXIT_PATCH_LEN,
};
use dyncomp_machine::isa::{walk, Format, Inst, Op, Operand, Reg};
use dyncomp_machine::vm::CycleModel;

/// Where one region-key value lives, mirrored from the engine's key
/// descriptor. Only the *kind* matters at translate time (it sizes the
/// guard sled); the concrete constants arrive with the later patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySlot {
    /// Integer register.
    Reg(Reg),
    /// Float register (raw bits compare).
    FReg(Reg),
    /// Stack frame slot: `mem[SP + offset]`, 8 bytes.
    Frame(i32),
}

/// A patchable inline-cache site reserved at an `EnterRegion` pc.
#[derive(Clone, Debug)]
pub struct GuardSpec {
    /// The `EnterRegion` pc (word address).
    pub pc: u32,
    /// Key locations, in region-key order.
    pub keys: Vec<KeySlot>,
}

/// Direct-threading options for [`translate_with`]. The default (no
/// guards, `indirect` off) reproduces the plain single-entry artifact.
#[derive(Clone, Debug, Default)]
pub struct ChainSpec {
    /// Lower `Jmp`/`Jsr` through the context dispatch table instead of
    /// exiting to the VM.
    pub indirect: bool,
    /// `EnterRegion` pcs that get NOP-sled guard areas for later
    /// patching: monomorphic inline caches for keyed regions,
    /// unconditional retired-trap entries for unkeyed ones.
    pub guards: Vec<GuardSpec>,
    /// Extra pcs to force as block leaders. Chained control can only
    /// land on a block boundary (the fuel/cycle accounting is charged
    /// per block from its head), so pcs that other instances exit to —
    /// region exit continuations — must start a block even when the
    /// static control flow alone would leave them mid-block.
    pub leaders: Vec<u32>,
}

/// A reserved guard area inside an artifact: `len` NOP bytes at
/// `offset`, falling through to the exit blob for `pc`. [`crate::Backend`]
/// patches the sled in place; overwriting it with NOPs restores the
/// original unchained behaviour.
#[derive(Clone, Copy, Debug)]
pub struct GuardArea {
    /// The `EnterRegion` pc this sled fronts.
    pub pc: u32,
    /// Byte offset of the sled in the artifact.
    pub offset: u32,
    /// Sled length in bytes.
    pub len: u32,
}

/// A translated instance: host bytes plus coverage counters and the
/// chain-patch tables. Produced by [`translate`] / [`translate_with`];
/// executable only after [`crate::Backend::install`].
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Position-independent host code (entry at offset 0).
    pub bytes: Vec<u8>,
    /// Whether the instance's first instruction lowered natively. When
    /// false, installing would bounce every dispatch straight back to
    /// the VM, so callers should decline the install.
    pub entry_supported: bool,
    /// Whether `Jmp`/`Jsr` were lowered through the dispatch table
    /// ([`ChainSpec::indirect`]): the bytes serve only a backend in that
    /// chain mode, so a consumer in the other mode translates again.
    pub indirect: bool,
    /// SimAlpha instructions in the instance.
    pub instructions: u32,
    /// Of those, how many lowered to native stubs.
    pub covered: u32,
    /// Basic blocks emitted.
    pub blocks: u32,
    /// First word address covered (the install base).
    pub base: u32,
    /// One past the last word address covered.
    pub end: u32,
    /// pc → entry-thunk offset: FFI-callable entry (full prologue) for
    /// every block whose leader lowered natively, plus the base entry.
    pub entries: Vec<(u32, u32)>,
    /// pc → block-body offset: in-native continuation points (live
    /// `r15`/`r13`/`r12`), the targets chained jumps land on.
    pub block_offsets: Vec<(u32, u32)>,
    /// Exit pc (outside `base..end`) → shared exit-blob offset: the
    /// back-patchable chain sites.
    pub exit_sites: Vec<(u32, u32)>,
    /// Reserved `EnterRegion` guard sleds.
    pub guard_areas: Vec<GuardArea>,
}

impl Artifact {
    /// Check that every table points where an install may jump or patch:
    /// the artifact covers exactly the `words` code words at `base`,
    /// every entry and block pc lies in `base..end` with its offset inside
    /// `bytes`, every exit site lies outside `base..end` with its whole
    /// back-patch inside `bytes`, and every guard sled lies inside
    /// `bytes`. [`translate`] makes only such artifacts; one decoded from
    /// the persistent cache is checked before anything installs it.
    ///
    /// # Errors
    /// What is out of place, as a static message.
    pub fn check_layout(&self, base: u32, words: usize) -> Result<(), &'static str> {
        let inside = |off: u32, len: usize| {
            (off as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.bytes.len())
        };
        let ours = |pc: u32| (self.base..self.end).contains(&pc);
        if self.base != base || u64::from(base) + words as u64 != u64::from(self.end) {
            return Err("native artifact does not cover its instance");
        }
        let mut leaders = self.entries.iter().chain(&self.block_offsets);
        if !leaders.all(|&(pc, off)| ours(pc) && inside(off, 1)) {
            return Err("native entry outside its instance or its code");
        }
        if !(self.exit_sites.iter()).all(|&(pc, off)| !ours(pc) && inside(off, EXIT_PATCH_LEN)) {
            return Err("native exit site inside its instance or past its code");
        }
        if !(self.guard_areas.iter()).all(|g| inside(g.offset, g.len as usize)) {
            return Err("native guard sled past its code");
        }
        Ok(())
    }
}

/// Context-slot displacement holding integer register `r` for *reads*
/// (`r31` reads the real slot, which the discard convention keeps 0).
fn rslot(r: Reg) -> u32 {
    CTX_REGS + 8 * u32::from(r)
}

/// Context-slot displacement for *writes* of integer register `r`
/// (writes to `r31` are discarded, as in the VM).
fn wslot(r: Reg) -> u32 {
    if r == 31 {
        CTX_IDISCARD
    } else {
        CTX_REGS + 8 * u32::from(r)
    }
}

/// Read slot for float register `r`.
fn frslot(r: Reg) -> u32 {
    CTX_FREGS + 8 * u32::from(r)
}

/// Write slot for float register `r` (`f31` writes are discarded).
fn fwslot(r: Reg) -> u32 {
    if r == 31 {
        CTX_FDISCARD
    } else {
        CTX_FREGS + 8 * u32::from(r)
    }
}

/// Whether `inst` lowers to native stubs. Float operates with a literal
/// operand are VM-defined faults (`BadInstruction`), so they route to
/// the interpreter for the authoritative error. `Jmp`/`Jsr` lower only
/// when the chain spec enables dispatch-table indirection.
fn supported(inst: &Inst, indirect: bool) -> bool {
    use Op::*;
    match inst.op {
        Jmp | Jsr => indirect && matches!(inst.rb, Operand::Reg(_)),
        Alloc | Halt | EnterRegion | EndSetup => false,
        Addt | Subt | Mult | Divt | Cmpteq | Cmptlt | Cmptle | Sqrtt | Fmov | Fneg | Fcmovne => {
            matches!(inst.rb, Operand::Reg(_))
        }
        _ => true,
    }
}

/// Guard-sled byte budget for one key compare (worst case: the key
/// constant and the miss `jcc` per key, plus the frame-load address
/// arithmetic and bounds checks for `Frame` keys).
fn key_sled_len(k: &KeySlot) -> u32 {
    match k {
        KeySlot::Reg(_) | KeySlot::FReg(_) => 7 + 10 + 3 + 6,
        KeySlot::Frame(_) => 7 + 6 + 3 + 6 + 3 + 4 + 6 + 3 + 6 + 5 + 10 + 3 + 6,
    }
}

/// Total sled length for a guard over `keys`: fuel header + per-key
/// compares + the charge/jump tail.
pub(crate) fn guard_sled_len(keys: &[KeySlot]) -> u32 {
    let header = 11 + 6; // cmp fuel,1 ; jb miss
    let tail = 11 + 11 + 8 + 10 + 2; // sub fuel ; add cycles ; inc chained ; movabs rax ; jmp rax
    header + keys.iter().map(key_sled_len).sum::<u32>() + tail
}

/// Build the monomorphic inline-cache code for a guard sled: compare
/// every key location against its recorded constant, and on a full match
/// charge exactly what the VM's keyed `EnterRegion` path would (1 fuel,
/// `cycles` simulated cycles), bump the chained counter, and jump
/// straight to the region instance at host address `target_addr`. Any
/// mismatch — or any unreadable frame slot — falls to the sled's miss
/// exit, where the VM re-executes the trap from an identical state.
///
/// The result is at most [`guard_sled_len`] bytes; the caller pads the
/// remainder of the sled with the NOPs already there.
pub(crate) fn build_guard(
    keys: &[(KeySlot, u64)],
    sp: Reg,
    cycles: u64,
    target_addr: u64,
) -> Vec<u8> {
    let mut a = Asm::default();
    let mut miss: Vec<usize> = Vec::new();
    a.cmp_slot_imm32(CTX_FUEL, 1);
    miss.push(a.jcc(Cc::B));
    for (k, v) in keys {
        match *k {
            KeySlot::Reg(r) => {
                a.patch(s::LD_SLOT_RAX, rslot(r));
                a.movabs_rcx(*v);
                a.copy(s::CMP_RAX_RCX);
                miss.push(a.jcc(Cc::Nz));
            }
            KeySlot::FReg(r) => {
                a.patch(s::LD_SLOT_RAX, frslot(r));
                a.movabs_rcx(*v);
                a.copy(s::CMP_RAX_RCX);
                miss.push(a.jcc(Cc::Nz));
            }
            KeySlot::Frame(off) => {
                a.patch(s::LD_SLOT_RAX, rslot(sp));
                a.patch(s::ADD_RAX_IMM32S, off as u32);
                a.copy(s::TEST_RAX_RAX);
                miss.push(a.jcc(Cc::Z));
                a.copy(s::MOV_RDX_RAX);
                a.add_rdx_imm8(8);
                miss.push(a.jcc(Cc::B));
                a.copy(s::CMP_RDX_R12);
                miss.push(a.jcc(Cc::A));
                a.copy(s::LDQ_CORE);
                a.movabs_rcx(*v);
                a.copy(s::CMP_RAX_RCX);
                miss.push(a.jcc(Cc::Nz));
            }
        }
    }
    a.sub_slot_imm32(CTX_FUEL, 1);
    a.add_slot_imm32(
        CTX_CYCLES,
        u32::try_from(cycles).expect("trap cost fits u32"),
    );
    a.patch(s::INC_SLOT, CTX_CHAINED);
    a.movabs_rax(target_addr);
    a.copy(s::JMP_RAX);
    let end = a.here();
    for h in miss {
        a.resolve(h, end);
    }
    a.finish()
}

/// Pending rel32 destinations, resolved once every block, thunk, and
/// blob has an offset.
enum Fix {
    /// A basic block of this instance, by SimAlpha pc.
    Block(u32),
    /// A taken-branch thunk, by target pc.
    Thunk(u32),
    /// Clean exit to the VM, resuming at this pc.
    Exit(u32),
    /// The shared memory-fault blob (`rax` holds the address).
    MemFault,
    /// A divide-fault blob for this pc.
    DivFault(u32),
    /// The shared dynamic-exit blob (`rax` holds the resume pc).
    DynExit,
}

struct DInst {
    pc: u32,
    inst: Inst,
    len: u32,
    /// Whether the instruction lowers natively ([`supported`]).
    native: bool,
    /// Whether it ends its block: a branch, a `Jmp`/`Jsr`, or an
    /// operation left to the VM.
    term: bool,
}

/// "Absent" in a per-word table.
const NONE: u32 = u32::MAX;
/// "Present, no offset yet" in a per-word table.
const MARKED: u32 = u32::MAX - 1;

/// A set of SimAlpha pcs, each later given a byte offset, visited in
/// ascending pc order — the order every blob kind is emitted in, so the
/// bytes are a function of the set alone. Pcs inside the instance live in
/// a per-word array indexed by `pc - base`; the few outside it (region
/// exits, out-of-instance branch targets) in a list sorted and
/// deduplicated once, when offsets are assigned.
struct PcOffsets {
    base: u32,
    /// Per word: [`NONE`], [`MARKED`], or the byte offset.
    inside: Vec<u32>,
    /// `(pc, byte offset)` for pcs outside `base..base + inside.len()`.
    outside: Vec<(u32, u32)>,
}

impl PcOffsets {
    fn new(base: u32, words: usize) -> PcOffsets {
        PcOffsets {
            base,
            inside: vec![NONE; words],
            outside: Vec::new(),
        }
    }

    fn slot(&self, pc: u32) -> Option<usize> {
        let i = pc.wrapping_sub(self.base) as usize;
        (i < self.inside.len()).then_some(i)
    }

    fn insert(&mut self, pc: u32) {
        match self.slot(pc) {
            Some(i) if self.inside[i] == NONE => self.inside[i] = MARKED,
            Some(_) => {}
            None => self.outside.push((pc, NONE)),
        }
    }

    /// Whether `pc` lies inside the instance and is in the set.
    fn contains_inside(&self, pc: u32) -> bool {
        self.slot(pc).is_some_and(|i| self.inside[i] != NONE)
    }

    /// Visit every pc in ascending order, recording the byte offset
    /// `emit` returns for it.
    fn assign(&mut self, mut emit: impl FnMut(u32) -> usize) {
        self.outside.sort_unstable_by_key(|&(pc, _)| pc);
        self.outside.dedup_by_key(|&mut (pc, _)| pc);
        let split = self.outside.partition_point(|&(pc, _)| pc < self.base);
        for e in &mut self.outside[..split] {
            e.1 = emit(e.0) as u32;
        }
        for (i, off) in self.inside.iter_mut().enumerate() {
            if *off != NONE {
                *off = emit(self.base + i as u32) as u32;
            }
        }
        for e in &mut self.outside[split..] {
            e.1 = emit(e.0) as u32;
        }
    }

    /// The byte offset assigned to `pc` (which must be in the set).
    fn get(&self, pc: u32) -> usize {
        let off = match self.slot(pc) {
            Some(i) => self.inside[i],
            None => {
                let i = self
                    .outside
                    .binary_search_by_key(&pc, |&(p, _)| p)
                    .expect("pc is in the set");
                self.outside[i].1
            }
        };
        debug_assert!(off < MARKED, "offset assigned");
        off as usize
    }
}

/// The per-translation tables: block leaders (then their body offsets),
/// taken-branch thunks, clean exits and divide-fault blobs, plus the
/// rel32 holes waiting for them.
struct Tables {
    blocks: PcOffsets,
    thunks: PcOffsets,
    exits: PcOffsets,
    divs: PcOffsets,
    fixups: Vec<(usize, Fix)>,
}

impl Tables {
    /// Emit a jump to the clean-exit blob for `pc`, registering the blob.
    fn exit_jump(&mut self, a: &mut Asm, pc: u32) {
        self.exits.insert(pc);
        let h = a.jmp();
        self.fixups.push((h, Fix::Exit(pc)));
    }
}

/// Translate a verified instance installed at word address `base` with
/// the default (unchained) spec.
pub fn translate(code: &[u32], base: u32, model: &CycleModel) -> Artifact {
    translate_with(code, base, model, &ChainSpec::default())
}

/// Translate a verified instance installed at word address `base`.
/// Deterministic: the same `(code, base, model, spec)` always yields the
/// same bytes, so artifact sizes can be accounted before any install.
///
/// Every table is a per-word array or a sorted list, and the byte buffer
/// is sized from the instruction and block counts up front; the returned
/// bytes carry no spare capacity.
pub fn translate_with(code: &[u32], base: u32, model: &CycleModel, spec: &ChainSpec) -> Artifact {
    let end = base + code.len() as u32;
    let indirect = spec.indirect;

    // Decode pass. `verify_code` ran before install, so decode failures
    // cannot occur on engine inputs; treat one defensively as an
    // unsupported terminator.
    let mut insts: Vec<DInst> = Vec::with_capacity(code.len());
    let mut idx_of: Vec<u32> = vec![NONE; code.len()];
    for step in walk(code) {
        let inst = step.inst.unwrap_or(Inst {
            op: Op::Halt,
            ra: 0,
            rb: Operand::Reg(31),
            rc: 0,
            imm: 0,
        });
        let native = supported(&inst, indirect);
        let term =
            inst.op.format() == Format::Branch || matches!(inst.op, Op::Jmp | Op::Jsr) || !native;
        idx_of[step.at] = insts.len() as u32;
        insts.push(DInst {
            pc: base + step.at as u32,
            inst,
            len: step.width as u32,
            native,
            term,
        });
    }
    let is_start = |pc: u32| -> bool {
        let i = pc.wrapping_sub(base) as usize;
        i < code.len() && idx_of[i] != NONE
    };

    // Leaders: the entry, every in-instance branch target, and the
    // instruction after every terminator.
    let mut t = Tables {
        blocks: PcOffsets::new(base, code.len()),
        thunks: PcOffsets::new(base, code.len()),
        exits: PcOffsets::new(base, code.len()),
        divs: PcOffsets::new(base, code.len()),
        fixups: Vec::with_capacity(2 * insts.len()),
    };
    if !code.is_empty() {
        t.blocks.insert(base);
    }
    for &pc in &spec.leaders {
        if is_start(pc) {
            t.blocks.insert(pc);
        }
    }
    for d in &insts {
        let next = d.pc + d.len;
        if d.inst.op.format() == Format::Branch {
            let target = next.wrapping_add_signed(d.inst.imm);
            if is_start(target) {
                t.blocks.insert(target);
            }
        }
        if d.term && next < end {
            t.blocks.insert(next);
        }
    }
    let leader_list: Vec<u32> = t
        .blocks
        .inside
        .iter()
        .enumerate()
        .filter(|&(_, &m)| m != NONE)
        .map(|(i, _)| base + i as u32)
        .collect();

    let sleds: usize = spec
        .guards
        .iter()
        .map(|g| guard_sled_len(&g.keys) as usize)
        .sum();
    let mut a = Asm::with_capacity(48 * insts.len() + 128 * leader_list.len() + sleds + 64);
    let mut mem_fault = false;
    let mut covered = 0u32;
    let mut guard_areas: Vec<GuardArea> = Vec::new();
    let mut dyn_exit = false;

    // Entry shim: save callee-saved scratch, cache the context pointer
    // and the simulated-memory window.
    a.copy(s::PROLOGUE_PUSHES);
    a.patch(s::LD_R13_SLOT, CTX_MEM_PTR);
    a.patch(s::LD_R12_SLOT, CTX_MEM_LEN);

    for &bpc in &leader_list {
        let slot = (bpc - base) as usize;
        t.blocks.inside[slot] = a.here() as u32;
        let start_j = idx_of[slot] as usize;

        // Scan the block: instructions up to (and including) a
        // terminator, or up to the next leader.
        let mut j = start_j;
        let mut body_end = insts.len();
        let mut term: Option<usize> = None;
        while j < insts.len() {
            let d = &insts[j];
            if j != start_j && t.blocks.contains_inside(d.pc) {
                body_end = j;
                break;
            }
            if d.term {
                term = Some(j);
                body_end = j + 1;
                break;
            }
            j += 1;
            body_end = j;
        }

        // Fuel and cycles for the whole block, charged up front.
        // Unsupported terminators are excluded: the VM executes them.
        let (mut n, mut cycles) = (0u32, 0u64);
        for d in insts[start_j..body_end].iter().filter(|d| d.native) {
            n += 1;
            cycles += model.cost(d.inst.op, false);
        }
        if n > 0 {
            a.cmp_slot_imm32(CTX_FUEL, n);
            t.exits.insert(bpc);
            let h = a.jcc(Cc::B);
            t.fixups.push((h, Fix::Exit(bpc)));
            a.sub_slot_imm32(CTX_FUEL, n);
            if cycles > 0 {
                a.add_slot_imm32(
                    CTX_CYCLES,
                    u32::try_from(cycles).expect("block cost fits u32"),
                );
            }
        }

        for (k, d) in insts.iter().enumerate().take(body_end).skip(start_j) {
            if !d.native {
                // Reserve a patchable inline-cache sled in front of a
                // guarded `EnterRegion`; unpatched it is a NOP slide
                // into the ordinary exit.
                if d.inst.op == Op::EnterRegion {
                    if let Some(g) = spec.guards.iter().find(|g| g.pc == d.pc) {
                        let len = guard_sled_len(&g.keys);
                        guard_areas.push(GuardArea {
                            pc: d.pc,
                            offset: a.here() as u32,
                            len,
                        });
                        a.nops(len as usize);
                    }
                }
                t.exit_jump(&mut a, d.pc);
                continue;
            }
            covered += 1;
            if Some(k) == term && matches!(d.inst.op, Op::Jmp | Op::Jsr) {
                lower_jump(&mut a, &mut t.fixups, d);
                dyn_exit = true;
            } else if Some(k) == term {
                lower_branch(&mut a, &mut t, d, end);
            } else {
                lower(&mut a, &mut t, d, &mut mem_fault);
            }
        }

        // A block that ran off the end of the instance (no terminator,
        // no following leader) resumes interpretation there.
        if term.is_none() && body_end == insts.len() {
            t.exit_jump(&mut a, end);
        }
    }

    // Taken-branch thunks: charge the taken-minus-untaken difference,
    // then jump on (in-instance) or exit (region exits).
    let extra = model.branch_taken.saturating_sub(model.branch_untaken);
    let Tables {
        blocks,
        mut thunks,
        mut exits,
        mut divs,
        mut fixups,
    } = t;
    thunks.assign(|target| {
        let off = a.here();
        if extra > 0 {
            a.add_slot_imm32(CTX_CYCLES, u32::try_from(extra).expect("cost fits u32"));
        }
        let h = a.jmp();
        if blocks.contains_inside(target) {
            fixups.push((h, Fix::Block(target)));
        } else {
            exits.insert(target);
            fixups.push((h, Fix::Exit(target)));
        }
        off
    });

    // Exit blobs: status 0, resume pc for the VM.
    exits.assign(|pc| {
        let off = a.here();
        a.mov_slot_imm32(CTX_EXIT_PC, pc);
        a.mov_slot_imm32(CTX_STATUS, 0);
        a.copy(s::EPILOGUE);
        off
    });

    // Fault blobs.
    let mem_fault_off = if mem_fault {
        let off = a.here();
        a.patch(s::ST_RAX_FAULT_ADDR_HOLE, crate::CTX_FAULT_ADDR);
        a.mov_slot_imm32(CTX_STATUS, 2);
        a.copy(s::EPILOGUE);
        Some(off)
    } else {
        None
    };
    divs.assign(|pc| {
        let off = a.here();
        a.mov_slot_imm32(CTX_FAULT_PC, pc);
        a.mov_slot_imm32(CTX_STATUS, 3);
        a.copy(s::EPILOGUE);
        off
    });

    // Dynamic-exit blob for dispatch-table misses: `rax` holds the
    // (u32-truncated) jump target the VM should resume at.
    let dyn_exit_off = if dyn_exit {
        let off = a.here();
        a.patch(s::ST_RAX_SLOT, CTX_EXIT_PC);
        a.mov_slot_imm32(CTX_STATUS, 0);
        a.copy(s::EPILOGUE);
        Some(off)
    } else {
        None
    };

    // FFI entry thunks: a full prologue per supported leader, so the
    // engine can dispatch a marked pc anywhere in the instance — chained
    // jumps skip these and land on the block bodies directly.
    let leader_supported = |pc: u32| insts[idx_of[(pc - base) as usize] as usize].native;
    let mut entries: Vec<(u32, u32)> = Vec::with_capacity(leader_list.len() + guard_areas.len());
    for &bpc in &leader_list {
        if !leader_supported(bpc) {
            continue;
        }
        if bpc == base {
            entries.push((bpc, 0));
            continue;
        }
        let off = a.here() as u32;
        a.copy(s::PROLOGUE_PUSHES);
        a.patch(s::LD_R13_SLOT, CTX_MEM_PTR);
        a.patch(s::LD_R12_SLOT, CTX_MEM_LEN);
        let h = a.jmp();
        fixups.push((h, Fix::Block(bpc)));
        entries.push((bpc, off));
    }
    // Guarded `EnterRegion` pcs get entry thunks into their sleds: once
    // a guard is patched (and the pc marked), a VM dispatch there runs
    // the inline cache natively too.
    for g in &guard_areas {
        let off = a.here() as u32;
        a.copy(s::PROLOGUE_PUSHES);
        a.patch(s::LD_R13_SLOT, CTX_MEM_PTR);
        a.patch(s::LD_R12_SLOT, CTX_MEM_LEN);
        let h = a.jmp();
        a.resolve(h, g.offset as usize);
        entries.push((g.pc, off));
    }

    // Fix-up pass: every recorded rel32 lands on its block, thunk, or
    // blob.
    for (hole, fix) in fixups {
        let target = match fix {
            Fix::Block(pc) => blocks.get(pc),
            Fix::Thunk(pc) => thunks.get(pc),
            Fix::Exit(pc) => exits.get(pc),
            Fix::MemFault => mem_fault_off.expect("mem fault blob emitted"),
            Fix::DivFault(pc) => divs.get(pc),
            Fix::DynExit => dyn_exit_off.expect("dyn exit blob emitted"),
        };
        a.resolve(hole, target);
    }

    let entry_supported = insts.first().is_some_and(|d| d.native);
    let block_offsets: Vec<(u32, u32)> = leader_list
        .iter()
        .filter(|&&pc| leader_supported(pc))
        .map(|&pc| (pc, blocks.get(pc) as u32))
        .collect();
    // Exits outside the instance are the back-patchable chain sites.
    let exit_sites = exits.outside;
    entries.sort_unstable();
    Artifact {
        bytes: a.finish(),
        entry_supported,
        indirect,
        instructions: insts.len() as u32,
        covered,
        blocks: leader_list.len() as u32,
        base,
        end,
        entries,
        block_offsets,
        exit_sites,
        guard_areas,
    }
}

/// Lower a `Jmp`/`Jsr` terminator through the context dispatch table:
/// read the target, write the link register, and either jump straight to
/// the target's native block (a *chained* transfer) or exit to the VM at
/// the target pc when the table has no entry for it.
fn lower_jump(a: &mut Asm, fixups: &mut Vec<(usize, Fix)>, d: &DInst) {
    let Operand::Reg(rb) = d.inst.rb else {
        unreachable!("jump formats decode a register operand")
    };
    let next = d.pc + d.len;
    // Target first: the link register may alias the target register.
    a.patch(s::LD_SLOT_RCX, rslot(rb));
    a.patch(s::MOV_EAX_IMM, next);
    a.patch(s::ST_RAX_SLOT, wslot(d.inst.ra));
    a.copy(s::MOV_RAX_RCX);
    a.copy(s::MOV_EAX_EAX); // the VM truncates jump targets to u32
    a.patch(s::CMP_RAX_SLOT, CTX_DISPATCH_LEN);
    fixups.push((a.jcc(Cc::Ae), Fix::DynExit));
    a.patch(s::LD_SLOT_RDX, CTX_DISPATCH);
    a.copy(s::MOV_RCX_TABLE);
    a.copy(s::TEST_RCX_RCX);
    fixups.push((a.jcc(Cc::Z), Fix::DynExit));
    a.patch(s::INC_SLOT, CTX_CHAINED);
    a.copy(s::JMP_RCX);
}

/// Lower a block terminator that is a branch (conditional or
/// unconditional).
fn lower_branch(a: &mut Asm, t: &mut Tables, d: &DInst, end: u32) {
    use Op::*;
    let next = d.pc + d.len;
    let target = next.wrapping_add_signed(d.inst.imm);
    match d.inst.op {
        Br | Bsr => {
            // Link register, then jump (cost already charged as taken).
            a.patch(s::MOV_EAX_IMM, next);
            a.patch(s::ST_RAX_SLOT, wslot(d.inst.ra));
            if t.blocks.contains_inside(target) {
                let h = a.jmp();
                t.fixups.push((h, Fix::Block(target)));
            } else {
                t.exit_jump(a, target);
            }
        }
        Beq | Bne | Blt | Ble | Bgt | Bge => {
            a.patch(s::LD_SLOT_RAX, rslot(d.inst.ra));
            a.copy(s::TEST_RAX_RAX);
            let cc = match d.inst.op {
                Beq => Cc::Z,
                Bne => Cc::Nz,
                Blt => Cc::S,
                Bge => Cc::Ns,
                Ble => Cc::Le,
                Bgt => Cc::G,
                _ => unreachable!(),
            };
            t.thunks.insert(target);
            let h = a.jcc(cc);
            t.fixups.push((h, Fix::Thunk(target)));
            // Fall through to the next block (emitted immediately after)
            // or exit if the branch was the instance's last instruction.
            if next >= end {
                t.exit_jump(a, next);
            }
        }
        _ => unreachable!("terminator is a branch"),
    }
}

/// Lower one straight-line instruction into its micro-stub chain.
fn lower(a: &mut Asm, t: &mut Tables, d: &DInst, mem_fault: &mut bool) {
    use Op::*;
    let Inst {
        op,
        ra,
        rb,
        rc,
        imm,
    } = d.inst;

    // b-operand into rcx (integer forms).
    let b_rcx = |a: &mut Asm| match rb {
        Operand::Reg(r) => a.patch(s::LD_SLOT_RCX, rslot(r)),
        Operand::Lit(l) => a.patch(s::MOV_ECX_IMM, u32::from(l)),
    };
    // Memory base register (memory formats always decode a register).
    let base_reg = || match rb {
        Operand::Reg(r) => r,
        Operand::Lit(_) => unreachable!("memory formats have no literal base"),
    };
    // rax = base + disp, bounds-checked for `size` bytes; faults carry
    // the address in rax.
    let addr_check =
        |a: &mut Asm, fixups: &mut Vec<(usize, Fix)>, mem_fault: &mut bool, size: u8| {
            a.patch(s::LD_SLOT_RAX, rslot(base_reg()));
            if imm != 0 {
                a.patch(s::ADD_RAX_IMM32S, imm as u32);
            }
            *mem_fault = true;
            a.copy(s::TEST_RAX_RAX);
            fixups.push((a.jcc(Cc::Z), Fix::MemFault));
            // rdx as scratch: stores stage their value in rcx.
            a.copy(s::MOV_RDX_RAX);
            a.add_rdx_imm8(size);
            fixups.push((a.jcc(Cc::B), Fix::MemFault));
            a.copy(s::CMP_RDX_R12);
            fixups.push((a.jcc(Cc::A), Fix::MemFault));
        };

    match op {
        // ---- integer operate ----
        Addq | Subq | Mulq | And | Bis | Xor | Ornot | Sll | Srl | Sra => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            b_rcx(a);
            match op {
                Addq => a.copy(s::ADD_RAX_RCX),
                Subq => a.copy(s::SUB_RAX_RCX),
                Mulq => a.copy(s::IMUL_RAX_RCX),
                And => a.copy(s::AND_RAX_RCX),
                Bis => a.copy(s::OR_RAX_RCX),
                Xor => a.copy(s::XOR_RAX_RCX),
                Ornot => {
                    a.copy(s::NOT_RCX);
                    a.copy(s::OR_RAX_RCX);
                }
                Sll => a.copy(s::SHL_RAX_CL),
                Srl => a.copy(s::SHR_RAX_CL),
                Sra => a.copy(s::SAR_RAX_CL),
                _ => unreachable!(),
            }
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Cmpeq | Cmpne | Cmplt | Cmple | Cmpult | Cmpule => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            b_rcx(a);
            a.copy(s::CMP_RAX_RCX);
            a.copy(match op {
                Cmpeq => s::SETE_AL,
                Cmpne => s::SETNE_AL,
                Cmplt => s::SETL_AL,
                Cmple => s::SETLE_AL,
                Cmpult => s::SETB_AL,
                Cmpule => s::SETBE_AL,
                _ => unreachable!(),
            });
            a.copy(s::MOVZX_EAX_AL);
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Sextb | Sextw | Sextl | Zextb | Zextw | Zextl => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            a.copy(match op {
                Sextb => s::MOVSX_RAX_AL,
                Sextw => s::MOVSX_RAX_AX,
                Sextl => s::MOVSXD_RAX_EAX,
                Zextb => s::MOVZX_EAX_AL,
                Zextw => s::MOVZX_EAX_AX,
                Zextl => s::MOV_EAX_EAX,
                _ => unreachable!(),
            });
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Cmoveq | Cmovne => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            b_rcx(a);
            a.patch(s::LD_SLOT_RDX, rslot(rc));
            a.copy(s::TEST_RAX_RAX);
            a.copy(if op == Cmoveq {
                s::CMOVZ_RDX_RCX
            } else {
                s::CMOVNZ_RDX_RCX
            });
            a.patch(s::ST_RDX_SLOT, wslot(rc));
        }
        Divq | Remq => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            b_rcx(a);
            t.divs.insert(d.pc);
            a.copy(s::TEST_RCX_RCX);
            t.fixups.push((a.jcc(Cc::Z), Fix::DivFault(d.pc)));
            t.fixups
                .push((a.patch_rel(s::DIV_MIN_CHECK), Fix::DivFault(d.pc)));
            a.copy(s::CQO);
            a.copy(s::IDIV_RCX);
            if op == Divq {
                a.patch(s::ST_RAX_SLOT, wslot(rc));
            } else {
                a.patch(s::ST_RDX_SLOT, wslot(rc));
            }
        }
        Divqu | Remqu => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            b_rcx(a);
            t.divs.insert(d.pc);
            a.copy(s::TEST_RCX_RCX);
            t.fixups.push((a.jcc(Cc::Z), Fix::DivFault(d.pc)));
            a.copy(s::XOR_EDX_EDX);
            a.copy(s::DIV_RCX);
            if op == Divqu {
                a.patch(s::ST_RAX_SLOT, wslot(rc));
            } else {
                a.patch(s::ST_RDX_SLOT, wslot(rc));
            }
        }
        // ---- memory ----
        Lda => {
            a.patch(s::LD_SLOT_RAX, rslot(base_reg()));
            if imm != 0 {
                a.patch(s::ADD_RAX_IMM32S, imm as u32);
            }
            a.patch(s::ST_RAX_SLOT, wslot(ra));
        }
        Ldbu | Ldb | Ldwu | Ldw | Ldlu | Ldl | Ldq => {
            let size = match op {
                Ldbu | Ldb => 1,
                Ldwu | Ldw => 2,
                Ldlu | Ldl => 4,
                Ldq => 8,
                _ => unreachable!(),
            };
            addr_check(a, &mut t.fixups, mem_fault, size);
            a.copy(match op {
                Ldbu => s::LDBU_CORE,
                Ldb => s::LDB_CORE,
                Ldwu => s::LDWU_CORE,
                Ldw => s::LDW_CORE,
                Ldlu => s::LDLU_CORE,
                Ldl => s::LDL_CORE,
                Ldq => s::LDQ_CORE,
                _ => unreachable!(),
            });
            a.patch(s::ST_RAX_SLOT, wslot(ra));
        }
        Stb | Stw | Stl | Stq => {
            a.patch(s::LD_SLOT_RCX, rslot(ra));
            let size = match op {
                Stb => 1,
                Stw => 2,
                Stl => 4,
                Stq => 8,
                _ => unreachable!(),
            };
            addr_check(a, &mut t.fixups, mem_fault, size);
            a.copy(match op {
                Stb => s::STB_CORE,
                Stw => s::STW_CORE,
                Stl => s::STL_CORE,
                Stq => s::STQ_CORE,
                _ => unreachable!(),
            });
        }
        Ldt => {
            addr_check(a, &mut t.fixups, mem_fault, 8);
            a.copy(s::LDQ_CORE);
            a.patch(s::ST_RAX_SLOT, fwslot(ra));
        }
        Stt => {
            a.patch(s::LD_SLOT_RCX, frslot(ra));
            addr_check(a, &mut t.fixups, mem_fault, 8);
            a.copy(s::STQ_CORE);
        }
        // ---- float operate ----
        Addt | Subt | Mult | Divt => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::MOVSD_X0_SLOT, frslot(ra));
            a.patch(s::MOVSD_X1_SLOT, frslot(b));
            a.copy(match op {
                Addt => s::ADDSD_X0_X1,
                Subt => s::SUBSD_X0_X1,
                Mult => s::MULSD_X0_X1,
                Divt => s::DIVSD_X0_X1,
                _ => unreachable!(),
            });
            a.patch(s::MOVSD_SLOT_X0, fwslot(rc));
        }
        Cmpteq => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::MOVSD_X0_SLOT, frslot(ra));
            a.patch(s::MOVSD_X1_SLOT, frslot(b));
            a.copy(s::XOR_EAX_EAX);
            a.copy(s::UCOMISD_X0_X1);
            a.copy(s::JP_SKIP_SETCC); // unordered: result stays 0
            a.copy(s::SETE_AL);
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Cmptlt | Cmptle => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::MOVSD_X0_SLOT, frslot(ra));
            a.patch(s::MOVSD_X1_SLOT, frslot(b));
            a.copy(s::XOR_EAX_EAX);
            // Reversed compare: a < b  ⇔  b above a; unordered clears.
            a.copy(s::UCOMISD_X1_X0);
            a.copy(if op == Cmptlt {
                s::SETA_AL
            } else {
                s::SETAE_AL
            });
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Sqrtt => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::MOVSD_X0_SLOT, frslot(b));
            a.copy(s::SQRTSD_X0_X0);
            a.patch(s::MOVSD_SLOT_X0, fwslot(rc));
        }
        Cvtqt => {
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            a.copy(s::CVTSI2SD_X0_RAX);
            a.patch(s::MOVSD_SLOT_X0, fwslot(rc));
        }
        Cvttq => {
            a.patch(s::MOVSD_X0_SLOT, frslot(ra));
            a.copy(s::CVTTQ_CORE);
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Fmov => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::LD_SLOT_RAX, frslot(b));
            a.patch(s::ST_RAX_SLOT, fwslot(rc));
        }
        Fneg => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::LD_SLOT_RAX, frslot(b));
            a.copy(s::FNEG_CORE);
            a.patch(s::ST_RAX_SLOT, fwslot(rc));
        }
        Fcmovne => {
            let Operand::Reg(b) = rb else { unreachable!() };
            a.patch(s::LD_SLOT_RAX, rslot(ra));
            a.patch(s::LD_SLOT_RCX, frslot(b));
            a.patch(s::LD_SLOT_RDX, frslot(rc));
            a.copy(s::TEST_RAX_RAX);
            a.copy(s::CMOVNZ_RDX_RCX);
            a.patch(s::ST_RDX_SLOT, fwslot(rc));
        }
        // ---- specials ----
        Ldiw => {
            a.patch(s::MOV_RAX_IMM32S, imm as u32);
            a.patch(s::ST_RAX_SLOT, wslot(rc));
        }
        Br | Bsr | Beq | Bne | Blt | Ble | Bgt | Bge => {
            unreachable!("branches are block terminators")
        }
        Jmp | Jsr | Alloc | Halt | EnterRegion | EndSetup => {
            unreachable!("unsupported ops never reach lower()")
        }
    }
}
