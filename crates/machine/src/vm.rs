//! The SimAlpha interpreter with deterministic cycle accounting.
//!
//! The paper measured asymptotic speedups and breakeven points with the
//! Alpha 21064's hardware cycle counter; the interpreter's [`CycleModel`]
//! plays that role here. Costs are loosely calibrated to the 21064
//! (loads 3 cycles, integer ALU 1, multiply 8, divide ~35, FP 6, taken
//! branches 2) — all reported results are relative, so the model only needs
//! to preserve the *shape* of the paper's numbers.

use crate::isa::{decode_at, Inst, Op, Operand, Reg, RA, SP, ZERO};
use dyncomp_ir::eval::{EvalError, Memory};
use std::fmt;

/// Per-instruction-class cycle costs: one of the three parts of the
/// simulated clock. The stitcher's actions are priced by
/// `dyncomp_stitcher::StitchCost`, and what the run-time does between
/// the two (trap, keyed lookup, cache probe and install, tiered dispatch,
/// retry backoff) by the constant block in `crates/core/src/engine.rs`.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleModel {
    /// Simple integer operate (add, logic, shifts, compares, cmov, lda).
    pub int_op: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide/remainder.
    pub div: u64,
    /// Memory load (cache-hit latency).
    pub load: u64,
    /// Memory store.
    pub store: u64,
    /// Float add/sub/mul/compare/convert.
    pub fp_op: u64,
    /// Float divide.
    pub fp_div: u64,
    /// Float square root.
    pub fp_sqrt: u64,
    /// Taken branch (including unconditional).
    pub branch_taken: u64,
    /// Untaken conditional branch.
    pub branch_untaken: u64,
    /// Jump through register (jsr/jmp/ret).
    pub jump: u64,
    /// Two-word immediate load.
    pub ldiw: u64,
    /// Heap allocation.
    pub alloc: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            int_op: 1,
            mul: 8,
            div: 35,
            load: 3,
            store: 1,
            fp_op: 6,
            fp_div: 34,
            fp_sqrt: 30,
            branch_taken: 2,
            branch_untaken: 1,
            jump: 3,
            ldiw: 2,
            alloc: 30,
        }
    }
}

impl CycleModel {
    /// Cost of one executed instruction (`taken` applies to branches).
    pub fn cost(&self, op: Op, taken: bool) -> u64 {
        use Op::*;
        match op {
            Mulq => self.mul,
            Divq | Divqu | Remq | Remqu => self.div,
            Ldbu | Ldwu | Ldlu | Ldb | Ldw | Ldl | Ldq | Ldt => self.load,
            Stb | Stw | Stl | Stq | Stt => self.store,
            Lda => self.int_op,
            Addt | Subt | Mult | Cmpteq | Cmptlt | Cmptle | Cvtqt | Cvttq => self.fp_op,
            Divt => self.fp_div,
            Sqrtt => self.fp_sqrt,
            Fmov | Fneg | Fcmovne => self.int_op,
            Br | Bsr => self.branch_taken,
            Beq | Bne | Blt | Ble | Bgt | Bge => {
                if taken {
                    self.branch_taken
                } else {
                    self.branch_untaken
                }
            }
            Jmp | Jsr => self.jump,
            Ldiw => self.ldiw,
            Alloc => self.alloc,
            EnterRegion | EndSetup | Halt => 0,
            _ => self.int_op,
        }
    }
}

/// Why the VM stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `Halt` executed.
    Halted,
    /// `EnterRegion` trap: the dynamic-compilation runtime must choose
    /// where execution continues (set-up code or stitched code).
    EnterRegion {
        /// Region number from the instruction.
        region: u16,
        /// Code address of the trapping instruction (for patching).
        at: u32,
    },
    /// `EndSetup` trap: set-up code finished; the constants-table address
    /// is in `r28` ([`crate::isa::CTP`]).
    EndSetup {
        /// Region number from the instruction.
        region: u16,
    },
    /// Execution reached a code address marked for a native backend
    /// (see [`Vm::mark_native`]); the instruction at `at` has **not**
    /// been fetched, charged, or executed. The runtime dispatches the
    /// translated code and resumes the VM at the pc it reports.
    Native {
        /// The marked code address.
        at: u32,
    },
}

/// VM runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Invalid or truncated instruction at `pc`.
    BadInstruction {
        /// Code address.
        pc: u32,
    },
    /// Program counter outside the code area.
    PcOutOfRange(u32),
    /// Memory fault.
    Mem(EvalError),
    /// Integer division by zero (or `i64::MIN / -1`).
    DivideByZero {
        /// Code address of the divide.
        pc: u32,
    },
    /// Instruction budget exhausted.
    OutOfFuel,
    /// More call arguments than the register calling convention carries.
    TooManyArgs {
        /// Arguments supplied.
        given: usize,
        /// Arguments the convention supports.
        max: usize,
    },
    /// A code patch targeted an address outside the code area.
    PatchOutOfRange(u32),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::BadInstruction { pc } => write!(f, "bad instruction at pc={pc}"),
            VmError::PcOutOfRange(pc) => write!(f, "pc out of range: {pc}"),
            VmError::Mem(e) => write!(f, "memory fault: {e}"),
            VmError::DivideByZero { pc } => write!(f, "integer divide by zero at pc={pc}"),
            VmError::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmError::TooManyArgs { given, max } => {
                write!(
                    f,
                    "{given} call arguments, but at most {max} fit in registers"
                )
            }
            VmError::PatchOutOfRange(at) => write!(f, "code patch out of range: {at}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<EvalError> for VmError {
    fn from(e: EvalError) -> Self {
        VmError::Mem(e)
    }
}

/// Slot flag: this code word has not been decoded under the current cost
/// model, or a patch invalidated it. The other fields are meaningless.
const UNDECODED: u8 = 1 << 0;
/// Slot flag: native dispatch mark ([`Vm::mark_native`]).
const NATIVE: u8 = 1 << 1;
/// Slot flag: the next arrival here is interpreted even if the word is
/// marked ([`Vm::skip_native_once`]).
const SKIP: u8 = 1 << 2;
/// Slot flag: a float operate decoded with a literal second operand.
/// There is no literal float form, so executing it is a
/// [`VmError::BadInstruction`]; decoding it is not.
const MALFORMED: u8 = 1 << 3;

/// One predecoded instruction: everything [`Vm::run`] needs to execute
/// the code word at this address, resolved when the word is first reached.
///
/// * `rb` and `imm` are stored so that the second operand of every format
///   is the branch-free `regs[rb] + imm`: an operate literal becomes
///   `rb = r31` with the literal in `imm` (register operates keep
///   `imm = 0`), a memory op's base and displacement are already that
///   sum, and `Ldiw` is `r31 + imm32`.
/// * `cost` and `cost_taken` are [`CycleModel::cost`] for the opcode,
///   untaken and taken, under the model the slot was decoded with.
/// * `flags` is zero for a word the hot loop may execute without looking
///   further; any set bit sends that arrival through [`Vm::arrive`].
#[derive(Clone, Copy)]
struct Slot {
    imm: i32,
    cost: u16,
    cost_taken: u16,
    op: Op,
    ra: Reg,
    rb: Reg,
    rc: Reg,
    flags: u8,
}

// The slot replaces a 16-byte `Option<(Inst, u32)>`; a wider one would
// grow every session's predecode cache.
const _: () = assert!(std::mem::size_of::<Slot>() <= 16);

impl Slot {
    /// What a code address holds before its word is first reached.
    const EMPTY: Slot = Slot {
        imm: 0,
        cost: 0,
        cost_taken: 0,
        op: Op::Halt,
        ra: ZERO,
        rb: ZERO,
        rc: ZERO,
        flags: UNDECODED,
    };

    fn new(inst: &Inst, model: &CycleModel) -> Slot {
        use Op::*;
        let cost = |taken| {
            u16::try_from(model.cost(inst.op, taken))
                .expect("a predecoded slot holds per-instruction costs below 65,536 cycles")
        };
        let (rb, imm, literal) = match inst.rb {
            Operand::Reg(r) => (r, inst.imm, false),
            Operand::Lit(l) => (ZERO, i32::from(l), true),
        };
        let reads_fb = matches!(
            inst.op,
            Addt | Subt | Mult | Divt | Cmpteq | Cmptlt | Cmptle | Sqrtt | Fmov | Fneg | Fcmovne
        );
        Slot {
            imm,
            cost: cost(false),
            cost_taken: cost(true),
            op: inst.op,
            ra: inst.ra,
            rb,
            rc: inst.rc,
            flags: if literal && reads_fb { MALFORMED } else { 0 },
        }
    }
}

/// The simulated machine.
///
/// `Clone` forks the whole machine — code, predecode cache (native marks
/// included), registers, memory, cycle state — giving an independent
/// machine that can run elsewhere (the tiered runtime forks the session VM
/// so background stitch jobs can execute region set-up code against a
/// detached snapshot).
#[derive(Clone)]
pub struct Vm {
    /// Code space (word-addressed; stitched code is appended here).
    ///
    /// Reads are free-for-all; **writes must go through
    /// [`Vm::patch_code`]** (or [`Vm::append_code`]) so the predecode
    /// cache stays coherent. Writing `code` directly leaves stale decoded
    /// entries behind and the VM will keep executing the old instruction.
    pub code: Vec<u32>,
    /// Predecode cache, one [`Slot`] per code address: each word is
    /// decoded, its operands resolved and its cycle cost looked up at most
    /// once per patch. At least as long as `code`; it is longer only when
    /// an address beyond the end has been marked. Purely a host-side
    /// speedup — it changes no simulated cycle counts, because decoding
    /// was never a modeled cost (the simulated 21064 fetches from I-cache
    /// either way) and the costs it stores are the model's own.
    ///
    /// A slot also carries its address's native mark and pending skip, so
    /// the run loop learns everything about an arrival from one load.
    /// Every method that moves code or marks keeps the two in step:
    /// [`Vm::append_code`], [`Vm::patch_code`], [`Vm::mark_native`],
    /// [`Vm::unmark_native`], [`Vm::skip_native_once`],
    /// [`Vm::clear_native_marks`] and `Clone`.
    decoded: Vec<Slot>,
    /// The model `decoded`'s costs were taken from. [`Vm::run`] compares
    /// it with `model` on entry and re-decodes everything on a mismatch,
    /// so a write to the public field takes effect at the next run.
    decoded_model: CycleModel,
    /// Integer registers. `r31` reads as zero: use [`Vm::reg`], or rely
    /// on [`Vm::run`] zeroing `regs[31]` on entry and after every write.
    pub regs: [u64; 32],
    /// Float registers. `f31` reads as 0.0, kept the same way as `r31`.
    pub fregs: [f64; 32],
    /// Data memory (shared layout with the reference interpreter).
    pub mem: Memory,
    /// Program counter (word index).
    pub pc: u32,
    /// Accumulated cycles.
    pub cycles: u64,
    /// The cost model. A write takes effect at the next [`Vm::run`]. Each
    /// cost must stay below 65,536 cycles (the predecode cache stores them
    /// in 16 bits and refuses, by panicking, to truncate one).
    pub model: CycleModel,
    /// Remaining instruction budget.
    pub fuel: u64,
    halt_stub: Option<u32>,
    /// Whether [`Vm::mark_native`] has been called since construction or
    /// the last [`Vm::clear_native_marks`]. Until it has, the run loop
    /// looks at neither marks nor the pending skip. Cloned VMs inherit
    /// marks; forks that run without a native dispatcher must call
    /// [`Vm::clear_native_marks`].
    native_armed: bool,
    /// The address whose slot carries [`SKIP`]: one-shot suppression of
    /// the mark there, so a native bail-out that made no progress (fuel
    /// too low, unsupported entry) can hand the address to the
    /// interpreter exactly once without bouncing.
    native_skip: Option<u32>,
}

impl Vm {
    /// A fresh VM with `mem_bytes` of data memory. The stack pointer starts
    /// at the top of memory and grows down; the heap grows up.
    pub fn new(mem_bytes: usize) -> Self {
        let mem = Memory::with_capacity(mem_bytes);
        let mut regs = [0u64; 32];
        regs[SP as usize] = mem_bytes as u64 & !15;
        Vm {
            code: Vec::new(),
            decoded: Vec::new(),
            decoded_model: CycleModel::default(),
            regs,
            fregs: [0.0; 32],
            mem,
            pc: 0,
            cycles: 0,
            model: CycleModel::default(),
            fuel: 2_000_000_000,
            halt_stub: None,
            native_armed: false,
            native_skip: None,
        }
    }

    /// The slot for `at`, growing the cache when `at` lies beyond it (a
    /// mark or skip may be placed before the code it refers to).
    fn slot_mut(&mut self, at: u32) -> &mut Slot {
        let i = at as usize;
        if self.decoded.len() <= i {
            self.decoded.resize(i + 1, Slot::EMPTY);
        }
        &mut self.decoded[i]
    }

    /// Mark `at` as a native dispatch point: when the run loop reaches
    /// it, [`Vm::run`] returns [`Stop::Native`] without fetching the
    /// instruction there.
    pub fn mark_native(&mut self, at: u32) {
        self.slot_mut(at).flags |= NATIVE;
        self.native_armed = true;
    }

    /// Remove the native dispatch mark at `at`, if any.
    pub fn unmark_native(&mut self, at: u32) {
        if let Some(s) = self.decoded.get_mut(at as usize) {
            s.flags &= !NATIVE;
        }
    }

    /// Drop every native dispatch mark (and any pending skip). Forked
    /// VMs that run without a native dispatcher must call this, or the
    /// run loop would surface [`Stop::Native`] nobody handles.
    pub fn clear_native_marks(&mut self) {
        for s in &mut self.decoded {
            s.flags &= !(NATIVE | SKIP);
        }
        self.native_armed = false;
        self.native_skip = None;
    }

    /// Suppress the native mark at `at` for the next arrival only. Used
    /// after a native bail-out at its own entry pc, letting the
    /// interpreter make progress before native dispatch re-arms. The
    /// arrival uses the skip up whether or not `at` is marked by then.
    pub fn skip_native_once(&mut self, at: u32) {
        if let Some(old) = self.native_skip.replace(at) {
            self.slot_mut(old).flags &= !SKIP;
        }
        self.slot_mut(at).flags |= SKIP;
    }

    /// Append raw code words, returning the address of the first.
    pub fn append_code(&mut self, words: &[u32]) -> u32 {
        let at = self.code.len() as u32;
        self.code.extend_from_slice(words);
        if self.decoded.len() < self.code.len() {
            self.decoded.resize(self.code.len(), Slot::EMPTY);
        }
        // A wide instruction whose second word was missing may have been
        // fetched (and faulted) before this append completed it; drop any
        // cached decode of the previous last word.
        if at > 0 {
            self.decoded[at as usize - 1].flags |= UNDECODED;
        }
        at
    }

    /// Overwrite the code word at `at`, invalidating the predecode cache
    /// for every instruction that could span it (the word itself, and a
    /// two-word `Ldiw` starting one word earlier). This is how the engine
    /// patches `EnterRegion` traps into direct branches.
    ///
    /// # Errors
    /// [`VmError::PatchOutOfRange`] when `at` is outside the code area.
    pub fn patch_code(&mut self, at: u32, word: u32) -> Result<(), VmError> {
        let i = at as usize;
        *self.code.get_mut(i).ok_or(VmError::PatchOutOfRange(at))? = word;
        self.decoded[i].flags |= UNDECODED;
        if i > 0 {
            self.decoded[i - 1].flags |= UNDECODED;
        }
        // A patched word no longer matches any translated code.
        self.unmark_native(at);
        Ok(())
    }

    /// Address of a one-instruction `Halt` stub (created on first use),
    /// used as the return address for top-level calls.
    pub fn halt_stub(&mut self) -> u32 {
        if let Some(s) = self.halt_stub {
            return s;
        }
        let (w, _) = crate::isa::encode(&Inst {
            op: Op::Halt,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm: 0,
        })
        .expect("halt encodes");
        let s = self.append_code(&[w]);
        self.halt_stub = Some(s);
        s
    }

    /// Read an integer register (`r31` = 0, whatever a caller may have
    /// stored in `regs[31]` since the last [`Vm::run`]).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r == ZERO {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Write an integer register (writes to `r31` are discarded, which
    /// keeps `regs[31] == 0` for the run loop).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r != ZERO {
            self.regs[r as usize] = v;
        }
    }

    /// Read a float register (`f31` = 0.0).
    #[inline]
    pub fn freg(&self, r: Reg) -> f64 {
        if r == ZERO {
            0.0
        } else {
            self.fregs[r as usize]
        }
    }

    /// Write a float register (writes to `f31` are discarded).
    #[inline]
    pub fn set_freg(&mut self, r: Reg, v: f64) {
        if r != ZERO {
            self.fregs[r as usize] = v;
        }
    }

    /// Prepare a call: arguments into `r16…`/`f16…`, return address to the
    /// halt stub, `pc` to `entry`. Use [`Vm::run`] to execute and read `r0`
    /// (or `f0`) for the result.
    ///
    /// # Errors
    /// [`VmError::TooManyArgs`] when `args` exceeds the six register
    /// argument slots of the calling convention.
    pub fn setup_call(&mut self, entry: u32, args: &[u64]) -> Result<(), VmError> {
        if args.len() > 6 {
            return Err(VmError::TooManyArgs {
                given: args.len(),
                max: 6,
            });
        }
        for (i, &a) in args.iter().enumerate() {
            self.regs[16 + i] = a;
            self.fregs[16 + i] = f64::from_bits(a);
        }
        let stub = self.halt_stub();
        self.regs[RA as usize] = u64::from(stub);
        self.pc = entry;
        Ok(())
    }

    /// Run until a trap ([`Stop`]) or an error.
    ///
    /// This is the only interpreter: the semantic and cycle oracle every
    /// other execution mode is checked against. Each instruction costs
    /// one unit of `fuel` when it is reached and its [`CycleModel`] cost
    /// when it completes.
    ///
    /// On a [`Stop`], `pc` is past the trapping instruction (at the
    /// marked one for [`Stop::Native`], which has not been reached).
    ///
    /// # Errors
    /// Returns [`VmError`] on faults; the machine state is left at the
    /// faulting instruction for inspection: `pc` addresses it, its unit
    /// of fuel is spent, its cycles are not charged and it has written
    /// nothing. ([`VmError::OutOfFuel`] leaves `pc` at the instruction
    /// that could not be paid for.)
    pub fn run(&mut self) -> Result<Stop, VmError> {
        if self.model != self.decoded_model {
            for s in &mut self.decoded {
                s.flags |= UNDECODED;
            }
            self.decoded_model = self.model.clone();
        }
        // The loop reads registers without testing for 31, so the zero
        // registers must hold zero: here, and after every write below.
        self.regs[ZERO as usize] = 0;
        self.fregs[ZERO as usize] = 0.0;
        loop {
            let Some(first) = self.arrive()? else {
                return Ok(Stop::Native { at: self.pc });
            };
            if let Some(stop) = self.execute(first)? {
                return Ok(stop);
            }
        }
    }

    /// Everything that can happen on arrival at `self.pc` other than
    /// executing a clean slot: use up a pending skip, report a native
    /// mark (`None`), pay for the instruction, decode it, refuse a
    /// malformed one. Returns the slot to execute, its fuel already spent.
    /// [`Vm::run`] enters through here and [`Vm::execute`] comes back
    /// whenever the next slot has a flag set.
    #[cold]
    #[inline(never)]
    fn arrive(&mut self) -> Result<Option<Slot>, VmError> {
        let pc = self.pc;
        let i = pc as usize;
        let flags = self.decoded.get(i).map_or(UNDECODED, |s| s.flags);
        if self.native_armed {
            if flags & SKIP != 0 {
                self.decoded[i].flags &= !SKIP;
                self.native_skip = None;
            } else if flags & NATIVE != 0 {
                return Ok(None);
            }
        }
        if self.fuel == 0 {
            return Err(VmError::OutOfFuel);
        }
        self.fuel -= 1;
        if flags & UNDECODED != 0 {
            let step = decode_at(&self.code, i).ok_or(VmError::PcOutOfRange(pc))?;
            if step.end() > self.code.len() {
                return Err(VmError::PcOutOfRange(pc + 1));
            }
            let inst = step.inst.map_err(|_| VmError::BadInstruction { pc })?;
            let mut slot = Slot::new(&inst, &self.model);
            slot.flags |= self.decoded[i].flags & (NATIVE | SKIP);
            self.decoded[i] = slot;
        }
        let slot = self.decoded[i];
        if slot.flags & MALFORMED != 0 {
            return Err(VmError::BadInstruction { pc });
        }
        Ok(Some(Slot { flags: 0, ..slot }))
    }

    /// The hot loop: execute `first` (vetted and paid for by
    /// [`Vm::arrive`]) and then every clean slot control reaches.
    /// Returns `None` when the next slot needs [`Vm::arrive`].
    ///
    /// `pc`, `fuel` and `cycles` live in locals and are written back at
    /// the single exit below the loop, so nothing inside it may `return`
    /// or use `?`: every way out is a `break`.
    ///
    /// Kept out of line: inlined into [`Vm::run`] the loop shares a
    /// register allocation with the glue around it and spills `fuel` and
    /// the slot-table bounds to the stack on every instruction.
    #[inline(never)]
    fn execute(&mut self, first: Slot) -> Result<Option<Stop>, VmError> {
        use Op::*;
        let Vm {
            regs,
            fregs,
            mem,
            decoded,
            ..
        } = self;
        let (mut pc, mut fuel, mut cycles) = (self.pc, self.fuel, self.cycles);
        let mut s = first;
        let exit = loop {
            // Unwrap a memory access or leave with the fault.
            macro_rules! mem {
                ($access:expr) => {
                    match $access {
                        Ok(v) => v,
                        Err(e) => break Err(VmError::Mem(e)),
                    }
                };
            }
            // Register writes re-zero r31/f31 rather than test for them.
            macro_rules! set {
                ($r:expr, $v:expr) => {{
                    regs[($r & 31) as usize] = $v;
                    regs[ZERO as usize] = 0;
                }};
            }
            macro_rules! fset {
                ($r:expr, $v:expr) => {{
                    fregs[($r & 31) as usize] = $v;
                    fregs[ZERO as usize] = 0.0;
                }};
            }
            // Only `Ldiw` is wider than one word, and says so in its arm:
            // the address of the next slot must not wait on a load from
            // this one, or that load paces the whole loop.
            let next = pc + 1;
            let mut target = next;
            let mut cost = s.cost;
            let a = regs[(s.ra & 31) as usize];
            // Register or literal operand, effective address, jump
            // target or wide immediate, by the slot's encoding.
            let b = regs[(s.rb & 31) as usize].wrapping_add(s.imm as i64 as u64);
            let fa = fregs[(s.ra & 31) as usize];
            let fb = fregs[(s.rb & 31) as usize];
            match s.op {
                // ---- integer operate ----
                Addq => set!(s.rc, a.wrapping_add(b)),
                Subq => set!(s.rc, a.wrapping_sub(b)),
                Mulq => set!(s.rc, a.wrapping_mul(b)),
                And => set!(s.rc, a & b),
                Bis => set!(s.rc, a | b),
                Xor => set!(s.rc, a ^ b),
                Ornot => set!(s.rc, a | !b),
                Sll => set!(s.rc, a.wrapping_shl(b as u32 & 63)),
                Srl => set!(s.rc, a.wrapping_shr(b as u32 & 63)),
                Sra => set!(s.rc, (a as i64).wrapping_shr(b as u32 & 63) as u64),
                Cmpeq => set!(s.rc, u64::from(a == b)),
                Cmpne => set!(s.rc, u64::from(a != b)),
                Cmplt => set!(s.rc, u64::from((a as i64) < (b as i64))),
                Cmple => set!(s.rc, u64::from((a as i64) <= (b as i64))),
                Cmpult => set!(s.rc, u64::from(a < b)),
                Cmpule => set!(s.rc, u64::from(a <= b)),
                Sextb => set!(s.rc, a as i8 as i64 as u64),
                Sextw => set!(s.rc, a as i16 as i64 as u64),
                Sextl => set!(s.rc, a as i32 as i64 as u64),
                Zextb => set!(s.rc, a & 0xFF),
                Zextw => set!(s.rc, a & 0xFFFF),
                Zextl => set!(s.rc, a & 0xFFFF_FFFF),
                Divq | Remq => {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 || (a == i64::MIN && b == -1) {
                        break Err(VmError::DivideByZero { pc });
                    }
                    set!(s.rc, if s.op == Divq { a / b } else { a % b } as u64);
                }
                Divqu | Remqu => {
                    if b == 0 {
                        break Err(VmError::DivideByZero { pc });
                    }
                    set!(s.rc, if s.op == Divqu { a / b } else { a % b });
                }
                Cmoveq => {
                    if a == 0 {
                        set!(s.rc, b);
                    }
                }
                Cmovne => {
                    if a != 0 {
                        set!(s.rc, b);
                    }
                }
                // ---- memory ----
                Lda => set!(s.ra, b),
                Ldbu => set!(s.ra, u64::from(u8::from_le_bytes(mem!(mem.load(b))))),
                Ldwu => set!(s.ra, u64::from(u16::from_le_bytes(mem!(mem.load(b))))),
                Ldlu => set!(s.ra, u64::from(u32::from_le_bytes(mem!(mem.load(b))))),
                Ldb => set!(s.ra, i8::from_le_bytes(mem!(mem.load(b))) as i64 as u64),
                Ldw => set!(s.ra, i16::from_le_bytes(mem!(mem.load(b))) as i64 as u64),
                Ldl => set!(s.ra, i32::from_le_bytes(mem!(mem.load(b))) as i64 as u64),
                Ldq => set!(s.ra, u64::from_le_bytes(mem!(mem.load(b)))),
                Stb => mem!(mem.store(b, (a as u8).to_le_bytes())),
                Stw => mem!(mem.store(b, (a as u16).to_le_bytes())),
                Stl => mem!(mem.store(b, (a as u32).to_le_bytes())),
                Stq => mem!(mem.store(b, a.to_le_bytes())),
                Ldt => fset!(s.ra, f64::from_le_bytes(mem!(mem.load(b)))),
                Stt => mem!(mem.store(b, fa.to_le_bytes())),
                // ---- branches ----
                Br | Bsr => {
                    set!(s.ra, u64::from(next));
                    target = next.wrapping_add_signed(s.imm);
                }
                Beq | Bne | Blt | Ble | Bgt | Bge => {
                    let a = a as i64;
                    let taken = match s.op {
                        Beq => a == 0,
                        Bne => a != 0,
                        Blt => a < 0,
                        Ble => a <= 0,
                        Bgt => a > 0,
                        _ => a >= 0,
                    };
                    if taken {
                        target = next.wrapping_add_signed(s.imm);
                        cost = s.cost_taken;
                    }
                }
                Jmp | Jsr => {
                    set!(s.ra, u64::from(next));
                    target = b as u32;
                }
                // ---- float operate ----
                Addt => fset!(s.rc, fa + fb),
                Subt => fset!(s.rc, fa - fb),
                Mult => fset!(s.rc, fa * fb),
                Divt => fset!(s.rc, fa / fb),
                Cmpteq => set!(s.rc, u64::from(fa == fb)),
                Cmptlt => set!(s.rc, u64::from(fa < fb)),
                Cmptle => set!(s.rc, u64::from(fa <= fb)),
                Sqrtt => fset!(s.rc, fb.sqrt()),
                Cvtqt => fset!(s.rc, a as i64 as f64),
                // Saturating, NaN to 0: what `as` does.
                Cvttq => set!(s.rc, fa as i64 as u64),
                Fmov => fset!(s.rc, fb),
                Fneg => fset!(s.rc, -fb),
                Fcmovne => {
                    if a != 0 {
                        fset!(s.rc, fb);
                    }
                }
                // ---- specials ----
                Ldiw => {
                    set!(s.rc, b);
                    target = next + 1;
                }
                Alloc => set!(s.rc, mem!(mem.alloc(a))),
                EnterRegion | EndSetup | Halt => {
                    let stop = match s.op {
                        EnterRegion => Stop::EnterRegion {
                            region: s.imm as u16,
                            at: pc,
                        },
                        // The table address is in r28 for the runtime.
                        EndSetup => Stop::EndSetup {
                            region: s.imm as u16,
                        },
                        _ => Stop::Halted,
                    };
                    cycles += u64::from(cost);
                    pc = next;
                    break Ok(Some(stop));
                }
            }
            cycles += u64::from(cost);
            pc = target;
            s = match decoded.get(pc as usize) {
                Some(clean) if clean.flags == 0 => *clean,
                _ => break Ok(None),
            };
            if fuel == 0 {
                break Err(VmError::OutOfFuel);
            }
            fuel -= 1;
        };
        self.pc = pc;
        self.fuel = fuel;
        self.cycles = cycles;
        exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{branch_word, encode, CTP};

    fn emit(vm: &mut Vm, i: Inst) -> u32 {
        let (w, extra) = encode(&i).unwrap();
        let at = vm.append_code(&[w]);
        if let Some(x) = extra {
            vm.append_code(&[x]);
        }
        at
    }

    #[test]
    fn add_and_halt() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::ldiw(1, 20));
        emit(&mut vm, Inst::op3(Op::Addq, 1, Operand::Lit(22), 2));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        assert_eq!(vm.run().unwrap(), Stop::Halted);
        assert_eq!(vm.reg(2), 42);
        assert_eq!(vm.cycles, vm.model.ldiw + vm.model.int_op);
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::ldiw(31, 99));
        emit(&mut vm, Inst::op3(Op::Addq, 31, Operand::Lit(1), 1));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(31), 0);
        assert_eq!(vm.reg(1), 1);
    }

    #[test]
    fn memory_roundtrip_and_narrow_loads() {
        let mut vm = Vm::new(1 << 16);
        let addr = vm.mem.alloc(16).unwrap();
        let start = emit(&mut vm, Inst::ldiw(1, addr as i32));
        emit(&mut vm, Inst::ldiw(2, -2)); // 0xFFFF...FE
        emit(&mut vm, Inst::mem(Op::Stq, 2, 1, 0));
        emit(&mut vm, Inst::mem(Op::Ldw, 3, 1, 0)); // sext 16 -> -2
        emit(&mut vm, Inst::mem(Op::Ldwu, 4, 1, 0)); // zext -> 0xFFFE
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(3) as i64, -2);
        assert_eq!(vm.reg(4), 0xFFFE);
    }

    #[test]
    fn branch_taken_and_untaken_costs() {
        let mut vm = Vm::new(1 << 16);
        // r1 = 0; beq r1, +1 (taken; skips the ldiw) ; ldiw r2, 7 ; halt
        let start = emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(0), 1));
        emit(&mut vm, Inst::branch(Op::Beq, 1, 2)); // skip 2-word ldiw
        emit(&mut vm, Inst::ldiw(2, 7));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(2), 0, "branch skipped the load");
        assert_eq!(vm.cycles, vm.model.int_op + vm.model.branch_taken);
    }

    #[test]
    fn jsr_ret_convention() {
        let mut vm = Vm::new(1 << 16);
        // callee: r0 = r16 * 3; ret (jmp zero-link, (ra))
        let callee = emit(&mut vm, Inst::op3(Op::Mulq, 16, Operand::Lit(3), 0));
        emit(&mut vm, Inst::jump(Op::Jmp, ZERO, RA));
        // caller via setup_call
        let caller = emit(&mut vm, Inst::ldiw(25, callee as i32));
        emit(&mut vm, Inst::jump(Op::Jsr, RA, 25));
        // after return, halt comes from setup_call's stub... we instead
        // return directly: use setup_call on callee.
        let _ = caller;
        vm.setup_call(callee, &[14]).unwrap();
        assert_eq!(vm.run().unwrap(), Stop::Halted);
        assert_eq!(vm.reg(0), 42);
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::op3(Op::Divq, 1, Operand::Reg(2), 3));
        vm.pc = start;
        assert!(matches!(vm.run(), Err(VmError::DivideByZero { .. })));
    }

    #[test]
    fn float_pipeline() {
        let mut vm = Vm::new(1 << 16);
        let a = vm.mem.alloc(8).unwrap();
        vm.mem.write_u64(a, 2.25f64.to_bits()).unwrap();
        let start = emit(&mut vm, Inst::ldiw(1, a as i32));
        emit(&mut vm, Inst::mem(Op::Ldt, 2, 1, 0));
        emit(&mut vm, Inst::op3(Op::Mult, 2, Operand::Reg(2), 3)); // f3 = 5.0625
        emit(&mut vm, Inst::op3(Op::Sqrtt, ZERO, Operand::Reg(3), 4)); // f4 = 2.25
        emit(&mut vm, Inst::op3(Op::Cmpteq, 2, Operand::Reg(4), 5)); // r5 = 1
        emit(&mut vm, Inst::op3(Op::Cvttq, 4, Operand::Reg(ZERO), 6)); // r6 = 2
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.freg(3), 5.0625);
        assert_eq!(vm.reg(5), 1);
        assert_eq!(vm.reg(6), 2);
    }

    #[test]
    fn enter_region_traps_with_resume_info() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(
            &mut vm,
            Inst {
                op: Op::EnterRegion,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 7,
            },
        );
        vm.pc = start;
        assert_eq!(
            vm.run().unwrap(),
            Stop::EnterRegion {
                region: 7,
                at: start
            }
        );
        assert_eq!(vm.pc, start + 1, "pc advanced past the trap");
    }

    #[test]
    fn end_setup_reports_table_in_r28() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::ldiw(CTP, 0x4000));
        emit(
            &mut vm,
            Inst {
                op: Op::EndSetup,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 3,
            },
        );
        vm.pc = start;
        assert_eq!(vm.run().unwrap(), Stop::EndSetup { region: 3 });
        assert_eq!(vm.reg(CTP), 0x4000);
    }

    #[test]
    fn alloc_bumps_heap() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(64), 1));
        emit(&mut vm, Inst::op3(Op::Alloc, 1, Operand::Reg(ZERO), 2));
        emit(&mut vm, Inst::op3(Op::Alloc, 1, Operand::Reg(ZERO), 3));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert!(vm.reg(2) >= dyncomp_ir::eval::MEM_BASE);
        assert_eq!(vm.reg(3), vm.reg(2) + 64);
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::branch(Op::Br, ZERO, -1));
        vm.pc = start;
        vm.fuel = 1000;
        assert_eq!(vm.run(), Err(VmError::OutOfFuel));
    }

    #[test]
    fn cmov_selects() {
        let mut vm = Vm::new(1 << 16);
        let start = emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(0), 1)); // r1 = 0
        emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(5), 2)); // r2 = 5
        emit(&mut vm, Inst::op3(Op::Cmoveq, 1, Operand::Lit(9), 3)); // r1==0 -> r3=9
        emit(&mut vm, Inst::op3(Op::Cmovne, 1, Operand::Lit(7), 4)); // r1!=0 ? no
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(3), 9);
        assert_eq!(vm.reg(4), 0);
    }

    #[test]
    fn pc_out_of_range_faults() {
        let mut vm = Vm::new(1 << 12);
        vm.pc = 500; // no code appended at all
        assert!(matches!(vm.run(), Err(VmError::PcOutOfRange(500))));
    }

    #[test]
    fn truncated_ldiw_faults() {
        let mut vm = Vm::new(1 << 12);
        // Hand-encode an Ldiw and drop its second word: decoding must fail
        // rather than read past the end of the code area.
        let (w, extra) = encode(&Inst::ldiw(1, 123456)).unwrap();
        assert!(extra.is_some());
        let start = vm.append_code(&[w]);
        vm.pc = start;
        assert!(matches!(
            vm.run(),
            Err(VmError::BadInstruction { .. }) | Err(VmError::PcOutOfRange(_))
        ));
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let mut vm = Vm::new(1 << 12);
        // Tight self-loop: br .-0 (branch displacement -1 re-executes itself).
        let start = emit(&mut vm, Inst::branch(Op::Br, ZERO, -1));
        vm.pc = start;
        vm.fuel = 1000;
        assert_eq!(vm.run(), Err(VmError::OutOfFuel));
    }

    #[test]
    fn wild_load_is_a_memory_fault() {
        let mut vm = Vm::new(1 << 12);
        let start = emit(&mut vm, Inst::ldiw(1, i32::MAX));
        emit(&mut vm, Inst::op3(Op::Sll, 1, Operand::Lit(20), 1));
        emit(&mut vm, Inst::mem(Op::Ldq, 2, 1, 0));
        vm.pc = start;
        assert!(matches!(vm.run(), Err(VmError::Mem(_))));
    }

    #[test]
    fn signed_division_edge_cases() {
        // i64::MIN / -1 overflows on real hardware; the VM reports it as a
        // divide fault rather than wrapping silently.
        let mut vm = Vm::new(1 << 12);
        let a = vm.mem.alloc(8).unwrap();
        vm.mem.write_u64(a, i64::MIN as u64).unwrap();
        let start = emit(&mut vm, Inst::ldiw(1, a as i32));
        emit(&mut vm, Inst::mem(Op::Ldq, 1, 1, 0));
        emit(&mut vm, Inst::ldiw(2, -1));
        emit(&mut vm, Inst::op3(Op::Divq, 1, Operand::Reg(2), 3));
        vm.pc = start;
        assert!(matches!(vm.run(), Err(VmError::DivideByZero { .. })));

        // Ordinary signed divide/remainder truncate toward zero.
        let mut vm = Vm::new(1 << 12);
        let a = vm.mem.alloc(8).unwrap();
        vm.mem.write_u64(a, (-7i64) as u64).unwrap();
        let start = emit(&mut vm, Inst::ldiw(1, a as i32));
        emit(&mut vm, Inst::mem(Op::Ldq, 1, 1, 0));
        emit(&mut vm, Inst::op3(Op::Divq, 1, Operand::Lit(2), 3));
        emit(&mut vm, Inst::op3(Op::Remq, 1, Operand::Lit(2), 4));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(3) as i64, -3);
        assert_eq!(vm.reg(4) as i64, -1);
    }

    #[test]
    fn shifts_use_low_six_bits() {
        let mut vm = Vm::new(1 << 12);
        let start = emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 1));
        emit(&mut vm, Inst::op3(Op::Sll, 1, Operand::Lit(63), 2)); // sign bit
        emit(&mut vm, Inst::op3(Op::Sra, 2, Operand::Lit(63), 3)); // all ones
        emit(&mut vm, Inst::op3(Op::Srl, 2, Operand::Lit(63), 4)); // 1
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(2), 1u64 << 63);
        assert_eq!(vm.reg(3), u64::MAX);
        assert_eq!(vm.reg(4), 1);
    }

    #[test]
    fn conditional_moves_int_and_float() {
        let mut vm = Vm::new(1 << 12);
        let a = vm.mem.alloc(8).unwrap();
        vm.mem.write_u64(a, 1.5f64.to_bits()).unwrap();
        let start = emit(&mut vm, Inst::ldiw(1, a as i32));
        emit(&mut vm, Inst::mem(Op::Ldt, 2, 1, 0)); // f2 = 1.5
        emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(5), 3)); // r3 = 5 (true)
        emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(9), 4));
        emit(&mut vm, Inst::op3(Op::Cmovne, 3, Operand::Lit(77), 4)); // r4 = 77
        emit(&mut vm, Inst::op3(Op::Cmoveq, 3, Operand::Lit(11), 4)); // unchanged
        emit(&mut vm, Inst::op3(Op::Fcmovne, 3, Operand::Reg(2), 5)); // f5 = 1.5
        emit(&mut vm, Inst::op3(Op::Fcmovne, ZERO, Operand::Reg(2), 6)); // f6 unchanged (0.0)
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(4), 77);
        assert_eq!(vm.freg(5), 1.5);
        assert_eq!(vm.freg(6), 0.0);
    }

    #[test]
    fn patch_code_invalidates_predecode() {
        // Execute an EnterRegion trap (caching its decode), patch it into
        // a direct branch — the engine's unkeyed-region retirement — and
        // re-execute: the branch must be taken, not the stale trap.
        let mut vm = Vm::new(1 << 12);
        let start = emit(
            &mut vm,
            Inst {
                op: Op::EnterRegion,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 4,
            },
        );
        emit(&mut vm, Inst::ldiw(1, 111)); // fall-through (2 words)
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        let target = emit(&mut vm, Inst::ldiw(2, 222));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        assert_eq!(
            vm.run().unwrap(),
            Stop::EnterRegion {
                region: 4,
                at: start
            }
        );
        let w = branch_word(Op::Br, ZERO, start.into(), i64::from(target)).unwrap();
        vm.patch_code(start, w).unwrap();
        vm.pc = start;
        assert_eq!(vm.run().unwrap(), Stop::Halted);
        assert_eq!(vm.reg(2), 222, "patched branch was executed");
        assert_eq!(vm.reg(1), 0, "stale fall-through was not executed");
    }

    #[test]
    fn patch_code_invalidates_wide_instruction_prefix() {
        // Patch the *second* word of a cached Ldiw: the cached decode at
        // the first word must be dropped too.
        let mut vm = Vm::new(1 << 12);
        let start = emit(&mut vm, Inst::ldiw(1, 1000));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(1), 1000);
        vm.patch_code(start + 1, 2000u32).unwrap();
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.reg(1), 2000, "patched immediate word took effect");
    }

    #[test]
    fn predecode_changes_no_cycles() {
        // Running the same loop twice on one VM (second run fully served
        // by the predecode cache) costs exactly the same simulated cycles.
        let mut vm = Vm::new(1 << 12);
        let start = emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(50), 1));
        emit(&mut vm, Inst::op3(Op::Subq, 1, Operand::Lit(1), 1));
        emit(&mut vm, Inst::branch(Op::Bne, 1, -2));
        emit(
            &mut vm,
            Inst {
                op: Op::Halt,
                ra: 0,
                rb: Operand::Reg(ZERO),
                rc: 0,
                imm: 0,
            },
        );
        vm.pc = start;
        vm.run().unwrap();
        let cold = vm.cycles;
        vm.pc = start;
        vm.run().unwrap();
        assert_eq!(vm.cycles - cold, cold, "warm run costs the same cycles");
    }

    #[test]
    fn a_model_written_between_runs_prices_the_next_run() {
        // Slots carry their cost, so the second run must not reuse the
        // ones the first run decoded under the old `load` price.
        let mut vm = Vm::new(1 << 12);
        let a = vm.mem.alloc(8).unwrap();
        vm.append_code(&assemble(&[
            Inst::ldiw(1, a as i32),
            Inst::op3(Op::Addq, ZERO, Operand::Lit(4), 2),
            Inst::mem(Op::Ldq, 3, 1, 0),
            Inst::op3(Op::Subq, 2, Operand::Lit(1), 2),
            Inst::branch(Op::Bne, 2, -3),
            special(Op::Halt, 0),
        ]));
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        let first = vm.cycles;
        vm.model.load += 10;
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        assert_eq!(vm.cycles - first, first + 4 * 10, "four loads, repriced");
    }

    #[test]
    fn cycle_accounting_is_deterministic() {
        let build = || {
            let mut vm = Vm::new(1 << 12);
            let start = emit(&mut vm, Inst::op3(Op::Addq, ZERO, Operand::Lit(10), 1));
            // loop: r1 -= 1; bne r1, loop
            emit(&mut vm, Inst::op3(Op::Subq, 1, Operand::Lit(1), 1));
            emit(&mut vm, Inst::branch(Op::Bne, 1, -2));
            emit(
                &mut vm,
                Inst {
                    op: Op::Halt,
                    ra: 0,
                    rb: Operand::Reg(ZERO),
                    rc: 0,
                    imm: 0,
                },
            );
            vm.pc = start;
            vm.run().unwrap();
            vm.cycles
        };
        let c1 = build();
        let c2 = build();
        assert_eq!(c1, c2);
        let m = CycleModel::default();
        // 1 setup + 10 subs + 9 taken + 1 untaken branches.
        assert_eq!(
            c1,
            m.int_op + 10 * m.int_op + 9 * m.branch_taken + m.branch_untaken
        );
    }

    #[test]
    fn too_many_call_args_is_an_error_not_a_panic() {
        let mut vm = Vm::new(1 << 12);
        let err = vm.setup_call(0, &[0; 7]).unwrap_err();
        assert!(
            matches!(err, VmError::TooManyArgs { given: 7, max: 6 }),
            "{err}"
        );
        // At the boundary, six arguments are fine.
        vm.setup_call(0, &[0; 6]).unwrap();
    }

    #[test]
    fn code_patch_out_of_range_is_an_error_not_a_panic() {
        let mut vm = Vm::new(1 << 12);
        vm.append_code(&[0]);
        let err = vm.patch_code(99, 0).unwrap_err();
        assert!(matches!(err, VmError::PatchOutOfRange(99)), "{err}");
        vm.patch_code(0, 0).unwrap();
    }

    #[test]
    fn float_op_with_literal_operand_is_an_error_not_a_panic() {
        // Operate-format words carry a literal bit, so a crafted (or
        // mispatched) code word can reach a float op with `Operand::Lit`;
        // the VM must report it as a bad instruction, not panic.
        let mut vm = Vm::new(1 << 12);
        let start = emit(&mut vm, Inst::op3(Op::Addt, 1, Operand::Lit(5), 2));
        vm.pc = start;
        let err = vm.run().unwrap_err();
        assert!(matches!(err, VmError::BadInstruction { .. }), "{err}");
    }

    fn special(op: Op, imm: i32) -> Inst {
        Inst {
            op,
            ra: 0,
            rb: Operand::Reg(ZERO),
            rc: 0,
            imm,
        }
    }

    fn assemble(insts: &[Inst]) -> Vec<u32> {
        let mut out = Vec::new();
        for i in insts {
            let (w, extra) = encode(i).unwrap();
            out.push(w);
            out.extend(extra);
        }
        out
    }

    /// Sentinel preset into every destination register of the exit-state
    /// table, so "the faulting instruction wrote nothing" is observable.
    const UNWRITTEN: u64 = 0xDEAD;

    enum Dest {
        Int(Reg, u64),
        Float(Reg, u64),
    }

    /// One row of the exit-state table: a program at address 0, how it
    /// must leave `run()`, and the machine state it must leave behind.
    struct ExitCase {
        name: &'static str,
        code: Vec<u32>,
        prep: fn(&mut Vm),
        fuel: u64,
        exit: Result<Stop, VmError>,
        /// `vm.pc` afterwards: past a trap, at a fault, at a native mark.
        pc: u32,
        /// Instructions that consumed fuel (a faulting one included).
        executed: u64,
        /// Cycles charged (a faulting instruction charges none).
        cycles: u64,
        dest: Dest,
    }

    const MEM: usize = 1 << 12;

    fn exit_cases() -> Vec<ExitCase> {
        let m = CycleModel::default();
        // Every program opens with `r1 = 5`, so each exit is reached with
        // one instruction's worth of fuel and cycles already on the books.
        let five = Inst::op3(Op::Addq, ZERO, Operand::Lit(5), 1);
        let then = |second: Inst| assemble(&[five, second]);
        let oob = |addr| Err(VmError::Mem(EvalError::OutOfBounds { addr }));
        let fault = |name, code, prep, exit, dest| ExitCase {
            name,
            code,
            prep,
            fuel: 10,
            exit,
            pc: 1,
            executed: 2,
            cycles: m.int_op,
            dest,
        };
        let (ldiw_head, _) = encode(&Inst::ldiw(2, 123_456)).unwrap();
        let (five_w, _) = encode(&five).unwrap();
        vec![
            ExitCase {
                name: "halted",
                code: then(special(Op::Halt, 0)),
                prep: |_| {},
                fuel: 10,
                exit: Ok(Stop::Halted),
                pc: 2,
                executed: 2,
                cycles: m.int_op,
                dest: Dest::Int(1, 5),
            },
            ExitCase {
                name: "halted on the last unit of fuel",
                code: then(special(Op::Halt, 0)),
                prep: |_| {},
                fuel: 2,
                exit: Ok(Stop::Halted),
                pc: 2,
                executed: 2,
                cycles: m.int_op,
                dest: Dest::Int(1, 5),
            },
            ExitCase {
                name: "enter-region trap",
                code: then(special(Op::EnterRegion, 7)),
                prep: |_| {},
                fuel: 10,
                exit: Ok(Stop::EnterRegion { region: 7, at: 1 }),
                pc: 2,
                executed: 2,
                cycles: m.int_op,
                dest: Dest::Int(1, 5),
            },
            ExitCase {
                name: "end-setup trap",
                code: assemble(&[Inst::ldiw(CTP, 0x4000), special(Op::EndSetup, 3)]),
                prep: |_| {},
                fuel: 10,
                exit: Ok(Stop::EndSetup { region: 3 }),
                pc: 3,
                executed: 2,
                cycles: m.ldiw,
                dest: Dest::Int(CTP, 0x4000),
            },
            ExitCase {
                name: "native mark",
                code: then(Inst::op3(Op::Addq, ZERO, Operand::Lit(6), 2)),
                prep: |vm| vm.mark_native(1),
                fuel: 10,
                exit: Ok(Stop::Native { at: 1 }),
                pc: 1,
                executed: 1,
                cycles: m.int_op,
                dest: Dest::Int(2, UNWRITTEN),
            },
            ExitCase {
                name: "native mark is seen before the fuel check",
                code: then(special(Op::Halt, 0)),
                prep: |vm| vm.mark_native(0),
                fuel: 0,
                exit: Ok(Stop::Native { at: 0 }),
                pc: 0,
                executed: 0,
                cycles: 0,
                dest: Dest::Int(1, UNWRITTEN),
            },
            fault(
                "load from the null page",
                then(Inst::mem(Op::Ldq, 2, ZERO, 0)),
                |_| {},
                oob(0),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "narrow sign-extending load past the end",
                then(Inst::mem(Op::Ldw, 2, 3, 1)),
                |vm| vm.regs[3] = MEM as u64 - 2,
                oob(MEM as u64 - 1),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "store straddling the end",
                then(Inst::mem(Op::Stq, 1, 3, 0)),
                |vm| vm.regs[3] = MEM as u64 - 4,
                oob(MEM as u64 - 4),
                Dest::Int(1, 5),
            ),
            fault(
                "float load whose address range overflows",
                then(Inst::mem(Op::Ldt, 2, 3, 0)),
                |vm| vm.regs[3] = u64::MAX - 3,
                oob(u64::MAX - 3),
                Dest::Float(2, UNWRITTEN),
            ),
            fault(
                "float store at the end",
                then(Inst::mem(Op::Stt, 2, 3, 0)),
                |vm| vm.regs[3] = MEM as u64,
                oob(MEM as u64),
                Dest::Float(2, UNWRITTEN),
            ),
            fault(
                "alloc beyond capacity",
                then(Inst::op3(Op::Alloc, 3, Operand::Reg(ZERO), 2)),
                |vm| vm.regs[3] = u64::MAX,
                oob(dyncomp_ir::eval::MEM_BASE),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "divide by a zero register",
                then(Inst::op3(Op::Divq, 1, Operand::Reg(ZERO), 2)),
                |_| {},
                Err(VmError::DivideByZero { pc: 1 }),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "unsigned remainder by a zero literal",
                then(Inst::op3(Op::Remqu, 1, Operand::Lit(0), 2)),
                |_| {},
                Err(VmError::DivideByZero { pc: 1 }),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "i64::MIN / -1",
                then(Inst::op3(Op::Divq, 3, Operand::Reg(4), 2)),
                |vm| {
                    vm.regs[3] = i64::MIN as u64;
                    vm.regs[4] = -1i64 as u64;
                },
                Err(VmError::DivideByZero { pc: 1 }),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "i64::MIN % -1",
                then(Inst::op3(Op::Remq, 3, Operand::Reg(4), 2)),
                |vm| {
                    vm.regs[3] = i64::MIN as u64;
                    vm.regs[4] = -1i64 as u64;
                },
                Err(VmError::DivideByZero { pc: 1 }),
                Dest::Int(2, UNWRITTEN),
            ),
            fault(
                "float operate with a literal operand",
                then(Inst::op3(Op::Addt, 1, Operand::Lit(5), 2)),
                |_| {},
                Err(VmError::BadInstruction { pc: 1 }),
                Dest::Float(2, UNWRITTEN),
            ),
            fault(
                "unknown opcode byte",
                vec![five_w, 0xFF00_0000],
                |_| {},
                Err(VmError::BadInstruction { pc: 1 }),
                Dest::Int(2, UNWRITTEN),
            ),
            // The missing second word is what is out of range, so the
            // error names it; `pc` stays on the Ldiw itself.
            fault(
                "Ldiw truncated by the end of the code area",
                vec![five_w, ldiw_head],
                |_| {},
                Err(VmError::PcOutOfRange(2)),
                Dest::Int(2, UNWRITTEN),
            ),
            ExitCase {
                name: "branch out of the code area",
                code: then(Inst::branch(Op::Br, ZERO, 100)),
                prep: |_| {},
                fuel: 10,
                exit: Err(VmError::PcOutOfRange(102)),
                pc: 102,
                executed: 3,
                cycles: m.int_op + m.branch_taken,
                dest: Dest::Int(1, 5),
            },
            ExitCase {
                name: "out of fuel before the first instruction",
                code: then(special(Op::Halt, 0)),
                prep: |_| {},
                fuel: 0,
                exit: Err(VmError::OutOfFuel),
                pc: 0,
                executed: 0,
                cycles: 0,
                dest: Dest::Int(1, UNWRITTEN),
            },
            // r1 = 5; loop { r1 -= 1; bne r1, loop }: six units of fuel
            // buy the set-up, three decrements and two taken branches.
            ExitCase {
                name: "out of fuel in the middle of a loop",
                code: assemble(&[
                    five,
                    Inst::op3(Op::Subq, 1, Operand::Lit(1), 1),
                    Inst::branch(Op::Bne, 1, -2),
                ]),
                prep: |_| {},
                fuel: 6,
                exit: Err(VmError::OutOfFuel),
                pc: 2,
                executed: 6,
                cycles: 4 * m.int_op + 2 * m.branch_taken,
                dest: Dest::Int(1, 2),
            },
        ]
    }

    #[test]
    fn every_exit_leaves_the_documented_machine_state() {
        for case in exit_cases() {
            let name = case.name;
            let mut vm = Vm::new(MEM);
            vm.append_code(&case.code);
            for r in 1..ZERO as usize {
                if r != SP as usize {
                    vm.regs[r] = UNWRITTEN;
                    vm.fregs[r] = f64::from_bits(UNWRITTEN);
                }
            }
            (case.prep)(&mut vm);
            vm.pc = 0;
            vm.fuel = case.fuel;
            assert_eq!(vm.run(), case.exit, "{name}: exit");
            assert_eq!(vm.pc, case.pc, "{name}: pc");
            assert_eq!(vm.fuel, case.fuel - case.executed, "{name}: fuel");
            assert_eq!(vm.cycles, case.cycles, "{name}: cycles");
            assert_eq!(vm.regs[ZERO as usize], 0, "{name}: r31");
            assert_eq!(vm.fregs[ZERO as usize].to_bits(), 0, "{name}: f31");
            match case.dest {
                Dest::Int(r, v) => assert_eq!(vm.regs[r as usize], v, "{name}: r{r}"),
                Dest::Float(r, bits) => {
                    assert_eq!(vm.fregs[r as usize].to_bits(), bits, "{name}: f{r}");
                }
            }
        }
    }

    /// The program the mark-coherence tests run:
    /// `0: r1 = 1`, `1: r1 += 1`, `2: r2 = 1000` (two words),
    /// `4: r1 += 1`, `5: halt`.
    fn marked_program() -> Vm {
        let mut vm = Vm::new(MEM);
        vm.append_code(&assemble(&[
            Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 1),
            Inst::op3(Op::Addq, 1, Operand::Lit(1), 1),
            Inst::ldiw(2, 1000),
            Inst::op3(Op::Addq, 1, Operand::Lit(1), 1),
            special(Op::Halt, 0),
        ]));
        vm
    }

    fn run_from(vm: &mut Vm, pc: u32) -> Result<Stop, VmError> {
        vm.pc = pc;
        vm.run()
    }

    #[test]
    fn marks_on_decoded_undecoded_and_beyond_end_addresses() {
        // Decoded: every word has been through the predecode cache.
        let mut vm = marked_program();
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        vm.mark_native(1);
        let fuel = vm.fuel;
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));
        assert_eq!(
            (vm.pc, fuel - vm.fuel),
            (1, 1),
            "the marked word is not run"
        );

        // Undecoded: nothing has executed yet.
        let mut vm = marked_program();
        vm.mark_native(4);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 4 }));
        assert_eq!((vm.reg(1), vm.reg(2)), (2, 1000));

        // Beyond the end: inert until code is appended under it, except
        // that a pc sent there directly still reports the mark.
        let mut vm = marked_program();
        let end = vm.code.len() as u32;
        vm.mark_native(end + 1);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        assert_eq!(run_from(&mut vm, end + 1), Ok(Stop::Native { at: end + 1 }));
        assert_eq!(run_from(&mut vm, end), Err(VmError::PcOutOfRange(end)));
        assert_eq!(
            run_from(&mut vm, end + 2),
            Err(VmError::PcOutOfRange(end + 2))
        );
        let at = vm.append_code(&assemble(&[
            Inst::op3(Op::Addq, ZERO, Operand::Lit(9), 3),
            Inst::op3(Op::Addq, 3, Operand::Lit(9), 3),
            special(Op::Halt, 0),
        ]));
        assert_eq!(at, end);
        assert_eq!(run_from(&mut vm, end), Ok(Stop::Native { at: end + 1 }));
        assert_eq!(vm.reg(3), 9);
    }

    #[test]
    fn unmark_native_disarms_one_address() {
        let mut vm = marked_program();
        vm.mark_native(1);
        vm.mark_native(4);
        vm.unmark_native(1);
        vm.unmark_native(1_000_000); // never marked, beyond the end: a no-op
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 4 }));
        vm.unmark_native(4);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        assert_eq!(vm.reg(1), 3);
    }

    #[test]
    fn patch_code_drops_the_mark_on_the_patched_word_only() {
        let mut vm = marked_program();
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        vm.mark_native(1);
        let (w, _) = encode(&Inst::op3(Op::Addq, 1, Operand::Lit(10), 1)).unwrap();
        vm.patch_code(1, w).unwrap();
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        assert_eq!(vm.reg(1), 12, "patched word ran, unmarked");

        // Patching the immediate word of a marked Ldiw re-decodes the
        // Ldiw but leaves the mark on its first word.
        vm.mark_native(2);
        vm.patch_code(3, 2000).unwrap();
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 2 }));
        vm.skip_native_once(2);
        assert_eq!(vm.run(), Ok(Stop::Halted));
        assert_eq!(vm.reg(2), 2000);
    }

    #[test]
    fn skip_native_once_is_consumed_on_arrival() {
        // At a marked pc: interpreted once, then the mark is live again.
        let mut vm = marked_program();
        vm.mark_native(1);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));
        vm.skip_native_once(1);
        assert_eq!(vm.run(), Ok(Stop::Halted));
        assert_eq!(vm.reg(1), 3);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));

        // At an unmarked pc that is marked later: passing it uses the
        // skip up, so the later mark stops the first arrival.
        let mut vm = marked_program();
        vm.mark_native(4);
        vm.skip_native_once(1);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 4 }));
        vm.mark_native(1);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));

        // While no mark has been set at all the run loop looks at neither
        // marks nor the skip, so the skip is still pending when the first
        // mark arrives.
        let mut vm = marked_program();
        vm.skip_native_once(1);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        vm.mark_native(1);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));

        // A second skip replaces the first.
        let mut vm = marked_program();
        vm.mark_native(1);
        vm.mark_native(4);
        vm.skip_native_once(1);
        vm.skip_native_once(4);
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));
    }

    #[test]
    fn clearing_marks_on_a_fork_leaves_the_original_marked() {
        let mut vm = marked_program();
        vm.mark_native(1);
        vm.skip_native_once(4);
        let mut fork = vm.clone();
        fork.clear_native_marks();
        assert_eq!(run_from(&mut fork, 0), Ok(Stop::Halted));
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Native { at: 1 }));
        // The fork's pending skip went with its marks.
        fork.mark_native(4);
        assert_eq!(run_from(&mut fork, 0), Ok(Stop::Native { at: 4 }));
        // A fork that keeps its marks keeps them.
        assert_eq!(run_from(&mut vm.clone(), 0), Ok(Stop::Native { at: 1 }));
    }

    #[test]
    fn writing_r31_through_the_public_field_is_not_observable() {
        let mut vm = Vm::new(MEM);
        vm.append_code(&assemble(&[
            Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 1),
            Inst::op3(Op::Fmov, ZERO, Operand::Reg(ZERO), 2),
            Inst::mem(Op::Lda, 3, ZERO, 7),
            special(Op::Halt, 0),
        ]));
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        vm.regs[ZERO as usize] = 99;
        vm.fregs[ZERO as usize] = 1.5;
        vm.fregs[2] = -1.0;
        assert_eq!(run_from(&mut vm, 0), Ok(Stop::Halted));
        assert_eq!((vm.reg(1), vm.freg(2), vm.reg(3)), (1, 0.0, 7));
        assert_eq!((vm.reg(ZERO), vm.freg(ZERO)), (0, 0.0));
    }
}
