//! The SimAlpha interpreter with deterministic cycle accounting.
//!
//! The paper measured asymptotic speedups and breakeven points with the
//! Alpha 21064's hardware cycle counter; the interpreter's [`CycleModel`]
//! plays that role here. Costs are loosely calibrated to the 21064
//! (loads 3 cycles, integer ALU 1, multiply 8, divide ~35, FP 6, taken
//! branches 2) — all reported results are relative, so the model only needs
//! to preserve the *shape* of the paper's numbers.

use crate::isa::{decode, Inst, Op, Operand, Reg, CTP, RA, SP, ZERO};
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
    /// is in `r28` ([`CTP`]).
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

/// The simulated machine.
///
/// `Clone` forks the whole machine — code, predecode cache, registers,
/// memory, cycle state — giving an independent machine that can run
/// elsewhere (the tiered runtime forks the session VM so background
/// workers can execute region set-up code against a detached snapshot).
#[derive(Clone)]
pub struct Vm {
    /// Code space (word-addressed; stitched code is appended here).
    ///
    /// Reads are free-for-all; **writes must go through
    /// [`Vm::patch_code`]** (or [`Vm::append_code`]) so the predecode
    /// cache stays coherent. Writing `code` directly leaves stale decoded
    /// entries behind and the VM will keep executing the old instruction.
    pub code: Vec<u32>,
    /// Predecode cache: each code word decoded at most once. `None` means
    /// not yet decoded (or invalidated by a patch). Purely a host-side
    /// speedup — it changes no simulated cycle counts, because decoding
    /// was never a modeled cost (the simulated 21064 fetches from I-cache
    /// either way).
    decoded: Vec<Option<(Inst, u32)>>,
    /// Integer registers (`r31` reads as zero).
    pub regs: [u64; 32],
    /// Float registers (`f31` reads as 0.0).
    pub fregs: [f64; 32],
    /// Data memory (shared layout with the reference interpreter).
    pub mem: Memory,
    /// Program counter (word index).
    pub pc: u32,
    /// Accumulated cycles.
    pub cycles: u64,
    /// The cost model.
    pub model: CycleModel,
    /// Remaining instruction budget.
    pub fuel: u64,
    halt_stub: Option<u32>,
    /// Code addresses where [`Vm::run`] yields [`Stop::Native`] instead
    /// of interpreting. Empty (the default) costs one branch per run
    /// loop. Cloned VMs inherit marks; forks that run without a native
    /// dispatcher must call [`Vm::clear_native_marks`].
    native_marks: Vec<bool>,
    /// One-shot suppression of the mark at this pc, so a native bail-out
    /// that made no progress (fuel too low, unsupported entry) can hand
    /// the address to the interpreter exactly once without bouncing.
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
            regs,
            fregs: [0.0; 32],
            mem,
            pc: 0,
            cycles: 0,
            model: CycleModel::default(),
            fuel: 2_000_000_000,
            halt_stub: None,
            native_marks: Vec::new(),
            native_skip: None,
        }
    }

    /// Mark `at` as a native dispatch point: when the run loop reaches
    /// it, [`Vm::run`] returns [`Stop::Native`] without fetching the
    /// instruction there.
    pub fn mark_native(&mut self, at: u32) {
        if self.native_marks.len() <= at as usize {
            self.native_marks.resize(at as usize + 1, false);
        }
        self.native_marks[at as usize] = true;
    }

    /// Remove the native dispatch mark at `at`, if any.
    pub fn unmark_native(&mut self, at: u32) {
        if let Some(m) = self.native_marks.get_mut(at as usize) {
            *m = false;
        }
    }

    /// Drop every native dispatch mark (and any pending skip). Forked
    /// VMs that run without a native dispatcher must call this, or the
    /// run loop would surface [`Stop::Native`] nobody handles.
    pub fn clear_native_marks(&mut self) {
        self.native_marks = Vec::new();
        self.native_skip = None;
    }

    /// Suppress the native mark at `at` for the next arrival only. Used
    /// after a native bail-out at its own entry pc, letting the
    /// interpreter make progress before native dispatch re-arms.
    pub fn skip_native_once(&mut self, at: u32) {
        self.native_skip = Some(at);
    }

    /// Append raw code words, returning the address of the first.
    pub fn append_code(&mut self, words: &[u32]) -> u32 {
        let at = self.code.len() as u32;
        self.code.extend_from_slice(words);
        self.decoded.resize(self.code.len(), None);
        // A wide instruction whose second word was missing may have been
        // fetched (and faulted) before this append completed it; drop any
        // cached decode of the previous last word.
        if at > 0 {
            self.decoded[at as usize - 1] = None;
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
        let slot = self
            .code
            .get_mut(at as usize)
            .ok_or(VmError::PatchOutOfRange(at))?;
        *slot = word;
        self.decoded[at as usize] = None;
        if at > 0 {
            self.decoded[at as usize - 1] = None;
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

    /// Read an integer register (`r31` = 0).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r == ZERO {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Write an integer register (writes to `r31` are discarded).
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

    fn fetch(&mut self, pc: u32) -> Result<(Inst, u32), VmError> {
        if let Some(Some(hit)) = self.decoded.get(pc as usize) {
            return Ok(*hit);
        }
        let w = *self
            .code
            .get(pc as usize)
            .ok_or(VmError::PcOutOfRange(pc))?;
        let opbyte = (w >> 24) as u8;
        let extra = if Op::from_u8(opbyte) == Some(Op::Ldiw) {
            Some(
                *self
                    .code
                    .get(pc as usize + 1)
                    .ok_or(VmError::PcOutOfRange(pc + 1))?,
            )
        } else {
            None
        };
        let inst = decode(w, extra).map_err(|_| VmError::BadInstruction { pc })?;
        let len = if inst.is_wide() { 2 } else { 1 };
        self.decoded[pc as usize] = Some((inst, len));
        Ok((inst, len))
    }

    /// Run until a trap ([`Stop`]) or an error.
    ///
    /// # Errors
    /// Returns [`VmError`] on faults; the machine state is left at the
    /// faulting instruction for inspection.
    pub fn run(&mut self) -> Result<Stop, VmError> {
        loop {
            if !self.native_marks.is_empty() {
                let pc = self.pc;
                if self.native_skip == Some(pc) {
                    self.native_skip = None;
                } else if self.native_marks.get(pc as usize) == Some(&true) {
                    return Ok(Stop::Native { at: pc });
                }
            }
            if self.fuel == 0 {
                return Err(VmError::OutOfFuel);
            }
            self.fuel -= 1;
            let pc = self.pc;
            let (inst, len) = self.fetch(pc)?;
            let next = pc + len;
            let mut taken = false;
            match self.step(&inst, pc, next, &mut taken)? {
                Some(stop) => {
                    self.cycles += self.model.cost(inst.op, taken);
                    return Ok(stop);
                }
                None => {
                    self.cycles += self.model.cost(inst.op, taken);
                }
            }
        }
    }

    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Lit(l) => u64::from(l),
        }
    }

    #[inline]
    fn step(
        &mut self,
        inst: &Inst,
        pc: u32,
        next: u32,
        taken: &mut bool,
    ) -> Result<Option<Stop>, VmError> {
        use Op::*;
        let Inst {
            op,
            ra,
            rb,
            rc,
            imm,
        } = *inst;
        self.pc = next;
        match op {
            // ---- integer operate ----
            Addq | Subq | Mulq | And | Bis | Xor | Ornot | Sll | Srl | Sra | Cmpeq | Cmpne
            | Cmplt | Cmple | Cmpult | Cmpule | Sextb | Sextw | Sextl | Zextb | Zextw | Zextl => {
                let a = self.reg(ra);
                let b = self.operand(rb);
                let v = match op {
                    Addq => a.wrapping_add(b),
                    Subq => a.wrapping_sub(b),
                    Mulq => a.wrapping_mul(b),
                    And => a & b,
                    Bis => a | b,
                    Xor => a ^ b,
                    Ornot => a | !b,
                    Sll => a.wrapping_shl(b as u32 & 63),
                    Srl => a.wrapping_shr(b as u32 & 63),
                    Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
                    Cmpeq => u64::from(a == b),
                    Cmpne => u64::from(a != b),
                    Cmplt => u64::from((a as i64) < (b as i64)),
                    Cmple => u64::from((a as i64) <= (b as i64)),
                    Cmpult => u64::from(a < b),
                    Cmpule => u64::from(a <= b),
                    Sextb => (a as i8) as i64 as u64,
                    Sextw => (a as i16) as i64 as u64,
                    Sextl => (a as i32) as i64 as u64,
                    Zextb => a & 0xFF,
                    Zextw => a & 0xFFFF,
                    Zextl => a & 0xFFFF_FFFF,
                    _ => unreachable!(),
                };
                self.set_reg(rc, v);
            }
            Divq | Divqu | Remq | Remqu => {
                let a = self.reg(ra);
                let b = self.operand(rb);
                if b == 0 || (matches!(op, Divq | Remq) && a as i64 == i64::MIN && b as i64 == -1) {
                    return Err(VmError::DivideByZero { pc });
                }
                let v = match op {
                    Divq => ((a as i64) / (b as i64)) as u64,
                    Divqu => a / b,
                    Remq => ((a as i64) % (b as i64)) as u64,
                    Remqu => a % b,
                    _ => unreachable!(),
                };
                self.set_reg(rc, v);
            }
            Cmoveq | Cmovne => {
                let a = self.reg(ra);
                let b = self.operand(rb);
                let cond = if op == Cmoveq { a == 0 } else { a != 0 };
                if cond {
                    self.set_reg(rc, b);
                }
            }
            // ---- memory ----
            // Memory- and jump-format words have no literal-operand bit:
            // `decode` always produces `Operand::Reg` for them, so the
            // `else` arms below are decode invariants, not reachable
            // through any code word.
            Lda => {
                let Operand::Reg(base) = rb else {
                    unreachable!()
                };
                self.set_reg(ra, self.reg(base).wrapping_add(imm as i64 as u64));
            }
            Ldbu | Ldwu | Ldlu | Ldb | Ldw | Ldl | Ldq => {
                let Operand::Reg(base) = rb else {
                    unreachable!()
                };
                let addr = self.reg(base).wrapping_add(imm as i64 as u64);
                use dyncomp_ir::{MemSize, Signedness};
                let (sz, sg) = match op {
                    Ldbu => (MemSize::B1, Signedness::Unsigned),
                    Ldwu => (MemSize::B2, Signedness::Unsigned),
                    Ldlu => (MemSize::B4, Signedness::Unsigned),
                    Ldb => (MemSize::B1, Signedness::Signed),
                    Ldw => (MemSize::B2, Signedness::Signed),
                    Ldl => (MemSize::B4, Signedness::Signed),
                    Ldq => (MemSize::B8, Signedness::Unsigned),
                    _ => unreachable!(),
                };
                let v = self.mem.read(addr, sz, sg)?;
                self.set_reg(ra, v);
            }
            Stb | Stw | Stl | Stq => {
                let Operand::Reg(base) = rb else {
                    unreachable!()
                };
                let addr = self.reg(base).wrapping_add(imm as i64 as u64);
                use dyncomp_ir::MemSize;
                let sz = match op {
                    Stb => MemSize::B1,
                    Stw => MemSize::B2,
                    Stl => MemSize::B4,
                    Stq => MemSize::B8,
                    _ => unreachable!(),
                };
                self.mem.write(addr, sz, self.reg(ra))?;
            }
            Ldt => {
                let Operand::Reg(base) = rb else {
                    unreachable!()
                };
                let addr = self.reg(base).wrapping_add(imm as i64 as u64);
                let v = self.mem.read_u64(addr)?;
                self.set_freg(ra, f64::from_bits(v));
            }
            Stt => {
                let Operand::Reg(base) = rb else {
                    unreachable!()
                };
                let addr = self.reg(base).wrapping_add(imm as i64 as u64);
                self.mem.write_u64(addr, self.freg(ra).to_bits())?;
            }
            // ---- branches ----
            Br | Bsr => {
                self.set_reg(ra, u64::from(next));
                self.pc = next.wrapping_add_signed(imm);
                *taken = true;
            }
            Beq | Bne | Blt | Ble | Bgt | Bge => {
                let a = self.reg(ra) as i64;
                let t = match op {
                    Beq => a == 0,
                    Bne => a != 0,
                    Blt => a < 0,
                    Ble => a <= 0,
                    Bgt => a > 0,
                    Bge => a >= 0,
                    _ => unreachable!(),
                };
                if t {
                    self.pc = next.wrapping_add_signed(imm);
                    *taken = true;
                }
            }
            Jmp | Jsr => {
                let Operand::Reg(target) = rb else {
                    unreachable!()
                };
                let t = self.reg(target) as u32;
                self.set_reg(ra, u64::from(next));
                self.pc = t;
                *taken = true;
            }
            // ---- float operate ----
            // Float operate instructions use the Operate encoding, whose
            // literal-operand bit a crafted or patched code word can set;
            // there is no literal float form, so that decodes must fault
            // rather than hit an unreachable arm.
            Addt | Subt | Mult | Divt => {
                let a = self.freg(ra);
                let Operand::Reg(b) = rb else {
                    return Err(VmError::BadInstruction { pc });
                };
                let b = self.freg(b);
                let v = match op {
                    Addt => a + b,
                    Subt => a - b,
                    Mult => a * b,
                    Divt => a / b,
                    _ => unreachable!(),
                };
                self.set_freg(rc, v);
            }
            Cmpteq | Cmptlt | Cmptle => {
                let a = self.freg(ra);
                let Operand::Reg(b) = rb else {
                    return Err(VmError::BadInstruction { pc });
                };
                let b = self.freg(b);
                let v = match op {
                    Cmpteq => a == b,
                    Cmptlt => a < b,
                    Cmptle => a <= b,
                    _ => unreachable!(),
                };
                self.set_reg(rc, u64::from(v));
            }
            Sqrtt => {
                let Operand::Reg(b) = rb else {
                    return Err(VmError::BadInstruction { pc });
                };
                let v = self.freg(b).sqrt();
                self.set_freg(rc, v);
            }
            Cvtqt => {
                let v = self.reg(ra) as i64 as f64;
                self.set_freg(rc, v);
            }
            Cvttq => {
                let v = self.freg(ra);
                let i = if v.is_nan() {
                    0
                } else if v >= i64::MAX as f64 {
                    i64::MAX
                } else if v <= i64::MIN as f64 {
                    i64::MIN
                } else {
                    v as i64
                };
                self.set_reg(rc, i as u64);
            }
            Fmov => {
                let Operand::Reg(b) = rb else {
                    return Err(VmError::BadInstruction { pc });
                };
                let v = self.freg(b);
                self.set_freg(rc, v);
            }
            Fneg => {
                let Operand::Reg(b) = rb else {
                    return Err(VmError::BadInstruction { pc });
                };
                let v = -self.freg(b);
                self.set_freg(rc, v);
            }
            Fcmovne => {
                let Operand::Reg(b) = rb else {
                    return Err(VmError::BadInstruction { pc });
                };
                if self.reg(ra) != 0 {
                    let v = self.freg(b);
                    self.set_freg(rc, v);
                }
            }
            // ---- specials ----
            Ldiw => {
                self.set_reg(rc, imm as i64 as u64);
            }
            Alloc => {
                let n = self.reg(ra);
                let addr = self.mem.alloc(n)?;
                self.set_reg(rc, addr);
            }
            EnterRegion => {
                return Ok(Some(Stop::EnterRegion {
                    region: imm as u16,
                    at: pc,
                }));
            }
            EndSetup => {
                let _ = self.reg(CTP); // table address available to the runtime
                return Ok(Some(Stop::EndSetup { region: imm as u16 }));
            }
            Halt => return Ok(Some(Stop::Halted)),
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::encode;

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
        let disp = target as i64 - (i64::from(start) + 1);
        let (w, _) = encode(&Inst::branch(Op::Br, ZERO, disp as i32)).unwrap();
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
}
