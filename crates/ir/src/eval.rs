//! A reference interpreter for the IR.
//!
//! Used to validate the front end, SSA construction/destruction and the
//! optimizer independently of the simalpha back end, and to
//! differential-test the specializer: the interpreter knows how to execute
//! *specialized* functions directly (set-up code, constants table,
//! template holes, constant branches, unrolled-loop markers), giving the
//! semantics the stitcher must reproduce.

use crate::func::{Function, Module};
use crate::ids::{FuncId, GlobalId, IndexVec, InstId, RegionId, VarId};
use crate::inst::{InstKind, Intrinsic, SlotPath, TemplateMarker, Terminator};
use crate::ops::{Const, MemSize, Signedness, UnOp};
use crate::zeroed::ZeroedBytes;
use std::collections::HashMap;
use std::fmt;

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A memory access fell outside the allocated space.
    OutOfBounds {
        /// Offending address.
        addr: u64,
    },
    /// An instruction trapped (integer division by zero, …).
    Trap(String),
    /// The step budget was exhausted (runaway loop).
    StepLimit,
    /// Executed a [`Terminator::Unreachable`].
    Unreachable,
    /// Used a value that was never computed.
    UndefinedValue(InstId),
    /// Read a variable never written (post-SSA φ-variables only).
    UndefinedVar(VarId),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::OutOfBounds { addr } => {
                write!(f, "memory access out of bounds at {addr:#x}")
            }
            EvalError::Trap(m) => write!(f, "trap: {m}"),
            EvalError::StepLimit => write!(f, "step limit exhausted"),
            EvalError::Unreachable => write!(f, "executed unreachable terminator"),
            EvalError::UndefinedValue(v) => write!(f, "use of undefined value {v}"),
            EvalError::UndefinedVar(v) => write!(f, "read of unwritten variable {v}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Result of a function call.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalOutcome {
    /// The function returned (with an optional value, as raw bits).
    Return(Option<u64>),
}

/// Flat byte-addressable memory with a bump allocator.
///
/// Address 0 is reserved (null); globals start at a fixed base. The
/// bytes are zero until written and cost host memory only once touched
/// (see [`crate::zeroed`]), so creating, cloning and dropping a large
/// memory is proportional to what the program used of it.
#[derive(Clone)]
pub struct Memory {
    bytes: ZeroedBytes,
    brk: u64,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("capacity", &self.capacity())
            .field("brk", &self.brk)
            .finish()
    }
}

/// Base address where globals (and then the heap) are laid out.
pub const MEM_BASE: u64 = 1024;

impl Memory {
    /// Empty memory with the given capacity in bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Memory {
            bytes: ZeroedBytes::new(cap),
            brk: MEM_BASE,
        }
    }

    /// Bump-allocate `n` bytes, 8-byte aligned. Returns the address.
    pub fn alloc(&mut self, n: u64) -> Result<u64, EvalError> {
        let addr = (self.brk + 7) & !7;
        let end = addr.checked_add(n).ok_or(EvalError::OutOfBounds { addr })?;
        if end as usize > self.bytes.len() {
            return Err(EvalError::OutOfBounds { addr });
        }
        self.brk = end;
        Ok(addr)
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) -> Result<usize, EvalError> {
        let end = addr
            .checked_add(len)
            .ok_or(EvalError::OutOfBounds { addr })?;
        if addr == 0 || end as usize > self.bytes.len() {
            return Err(EvalError::OutOfBounds { addr });
        }
        Ok(addr as usize)
    }

    /// Read the `N` bytes at `addr`: [`Memory::read`] for a width known at
    /// compile time, under the same bounds rules. The simulated machine's
    /// loads go through here. It is `#[inline]` because that interpreter
    /// lives in another crate and the workspace builds without LTO, so a
    /// plain function would be an out-of-line call per simulated load that
    /// rebuilds the width from two enums.
    #[inline]
    pub fn load<const N: usize>(&self, addr: u64) -> Result<[u8; N], EvalError> {
        let a = self.check(addr, N as u64)?;
        let mut raw = [0u8; N];
        raw.copy_from_slice(&self.bytes[a..a + N]);
        Ok(raw)
    }

    /// Write `raw` at `addr`: the fixed-width counterpart of
    /// [`Memory::write`], see [`Memory::load`].
    #[inline]
    pub fn store<const N: usize>(&mut self, addr: u64, raw: [u8; N]) -> Result<(), EvalError> {
        let a = self.check(addr, N as u64)?;
        self.bytes[a..a + N].copy_from_slice(&raw);
        Ok(())
    }

    /// Read `size` bytes at `addr` (little-endian), extended per `sign`.
    pub fn read(&self, addr: u64, size: MemSize, sign: Signedness) -> Result<u64, EvalError> {
        let a = self.check(addr, size.bytes())?;
        let mut raw = [0u8; 8];
        raw[..size.bytes() as usize].copy_from_slice(&self.bytes[a..a + size.bytes() as usize]);
        let v = u64::from_le_bytes(raw);
        Ok(match (size, sign) {
            (MemSize::B8, _) => v,
            (_, Signedness::Unsigned) => v,
            (s, Signedness::Signed) => {
                let sh = 64 - u32::from(s.bits());
                (((v << sh) as i64) >> sh) as u64
            }
        })
    }

    /// Write the low `size` bytes of `val` at `addr` (little-endian).
    pub fn write(&mut self, addr: u64, size: MemSize, val: u64) -> Result<(), EvalError> {
        let a = self.check(addr, size.bytes())?;
        self.bytes[a..a + size.bytes() as usize]
            .copy_from_slice(&val.to_le_bytes()[..size.bytes() as usize]);
        Ok(())
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Direct mutable view of the backing bytes, for backends that
    /// execute against the memory image in place. Callers must apply
    /// the same bounds discipline as [`Memory::check`] (address 0 is
    /// reserved, accesses must not cross `capacity()`).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// The current bump-allocation frontier.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Move the bump-allocation frontier (used by loaders that place data
    /// at fixed addresses before the heap opens).
    pub fn set_brk(&mut self, brk: u64) {
        self.brk = brk;
    }

    /// Convenience: read a 64-bit word.
    pub fn read_u64(&self, addr: u64) -> Result<u64, EvalError> {
        self.load(addr).map(u64::from_le_bytes)
    }

    /// Convenience: write a 64-bit word.
    pub fn write_u64(&mut self, addr: u64, val: u64) -> Result<(), EvalError> {
        self.store(addr, val.to_le_bytes())
    }
}

/// Per-region dynamic state while interpreting specialized code.
#[derive(Debug, Default, Clone)]
struct RegionState {
    table: u64,
    loop_stack: Vec<(SlotPath, u64)>,
}

/// The interpreter.
pub struct Evaluator<'m> {
    module: &'m Module,
    /// The memory image (public so tests/harnesses can build data in it).
    pub mem: Memory,
    global_addrs: IndexVec<GlobalId, u64>,
    steps_left: u64,
    regions: HashMap<(FuncId, RegionId), RegionState>,
    active_region: Option<(FuncId, RegionId)>,
}

impl<'m> Evaluator<'m> {
    /// New evaluator over `module` with globals laid out in fresh memory.
    pub fn new(module: &'m Module) -> Self {
        Self::with_memory_size(module, 1 << 24)
    }

    /// New evaluator with a given memory capacity in bytes.
    pub fn with_memory_size(module: &'m Module, cap: usize) -> Self {
        let mut mem = Memory::with_capacity(cap);
        let mut global_addrs = IndexVec::new();
        for g in module.globals.iter() {
            let align = g.align.max(1);
            mem.brk = (mem.brk + align - 1) & !(align - 1);
            let addr = mem.alloc(g.size).expect("globals fit in memory");
            for (i, &byte) in g.init.iter().enumerate().take(g.size as usize) {
                mem.bytes[addr as usize + i] = byte;
            }
            global_addrs.push(addr);
        }
        Evaluator {
            module,
            mem,
            global_addrs,
            steps_left: 200_000_000,
            regions: HashMap::new(),
            active_region: None,
        }
    }

    /// Set the instruction step budget (defaults to 2·10⁸).
    pub fn set_step_limit(&mut self, steps: u64) {
        self.steps_left = steps;
    }

    /// Call function `fid` with raw-bit arguments.
    ///
    /// # Errors
    /// Returns an [`EvalError`] on traps, invalid memory accesses or when
    /// the step budget is exhausted.
    pub fn call(&mut self, fid: FuncId, args: &[u64]) -> Result<EvalOutcome, EvalError> {
        let f = &self.module.funcs[fid];
        let mut vals: HashMap<InstId, u64> = HashMap::new();
        let mut vars: HashMap<VarId, u64> = HashMap::new();
        // Frame variables get fresh storage per call.
        let mut frame_addrs: HashMap<VarId, u64> = HashMap::new();
        for (v, info) in f.vars.iter_enumerated() {
            if let Some(sz) = info.frame_size {
                frame_addrs.insert(v, self.mem.alloc(sz)?);
            }
        }

        let mut block = f.entry;
        let mut pred: Option<crate::ids::BlockId> = None;
        loop {
            // φs read their operands in parallel on entry.
            let mut phi_updates: Vec<(InstId, u64)> = Vec::new();
            for &i in &f.blocks[block].insts {
                if let InstKind::Phi(ins) = f.kind(i) {
                    let p = pred.expect("φ in entry block");
                    let &(_, src) = ins
                        .iter()
                        .find(|(pp, _)| *pp == p)
                        .unwrap_or_else(|| panic!("φ {i} missing operand for pred {p}"));
                    let v = *vals.get(&src).ok_or(EvalError::UndefinedValue(src))?;
                    phi_updates.push((i, v));
                }
            }
            for (i, v) in phi_updates {
                vals.insert(i, v);
            }

            for &i in &f.blocks[block].insts {
                if self.steps_left == 0 {
                    return Err(EvalError::StepLimit);
                }
                self.steps_left -= 1;
                if matches!(f.kind(i), InstKind::Phi(_)) {
                    continue;
                }
                if let Some(v) =
                    self.exec_inst(fid, f, i, args, &mut vals, &mut vars, &frame_addrs)?
                {
                    vals.insert(i, v);
                }
            }

            // Marker blocks manipulate the unrolled-loop record stack
            // *after* their instructions (φ-copies placed here by SSA
            // destruction must read the pre-advance record) and before the
            // terminator transfers control.
            if let Some(marker) = &f.blocks[block].marker {
                self.apply_marker(fid, f, marker.clone())?;
            }

            // Terminator.
            let term = f.blocks[block].term.clone();
            let next = match term {
                Terminator::Jump(b) => b,
                Terminator::Branch {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let c = *vals.get(&cond).ok_or(EvalError::UndefinedValue(cond))?;
                    if c != 0 {
                        then_b
                    } else {
                        else_b
                    }
                }
                Terminator::Switch {
                    val,
                    cases,
                    default,
                } => {
                    let v = *vals.get(&val).ok_or(EvalError::UndefinedValue(val))? as i64;
                    cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(default)
                }
                Terminator::Return(v) => {
                    let out = match v {
                        Some(id) => Some(*vals.get(&id).ok_or(EvalError::UndefinedValue(id))?),
                        None => None,
                    };
                    return Ok(EvalOutcome::Return(out));
                }
                Terminator::ConstBranch {
                    slot,
                    then_b,
                    else_b,
                } => {
                    let v = self.read_slot(fid, f, &slot)?;
                    if v != 0 {
                        then_b
                    } else {
                        else_b
                    }
                }
                Terminator::ConstSwitch {
                    slot,
                    cases,
                    default,
                } => {
                    let v = self.read_slot(fid, f, &slot)? as i64;
                    cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(default)
                }
                Terminator::EnterRegion { region, setup } => {
                    self.regions.insert((fid, region), RegionState::default());
                    self.active_region = Some((fid, region));
                    setup
                }
                Terminator::EndSetup {
                    region,
                    table,
                    template,
                } => {
                    let t = *vals.get(&table).ok_or(EvalError::UndefinedValue(table))?;
                    let st = self.regions.entry((fid, region)).or_default();
                    st.table = t;
                    st.loop_stack.clear();
                    self.active_region = Some((fid, region));
                    template
                }
                Terminator::Unreachable => return Err(EvalError::Unreachable),
            };
            pred = Some(block);
            block = next;
        }
    }

    fn current_region_mut(&mut self, _fid: FuncId) -> &mut RegionState {
        let key = self
            .active_region
            .expect("marker or slot outside any region");
        self.regions.get_mut(&key).expect("active region has state")
    }

    fn apply_marker(
        &mut self,
        fid: FuncId,
        _f: &Function,
        marker: TemplateMarker,
    ) -> Result<(), EvalError> {
        match marker {
            TemplateMarker::EnterLoop { root } => {
                let addr = self.resolve_slot_addr(fid, &root)?;
                let head = self.mem.read_u64(addr)?;
                self.current_region_mut(fid).loop_stack.push((root, head));
            }
            TemplateMarker::RestartLoop { next_slot } => {
                let cur = self
                    .current_region_mut(fid)
                    .loop_stack
                    .last()
                    .expect("restart outside loop")
                    .1;
                let next = self.mem.read_u64(cur + 8 * u64::from(next_slot))?;
                self.current_region_mut(fid)
                    .loop_stack
                    .last_mut()
                    .unwrap()
                    .1 = next;
            }
            TemplateMarker::ExitLoop => {
                self.current_region_mut(fid)
                    .loop_stack
                    .pop()
                    .expect("exit outside loop");
            }
        }
        Ok(())
    }

    /// Address of the table slot named by `path` given current loop state.
    fn resolve_slot_addr(&mut self, fid: FuncId, path: &SlotPath) -> Result<u64, EvalError> {
        let st = self.current_region_mut(fid);
        let Some(root) = path.parent() else {
            return Ok(st.table + 8 * u64::from(path.leaf()));
        };
        let cur = st
            .loop_stack
            .iter()
            .rev()
            .find(|(r, _)| *r == root)
            .unwrap_or_else(|| panic!("slot {path} referenced outside its loop"))
            .1;
        Ok(cur + 8 * u64::from(path.leaf()))
    }

    fn read_slot(&mut self, fid: FuncId, _f: &Function, path: &SlotPath) -> Result<u64, EvalError> {
        let addr = self.resolve_slot_addr(fid, path)?;
        self.mem.read_u64(addr)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_inst(
        &mut self,
        fid: FuncId,
        f: &Function,
        i: InstId,
        args: &[u64],
        vals: &mut HashMap<InstId, u64>,
        vars: &mut HashMap<VarId, u64>,
        frame_addrs: &HashMap<VarId, u64>,
    ) -> Result<Option<u64>, EvalError> {
        let get = |vals: &HashMap<InstId, u64>, v: InstId| -> Result<u64, EvalError> {
            vals.get(&v).copied().ok_or(EvalError::UndefinedValue(v))
        };
        let kind = f.kind(i).clone();
        Ok(match kind {
            InstKind::Const(c) => Some(c.to_bits()),
            InstKind::Copy(a) => Some(get(vals, a)?),
            InstKind::Un(op, a) => {
                let av = get(vals, a)?;
                let c = if matches!(op, UnOp::FNeg | UnOp::FloatToInt) {
                    Const::Float(f64::from_bits(av))
                } else {
                    Const::Int(av as i64)
                };
                Some(
                    op.eval(c)
                        .ok_or_else(|| EvalError::Trap(format!("unop {op}")))?
                        .to_bits(),
                )
            }
            InstKind::Bin(op, a, b) => {
                let (av, bv) = (get(vals, a)?, get(vals, b)?);
                let (ca, cb) = if op.is_float() {
                    (
                        Const::Float(f64::from_bits(av)),
                        Const::Float(f64::from_bits(bv)),
                    )
                } else {
                    (Const::Int(av as i64), Const::Int(bv as i64))
                };
                Some(
                    op.eval(ca, cb)
                        .ok_or_else(|| EvalError::Trap(format!("{op} traps")))?
                        .to_bits(),
                )
            }
            InstKind::Load {
                size, sign, addr, ..
            } => {
                let a = get(vals, addr)?;
                Some(self.mem.read(a, size, sign)?)
            }
            InstKind::Store {
                size, addr, val, ..
            } => {
                let a = get(vals, addr)?;
                let v = get(vals, val)?;
                self.mem.write(a, size, v)?;
                None
            }
            InstKind::Call {
                callee,
                args: cargs,
            } => {
                let mut argv = Vec::with_capacity(cargs.len());
                for &a in &cargs {
                    argv.push(get(vals, a)?);
                }
                // The callee may enter its own regions; restore ours after.
                let saved = self.active_region;
                let out = self.call(callee, &argv)?;
                self.active_region = saved;
                match out {
                    EvalOutcome::Return(v) => Some(v.unwrap_or(0)),
                }
            }
            InstKind::CallIntrinsic { which, args: cargs } => {
                let mut argv = Vec::with_capacity(cargs.len());
                for &a in &cargs {
                    argv.push(get(vals, a)?);
                }
                Some(match which {
                    Intrinsic::Alloc => self.mem.alloc(argv[0])?,
                    Intrinsic::Sqrt => f64::from_bits(argv[0]).sqrt().to_bits(),
                    Intrinsic::Max => (argv[0] as i64).max(argv[1] as i64) as u64,
                    Intrinsic::Min => (argv[0] as i64).min(argv[1] as i64) as u64,
                    Intrinsic::Abs => (argv[0] as i64).wrapping_abs() as u64,
                    // The IR interpreter always takes the specialized path.
                    Intrinsic::TierProbe => 1,
                })
            }
            InstKind::Phi(_) => unreachable!("φ handled at block entry"),
            InstKind::GetVar(v) => {
                if let Some(&addr) = frame_addrs.get(&v) {
                    Some(addr)
                } else {
                    Some(*vars.get(&v).ok_or(EvalError::UndefinedVar(v))?)
                }
            }
            InstKind::SetVar(v, val) => {
                let x = get(vals, val)?;
                vars.insert(v, x);
                None
            }
            InstKind::Param(n) => Some(args.get(n as usize).copied().unwrap_or(0)),
            InstKind::GlobalAddr(g) => Some(self.global_addrs[g]),
            InstKind::FrameAddr(v) => Some(*frame_addrs.get(&v).expect("frame var allocated")),
            InstKind::Hole { slot, .. } => Some(self.read_slot(fid, f, &slot)?),
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = get(vals, cond)?;
                Some(if c != 0 {
                    get(vals, if_true)?
                } else {
                    get(vals, if_false)?
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::VarInfo;
    use crate::inst::Ty;
    use crate::ops::BinOp;

    #[test]
    fn arith_and_return() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![Ty::Int, Ty::Int], Ty::Int);
        let e = f.entry;
        let a = f.append(e, InstKind::Param(0));
        let b = f.append(e, InstKind::Param(1));
        let s = f.bin(e, BinOp::Add, a, b);
        let t = f.bin(e, BinOp::Mul, s, s);
        f.blocks[e].term = Terminator::Return(Some(t));
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        assert_eq!(
            ev.call(fid, &[3, 4]).unwrap(),
            EvalOutcome::Return(Some(49))
        );
    }

    #[test]
    fn memory_roundtrip_and_alloc() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![], Ty::Int);
        let e = f.entry;
        let n = f.const_int(e, 16);
        let p = f.append(
            e,
            InstKind::CallIntrinsic {
                which: Intrinsic::Alloc,
                args: vec![n],
            },
        );
        let v = f.const_int(e, 0x1122334455667788);
        f.append(
            e,
            InstKind::Store {
                size: MemSize::B8,
                addr: p,
                val: v,
                float: false,
            },
        );
        let l = f.append(
            e,
            InstKind::Load {
                size: MemSize::B4,
                sign: Signedness::Unsigned,
                addr: p,
                dynamic: false,
                float: false,
            },
        );
        f.blocks[e].term = Terminator::Return(Some(l));
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        assert_eq!(
            ev.call(fid, &[]).unwrap(),
            EvalOutcome::Return(Some(0x55667788))
        );
    }

    #[test]
    fn signed_narrow_load() {
        let mut mem = Memory::with_capacity(4096);
        let a = mem.alloc(8).unwrap();
        mem.write(a, MemSize::B2, 0xFFFE).unwrap();
        assert_eq!(
            mem.read(a, MemSize::B2, Signedness::Signed).unwrap() as i64,
            -2
        );
        assert_eq!(
            mem.read(a, MemSize::B2, Signedness::Unsigned).unwrap(),
            0xFFFE
        );
    }

    #[test]
    fn fixed_width_accessors_agree_with_read_and_write() {
        let mut mem = Memory::with_capacity(4096);
        let a = mem.alloc(16).unwrap();
        mem.store(a, 0x1122_3344_5566_7788u64.to_le_bytes())
            .unwrap();
        assert_eq!(
            mem.read(a, MemSize::B4, Signedness::Unsigned).unwrap(),
            u64::from(u32::from_le_bytes(mem.load(a).unwrap()))
        );
        mem.write(a + 8, MemSize::B2, 0xBEEF).unwrap();
        assert_eq!(mem.load::<2>(a + 8).unwrap(), 0xBEEFu16.to_le_bytes());
        // Same faults at the same addresses: null, straddling the end,
        // and an address range that wraps.
        for addr in [0, 4093, 4096, u64::MAX - 1] {
            let want = mem.read(addr, MemSize::B4, Signedness::Unsigned).err();
            assert_eq!(want, Some(EvalError::OutOfBounds { addr }));
            assert_eq!(mem.load::<4>(addr).err(), want);
            assert_eq!(mem.store(addr, [0u8; 4]).err(), want);
        }
        assert!(mem.load::<4>(4092).is_ok());
    }

    #[test]
    fn null_deref_errors() {
        let mem = Memory::with_capacity(4096);
        assert!(matches!(
            mem.read(0, MemSize::B8, Signedness::Unsigned),
            Err(EvalError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let a = f.append(e, InstKind::Param(0));
        let z = f.const_int(e, 0);
        let d = f.bin(e, BinOp::DivS, a, z);
        f.blocks[e].term = Terminator::Return(Some(d));
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        assert!(matches!(ev.call(fid, &[1]), Err(EvalError::Trap(_))));
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![], Ty::None);
        let e = f.entry;
        let h = f.add_block();
        f.blocks[e].term = Terminator::Jump(h);
        // Loop must execute at least one instruction to consume steps.
        let _c = f.const_int(h, 1);
        f.blocks[h].term = Terminator::Jump(h);
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        ev.set_step_limit(1000);
        assert_eq!(ev.call(fid, &[]), Err(EvalError::StepLimit));
    }

    #[test]
    fn globals_are_initialized_and_addressable() {
        let mut m = Module::new();
        m.globals.push(crate::func::Global {
            name: "tbl".into(),
            size: 8,
            init: 0xDEADBEEFu32.to_le_bytes().to_vec(),
            align: 8,
        });
        let mut f = Function::new("f", vec![], Ty::Int);
        let e = f.entry;
        let g = f.append(e, InstKind::GlobalAddr(GlobalId(0)));
        let l = f.append(
            e,
            InstKind::Load {
                size: MemSize::B4,
                sign: Signedness::Unsigned,
                addr: g,
                dynamic: false,
                float: false,
            },
        );
        f.blocks[e].term = Terminator::Return(Some(l));
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        assert_eq!(
            ev.call(fid, &[]).unwrap(),
            EvalOutcome::Return(Some(0xDEADBEEF))
        );
    }

    #[test]
    fn recursive_call() {
        // fact(n) = n <= 1 ? 1 : n * fact(n-1)
        let mut m = Module::new();
        let mut f = Function::new("fact", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let rec = f.add_block();
        let base = f.add_block();
        let n = f.append(e, InstKind::Param(0));
        let one = f.const_int(e, 1);
        let c = f.bin(e, BinOp::CmpLeS, n, one);
        f.blocks[e].term = Terminator::Branch {
            cond: c,
            then_b: base,
            else_b: rec,
        };
        f.blocks[base].term = Terminator::Return(Some(one));
        let nm1 = f.bin(rec, BinOp::Sub, n, one);
        let call = f.append(
            rec,
            InstKind::Call {
                callee: FuncId(0),
                args: vec![nm1],
            },
        );
        let prod = f.bin(rec, BinOp::Mul, n, call);
        f.blocks[rec].term = Terminator::Return(Some(prod));
        let fid = m.funcs.push(f);
        m.retype_calls();
        let mut ev = Evaluator::new(&m);
        assert_eq!(ev.call(fid, &[6]).unwrap(), EvalOutcome::Return(Some(720)));
    }

    #[test]
    fn float_bits_roundtrip() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![], Ty::Float);
        let e = f.entry;
        let a = f.append(e, InstKind::Const(Const::Float(1.5)));
        let b = f.append(e, InstKind::Const(Const::Float(2.25)));
        let s = f.bin(e, BinOp::FMul, a, b);
        f.blocks[e].term = Terminator::Return(Some(s));
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        match ev.call(fid, &[]).unwrap() {
            EvalOutcome::Return(Some(bits)) => assert_eq!(f64::from_bits(bits), 3.375),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn frame_vars_have_stable_addresses_within_call() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![], Ty::Int);
        let arr = f.vars.push(VarInfo {
            name: "a".into(),
            ty: Ty::Int,
            frame_size: Some(32),
        });
        let e = f.entry;
        let a1 = f.append(e, InstKind::FrameAddr(arr));
        let v = f.const_int(e, 42);
        f.append(
            e,
            InstKind::Store {
                size: MemSize::B8,
                addr: a1,
                val: v,
                float: false,
            },
        );
        let a2 = f.append(e, InstKind::FrameAddr(arr));
        let l = f.append(
            e,
            InstKind::Load {
                size: MemSize::B8,
                sign: Signedness::Signed,
                addr: a2,
                dynamic: false,
                float: false,
            },
        );
        f.blocks[e].term = Terminator::Return(Some(l));
        let fid = m.funcs.push(f);
        let mut ev = Evaluator::new(&m);
        assert_eq!(ev.call(fid, &[]).unwrap(), EvalOutcome::Return(Some(42)));
    }

    // ---- heap-backed vs mapped memory --------------------------------

    use crate::prng::SplitMix64;
    use crate::zeroed::{ZeroedBytes, MAP_THRESHOLD};

    /// Capacities on both sides of a page and of the mapping threshold.
    const CAPS: [usize; 7] = [
        4095,
        4096,
        MAP_THRESHOLD - 1,
        MAP_THRESHOLD,
        MAP_THRESHOLD + 1,
        MAP_THRESHOLD + 3 * 4096 + 17,
        16 << 20,
    ];

    /// The same capacity on each backing, whatever `with_capacity` would
    /// have picked. `None` only where the target has no mapping path.
    fn heap_and_mapped(cap: usize) -> Option<(Memory, Memory)> {
        let over = |bytes| Memory {
            bytes,
            brk: MEM_BASE,
        };
        let mapped = ZeroedBytes::mapped(cap);
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert!(mapped.is_some(), "kernel refused a {cap}-byte mapping");
        }
        Some((over(ZeroedBytes::heap(cap)), over(mapped?)))
    }

    const SIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];

    #[test]
    fn heap_and_mapped_memories_agree_on_random_operations() {
        for (i, &cap) in CAPS.iter().enumerate() {
            let Some((mut heap, mut mapped)) = heap_and_mapped(cap) else {
                return;
            };
            assert_eq!(heap.capacity(), cap);
            assert_eq!(mapped.capacity(), cap);
            assert_eq!(mapped.bytes_mut().len(), cap);
            let mut rng = SplitMix64::new(0x5EED_0000 + i as u64);
            let cap = cap as u64;
            for _ in 0..4000 {
                let size = SIZES[rng.below(4) as usize];
                // Mostly in range, with the boundaries over-sampled.
                let addr = match rng.below(8) {
                    0 => rng.below(16),
                    1 => cap - rng.below(16),
                    2 => cap + rng.below(16),
                    3 => u64::MAX - rng.below(16),
                    _ => rng.below(cap),
                };
                match rng.below(5) {
                    0 => {
                        let n = match rng.below(4) {
                            0 => u64::MAX - rng.below(1 << 12),
                            1 => cap,
                            _ => rng.below(cap / 64),
                        };
                        assert_eq!(heap.alloc(n), mapped.alloc(n));
                        assert_eq!(heap.brk(), mapped.brk());
                    }
                    1 | 2 => {
                        let val = rng.next_u64();
                        assert_eq!(heap.write(addr, size, val), mapped.write(addr, size, val));
                    }
                    _ => {
                        let sign = if rng.chance(1, 2) {
                            Signedness::Signed
                        } else {
                            Signedness::Unsigned
                        };
                        assert_eq!(heap.read(addr, size, sign), mapped.read(addr, size, sign));
                    }
                }
            }
            assert!(heap.bytes[..] == mapped.bytes[..], "images differ at {cap}");
        }
    }

    #[test]
    fn heap_and_mapped_memories_agree_on_bounds_errors() {
        for &cap in &CAPS {
            let Some((heap, mapped)) = heap_and_mapped(cap) else {
                return;
            };
            let cap = cap as u64;
            for mut mem in [heap, mapped] {
                let oob = |addr| Some(EvalError::OutOfBounds { addr });
                assert_eq!(mem.read(0, MemSize::B1, Signedness::Unsigned).err(), oob(0));
                assert_eq!(mem.write(0, MemSize::B8, 1).err(), oob(0));
                assert_eq!(mem.write(cap - 1, MemSize::B1, 0xAB), Ok(()));
                assert_eq!(
                    mem.read(cap - 1, MemSize::B1, Signedness::Unsigned),
                    Ok(0xAB)
                );
                assert_eq!(mem.write_u64(cap - 8, 7), Ok(()));
                assert_eq!(mem.read_u64(cap - 7).err(), oob(cap - 7));
                assert_eq!(
                    mem.read(cap, MemSize::B1, Signedness::Unsigned).err(),
                    oob(cap)
                );
                assert_eq!(mem.write(cap - 1, MemSize::B2, 0).err(), oob(cap - 1));
                assert_eq!(mem.read_u64(u64::MAX).err(), oob(u64::MAX));
                assert_eq!(mem.write_u64(u64::MAX - 7, 0).err(), oob(u64::MAX - 7));
                let brk = (mem.brk() + 7) & !7;
                assert_eq!(mem.alloc(u64::MAX).err(), oob(brk));
                assert_eq!(mem.alloc(cap).err(), oob(brk));
            }
        }
    }

    #[test]
    fn clone_equals_source_after_scattered_writes() {
        for (i, &cap) in CAPS.iter().enumerate() {
            // `with_capacity` picks the backing; the clone picks again.
            let mut mem = Memory::with_capacity(cap);
            let mut rng = SplitMix64::new(0xC10E + i as u64);
            mem.alloc(rng.below(cap as u64 / 2)).unwrap();
            for _ in 0..64 {
                let addr = rng.range_u64(1, cap as u64 - 8);
                mem.write_u64(addr, rng.next_u64() | 1).unwrap();
            }
            // The last (possibly partial) page and the very first byte.
            mem.write(cap as u64 - 1, MemSize::B1, 0x5A).unwrap();
            mem.bytes_mut()[0] = 0xA5;
            let mut fork = mem.clone();
            assert_eq!(fork.capacity(), cap);
            assert_eq!(fork.brk(), mem.brk());
            assert!(fork.bytes[..] == mem.bytes[..], "clone differs at {cap}");
            // The fork owns its bytes.
            fork.write(cap as u64 - 1, MemSize::B1, 0).unwrap();
            assert_eq!(
                mem.read(cap as u64 - 1, MemSize::B1, Signedness::Unsigned),
                Ok(0x5A)
            );
        }
    }

    #[test]
    fn debug_shows_capacity_and_brk_not_bytes() {
        let s = format!("{:?}", Memory::with_capacity(1 << 20));
        assert_eq!(s, "Memory { capacity: 1048576, brk: 1024 }");
    }
}
