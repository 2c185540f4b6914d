//! Liveness analysis and linear-scan register allocation.
//!
//! Works on post-SSA-destruction IR: the allocatable entities are SSA
//! values ([`InstId`]) and the φ-variables SSA destruction introduced
//! ([`VarId`]). Intervals are Poletto-style: `[first definition, last
//! point live]` over a fixed linear block order, widened by per-block
//! liveness so loops are covered.
//!
//! Intervals live across a call may only receive callee-saved registers
//! (the prologue saves them); others prefer caller-saved. Exhaustion spills
//! to frame slots; reloads use the two reserved codegen scratch registers.

use dyncomp_ir::ids::set_bits;
use dyncomp_ir::{BlockId, Function, InstId, InstKind, Ty, VarId};
use dyncomp_machine::isa::Reg;

/// An allocatable entity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Entity {
    /// An SSA value (instruction result).
    Val(InstId),
    /// A φ-variable from SSA destruction.
    Var(VarId),
}

/// Where an entity lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loc {
    /// An integer register.
    Reg(Reg),
    /// A float register.
    FReg(Reg),
    /// A frame slot at `sp + offset`.
    Frame(i32),
}

/// Integer caller-saved allocatable registers.
pub const INT_CALLER: &[Reg] = &[1, 2, 3, 4, 5, 6, 7, 8];
/// Integer callee-saved allocatable registers.
pub const INT_CALLEE: &[Reg] = &[9, 10, 11, 12, 13, 14, 15];
/// Float caller-saved allocatable registers.
pub const FLT_CALLER: &[Reg] = &[1, 2, 3, 4, 5, 6, 7, 8, 22, 23, 24, 25];
/// Float callee-saved allocatable registers.
pub const FLT_CALLEE: &[Reg] = &[9, 10, 11, 12, 13, 14, 15];
/// Integer scratch registers reserved for the code generator (reloads and
/// address arithmetic). Three are needed so three-operand sequences
/// (selects, min/max) can stage every spilled operand without aliasing.
/// `r25` belongs to the stitcher and is never touched.
pub const INT_SCRATCH: [Reg; 3] = [22, 23, 24];
/// Float scratch registers.
pub const FLT_SCRATCH: [Reg; 2] = [29, 30];

/// The allocation result.
#[derive(Debug)]
pub struct Allocation {
    /// Location by dense entity index (see [`Entities`]); `None` for an
    /// entity that appears nowhere in the ordered blocks.
    loc: Vec<Option<Loc>>,
    entities: Entities,
    /// Callee-saved integer registers used (prologue must save).
    pub used_int_callee: Vec<Reg>,
    /// Callee-saved float registers used.
    pub used_flt_callee: Vec<Reg>,
    /// Bytes of spill area needed.
    pub spill_bytes: u32,
}

impl Allocation {
    /// Where `e` lives; `None` when it appears in none of the ordered
    /// blocks (a dead value).
    pub fn loc(&self, e: Entity) -> Option<Loc> {
        self.loc[self.entities.index(e)]
    }
}

/// Dense numbering of a function's entities: its values, then its
/// φ-variables. The numbering preserves [`Entity`]'s order.
#[derive(Clone, Copy, Debug)]
struct Entities {
    insts: usize,
    vars: usize,
}

impl Entities {
    fn of(f: &Function) -> Self {
        Entities {
            insts: f.insts.len(),
            vars: f.vars.len(),
        }
    }

    fn len(self) -> usize {
        self.insts + self.vars
    }

    fn index(self, e: Entity) -> usize {
        match e {
            Entity::Val(v) => v.index(),
            Entity::Var(v) => self.insts + v.index(),
        }
    }

    fn entity(self, ix: usize) -> Entity {
        if ix < self.insts {
            Entity::Val(InstId::from_index(ix))
        } else {
            Entity::Var(VarId::from_index(ix - self.insts))
        }
    }
}

/// One bit set of entities per block of the allocation order.
#[derive(Default)]
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// Make every row empty, `rows` rows wide enough for `entities`.
    fn reset(&mut self, rows: usize, entities: usize) {
        self.words = entities.div_ceil(64);
        self.bits.clear();
        self.bits.resize(rows * self.words, 0);
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    fn insert(&mut self, r: usize, ix: usize) {
        self.bits[r * self.words + ix / 64] |= 1 << (ix % 64);
    }

    fn contains(&self, r: usize, ix: usize) -> bool {
        self.bits[r * self.words + ix / 64] & (1 << (ix % 64)) != 0
    }

    /// The members of row `r`, ascending.
    fn members(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.row(r))
    }
}

struct Interval {
    ent: Entity,
    start: u32,
    end: u32,
    ty: Ty,
    crosses_call: bool,
}

/// An interval holding a register during the scan.
struct Active {
    end: u32,
    reg: Reg,
    float: bool,
    callee: bool,
}

/// The allocator's working tables, reused across the functions of one
/// `compile_module` call. Every table is reset before use.
#[derive(Default)]
pub struct Scratch {
    /// Row of each block in the allocation order; `u32::MAX` off it.
    row_of: Vec<u32>,
    block_start: Vec<u32>,
    block_end: Vec<u32>,
    inst_pos: Vec<u32>,
    call_positions: Vec<u32>,
    block_use: BitRows,
    block_def: BitRows,
    live_in: BitRows,
    live_out: BitRows,
    out: Vec<u64>,
    /// `(start, end)` per entity; `start == u32::MAX` while untouched.
    ivals: Vec<(u32, u32)>,
    intervals: Vec<Interval>,
    active: Vec<Active>,
    /// Free registers: integer caller-, integer callee-, float caller-,
    /// float callee-saved.
    free: [Vec<Reg>; 4],
}

/// The entities instruction `i` reads, and the one it writes.
fn uses_defs(f: &Function, i: InstId) -> (impl Iterator<Item = Entity> + '_, Option<Entity>) {
    let k = f.kind(i);
    let mut def = k.has_result().then_some(Entity::Val(i));
    let mut var_use = None;
    match k {
        InstKind::GetVar(v) if f.vars[*v].frame_size.is_none() => {
            var_use = Some(Entity::Var(*v));
        }
        InstKind::SetVar(v, _) if f.vars[*v].frame_size.is_none() => {
            def = Some(Entity::Var(*v));
        }
        _ => {}
    }
    (k.operands().map(Entity::Val).chain(var_use), def)
}

/// Compute per-block live-in/out over the given block order, then assign
/// locations with linear scan.
pub fn allocate(f: &Function, order: &[BlockId]) -> Allocation {
    allocate_in(f, order, &mut Scratch::default())
}

/// [`allocate`], working in `scratch`'s tables.
pub fn allocate_in(f: &Function, order: &[BlockId], scratch: &mut Scratch) -> Allocation {
    let entities = Entities::of(f);
    let n = entities.len();
    let Scratch {
        row_of,
        block_start,
        block_end,
        inst_pos,
        call_positions,
        block_use,
        block_def,
        live_in,
        live_out,
        out,
        ivals,
        intervals,
        active,
        free,
    } = scratch;

    // ---- instruction numbering ----
    row_of.clear();
    row_of.resize(f.blocks.len(), u32::MAX);
    block_start.clear();
    block_end.clear();
    inst_pos.clear();
    inst_pos.resize(f.insts.len(), 0);
    call_positions.clear();
    let mut pos: u32 = 0;
    for (r, &b) in order.iter().enumerate() {
        row_of[b.index()] = r as u32;
        block_start.push(pos);
        for &i in &f.blocks[b].insts {
            inst_pos[i.index()] = pos;
            if matches!(f.kind(i), InstKind::Call { .. }) {
                call_positions.push(pos);
            }
            pos += 1;
        }
        pos += 1; // terminator slot
        block_end.push(pos);
        pos += 1; // inter-block gap
    }

    // ---- per-block use/def sets ----
    block_use.reset(order.len(), n);
    block_def.reset(order.len(), n);
    for (r, &b) in order.iter().enumerate() {
        for &i in &f.blocks[b].insts {
            let (uses, def) = uses_defs(f, i);
            for e in uses {
                let ix = entities.index(e);
                if !block_def.contains(r, ix) {
                    block_use.insert(r, ix);
                }
            }
            if let Some(d) = def {
                block_def.insert(r, entities.index(d));
            }
        }
        for v in f.blocks[b].term.operands() {
            let ix = entities.index(Entity::Val(v));
            if !block_def.contains(r, ix) {
                block_use.insert(r, ix);
            }
        }
    }

    // ---- backward liveness fixpoint ----
    live_in.reset(order.len(), n);
    live_out.reset(order.len(), n);
    let words = live_in.words;
    out.clear();
    out.resize(words, 0);
    loop {
        let mut changed = false;
        for (r, &b) in order.iter().enumerate().rev() {
            out.fill(0);
            for s in f.blocks[b].term.successors() {
                let sr = row_of[s.index()];
                if sr != u32::MAX {
                    for (o, &w) in out.iter_mut().zip(live_in.row(sr as usize)) {
                        *o |= w;
                    }
                }
            }
            let at = r * words;
            for (w, &o) in out.iter().enumerate() {
                let inn = block_use.bits[at + w] | (o & !block_def.bits[at + w]);
                changed |= live_in.bits[at + w] != inn || live_out.bits[at + w] != o;
                live_in.bits[at + w] = inn;
                live_out.bits[at + w] = o;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- intervals ----
    let ty_of = |e: Entity| -> Ty {
        match e {
            Entity::Val(v) => f.ty(v),
            Entity::Var(v) => f.vars[v].ty,
        }
    };
    ivals.clear();
    ivals.resize(n, (u32::MAX, 0));
    let mut touch = |e: Entity, p: u32| {
        let iv = &mut ivals[entities.index(e)];
        iv.0 = iv.0.min(p);
        iv.1 = iv.1.max(p);
    };
    for (r, &b) in order.iter().enumerate() {
        for &i in &f.blocks[b].insts {
            let p = inst_pos[i.index()];
            let (uses, def) = uses_defs(f, i);
            for e in uses {
                touch(e, p);
            }
            if let Some(d) = def {
                touch(d, p);
            }
        }
        let tp = block_end[r] - 1;
        for v in f.blocks[b].term.operands() {
            touch(Entity::Val(v), tp);
        }
        // Widen by block liveness.
        for ix in live_in.members(r) {
            touch(entities.entity(ix), block_start[r]);
        }
        for ix in live_out.members(r) {
            touch(entities.entity(ix), block_end[r]);
        }
    }

    intervals.clear();
    intervals.extend(
        ivals
            .iter()
            .enumerate()
            .filter(|(_, &(start, _))| start != u32::MAX)
            .map(|(ix, &(start, end))| {
                let ent = entities.entity(ix);
                // The first call after `start`, if any, must come before
                // `end`.
                let next_call = call_positions.partition_point(|&c| c <= start);
                Interval {
                    ent,
                    start,
                    end,
                    ty: ty_of(ent),
                    crosses_call: call_positions.get(next_call).is_some_and(|&c| c < end),
                }
            }),
    );
    // The scan order, and hence register assignment, is `(start, end,
    // entity)`.
    intervals.sort_unstable_by_key(|iv| (iv.start, iv.end, iv.ent));

    // ---- linear scan ----
    active.clear();
    let [free_int_caller, free_int_callee, free_flt_caller, free_flt_callee] = free;
    for (pool, regs) in [
        (&mut *free_int_caller, INT_CALLER),
        (&mut *free_int_callee, INT_CALLEE),
        (&mut *free_flt_caller, FLT_CALLER),
        (&mut *free_flt_callee, FLT_CALLEE),
    ] {
        pool.clear();
        pool.extend_from_slice(regs);
    }
    let mut used_int_callee: Vec<Reg> = Vec::new();
    let mut used_flt_callee: Vec<Reg> = Vec::new();
    let mut loc: Vec<Option<Loc>> = vec![None; n];
    let mut spill_off: i32 = 0;

    for iv in intervals.iter() {
        // Expire.
        active.retain(|a| {
            if a.end < iv.start {
                let pool = match (a.float, a.callee) {
                    (false, false) => &mut *free_int_caller,
                    (false, true) => &mut *free_int_callee,
                    (true, false) => &mut *free_flt_caller,
                    (true, true) => &mut *free_flt_callee,
                };
                pool.push(a.reg);
                false
            } else {
                true
            }
        });
        if iv.ty == Ty::None {
            continue;
        }
        let float = iv.ty == Ty::Float;
        let (first, second) = if iv.crosses_call {
            // Must be callee-saved (or spilled).
            if float {
                (&mut *free_flt_callee, None)
            } else {
                (&mut *free_int_callee, None)
            }
        } else if float {
            (&mut *free_flt_caller, Some(&mut *free_flt_callee))
        } else {
            (&mut *free_int_caller, Some(&mut *free_int_callee))
        };
        let mut choice: Option<(Reg, bool)> = None;
        if let Some(r) = first.pop() {
            choice = Some((r, iv.crosses_call));
        } else if let Some(second) = second {
            if let Some(r) = second.pop() {
                choice = Some((r, true));
            }
        }
        match choice {
            Some((r, callee)) => {
                if callee {
                    let used = if float {
                        &mut used_flt_callee
                    } else {
                        &mut used_int_callee
                    };
                    if !used.contains(&r) {
                        used.push(r);
                    }
                }
                active.push(Active {
                    end: iv.end,
                    reg: r,
                    float,
                    callee,
                });
                loc[entities.index(iv.ent)] = Some(if float { Loc::FReg(r) } else { Loc::Reg(r) });
            }
            None => {
                loc[entities.index(iv.ent)] = Some(Loc::Frame(spill_off));
                spill_off += 8;
            }
        }
    }

    used_int_callee.sort_unstable();
    used_flt_callee.sort_unstable();
    Allocation {
        loc,
        entities,
        used_int_callee,
        used_flt_callee,
        spill_bytes: spill_off as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncomp_ir::{BinOp, Function, Terminator};

    #[test]
    fn simple_allocation_uses_registers() {
        let mut f = Function::new("t", vec![Ty::Int, Ty::Int], Ty::Int);
        let e = f.entry;
        let a = f.append(e, InstKind::Param(0));
        let b = f.append(e, InstKind::Param(1));
        let s = f.bin(e, BinOp::Add, a, b);
        f.blocks[e].term = Terminator::Return(Some(s));
        let alloc = allocate(&f, &[e]);
        for ent in [Entity::Val(a), Entity::Val(b), Entity::Val(s)] {
            assert!(matches!(alloc.loc(ent).unwrap(), Loc::Reg(_)), "{ent:?}");
        }
        assert_eq!(alloc.spill_bytes, 0);
        assert!(alloc.used_int_callee.is_empty());
    }

    #[test]
    fn call_crossing_values_get_callee_saved() {
        let mut f = Function::new("t", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let a = f.append(e, InstKind::Param(0));
        let c = f.append(
            e,
            InstKind::Call {
                callee: dyncomp_ir::FuncId(0),
                args: vec![],
            },
        );
        let s = f.bin(e, BinOp::Add, a, c);
        f.blocks[e].term = Terminator::Return(Some(s));
        let alloc = allocate(&f, &[e]);
        match alloc.loc(Entity::Val(a)).unwrap() {
            Loc::Reg(r) => assert!(INT_CALLEE.contains(&r), "r{r} should be callee-saved"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!alloc.used_int_callee.is_empty());
    }

    #[test]
    fn loop_liveness_extends_interval() {
        // v defined before loop, used in loop body: must stay live through
        // the whole loop (live-out of latch).
        let mut f = Function::new("t", vec![Ty::Int], Ty::Int);
        let e = f.entry;
        let h = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let v = f.append(e, InstKind::Param(0));
        f.blocks[e].term = Terminator::Jump(h);
        let c = f.const_int(h, 1);
        f.blocks[h].term = Terminator::Branch {
            cond: c,
            then_b: body,
            else_b: exit,
        };
        let u = f.bin(body, BinOp::Add, v, v);
        f.blocks[body].term = Terminator::Jump(h);
        f.blocks[exit].term = Terminator::Return(Some(u));
        let alloc = allocate(&f, &[e, h, body, exit]);
        // u is live-out of body across the back edge (used at exit).
        assert!(alloc.loc(Entity::Val(u)).is_some());
        assert!(alloc.loc(Entity::Val(v)).is_some());
    }

    #[test]
    fn spills_when_pressure_exceeds_registers() {
        // Define 40 simultaneously live values.
        let mut f = Function::new("t", vec![], Ty::Int);
        let e = f.entry;
        let mut vals = Vec::new();
        for i in 0..40 {
            vals.push(f.const_int(e, i));
        }
        // Sum them all so all stay live until the end.
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = f.bin(e, BinOp::Add, acc, v);
        }
        // Uses are interleaved at the end... force overlap by using first
        // constants late: re-add the early ones.
        for &v in vals.iter().take(30) {
            acc = f.bin(e, BinOp::Add, acc, v);
        }
        f.blocks[e].term = Terminator::Return(Some(acc));
        let alloc = allocate(&f, &[e]);
        let spilled = f
            .insts
            .ids()
            .filter(|&v| matches!(alloc.loc(Entity::Val(v)), Some(Loc::Frame(_))))
            .count();
        assert!(spilled > 0, "40 overlapping values exceed 16 registers");
        assert!(alloc.spill_bytes >= 8 * spilled as u32);
    }

    #[test]
    fn float_and_int_pools_are_separate() {
        let mut f = Function::new("t", vec![Ty::Float, Ty::Int], Ty::Float);
        let e = f.entry;
        let a = f.append(e, InstKind::Param(0));
        let b = f.append(e, InstKind::Param(1));
        let bf = f.append(e, InstKind::Un(dyncomp_ir::UnOp::IntToFloat, b));
        let s = f.bin(e, BinOp::FAdd, a, bf);
        f.blocks[e].term = Terminator::Return(Some(s));
        let alloc = allocate(&f, &[e]);
        assert!(matches!(alloc.loc(Entity::Val(a)).unwrap(), Loc::FReg(_)));
        assert!(matches!(alloc.loc(Entity::Val(b)).unwrap(), Loc::Reg(_)));
        assert!(matches!(alloc.loc(Entity::Val(s)).unwrap(), Loc::FReg(_)));
    }
}
