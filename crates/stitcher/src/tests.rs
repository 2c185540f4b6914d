//! Stitcher unit tests on hand-built templates (end-to-end pipeline tests
//! live in the `dyncomp` core crate).

use crate::{stitch, StitchError, StitchOptions, MAX_BLOCKS};
use dyncomp_ir::eval::Memory;
use dyncomp_ir::SlotPath;
use dyncomp_machine::isa::{branch_word, decode, encode, limits, Inst, Op, Operand, Reg, ZERO};
use dyncomp_machine::template::{
    Hole, HoleField, LoopMarker, RegionCode, Template, TmplBlock, TmplExit,
};
use dyncomp_machine::vm::{Stop, Vm};

fn word(i: Inst) -> u32 {
    encode(&i).unwrap().0
}

fn block(start: u32, end: u32, exit: TmplExit) -> TmplBlock {
    TmplBlock {
        start,
        end,
        holes: vec![],
        branches: vec![],
        marker: None,
        exit,
    }
}

fn region(template: Template, static_len: u32) -> RegionCode {
    RegionCode {
        region_index: 0,
        enter_pc: 0,
        setup_pc: 0,
        fallback_pc: None,
        template,
        exit_pcs: vec![],
        key_locs: vec![],
        table_static_len: static_len,
    }
}

/// Build a table in memory with the given static slot values.
fn make_table(mem: &mut Memory, slots: &[u64]) -> u64 {
    let t = mem.alloc(8 * slots.len() as u64).unwrap();
    for (i, &v) in slots.iter().enumerate() {
        mem.write_u64(t + 8 * i as u64, v).unwrap();
    }
    t
}

/// Run stitched code in a VM: set up args, jump in, expect Halted; the
/// code must end with a return through `ra`.
fn run_stitched(code: &[u32], mem: Memory, args: &[u64]) -> (u64, Vm) {
    let mut vm = Vm::new(1 << 20);
    vm.mem = mem;
    let entry = vm.append_code(code);
    vm.setup_call(entry, args).unwrap();
    match vm.run() {
        Ok(Stop::Halted) => (vm.reg(0), vm),
        other => panic!("unexpected stop: {other:?}"),
    }
}

/// Template: r0 = r16 + <hole t[0]>; ret.
fn add_hole_template() -> Template {
    let code = vec![
        word(Inst::op3(Op::Addq, 16, Operand::Lit(0), 0)),
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    Template {
        code,
        blocks: vec![TmplBlock {
            start: 0,
            end: 2,
            holes: vec![Hole {
                at: 0,
                field: HoleField::Lit,
                slot: SlotPath::stat(0),
            }],
            branches: vec![],
            marker: None,
            exit: TmplExit::Return,
        }],
        entry: 0,
    }
}

#[test]
fn small_constant_patched_inline() {
    let mut mem = Memory::with_capacity(1 << 20);
    let t = make_table(&mut mem, &[42]);
    let rc = region(add_hole_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert_eq!(out.stats.holes_inline, 1);
    assert_eq!(out.stats.holes_big, 0);
    let (r, _) = run_stitched(&out.code, mem, &[100]);
    assert_eq!(r, 142);
}

#[test]
fn large_constant_goes_through_scratch() {
    let mut mem = Memory::with_capacity(1 << 20);
    let t = make_table(&mut mem, &[1_000_000]);
    let rc = region(add_hole_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert_eq!(out.stats.holes_big, 1);
    let (r, _) = run_stitched(&out.code, mem, &[7]);
    assert_eq!(r, 1_000_007);
}

#[test]
fn huge_constant_uses_linearized_table() {
    let mut mem = Memory::with_capacity(1 << 20);
    let big = 0x1234_5678_9ABC_DEF0u64;
    let t = make_table(&mut mem, &[big]);
    let rc = region(add_hole_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert_ne!(out.lin_table_addr, 0, "linearized table allocated");
    let (r, _) = run_stitched(&out.code, mem, &[1]);
    assert_eq!(r, big.wrapping_add(1));
}

#[test]
fn huge_constant_without_linearized_table_is_constructed() {
    let mut mem = Memory::with_capacity(1 << 20);
    let big = 0x1234_5678_9ABC_DEF0u64;
    let t = make_table(&mut mem, &[big]);
    let rc = region(add_hole_template(), 1);
    let opts = StitchOptions {
        linearized_table: false,
        ..Default::default()
    };
    let out = stitch(&rc, t, &mut mem, 0, &opts).unwrap();
    assert_eq!(out.lin_table_addr, 0, "no table in ablation mode");
    let (r, _) = run_stitched(&out.code, mem, &[1]);
    assert_eq!(r, big.wrapping_add(1));
}

/// Template with a constant branch: r0 = 1 on the then-side, 2 on else.
fn const_branch_template() -> Template {
    let code = vec![
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 0)),
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(2), 0)),
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    Template {
        code,
        blocks: vec![
            block(
                0,
                0,
                TmplExit::ConstBranch {
                    slot: SlotPath::stat(0),
                    then_l: 1,
                    else_l: 2,
                },
            ),
            block(0, 2, TmplExit::Return),
            block(2, 4, TmplExit::Return),
        ],
        entry: 0,
    }
}

#[test]
fn constant_branch_stitches_exactly_one_side() {
    for (pred, want) in [(1u64, 1u64), (0, 2)] {
        let mut mem = Memory::with_capacity(1 << 20);
        let t = make_table(&mut mem, &[pred]);
        let rc = region(const_branch_template(), 1);
        let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
        assert_eq!(out.stats.const_branches_resolved, 1);
        // Prologue (2 words) + exactly one side (2 words).
        assert_eq!(out.code.len(), 4, "dead side not stitched");
        let (r, _) = run_stitched(&out.code, mem, &[]);
        assert_eq!(r, want);
    }
}

/// Unrolled loop: per-iteration records each hold [predicate, value, next].
/// Body: r0 += <hole rec[1]>.
fn unrolled_template() -> Template {
    let code = vec![
        // entry block: r0 = 0
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(0), 0)),
        // body: r0 = r0 + hole(rec slot 1)
        word(Inst::op3(Op::Addq, 0, Operand::Lit(0), 0)),
        // exit: ret
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    Template {
        code,
        blocks: vec![
            // 0: entry code then EnterLoop marker, to header.
            TmplBlock {
                start: 0,
                end: 1,
                holes: vec![],
                branches: vec![],
                marker: Some(LoopMarker::Enter {
                    root: SlotPath::stat(0),
                }),
                exit: TmplExit::Jump(1),
            },
            // 1: header: constant branch on rec[0].
            block(
                1,
                1,
                TmplExit::ConstBranch {
                    slot: SlotPath::stat(0).child(0),
                    then_l: 2,
                    else_l: 4,
                },
            ),
            // 2: body with per-iteration hole.
            TmplBlock {
                start: 1,
                end: 2,
                holes: vec![Hole {
                    at: 1,
                    field: HoleField::Lit,
                    slot: SlotPath::stat(0).child(1),
                }],
                branches: vec![],
                marker: None,
                exit: TmplExit::Jump(3),
            },
            // 3: restart marker back to header.
            TmplBlock {
                start: 2,
                end: 2,
                holes: vec![],
                branches: vec![],
                marker: Some(LoopMarker::Restart { next_slot: 2 }),
                exit: TmplExit::Jump(1),
            },
            // 4: exit marker then return.
            TmplBlock {
                start: 2,
                end: 3,
                holes: vec![],
                branches: vec![],
                marker: Some(LoopMarker::Exit),
                exit: TmplExit::Return,
            },
        ],
        entry: 0,
    }
}

/// Build the record chain for values; the last record has predicate 0.
fn build_chain(mem: &mut Memory, values: &[u64]) -> u64 {
    let table = mem.alloc(8).unwrap();
    let mut link = table; // static slot 0 is the chain root
    for &v in values {
        let rec = mem.alloc(24).unwrap();
        mem.write_u64(link, rec).unwrap();
        mem.write_u64(rec, 1).unwrap();
        mem.write_u64(rec + 8, v).unwrap();
        link = rec + 16;
    }
    let last = mem.alloc(24).unwrap();
    mem.write_u64(link, last).unwrap();
    mem.write_u64(last, 0).unwrap();
    table
}

#[test]
fn loop_unrolls_once_per_record() {
    let mut mem = Memory::with_capacity(1 << 20);
    let t = build_chain(&mut mem, &[5, 7, 11]);
    let rc = region(unrolled_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert_eq!(out.stats.loop_iterations, 3);
    assert_eq!(out.stats.const_branches_resolved, 4, "3 continues + 1 exit");
    assert_eq!(out.stats.holes_inline, 3, "one body hole per iteration");
    let (r, _) = run_stitched(&out.code, mem, &[]);
    assert_eq!(r, 23);
}

#[test]
fn zero_iteration_loop() {
    let mut mem = Memory::with_capacity(1 << 20);
    let t = build_chain(&mut mem, &[]);
    let rc = region(unrolled_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert_eq!(out.stats.loop_iterations, 0);
    let (r, _) = run_stitched(&out.code, mem, &[]);
    assert_eq!(r, 0);
}

#[test]
fn strength_reduction_multiply_by_power_of_two() {
    // Template: r0 = r16 * hole; ret.
    let code = vec![
        word(Inst::op3(Op::Mulq, 16, Operand::Lit(0), 0)),
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    let tmpl = Template {
        code,
        blocks: vec![TmplBlock {
            start: 0,
            end: 2,
            holes: vec![Hole {
                at: 0,
                field: HoleField::Lit,
                slot: SlotPath::stat(0),
            }],
            branches: vec![],
            marker: None,
            exit: TmplExit::Return,
        }],
        entry: 0,
    };
    for (mult, expect_sr) in [
        (8u64, true),
        (6, true),
        (1, true),
        (0, true),
        (255, true),
        (86, false),
        (1 << 63, true),
        (u64::MAX, false), // -1: the stitched code computes -x
    ] {
        let mut mem = Memory::with_capacity(1 << 20);
        let t = make_table(&mut mem, &[mult]);
        let rc = region(tmpl.clone(), 1);
        let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
        assert_eq!(
            out.stats.strength_reductions > 0,
            expect_sr,
            "mult={mult} sr={}",
            out.stats.strength_reductions
        );
        let (r, _) = run_stitched(&out.code, mem, &[13]);
        assert_eq!(r, 13u64.wrapping_mul(mult), "mult={mult}");
    }
}

#[test]
fn strength_reduction_div_rem_by_power_of_two() {
    for (op, val, arg, want) in [
        (Op::Divqu, 8u64, 100u64, 12u64),
        (Op::Remqu, 8, 100, 4),
        (Op::Remqu, 1024, 1_000_000, 1_000_000 % 1024),
    ] {
        let code = vec![
            word(Inst::op3(op, 16, Operand::Lit(0), 0)),
            word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
        ];
        let tmpl = Template {
            code,
            blocks: vec![TmplBlock {
                start: 0,
                end: 2,
                holes: vec![Hole {
                    at: 0,
                    field: HoleField::Lit,
                    slot: SlotPath::stat(0),
                }],
                branches: vec![],
                marker: None,
                exit: TmplExit::Return,
            }],
            entry: 0,
        };
        let mut mem = Memory::with_capacity(1 << 20);
        let t = make_table(&mut mem, &[val]);
        let rc = region(tmpl, 1);
        let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
        assert!(out.stats.strength_reductions > 0, "{op:?} by {val}");
        let (r, _) = run_stitched(&out.code, mem, &[arg]);
        assert_eq!(r, want, "{op:?} by {val}");
    }
}

#[test]
fn peephole_off_keeps_multiply() {
    let code = vec![
        word(Inst::op3(Op::Mulq, 16, Operand::Lit(0), 0)),
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    let tmpl = Template {
        code,
        blocks: vec![TmplBlock {
            start: 0,
            end: 2,
            holes: vec![Hole {
                at: 0,
                field: HoleField::Lit,
                slot: SlotPath::stat(0),
            }],
            branches: vec![],
            marker: None,
            exit: TmplExit::Return,
        }],
        entry: 0,
    };
    let mut mem = Memory::with_capacity(1 << 20);
    let t = make_table(&mut mem, &[8]);
    let rc = region(tmpl, 1);
    let opts = StitchOptions {
        peephole: false,
        ..Default::default()
    };
    let out = stitch(&rc, t, &mut mem, 0, &opts).unwrap();
    assert_eq!(out.stats.strength_reductions, 0);
    let (r, _) = run_stitched(&out.code, mem, &[13]);
    assert_eq!(r, 104);
}

#[test]
fn dynamic_branch_stitches_both_sides() {
    // if (r16 != 0) r0 = 1 else r0 = 2, via a real BNE in the template.
    let code = vec![
        word(Inst::branch(Op::Bne, 16, 0)), // block 0, fixed up
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(2), 0)), // else
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 0)), // then
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    let tmpl = Template {
        code,
        blocks: vec![
            block(
                0,
                1,
                TmplExit::CondBranch {
                    at: 0,
                    taken: 2,
                    fall: 1,
                },
            ),
            block(1, 3, TmplExit::Return),
            block(3, 5, TmplExit::Return),
        ],
        entry: 0,
    };
    let mut mem = Memory::with_capacity(1 << 20);
    let t = make_table(&mut mem, &[0]);
    let rc = region(tmpl, 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    // Both sides present: prologue 2 + branch 1 + else 2 + then 2.
    assert_eq!(out.code.len(), 7);
    let (r1, _) = run_stitched(&out.code, mem.clone(), &[5]);
    assert_eq!(r1, 1);
    let (r2, _) = run_stitched(&out.code, mem, &[0]);
    assert_eq!(r2, 2);
}

#[test]
fn merge_points_are_shared_not_duplicated() {
    // Diamond: both sides jump to a shared tail.
    let code = vec![
        word(Inst::branch(Op::Bne, 16, 0)),
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(2), 0)),
        word(Inst::op3(Op::Addq, ZERO, Operand::Lit(1), 0)),
        word(Inst::op3(Op::Addq, 0, Operand::Lit(100), 0)), // shared tail
        word(Inst::jump(Op::Jmp, ZERO, dyncomp_machine::isa::RA)),
    ];
    let tmpl = Template {
        code,
        blocks: vec![
            block(
                0,
                1,
                TmplExit::CondBranch {
                    at: 0,
                    taken: 2,
                    fall: 1,
                },
            ),
            block(1, 2, TmplExit::Jump(3)),
            block(2, 3, TmplExit::Jump(3)),
            block(3, 5, TmplExit::Return),
        ],
        entry: 0,
    };
    let mut mem = Memory::with_capacity(1 << 20);
    let t = make_table(&mut mem, &[0]);
    let rc = region(tmpl, 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    let (r1, _) = run_stitched(&out.code, mem.clone(), &[1]);
    assert_eq!(r1, 101);
    let (r2, _) = run_stitched(&out.code, mem, &[0]);
    assert_eq!(r2, 102);
    // The tail (2 words) appears once: total = prologue 2 + branch 1 +
    // else 1 + tail 2 + then 1 + br-to-tail 1 = 8.
    assert_eq!(out.code.len(), 8, "shared tail stitched once");
}

#[test]
fn unroll_budget_guards_against_runaway() {
    // A chain longer than the block budget.
    let mut mem = Memory::with_capacity(1 << 23);
    let values: Vec<u64> = (0..MAX_BLOCKS as u64 + 100).collect();
    let table = build_chain(&mut mem, &values);
    let rc = region(unrolled_template(), 1);
    let err = stitch(&rc, table, &mut mem, 0, &StitchOptions::default()).unwrap_err();
    assert_eq!(err, StitchError::UnrollBudget);
}

#[test]
fn self_looping_chain_converges_by_dedup() {
    // A record whose `next` points at itself produces a stitched loop
    // (the (block, record) key repeats), not runaway growth.
    let mut mem = Memory::with_capacity(1 << 20);
    let table = mem.alloc(8).unwrap();
    let rec = mem.alloc(24).unwrap();
    mem.write_u64(table, rec).unwrap();
    mem.write_u64(rec, 1).unwrap(); // predicate: always continue
    mem.write_u64(rec + 8, 1).unwrap();
    mem.write_u64(rec + 16, rec).unwrap(); // next = self
    let rc = region(unrolled_template(), 1);
    let out = stitch(&rc, table, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert!(
        out.code.len() < 20,
        "dedup closes the loop: {}",
        out.code.len()
    );
}

#[test]
fn far_linearized_table_entries() {
    // An unrolled loop with > 1023 distinct large per-iteration constants:
    // entries past the 14-bit displacement use the far path.
    let mut mem = Memory::with_capacity(1 << 24);
    let values: Vec<u64> = (0..1500u64).map(|i| 0x1_0000_0000u64 + i).collect();
    let t = build_chain(&mut mem, &values);
    let rc = region(unrolled_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert_eq!(out.stats.loop_iterations, 1500);
    assert!(out.lin_table_addr != 0);
    let want: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let mut vm = Vm::new(1 << 24);
    vm.mem = mem;
    vm.fuel = 50_000_000;
    let entry = vm.append_code(&out.code);
    vm.setup_call(entry, &[]).unwrap();
    assert_eq!(vm.run().unwrap(), Stop::Halted);
    assert_eq!(vm.reg(0), want);
}

#[test]
fn stitcher_cycles_accumulate() {
    let mut mem = Memory::with_capacity(1 << 20);
    let t = build_chain(&mut mem, &[1, 2, 3, 4, 5]);
    let rc = region(unrolled_template(), 1);
    let out = stitch(&rc, t, &mut mem, 0, &StitchOptions::default()).unwrap();
    assert!(out.stats.cycles > 0);
    // More iterations cost more stitcher cycles.
    let mut mem2 = Memory::with_capacity(1 << 20);
    let t2 = build_chain(&mut mem2, &[1]);
    let out2 = stitch(&rc, t2, &mut mem2, 0, &StitchOptions::default()).unwrap();
    assert!(out.stats.cycles > out2.stats.cycles);
    let _: Reg = 0;
}

// ---- Copy-and-patch pricing ---------------------------------------------
// A block the plan rule admits is charged the plan price when every hole
// patches in place (a hit) and the walk's own charges plus the dispatch
// when one does not (a miss). Each outcome is pinned whole: every
// counter, every cycle, every output word, every read, every plan patch.

/// A one-block template over `code` with `holes`, ending in a return.
fn one_block(code: Vec<u32>, holes: Vec<Hole>) -> Template {
    Template {
        blocks: vec![TmplBlock {
            holes,
            ..block(0, code.len() as u32, TmplExit::Return)
        }],
        code,
        entry: 0,
    }
}

fn hole(at: u32, field: HoleField) -> Hole {
    Hole {
        at,
        field,
        slot: SlotPath::stat(at),
    }
}

/// Stitch `t` at base 0 over a table holding `slots`; returns the
/// instance and the table address.
fn stitch_one(t: Template, slots: &[u64], opts: &StitchOptions) -> (crate::Stitched, u64) {
    let mut mem = Memory::with_capacity(1 << 20);
    let table = make_table(&mut mem, slots);
    let rc = region(t, slots.len() as u32);
    (stitch(&rc, table, &mut mem, 0, opts).unwrap(), table)
}

/// Everything a stitch reports that the copy-and-patch price can move.
fn assert_stitched(
    out: &crate::Stitched,
    code: &[u32],
    stats: crate::StitchStats,
    reads: &[(u64, u64)],
    patches: &[(u32, u64)],
) {
    assert_eq!(out.stats, stats);
    assert_eq!(out.code, code);
    assert_eq!(out.reads, reads);
    let patches: Vec<crate::PlanPatchRecord> = patches
        .iter()
        .map(|&(at, value)| crate::PlanPatchRecord { at, value })
        .collect();
    assert_eq!(out.plan_patches, patches);
}

#[test]
fn plan_prices_are_pinned_per_outcome() {
    use crate::StitchStats;
    use dyncomp_machine::isa::{LIN, RA, SCRATCH0};
    let c = crate::StitchCost::default();
    let on = StitchOptions::default();
    let ret = word(Inst::jump(Op::Jmp, ZERO, RA));
    let ldiw = |r, imm| encode(&Inst::ldiw(r, imm)).unwrap().0;
    let op = |op, lit| word(Inst::op3(op, 16, Operand::Lit(lit), 0));
    let lit_block = |o| one_block(vec![op(o, 0), ret], vec![hole(0, HoleField::Lit)]);
    // The prologue: one directive, `Ldiw LIN` (one instruction, two words).
    let pro = |insts: u32, words: u32, cycles: u64| StitchStats {
        instructions_stitched: 1 + insts,
        words_emitted: 2 + words,
        cycles: c.directive + cycles,
        ..StitchStats::default()
    };

    // A `Lit` hit: the plan price replaces the walk's charges.
    let (out, t) = stitch_one(lit_block(Op::Addq), &[42], &on);
    let stats = StitchStats {
        holes_inline: 1,
        plan_hits: 1,
        ..pro(
            2,
            2,
            c.plan_dispatch + 2 * c.plan_copy_word + c.table_read + c.plan_patch,
        )
    };
    let code = [ldiw(LIN, 0), 0, op(Op::Addq, 42), ret];
    assert_stitched(&out, &code, stats, &[(t, 42)], &[(2, 42)]);

    // A `Lit` miss at 300: the dispatch plus the walk, which builds the
    // value in the scratch register.
    let (out, t) = stitch_one(lit_block(Op::Addq), &[300], &on);
    let walk = 2 * c.directive + c.table_read + c.peephole_try + c.hole_big + c.copy_word;
    let stats = StitchStats {
        holes_big: 1,
        plan_misses: 1,
        ..pro(3, 3, c.plan_dispatch + walk)
    };
    let code = [
        ldiw(LIN, 0),
        0,
        word(Inst::mem(Op::Lda, SCRATCH0, ZERO, 300)),
        word(Inst::op3(Op::Addq, 16, Operand::Reg(SCRATCH0), 0)),
        ret,
    ];
    assert_stitched(&out, &code, stats, &[(t, 300)], &[]);

    // A near `MemDisp` hit: one new table entry, then the same value
    // again, deduplicated to the same offset.
    let v = 0x1234_5678_9abc_u64;
    let ld = |r, base, disp| word(Inst::mem(Op::Ldq, r, base, disp));
    let disp = HoleField::MemDisp { float: false };
    let add = word(Inst::op3(Op::Addq, 1, Operand::Reg(2), 0));
    let tmpl = one_block(
        vec![ld(1, LIN, 0), ld(2, LIN, 0), add, ret],
        vec![hole(0, disp), hole(1, disp)],
    );
    let (out, t) = stitch_one(tmpl, &[v, v], &on);
    let price = c.plan_dispatch + 4 * c.plan_copy_word;
    let stats = StitchStats {
        holes_big: 2,
        plan_hits: 1,
        ..pro(
            4,
            4,
            price + 2 * (c.table_read + c.plan_patch) + c.lin_append,
        )
    };
    let lin = out.lin_table_addr as u32;
    let code = [ldiw(LIN, 0), lin, ld(1, LIN, 0), ld(2, LIN, 0), add, ret];
    let reads = [(t, v), (t + 8, v)];
    assert_stitched(&out, &code, stats, &reads, &[(2, v), (3, v)]);
    assert_eq!(out.lin_words, [v]);

    // A far `MemDisp` miss: the 1025th distinct entry leaves displacement
    // range, so the walk rebases that load onto the scratch register.
    let n = 1025u32;
    let mut tmpl_code: Vec<u32> = (0..n).map(|_| ld(1, LIN, 0)).collect();
    tmpl_code.push(ret);
    let holes = (0..n).map(|i| hole(i, disp)).collect();
    let values: Vec<u64> = (0..u64::from(n)).map(|i| 1000 + i).collect();
    let (out, t) = stitch_one(one_block(tmpl_code, holes), &values, &on);
    let per_hole = c.directive + c.table_read + c.lin_append + c.hole_big;
    let walk = c.directive + u64::from(n) * per_hole + c.copy_word;
    let stats = StitchStats {
        holes_big: n,
        plan_misses: 1,
        ..pro(n + 2, n + 3, c.plan_dispatch + walk)
    };
    let lin = out.lin_table_addr as u32;
    let mut code = vec![ldiw(LIN, 0), lin];
    code.extend((0..n - 1).map(|i| ld(1, LIN, 8 * i as i16)));
    code.extend([
        ldiw(SCRATCH0, 0),
        lin + 8 * (n - 1),
        ld(1, SCRATCH0, 0),
        ret,
    ]);
    let reads: Vec<(u64, u64)> = (0..values.len())
        .map(|i| (t + 8 * i as u64, values[i]))
        .collect();
    assert_stitched(&out, &code, stats, &reads, &[]);
    assert_eq!(out.lin_words, values);

    // A `mulq` hole under peephole: a miss, strength-reduced by the walk.
    let (out, t) = stitch_one(lit_block(Op::Mulq), &[8], &on);
    let walk = 2 * c.directive + c.table_read + c.peephole_try + c.peephole_emit + c.copy_word;
    let stats = StitchStats {
        strength_reductions: 1,
        plan_misses: 1,
        ..pro(2, 2, c.plan_dispatch + walk)
    };
    let code = [ldiw(LIN, 0), 0, op(Op::Sll, 3), ret];
    assert_stitched(&out, &code, stats, &[(t, 8)], &[]);

    // The same hole without peephole: a hit.
    let off = StitchOptions {
        peephole: false,
        ..StitchOptions::default()
    };
    let (out, t) = stitch_one(lit_block(Op::Mulq), &[8], &off);
    let stats = StitchStats {
        holes_inline: 1,
        plan_hits: 1,
        ..pro(
            2,
            2,
            c.plan_dispatch + 2 * c.plan_copy_word + c.table_read + c.plan_patch,
        )
    };
    let code = [ldiw(LIN, 0), 0, op(Op::Mulq, 8), ret];
    assert_stitched(&out, &code, stats, &[(t, 8)], &[(2, 8)]);

    // The walk's own price: register actions on (no dispatch charge; one
    // promoted address reserves three preamble words) and plans off.
    let walk = 2 * c.directive + c.table_read + c.peephole_try + c.hole_inline + c.copy_word;
    let nop = word(Inst::op3(Op::Bis, ZERO, Operand::Reg(ZERO), ZERO));
    let actions = StitchOptions {
        register_actions: Some(1),
        ..StitchOptions::default()
    };
    let (out, t) = stitch_one(lit_block(Op::Addq), &[42], &actions);
    let stats = StitchStats {
        holes_inline: 1,
        ..pro(5, 5, walk)
    };
    let code = [ldiw(LIN, 0), 0, nop, nop, nop, op(Op::Addq, 42), ret];
    assert_stitched(&out, &code, stats, &[(t, 42)], &[]);
    let plans_off = StitchOptions {
        plans: false,
        ..StitchOptions::default()
    };
    let (out, t) = stitch_one(lit_block(Op::Addq), &[42], &plans_off);
    let stats = StitchStats {
        holes_inline: 1,
        ..pro(2, 2, walk)
    };
    let code = [ldiw(LIN, 0), 0, op(Op::Addq, 42), ret];
    assert_stitched(&out, &code, stats, &[(t, 42)], &[]);
}

// ---- Stitched::relocate edge cases -------------------------------------
// `relocate` is the install path for both the shared code cache and the
// tiered runtime's background installs, so its corners matter: blocks with
// nothing to patch, re-installation at the original base, and patches
// touching the very last code word.

/// A minimal hand-built `Stitched` (no table, no patches by default).
fn bare_stitched(code: Vec<u32>) -> crate::Stitched {
    crate::Stitched {
        code,
        lin_table_addr: 0,
        lin_words: vec![],
        lin_addr_patches: vec![],
        lin_far_addr_patches: vec![],
        exit_patches: vec![],
        plan_patches: vec![],
        stats: crate::StitchStats::default(),
        native_bytes: 0,
        reads: vec![],
    }
}

#[test]
fn relocate_zero_patch_block_is_a_plain_copy() {
    let code = vec![
        word(Inst::op3(Op::Addq, 1, Operand::Lit(2), 1)),
        word(Inst::op3(Op::Mulq, 1, Operand::Reg(1), 0)),
    ];
    let s = bare_stitched(code.clone());
    let mut mem = Memory::with_capacity(1 << 16);
    let brk_before = mem.alloc(0).unwrap();
    let (out, lin) = s.relocate(1234, &mut mem).unwrap();
    assert_eq!(out, code, "no patches: relocation must be a verbatim copy");
    assert_eq!(lin, 0, "no table words: no table allocated");
    assert_eq!(mem.alloc(0).unwrap(), brk_before, "no memory consumed");
}

#[test]
fn relocate_at_same_base_reproduces_original_exit_branches() {
    // An exit branch at word 2 targeting absolute address 10, originally
    // stitched for base 100.
    let base = 100u32;
    let exit_at = 2u32;
    let target = 10u32;
    let exit = |base: u32| branch_word(Op::Br, ZERO, (base + exit_at).into(), target.into());
    let mut code = vec![
        word(Inst::op3(Op::Addq, 1, Operand::Lit(1), 1)),
        word(Inst::op3(Op::Addq, 1, Operand::Lit(1), 1)),
        exit(base).unwrap(),
    ];
    let mut s = bare_stitched(code.clone());
    s.exit_patches = vec![(exit_at, target)];
    let mut mem = Memory::with_capacity(1 << 16);
    let (out, _) = s.relocate(base, &mut mem).unwrap();
    assert_eq!(out, code, "same-base relocation must be the identity");
    // And a different base re-encodes the displacement correctly.
    let new_base = 500u32;
    let (out2, _) = s.relocate(new_base, &mut mem).unwrap();
    code[exit_at as usize] = exit(new_base).unwrap();
    assert_eq!(out2, code);
}

#[test]
fn relocate_beyond_branch_reach_fails_and_writes_nothing() {
    // An exit back to address 10 from word 1, with a table to allocate.
    let target = 10u32;
    let mut s = bare_stitched(vec![
        word(Inst::op3(Op::Addq, 1, Operand::Lit(1), 1)),
        branch_word(Op::Br, ZERO, 1, target.into()).unwrap(),
    ]);
    s.exit_patches = vec![(1, target)];
    s.lin_words = vec![42];
    let mut mem = Memory::with_capacity(1 << 16);
    let brk_before = mem.alloc(0).unwrap();
    // The last base in reach puts the exit exactly `BDISP_MIN` words back.
    let last = (i64::from(target) - 2 - i64::from(limits::BDISP_MIN)) as u32;
    assert_eq!(
        s.relocate(last + 1, &mut mem),
        Err(StitchError::BadTemplate(
            "relocated exit branch does not encode: \
             branch displacement -262145 out of range"
                .into()
        ))
    );
    assert_eq!(mem.alloc(0).unwrap(), brk_before, "no table allocated");
    let (out, _) = s.relocate(last, &mut mem).unwrap();
    let back = decode(out[1], None).unwrap();
    assert_eq!(back.imm, limits::BDISP_MIN);
}

#[test]
fn relocate_far_entry_patch_in_final_code_word() {
    // A far-entry Ldiw whose *address word* (p + 1) is the last word of
    // the code: the patch must land exactly on the final word without
    // running past the buffer.
    let code = vec![
        word(Inst::op3(Op::Addq, 1, Operand::Lit(0), 1)),
        0xdead_0000, // Ldiw first word (opcode irrelevant to relocate)
        0xffff_ffff, // second word: table address placeholder (final word)
    ];
    let mut s = bare_stitched(code);
    s.lin_words = vec![7, 11, 13];
    s.lin_far_addr_patches = vec![(1, 16)]; // slot 2: byte offset 16
    let mut mem = Memory::with_capacity(1 << 16);
    let (out, lin) = s.relocate(0, &mut mem).unwrap();
    assert_ne!(lin, 0, "table words present: a table must be allocated");
    assert_eq!(out.len(), 3);
    assert_eq!(
        out[2],
        (lin as u32).wrapping_add(16),
        "final word must hold table base + recorded offset"
    );
    // The freshly allocated table holds the recorded words.
    for (i, &w) in s.lin_words.iter().enumerate() {
        assert_eq!(mem.read_u64(lin + 8 * i as u64).unwrap(), w);
    }
    // A second relocation allocates a second, independent table.
    let (out_b, lin_b) = s.relocate(0, &mut mem).unwrap();
    assert_ne!(lin_b, lin);
    assert_eq!(out_b[2], (lin_b as u32).wrapping_add(16));
}

#[test]
fn relocate_near_table_patch_in_final_code_word() {
    // Same corner for the near (`lin_addr_patches`) form: second word of
    // the Ldiw is the final code word and receives the raw table base.
    let code = vec![0xbeef_0000, 0x0000_0000];
    let mut s = bare_stitched(code);
    s.lin_words = vec![42];
    s.lin_addr_patches = vec![0];
    let mut mem = Memory::with_capacity(1 << 16);
    let (out, lin) = s.relocate(64, &mut mem).unwrap();
    assert_eq!(out[1], lin as u32);
    assert_eq!(mem.read_u64(lin).unwrap(), 42);
}

#[test]
fn patch_memdisp_word_rejects_offsets_beyond_displacement_range() {
    // Regression: this used to mask to 14 bits behind a `debug_assert`
    // (silently aliasing a wrong table slot in release builds).
    use dyncomp_machine::isa::limits::DISP_MAX;
    let w = word(Inst::mem(Op::Ldq, 1, 2, 0));
    let ok = crate::patch_memdisp_word(w, DISP_MAX).unwrap();
    assert_eq!(ok, word(Inst::mem(Op::Ldq, 1, 2, DISP_MAX as i16)));
    for off in [DISP_MAX + 1, DISP_MAX + 8, i32::MAX, -8] {
        let err = crate::patch_memdisp_word(w, off).unwrap_err();
        assert!(
            matches!(err, StitchError::BadTemplate(_)),
            "offset {off}: {err}"
        );
    }
}
