//! Golden bytes of the SimAlpha → x86-64 translator: the FNV-1a-64 of
//! every `translate_with` output the engine asks for on the seven kernels
//! — each stitched region instance (chained and unchained spec) and the
//! whole-static-code snapshot with entry guards off and on. Host bytes,
//! entry / block / exit / guard tables and the coverage counts all fold
//! into the hash, so a translator change that moves any of them fails
//! here before a persisted native section or a chain patch notices.
//!
//! The constants were taken before the translator's tables became
//! per-word arrays and the snapshot a per-program memo
//! ([`Program::native_snapshot`], checked against the direct translation
//! here); a changed constant means an emitted byte moved, which needs a
//! `NATIVE_CODE_VERSION` bump, not a new constant.

use dyncomp::{Compiler, EngineOptions, KernelSetup, Program, SessionRun};
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use dyncomp_machine::template::ValueLoc;
use dyncomp_machine::CycleModel;
use dyncomp_native::{translate_with, Artifact, ChainSpec, GuardSpec, KeySlot};
use std::sync::Arc;

/// Per kernel: `(name, stitched instances, static guards off, static
/// guards on)`.
const GOLDEN: [(&str, u64, u64, u64); 7] = [
    (
        "calculator",
        0xbb0f_3b04_2e6b_44b9,
        0xbf6b_8732_211d_5131,
        0xfedc_d1f9_0588_e209,
    ),
    (
        "smatmul",
        0x1e2c_6368_3cae_e996,
        0x7e6e_629d_d226_3725,
        0xc29b_1069_ec06_5ec0,
    ),
    (
        "spmv",
        0x76cf_e513_1c45_a7f7,
        0x3544_4997_ecd6_e629,
        0x6683_f3c2_2d33_66ee,
    ),
    (
        "dispatch",
        0x6440_62ce_529c_e0a9,
        0x1aec_9443_52cb_962d,
        0x7f21_3c0b_42c0_3407,
    ),
    (
        "sorter",
        0x82a1_16ff_bd92_fc9e,
        0xcefb_cebf_7e29_4553,
        0x825a_fcc9_6b1c_583f,
    ),
    (
        "protomsg",
        0x3373_5a77_2c20_1685,
        0xb084_db47_562c_10d6,
        0x39f5_0d03_3da3_e8a6,
    ),
    (
        "queryexec",
        0x3b34_61b4_ac80_d0c9,
        0x5a5d_0049_39cf_0be4,
        0x43a3_f9a0_94dd_6fd1,
    ),
];

/// FNV-1a-64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn pairs(&mut self, pairs: &[(u32, u32)]) {
        self.u32(pairs.len() as u32);
        for &(a, b) in pairs {
            self.u32(a);
            self.u32(b);
        }
    }

    fn artifact(&mut self, a: &Artifact) {
        self.u32(a.bytes.len() as u32);
        self.bytes(&a.bytes);
        self.bytes(&[u8::from(a.entry_supported)]);
        for v in [a.instructions, a.covered, a.blocks, a.base, a.end] {
            self.u32(v);
        }
        self.pairs(&a.entries);
        self.pairs(&a.block_offsets);
        self.pairs(&a.exit_sites);
        self.u32(a.guard_areas.len() as u32);
        for g in &a.guard_areas {
            for v in [g.pc, g.offset, g.len] {
                self.u32(v);
            }
        }
    }
}

fn keyslot(l: &ValueLoc) -> KeySlot {
    match *l {
        ValueLoc::Reg(r) => KeySlot::Reg(r),
        ValueLoc::FReg(r) => KeySlot::FReg(r),
        ValueLoc::Frame(off) => KeySlot::Frame(off),
    }
}

/// The spec the engine translates the static snapshot with: dispatch-table
/// jumps, a guard sled at every region entry when guards are enabled, and
/// every region exit continuation forced to a block leader.
fn static_spec(program: &Program, guards: bool) -> ChainSpec {
    let regions = &program.compiled.regions;
    ChainSpec {
        indirect: true,
        guards: if guards {
            regions
                .iter()
                .map(|rc| GuardSpec {
                    pc: rc.enter_pc,
                    keys: rc.key_locs.iter().map(keyslot).collect(),
                })
                .collect()
        } else {
            Vec::new()
        },
        leaders: regions
            .iter()
            .flat_map(|rc| rc.exit_pcs.iter().copied())
            .collect(),
    }
}

/// Run `setup` on a VM session and hash every translation the engine
/// would make of what it leaves behind.
fn kernel_hashes(compiler: &Compiler, setup: &KernelSetup<'_>) -> (u64, u64, u64) {
    let program = Arc::new(compiler.compile(setup.src).expect("kernel compiles"));
    let mut run = SessionRun::start(&program, setup, EngineOptions::default());
    run.pass(|_, _| {}).expect("kernel runs");
    let session = &run.session;
    let model = CycleModel::default();
    let origin = session.vm.code.as_ptr() as usize;
    let mut instances = Fnv::new();
    let mut count = 0u32;
    for region in 0..program.region_count() {
        for (_, code) in session.stitched_instances(region) {
            // The slice borrows the session's code space, so its offset
            // from the start is the install base.
            let base = ((code.as_ptr() as usize - origin) / std::mem::size_of::<u32>()) as u32;
            for indirect in [true, false] {
                let spec = ChainSpec {
                    indirect,
                    guards: Vec::new(),
                    leaders: Vec::new(),
                };
                instances.artifact(&translate_with(code, base, &model, &spec));
            }
            count += 1;
        }
    }
    assert!(count > 0, "{}: the kernel stitched", setup.func);
    let code = &program.compiled.code;
    let snapshot = |guards: bool| {
        let mut h = Fnv::new();
        h.artifact(&translate_with(
            code,
            0,
            &model,
            &static_spec(&program, guards),
        ));
        // What sessions install is the program's memo of the same
        // translation.
        let mut memo = Fnv::new();
        memo.artifact(&program.native_snapshot(&model, guards));
        assert_eq!(memo.0, h.0, "{}: memoized snapshot", setup.func);
        h.0
    };
    (instances.0, snapshot(false), snapshot(true))
}

#[test]
fn translations_match_the_pinned_hashes() {
    let plain = Compiler::new();
    let inlined = Compiler::with_inline_depth(2);
    let cases: [(&str, &Compiler, KernelSetup<'static>); 7] = [
        ("calculator", &plain, calculator::setup(4)),
        ("smatmul", &plain, smatmul::setup(8, 16, 8)),
        ("spmv", &plain, spmv::setup(12, 3, 4)),
        ("dispatch", &plain, dispatch::setup(10, 12)),
        ("sorter", &plain, sorter::setup(40, 4, 2)),
        ("protomsg", &inlined, protomsg::setup(8, 6)),
        ("queryexec", &inlined, queryexec::setup(6, 30, 2)),
    ];
    let got: Vec<(&str, u64, u64, u64)> = cases
        .iter()
        .map(|(name, compiler, setup)| {
            let (i, off, on) = kernel_hashes(compiler, setup);
            (*name, i, off, on)
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}
