//! Golden output of the static compiler: the FNV-1a-64 of everything
//! `Compiler::compile` hands the run time, over the seven kernels under
//! four compilers and two seeded multi-function units.
//!
//! Per unit the test pins the executable image, each region's template
//! words and holes, the whole module's wire form, the
//! specializer's counters, and the `OptStats` of every `optimize` call,
//! the inliner's included. The last come from a pass observer on
//! `Compiler::compile_observed`, whose code must be `Compiler::compile`'s.
//!
//! The constants were taken before the optimizer, verifier, register
//! allocator and emitter were made linear. The static compiler is
//! deterministic, so a changed constant means a pass now rewrites
//! differently: fix the pass, do not re-take the constant. The `module`
//! column alone was re-taken when the module's wire form stopped
//! carrying stitch plans and when a block stopped carrying a list of
//! branch fixups, and the `holes` and `module` columns when a hole
//! stopped carrying the field its instruction already names.

use dyncomp::PassObserver;
use dyncomp_bench::lattice::{self, Comp};
use dyncomp_bench::synthetic;
use dyncomp_ir::codec::{Codec, Writer};
use dyncomp_ir::fnv::Fnv;
use dyncomp_ir::Function;
use dyncomp_opt::{OptOptions, OptStats};

/// Per unit: `(name, code, templates, holes, module, spec_stats,
/// opt_stats)`. Each fresh module also passes `check_refs`: the static
/// compiler places its directives where the decode boundary checks them.
type Row = (String, u64, u64, u64, u64, u64, u64);
/// A [`Row`] as pinned.
type Pinned = (&'static str, u64, u64, u64, u64, u64, u64);

const GOLDEN: [Pinned; 30] = [
    (
        "calculator.static",
        0x9fd3_ec3e_4303_707d,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0xc12e_8921_17ea_467e,
        0xcbf2_9ce4_8422_2325,
        0x06a6_7926_0739_4b7c,
    ),
    (
        "calculator.dynamic",
        0x76d7_4d2c_c3af_df57,
        0xf2ee_98d2_febf_3483,
        0xfd0a_4ab1_e8a4_af00,
        0x134c_9b5f_e6ca_0019,
        0x1950_1e3f_b300_3b53,
        0x11f9_5db8_6bce_d19e,
    ),
    (
        "calculator.inline2",
        0x76d7_4d2c_c3af_df57,
        0xf2ee_98d2_febf_3483,
        0xfd0a_4ab1_e8a4_af00,
        0x134c_9b5f_e6ca_0019,
        0x1950_1e3f_b300_3b53,
        0x11f9_5db8_6bce_d19e,
    ),
    (
        "calculator.tiered",
        0xdb01_6d62_ac9e_edc3,
        0x098a_824d_5a11_f1e3,
        0xfd0a_4ab1_e8a4_af00,
        0xb563_c7d6_c02d_de70,
        0x1950_1e3f_b300_3b53,
        0xaf79_7db1_1504_fa14,
    ),
    (
        "smatmul.static",
        0xcb33_27a7_73b3_3a0a,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0x7ade_5b37_1ba2_a9bc,
        0xcbf2_9ce4_8422_2325,
        0x81de_8b21_db4f_3881,
    ),
    (
        "smatmul.dynamic",
        0x96c3_fd66_1b1a_9bdb,
        0x8393_4431_d768_633e,
        0x6d71_430c_ad7e_034d,
        0x460d_f3a2_23fb_ffcc,
        0x53e5_3fce_db6e_880c,
        0x831e_0240_1cb5_c769,
    ),
    (
        "smatmul.inline2",
        0x96c3_fd66_1b1a_9bdb,
        0x8393_4431_d768_633e,
        0x6d71_430c_ad7e_034d,
        0x460d_f3a2_23fb_ffcc,
        0x53e5_3fce_db6e_880c,
        0x831e_0240_1cb5_c769,
    ),
    (
        "smatmul.tiered",
        0x4833_37b2_34ea_e418,
        0xf49e_769f_d353_d403,
        0x6d71_430c_ad7e_034d,
        0xe56c_c233_f860_edc3,
        0x53e5_3fce_db6e_880c,
        0xed16_7f03_c28b_4164,
    ),
    (
        "spmv.static",
        0xf57d_5818_297e_b807,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0x96ed_0f8a_5946_b01b,
        0xcbf2_9ce4_8422_2325,
        0x6135_1f4c_866d_1ffd,
    ),
    (
        "spmv.dynamic",
        0x0378_4d6a_8841_03f6,
        0x83f5_87b7_706f_0390,
        0x2335_0e26_49c0_8aa7,
        0x1bc2_62f0_f5ab_32d4,
        0xd344_793d_6866_fcab,
        0x1fdb_62f8_6d04_abba,
    ),
    (
        "spmv.inline2",
        0x0378_4d6a_8841_03f6,
        0x83f5_87b7_706f_0390,
        0x2335_0e26_49c0_8aa7,
        0x1bc2_62f0_f5ab_32d4,
        0xd344_793d_6866_fcab,
        0x1fdb_62f8_6d04_abba,
    ),
    (
        "spmv.tiered",
        0xa6f4_20a4_9b65_d429,
        0x32ef_b7aa_cab0_477a,
        0x2335_0e26_49c0_8aa7,
        0xfd1d_c4ee_e57a_f035,
        0xd344_793d_6866_fcab,
        0x5647_833c_204f_ccf1,
    ),
    (
        "dispatch.static",
        0x1e0f_ce52_1ec1_8839,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0x68e8_681c_6801_effc,
        0xcbf2_9ce4_8422_2325,
        0xefb3_d1c5_bb58_6d6e,
    ),
    (
        "dispatch.dynamic",
        0x8ede_1b6a_d93d_56fa,
        0x3312_e71b_43ae_1c41,
        0x0d96_adb1_39bb_5cbd,
        0x37f0_e61a_341e_3b86,
        0x0790_a4bf_541a_84f1,
        0xd6b7_b3a9_2063_768a,
    ),
    (
        "dispatch.inline2",
        0x8ede_1b6a_d93d_56fa,
        0x3312_e71b_43ae_1c41,
        0x0d96_adb1_39bb_5cbd,
        0x37f0_e61a_341e_3b86,
        0x0790_a4bf_541a_84f1,
        0xd6b7_b3a9_2063_768a,
    ),
    (
        "dispatch.tiered",
        0x9b2e_a3c0_9dfb_ad65,
        0x50aa_c1ba_73cf_e5ee,
        0x0d96_adb1_39bb_5cbd,
        0xa9db_38f5_17bc_025b,
        0x0790_a4bf_541a_84f1,
        0x2e57_8a02_db3e_67f8,
    ),
    (
        "sorter.static",
        0xc5c0_b7c0_c7df_4054,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0x05f3_06cd_edfc_5326,
        0xcbf2_9ce4_8422_2325,
        0xf556_f1ad_41ff_36b3,
    ),
    (
        "sorter.dynamic",
        0x0e34_862f_88f3_7982,
        0xff40_b63f_3b91_4ece,
        0xaaf6_190b_f263_df91,
        0x6186_e84b_9eff_9272,
        0xef10_ccbe_386b_d1bd,
        0x277c_03e9_6a37_7295,
    ),
    (
        "sorter.inline2",
        0x0e34_862f_88f3_7982,
        0xff40_b63f_3b91_4ece,
        0xaaf6_190b_f263_df91,
        0x6186_e84b_9eff_9272,
        0xef10_ccbe_386b_d1bd,
        0x277c_03e9_6a37_7295,
    ),
    (
        "sorter.tiered",
        0xf94d_d80c_9861_a7b8,
        0xfa61_335c_1fe6_9e2c,
        0xaaf6_190b_f263_df91,
        0x7ce7_cfac_fdff_418d,
        0xef10_ccbe_386b_d1bd,
        0x7d76_8e64_d481_56de,
    ),
    (
        "protomsg.static",
        0xdc33_6144_b048_0334,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0x2d05_5bdd_ecf8_46c6,
        0xcbf2_9ce4_8422_2325,
        0xbb95_2a9a_10a5_8324,
    ),
    (
        "protomsg.dynamic",
        0x88ff_9866_b4b8_0c7d,
        0x712c_7a57_dbf6_64f8,
        0xdec3_41a8_937a_3e33,
        0xaee5_ebd5_ff9c_05ec,
        0x5a06_a61b_d33b_355c,
        0x4727_30c9_bf2e_f61f,
    ),
    (
        "protomsg.inline2",
        0xb2b8_49cc_9195_b02a,
        0x8bd2_af14_708e_b4d5,
        0x29bb_05a2_168e_6d66,
        0xd460_8331_e786_266e,
        0x1b9b_c493_d085_1850,
        0x07c1_74c8_529b_901d,
    ),
    (
        "protomsg.tiered",
        0x58a7_b02a_c6a2_805e,
        0x4c3f_183c_0e96_ef95,
        0xdec3_41a8_937a_3e33,
        0xaccb_0526_2e10_39fd,
        0x5a06_a61b_d33b_355c,
        0x6818_83f3_e42f_f477,
    ),
    (
        "queryexec.static",
        0x9449_de38_0d92_9f02,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0xd85d_4ebe_9929_778d,
        0xcbf2_9ce4_8422_2325,
        0x38cc_8eb3_6d34_6298,
    ),
    (
        "queryexec.dynamic",
        0x3983_b58c_83fe_c9c7,
        0x4a68_7915_c01f_0f5b,
        0xa7d7_7471_8796_6775,
        0xb7ba_049f_d276_9a2e,
        0x4173_a460_ece2_45db,
        0x3cfb_883a_040d_56fa,
    ),
    (
        "queryexec.inline2",
        0x819f_0660_0514_5bbb,
        0xfd1f_d476_b997_ba03,
        0x1ee7_5d3d_e505_50b4,
        0x6a69_bec6_3d0f_82ab,
        0x1e82_20c2_6b9e_8376,
        0x2a6c_b483_c0d0_d377,
    ),
    (
        "queryexec.tiered",
        0x4f7b_bca3_9d0f_e5ef,
        0x99ca_eb01_9fef_0a24,
        0xa7d7_7471_8796_6775,
        0x8941_af99_a75e_93da,
        0x4173_a460_ece2_45db,
        0x82a1_45dd_9d76_9fb4,
    ),
    (
        "synthetic8.dynamic",
        0x1bad_0432_c2e5_287d,
        0xb729_db59_d897_db64,
        0xf692_2f18_cd3c_ced0,
        0x86a3_c826_58c6_3ef9,
        0xd903_6ca0_3072_026b,
        0xf60d_f1b9_7c8d_315d,
    ),
    (
        "synthetic64.dynamic",
        0xdcf3_767d_b4a8_cd40,
        0xdec8_9ed3_2933_fcfb,
        0xcff0_8d8f_5ab6_7b93,
        0x28db_3980_02e1_155b,
        0xe8b3_fe2b_f45d_1dec,
        0x67f5_9a09_548b_885a,
    ),
];

/// `words`, length first.
fn words(h: &mut Fnv, words: &[u32]) {
    h.u64(words.len() as u64);
    for &w in words {
        h.u32(w);
    }
}

/// The value's persisted wire form, length first.
fn wire<T: Codec>(h: &mut Fnv, v: &T) {
    let mut w = Writer::new();
    v.encode(&mut w);
    let bytes = w.into_bytes();
    h.u64(bytes.len() as u64);
    h.bytes(&bytes);
}

/// Hashes the counters of every `optimize` call of a compile, in order.
struct OptHash(Fnv);

impl PassObserver for OptHash {
    fn optimized(&mut self, _: &Function, _: &OptOptions, s: &OptStats) {
        for v in [
            s.folded,
            s.branches_folded,
            s.copies_propagated,
            s.dead_removed,
            s.cse_hits,
            s.cfg_simplified,
        ] {
            self.0.u64(v as u64);
        }
    }
}

fn unit_row(name: String, src: &str, comp: Comp) -> Row {
    let compiler = comp.compiler();
    let mut opt = OptHash(Fnv::new());
    let program = compiler
        .compile_observed(src, &mut opt)
        .expect("unit compiles");
    let plain = compiler.compile(src).expect("unit compiles");
    assert_eq!(
        program.compiled.code, plain.compiled.code,
        "{name}: the observed compile is the compiler"
    );
    let compiled = &program.compiled;
    assert_eq!(
        compiled.check_refs(),
        Ok(()),
        "{name}: a directive where the placement rule does not put it"
    );
    let mut code = Fnv::new();
    words(&mut code, &compiled.code);
    let (mut templates, mut holes) = (Fnv::new(), Fnv::new());
    for r in &compiled.regions {
        words(&mut templates, &r.template.code);
        for blk in &r.template.blocks {
            wire(&mut holes, &blk.holes);
        }
    }
    let mut module = Fnv::new();
    wire(&mut module, compiled);
    let mut spec = Fnv::new();
    for (fid, s) in &program.spec_stats {
        spec.u64(fid.index() as u64);
        wire(&mut spec, s);
    }
    (
        name,
        code.finish(),
        templates.finish(),
        holes.finish(),
        module.finish(),
        spec.finish(),
        opt.0.finish(),
    )
}

fn rows() -> Vec<Row> {
    let plan = lattice::plan("compile_golden::matrix");
    let mut rows = Vec::new();
    for k in &plan.programs {
        for c in &plan.cells {
            let name = format!("{}.{}", k.name(), c.comp.name());
            rows.push(unit_row(name, k.src(), c.comp));
        }
    }
    for (n, seed) in [(8, 0x5eed_0008), (64, 0x5eed_0064)] {
        let src = synthetic::unit(n, seed);
        rows.push(unit_row(
            format!("synthetic{n}.dynamic"),
            &src,
            Comp::Dynamic,
        ));
    }
    rows
}

#[test]
fn compiled_artifacts_match_the_pinned_hashes() {
    let got = rows();
    let want: Vec<Row> = GOLDEN
        .iter()
        .map(|&(n, a, b, c, d, e, f)| (n.to_string(), a, b, c, d, e, f))
        .collect();
    let moved: Vec<&Row> = got.iter().filter(|r| !want.contains(r)).collect();
    assert!(moved.is_empty(), "moved rows: {moved:#x?}\nall: {got:#x?}");
    assert_eq!(got, want);
}
