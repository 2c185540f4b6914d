//! Golden output of the static compiler: the FNV-1a-64 of everything
//! `Compiler::compile` hands the run time, over the seven kernels under
//! four compilers and two seeded multi-function units.
//!
//! Per unit the test pins the executable image, each region's template
//! words, stitch plans and holes, the whole module's wire form, the
//! specializer's counters, and the `OptStats` of every `optimize` call.
//! The last come from a replay of the pipeline through the public pass
//! functions (inline depth 0 only: the inliner's fixpoint is private to
//! `dyncomp`), which must itself produce the compiler's exact code.
//!
//! The constants were taken before the optimizer, verifier, register
//! allocator and emitter were made linear. The static compiler is
//! deterministic, so a changed constant means a pass now rewrites
//! differently: fix the pass, do not re-take the constant.

use dyncomp_analysis::AnalysisConfig;
use dyncomp_bench::lattice::{self, Comp};
use dyncomp_bench::synthetic;
use dyncomp_codegen::CompiledModule;
use dyncomp_frontend::LowerOptions;
use dyncomp_ir::codec::{Codec, Writer};
use dyncomp_ir::fnv::Fnv;
use dyncomp_ir::{FuncId, IdSet};
use dyncomp_opt::{optimize, OptOptions, OptStats};
use dyncomp_specialize::RegionSpec;

/// Per unit: `(name, code, templates, plans, holes, module, spec_stats,
/// opt_stats)`; `opt_stats` is 0 where the unit cannot be replayed.
type Row = (String, u64, u64, u64, u64, u64, u64, u64);
/// A [`Row`] as pinned.
type Pinned = (&'static str, u64, u64, u64, u64, u64, u64, u64);

const GOLDEN: [Pinned; 30] = [
    (
        "calculator.static",
        0x9fd3_ec3e_4303_707d,
        0xcbf2_9ce4_8422_2325,
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
        0x3b5e_0577_0d96_9313,
        0x85cc_4a1a_3342_fbd6,
        0x8065_f4e4_5c1c_4039,
        0x1950_1e3f_b300_3b53,
        0x11f9_5db8_6bce_d19e,
    ),
    (
        "calculator.inline2",
        0x76d7_4d2c_c3af_df57,
        0xf2ee_98d2_febf_3483,
        0x3b5e_0577_0d96_9313,
        0x85cc_4a1a_3342_fbd6,
        0x8065_f4e4_5c1c_4039,
        0x1950_1e3f_b300_3b53,
        0x0000_0000_0000_0000,
    ),
    (
        "calculator.tiered",
        0xdb01_6d62_ac9e_edc3,
        0x098a_824d_5a11_f1e3,
        0x9422_1eb7_7c3d_3a71,
        0x85cc_4a1a_3342_fbd6,
        0x05be_b406_09bb_f1d2,
        0x1950_1e3f_b300_3b53,
        0xaf79_7db1_1504_fa14,
    ),
    (
        "smatmul.static",
        0xcb33_27a7_73b3_3a0a,
        0xcbf2_9ce4_8422_2325,
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
        0x95bd_99d1_9e2a_8172,
        0xd40a_f673_4574_5ca5,
        0xa571_f215_68be_ebd2,
        0x53e5_3fce_db6e_880c,
        0x831e_0240_1cb5_c769,
    ),
    (
        "smatmul.inline2",
        0x96c3_fd66_1b1a_9bdb,
        0x8393_4431_d768_633e,
        0x95bd_99d1_9e2a_8172,
        0xd40a_f673_4574_5ca5,
        0xa571_f215_68be_ebd2,
        0x53e5_3fce_db6e_880c,
        0x0000_0000_0000_0000,
    ),
    (
        "smatmul.tiered",
        0x4833_37b2_34ea_e418,
        0xf49e_769f_d353_d403,
        0x8180_c0c6_15a0_9927,
        0xd40a_f673_4574_5ca5,
        0x9cb3_3f2e_39af_87a7,
        0x53e5_3fce_db6e_880c,
        0xed16_7f03_c28b_4164,
    ),
    (
        "spmv.static",
        0xf57d_5818_297e_b807,
        0xcbf2_9ce4_8422_2325,
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
        0xa4ef_1d13_af60_20fe,
        0xece1_3fe6_8e08_d646,
        0x2305_dd1b_9ae1_196e,
        0xd344_793d_6866_fcab,
        0x1fdb_62f8_6d04_abba,
    ),
    (
        "spmv.inline2",
        0x0378_4d6a_8841_03f6,
        0x83f5_87b7_706f_0390,
        0xa4ef_1d13_af60_20fe,
        0xece1_3fe6_8e08_d646,
        0x2305_dd1b_9ae1_196e,
        0xd344_793d_6866_fcab,
        0x0000_0000_0000_0000,
    ),
    (
        "spmv.tiered",
        0xa6f4_20a4_9b65_d429,
        0x32ef_b7aa_cab0_477a,
        0x310b_fad8_2b74_2e23,
        0xece1_3fe6_8e08_d646,
        0x7f30_2f9e_f11c_c450,
        0xd344_793d_6866_fcab,
        0x5647_833c_204f_ccf1,
    ),
    (
        "dispatch.static",
        0x1e0f_ce52_1ec1_8839,
        0xcbf2_9ce4_8422_2325,
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
        0x0bd2_3681_2d0e_3e02,
        0x2ed1_28a2_1f51_10d7,
        0x8170_ef4a_ac63_91c9,
        0x0790_a4bf_541a_84f1,
        0xd6b7_b3a9_2063_768a,
    ),
    (
        "dispatch.inline2",
        0x8ede_1b6a_d93d_56fa,
        0x3312_e71b_43ae_1c41,
        0x0bd2_3681_2d0e_3e02,
        0x2ed1_28a2_1f51_10d7,
        0x8170_ef4a_ac63_91c9,
        0x0790_a4bf_541a_84f1,
        0x0000_0000_0000_0000,
    ),
    (
        "dispatch.tiered",
        0x9b2e_a3c0_9dfb_ad65,
        0x50aa_c1ba_73cf_e5ee,
        0x8c02_efea_b363_043d,
        0x2ed1_28a2_1f51_10d7,
        0xd42e_964c_3058_6fb3,
        0x0790_a4bf_541a_84f1,
        0x2e57_8a02_db3e_67f8,
    ),
    (
        "sorter.static",
        0xc5c0_b7c0_c7df_4054,
        0xcbf2_9ce4_8422_2325,
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
        0xaccb_8900_39dc_16e5,
        0xa9d5_bf25_b751_5654,
        0xa2f2_9d09_57cf_a50f,
        0xef10_ccbe_386b_d1bd,
        0x277c_03e9_6a37_7295,
    ),
    (
        "sorter.inline2",
        0x0e34_862f_88f3_7982,
        0xff40_b63f_3b91_4ece,
        0xaccb_8900_39dc_16e5,
        0xa9d5_bf25_b751_5654,
        0xa2f2_9d09_57cf_a50f,
        0xef10_ccbe_386b_d1bd,
        0x0000_0000_0000_0000,
    ),
    (
        "sorter.tiered",
        0xf94d_d80c_9861_a7b8,
        0xfa61_335c_1fe6_9e2c,
        0xd3e1_5ec4_0c39_023d,
        0xa9d5_bf25_b751_5654,
        0x587f_1964_0716_2f40,
        0xef10_ccbe_386b_d1bd,
        0x7d76_8e64_d481_56de,
    ),
    (
        "protomsg.static",
        0xdc33_6144_b048_0334,
        0xcbf2_9ce4_8422_2325,
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
        0x2b08_c5ee_24b8_36ac,
        0x4bea_21e2_6669_8bdf,
        0x288b_293c_e5ae_5bac,
        0x5a06_a61b_d33b_355c,
        0x4727_30c9_bf2e_f61f,
    ),
    (
        "protomsg.inline2",
        0xb2b8_49cc_9195_b02a,
        0x8bd2_af14_708e_b4d5,
        0xf54f_8299_3ddf_95a1,
        0xb21e_fb51_f53b_aca8,
        0x803f_1635_5a50_e714,
        0x1b9b_c493_d085_1850,
        0x0000_0000_0000_0000,
    ),
    (
        "protomsg.tiered",
        0x58a7_b02a_c6a2_805e,
        0x4c3f_183c_0e96_ef95,
        0x1db4_0518_4357_079b,
        0x4bea_21e2_6669_8bdf,
        0xaf82_699f_171b_bc70,
        0x5a06_a61b_d33b_355c,
        0x6818_83f3_e42f_f477,
    ),
    (
        "queryexec.static",
        0x9449_de38_0d92_9f02,
        0xcbf2_9ce4_8422_2325,
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
        0xc2f2_263a_4aec_67b6,
        0xc356_09ea_e0be_5bd3,
        0x5c35_5ffd_00d9_874f,
        0x4173_a460_ece2_45db,
        0x3cfb_883a_040d_56fa,
    ),
    (
        "queryexec.inline2",
        0x819f_0660_0514_5bbb,
        0xfd1f_d476_b997_ba03,
        0x507d_2bd5_bc67_5d8f,
        0xebd2_3edb_9b8f_4f39,
        0x2e74_59bd_404a_398e,
        0x1e82_20c2_6b9e_8376,
        0x0000_0000_0000_0000,
    ),
    (
        "queryexec.tiered",
        0x4f7b_bca3_9d0f_e5ef,
        0x99ca_eb01_9fef_0a24,
        0x70b0_e691_8939_d341,
        0xc356_09ea_e0be_5bd3,
        0x4843_3f07_527d_6d44,
        0x4173_a460_ece2_45db,
        0x82a1_45dd_9d76_9fb4,
    ),
    (
        "synthetic8.dynamic",
        0x1bad_0432_c2e5_287d,
        0xb729_db59_d897_db64,
        0xc0f1_5c52_ffa6_e009,
        0x0d00_630a_07a1_cb7a,
        0x0636_5d67_79e1_081d,
        0xd903_6ca0_3072_026b,
        0xf60d_f1b9_7c8d_315d,
    ),
    (
        "synthetic64.dynamic",
        0xdcf3_767d_b4a8_cd40,
        0xdec8_9ed3_2933_fcfb,
        0x10d3_8fcd_1a62_2abd,
        0xb831_d73a_99bb_37b3,
        0xee76_1731_4348_6d77,
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

/// The front end's options, when the pipeline can be replayed.
fn replayable(comp: Comp) -> Option<LowerOptions> {
    let (honor_annotations, tiered_fallback) = match comp {
        Comp::Static => (false, false),
        Comp::Dynamic => (true, false),
        Comp::Tiered => (true, true),
        Comp::Inline2 => return None,
    };
    Some(LowerOptions {
        honor_annotations,
        tiered_fallback,
    })
}

/// Phases 1 and 3 of `Compiler::compile` at inline depth 0, call for call,
/// through the public pass functions: every `optimize` call's counters and
/// the module they lead to.
fn replay(src: &str, lower: &LowerOptions) -> (Vec<OptStats>, CompiledModule) {
    let mut module = dyncomp_frontend::compile(src, lower)
        .expect("front end accepts the unit")
        .module;
    let mut stats = Vec::new();
    for fid in module.funcs.ids().collect::<Vec<_>>() {
        let f = &mut module.funcs[fid];
        if !f.is_ssa {
            dyncomp_ir::ssa::construct_ssa(f);
        }
        stats.push(optimize(
            f,
            &OptOptions {
                cfg_simplify: true,
                hole_scope: None,
            },
        ));
        dyncomp_ir::cfg::split_critical_edges(f);
        f.canonicalize_region_roots();
        dyncomp_ir::verify::verify(f).expect("prep verifies");
    }
    let config = AnalysisConfig::default();
    let mut specs: Vec<(FuncId, RegionSpec)> = Vec::new();
    for fid in module.funcs.ids().collect::<Vec<_>>() {
        let f = &mut module.funcs[fid];
        let mut template_scope = IdSet::new();
        for rid in f.regions.ids().collect::<Vec<_>>() {
            let mut analysis = dyncomp_analysis::analyze_region(f, rid, &config);
            if dyncomp_specialize::legalize_dynamic_switches(f, rid, &analysis) {
                dyncomp_ir::cfg::split_critical_edges(f);
                dyncomp_ir::verify::verify(f).expect("legalized IR verifies");
                analysis = dyncomp_analysis::analyze_region(f, rid, &config);
            }
            let spec = dyncomp_specialize::specialize_region(f, rid, &analysis)
                .expect("region specializes");
            dyncomp_ir::verify::verify(f).expect("specialized IR verifies");
            for &b in &spec.template_blocks {
                template_scope.insert(b);
            }
            specs.push((fid, spec));
        }
        if !f.regions.is_empty() {
            stats.push(optimize(
                f,
                &OptOptions {
                    cfg_simplify: false,
                    hole_scope: Some(template_scope),
                },
            ));
            dyncomp_ir::verify::verify(f).expect("optimized IR verifies");
        }
    }
    let compiled = dyncomp_codegen::compile_module(&mut module, &specs).expect("codegen");
    (stats, compiled)
}

fn unit_row(name: String, src: &str, comp: Comp) -> Row {
    let program = comp.compiler().compile(src).expect("unit compiles");
    let compiled = &program.compiled;
    let mut code = Fnv::new();
    words(&mut code, &compiled.code);
    let (mut templates, mut plans, mut holes) = (Fnv::new(), Fnv::new(), Fnv::new());
    for r in &compiled.regions {
        words(&mut templates, &r.template.code);
        for blk in &r.template.blocks {
            wire(&mut plans, &blk.plan);
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
    let opt = match replayable(comp) {
        None => 0,
        Some(lower) => {
            let (stats, replayed) = replay(src, &lower);
            assert_eq!(
                replayed.code, compiled.code,
                "{name}: the replay is the compiler"
            );
            let mut h = Fnv::new();
            for s in &stats {
                for v in [
                    s.folded,
                    s.branches_folded,
                    s.copies_propagated,
                    s.dead_removed,
                    s.cse_hits,
                    s.cfg_simplified,
                ] {
                    h.u64(v as u64);
                }
            }
            h.finish()
        }
    };
    (
        name,
        code.finish(),
        templates.finish(),
        plans.finish(),
        holes.finish(),
        module.finish(),
        spec.finish(),
        opt,
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
        .map(|&(n, a, b, c, d, e, f, g)| (n.to_string(), a, b, c, d, e, f, g))
        .collect();
    let moved: Vec<&Row> = got.iter().filter(|r| !want.contains(r)).collect();
    assert!(moved.is_empty(), "moved rows: {moved:#x?}\nall: {got:#x?}");
    assert_eq!(got, want);
}
