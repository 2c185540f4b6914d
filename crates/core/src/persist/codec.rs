//! Payloads of the two persisted object kinds: compiled [`Program`]
//! artifacts and stitched region instances.
//!
//! Every type inside a payload declares its own wire form
//! ([`dyncomp_ir::codec`]); what is written out here is what is not a
//! layout. [`write_program`] / [`read_program`] and [`write_instance`] /
//! [`read_instance`] own the identity checks (the hash, region and key a
//! file must carry for the path it was found under; trailing bytes), the
//! [`Module`] stubs rebuilt from persisted names, the native section's
//! presence flag, and the calls to the cross-reference checks
//! ([`CompiledModule::check_refs`], the function indices,
//! [`Stitched::patches_in_range`], [`dyncomp_native::Artifact::check_layout`]). A corrupt payload (one that
//! somehow passed the file checksum, or a re-sealed buffer) always fails
//! with a typed [`CodecError`] and never panics or over-allocates.
//!
//! A loaded [`Program`] is a *replica* of the compile output: the
//! machine image, region table, global layout and data-memory contents
//! are restored bit-exactly, while host-side inspection state is
//! rebuilt in reduced form — IR function bodies are not persisted (the
//! engine never executes IR), so `module.funcs` holds named stubs, and
//! `types` is empty. Everything a [`crate::Session`] touches is exact.

use crate::{InlineSite, Program};
use dyncomp_codegen::CompiledModule;
use dyncomp_frontend::TypeTable;
use dyncomp_ir::{FuncId, Function, Global, Module, Ty};
use dyncomp_machine::codec::{Codec, CodecError, Reader, Writer};
use dyncomp_native::codec::{read_artifact, write_artifact};
use dyncomp_specialize::SpecStats;
use dyncomp_stitcher::Stitched;

dyncomp_ir::codec! {
    struct InlineSite {
        func: FuncId,
        region_index: u16,
        callee: FuncId,
        callee_name: String,
        depth: u32,
        cloned_insts: usize,
    }
}

// ---------------------------------------------------------------------
// Program artifacts.

/// Encode `p` as an artifact payload: its hash, the compiled module, the
/// globals, the function names, the spec stats and the inline sites.
pub(crate) fn write_program(w: &mut Writer, p: &Program) {
    p.artifact_hash().encode(w);
    p.compiled.encode(w);
    w.seq(p.module.globals.iter().as_slice());
    let names: Vec<String> = p.module.funcs.iter().map(|f| f.name.clone()).collect();
    names.encode(w);
    p.spec_stats.encode(w);
    p.inline_sites.encode(w);
}

/// Decode an artifact payload. `expected_hash` is the hash the caller
/// derived the file path from; a mismatch (a renamed or spliced file)
/// is corruption, not a different artifact.
///
/// # Errors
/// [`CodecError`] on any structural problem or dangling reference.
pub(crate) fn read_program(r: &mut Reader<'_>, expected_hash: u64) -> Result<Program, CodecError> {
    let artifact_hash = u64::decode(r)?;
    if artifact_hash != expected_hash {
        return Err(r.err("artifact hash does not match its file name"));
    }
    let compiled = CompiledModule::decode(r)?;
    let globals = Vec::<Global>::decode(r)?;
    let names = Vec::<String>::decode(r)?;
    let spec_stats = Vec::<(FuncId, SpecStats)>::decode(r)?;
    let inline_sites = Vec::<InlineSite>::decode(r)?;
    if !r.is_exhausted() {
        return Err(r.err("trailing bytes after artifact payload"));
    }
    if names.len() != compiled.funcs.len() {
        return Err(r.err("function name count does not match compiled functions"));
    }
    // What `Compiler::compile` guarantees by construction, and the engine
    // therefore indexes by without asking.
    compiled.check_refs().map_err(|what| r.err(what))?;
    let known = |f: FuncId| f.index() < names.len();
    if !(spec_stats.iter().all(|&(f, _)| known(f))
        && inline_sites
            .iter()
            .all(|s| known(s.func) && known(s.callee)))
    {
        return Err(r.err("function index out of range"));
    }

    let mut module = Module::new();
    for g in globals {
        module.globals.push(g);
    }
    // IR bodies are not persisted: the engine executes the machine image,
    // never the IR. Named stubs keep function-indexed rendering working.
    for name in names {
        module.funcs.push(Function::new(name, Vec::new(), Ty::None));
    }
    Ok(Program {
        id: crate::NEXT_PROGRAM_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        artifact_hash,
        module,
        types: TypeTable::new(),
        compiled,
        spec_stats,
        inline_sites,
        native_snapshots: Default::default(),
    })
}

// ---------------------------------------------------------------------
// Stitched instances.

/// One stitched instance loaded from disk, pending the engine's
/// re-validation (`verify_code`, and `reads_match` for unkeyed regions).
pub(crate) struct LoadedInstance {
    /// The instance (plan patches are not persisted; the field is empty).
    pub stitched: Stitched,
    /// Code address the publishing session installed it at. Native stub
    /// bytes are only reusable when the loading session installs at the
    /// same address (deterministic replicas do).
    pub install_base: u32,
    /// Host-native translation, present only when the file carried one
    /// for *this* host tag ([`dyncomp_native::codec::host_tag`]).
    pub native: Option<dyncomp_native::Artifact>,
}

/// Encode one stitched instance: its identity (artifact hash, region,
/// key), the install base, the instance, and a flag byte followed by the
/// tagged native section when there is one.
pub(crate) fn write_instance(
    w: &mut Writer,
    artifact_hash: u64,
    region: u16,
    key: &[u64],
    stitched: &Stitched,
    install_base: u32,
    native: Option<&dyncomp_native::Artifact>,
) {
    artifact_hash.encode(w);
    region.encode(w);
    w.seq(key);
    install_base.encode(w);
    stitched.encode(w);
    native.is_some().encode(w);
    if let Some(a) = native {
        write_artifact(w, a);
    }
}

/// Decode one stitched instance, validating its identity against the
/// `(artifact_hash, region, key)` the caller derived the path from. A
/// key-hash collision (same file name, different key) decodes cleanly
/// but returns `Ok(None)` — it is another instance, not corruption.
///
/// # Errors
/// [`CodecError`] on any structural problem, including an artifact-hash
/// or region mismatch (those can only come from file tampering; the key
/// alone is hashed into the file name lossily).
pub(crate) fn read_instance(
    r: &mut Reader<'_>,
    artifact_hash: u64,
    region: u16,
    key: &[u64],
) -> Result<Option<LoadedInstance>, CodecError> {
    if u64::decode(r)? != artifact_hash {
        return Err(r.err("instance artifact hash does not match its directory"));
    }
    if u16::decode(r)? != region {
        return Err(r.err("instance region does not match its file name"));
    }
    let file_key = Vec::<u64>::decode(r)?;
    let install_base = u32::decode(r)?;
    let stitched = Stitched::decode(r)?;
    let native = if bool::decode(r)? {
        read_artifact(r)?
    } else {
        None
    };
    if !r.is_exhausted() {
        return Err(r.err("trailing bytes after instance payload"));
    }
    if !stitched.patches_in_range() {
        return Err(r.err("instance patch outside its code"));
    }
    // The native tables are jumped to and patched at install: they must
    // cover this instance at its install base and stay inside its bytes.
    if let Some(a) = &native {
        a.check_layout(install_base, stitched.code.len())
            .map_err(|what| r.err(what))?;
    }
    if file_key != key {
        return Ok(None);
    }
    Ok(Some(LoadedInstance {
        stitched,
        install_base,
        native,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;

    const SRC: &str = "int poly(int c, int x) {
        dynamicRegion (c) {
            return c * x * x + c * x + c;
        }
    }";

    #[test]
    fn program_round_trips_and_replica_runs_identically() {
        let p = Compiler::new().compile(SRC).unwrap();
        let mut w = Writer::new();
        write_program(&mut w, &p);
        let bytes = w.into_bytes();
        let back = read_program(&mut Reader::new(&bytes), p.artifact_hash()).unwrap();
        assert_eq!(back.artifact_hash(), p.artifact_hash());
        assert_ne!(back.id(), p.id());
        assert_eq!(
            format!("{:?}", back.compiled.code),
            format!("{:?}", p.compiled.code)
        );
        let mut cold = crate::Session::new(std::sync::Arc::new(p));
        let mut warm = crate::Session::new(std::sync::Arc::new(back));
        assert_eq!(
            cold.call("poly", &[3, 10]).unwrap(),
            warm.call("poly", &[3, 10]).unwrap()
        );
        assert_eq!(cold.cycles(), warm.cycles());
    }

    /// A global, a callee the inliner expands, and a keyed unrolled loop:
    /// every persisted collection of a [`Program`] is non-empty.
    const RICH_SRC: &str = "int table[4];
    int helper(int a, int b) { return a * b + table[1]; }
    int poly(int c, int x) {
        dynamicRegion key(c) (c) {
            int i; int acc = 0;
            unrolled for (i = 0; i < c; i++) { acc = acc + helper(c, x); }
            return acc;
        }
    }";

    fn payload(p: &Program) -> Vec<u8> {
        let mut w = Writer::new();
        write_program(&mut w, p);
        w.into_bytes()
    }

    #[test]
    fn declared_types_hold_their_wire_form() {
        use dyncomp_machine::codec::check_wire;
        let p = Compiler::with_inline_depth(2).compile(RICH_SRC).unwrap();
        assert!(!p.inline_sites.is_empty() && !p.spec_stats.is_empty());
        check_wire(&p.compiled.funcs[0]);
        check_wire(&p.compiled);
        check_wire(&p.module.globals.iter().cloned().collect::<Vec<Global>>());
        check_wire(&p.spec_stats);
        check_wire(&p.inline_sites);
        check_wire(&Compiler::tiered().compile(SRC).unwrap().compiled);
        let stitched = sample_stitched();
        check_wire(&stitched.stats);
        check_wire(&stitched);

        // The hand-written frame around them: every strict prefix of a
        // payload, and a payload under another file's hash, is refused.
        let bytes = payload(&p);
        for n in 0..bytes.len() {
            assert!(read_program(&mut Reader::new(&bytes[..n]), p.artifact_hash()).is_err());
        }
        assert!(read_program(&mut Reader::new(&bytes), p.artifact_hash() ^ 1).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(read_program(&mut Reader::new(&longer), p.artifact_hash()).is_err());
        assert!(read_program(&mut Reader::new(&bytes), p.artifact_hash()).is_ok());
    }

    #[test]
    fn dangling_references_are_refused_at_the_decode_boundary() {
        let reload = |p: &Program| read_program(&mut Reader::new(&payload(p)), p.artifact_hash());
        let fresh = || Compiler::with_inline_depth(2).compile(RICH_SRC).unwrap();
        assert!(reload(&fresh()).is_ok());
        let breakers: [fn(&mut Program); 7] = [
            // A static `EnterRegion` whose operand names no region: the
            // engine would index its region table with it.
            |p| {
                let pc = p.compiled.regions[0].enter_pc as usize;
                p.compiled.code[pc] = (p.compiled.code[pc] & !0x3FFF) | 0x80;
            },
            |p| p.compiled.funcs[0].entry = p.compiled.code.len() as u32,
            |p| p.compiled.regions[0].setup_pc = u32::MAX,
            |p| p.compiled.regions[0].exit_pcs.push(u32::MAX),
            |p| p.compiled.regions[0].template.entry = u32::MAX,
            |p| p.spec_stats[0].0 = FuncId(99),
            |p| p.inline_sites[0].callee = FuncId(99),
        ];
        for (i, breaker) in breakers.iter().enumerate() {
            let mut p = fresh();
            breaker(&mut p);
            assert!(reload(&p).is_err(), "breaker {i} loaded");
        }

        let mut stitched = sample_stitched();
        stitched.lin_addr_patches = vec![2]; // its payload word would be code[3]
        let mut w = Writer::new();
        write_instance(&mut w, 1, 0, &[], &stitched, 0, None);
        assert!(read_instance(&mut Reader::new(&w.into_bytes()), 1, 0, &[]).is_err());
    }

    /// A native section shaped like the translator's for
    /// [`sample_stitched`] installed at 100: three words, one entry and
    /// block, one exit site, one guard sled, in 64 bytes.
    fn sample_native() -> dyncomp_native::Artifact {
        dyncomp_native::Artifact {
            bytes: vec![0xCC; 64],
            entry_supported: true,
            indirect: true,
            instructions: 3,
            covered: 3,
            blocks: 1,
            base: 100,
            end: 103,
            entries: vec![(100, 0), (102, 40)],
            block_offsets: vec![(100, 16)],
            exit_sites: vec![(99, 20)],
            guard_areas: vec![dyncomp_native::translate::GuardArea {
                pc: 100,
                offset: 48,
                len: 16,
            }],
        }
    }

    #[test]
    fn native_sections_out_of_their_instance_are_refused() {
        let reload = |a: &dyncomp_native::Artifact| {
            let mut w = Writer::new();
            write_instance(&mut w, 1, 0, &[], &sample_stitched(), 100, Some(a));
            read_instance(&mut Reader::new(&w.into_bytes()), 1, 0, &[]).map(|_| ())
        };
        assert!(reload(&sample_native()).is_ok());
        type Breaker = fn(&mut dyncomp_native::Artifact);
        let breakers: [(&str, Breaker); 12] = [
            ("base", |a| a.base = 101),
            ("end", |a| a.end = 104),
            ("entry pc past the end", |a| a.entries[1].0 = 103),
            ("entry pc near u32::MAX", |a| a.entries[1].0 = u32::MAX - 1),
            ("entry offset", |a| a.entries[1].1 = 64),
            ("block pc", |a| a.block_offsets[0].0 = 99),
            ("block offset", |a| a.block_offsets[0].1 = u32::MAX),
            ("exit pc inside", |a| a.exit_sites[0].0 = 101),
            ("exit patch", |a| a.exit_sites[0].1 = 45),
            ("sled offset", |a| a.guard_areas[0].offset = 49),
            ("sled len", |a| a.guard_areas[0].len = u32::MAX),
            ("sled past the end", |a| a.guard_areas[0].offset = 64),
        ];
        for (what, breaker) in breakers {
            let mut a = sample_native();
            breaker(&mut a);
            assert!(reload(&a).is_err(), "{what}: loaded");
        }
    }

    fn sample_stitched() -> Stitched {
        Stitched {
            code: vec![1, 2, 3],
            lin_table_addr: 640,
            lin_words: vec![9, 8],
            lin_addr_patches: vec![0],
            lin_far_addr_patches: vec![(1, 8)],
            exit_patches: vec![(2, 77)],
            stats: dyncomp_stitcher::StitchStats {
                instructions_stitched: 3,
                cycles: 41,
                ..Default::default()
            },
            plan_patches: Vec::new(),
            native_bytes: 0,
            reads: vec![(640, 9)],
        }
    }

    #[test]
    fn instance_round_trips_and_foreign_key_is_none() {
        let stitched = sample_stitched();
        let mut w = Writer::new();
        write_instance(&mut w, 0xabcd, 2, &[5, 6], &stitched, 100, None);
        let bytes = w.into_bytes();
        let back = read_instance(&mut Reader::new(&bytes), 0xabcd, 2, &[5, 6])
            .unwrap()
            .unwrap();
        assert_eq!(back.install_base, 100);
        assert!(back.native.is_none());
        assert_eq!(format!("{:?}", back.stitched), format!("{stitched:?}"));
        // Same file name, different key: another instance, not corruption.
        assert!(read_instance(&mut Reader::new(&bytes), 0xabcd, 2, &[5, 7])
            .unwrap()
            .is_none());
        // Wrong artifact hash or region: tampering.
        assert!(read_instance(&mut Reader::new(&bytes), 0xabce, 2, &[5, 6]).is_err());
        assert!(read_instance(&mut Reader::new(&bytes), 0xabcd, 3, &[5, 6]).is_err());
        for n in 0..bytes.len() {
            assert!(read_instance(&mut Reader::new(&bytes[..n]), 0xabcd, 2, &[5, 6]).is_err());
        }
    }
}
