//! # dyncomp-codegen
//!
//! Code generation from `dyncomp-ir` to SimAlpha for the PLDI'96 dynamic
//! compilation reproduction (§3.4): instruction selection, linear-scan
//! register allocation over the *whole* function (main body, set-up code
//! and templates together, so templates are optimized in the context of
//! their enclosing procedure), and emission of machine-code templates with
//! stitcher directives as a side effect of emitting template instructions.
//!
//! The module-level driver [`compile_module`] destructs SSA, emits every
//! function, lays out globals and the float-literal pool, resolves call
//! relocations, and packages per-region [`RegionCode`] for the run-time.
//! [`install`] loads the result into a [`Vm`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod emit;
pub mod regalloc;

use dyncomp_ir::eval::MEM_BASE;
use dyncomp_ir::{FuncId, Module};
use dyncomp_machine::asm::AsmError;
use dyncomp_machine::isa::{walk, Op};
use dyncomp_machine::template::RegionCode;
use dyncomp_machine::vm::Vm;
use dyncomp_specialize::RegionSpec;
use std::fmt;

/// Code-generation failure.
#[derive(Debug)]
pub enum CodegenError {
    /// Assembly failed (label or field range).
    Asm(AsmError),
    /// More than six call arguments.
    TooManyArgs(String),
    /// A call inside template code to a callee that transitively contains
    /// dynamic regions (re-entering the dynamic compiler mid-template
    /// would clobber the stitched code's linkage registers).
    CallInTemplate(String),
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Asm(e) => write!(f, "assembly failed: {e}"),
            CodegenError::TooManyArgs(n) => {
                write!(f, "function `{n}`: more than 6 call arguments")
            }
            CodegenError::CallInTemplate(n) => {
                write!(
                    f,
                    "function `{n}`: call inside a dynamic region to a callee that \
                     itself contains dynamic regions"
                )
            }
            CodegenError::Internal(m) => write!(f, "internal codegen error: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// One compiled function.
#[derive(Debug, Clone)]
pub struct CompiledFunc {
    /// Entry address in the module image.
    pub entry: u32,
    /// Function name.
    pub name: String,
}

/// A fully compiled module, ready to [`install`] into a VM.
#[derive(Debug)]
pub struct CompiledModule {
    /// The executable image (module base address is 0).
    pub code: Vec<u32>,
    /// Per-function entries, indexed by [`FuncId`].
    pub funcs: Vec<CompiledFunc>,
    /// Region table; `EnterRegion` immediates index into this.
    pub regions: Vec<RegionCode>,
    /// Global addresses in data memory, indexed by `GlobalId`.
    pub global_addrs: Vec<u64>,
    /// Float-literal pool contents: `(address, bits)`.
    pub float_pool: Vec<(u64, u64)>,
    /// First free data address after globals and pool (heap start).
    pub data_end: u64,
}

dyncomp_ir::codec! {
    struct CompiledFunc { entry: u32, name: String }
    struct CompiledModule {
        code: Vec<u32>,
        funcs: Vec<CompiledFunc>,
        regions: Vec<RegionCode>,
        global_addrs: Vec<u64>,
        float_pool: Vec<(u64, u64)>,
        data_end: u64,
    }
}

impl CompiledModule {
    /// Entry address of a function by name.
    pub fn entry_of(&self, name: &str) -> Option<u32> {
        self.funcs.iter().find(|f| f.name == name).map(|f| f.entry)
    }

    /// Whether everything the module refers to exists: every function
    /// entry inside the image, every `EnterRegion` / `EndSetup` operand
    /// inside the region table (the engine indexes by it), and every
    /// region's own references ([`RegionCode::check_refs`]).
    /// [`compile_module`] returns nothing else; a module decoded from
    /// untrusted bytes is checked before a session is built on it.
    ///
    /// # Errors
    /// What is out of range.
    pub fn check_refs(&self) -> Result<(), &'static str> {
        if self
            .funcs
            .iter()
            .any(|f| f.entry as usize >= self.code.len())
        {
            return Err("function entry outside the static image");
        }
        let stray_trap = walk(&self.code)
            .filter_map(|step| step.inst.ok())
            .any(|inst| {
                matches!(inst.op, Op::EnterRegion | Op::EndSetup)
                    && inst.imm as usize >= self.regions.len()
            });
        if stray_trap {
            return Err("trap names a region the module does not have");
        }
        self.regions
            .iter()
            .try_for_each(|rc| rc.check_refs(self.code.len()))
    }
}

/// Deterministic global layout, shared with the reference interpreter:
/// globals placed from [`MEM_BASE`], each aligned naturally.
pub fn layout_globals(m: &Module) -> (Vec<u64>, u64) {
    let mut addrs = Vec::new();
    let mut brk = MEM_BASE;
    for g in m.globals.iter() {
        let align = g.align.max(1);
        brk = (brk + align - 1) & !(align - 1);
        brk = (brk + 7) & !7; // bump allocator granularity
        addrs.push(brk);
        brk += g.size;
    }
    (addrs, (brk + 7) & !7)
}

/// Per-function flag: may this function be called from template code?
///
/// True iff the function is transitively free of dynamic regions: neither
/// it nor anything it (transitively) calls contains a region. Computed as
/// a taint fixpoint over the placed call graph.
pub fn template_callable(m: &Module) -> Vec<bool> {
    let n = m.funcs.len();
    // callers[g] = functions with a placed call to g.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut tainted = vec![false; n];
    let mut work: Vec<usize> = Vec::new();
    for (fid, f) in m.funcs.iter_enumerated() {
        if !f.regions.is_empty() {
            tainted[fid.index()] = true;
            work.push(fid.index());
        }
        for blk in f.blocks.iter() {
            for &i in &blk.insts {
                if let dyncomp_ir::InstKind::Call { callee, .. } = f.kind(i) {
                    if callee.index() < n {
                        callers[callee.index()].push(fid.index());
                    }
                }
            }
        }
    }
    while let Some(g) = work.pop() {
        for &c in &callers[g] {
            if !tainted[c] {
                tainted[c] = true;
                work.push(c);
            }
        }
    }
    tainted.iter().map(|&t| !t).collect()
}

/// Compile a module (post-specialization, still SSA) to machine code.
///
/// Destructs SSA in place. `specs` carries the [`RegionSpec`] of every
/// specialized region (may be empty for purely static modules).
///
/// # Errors
/// Returns a [`CodegenError`] on malformed input or emission failure.
pub fn compile_module(
    m: &mut Module,
    specs: &[(FuncId, RegionSpec)],
) -> Result<CompiledModule, CodegenError> {
    // Out of SSA.
    for f in m.funcs.iter_mut() {
        if f.is_ssa {
            dyncomp_ir::cfg::split_critical_edges(f);
            dyncomp_ir::out_of_ssa::destruct_ssa(f);
        }
    }

    let (global_addrs, globals_end) = layout_globals(m);
    let float_pool_addr = globals_end;
    let mut mcx = emit::ModuleCtx {
        global_addrs: global_addrs.clone(),
        float_pool: Default::default(),
        float_pool_addr,
        scratch: Default::default(),
    };

    // Which functions may be called from inside template code: only those
    // transitively free of dynamic regions. A tainted callee would
    // re-enter the dynamic compiler from stitched code, clobbering the
    // linkage registers the stitcher established for the current instance.
    let template_callable = template_callable(m);

    let mut code: Vec<u32> = Vec::new();
    let mut funcs = Vec::new();
    let mut regions: Vec<RegionCode> = Vec::new();
    let mut relocs: Vec<(u32, FuncId)> = Vec::new();
    // (global region index, word offset in that template, callee)
    let mut tmpl_relocs: Vec<(usize, u32, FuncId)> = Vec::new();

    // Each region's number is its place in the region table, so every
    // region needs its spec, in function then region order.
    let spec_regions = specs.iter().map(|(fid, s)| (*fid, s.region));
    let funcs_regions = m.funcs.iter_enumerated();
    let all_regions = funcs_regions.flat_map(|(fid, f)| f.regions.ids().map(move |r| (fid, r)));
    if !all_regions.eq(spec_regions) {
        return Err(CodegenError::Internal("a region without its spec".into()));
    }
    let region_bases = m.region_bases();
    let fids: Vec<FuncId> = m.funcs.ids().collect();
    for fid in fids {
        let fspecs: Vec<&RegionSpec> = specs
            .iter()
            .filter(|(f2, _)| *f2 == fid)
            .map(|(_, s)| s)
            .collect();
        let f = &m.funcs[fid];
        let emitted =
            emit::emit_function(f, &fspecs, region_bases[fid], &template_callable, &mut mcx)?;
        let base = code.len() as u32;
        for (_, mut rc) in emitted.regions {
            rc.enter_pc += base;
            rc.setup_pc += base;
            if let Some(p) = rc.fallback_pc.as_mut() {
                *p += base;
            }
            for pc in rc.exit_pcs.iter_mut() {
                *pc += base;
            }
            regions.push(rc);
        }
        for (w, callee) in emitted.call_relocs {
            relocs.push((base + w, callee));
        }
        for (rid, w, callee) in emitted.tmpl_relocs {
            tmpl_relocs.push((usize::from(region_bases[fid]) + rid.index(), w, callee));
        }
        funcs.push(CompiledFunc {
            entry: base,
            name: f.name.clone(),
        });
        code.extend(emitted.words);
    }

    // Patch call relocations: the Ldiw immediate is the word after the
    // instruction word.
    for (w, callee) in relocs {
        code[w as usize + 1] = funcs[callee.index()].entry;
    }

    // Patch template-call relocations with absolute callee entries.
    for (g, w, callee) in tmpl_relocs {
        regions[g].template.code[w as usize] = funcs[callee.index()].entry;
    }

    let mut float_pool: Vec<(u64, u64)> = mcx
        .float_pool
        .iter()
        .map(|(&bits, &off)| (float_pool_addr + u64::from(off), bits))
        .collect();
    float_pool.sort_unstable();
    let data_end = float_pool_addr + 8 * mcx.float_pool.len() as u64;

    Ok(CompiledModule {
        code,
        funcs,
        regions,
        global_addrs,
        float_pool,
        data_end: (data_end + 7) & !7,
    })
}

/// Load a compiled module into a fresh VM: code at address 0, global
/// initializers and the float pool written into data memory, heap opened
/// after them.
///
/// # Panics
/// Panics if the VM already holds code (module addresses are absolute).
pub fn install(cm: &CompiledModule, m: &Module, vm: &mut Vm) {
    assert!(vm.code.is_empty(), "install requires a fresh VM");
    vm.append_code(&cm.code);
    for (g, &addr) in m.globals.iter().zip(cm.global_addrs.iter()) {
        for (i, &byte) in g.init.iter().enumerate().take(g.size as usize) {
            vm.mem
                .write(addr + i as u64, dyncomp_ir::MemSize::B1, u64::from(byte))
                .expect("global initializer fits in memory");
        }
    }
    for &(addr, bits) in &cm.float_pool {
        vm.mem
            .write_u64(addr, bits)
            .expect("float pool fits in memory");
    }
    vm.mem.set_brk(cm.data_end);
}

#[cfg(test)]
mod tests;
