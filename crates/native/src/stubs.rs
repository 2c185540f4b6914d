//! Pre-assembled x86-64 micro-stubs and the copy-and-patch writer.
//!
//! Each SimAlpha template operation lowers to a short chain of
//! *micro-stubs*: byte sequences assembled once, at build time, into the
//! `const` tables below. A stub carries at most one 32-bit little-endian
//! *hole* (a context-slot displacement or an immediate); translating an
//! instruction is a bulk copy of the stub bytes plus an O(holes) patch —
//! the same copy-and-patch shape the VM-side stitcher uses for SimAlpha
//! template words, lowered to host bytes.
//!
//! Register conventions inside generated code (all callee-saved, so the
//! C entry shim only pushes/pops three registers):
//!
//! * `r15` — pointer to the [`crate::NativeCtx`] context block,
//! * `r13` — base pointer of simulated data memory,
//! * `r12` — length of simulated data memory in bytes,
//! * `rax`/`rcx`/`rdx` — operand scratch (`a`, `b`, and spare),
//! * `xmm0`/`xmm1` — float operand scratch.

/// A pre-assembled byte template with at most one 32-bit LE hole.
#[derive(Clone, Copy)]
pub struct MicroStub {
    /// The stub bytes (hole bytes are zero placeholders).
    pub bytes: &'static [u8],
    /// Byte offset of the 4-byte hole, if the stub has one.
    pub hole: Option<usize>,
}

macro_rules! stub {
    ($name:ident = [$($b:expr),* $(,)?]) => {
        #[allow(missing_docs)]
        pub const $name: MicroStub = MicroStub { bytes: &[$($b),*], hole: None };
    };
    ($name:ident = [$($b:expr),* $(,)?] @ $h:expr) => {
        #[allow(missing_docs)]
        pub const $name: MicroStub = MicroStub { bytes: &[$($b),*], hole: Some($h) };
    };
}

// ---- context-slot moves (hole = disp32 off r15) ----
stub!(LD_SLOT_RAX = [0x49, 0x8B, 0x87, 0, 0, 0, 0] @ 3); // mov rax, [r15+d32]
stub!(LD_SLOT_RCX = [0x49, 0x8B, 0x8F, 0, 0, 0, 0] @ 3); // mov rcx, [r15+d32]
stub!(LD_SLOT_RDX = [0x49, 0x8B, 0x97, 0, 0, 0, 0] @ 3); // mov rdx, [r15+d32]
stub!(ST_RAX_SLOT = [0x49, 0x89, 0x87, 0, 0, 0, 0] @ 3); // mov [r15+d32], rax
stub!(ST_RDX_SLOT = [0x49, 0x89, 0x97, 0, 0, 0, 0] @ 3); // mov [r15+d32], rdx
stub!(MOVSD_X0_SLOT = [0xF2, 0x41, 0x0F, 0x10, 0x87, 0, 0, 0, 0] @ 5); // movsd xmm0,[r15+d32]
stub!(MOVSD_X1_SLOT = [0xF2, 0x41, 0x0F, 0x10, 0x8F, 0, 0, 0, 0] @ 5); // movsd xmm1,[r15+d32]
stub!(MOVSD_SLOT_X0 = [0xF2, 0x41, 0x0F, 0x11, 0x87, 0, 0, 0, 0] @ 5); // movsd [r15+d32],xmm0

// ---- immediates (hole = imm32) ----
stub!(MOV_ECX_IMM = [0xB9, 0, 0, 0, 0] @ 1); // mov ecx, imm32 (zero-extends)
stub!(MOV_EAX_IMM = [0xB8, 0, 0, 0, 0] @ 1); // mov eax, imm32 (zero-extends)
stub!(MOV_RAX_IMM32S = [0x48, 0xC7, 0xC0, 0, 0, 0, 0] @ 3); // mov rax, imm32 (sign-extends)
stub!(ADD_RAX_IMM32S = [0x48, 0x05, 0, 0, 0, 0] @ 2); // add rax, imm32 (sign-extends)

// ---- integer ALU cores (a in rax, b in rcx, result in rax) ----
stub!(ADD_RAX_RCX = [0x48, 0x01, 0xC8]);
stub!(SUB_RAX_RCX = [0x48, 0x29, 0xC8]);
stub!(IMUL_RAX_RCX = [0x48, 0x0F, 0xAF, 0xC1]);
stub!(AND_RAX_RCX = [0x48, 0x21, 0xC8]);
stub!(OR_RAX_RCX = [0x48, 0x09, 0xC8]);
stub!(XOR_RAX_RCX = [0x48, 0x31, 0xC8]);
stub!(NOT_RCX = [0x48, 0xF7, 0xD1]);
stub!(SHL_RAX_CL = [0x48, 0xD3, 0xE0]);
stub!(SHR_RAX_CL = [0x48, 0xD3, 0xE8]);
stub!(SAR_RAX_CL = [0x48, 0xD3, 0xF8]);
stub!(CMP_RAX_RCX = [0x48, 0x39, 0xC8]);
stub!(SETE_AL = [0x0F, 0x94, 0xC0]);
stub!(SETNE_AL = [0x0F, 0x95, 0xC0]);
stub!(SETL_AL = [0x0F, 0x9C, 0xC0]);
stub!(SETLE_AL = [0x0F, 0x9E, 0xC0]);
stub!(SETB_AL = [0x0F, 0x92, 0xC0]);
stub!(SETBE_AL = [0x0F, 0x96, 0xC0]);
stub!(SETA_AL = [0x0F, 0x97, 0xC0]);
stub!(SETAE_AL = [0x0F, 0x93, 0xC0]);
stub!(MOVZX_EAX_AL = [0x0F, 0xB6, 0xC0]);
stub!(MOVZX_EAX_AX = [0x0F, 0xB7, 0xC0]);
stub!(MOVSX_RAX_AL = [0x48, 0x0F, 0xBE, 0xC0]);
stub!(MOVSX_RAX_AX = [0x48, 0x0F, 0xBF, 0xC0]);
stub!(MOVSXD_RAX_EAX = [0x48, 0x63, 0xC0]);
stub!(MOV_EAX_EAX = [0x89, 0xC0]); // zero-extend low 32 bits
stub!(TEST_RAX_RAX = [0x48, 0x85, 0xC0]);
stub!(TEST_RCX_RCX = [0x48, 0x85, 0xC9]);
stub!(CMOVZ_RDX_RCX = [0x48, 0x0F, 0x44, 0xD1]);
stub!(CMOVNZ_RDX_RCX = [0x48, 0x0F, 0x45, 0xD1]);
stub!(CQO = [0x48, 0x99]);
stub!(IDIV_RCX = [0x48, 0xF7, 0xF9]);
stub!(DIV_RCX = [0x48, 0xF7, 0xF1]);
stub!(XOR_EDX_EDX = [0x31, 0xD2]);
stub!(MOV_RDX_RAX = [0x48, 0x89, 0xC2]); // bounds-check scratch (rcx may hold a store value)

/// Signed-divide operand check, part 2: `rcx == -1 && rax == i64::MIN`
/// falls through to the `je` (patched to the divide-fault blob by the
/// caller); any other operands skip ahead to the divide itself. The
/// trailing 4 hole bytes are the `je rel32` displacement.
///
/// ```text
///   cmp  rcx, -1            ; 48 83 F9 FF
///   jne  +19                ; 75 13  (skip movabs+cmp+je)
///   movabs rdx, 0x8000000000000000
///   cmp  rax, rdx           ; 48 39 D0
///   je   <div-fault>        ; 0F 84 <rel32 hole>
/// ```
pub const DIV_MIN_CHECK: MicroStub = MicroStub {
    bytes: &[
        0x48, 0x83, 0xF9, 0xFF, // cmp rcx, -1
        0x75, 0x13, // jne past the MIN test
        0x48, 0xBA, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // movabs rdx, i64::MIN
        0x48, 0x39, 0xD0, // cmp rax, rdx
        0x0F, 0x84, 0, 0, 0, 0, // je rel32 -> divide-fault blob
    ],
    hole: Some(21),
};

// ---- simulated-memory access ([r13 + rax], r12 = length) ----
stub!(LDBU_CORE = [0x41, 0x0F, 0xB6, 0x44, 0x05, 0x00]); // movzx eax, byte [r13+rax]
stub!(LDB_CORE = [0x49, 0x0F, 0xBE, 0x44, 0x05, 0x00]); // movsx rax, byte [r13+rax]
stub!(LDWU_CORE = [0x41, 0x0F, 0xB7, 0x44, 0x05, 0x00]); // movzx eax, word [r13+rax]
stub!(LDW_CORE = [0x49, 0x0F, 0xBF, 0x44, 0x05, 0x00]); // movsx rax, word [r13+rax]
stub!(LDLU_CORE = [0x41, 0x8B, 0x44, 0x05, 0x00]); // mov eax, dword [r13+rax]
stub!(LDL_CORE = [0x49, 0x63, 0x44, 0x05, 0x00]); // movsxd rax, dword [r13+rax]
stub!(LDQ_CORE = [0x49, 0x8B, 0x44, 0x05, 0x00]); // mov rax, qword [r13+rax]
stub!(STB_CORE = [0x41, 0x88, 0x4C, 0x05, 0x00]); // mov byte [r13+rax], cl
stub!(STW_CORE = [0x66, 0x41, 0x89, 0x4C, 0x05, 0x00]); // mov word [r13+rax], cx
stub!(STL_CORE = [0x41, 0x89, 0x4C, 0x05, 0x00]); // mov dword [r13+rax], ecx
stub!(STQ_CORE = [0x49, 0x89, 0x4C, 0x05, 0x00]); // mov qword [r13+rax], rcx
stub!(CMP_RDX_R12 = [0x4C, 0x39, 0xE2]); // cmp rdx, r12

// ---- direct-threaded chaining ----
stub!(CMP_RAX_SLOT = [0x49, 0x3B, 0x87, 0, 0, 0, 0] @ 3); // cmp rax, [r15+d32]
stub!(MOV_RCX_TABLE = [0x48, 0x8B, 0x0C, 0xC2]); // mov rcx, [rdx+rax*8]
stub!(JMP_RAX = [0xFF, 0xE0]);
stub!(JMP_RCX = [0xFF, 0xE1]);
stub!(MOV_RAX_RCX = [0x48, 0x89, 0xC8]);
stub!(INC_SLOT = [0x49, 0x83, 0x87, 0, 0, 0, 0, 0x01] @ 3); // add qword [r15+d32], 1

// ---- float cores ----
stub!(ADDSD_X0_X1 = [0xF2, 0x0F, 0x58, 0xC1]);
stub!(SUBSD_X0_X1 = [0xF2, 0x0F, 0x5C, 0xC1]);
stub!(MULSD_X0_X1 = [0xF2, 0x0F, 0x59, 0xC1]);
stub!(DIVSD_X0_X1 = [0xF2, 0x0F, 0x5E, 0xC1]);
stub!(SQRTSD_X0_X0 = [0xF2, 0x0F, 0x51, 0xC0]);
stub!(UCOMISD_X0_X1 = [0x66, 0x0F, 0x2E, 0xC1]);
stub!(UCOMISD_X1_X0 = [0x66, 0x0F, 0x2E, 0xC8]);
stub!(XOR_EAX_EAX = [0x31, 0xC0]);
stub!(JP_SKIP_SETCC = [0x7A, 0x03]); // jp +3: skip one setcc (unordered keeps 0)
stub!(CVTSI2SD_X0_RAX = [0xF2, 0x48, 0x0F, 0x2A, 0xC0]);

/// Saturating `f64 -> i64` fix-up run after `cvttsd2si rax, xmm0`
/// (`xmm0` still holds the source). Hardware yields the sentinel
/// `0x8000_0000_0000_0000` for NaN and out-of-range inputs; SimAlpha's
/// `Cvttq` (Rust `as` semantics) wants NaN → 0 and +overflow → `i64::MAX`,
/// with −overflow (and a genuine `i64::MIN`) left as the sentinel.
///
/// ```text
///   cvttsd2si rax, xmm0     ; F2 48 0F 2C C0
///   movabs rcx, 0x8000000000000000
///   cmp  rax, rcx
///   jne  done               ; not the sentinel: in-range result
///   ucomisd xmm0, xmm0
///   jnp  notnan
///   xor  eax, eax           ; NaN -> 0
///   jmp  done
/// notnan:
///   xorpd xmm1, xmm1
///   ucomisd xmm0, xmm1
///   jb   done               ; negative overflow: keep i64::MIN
///   movabs rax, 0x7FFFFFFFFFFFFFFF
/// done:
/// ```
pub const CVTTQ_CORE: MicroStub = MicroStub {
    bytes: &[
        0xF2, 0x48, 0x0F, 0x2C, 0xC0, // cvttsd2si rax, xmm0
        0x48, 0xB9, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // movabs rcx, i64::MIN
        0x48, 0x39, 0xC8, // cmp rax, rcx
        0x75, 0x1E, // jne done (+30)
        0x66, 0x0F, 0x2E, 0xC0, // ucomisd xmm0, xmm0
        0x7B, 0x04, // jnp notnan (+4)
        0x31, 0xC0, // xor eax, eax
        0xEB, 0x14, // jmp done (+20)
        0x66, 0x0F, 0x57, 0xC9, // notnan: xorpd xmm1, xmm1
        0x66, 0x0F, 0x2E, 0xC1, // ucomisd xmm0, xmm1
        0x72, 0x0A, // jb done (+10)
        0x48, 0xB8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, // movabs rax, i64::MAX
    ],
    hole: None,
};

/// `freg` negation: flip bit 63 of `rax` (value bits already loaded).
///
/// ```text
///   movabs rcx, 0x8000000000000000
///   xor  rax, rcx
/// ```
pub const FNEG_CORE: MicroStub = MicroStub {
    bytes: &[
        0x48, 0xB9, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // movabs rcx, 1<<63
        0x48, 0x31, 0xC8, // xor rax, rcx
    ],
    hole: None,
};

// ---- prologue / epilogue ----
stub!(PROLOGUE_PUSHES = [0x41, 0x57, 0x41, 0x55, 0x41, 0x54, 0x49, 0x89, 0xFF]); // push r15/r13/r12; mov r15, rdi
stub!(LD_R13_SLOT = [0x4D, 0x8B, 0xAF, 0, 0, 0, 0] @ 3); // mov r13, [r15+d32]
stub!(LD_R12_SLOT = [0x4D, 0x8B, 0xA7, 0, 0, 0, 0] @ 3); // mov r12, [r15+d32]
stub!(EPILOGUE = [0x41, 0x5C, 0x41, 0x5D, 0x41, 0x5F, 0xC3]); // pop r12/r13/r15; ret
stub!(ST_RAX_FAULT_ADDR_HOLE = [0x49, 0x89, 0x87, 0, 0, 0, 0] @ 3); // mov [r15+d32], rax

/// Condition codes for `jcc rel32` (`0x0F 0x80+cc`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cc {
    B = 0x2,  // unsigned below / carry
    Ae = 0x3, // unsigned at-or-above
    Z = 0x4,
    Nz = 0x5,
    A = 0x7, // unsigned above
    S = 0x8, // sign (negative)
    Ns = 0x9,
    Le = 0xE,
    G = 0xF,
}

/// Copy-and-patch byte writer: copies micro-stubs into the output buffer
/// and patches their holes; relative-branch fields are recorded for the
/// translator's fix-up pass.
#[derive(Default)]
pub struct Asm {
    buf: Vec<u8>,
}

impl Asm {
    /// A writer whose buffer holds `bytes` before it first grows.
    pub fn with_capacity(bytes: usize) -> Asm {
        Asm {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Current output offset.
    pub fn here(&self) -> usize {
        self.buf.len()
    }

    /// Finish, returning the bytes without spare capacity.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.shrink_to_fit();
        self.buf
    }

    /// Copy a stub with no hole.
    pub fn copy(&mut self, s: MicroStub) {
        debug_assert!(s.hole.is_none());
        self.buf.extend_from_slice(s.bytes);
    }

    /// Copy a stub and patch its 32-bit hole with `v`.
    pub fn patch(&mut self, s: MicroStub, v: u32) {
        let at = self.buf.len();
        self.buf.extend_from_slice(s.bytes);
        let h = at + s.hole.expect("stub has a hole");
        self.buf[h..h + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy a stub with a rel32 hole, returning the hole's byte offset
    /// for the fix-up pass.
    pub fn patch_rel(&mut self, s: MicroStub) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(s.bytes);
        at + s.hole.expect("stub has a hole")
    }

    /// `jcc rel32` with a pending target; returns the hole offset.
    pub fn jcc(&mut self, cc: Cc) -> usize {
        self.buf.extend_from_slice(&[0x0F, 0x80 + cc as u8]);
        let h = self.buf.len();
        self.buf.extend_from_slice(&[0, 0, 0, 0]);
        h
    }

    /// `jmp rel32` with a pending target; returns the hole offset.
    pub fn jmp(&mut self) -> usize {
        self.buf.push(0xE9);
        let h = self.buf.len();
        self.buf.extend_from_slice(&[0, 0, 0, 0]);
        h
    }

    /// `add rdx, imm8` (the memory-access length for the bounds check).
    pub fn add_rdx_imm8(&mut self, v: u8) {
        self.buf.extend_from_slice(&[0x48, 0x83, 0xC2, v]);
    }

    /// `cmp qword [r15+slot], imm32` (fuel check).
    pub fn cmp_slot_imm32(&mut self, slot: u32, v: u32) {
        self.buf.extend_from_slice(&[0x49, 0x81, 0xBF]);
        self.buf.extend_from_slice(&slot.to_le_bytes());
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `sub qword [r15+slot], imm32`.
    pub fn sub_slot_imm32(&mut self, slot: u32, v: u32) {
        self.buf.extend_from_slice(&[0x49, 0x81, 0xAF]);
        self.buf.extend_from_slice(&slot.to_le_bytes());
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `add qword [r15+slot], imm32`.
    pub fn add_slot_imm32(&mut self, slot: u32, v: u32) {
        self.buf.extend_from_slice(&[0x49, 0x81, 0x87]);
        self.buf.extend_from_slice(&slot.to_le_bytes());
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `mov qword [r15+slot], imm32` (sign-extends; used for exit pc,
    /// status, and fault pc, all small non-negative values).
    pub fn mov_slot_imm32(&mut self, slot: u32, v: u32) {
        debug_assert!(v < i32::MAX as u32);
        self.buf.extend_from_slice(&[0x49, 0xC7, 0x87]);
        self.buf.extend_from_slice(&slot.to_le_bytes());
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `movabs rax, imm64` (chain-target host addresses).
    pub fn movabs_rax(&mut self, v: u64) {
        self.buf.extend_from_slice(&[0x48, 0xB8]);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `movabs rcx, imm64` (guard key constants).
    pub fn movabs_rcx(&mut self, v: u64) {
        self.buf.extend_from_slice(&[0x48, 0xB9]);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Emit `n` single-byte NOPs (reserved guard sleds, patched later).
    pub fn nops(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0x90);
    }

    /// Patch a previously recorded rel32 hole to land on `target`.
    pub fn resolve(&mut self, hole: usize, target: usize) {
        let rel = target as i64 - (hole as i64 + 4);
        let rel = i32::try_from(rel).expect("instance fits rel32");
        self.buf[hole..hole + 4].copy_from_slice(&rel.to_le_bytes());
    }
}
