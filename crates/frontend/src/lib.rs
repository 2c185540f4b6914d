//! # dyncomp-frontend
//!
//! **MiniC**: a C-subset front end carrying the programmer annotations of
//! *"Fast, Effective Dynamic Compilation"* (PLDI 1996), §2:
//!
//! * `dynamicRegion key(k…) (v…) { … }` — delimit a dynamic region, name
//!   its run-time-constant variables and (optionally) the cache key;
//! * `unrolled for (…)` — ask for complete loop unrolling;
//! * `dynamic* p`, `p dynamic-> f`, `a dynamic[i]` — mark a dereference
//!   whose result is *not* constant even though the pointer is (for
//!   partially-constant data structures).
//!
//! The language covers the unstructured C the paper stresses — `switch`
//! with fall-through, `break`/`continue`, `goto` — plus structs, pointers,
//! arrays, doubles and function calls. The same source lowers either with
//! annotations honored (dynamic compilation) or ignored (the §5 static
//! baseline): see [`LowerOptions`].
//!
//! ## Example
//!
//! ```
//! use dyncomp_frontend::{compile, LowerOptions};
//!
//! let lowered = compile(
//!     "int addmul(int k, int x) {
//!          dynamicRegion (k) { return x * k + k; }
//!      }",
//!     &LowerOptions::default(),
//! )?;
//! let f = &lowered.module.funcs[dyncomp_ir::FuncId(0)];
//! assert_eq!(f.name, "addmul");
//! assert_eq!(f.regions.len(), 1);
//! # Ok::<(), dyncomp_frontend::FrontendError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod names;
pub mod parser;
pub mod types;

pub use lower::{lower, LowerError, LowerOptions, Lowered};
pub use parser::{parse, ParseError};
pub use types::{CType, TypeTable};

use std::fmt;

/// Any front-end failure: lexing/parsing or lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic / lowering error.
    Lower(LowerError),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => e.fmt(f),
            FrontendError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<LowerError> for FrontendError {
    fn from(e: LowerError) -> Self {
        FrontendError::Lower(e)
    }
}

/// Parse and lower MiniC source to an IR module (not yet SSA).
///
/// # Errors
/// Returns the first syntax or semantic error.
pub fn compile(src: &str, opts: &LowerOptions) -> Result<Lowered, FrontendError> {
    let prog = parse(src)?;
    Ok(lower(&prog, opts)?)
}

#[cfg(test)]
mod tests;
