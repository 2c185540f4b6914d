//! Interned identifiers: each distinct name of a parse is stored once and
//! referred to by a [`Sym`], so scopes and tables key on a `u32`.
//!
//! The names come from the source a client submits, so they are hashed
//! with the standard library's keyed hasher, which crafted names cannot
//! make collide; the tables keyed by `Sym` use FxHash.

use std::collections::HashMap;

/// An interned identifier: an index into the [`Names`] of its parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Position in its [`Names`] (dense from 0, in order of first sight),
    /// for tables indexed by symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The identifiers of one parse, borrowed from its source.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Names<'a> {
    names: Vec<&'a str>,
    syms: HashMap<&'a str, Sym>,
}

impl<'a> Names<'a> {
    /// The symbol of `name`, interning it on first sight.
    pub fn intern(&mut self, name: &'a str) -> Sym {
        *self.syms.entry(name).or_insert_with(|| {
            self.names.push(name);
            Sym(self.names.len() as u32 - 1)
        })
    }

    /// The symbol of `name`, if the parse saw it.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.syms.get(name).copied()
    }

    /// How many distinct names the parse saw.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the parse saw no name.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name `sym` stands for.
    pub fn name(&self, sym: Sym) -> &'a str {
        self.names[sym.0 as usize]
    }
}
