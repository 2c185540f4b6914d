//! Typed index newtypes and a small index-keyed vector.
//!
//! Every IR entity (block, instruction, variable, region, …) is referred to
//! by a dense integer id wrapped in a newtype, following the usual
//! compiler-IR idiom: ids are cheap to copy and hash, and [`IndexVec`] gives
//! O(1) id-to-entity access without lifetime entanglement.

use std::fmt;
use std::marker::PhantomData;

/// Types usable as a dense index key.
pub trait IdIndex: Copy + Eq + 'static {
    /// Construct from a raw index.
    ///
    /// # Panics
    /// Implementations may panic if `idx` exceeds the id's representation.
    fn from_index(idx: usize) -> Self;
    /// The raw index.
    fn index(self) -> usize;
}

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                assert!(idx <= u32::MAX as usize, "id overflow");
                $name(idx as u32)
            }
            /// The raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl IdIndex for $name {
            #[inline]
            fn from_index(idx: usize) -> Self {
                $name::from_index(idx)
            }
            #[inline]
            fn index(self) -> usize {
                $name::index(self)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// A basic block in a [`crate::Function`].
    BlockId,
    "b"
);
define_id!(
    /// An instruction; also names the SSA value the instruction defines.
    InstId,
    "v"
);
define_id!(
    /// A source-level variable (pre-SSA). Eliminated by SSA construction.
    VarId,
    "x"
);
define_id!(
    /// A function within a [`crate::Module`].
    FuncId,
    "f"
);
define_id!(
    /// A global datum within a [`crate::Module`].
    GlobalId,
    "g"
);
define_id!(
    /// A dynamic region within a [`crate::Function`].
    RegionId,
    "dr"
);

// On disk a function is its index; what decodes one checks it against
// the function table it arrived with.
crate::codec! { struct FuncId { 0: u32 } }

/// A vector keyed by a typed id.
///
/// A thin wrapper over `Vec<V>` that only admits indexing by `I`.
#[derive(Clone, PartialEq, Eq)]
pub struct IndexVec<I: IdIndex, V> {
    raw: Vec<V>,
    _marker: PhantomData<fn(I)>,
}

impl<I: IdIndex, V> IndexVec<I, V> {
    /// An empty vector.
    pub fn new() -> Self {
        IndexVec {
            raw: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// An empty vector with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        IndexVec {
            raw: Vec::with_capacity(cap),
            _marker: PhantomData,
        }
    }

    /// Make this `n` copies of `v`, keeping the storage: a table a
    /// scratch reuses from one function to the next.
    pub fn reset(&mut self, n: usize, v: V)
    where
        V: Clone,
    {
        self.raw.clear();
        self.raw.resize(n, v);
    }

    /// Make room for `n` more elements.
    pub fn reserve(&mut self, n: usize) {
        self.raw.reserve(n);
    }

    /// Append `v`, returning its id.
    pub fn push(&mut self, v: V) -> I {
        let id = I::from_index(self.raw.len());
        self.raw.push(v);
        id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The id the next `push` will return.
    pub fn next_id(&self) -> I {
        I::from_index(self.raw.len())
    }

    /// Iterate over `(id, &value)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &V)> {
        self.raw
            .iter()
            .enumerate()
            .map(|(i, v)| (I::from_index(i), v))
    }

    /// Iterate over values.
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.raw.iter()
    }

    /// Iterate mutably over values.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, V> {
        self.raw.iter_mut()
    }

    /// Iterate over all ids.
    pub fn ids(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len()).map(I::from_index)
    }

    /// Shared access, `None` when out of range.
    pub fn get(&self, id: I) -> Option<&V> {
        self.raw.get(id.index())
    }

    /// Mutable access, `None` when out of range.
    pub fn get_mut(&mut self, id: I) -> Option<&mut V> {
        self.raw.get_mut(id.index())
    }
}

impl<I: IdIndex, V> Default for IndexVec<I, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: IdIndex, V> std::ops::Index<I> for IndexVec<I, V> {
    type Output = V;
    fn index(&self, id: I) -> &V {
        &self.raw[id.index()]
    }
}

impl<I: IdIndex, V> std::ops::IndexMut<I> for IndexVec<I, V> {
    fn index_mut(&mut self, id: I) -> &mut V {
        &mut self.raw[id.index()]
    }
}

impl<I: IdIndex, V: fmt::Debug> fmt::Debug for IndexVec<I, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.raw.iter()).finish()
    }
}

impl<I: IdIndex, V> FromIterator<V> for IndexVec<I, V> {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        IndexVec {
            raw: iter.into_iter().collect(),
            _marker: PhantomData,
        }
    }
}

/// A dense set of ids, backed by a bit vector.
#[derive(Clone, PartialEq, Eq)]
pub struct IdSet<I: IdIndex> {
    bits: Vec<u64>,
    _marker: PhantomData<fn(I)>,
}

impl<I: IdIndex> Default for IdSet<I> {
    fn default() -> Self {
        IdSet::new()
    }
}

impl<I: IdIndex> IdSet<I> {
    /// An empty set.
    pub fn new() -> Self {
        IdSet {
            bits: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// An empty set sized for ids `< n`.
    pub fn with_domain(n: usize) -> Self {
        IdSet {
            bits: vec![0; n.div_ceil(64)],
            _marker: PhantomData,
        }
    }

    /// Insert `id`; returns true if newly inserted.
    pub fn insert(&mut self, id: I) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] |= 1 << b;
        !had
    }

    /// Remove `id`; returns true if it was present.
    pub fn remove(&mut self, id: I) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.bits.len() {
            return false;
        }
        let had = self.bits[w] & (1 << b) != 0;
        self.bits[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, id: I) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Make this an empty set sized for ids `< n`, keeping the storage.
    pub fn reset(&mut self, n: usize) {
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), 0);
    }

    /// Iterate members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        set_bits(&self.bits).map(I::from_index)
    }

    /// Set union in place; returns true if `self` changed.
    pub fn union_with(&mut self, other: &Self) -> bool {
        if self.bits.len() < other.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        let mut changed = false;
        for (a, &b) in self.bits.iter_mut().zip(other.bits.iter()) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Set intersection in place; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (i, a) in self.bits.iter_mut().enumerate() {
            let b = other.bits.get(i).copied().unwrap_or(0);
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }
}

/// The positions of the set bits of a bit vector, ascending: bit `b` of
/// word `w` is position `64 * w + b`.
#[inline]
pub fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let b = rest.trailing_zeros() as usize;
            (rest != 0).then(|| {
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

impl<I: IdIndex> fmt::Debug for IdSet<I>
where
    I: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<I: IdIndex> FromIterator<I> for IdSet<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut s = IdSet::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_vec_push_and_index() {
        let mut v: IndexVec<BlockId, &str> = IndexVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a, BlockId(0));
        assert_eq!(b, BlockId(1));
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
        assert_eq!(v.len(), 2);
        assert_eq!(v.next_id(), BlockId(2));
    }

    #[test]
    fn index_vec_enumerated_matches_ids() {
        let v: IndexVec<InstId, i32> = [10, 20, 30].into_iter().collect();
        let pairs: Vec<_> = v.iter_enumerated().map(|(i, &x)| (i.0, x)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn id_set_insert_remove_contains() {
        let mut s: IdSet<InstId> = IdSet::new();
        assert!(s.insert(InstId(3)));
        assert!(!s.insert(InstId(3)));
        assert!(s.contains(InstId(3)));
        assert!(!s.contains(InstId(2)));
        assert!(s.insert(InstId(200)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(InstId(3)));
        assert!(!s.remove(InstId(3)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![InstId(200)]);
    }

    #[test]
    fn id_set_union_intersect() {
        let a: IdSet<InstId> = [InstId(1), InstId(5), InstId(64)].into_iter().collect();
        let b: IdSet<InstId> = [InstId(5), InstId(70)].into_iter().collect();
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.len(), 4);
        assert!(!u.union_with(&b));
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![InstId(5)]);
    }

    #[test]
    fn id_set_empty_and_clear() {
        let mut s: IdSet<BlockId> = IdSet::with_domain(100);
        assert!(s.is_empty());
        s.insert(BlockId(99));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
