//! Reachability conditions: disjunctions of conjunctions of constant-branch
//! outcomes, in conjunctive-normal-form set representation (Appendix A.2).
//!
//! A [`Literal`] `B→S` asserts that constant branch `B` (2-way or n-way)
//! takes its successor arc number `S`. A [`Cond`] is a *set of sets*: the
//! outer set is a disjunction, each inner set a conjunction. The paper's
//! example: `{{A→T}, {A→F, B→1}}` means "A's predicate is true, or A's
//! predicate is false and B's switch value takes case 1".
//!
//! Two literals of the same branch with different arcs are mutually
//! exclusive, which gives both the contradiction pruning inside
//! conjunctions and the [`Cond::exclusive`] test used to identify constant
//! merges.

use dyncomp_ir::BlockId;
use std::fmt;

/// `B→S`: constant branch at block `B` takes successor arc `S`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Literal {
    /// Block whose terminator is the constant branch.
    pub branch: BlockId,
    /// Index into the terminator's successor list.
    pub succ: u32,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.branch, self.succ)
    }
}

/// A conjunction: literals in ascending order, each at most once.
type Conj = Vec<Literal>;

/// Number of successor arcs of each constant branch, used by the
/// "covers all successors" simplification.
pub trait BranchArity {
    /// How many successor arcs the branch at `b` has.
    fn arity(&self, b: BlockId) -> u32;
}

/// A reachability condition in CNF-set representation.
///
/// `Cond::f()` (empty disjunction) is *false* — the strongest condition,
/// the lattice top of the analysis. `Cond::t()` (the set containing the
/// empty conjunction) is *true* — the weakest.
///
/// Both levels are sets kept as sorted, duplicate-free vectors: the
/// disjuncts in ascending lexicographic order, which is the order a set of
/// sets iterates in, so every operation visits them as a set would.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cond {
    terms: Vec<Conj>,
}

/// Cap on the number of disjuncts before a condition is widened to *true*.
///
/// The paper notes the worst case is exponential in the number of constant
/// branches but small in practice; widening to *true* only loses precision
/// (a merge is then conservatively non-constant), never soundness.
pub const MAX_TERMS: usize = 128;

impl Cond {
    /// The *false* condition (unreachable); identity of `or`.
    pub fn f() -> Self {
        Cond { terms: Vec::new() }
    }

    /// The *true* condition (always reachable); identity of `and`.
    pub fn t() -> Self {
        Cond {
            terms: vec![Conj::new()],
        }
    }

    /// Whether this is the *false* condition.
    pub fn is_false(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this is exactly the *true* condition.
    pub fn is_true(&self) -> bool {
        matches!(&self.terms[..], [c] if c.is_empty())
    }

    /// A condition of a single literal.
    pub fn literal(lit: Literal) -> Self {
        Cond {
            terms: vec![vec![lit]],
        }
    }

    /// Number of disjuncts.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Conjoin the literal onto every disjunct (the branch flow function of
    /// Appendix A.2). Disjuncts contradicting the literal are dropped.
    #[must_use]
    pub fn and_literal(&self, lit: Literal) -> Self {
        let mut terms: Vec<Conj> = Vec::with_capacity(self.terms.len());
        for conj in &self.terms {
            if conj
                .iter()
                .any(|l| l.branch == lit.branch && l.succ != lit.succ)
            {
                continue; // contradiction: this disjunct can't co-occur
            }
            let mut c = conj.clone();
            if let Err(at) = c.binary_search(&lit) {
                c.insert(at, lit);
            }
            terms.push(c);
        }
        Cond::from_terms(terms)
    }

    /// Disjoin two conditions (the merge meet function of Appendix A.2),
    /// then simplify: subsumption pruning and the paper's
    /// `{{A→T,CS},{A→F,CS}} → {{CS}}` successor-cover rule. The disjuncts
    /// of both move into the result.
    #[must_use]
    pub fn or(self, other: Self, arity: &dyn BranchArity) -> Self {
        let mut terms = if self.terms.is_empty() {
            other.terms
        } else if other.terms.is_empty() {
            self.terms
        } else {
            let mut terms: Vec<Conj> = Vec::with_capacity(self.terms.len() + other.terms.len());
            let (mut a, mut b) = (
                self.terms.into_iter().peekable(),
                other.terms.into_iter().peekable(),
            );
            loop {
                let next = match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) if x < y => a.next(),
                    (Some(x), Some(y)) if x > y => b.next(),
                    (Some(_), Some(_)) => {
                        b.next();
                        a.next()
                    }
                    (Some(_), None) => a.next(),
                    (None, _) => b.next(),
                };
                match next {
                    Some(c) => terms.push(c),
                    None => break,
                }
            }
            terms
        };
        simplify(&mut terms, arity);
        if terms.len() > MAX_TERMS {
            return Cond::t(); // widen: weakest condition, sound
        }
        Cond { terms }
    }

    /// The paper's mutual-exclusion test: `exclusive(cn1, cn2)` iff every
    /// pair of disjuncts contains literals of the same branch with
    /// different successor arcs (so the conjunction `cn1 ∧ cn2` is
    /// syntactically unsatisfiable).
    ///
    /// *false* is exclusive with everything (an unreachable predecessor
    /// never conflicts).
    pub fn exclusive(&self, other: &Self) -> bool {
        self.terms.iter().all(|c1| {
            other.terms.iter().all(|c2| {
                c1.iter().any(|l1| {
                    c2.iter()
                        .any(|l2| l1.branch == l2.branch && l1.succ != l2.succ)
                })
            })
        })
    }

    /// Iterate the disjuncts (each a sorted set of literals).
    pub fn iter_terms(&self) -> impl Iterator<Item = &[Literal]> {
        self.terms.iter().map(Vec::as_slice)
    }

    /// Existentially quantify away every literal whose branch satisfies
    /// `drop` (a strict weakening, hence always sound).
    ///
    /// Needed at unrolled-loop boundaries: a constant branch *inside* an
    /// unrolled loop takes a different outcome in every unrolled copy, so
    /// its literals prove mutual exclusion only *within* one iteration.
    /// Conditions flowing out of the loop (exit arcs) or into the next
    /// iteration (back edges) must forget them.
    #[must_use]
    pub fn forget(&self, drop: impl Fn(BlockId) -> bool) -> Self {
        Cond::from_terms(
            self.terms
                .iter()
                .map(|conj| conj.iter().copied().filter(|l| !drop(l.branch)).collect())
                .collect(),
        )
    }

    /// The set of the given disjuncts, each already a set.
    fn from_terms(mut terms: Vec<Conj>) -> Self {
        terms.sort_unstable();
        terms.dedup();
        Cond { terms }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_false() {
            return write!(f, "⊥");
        }
        write!(f, "{{")?;
        for (i, conj) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, lit) in conj.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

/// Whether sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[Literal], b: &[Literal]) -> bool {
    let mut rest = b.iter();
    a.len() <= b.len() && a.iter().all(|x| rest.any(|y| y == x))
}

/// Whether `a` without its literal at `i` equals `b` without its literal
/// at `j` (`a` and `b` of equal length).
fn equal_except(a: &[Literal], i: usize, b: &[Literal], j: usize) -> bool {
    fn without(c: &[Literal], k: usize) -> impl Iterator<Item = &Literal> {
        c.iter()
            .enumerate()
            .filter(move |&(n, _)| n != k)
            .map(|(_, l)| l)
    }
    without(a, i).eq(without(b, j))
}

/// Subsumption + successor-cover simplification, iterated to a fixpoint.
fn simplify(terms: &mut Vec<Conj>, arity: &dyn BranchArity) {
    // One disjunct (or none) is already simplest: nothing can subsume it
    // and a cover needs two.
    if terms.len() <= 1 {
        return;
    }
    // Work lists, allocated once per call.
    let mut keep: Vec<bool> = Vec::with_capacity(terms.len());
    let mut covered: Vec<u32> = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    loop {
        // Subsumption: a disjunct that is a superset of another is
        // redundant. Whatever order pairs are checked in, exactly the
        // minimal disjuncts remain.
        keep.clear();
        keep.extend(
            terms
                .iter()
                .map(|b| !terms.iter().any(|a| a != b && is_subset(a, b))),
        );
        let mut changed = keep.contains(&false);
        let mut k = keep.iter();
        terms.retain(|_| *k.next().expect("one flag per disjunct"));

        // Successor cover: disjuncts equal up to one branch's literal, whose
        // literals jointly cover every successor arc of that branch, merge
        // into the shared remainder. The first cover found, in set order,
        // is applied; then the whole simplification runs again.
        let mut cover: Option<Conj> = None;
        'outer: for a in terms.iter() {
            for (ia, la) in a.iter().enumerate() {
                // Find all disjuncts of the form rest ∪ {la.branch→*}.
                covered.clear();
                members.clear();
                for (m, b) in terms.iter().enumerate() {
                    if b.len() != a.len() {
                        continue;
                    }
                    let Some(ib) = b.iter().position(|l| l.branch == la.branch) else {
                        continue;
                    };
                    if equal_except(a, ia, b, ib) {
                        if !covered.contains(&b[ib].succ) {
                            covered.push(b[ib].succ);
                        }
                        members.push(m);
                    }
                }
                if covered.len() as u32 >= arity.arity(la.branch) && covered.len() > 1 {
                    let mut rest = a.clone();
                    rest.remove(ia);
                    cover = Some(rest);
                    break 'outer;
                }
            }
        }
        if let Some(rest) = cover {
            let mut m = 0;
            terms.retain(|_| {
                m += 1;
                members.binary_search(&(m - 1)).is_err()
            });
            if let Err(at) = terms.binary_search(&rest) {
                terms.insert(at, rest);
            }
            changed = true;
        }

        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl BranchArity for HashMap<BlockId, u32> {
        fn arity(&self, b: BlockId) -> u32 {
            *self.get(&b).expect("arity queried for unknown branch")
        }
    }

    fn lit(b: u32, s: u32) -> Literal {
        Literal {
            branch: BlockId(b),
            succ: s,
        }
    }

    fn arity2(branches: &[u32]) -> HashMap<BlockId, u32> {
        branches.iter().map(|&b| (BlockId(b), 2)).collect()
    }

    #[test]
    fn true_false_identities() {
        let ar = arity2(&[0]);
        let l = Cond::literal(lit(0, 0));
        assert_eq!(Cond::f().or(l.clone(), &ar), l);
        assert_eq!(Cond::t().and_literal(lit(0, 0)), l);
        assert!(Cond::f().is_false());
        assert!(Cond::t().is_true());
        assert!(!l.is_true());
        assert!(!l.is_false());
    }

    #[test]
    fn contradiction_prunes_disjunct() {
        // (A→0) ∧ A→1 = false
        let c = Cond::literal(lit(0, 0)).and_literal(lit(0, 1));
        assert!(c.is_false());
    }

    #[test]
    fn idempotent_literal() {
        let c = Cond::literal(lit(0, 0)).and_literal(lit(0, 0));
        assert_eq!(c, Cond::literal(lit(0, 0)));
    }

    #[test]
    fn paper_simplification_rule() {
        // {{A→T, CS}, {A→F, CS}} → {{CS}} where CS = {B→1}
        let ar = arity2(&[0, 1]);
        let c1 = Cond::literal(lit(0, 0)).and_literal(lit(1, 1));
        let c2 = Cond::literal(lit(0, 1)).and_literal(lit(1, 1));
        let merged = c1.clone().or(c2.clone(), &ar);
        assert_eq!(merged, Cond::literal(lit(1, 1)));
    }

    #[test]
    fn partial_cover_does_not_simplify() {
        // 3-way switch: two of three arcs covered — no merge.
        let mut ar: HashMap<BlockId, u32> = HashMap::new();
        ar.insert(BlockId(0), 3);
        let c1 = Cond::literal(lit(0, 0));
        let c2 = Cond::literal(lit(0, 1));
        let merged = c1.clone().or(c2.clone(), &ar);
        assert_eq!(merged.num_terms(), 2);
    }

    #[test]
    fn full_switch_cover_simplifies() {
        let mut ar: HashMap<BlockId, u32> = HashMap::new();
        ar.insert(BlockId(0), 3);
        let c = Cond::literal(lit(0, 0))
            .or(Cond::literal(lit(0, 1)), &ar)
            .or(Cond::literal(lit(0, 2)), &ar);
        assert!(c.is_true());
    }

    #[test]
    fn subsumption() {
        // {A→0} ∨ {A→0, B→1} = {A→0}
        let ar = arity2(&[0, 1]);
        let strong = Cond::literal(lit(0, 0)).and_literal(lit(1, 1));
        let weak = Cond::literal(lit(0, 0));
        assert_eq!(weak.clone().or(strong.clone(), &ar), weak);
        assert_eq!(strong.or(weak.clone(), &ar), weak);
    }

    #[test]
    fn exclusivity_same_branch_different_arcs() {
        let a = Cond::literal(lit(0, 0));
        let b = Cond::literal(lit(0, 1));
        assert!(a.exclusive(&b));
        assert!(b.exclusive(&a));
        assert!(!a.exclusive(&a));
    }

    #[test]
    fn exclusivity_of_paper_switch_example() {
        // From §3.1's unstructured example, upper graph: the three merge
        // predecessor conditions after `switch (b)` inside `else`:
        //   M-side: {{a→T}};  N-side: {{a→F, b→1}};  O-side after N fallthrough:
        //   {{a→F,b→1},{a→F,b→2}}.
        let ar: HashMap<BlockId, u32> = [(BlockId(0), 2), (BlockId(1), 3)].into_iter().collect();
        let m = Cond::literal(lit(0, 0));
        let n = Cond::literal(lit(0, 1)).and_literal(lit(1, 0));
        let o = n
            .clone()
            .or(Cond::literal(lit(0, 1)).and_literal(lit(1, 1)), &ar);
        // Merge of M and O's continuation is exclusive (a→T vs a→F).
        assert!(m.exclusive(&o));
        // N vs O's second disjunct share b-literals that differ.
        let p = Cond::literal(lit(0, 1)).and_literal(lit(1, 2));
        assert!(o.exclusive(&p));
    }

    #[test]
    fn non_exclusive_when_no_common_branch() {
        let a = Cond::literal(lit(0, 0));
        let b = Cond::literal(lit(1, 0));
        assert!(!a.exclusive(&b));
    }

    #[test]
    fn false_is_exclusive_with_everything() {
        let a = Cond::literal(lit(0, 0));
        assert!(Cond::f().exclusive(&a));
        assert!(a.exclusive(&Cond::f()));
        assert!(Cond::f().exclusive(&Cond::t()));
    }

    #[test]
    fn true_is_not_exclusive() {
        assert!(!Cond::t().exclusive(&Cond::t()));
        assert!(!Cond::t().exclusive(&Cond::literal(lit(0, 0))));
    }

    #[test]
    fn widening_over_cap_goes_true() {
        // Build > MAX_TERMS incomparable disjuncts.
        let mut ar: HashMap<BlockId, u32> = HashMap::new();
        for i in 0..(MAX_TERMS as u32 + 2) {
            ar.insert(BlockId(i), 2);
        }
        // Terms {B_i→0, B_{i+1}→1}: pairwise non-subsuming, non-covering.
        let mut c = Cond::f();
        for i in 0..(MAX_TERMS as u32 + 1) {
            let t = Cond::literal(lit(i, 0)).and_literal(lit(i + 1, 1));
            c = c.or(t.clone(), &ar);
        }
        assert!(c.is_true());
    }

    #[test]
    fn display_formats() {
        let c = Cond::literal(lit(3, 1));
        assert_eq!(c.to_string(), "{{b3→1}}");
        assert_eq!(Cond::f().to_string(), "⊥");
        assert_eq!(Cond::t().to_string(), "{{}}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dyncomp_ir::prng::SplitMix64;
    use std::collections::HashMap;

    /// A random small condition over 4 two-way branches.
    fn random_cond(rng: &mut SplitMix64) -> Cond {
        let arity: HashMap<BlockId, u32> = (0..4).map(|b| (BlockId(b), 2)).collect();
        let mut c = Cond::f();
        for _ in 0..rng.below(4) {
            let mut term = Cond::t();
            for _ in 0..rng.below(3) {
                term = term.and_literal(Literal {
                    branch: BlockId(rng.below(4) as u32),
                    succ: rng.below(2) as u32,
                });
            }
            c = c.or(term, &arity);
        }
        c
    }

    fn random_outcomes(rng: &mut SplitMix64) -> [u32; 4] {
        [
            rng.below(2) as u32,
            rng.below(2) as u32,
            rng.below(2) as u32,
            rng.below(2) as u32,
        ]
    }

    fn arity4() -> HashMap<BlockId, u32> {
        (0..4).map(|b| (BlockId(b), 2)).collect()
    }

    /// Evaluate a condition under a concrete branch-outcome assignment.
    fn eval(c: &Cond, outcomes: &[u32; 4]) -> bool {
        c.iter_terms()
            .any(|conj| conj.iter().all(|l| outcomes[l.branch.index()] == l.succ))
    }

    #[test]
    fn or_is_union_semantically() {
        let mut rng = SplitMix64::new(0xc0_0001);
        for _ in 0..500 {
            let a = random_cond(&mut rng);
            let b = random_cond(&mut rng);
            let outcomes = random_outcomes(&mut rng);
            let joined = a.clone().or(b.clone(), &arity4());
            assert_eq!(
                eval(&joined, &outcomes),
                eval(&a, &outcomes) || eval(&b, &outcomes)
            );
        }
    }

    #[test]
    fn and_literal_is_conjunction_semantically() {
        let mut rng = SplitMix64::new(0xc0_0002);
        for _ in 0..500 {
            let a = random_cond(&mut rng);
            let br = rng.below(4) as u32;
            let s = rng.below(2) as u32;
            let outcomes = random_outcomes(&mut rng);
            let lit = Literal {
                branch: BlockId(br),
                succ: s,
            };
            let c = a.and_literal(lit);
            assert_eq!(
                eval(&c, &outcomes),
                eval(&a, &outcomes) && outcomes[br as usize] == s
            );
        }
    }

    #[test]
    fn exclusive_is_sound() {
        let mut rng = SplitMix64::new(0xc0_0003);
        for _ in 0..500 {
            let a = random_cond(&mut rng);
            let b = random_cond(&mut rng);
            // If the syntactic test claims exclusivity, no assignment may
            // satisfy both (soundness; completeness is not promised).
            if a.exclusive(&b) {
                let outcomes = random_outcomes(&mut rng);
                assert!(
                    !(eval(&a, &outcomes) && eval(&b, &outcomes)),
                    "exclusive conditions both true under {outcomes:?}"
                );
            }
        }
    }

    #[test]
    fn exclusive_is_symmetric() {
        let mut rng = SplitMix64::new(0xc0_0004);
        for _ in 0..500 {
            let a = random_cond(&mut rng);
            let b = random_cond(&mut rng);
            assert_eq!(a.exclusive(&b), b.exclusive(&a));
        }
    }

    #[test]
    fn forget_weakens() {
        let mut rng = SplitMix64::new(0xc0_0005);
        for _ in 0..500 {
            let a = random_cond(&mut rng);
            let br = rng.below(4) as u32;
            let outcomes = random_outcomes(&mut rng);
            let f = a.forget(|b| b == BlockId(br));
            // Weakening: wherever a holds, forget(a) holds.
            if eval(&a, &outcomes) {
                assert!(eval(&f, &outcomes));
            }
            // And the forgotten branch no longer appears.
            for conj in f.iter_terms() {
                assert!(conj.iter().all(|l| l.branch != BlockId(br)));
            }
        }
    }

    #[test]
    fn or_identity_and_idempotence() {
        let mut rng = SplitMix64::new(0xc0_0006);
        for _ in 0..500 {
            let a = random_cond(&mut rng);
            assert_eq!(a.clone().or(Cond::f(), &arity4()), a.clone());
            let doubled = a.clone().or(a.clone(), &arity4());
            // Idempotent up to semantics.
            for outcomes in [[0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]] {
                assert_eq!(eval(&doubled, &outcomes), eval(&a, &outcomes));
            }
        }
    }
}
