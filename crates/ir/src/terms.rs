//! The argument list of an atom, inline up to two terms.

use crate::{Term, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// How many terms a [`Terms`] holds without a heap allocation. Every
/// relation of the paper's schemas (§5: `Reserve(user, dest)`,
/// `Friends(a, b)`, `User(name, home)`) is binary, and so is every atom
/// the workload generators build.
pub const INLINE_TERMS: usize = 2;

/// What fills the inline slots past the length; never read.
const PAD: Term = Term::Const(Value::Int(0));

/// The argument terms of an [`Atom`](crate::Atom), in schema order: a
/// small vector that keeps up to [`INLINE_TERMS`] terms inline and moves
/// to a heap `Vec<Term>` above that.
///
/// A `Terms` derefs (also mutably) to `[Term]`. Equality, ordering and
/// hashing are the slice's, so a `Terms` compares, sorts and hashes
/// exactly like the `Vec<Term>` with the same elements.
#[derive(Clone)]
pub struct Terms(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots are the terms.
    Inline(u8, [Term; INLINE_TERMS]),
    Heap(Vec<Term>),
}

impl Terms {
    /// No terms.
    pub const fn new() -> Self {
        Terms(Repr::Inline(0, [PAD; INLINE_TERMS]))
    }

    /// Appends a term; the third term moves the list to the heap.
    pub fn push(&mut self, term: Term) {
        match &mut self.0 {
            Repr::Inline(len, slots) if (*len as usize) < INLINE_TERMS => {
                slots[*len as usize] = term;
                *len += 1;
            }
            Repr::Inline(_, slots) => {
                let mut heap = Vec::with_capacity(2 * INLINE_TERMS);
                heap.extend_from_slice(slots);
                heap.push(term);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(term),
        }
    }

    /// The terms as a slice.
    pub fn as_slice(&self) -> &[Term] {
        match &self.0 {
            Repr::Inline(len, slots) => &slots[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }

    /// The terms as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [Term] {
        match &mut self.0 {
            Repr::Inline(len, slots) => &mut slots[..*len as usize],
            Repr::Heap(heap) => heap,
        }
    }

    /// True if the terms sit on the heap (more than [`INLINE_TERMS`]).
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl Default for Terms {
    fn default() -> Self {
        Terms::new()
    }
}

impl Deref for Terms {
    type Target = [Term];

    fn deref(&self) -> &[Term] {
        self.as_slice()
    }
}

impl DerefMut for Terms {
    fn deref_mut(&mut self) -> &mut [Term] {
        self.as_mut_slice()
    }
}

impl FromIterator<Term> for Terms {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        let iter = iter.into_iter();
        if iter.size_hint().0 > INLINE_TERMS {
            return Terms(Repr::Heap(iter.collect()));
        }
        let mut out = Terms::new();
        for term in iter {
            out.push(term);
        }
        out
    }
}

impl From<Vec<Term>> for Terms {
    /// Moves up to [`INLINE_TERMS`] terms inline (freeing the vector);
    /// a longer vector is kept as it is.
    fn from(terms: Vec<Term>) -> Self {
        if terms.len() > INLINE_TERMS {
            Terms(Repr::Heap(terms))
        } else {
            terms.into_iter().collect()
        }
    }
}

impl<const N: usize> From<[Term; N]> for Terms {
    fn from(terms: [Term; N]) -> Self {
        terms.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Terms {
    type Item = &'a Term;
    type IntoIter = std::slice::Iter<'a, Term>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut Terms {
    type Item = &'a mut Term;
    type IntoIter = std::slice::IterMut<'a, Term>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Terms {}

impl PartialOrd for Terms {
    fn partial_cmp(&self, other: &Terms) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Terms {
    fn cmp(&self, other: &Terms) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Terms {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Var};
    use std::mem::size_of;

    #[test]
    fn a_binary_atom_is_48_bytes() {
        assert_eq!(size_of::<Terms>(), 40);
        assert_eq!(size_of::<Atom>(), 48);
    }

    #[test]
    fn the_third_term_spills() {
        let mut terms = Terms::new();
        for i in 0..INLINE_TERMS as u32 {
            terms.push(Term::var(Var(i)));
            assert!(!terms.spilled());
        }
        terms.push(Term::int(7));
        assert!(terms.spilled());
        assert_eq!(
            &terms[..],
            &[Term::var(Var(0)), Term::var(Var(1)), Term::int(7)]
        );
    }

    #[test]
    fn short_vectors_move_inline() {
        let two = Terms::from(vec![Term::int(1), Term::int(2)]);
        assert!(!two.spilled());
        assert!(Terms::from(vec![Term::int(1); 3]).spilled());
        assert!(!Terms::from([Term::int(1)]).spilled());
        assert_eq!(format!("{two:?}"), "[1, 2]");
    }
}
