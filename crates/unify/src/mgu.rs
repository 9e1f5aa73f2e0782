//! Most general unifiers of atoms and term sequences.

use crate::{Conflict, Unifier};
use eq_ir::{Atom, Term, Var};

/// Most general unifier of two flat relational atoms, or `None` if they do
/// not unify (different relation, different arity, or clashing constants —
/// including clashes induced by repeated variables, which the positional
/// check of [`Atom::positionally_compatible`] cannot see).
///
/// The result records exactly the constraints a coordinating set must
/// satisfy for the head atom `h` to discharge the postcondition atom `p`
/// (§4.1.4: "the most general unifier of p and h").
pub fn mgu_atoms(h: &Atom, p: &Atom) -> Option<Unifier> {
    if h.relation != p.relation || h.terms.len() != p.terms.len() {
        return None;
    }
    mgu_terms(&h.terms, &p.terms)
}

/// Most general unifier of two equal-length term sequences.
pub fn mgu_terms(a: &[Term], b: &[Term]) -> Option<Unifier> {
    debug_assert_eq!(a.len(), b.len());
    let mut u = Unifier::new();
    for (&x, &y) in a.iter().zip(b) {
        u.unify_terms(x, y).ok()?;
    }
    Some(u)
}

/// True if `h` and `p` unify: `mgu_atoms(h, p).is_some()`, decided on
/// the stack for atoms of up to eight positions, without building the
/// unifier. The check that confirms an index candidate as an edge.
pub fn unifiable(h: &Atom, p: &Atom) -> bool {
    h.relation == p.relation
        && h.terms.len() == p.terms.len()
        && with_scratch(2 * h.terms.len(), |parent, occurrences| {
            pair_classes(&h.terms, &p.terms, parent, occurrences).is_ok()
        })
}

impl Unifier {
    /// `self := MGU(self, mgu(h, p))` without building `mgu(h, p)`: the
    /// equates and binds `self.merge_from(&mgu_atoms(h, p)?)` would make,
    /// in the order it makes them — class by class in
    /// [`Unifier::classes`] order, each class's smallest variable equated
    /// with the others in ascending order, then bound to the class
    /// constant. [`Unifier::equate`] picks roots by rank, so the same
    /// order gives the same forest and the same representatives. A pair
    /// that does not unify is a conflict; on conflict `self` is left as
    /// `merge_from` leaves it (unspecified, safe to drop).
    ///
    /// Only the terms are read: `h` and `p` must share relation and
    /// arity, as the two atoms of a unifiability edge do. Allocation-free
    /// for atoms of up to eight positions, and not counted as a merge in
    /// [`crate::ops`].
    pub fn unify_atoms(&mut self, h: &Atom, p: &Atom) -> Result<bool, Conflict> {
        debug_assert!(h.relation == p.relation && h.terms.len() == p.terms.len());
        let (h, p) = (&h.terms, &p.terms);
        with_scratch(2 * h.len(), |parent, occurrences| {
            let len = pair_classes(h, p, parent, occurrences)?;
            let occurrences = &occurrences[..len];
            let mut changed = false;
            let mut k = 0;
            while k < len {
                let (class, _, root) = occurrences[k];
                k += 1;
                while k < len && occurrences[k].0 == class {
                    if occurrences[k].1 != occurrences[k - 1].1 {
                        changed |= self.equate(class, occurrences[k].1)?;
                    }
                    k += 1;
                }
                if let Term::Const(c) = pair_term(h, p, root as usize) {
                    changed |= self.bind(class, c)?;
                }
            }
            Ok(changed)
        })
    }
}

/// Term positions of an atom pair handled in stack buffers.
const INLINE_TERMS: usize = 16;

/// One variable occurrence of an atom pair: its class (the class's
/// smallest variable), the variable, and the position standing for the
/// class (one holding the class constant, if it has one).
type Occurrence = (Var, Var, u32);

/// Runs `f` over scratch for `terms` positions: on the stack up to
/// [`INLINE_TERMS`], else on the heap.
fn with_scratch<R>(terms: usize, f: impl FnOnce(&mut [u32], &mut [Occurrence]) -> R) -> R {
    let blank: Occurrence = (Var(0), Var(0), 0);
    if terms <= INLINE_TERMS {
        let (mut parent, mut occurrences) = ([0u32; INLINE_TERMS], [blank; INLINE_TERMS]);
        f(&mut parent[..terms], &mut occurrences[..terms])
    } else {
        f(&mut vec![0; terms], &mut vec![blank; terms])
    }
}

/// Term `i` of the pair: `h`'s positions, then `p`'s.
fn pair_term(h: &[Term], p: &[Term], i: usize) -> Term {
    if i < h.len() {
        h[i]
    } else {
        p[i - h.len()]
    }
}

fn find(parent: &mut [u32], mut i: usize) -> usize {
    while parent[i] as usize != i {
        let up = parent[parent[i] as usize];
        parent[i] = up;
        i = up as usize;
    }
    i
}

/// The classes of `mgu(h, p)` over the pair's `2n` term positions, a
/// union-find in `parent`: position `i` of `h` joins position `i` of
/// `p`, every occurrence of a variable joins its first, and a class's
/// root is a constant position whenever it has one, so two constants
/// meeting is the one way to clash. On success the variable occurrences
/// fill the front of `occurrences`, sorted by class then variable
/// (repeated variables adjacent), and their count is returned.
fn pair_classes(
    h: &[Term],
    p: &[Term],
    parent: &mut [u32],
    occurrences: &mut [Occurrence],
) -> Result<usize, Conflict> {
    let term = |i: usize| pair_term(h, p, i);
    for (i, up) in parent.iter_mut().enumerate() {
        *up = i as u32;
    }
    let union = |parent: &mut [u32], a: usize, b: usize| {
        let (a, b) = (find(parent, a), find(parent, b));
        match (term(a), term(b)) {
            _ if a == b => {}
            (Term::Const(left), Term::Const(right)) if left != right => {
                return Err(Conflict { left, right });
            }
            (_, Term::Const(_)) => parent[a] = b as u32,
            _ => parent[b] = a as u32,
        }
        Ok(())
    };
    for i in 0..h.len() {
        union(parent, i, h.len() + i)?;
    }
    for i in 0..parent.len() {
        if let Term::Var(v) = term(i) {
            if let Some(first) = (0..i).find(|&j| term(j) == Term::Var(v)) {
                union(parent, first, i)?;
            }
        }
    }
    let mut len = 0;
    for i in 0..parent.len() {
        if let Term::Var(v) = term(i) {
            occurrences[len] = (v, v, find(parent, i) as u32);
            len += 1;
        }
    }
    // Group by root with each group's smallest variable first, name the
    // group after it, then order the groups by that name.
    let occurrences = &mut occurrences[..len];
    occurrences.sort_unstable_by_key(|&(_, v, root)| (root, v));
    let mut k = 0;
    while k < len {
        let (class, root) = (occurrences[k].1, occurrences[k].2);
        while k < len && occurrences[k].2 == root {
            occurrences[k].0 = class;
            k += 1;
        }
    }
    occurrences.sort_unstable();
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{atom, Value, Var};

    fn v(i: u32) -> Term {
        Term::var(Var(i))
    }

    #[test]
    fn kramer_jerry_heads_and_postconditions() {
        // Head of Jerry's query R(Jerry, y) unifies with postcondition of
        // Kramer's query R(Jerry, x), forcing x = y.
        let h = atom!("R", [Term::str("Jerry"), v(1)]);
        let p = atom!("R", [Term::str("Jerry"), v(0)]);
        let u = mgu_atoms(&h, &p).unwrap();
        assert!(u.same_class(Var(0), Var(1)));
    }

    #[test]
    fn mismatched_constants_fail() {
        let h = atom!("R", [Term::str("Kramer"), v(1)]);
        let p = atom!("R", [Term::str("Jerry"), v(0)]);
        assert!(mgu_atoms(&h, &p).is_none());
    }

    #[test]
    fn relation_and_arity_mismatch() {
        let a = atom!("R", [v(0)]);
        let b = atom!("S", [v(1)]);
        assert!(mgu_atoms(&a, &b).is_none());
        let c = atom!("R", [v(0), v(1)]);
        assert!(mgu_atoms(&a, &c).is_none());
    }

    #[test]
    fn repeated_variable_conflict() {
        // R(z, z) vs R(2, 3): positionally compatible, not unifiable.
        let a = atom!("R", [v(0), v(0)]);
        let b = atom!("R", [Term::int(2), Term::int(3)]);
        assert!(a.positionally_compatible(&b));
        assert!(mgu_atoms(&a, &b).is_none());
    }

    #[test]
    fn repeated_variable_success() {
        let a = atom!("R", [v(0), v(0)]);
        let b = atom!("R", [Term::int(2), v(1)]);
        let u = mgu_atoms(&a, &b).unwrap();
        assert_eq!(u.constant_of(Var(1)), Some(Value::int(2)));
    }

    #[test]
    fn variable_to_variable_binding() {
        let a = atom!("R", [v(0), v(1)]);
        let b = atom!("R", [v(2), v(2)]);
        let u = mgu_atoms(&a, &b).unwrap();
        // All three classes collapse: x~z, y~z => x~y.
        assert!(u.same_class(Var(0), Var(1)));
    }

    #[test]
    fn ground_atoms_unify_iff_equal() {
        let a = atom!("R", [Term::str("Kramer"), Term::int(122)]);
        let b = atom!("R", [Term::str("Kramer"), Term::int(122)]);
        let c = atom!("R", [Term::str("Kramer"), Term::int(123)]);
        assert!(mgu_atoms(&a, &b).is_some());
        assert!(mgu_atoms(&a, &c).is_none());
    }

    #[test]
    fn mgu_applied_makes_atoms_equal() {
        let a = atom!("R", [v(0), Term::int(7), v(1)]);
        let b = atom!("R", [Term::str("u"), v(2), v(2)]);
        let u = mgu_atoms(&a, &b).unwrap();
        let ra = a.apply(&|var| Some(u.resolve(Term::var(var))));
        let rb = b.apply(&|var| Some(u.resolve(Term::var(var))));
        assert_eq!(ra, rb);
    }
}
