//@ path: crates/core/src/combine.rs
// Benign clones (tuples, survivor lists, reports) stay legal in the
// watched files, and cfg(test) oracles may still deep-copy a Unifier
// to cross-check it.

pub fn collect(tup: &Tuple, out: &mut Vec<Tuple>) {
    out.push(tup.clone());
}

pub struct Tuple;

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_may_clone() {
        let global = Unifier::new();
        let copy = global.clone();
        let again = Unifier::clone(&copy);
        drop(again);
    }
}
