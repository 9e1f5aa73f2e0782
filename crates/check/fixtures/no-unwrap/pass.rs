//@ path: crates/core/src/graph.rs
// The same lookup stated structurally; .unwrap_or_* combinators and
// cfg(test) unwraps stay legal.

pub fn edge_target(slots: &[Option<u32>], eid: usize) -> u32 {
    slots.get(eid).copied().flatten().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_may_unwrap() {
        assert_eq!(super::edge_target(&[Some(7)], 0), 7);
        assert_eq!(Some(7u32).unwrap(), 7);
    }
}
