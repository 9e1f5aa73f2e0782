//@ path: crates/core/src/fixture/helpers.rs
// Declared by a plain `mod helpers;`: not test code.

pub fn first(xs: &[u32]) -> u32 {
    xs.first().copied().unwrap()
}
