//@ path: crates/core/src/fixture/mod.rs
// The same layout without the test gate: the module file is engine
// code, and its unwrap fires `no-unwrap`.

mod helpers;

pub fn first(xs: &[u32]) -> u32 {
    helpers::first(xs)
}
