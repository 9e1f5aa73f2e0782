//@ path: crates/core/src/fixture/tests/oracle.rs
// A module of the test module: test code too.

pub fn seven() -> u32 {
    "7".parse().unwrap()
}
