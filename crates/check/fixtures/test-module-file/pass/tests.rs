//@ path: crates/core/src/fixture/tests.rs
// Declared by `#[cfg(test)] mod tests;`: test code, so it may unwrap,
// and so may the module it declares in turn.

use super::first;

mod oracle;

#[test]
fn first_of_one() {
    assert_eq!(first(&[7]).unwrap(), oracle::seven());
}
