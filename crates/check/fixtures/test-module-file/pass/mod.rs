//@ path: crates/core/src/fixture/mod.rs
// A test module kept in its own file: the gate sits on the declaration
// here, and the file it names is test code as a whole.

pub fn first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}

#[cfg(test)]
mod tests;
