//! Global string interner.
//!
//! All relation names and string constants are interned to [`Symbol`]s
//! (a `u32` index). Interning makes atom unification, index probes and
//! tuple comparison integer comparisons, which the matching algorithm of
//! the paper relies on for its throughput (§4.1.4–4.1.5).
//!
//! The interner is a process-wide singleton: entangled queries, database
//! tuples and workload generators all need to agree on symbol identity and
//! threading an interner handle through every API would add noise without
//! a correctness benefit. It sits behind a plain `std::sync::RwLock`:
//! builders intern a relation name per atom, hundreds of thousands of
//! calls per workload, and nothing reads lock statistics for it. The map
//! keeps std's SipHash — client strings are untrusted keys.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// An interned string.
///
/// Two `Symbol`s are equal iff the strings they were interned from are
/// equal. Construct with [`Symbol::new`] and read back with
/// [`Symbol::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Self {
        global().intern(s)
    }

    /// Returns the string this symbol was interned from.
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }

    /// The raw index. Stable for the lifetime of the process; useful as a
    /// dense map key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

/// Resolves a symbol to its string; free-function form of
/// [`Symbol::as_str`].
pub fn resolve(sym: Symbol) -> &'static str {
    sym.as_str()
}

/// The interner behind [`Symbol`].
///
/// Strings are leaked on first interning: the set of distinct relation
/// names, user names and airport codes in any workload is small and
/// long-lived, so leaking them is the standard trade (it is what `rustc`'s
/// own interner does per session).
pub struct Interner {
    inner: RwLock<Inner>,
}

struct Inner {
    map: HashMap<&'static str, Symbol>,
    strings: Vec<&'static str>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                strings: Vec::new(),
            }),
        }
    }

    /// A poisoned lock means an `intern` panicked half-way; going on
    /// could mint a second symbol for one string, so it is fatal.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("interner lock poisoned")
    }

    fn intern(&self, s: &str) -> Symbol {
        if let Some(&sym) = self.read().map.get(s) {
            return sym;
        }
        let mut inner = self.inner.write().expect("interner lock poisoned");
        if let Some(&sym) = inner.map.get(s) {
            return sym;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Symbol(u32::try_from(inner.strings.len()).expect("interner overflow"));
        inner.strings.push(leaked);
        inner.map.insert(leaked, sym);
        sym
    }

    fn resolve(&self, sym: Symbol) -> &'static str {
        self.read().strings[sym.0 as usize]
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("Reserve");
        let b = Symbol::new("Reserve");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Reserve");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("Flights");
        let b = Symbol::new("Airlines");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "Flights");
        assert_eq!(b.as_str(), "Airlines");
    }

    #[test]
    fn empty_string_is_internable() {
        let e = Symbol::new("");
        assert_eq!(e.as_str(), "");
        assert_eq!(e, Symbol::new(""));
    }

    #[test]
    fn display_matches_source() {
        let s = Symbol::new("ITH");
        assert_eq!(s.to_string(), "ITH");
        assert_eq!(format!("{s:?}"), "Symbol(\"ITH\")");
    }

    #[test]
    fn from_str_impl() {
        let s: Symbol = "JFK".into();
        assert_eq!(s.as_str(), "JFK");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::new("concurrent-key")))
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn resolve_free_function() {
        let s = Symbol::new("free-fn");
        assert_eq!(resolve(s), "free-fn");
    }
}
