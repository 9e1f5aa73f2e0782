//! Intermediate representation for entangled queries.
//!
//! This crate defines the data model shared by every other crate in the
//! workspace:
//!
//! * [`Symbol`] — interned strings (relation names, string constants);
//! * [`Value`] — constants appearing in tuples and atoms;
//! * [`Var`] / [`Term`] — variables and the terms of relational atoms;
//! * [`Atom`] — a relational atom `R(t1, .., tn)`, its terms in a
//!   [`Terms`] that holds up to two inline;
//! * [`EntangledQuery`] — the paper's intermediate form `{C} H ⊣ B`
//!   (§2.2 of the SIGMOD 2011 paper), i.e. postcondition, head and body;
//! * [`QueryId`] / [`VarGen`] — identity and variable-renaming support.
//!
//! The representation is deliberately flat and copy-friendly: terms are two
//! words, atoms are a relation symbol plus inline terms (48 bytes, no heap
//! allocation at arity ≤ 2), and all string data lives behind the global
//! interner so that unification and index probes compare `u32`s only.

#![forbid(unsafe_code)]

mod atom;
mod constraint;
pub mod hash;
mod intern;
mod query;
mod term;
mod terms;
mod value;

pub use atom::{Atom, Polarity};
pub use constraint::{CmpOp, Constraint};
pub use hash::{FastMap, FastSet};
pub use intern::{resolve, Interner, Symbol};
pub use query::{EntangledQuery, QueryId, ValidationError};
pub use term::{Term, Var, VarGen};
pub use terms::{Terms, INLINE_TERMS};
pub use value::Value;
