//! Output checks. `settle` runs after every iteration (cheap:
//! exactly-once accounting and an answer hash); `verify_answers` runs
//! on the warm-up iteration and checks the answers themselves against
//! the paper's semantics.

use crate::driver::{Finished, Iteration};
use eq_core::{Coordinator, Event};
use eq_db::Database;
use eq_ir::{Atom, EntangledQuery, QueryId, Symbol, Term, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Stream position of the query admitted under `id`; `admitted` is
/// sorted by id.
fn index_of(admitted: &[(QueryId, u32)], id: QueryId) -> Option<u32> {
    admitted
        .binary_search_by_key(&id.0, |&(id, _)| id.0)
        .ok()
        .map(|pos| admitted[pos].1)
}

/// Exactly one terminal event per admitted query, nothing for anyone
/// else, the service agreeing on what is still pending, and the
/// iteration's answer hash. Sorts `finished.admitted` by id.
pub fn settle(finished: &mut Finished, coordinator: &Coordinator) {
    let Finished { it, admitted, kept } = finished;
    admitted.sort_unstable_by_key(|&(id, _)| id.0);

    let mut terminal: Vec<u64> = Vec::with_capacity(admitted.len());
    let mut unknown = 0u64;
    let mut hash = 0u64;
    for event in kept.iter() {
        let Some(id) = event.id() else { continue };
        let Some(index) = index_of(admitted, id) else {
            unknown += 1;
            continue;
        };
        terminal.push(id.0);
        if let Event::Answered { answer, .. } = &**event {
            let mut h = DefaultHasher::new();
            index.hash(&mut h);
            answer.tuples.hash(&mut h);
            hash = hash.wrapping_add(h.finish());
        }
    }
    it.answers_hash = hash;
    if unknown > 0 {
        it.fail(
            unknown,
            format!("{unknown} terminal events for queries this client never admitted"),
        );
    }
    terminal.sort_unstable();
    let before = terminal.len();
    terminal.dedup();
    let duplicates = (before - terminal.len()) as u64;
    if duplicates > 0 {
        it.fail(
            duplicates,
            format!("{duplicates} queries got more than one terminal event"),
        );
    }
    it.outcomes.pending_end = (admitted.len() - terminal.len()) as u64;
    let service_pending = coordinator.pending_count() as u64;
    if service_pending != it.outcomes.pending_end {
        let diff = service_pending.abs_diff(it.outcomes.pending_end);
        it.fail(
            diff,
            format!(
                "client counts {} queries without a terminal event, the service {} pending",
                it.outcomes.pending_end, service_pending
            ),
        );
    }
}

/// Checks every `Answered` event of an iteration against what the
/// paper promises for it:
///
/// 1. the answer grounds the query's own head atoms (same relation,
///    same constants);
/// 2. every postcondition of an answered query is met by the head
///    tuple of some answered query — coordination, not a lone answer;
/// 3. the query's body, with the head's variables bound as answered,
///    has a solution in the database.
///
/// `query(index)` returns the stream's query at a position. Failures
/// are counted on `it`.
pub fn verify_answers<'q>(
    finished: &mut Finished,
    db: &Database,
    query: impl Fn(u32) -> &'q EntangledQuery,
) {
    let Finished { it, admitted, kept } = finished;

    // All answered head tuples, by relation, and by each (position,
    // value) for postconditions that still carry a variable.
    let mut tuples: HashSet<(Symbol, &[Value])> = HashSet::new();
    let mut by_cell: HashMap<(Symbol, usize, Value), Vec<&[Value]>> = HashMap::new();
    let mut relations: HashSet<(Symbol, usize)> = HashSet::new();
    for event in kept.iter() {
        if let Event::Answered { answer, .. } = &**event {
            for (&rel, tuple) in answer.relations.iter().zip(&answer.tuples) {
                tuples.insert((rel, tuple.as_slice()));
                relations.insert((rel, tuple.len()));
                for (pos, &v) in tuple.iter().enumerate() {
                    by_cell.entry((rel, pos, v)).or_default().push(tuple);
                }
            }
        }
    }
    let matches = |pattern: &Atom, tuple: &[Value]| {
        pattern.terms.len() == tuple.len()
            && pattern
                .terms
                .iter()
                .zip(tuple)
                .all(|(t, v)| t.as_const().is_none_or(|c| c == *v))
    };
    let satisfied = |pc: &Atom| -> bool {
        if pc.is_ground() {
            let row: Vec<Value> = pc.constants().collect();
            return tuples.contains(&(pc.relation, row.as_slice()));
        }
        match pc
            .terms
            .iter()
            .enumerate()
            .find_map(|(pos, t)| t.as_const().map(|c| (pos, c)))
        {
            Some((pos, c)) => by_cell
                .get(&(pc.relation, pos, c))
                .is_some_and(|rows| rows.iter().any(|row| matches(pc, row))),
            None => relations.contains(&(pc.relation, pc.terms.len())),
        }
    };

    let mut bad_head = 0u64;
    let mut bad_pc = 0u64;
    let mut bad_body = 0u64;
    for event in kept.iter() {
        let Event::Answered { id, answer, .. } = &**event else {
            continue;
        };
        // `settle` sorted `admitted` by id.
        let Some(index) = index_of(admitted, *id) else {
            continue;
        };
        let q = query(index);
        let heads_ok = answer.tuples.len() == q.head.len()
            && q.head
                .iter()
                .zip(answer.relations.iter().zip(&answer.tuples))
                .all(|(head, (&rel, tuple))| head.relation == rel && matches(head, tuple));
        if !heads_ok {
            bad_head += 1;
            continue;
        }
        if !q.postconditions.iter().all(&satisfied) {
            bad_pc += 1;
        }
        // Bind the head's variables as answered and ask the database.
        let mut binding: HashMap<eq_ir::Var, Value> = HashMap::new();
        for (head, tuple) in q.head.iter().zip(&answer.tuples) {
            for (t, &v) in head.terms.iter().zip(tuple) {
                if let Some(var) = t.as_var() {
                    binding.insert(var, v);
                }
            }
        }
        let body: Vec<Atom> = q
            .body
            .iter()
            .map(|a| a.apply(&|v| binding.get(&v).map(|&c| Term::Const(c))))
            .collect();
        match db.evaluate_filtered(&body, &q.constraints, 1) {
            Ok(solutions) if !solutions.is_empty() => {}
            _ => bad_body += 1,
        }
    }
    for (count, what) in [
        (bad_head, "answers that do not ground their query's head"),
        (
            bad_pc,
            "answered queries with a postcondition no answered head meets",
        ),
        (
            bad_body,
            "answers whose body has no solution in the database",
        ),
    ] {
        if count > 0 {
            it.fail(count, format!("{count} {what}"));
        }
    }
}

/// The per-iteration facts that must repeat exactly for a fixed seed:
/// outcome accounting, the answers themselves, and the service's own
/// operation counts. Compared between the warm-up and every measured
/// iteration.
pub fn fingerprint(it: &Iteration) -> Vec<(&'static str, u64)> {
    let o = &it.outcomes;
    let mut out = vec![
        ("outcome.submitted", o.submitted),
        ("outcome.rejected_at_admit", o.rejected_at_admit),
        ("outcome.answered", o.answered),
        ("outcome.failed", o.failed),
        ("outcome.expired", o.expired),
        ("outcome.cancelled", o.cancelled),
        ("outcome.pending_end", o.pending_end),
        ("answers_hash", it.answers_hash),
        ("engine.components_evaluated", it.components),
        ("engine.skipped_clean", it.skipped_clean),
        ("engine.pending_peak", it.pending_peak),
        ("events", it.events),
    ];
    for name in crate::metrics::EXACT_LAYER_COUNTS {
        if let Some(&v) = it.layers.get(name) {
            out.push((name, v as u64));
        }
    }
    out
}
