//! A frozen reference `Unifier` for differential testing.
//!
//! [`OracleUnifier`] is a plain disjoint-set forest with union by rank
//! and no interior mutability (`find` walks without compressing — roots,
//! and therefore every observable, are identical either way). The
//! differential harness ([`crate::differential`]) drives it and the
//! production table through the same script and asserts they observe
//! identically after every step.
//!
//! Deliberately duplicated rather than shared with the production code:
//! the whole point is that this copy does **not** evolve with it.

use eq_ir::{FastMap, Term, Value, Var};

#[derive(Debug)]
struct ONode {
    parent: Var,
    rank: u8,
    constant: Option<Value>,
}

/// The paper's §4.1.3 unifier, written as simply as possible.
#[derive(Debug, Default)]
pub struct OracleUnifier {
    nodes: FastMap<Var, ONode>,
}

impl OracleUnifier {
    pub fn new() -> Self {
        OracleUnifier::default()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    fn ensure(&mut self, v: Var) {
        self.nodes.entry(v).or_insert(ONode {
            parent: v,
            rank: 0,
            constant: None,
        });
    }

    pub fn find(&self, v: Var) -> Var {
        let mut cur = v;
        while let Some(node) = self.nodes.get(&cur) {
            if node.parent == cur {
                return cur;
            }
            cur = node.parent;
        }
        cur
    }

    pub fn constant_of(&self, v: Var) -> Option<Value> {
        let root = self.find(v);
        self.nodes.get(&root).and_then(|n| n.constant)
    }

    pub fn equate(&mut self, a: Var, b: Var) -> Result<bool, (Value, Value)> {
        self.ensure(a);
        self.ensure(b);
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        let ca = self.nodes[&ra].constant;
        let cb = self.nodes[&rb].constant;
        let merged_const = match (ca, cb) {
            (Some(x), Some(y)) if x != y => return Err((x, y)),
            (Some(x), _) => Some(x),
            (_, y) => y,
        };
        let (root, child, ranks_tied) = {
            let rank_a = self.nodes[&ra].rank;
            let rank_b = self.nodes[&rb].rank;
            if rank_a < rank_b {
                (rb, ra, false)
            } else {
                (ra, rb, rank_a == rank_b)
            }
        };
        if let Some(child_node) = self.nodes.get_mut(&child) {
            child_node.parent = root;
        }
        if let Some(root_node) = self.nodes.get_mut(&root) {
            root_node.constant = merged_const;
            if ranks_tied {
                root_node.rank += 1;
            }
        }
        Ok(true)
    }

    pub fn bind(&mut self, v: Var, value: Value) -> Result<bool, (Value, Value)> {
        self.ensure(v);
        let root = self.find(v);
        let node = self.nodes.get_mut(&root).expect("ensure inserted v");
        match node.constant {
            Some(existing) if existing == value => Ok(false),
            Some(existing) => Err((existing, value)),
            None => {
                node.constant = Some(value);
                Ok(true)
            }
        }
    }

    pub fn unify_terms(&mut self, a: Term, b: Term) -> Result<bool, (Value, Value)> {
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => {
                if x == y {
                    Ok(false)
                } else {
                    Err((x, y))
                }
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => self.bind(v, c),
            (Term::Var(v), Term::Var(w)) => self.equate(v, w),
        }
    }

    pub fn merge_from(&mut self, other: &OracleUnifier) -> Result<bool, (Value, Value)> {
        let mut changed = false;
        for (vars, constant) in other.classes() {
            let first = vars[0];
            for &v in &vars[1..] {
                changed |= self.equate(first, v)?;
            }
            if let Some(c) = constant {
                changed |= self.bind(first, c)?;
            }
        }
        Ok(changed)
    }

    pub fn classes(&self) -> Vec<(Vec<Var>, Option<Value>)> {
        let mut groups: FastMap<Var, Vec<Var>> = FastMap::default();
        for &v in self.nodes.keys() {
            groups.entry(self.find(v)).or_default().push(v);
        }
        let mut out: Vec<(Vec<Var>, Option<Value>)> = groups
            .into_iter()
            .map(|(root, mut vars)| {
                vars.sort_unstable();
                (vars, self.nodes[&root].constant)
            })
            .collect();
        out.sort_unstable_by_key(|(vars, _)| vars[0]);
        out
    }

    /// Same normalization as `Unifier::equivalent`: drop unconstrained
    /// singletons.
    pub fn normalized_classes(&self) -> Vec<(Vec<Var>, Option<Value>)> {
        self.classes()
            .into_iter()
            .filter(|(vars, c)| vars.len() > 1 || c.is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn oracle_matches_documented_semantics() {
        let mut u = OracleUnifier::new();
        assert_eq!(u.equate(v(0), v(1)), Ok(true));
        assert_eq!(u.equate(v(1), v(0)), Ok(false));
        assert_eq!(u.bind(v(0), Value::int(3)), Ok(true));
        assert_eq!(u.constant_of(v(1)), Some(Value::int(3)));
        assert_eq!(
            u.bind(v(1), Value::int(4)),
            Err((Value::int(3), Value::int(4)))
        );
        assert_eq!(u.len(), 2);
        assert_eq!(u.classes().len(), 1);
    }
}
