//! Partitioned evaluation *inside* one matched component.
//!
//! Splitting the match graph into components (§4.1.2) buys nothing the
//! moment a workload entangles everything into one giant component: the
//! paper's coordination semantics force all queries of a match-graph
//! component to be answered together, as one combined query. This
//! module splits that combined query's evaluation search space into
//! **work units** that are independent by construction, evaluates them
//! one after another, and glues their answers in a way that reproduces
//! the whole-body join's answer choice.
//!
//! # Work-unit extraction
//!
//! [`plan`] walks the component's survivors in the
//! [`MatchGraph`], simplifies every body atom and constraint under the
//! component's global unifier exactly as
//! [`crate::CombinedQuery::build`] does, and then partitions the
//! simplified conjunction by **variable connectivity**: two atoms land
//! in the same [`WorkUnit`] iff they are linked by a chain of shared
//! variables (constraints link the units of their variables too). This
//! is the search-space decomposition the combined query admits after
//! §4.2 simplification — entangled queries share *answers* through
//! their heads and postconditions, but their bodies touch disjoint
//! variables unless the global unifier actually merged them, so a giant
//! ring of 10,000 pairwise-entangled queries yields thousands of small
//! independent joins instead of one 30,000-atom join. Fully ground
//! atoms and constraints (no variables at all after simplification)
//! become per-plan membership checks.
//!
//! # Deterministic merge
//!
//! Because the units are variable-disjoint, a valuation of the whole
//! combined body is exactly one valuation per unit, glued together.
//! [`evaluate_plan`] evaluates each unit with `LIMIT 1`, in plan
//! order, and merges the per-unit valuations; a unit without one ends
//! the evaluation. The merged result equals the whole-body join's first
//! solution because the evaluator's greedy join order breaks ties
//! structurally (see `choose_atom` in `eq_db`): an atom's ordering key
//! depends only on its own unit's bindings, so the backtracking search
//! over the whole
//! body explores each unit's assignments in exactly the order the
//! unit-local search does, and its first full solution is the
//! composition of the per-unit firsts. The engine property-tests this
//! equivalence (partitioned ≡ whole-body join, answer for answer) in
//! both engine modes.
//!
//! # Shared-variable splitting: biconnected regions
//!
//! Variable-connectivity partitioning collapses the moment the global
//! unifier chains variables *across* bodies: a ring of queries whose
//! postconditions name their neighbours' body variables yields **one**
//! work unit spanning the whole component, and the flush serializes
//! again. For such units, [`split_unit`] decomposes the variable graph
//! (variables as vertices, one clique per atom/constraint over its
//! variables) into **biconnected regions**: the blocks of the graph,
//! glued at articulation variables. Because two blocks share at most
//! one vertex, the block-cut structure is a tree, and the articulation
//! variables are exactly the join keys between regions.
//!
//! Region evaluation walks that tree, and it **pays for what it
//! keeps**. A region is a list of indices into its unit's atoms and
//! constraints, not a copy of them. The plan's atoms are checked against
//! the database once, up front; then each run resolves a region's
//! conjunction (`eq_db`'s `Prepared`: table handles, variable slots,
//! join-order ranks) when the walk reaches the region and drops it after
//! that run, so one region's resolved query is alive at a time.
//!
//! **First choices first.** The walk starts with a greedy descent from
//! the root: every region runs with its parent articulation variable
//! *pinned* to the value its parent's solution chose (an equality filter
//! the evaluator applies through the index) and keeps its first
//! solution. When every region has one, the bindings agree on every
//! tree edge, so by running intersection they are a solution of the
//! unit — one pinned run per region, nothing retained. A region with no
//! solution under its pin is a dead end: the partial answer is dropped
//! and the unit falls back to Yannakakis over the tree.
//!
//! **The fallback.** Bottom-up, children first, a region runs as a
//! **projection** onto its parent articulation variable: it keeps a
//! witness set of the values carried by some locally-extensible
//! solution — memory proportional to the articulation-value domain,
//! never to the region's solution count; a unit's witness sets share
//! one sorted arena, probed by binary search, allocated only when the
//! fallback runs — and tells the evaluator "done with this value" the
//! moment a value is witnessed, or a child value is found to have no
//! witness, whereupon the search **backjumps** to the frame that bound
//! it instead of enumerating the rest of that value's pre-image. Atoms
//! whose terms are all bound by then are **filters** the memory-resident
//! index decides without reading a row. A region therefore costs on the
//! order of its articulation domain, not of its local solution count.
//! Then the descent's walk runs again, now keeping each region's first
//! *extensible* solution under its pin (a child's singleton witness set
//! is pinned the same way). A dead end costs at most one extra pinned
//! run per region the descent visited before it.
//!
//! Both paths give the same answer: a first solution the descent showed
//! to extend is the first extensible one under the same pin, and a pin
//! never changes the evaluator's join order. The result is **exact** —
//! a solution is produced iff the unit has one — and **deterministic**
//! (a function of the plan and the database alone), but it is the
//! tree-join's first solution, not necessarily the one the whole-unit
//! backtracking search would find first; when a unit's solution is
//! unique the two coincide. There is no enumeration cap, and no size
//! gate: a unit splits wherever [`split_unit`] finds two atom-anchored
//! blocks, whatever its size, so a hopeless block fails alone instead
//! of being re-proved once per solution of the rest of the unit (a
//! 51-atom 3-colouring query whose K4 hangs by a bridge off a random
//! graph took tens of seconds whole). Only the structure refuses a
//! split: a constraint bridging two atom clusters, or an articulation
//! variable some region sees through no atom.
//!
//! The first region evaluator — materialize every region's solutions up
//! to a cap, semi-join the sets over the tree, fall back to whole-unit
//! evaluation on cap overflow — survives only as the `#[cfg(test)]`
//! oracle `materialized_reference`. The pinned run picks exactly the
//! representative that semi-join keeps (neither pins nor skipped values
//! influence the evaluator's join order), and the production path —
//! descent and fallback alike — is property-tested against it answer
//! for answer.
//!
//! This module is the engine's one evaluator: every coordinating set,
//! whatever its size, is planned by [`plan`] and evaluated by
//! [`evaluate_plan`]. The whole-body join, [`crate::CombinedQuery::evaluate`],
//! stays as the reference this module's result is guaranteed (and
//! tested) to agree with — answer for answer where no unit splits, on
//! whether a solution exists where one does; it is never the engine's
//! path, because its chronological backtracking across interleaved
//! independent units is exponential in the set's size on bodies that
//! backtrack (a 13-query triangle ring took minutes through it).

use crate::combine::{distribute_heads, QueryAnswer};
use crate::graph::MatchGraph;
use eq_db::{Database, DbError, EvalStats, Prepared, Slot, Solution, Valuation, Visit};
use eq_ir::{Atom, Constraint, FastMap, FastSet, QueryId, Value, Var};
use eq_unify::Unifier;
use std::ops::Range;

/// Inert, kept only because the frozen benchmark still names it; the
/// region split has no gate. ROADMAP item 2(b) deletes it.
#[deprecated(note = "ignored: a unit splits wherever `split_unit` finds regions (ROADMAP 2(b))")]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitOptions;

/// One independently evaluable piece of a combined query: a maximal
/// variable-connected sub-conjunction of the simplified body, plus the
/// constraints over its variables.
#[derive(Clone, Debug)]
pub struct WorkUnit {
    /// Simplified body atoms of this unit (each shares a variable chain
    /// with every other atom of the unit, and none with any other
    /// unit).
    pub atoms: Vec<Atom>,
    /// Simplified constraints whose variables belong to this unit.
    pub constraints: Vec<Constraint>,
    /// Biconnected-region decomposition ([`split_unit`]), present when
    /// the unit decomposes into ≥ 2 regions, in which case the unit is
    /// evaluated region by region.
    /// `atoms`/`constraints` still hold the whole unit; the regions
    /// index into them.
    pub regions: Option<RegionPlan>,
}

/// The biconnected-region decomposition of one shared-variable work
/// unit: regions tiled over the unit's atoms, arranged in a block-cut
/// tree whose edges are articulation variables. Regions name the unit's
/// atoms and constraints by index, all regions' lists in one flat
/// allocation each: a region costs a few integers, not a copy of its
/// conjunction.
#[derive(Clone, Debug)]
pub struct RegionPlan {
    /// Regions in deterministic order (by first atom of the region in
    /// the unit's body order). Region 0 is the tree root.
    pub regions: Vec<Region>,
    /// Indices into the unit's atoms, region after region.
    atoms: Vec<u32>,
    /// Indices into the unit's constraints, region after region.
    constraints: Vec<u32>,
    /// Child region ids, region after region.
    children: Vec<u32>,
}

/// One biconnected region: a sub-conjunction that overlaps the rest of
/// its unit in exactly one variable per tree edge. Its atoms,
/// constraints and children are read through its [`RegionPlan`].
#[derive(Clone, Debug)]
pub struct Region {
    /// The articulation variable shared with the parent region (`None`
    /// for the root).
    pub parent_var: Option<Var>,
    atoms: Range<u32>,
    constraints: Range<u32>,
    children: Range<u32>,
}

impl RegionPlan {
    /// Region `r`'s atoms, as indices into its unit's atoms in body
    /// order.
    pub fn atoms(&self, r: usize) -> &[u32] {
        let at = &self.regions[r].atoms;
        &self.atoms[at.start as usize..at.end as usize]
    }

    /// Region `r`'s constraints, as indices into its unit's
    /// constraints in body order.
    pub fn constraints(&self, r: usize) -> &[u32] {
        let at = &self.regions[r].constraints;
        &self.constraints[at.start as usize..at.end as usize]
    }

    /// Region `r`'s children in the block-cut tree.
    pub fn children(&self, r: usize) -> &[u32] {
        let at = &self.regions[r].children;
        &self.children[at.start as usize..at.end as usize]
    }
}

/// The partitioned evaluation plan for one matched component: work
/// units, plus the variable-free residue that needs no search.
#[derive(Clone, Debug)]
pub struct ComponentPlan {
    /// Variable-connected work units, in order of first appearance in
    /// the combined body (survivor order, then body order).
    pub units: Vec<WorkUnit>,
    /// Fully ground body atoms: membership checks, no bindings.
    pub ground_atoms: Vec<Atom>,
    /// Fully ground constraints: checked once against the empty
    /// valuation.
    pub ground_constraints: Vec<Constraint>,
    /// Per-survivor simplified heads, exactly as
    /// [`crate::CombinedQuery::build`] produces them.
    pub heads: Vec<(QueryId, Vec<Atom>)>,
}

/// Union-find over query variables, used to group atoms into
/// variable-connected work units.
#[derive(Default)]
struct VarUnion {
    parent: FastMap<Var, Var>,
}

impl VarUnion {
    /// Iterative find with full path compression — giant components
    /// can chain tens of thousands of variables, so no recursion.
    fn find(&mut self, v: Var) -> Var {
        let mut root = v;
        while let Some(&p) = self.parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        self.parent.entry(v).or_insert(v);
        let mut cur = v;
        while cur != root {
            let p = self.parent[&cur];
            self.parent.insert(cur, root);
            cur = p;
        }
        root
    }

    fn union(&mut self, a: Var, b: Var) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Builds the partitioned plan for a matched component's survivors and
/// global unifier. The flat concatenation of
/// `ground_atoms` and every unit's `atoms` is a permutation of the
/// combined query's body; likewise for constraints; `heads` is
/// identical to the combined query's. Every unit that decomposes
/// additionally carries its biconnected-region decomposition
/// ([`split_unit`]).
pub fn plan(graph: &MatchGraph, survivors: &[u32], global: &Unifier) -> ComponentPlan {
    // One shared simplification with `CombinedQuery::build` — the
    // answer-equivalence guarantee requires byte-identical inputs.
    let (atoms, constraints, heads) = crate::combine::simplify_survivors(graph, survivors, global);

    // Variable-connectivity union-find: atoms glue their own variables
    // together; constraints glue their variables' units together.
    let mut uf = VarUnion::default();
    for atom in &atoms {
        let mut vars = atom.vars();
        if let Some(first) = vars.next() {
            for v in vars {
                uf.union(first, v);
            }
        }
    }
    for c in &constraints {
        let mut vars = c.vars();
        if let Some(first) = vars.next() {
            for v in vars {
                uf.union(first, v);
            }
        }
    }

    // Group atoms by their variables' root, units ordered by first
    // appearance (deterministic: body order).
    let mut unit_of_root: FastMap<Var, usize> = FastMap::default();
    let mut units: Vec<WorkUnit> = Vec::new();
    let mut ground_atoms = Vec::new();
    for atom in atoms {
        let first_var = atom.vars().next();
        match first_var {
            None => ground_atoms.push(atom),
            Some(v) => {
                let root = uf.find(v);
                let idx = *unit_of_root.entry(root).or_insert_with(|| {
                    units.push(WorkUnit {
                        atoms: Vec::new(),
                        constraints: Vec::new(),
                        regions: None,
                    });
                    units.len() - 1
                });
                units[idx].atoms.push(atom);
            }
        }
    }
    let mut ground_constraints = Vec::new();
    for c in constraints {
        let first_var = c.vars().next();
        match first_var {
            None => ground_constraints.push(c),
            Some(v) => {
                let root = uf.find(v);
                match unit_of_root.get(&root) {
                    Some(&idx) => units[idx].constraints.push(c),
                    // A constraint over variables no body atom binds can
                    // never become decidable; the whole-body join
                    // passes it provisionally forever, so checking it
                    // against the empty valuation (undecidable ⇒ pass)
                    // is equivalent.
                    None => ground_constraints.push(c),
                }
            }
        }
    }

    for unit in &mut units {
        unit.regions = split_unit(unit);
    }

    ComponentPlan {
        units,
        ground_atoms,
        ground_constraints,
        heads,
    }
}

/// [`plan`] under the name and signature the frozen benchmark still
/// calls; `split` is ignored. ROADMAP item 2(b) deletes it.
#[deprecated(note = "use `plan`; the split options are ignored (ROADMAP 2(b))")]
#[allow(deprecated)]
pub fn plan_component(
    graph: &MatchGraph,
    survivors: &[u32],
    global: &Unifier,
    _split: &SplitOptions,
) -> ComponentPlan {
    plan(graph, survivors, global)
}

/// Decomposes one variable-connected work unit into biconnected
/// regions of its variable graph (vertices = the unit's variables, one
/// clique per atom/constraint over its distinct variables). Returns
/// `None` when the unit does not decompose — fewer than two blocks
/// (e.g. a cycle of shared variables, which is 2-connected; a unit with
/// fewer than two conjuncts over two or more variables, the only ones
/// that add edges, is refused before anything is allocated) — or when a
/// block holds no atom at all (its only edges came from a
/// multi-variable *constraint* bridging two atom clusters; such a
/// constraint spans regions and no region could enforce it, so the
/// unit evaluates whole).
///
/// Guarantees, relied on by [`evaluate_plan`]'s region tree join:
///
/// * every **multi-variable** atom/constraint lands in exactly one
///   region (a clique is biconnected, so all of its variables share
///   one block); **single-variable** atoms and constraints are
///   *replicated* into every region containing their variable — a
///   conjunct constrains its variable identically wherever it is
///   checked, so replication is sound, and it keeps each region
///   anchored by its most selective atoms;
/// * two regions overlap in at most one variable (blocks share at most
///   one vertex — the articulation variable), and [`Region::parent_var`]
///   edges form the block-cut tree, so every variable's regions are a
///   connected subtree (the running-intersection property that makes
///   the tree semi-join exact);
/// * region order, the tree, and all contents are deterministic
///   functions of the unit (no hash-iteration order leaks in);
/// * every tree-edge articulation variable is **atom-anchored** in both
///   endpoint regions (bound by every region-local solution, so the
///   merge can always key on it) — units violating this refuse to
///   split.
pub fn split_unit(unit: &WorkUnit) -> Option<RegionPlan> {
    // Every edge comes from one multi-variable conjunct's clique, and a
    // clique lies in one block: two blocks need two such conjuncts.
    let atoms = unit.atoms.iter().map(|a| spans_two_vars(a.vars()));
    let constraints = unit.constraints.iter().map(|c| spans_two_vars(c.vars()));
    if atoms.chain(constraints).filter(|&multi| multi).count() < 2 {
        return None;
    }
    // Conjunct i is atom i, then constraint i - atoms.
    let conjunct_vars = ConjunctVars::number(unit);
    let n = conjunct_vars.vars.len();
    let conjuncts = unit.atoms.len() + unit.constraints.len();

    // Edges: one clique per multi-variable conjunct, dedupped.
    let mut edge_of: FastMap<(u32, u32), u32> = FastMap::default();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..conjuncts {
        let vs = conjunct_vars.of(i);
        for (j, &a) in vs.iter().enumerate() {
            for &b in &vs[j + 1..] {
                let key = (a.min(b), a.max(b));
                edge_of.entry(key).or_insert_with(|| {
                    edges.push(key);
                    edges.len() as u32 - 1
                });
            }
        }
    }
    // Adjacency (neighbor, edge id), each vertex's in edge order.
    let (adj_at, adj) = group_by_key(
        n,
        edges
            .iter()
            .enumerate()
            .flat_map(|(e, &(a, b))| [(a, (b, e as u32)), (b, (a, e as u32))]),
    );
    let adj = |v: usize| &adj[adj_at[v] as usize..adj_at[v + 1] as usize];

    // Iterative Hopcroft–Tarjan: biconnected components as edge sets.
    const UNSEEN: u32 = u32::MAX;
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut parent_edge = vec![UNSEEN; n];
    let mut timer = 0u32;
    let mut edge_stack: Vec<u32> = Vec::new();
    let mut edge_block = vec![UNSEEN; edges.len()];
    let mut block_count = 0usize;
    disc[0] = timer;
    low[0] = timer;
    timer += 1;
    let mut dfs: Vec<(usize, usize)> = vec![(0, 0)];
    while let Some(frame) = dfs.last_mut() {
        let v = frame.0;
        if let Some(&(w, e)) = adj(v).get(frame.1) {
            frame.1 += 1;
            let w = w as usize;
            if e == parent_edge[v] {
                continue;
            }
            if disc[w] == UNSEEN {
                edge_stack.push(e);
                parent_edge[w] = e;
                disc[w] = timer;
                low[w] = timer;
                timer += 1;
                dfs.push((w, 0));
            } else if disc[w] < disc[v] {
                // Back edge to an ancestor; the reverse direction of an
                // already-traversed edge (disc[w] > disc[v]) is skipped.
                edge_stack.push(e);
                low[v] = low[v].min(disc[w]);
            }
        } else {
            dfs.pop();
            if let Some(up) = dfs.last() {
                let u = up.0;
                low[u] = low[u].min(low[v]);
                if low[v] >= disc[u] {
                    // u closes a block: pop edges down to the tree edge
                    // into v. The tree edge is on the stack by the DFS
                    // invariant; an empty pop would mean the traversal
                    // state is corrupt, so refuse the split (sound: the
                    // unit just evaluates whole).
                    let block = block_count as u32;
                    block_count += 1;
                    loop {
                        let e = edge_stack.pop()?;
                        edge_block[e as usize] = block;
                        if e == parent_edge[v] {
                            break;
                        }
                    }
                }
            }
        }
    }
    debug_assert!(edge_stack.is_empty(), "unit variable graph is connected");
    if block_count < 2 {
        return None;
    }

    // The block of every multi-variable conjunct — that of its first
    // variable pair (`NONE` for single-variable ones). The clique edge
    // exists by construction; a miss means the edge bookkeeping is
    // inconsistent, so `None` — callers refuse the split, which is
    // always sound.
    const NONE: u32 = u32::MAX;
    let mut block_of = vec![NONE; conjuncts];
    for (i, block) in block_of.iter_mut().enumerate() {
        let vs = conjunct_vars.of(i);
        if vs.len() >= 2 {
            let e = edge_of.get(&(vs[0].min(vs[1]), vs[0].max(vs[1])))?;
            *block = *edge_block.get(*e as usize)?;
        }
    }
    drop(edge_of);
    // Order blocks deterministically by their first atom in body order.
    let mut order_key = vec![usize::MAX; block_count];
    for (ai, &b) in block_of[..unit.atoms.len()].iter().enumerate() {
        if b != NONE {
            order_key[b as usize] = order_key[b as usize].min(ai);
        }
    }
    // A block with no atom clique exists iff a multi-variable
    // *constraint* is the only bridge between two atom clusters. That
    // constraint would span regions — no single region could enforce
    // it — so the unit must evaluate whole.
    if order_key.contains(&usize::MAX) {
        return None;
    }
    let mut by_order: Vec<u32> = (0..block_count as u32).collect();
    by_order.sort_by_key(|&b| order_key[b as usize]);
    let mut new_id = vec![0u32; block_count];
    for (rank, &b) in by_order.iter().enumerate() {
        new_id[b as usize] = rank as u32;
    }
    for b in &mut block_of {
        if *b != NONE {
            *b = new_id[*b as usize];
        }
    }

    // Each variable's regions, ascending: (variable, region) pairs off
    // the block edges, sorted and deduplicated.
    let mut memberships: Vec<(u32, u32)> = edges
        .iter()
        .zip(&edge_block)
        .flat_map(|(&(a, b), &block)| {
            let r = new_id[block as usize];
            [(a, r), (b, r)]
        })
        .collect();
    drop(edges);
    memberships.sort_unstable();
    memberships.dedup();
    let (var_at, regions_of_var) = group_by_key(n, memberships.iter().copied());
    let regions_of =
        |v: u32| &regions_of_var[var_at[v as usize] as usize..var_at[v as usize + 1] as usize];
    // Each region's articulation variables, ascending.
    let (art_at, articulations) = group_by_key(
        block_count,
        memberships
            .iter()
            .filter(|&&(v, _)| regions_of(v).len() > 1)
            .map(|&(v, r)| (r, v)),
    );
    drop(memberships);

    // Multi-variable conjuncts go to their (unique) block.
    // Single-variable ones are **replicated into every region
    // containing the variable**: a conjunct constrains its variable
    // identically wherever it is checked, so replication is sound, and
    // it keeps every region anchored — a region whose only selective
    // atom sat across the articulation boundary would otherwise
    // stream an unfiltered cross product.
    let regions_for = |i: usize| match &block_of[i] {
        &NONE => regions_of(conjunct_vars.of(i)[0]),
        block => std::slice::from_ref(block),
    };
    let placed = |range: Range<usize>| {
        range.flat_map(move |i| regions_for(i).iter().map(move |&r| (r, i as u32)))
    };
    let atoms_end = unit.atoms.len();
    let (atom_at, atoms) = group_by_key(block_count, placed(0..atoms_end));
    let (constraint_at, constraints) = group_by_key(
        block_count,
        placed(atoms_end..conjuncts).map(|(r, i)| (r, i - atoms_end as u32)),
    );

    // Block-cut tree, rooted at region 0: BFS where expansion goes
    // through articulation variables, so every tree edge carries
    // exactly the variable its endpoints share.
    let mut parent_var = vec![NONE; block_count];
    let mut child_range = vec![0..0; block_count];
    let mut children: Vec<u32> = Vec::with_capacity(block_count - 1);
    let mut visited = vec![false; block_count];
    visited[0] = true;
    let mut queue: Vec<u32> = vec![0];
    let mut head = 0;
    while let Some(&r) = queue.get(head) {
        head += 1;
        let r = r as usize;
        let start = children.len() as u32;
        for &v in &articulations[art_at[r] as usize..art_at[r + 1] as usize] {
            for &r2 in regions_of(v) {
                if !visited[r2 as usize] {
                    visited[r2 as usize] = true;
                    parent_var[r2 as usize] = v;
                    children.push(r2);
                    queue.push(r2);
                }
            }
        }
        child_range[r] = start..children.len() as u32;
    }
    debug_assert_eq!(queue.len(), block_count, "block-cut tree spans the unit");
    if queue.len() != block_count {
        // Disconnected block-cut tree (the unit's variable graph is
        // connected, so this is defensive): refuse the split.
        return None;
    }

    // Anchoring validity: every tree-edge articulation variable must be
    // bound by an *atom* of both endpoint regions — the merge keys on
    // the articulation value of each region-local solution, and a
    // variable a region sees only through a replicated constraint never
    // binds. (Possible when a variable's only atoms sit across the
    // boundary and a single-variable constraint carried it into this
    // region's variable set.) Such units evaluate whole.
    for r in 0..block_count {
        let own = &atoms[atom_at[r] as usize..atom_at[r + 1] as usize];
        let kids = &children[child_range[r].start as usize..child_range[r].end as usize];
        let anchors = std::iter::once(parent_var[r])
            .chain(kids.iter().map(|&c| parent_var[c as usize]))
            .filter(|&v| v != NONE);
        for v in anchors {
            if !own
                .iter()
                .any(|&ai| conjunct_vars.of(ai as usize).contains(&v))
            {
                return None;
            }
        }
    }

    let span = |at: &[u32], r: usize| at[r]..at[r + 1];
    let regions = (0..block_count)
        .map(|r| Region {
            parent_var: (parent_var[r] != NONE).then(|| conjunct_vars.vars[parent_var[r] as usize]),
            atoms: span(&atom_at, r),
            constraints: span(&constraint_at, r),
            children: child_range[r].clone(),
        })
        .collect();
    Some(RegionPlan {
        regions,
        atoms,
        constraints,
        children,
    })
}

/// Whether a conjunct's variables hold two distinct ones.
fn spans_two_vars(mut vars: impl Iterator<Item = Var>) -> bool {
    vars.next().is_some_and(|first| vars.any(|v| v != first))
}

/// Each conjunct's distinct variables as dense ids, numbered in
/// first-occurrence order over the unit's atoms, then its constraints:
/// one flat list for the whole unit.
struct ConjunctVars {
    /// Id → variable.
    vars: Vec<Var>,
    /// Conjunct `i`'s ids are `ids[at[i]..at[i + 1]]`.
    at: Vec<u32>,
    ids: Vec<u32>,
}

impl ConjunctVars {
    fn number(unit: &WorkUnit) -> Self {
        let mut out = ConjunctVars {
            vars: Vec::new(),
            at: Vec::with_capacity(unit.atoms.len() + unit.constraints.len() + 1),
            ids: Vec::new(),
        };
        out.at.push(0);
        let mut id_of: FastMap<Var, u32> = FastMap::default();
        for atom in &unit.atoms {
            out.add(&mut id_of, atom.vars());
        }
        for c in &unit.constraints {
            out.add(&mut id_of, c.vars());
        }
        out
    }

    /// Appends one conjunct's variables.
    fn add(&mut self, id_of: &mut FastMap<Var, u32>, vars: impl Iterator<Item = Var>) {
        let start = self.ids.len();
        for v in vars {
            let next = self.vars.len() as u32;
            let id = *id_of.entry(v).or_insert_with(|| {
                self.vars.push(v);
                next
            });
            if !self.ids[start..].contains(&id) {
                self.ids.push(id);
            }
        }
        self.at.push(self.ids.len() as u32);
    }

    /// Conjunct `i`'s distinct variable ids, in order of occurrence.
    fn of(&self, i: usize) -> &[u32] {
        &self.ids[self.at[i] as usize..self.at[i + 1] as usize]
    }
}

/// Groups `(key, value)` pairs by key in one flat list, each key's
/// values in iteration order: key `k`'s values are
/// `values[at[k]..at[k + 1]]` of the returned `(at, values)`.
fn group_by_key<T: Copy + Default>(
    keys: usize,
    pairs: impl Iterator<Item = (u32, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut at = vec![0u32; keys + 1];
    for (k, _) in pairs.clone() {
        at[k as usize + 1] += 1;
    }
    for k in 0..keys {
        at[k + 1] += at[k];
    }
    let mut values = vec![T::default(); at[keys] as usize];
    let mut next = at.clone();
    for (k, v) in pairs {
        values[next[k as usize] as usize] = v;
        next[k as usize] += 1;
    }
    (at, values)
}

/// Evaluation counters for one plan. The first two are surfaced
/// through `BatchReport::{intra_region_streamed, intra_witness_peak}`:
/// how many region-local solutions the region runs were handed (one
/// per region when the descent answers; after a dead end, plus the
/// bottom-up witness pass and the pinned pick — under projection, a few
/// per articulation value rather than the region's solution count), and
/// the peak entry count of any single region's witness set — the
/// retained state, bounded by the articulation-value domain, and 0 when
/// the descent answered every split unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Region-local solutions consumed by split units.
    pub region_streamed: u64,
    /// Peak per-region witness-set entry count across split units.
    pub witness_peak: u64,
    /// Peak region-local solutions any one bottom-up (witness pass)
    /// region run consumed.
    pub region_streamed_peak: u64,
    /// What the evaluator did for the whole plan: the sum of the
    /// [`EvalStats`] of the ground residue, every whole unit and every
    /// region run.
    pub eval: EvalStats,
}

impl PlanStats {
    fn absorb(&mut self, other: PlanStats) {
        self.region_streamed += other.region_streamed;
        self.witness_peak = self.witness_peak.max(other.witness_peak);
        self.region_streamed_peak = self.region_streamed_peak.max(other.region_streamed_peak);
        self.eval += other.eval;
    }
}

/// Evaluates a plan against `db`, one unit after another in plan
/// order, on the calling thread; the first unsatisfiable unit ends the
/// evaluation. A split unit's region tree walk (`stream_unit`) is one
/// step of that loop.
///
/// Every atom of the plan — ground residue and every unit — is checked
/// against the database ([`Database::validate`]) before any conjunction
/// is searched, so an unknown relation or a wrong arity anywhere in the
/// body is an error even if some other unit is unsatisfiable, exactly as
/// one-shot evaluation of the whole body would report it. Each
/// conjunction is then resolved ([`Database::prepare`]) only when it
/// runs, and dropped after that run.
///
/// Returns the component's first coordinated solution — one
/// [`QueryAnswer`] per survivor, in survivor order — or `None` when any
/// unit, region, ground atom, or ground constraint is unsatisfiable,
/// plus the plan's [`PlanStats`] (counting only the units evaluated).
/// For plans without split units the result is answer-for-answer
/// identical to `CombinedQuery::evaluate(db, 1)` on the same survivors
/// (see the module docs for why the merge preserves the whole-body
/// join's answer choice). Split units return the block-cut tree join's
/// first solution instead — still a solution iff the whole-body join
/// finds one, still deterministic in the plan and database, but not
/// necessarily the same valuation unless the unit's solution is unique.
pub fn evaluate_plan(
    plan: &ComponentPlan,
    db: &Database,
) -> Result<(Option<Vec<QueryAnswer>>, PlanStats), DbError> {
    db.validate(
        plan.ground_atoms
            .iter()
            .chain(plan.units.iter().flat_map(|unit| &unit.atoms)),
    )?;

    // The variable-free residue is a conjunction like any other: its
    // atoms are filters the index decides, its constraints are checked
    // against the empty valuation.
    let mut stats = PlanStats::default();
    let (residue, residue_stats) = db
        .prepare(&plan.ground_atoms, &plan.ground_constraints)?
        .collect(1);
    stats.eval += residue_stats;
    if residue.is_empty() {
        return Ok((None, stats));
    }

    let mut merged = Valuation::default();
    for unit in &plan.units {
        let (first, unit_stats) = match &unit.regions {
            Some(rp) => stream_unit(unit, rp, db)?,
            None => evaluate_unit(unit, db)?,
        };
        stats.absorb(unit_stats);
        let Some(valuation) = first else {
            return Ok((None, stats));
        };
        // Units are variable-disjoint: plain union.
        for (&v, &value) in valuation.iter() {
            merged.insert(v, value);
        }
    }
    Ok((Some(distribute_heads(&plan.heads, &merged)), stats))
}

/// [`evaluate_plan`] under the name and signature the frozen benchmark
/// still calls; the thread count is ignored. ROADMAP item 2(b) deletes
/// it.
#[deprecated(note = "use `evaluate_plan`; the thread count is ignored (ROADMAP 2(b))")]
pub fn evaluate_plan_with_stats(
    plan: &ComponentPlan,
    db: &Database,
    _threads: usize,
) -> Result<(Option<Vec<QueryAnswer>>, PlanStats), DbError> {
    evaluate_plan(plan, db)
}

/// One unsplit unit's first valuation (`None`: the unit, and so the
/// component, has no solution).
fn evaluate_unit(
    unit: &WorkUnit,
    db: &Database,
) -> Result<(Option<Valuation>, PlanStats), DbError> {
    let (first, eval) = db.prepare(&unit.atoms, &unit.constraints)?.collect(1);
    let stats = PlanStats {
        eval,
        ..PlanStats::default()
    };
    Ok((first.into_iter().next(), stats))
}

/// Every region's witness set of one split unit, in one arena: region
/// `r`'s values sit sorted at `values[of[r]]` and are probed by binary
/// search.
struct Witnesses {
    values: Vec<Value>,
    of: Vec<Range<u32>>,
}

impl Witnesses {
    fn for_regions(regions: usize) -> Self {
        Witnesses {
            values: Vec::new(),
            of: vec![0..0; regions],
        }
    }

    fn of(&self, r: usize) -> &[Value] {
        let at = &self.of[r];
        &self.values[at.start as usize..at.end as usize]
    }

    fn contains(&self, r: usize, value: Value) -> bool {
        self.of(r).binary_search(&value).is_ok()
    }

    /// Sets region `r`'s witness set.
    fn record(&mut self, r: usize, keys: impl Iterator<Item = Value>) {
        let start = self.values.len();
        self.values.extend(keys);
        self.values[start..].sort_unstable();
        self.of[r] = start as u32..self.values.len() as u32;
    }
}

/// Region evaluation of one split unit (see the module docs): a greedy
/// descent first, the witness pass and a pinned pick only when the
/// descent dead-ends. Each run resolves its region against the
/// database when the walk reaches it and drops it after, so one
/// region's resolved query is alive at a time.
///
/// **Descent.** From the root, every region runs pinned to the value
/// its parent's solution gave their shared articulation variable and
/// keeps its first solution ([`RegionWalk::pick`] without witnesses).
/// When every region has one, the bindings agree on every tree edge,
/// so by running intersection they are a solution of the unit. Each of
/// those first solutions has just been shown to extend, so it is also
/// the first *extensible* one under the same pin — what the pinned pick
/// below would choose — so the descent returns exactly the answer the
/// fallback would. A region with no solution under its pin ends the
/// descent; its partial answer is dropped.
///
/// **Witness pass** ([`RegionWalk::witnesses`]), the fallback: bottom-up,
/// children first, each non-root region runs as a *projection* onto
/// its parent articulation variable and records the values some
/// locally-extensible solution carries.
///
/// **Pinned pick** ([`RegionWalk::pick`] with those witnesses): the
/// descent's walk again, now skipping every solution a child has no
/// witness for. Below the root every run hits: the value entered the
/// child's witness set off an extensible solution, and witness sets are
/// final. A pin never changes the evaluator's join order (see `eq_db`'s
/// evaluator docs), so the pinned run enumerates exactly the
/// subsequence of the region's solutions binding that value, in the
/// region's own order — its first extensible hit is precisely the
/// representative the `#[cfg(test)]` materialized semi-join keeps,
/// which is why the two agree answer for answer (property-tested).
///
/// Returns the unit's valuation (`None`: no solution) plus its counters.
fn stream_unit(
    unit: &WorkUnit,
    rp: &RegionPlan,
    db: &Database,
) -> Result<(Option<Valuation>, PlanStats), DbError> {
    let mut stats = PlanStats::default();
    // Pre-order from the root; reverse visit order is children-first.
    let mut order: Vec<usize> = Vec::with_capacity(rp.regions.len());
    let mut stack = vec![0usize];
    while let Some(r) = stack.pop() {
        order.push(r);
        stack.extend(rp.children(r).iter().map(|&c| c as usize));
    }
    if order.len() != rp.regions.len() {
        // Defensive: split_unit guarantees a spanning tree; a malformed
        // one cannot be evaluated, so report no solution.
        return Ok((None, stats));
    }
    let walk = RegionWalk { unit, rp, db };
    if let Some(answer) = walk.pick(None, &mut stats)? {
        return Ok((Some(answer), stats));
    }
    let picked = match walk.witnesses(&order, &mut stats)? {
        Some(witnesses) => walk.pick(Some(&witnesses), &mut stats)?,
        None => None,
    };
    Ok((picked, stats))
}

/// One split unit's regions, resolved one at a time as a walk reaches
/// them.
struct RegionWalk<'a> {
    unit: &'a WorkUnit,
    rp: &'a RegionPlan,
    db: &'a Database,
}

impl<'a> RegionWalk<'a> {
    fn resolve(&self, r: usize) -> Result<Prepared<'a>, DbError> {
        let unit = self.unit;
        self.db.prepare(
            self.rp.atoms(r).iter().map(|&a| &unit.atoms[a as usize]),
            self.rp
                .constraints(r)
                .iter()
                .map(|&c| &unit.constraints[c as usize]),
        )
    }

    /// The slot each child's articulation variable has in region `r`'s
    /// query; `false` if one has none (a malformed tree: split_unit
    /// anchors every articulation variable in both regions of its tree
    /// edge).
    fn child_slots(&self, r: usize, query: &Prepared<'_>, slots: &mut Vec<(usize, Slot)>) -> bool {
        slots.clear();
        for &c in self.rp.children(r) {
            let c = c as usize;
            match self.rp.regions[c].parent_var.and_then(|pv| query.slot(pv)) {
                Some(slot) => slots.push((c, slot)),
                None => return false,
            }
        }
        true
    }

    /// The bottom-up witness pass over the non-root regions, children
    /// first. Each runs as a projection onto its parent articulation
    /// variable: the visitor keeps a **witness set** of the values some
    /// locally-extensible solution carries — memory bounded by the
    /// articulation-value domain — and answers each solution with
    /// "done with this value" ([`Visit::SkipValue`]): of the
    /// articulation variable, as soon as its value is (or just went) in
    /// the set; of a child's articulation variable, when that child has
    /// no witness for its value, since no solution carrying it can ever
    /// extend. Either way the search backjumps past the joins hanging
    /// off a value whose fate is settled, so a region costs on the order
    /// of its articulation domain, not of its local solution count. The
    /// run opens its first frame on an atom that binds the articulation
    /// variable ([`Prepared::run_binding_first`]), so a settled value
    /// backjumps all the way to that frame's next candidate.
    ///
    /// `None` when some region witnesses nothing: the unit has no
    /// solution.
    fn witnesses(
        &self,
        order: &[usize],
        stats: &mut PlanStats,
    ) -> Result<Option<Witnesses>, DbError> {
        let mut witnesses = Witnesses::for_regions(self.rp.regions.len());
        let mut slots: Vec<(usize, Slot)> = Vec::new();
        let mut pins: Vec<(Slot, Value)> = Vec::new();
        let mut keys: FastSet<Value> = FastSet::default();
        for &r in order[1..].iter().rev() {
            let query = self.resolve(r)?;
            let own = self.rp.regions[r].parent_var.and_then(|pv| query.slot(pv));
            let (Some(own), true) = (own, self.child_slots(r, &query, &mut slots)) else {
                return Ok(None);
            };
            pins_for(&slots, Some(&witnesses), &mut pins);
            keys.clear();
            let mut streamed = 0;
            stats.eval += query.run_binding_first(own, &pins, |sol| {
                streamed += 1;
                let Some(key) = sol.at(own) else {
                    return Visit::Continue;
                };
                if keys.contains(&key) {
                    return Visit::SkipValue(own);
                }
                blocked(sol, &slots, Some(&witnesses)).unwrap_or_else(|| {
                    keys.insert(key);
                    Visit::SkipValue(own)
                })
            });
            stats.region_streamed += streamed;
            stats.region_streamed_peak = stats.region_streamed_peak.max(streamed);
            if keys.is_empty() {
                return Ok(None);
            }
            stats.witness_peak = stats.witness_peak.max(keys.len() as u64);
            witnesses.record(r, keys.drain());
        }
        Ok(Some(witnesses))
    }

    /// The top-down walk that picks the unit's one answer: the root runs
    /// unpinned, every other region pinned to the value its parent's
    /// pick gave their articulation variable, and each keeps its first
    /// solution that binds every child's articulation variable — with
    /// `witnesses`, its first solution every child has a witness for,
    /// and a child's singleton witness set pinned into the run too, so
    /// the parent only ever looks at rows carrying it. `None` when some
    /// region has no such solution.
    fn pick(
        &self,
        witnesses: Option<&Witnesses>,
        stats: &mut PlanStats,
    ) -> Result<Option<Valuation>, DbError> {
        let mut slots: Vec<(usize, Slot)> = Vec::new();
        let mut pins: Vec<(Slot, Value)> = Vec::new();
        let mut answer = Valuation::default();
        let mut walk: Vec<(usize, Option<Value>)> = vec![(0, None)];
        while let Some((r, pin)) = walk.pop() {
            let query = self.resolve(r)?;
            if !self.child_slots(r, &query, &mut slots) {
                return Ok(None);
            }
            pins_for(&slots, witnesses, &mut pins);
            if let Some(value) = pin {
                let Some(own) = self.rp.regions[r].parent_var.and_then(|pv| query.slot(pv)) else {
                    return Ok(None);
                };
                pins.push((own, value));
            }
            let mut hit = false;
            stats.eval += query.run(&pins, |sol| {
                stats.region_streamed += 1;
                if let Some(verdict) = blocked(sol, &slots, witnesses) {
                    return verdict;
                }
                hit = true;
                answer.extend(sol.bindings());
                for &(c, in_parent) in &slots {
                    walk.push((c, sol.at(in_parent)));
                }
                Visit::Break
            });
            if !hit {
                return Ok(None);
            }
        }
        Ok(Some(answer))
    }
}

/// `None` when `sol` binds every child's articulation variable and, with
/// `witnesses`, every child has a witness for the value it binds (the
/// children's sets are final by the time a parent runs); otherwise the
/// verdict that skips the solution, or the first offending child value.
fn blocked(
    sol: &Solution<'_>,
    slots: &[(usize, Slot)],
    witnesses: Option<&Witnesses>,
) -> Option<Visit> {
    for &(c, slot) in slots {
        match sol.at(slot) {
            None => return Some(Visit::Continue),
            Some(value) if witnesses.is_none_or(|w| w.contains(c, value)) => {}
            Some(_) => return Some(Visit::SkipValue(slot)),
        }
    }
    None
}

/// Singleton push-down: every child whose witness set kept exactly one
/// value pins it on the shared variable. No pins without `witnesses`.
fn pins_for(slots: &[(usize, Slot)], witnesses: Option<&Witnesses>, pins: &mut Vec<(Slot, Value)>) {
    pins.clear();
    let Some(witnesses) = witnesses else {
        return;
    };
    for &(c, slot) in slots {
        if let [value] = witnesses.of(c) {
            pins.push((slot, *value));
        }
    }
}

/// The region evaluator that [`stream_unit`] replaced, kept as the test
/// oracle: materialize each region's solutions (up to `region_cap`),
/// run the exact tree semi-join over the block-cut tree, and fall back
/// to whole-unit evaluation when a region may have been truncated. Its
/// memory grows with the regions' solution counts, which is why it is
/// not the production path.
#[cfg(test)]
mod materialized_reference {
    use super::*;

    /// Same contract as [`super::evaluate_plan`] without the counters,
    /// with every split unit evaluated through the materialized semi-join.
    /// `region_cap` is clamped to at least 1: a zero budget would make
    /// every region look empty (= unsatisfiable) instead of truncated.
    pub(super) fn evaluate_plan(
        plan: &ComponentPlan,
        db: &Database,
        region_cap: usize,
    ) -> Result<Option<Vec<QueryAnswer>>, DbError> {
        for unit in &plan.units {
            db.validate(&unit.atoms)?;
        }
        let residue = db.evaluate_filtered(&plan.ground_atoms, &plan.ground_constraints, 1)?;
        if residue.is_empty() {
            return Ok(None);
        }
        let region_cap = region_cap.max(1);
        let mut merged = Valuation::default();
        for unit in &plan.units {
            let first = match &unit.regions {
                Some(rp) => evaluate_split_unit(unit, rp, db, region_cap),
                None => evaluate_unit(unit, db),
            };
            let Some(valuation) = first else {
                return Ok(None);
            };
            for (&v, &value) in valuation.iter() {
                merged.insert(v, value);
            }
        }
        Ok(Some(distribute_heads(&plan.heads, &merged)))
    }

    fn evaluate_unit(unit: &WorkUnit, db: &Database) -> Option<Valuation> {
        let first = db
            .evaluate_filtered(&unit.atoms, &unit.constraints, 1)
            .expect("relations validated by evaluate_plan");
        first.into_iter().next()
    }

    fn evaluate_split_unit(
        unit: &WorkUnit,
        rp: &RegionPlan,
        db: &Database,
        region_cap: usize,
    ) -> Option<Valuation> {
        let sols: Vec<Vec<Valuation>> = (0..rp.regions.len())
            .map(|r| {
                let atoms = rp.atoms(r).iter().map(|&a| &unit.atoms[a as usize]);
                let constraints = rp
                    .constraints(r)
                    .iter()
                    .map(|&c| &unit.constraints[c as usize]);
                let query = db.prepare(atoms, constraints);
                query
                    .expect("relations validated by evaluate_plan")
                    .collect(region_cap)
                    .0
            })
            .collect();
        if sols.iter().any(|s| s.is_empty()) {
            None
        } else if sols.iter().any(|s| s.len() >= region_cap) {
            // A region may have overflowed the cap: the semi-join could
            // miss keys, so evaluate the unit whole (complete, and the
            // same deterministic path the unsplit plan takes).
            evaluate_unit(unit, db)
        } else {
            semijoin_merge(rp, &sols)
        }
    }

    /// The exact tree semi-join over a split unit's block-cut tree:
    /// bottom-up, keep per value of each region's parent articulation
    /// variable the first locally-enumerated solution every child can
    /// extend; top-down, glue the chosen representatives. Returns `None`
    /// iff the unit has no solution (given un-truncated region
    /// enumerations).
    fn semijoin_merge(rp: &RegionPlan, sols: &[Vec<Valuation>]) -> Option<Valuation> {
        let n = rp.regions.len();
        // Pre-order from the root; processing it in reverse visits children
        // before parents.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut stack = vec![0usize];
        while let Some(r) = stack.pop() {
            order.push(r);
            stack.extend(rp.children(r).iter().map(|&c| c as usize));
        }
        debug_assert_eq!(order.len(), n);

        // For non-root regions: parent-variable value → index of the first
        // extensible local solution. For the root: the index itself.
        let mut feasible: Vec<FastMap<Value, usize>> = Vec::with_capacity(n);
        feasible.resize_with(n, FastMap::default);
        let mut root_choice: Option<usize> = None;
        for &r in order.iter().rev() {
            let region = &rp.regions[r];
            let extensible = |sol: &Valuation| {
                rp.children(r).iter().all(|&c| {
                    // A walked child always has a parent edge; a missing
                    // one means a malformed tree — treat as inextensible.
                    let Some(v) = rp.regions[c as usize].parent_var else {
                        return false;
                    };
                    sol.get(&v)
                        .is_some_and(|value| feasible[c as usize].contains_key(value))
                })
            };
            match region.parent_var {
                Some(pv) => {
                    let mut map = FastMap::default();
                    for (si, sol) in sols[r].iter().enumerate() {
                        if !extensible(sol) {
                            continue;
                        }
                        // Anchoring (split_unit) guarantees region atoms
                        // bind the articulation variable; skip defensively
                        // otherwise.
                        let Some(&key) = sol.get(&pv) else { continue };
                        map.entry(key).or_insert(si);
                    }
                    if map.is_empty() {
                        return None; // no child binding survives: unit unsat
                    }
                    feasible[r] = map;
                }
                None => {
                    root_choice = Some(sols[r].iter().position(extensible)?);
                }
            }
        }

        // Top-down reconstruction: every lookup hits by construction (the
        // `?` arms are defensive against a malformed tree and read "no
        // solution" rather than panicking).
        let root_si = root_choice?;
        let mut merged = Valuation::default();
        let mut walk = vec![(0usize, root_si)];
        while let Some((r, si)) = walk.pop() {
            let sol = sols.get(r)?.get(si)?;
            for (&v, &value) in sol.iter() {
                merged.insert(v, value);
            }
            for &c in rp.children(r) {
                let c = c as usize;
                let pv = rp.regions[c].parent_var?;
                let key = sol.get(&pv)?;
                let si = *feasible[c].get(key)?;
                walk.push((c, si));
            }
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::match_component;
    use crate::CombinedQuery;
    use eq_ir::{EntangledQuery, Term, Value, VarGen};
    use eq_sql::parse_ir_query;

    fn build(texts: &[&str]) -> MatchGraph {
        let gen = VarGen::new();
        let queries: Vec<EntangledQuery> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                parse_ir_query(t)
                    .unwrap()
                    .rename_apart(&gen)
                    .with_id(QueryId(i as u64))
            })
            .collect();
        MatchGraph::build(queries)
    }

    fn flight_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["fno", "dest"]).unwrap();
        db.create_table("A", &["fno", "airline"]).unwrap();
        for (fno, dest) in [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ] {
            db.insert("F", vec![Value::int(fno), Value::str(dest)])
                .unwrap();
        }
        for (fno, al) in [(122, "United"), (123, "United"), (134, "Lufthansa")] {
            db.insert("A", vec![Value::int(fno), Value::str(al)])
                .unwrap();
        }
        db
    }

    fn plan_for(g: &MatchGraph, members: &[u32]) -> (ComponentPlan, CombinedQuery) {
        let m = match_component(g, members);
        let global = m.global.expect("answerable");
        let plan = plan(g, &m.survivors, &global);
        let cq = CombinedQuery::build(g, &m.survivors, global.clone());
        (plan, cq)
    }

    #[test]
    fn entangled_pair_with_shared_variable_is_one_unit() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        let (plan, _) = plan_for(&g, &[0, 1]);
        // The global unifier merges x and y: all three atoms share one
        // variable class, so the body is one unit.
        assert_eq!(plan.units.len(), 1);
        assert_eq!(plan.units[0].atoms.len(), 3);
        assert!(plan.ground_atoms.is_empty());
    }

    #[test]
    fn disjoint_bodies_split_into_units() {
        // Two ground-entangled queries whose bodies use private
        // variables: two independent units.
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(x, Paris)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(y, Rome)",
        ]);
        let (plan, _) = plan_for(&g, &[0, 1]);
        assert_eq!(plan.units.len(), 2);
        assert_eq!(plan.units[0].atoms.len(), 1);
    }

    #[test]
    fn ground_atoms_become_membership_checks() {
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(122, Paris)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(136, Rome)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        assert!(plan.units.is_empty());
        assert_eq!(plan.ground_atoms.len(), 2);
        let db = flight_db();
        let par = evaluate_plan(&plan, &db).unwrap().0;
        let seq = cq.evaluate(&db, 1).unwrap().into_iter().next();
        assert_eq!(par, seq);
        assert!(par.is_some());
    }

    #[test]
    fn missing_ground_atom_means_no_solution() {
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(999, Paris)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(136, Rome)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        let db = flight_db();
        assert_eq!(evaluate_plan(&plan, &db).unwrap().0, None);
        assert!(cq.evaluate(&db, 1).unwrap().is_empty());
    }

    #[test]
    fn partitioned_answers_match_the_combined_query() {
        // A pair sharing its answer variable: one unit, answered exactly
        // as the whole-body join answers it.
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        let db = flight_db();
        let seq = cq.evaluate(&db, 1).unwrap().into_iter().next();
        assert_eq!(evaluate_plan(&plan, &db).unwrap().0, seq);
    }

    #[test]
    fn unknown_relation_is_an_error_not_a_miss() {
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- Nope(x)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(y, Rome)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1]);
        let db = flight_db();
        assert!(evaluate_plan(&plan, &db).is_err());
        assert!(cq.evaluate(&db, 1).is_err());
    }

    fn raw_unit(atoms: Vec<Atom>) -> WorkUnit {
        WorkUnit {
            atoms,
            constraints: vec![],
            regions: None,
        }
    }

    fn e(a: Term, b: Term) -> Atom {
        Atom::new("E", vec![a, b])
    }

    fn vx(i: u32) -> Term {
        Term::var(Var(i))
    }

    #[test]
    fn chain_unit_splits_into_edge_regions() {
        // x0—x1—x2—x3: every interior variable is an articulation
        // point, so each edge atom is its own region.
        let unit = raw_unit(vec![e(vx(0), vx(1)), e(vx(1), vx(2)), e(vx(2), vx(3))]);
        let rp = split_unit(&unit).expect("chain splits");
        assert_eq!(rp.regions.len(), 3);
        // Root is the region of the first atom; children chain off it
        // keyed by the shared articulation variable.
        assert_eq!(rp.regions[0].parent_var, None);
        assert_eq!(rp.regions[1].parent_var, Some(Var(1)));
        assert_eq!(rp.regions[2].parent_var, Some(Var(2)));
        assert_eq!(rp.children(0), [1]);
        assert_eq!(rp.children(1), [2]);
        // Every atom lands in exactly one region.
        assert_eq!([rp.atoms(0), rp.atoms(1), rp.atoms(2)], [[0], [1], [2]]);
    }

    #[test]
    fn cycle_unit_does_not_split() {
        // x0—x1—x2—x0 is 2-connected: one block, no articulation vars.
        let unit = raw_unit(vec![e(vx(0), vx(1)), e(vx(1), vx(2)), e(vx(2), vx(0))]);
        assert!(split_unit(&unit).is_none());
    }

    #[test]
    fn single_variable_atoms_replicate_into_every_region_with_their_var() {
        let unit = raw_unit(vec![
            e(vx(0), vx(1)),
            e(vx(1), vx(2)),
            Atom::new("E", vec![vx(1), Term::int(7)]), // only var x1
        ]);
        let rp = split_unit(&unit).expect("splits at x1");
        assert_eq!(rp.regions.len(), 2);
        // x1 is the articulation variable: its single-var atom anchors
        // *both* regions (replication is sound — same conjunct, same
        // variable).
        assert_eq!(rp.atoms(0), [0, 2]);
        assert_eq!(rp.atoms(1), [1, 2]);
    }

    #[test]
    fn constraint_bridged_clusters_refuse_to_split() {
        use eq_ir::CmpOp;
        // Two atom clusters glued only by the constraint x1 < x2: the
        // bridge block holds no atom, and no single region could
        // enforce the constraint — the unit must evaluate whole.
        let unit = WorkUnit {
            atoms: vec![e(vx(0), vx(1)), e(vx(2), vx(3))],
            constraints: vec![Constraint::new(vx(1), CmpOp::Lt, vx(2))],
            regions: None,
        };
        assert!(split_unit(&unit).is_none());
        // A multi-variable constraint *inside* a cluster is fine: its
        // clique edge coincides with an atom's, so its block is a real
        // region and the split goes through.
        let unit = WorkUnit {
            atoms: vec![e(vx(0), vx(1)), e(vx(1), vx(2))],
            constraints: vec![Constraint::new(vx(0), CmpOp::Lt, vx(1))],
            regions: None,
        };
        let rp = split_unit(&unit).expect("in-cluster constraint splits");
        assert_eq!(rp.regions.len(), 2);
        assert_eq!(rp.constraints(0), [0]);
        assert!(rp.constraints(1).is_empty());
    }

    #[test]
    fn zero_region_cap_is_clamped_not_unsat() {
        // The reference's region_cap 0 must not reclassify every region
        // as unsatisfiable; it clamps to 1, so overflowing regions fall
        // back to whole-unit evaluation and the answer survives.
        let db = split_db();
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(0), vx(2)]),
            ],
            &[0],
        );
        let answers = materialized_reference::evaluate_plan(&plan, &db, 0)
            .unwrap()
            .expect("satisfiable");
        assert_eq!(answers[0].tuples[0], vec![Value::int(2)]);
    }

    fn split_db() -> Database {
        let mut db = Database::new();
        db.create_table("A", &["x", "y"]).unwrap();
        db.create_table("B", &["x", "z"]).unwrap();
        for (x, y) in [(1, 10), (2, 20)] {
            db.insert("A", vec![Value::int(x), Value::int(y)]).unwrap();
        }
        db.insert("B", vec![Value::int(2), Value::int(30)]).unwrap();
        db
    }

    /// A plan whose single unit is pre-split, with one head atom that
    /// exposes the merged valuation as a grounded tuple.
    fn split_plan(atoms: Vec<Atom>, head_vars: &[u32]) -> ComponentPlan {
        let mut unit = raw_unit(atoms);
        unit.regions = split_unit(&unit);
        assert!(unit.regions.is_some(), "test unit must split");
        let head = Atom::new("H", head_vars.iter().map(|&i| vx(i)).collect::<Vec<_>>());
        ComponentPlan {
            units: vec![unit],
            ground_atoms: vec![],
            ground_constraints: vec![],
            heads: vec![(QueryId(0), vec![head])],
        }
    }

    #[test]
    fn semijoin_rejects_locally_first_but_globally_infeasible_choices() {
        // Region A(x,y) enumerates x=1 first, but region B(x,z) only
        // admits x=2: the merge must pick A's second solution, not
        // fail or return an inconsistent pair — streamed and
        // materialized alike.
        let db = split_db();
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(0), vx(2)]),
            ],
            &[0, 1, 2],
        );
        let expect = vec![Value::int(2), Value::int(20), Value::int(30)];
        let answers = evaluate_plan(&plan, &db)
            .unwrap()
            .0
            .expect("x=2 is consistent");
        assert_eq!(answers[0].tuples[0], expect);
        let answers = materialized_reference::evaluate_plan(&plan, &db, 64)
            .unwrap()
            .expect("x=2 is consistent");
        assert_eq!(answers[0].tuples[0], expect);
    }

    #[test]
    fn split_is_exact_on_unsatisfiable_units() {
        let mut db = split_db();
        // Remove B's only row: the B region enumerates nothing.
        db.delete("B", &[Value::int(2), Value::int(30)]).unwrap();
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(0), vx(2)]),
            ],
            &[0],
        );
        assert_eq!(evaluate_plan(&plan, &db).unwrap().0, None);
        assert_eq!(
            materialized_reference::evaluate_plan(&plan, &db, 64).unwrap(),
            None
        );
    }

    #[test]
    fn region_cap_overflow_falls_back_to_whole_unit_evaluation() {
        // Reference with cap 1 < the A region's 2 solutions: the split
        // aborts and the unit evaluates whole — same first answer as
        // the plain path. (Streaming has no cap to overflow.)
        let db = split_db();
        let atoms = vec![
            Atom::new("A", vec![vx(0), vx(1)]),
            Atom::new("B", vec![vx(0), vx(2)]),
        ];
        let plan = split_plan(atoms.clone(), &[0, 1, 2]);
        let whole = db.evaluate_filtered(&atoms, &[], 1).unwrap();
        let answers = materialized_reference::evaluate_plan(&plan, &db, 1)
            .unwrap()
            .expect("satisfiable");
        let expect: Vec<Value> = [Var(0), Var(1), Var(2)]
            .iter()
            .map(|v| whole[0][v])
            .collect();
        assert_eq!(answers[0].tuples[0], expect);
    }

    #[test]
    fn long_shared_chain_split_agrees_with_whole_unit_satisfiability() {
        // E(i, i+1) rows form one path; the 12-atom chain unit splits
        // into 12 regions whose join admits exactly the path valuation.
        let mut db = Database::new();
        db.create_table("E", &["a", "b"]).unwrap();
        for i in 0..13 {
            db.insert("E", vec![Value::int(i), Value::int(i + 1)])
                .unwrap();
        }
        let atoms: Vec<Atom> = (0..12).map(|i| e(vx(i), vx(i + 1))).collect();
        let head_vars: Vec<u32> = (0..13).collect();
        let whole = db.evaluate_filtered(&atoms, &[], 1).unwrap();
        let expect: Vec<Value> = (0..13).map(|i| whole[0][&Var(i)]).collect();
        let plan = split_plan(atoms, &head_vars);
        assert_eq!(
            plan.units[0].regions.as_ref().unwrap().regions.len(),
            12,
            "every interior variable is an articulation point"
        );
        let answers = evaluate_plan(&plan, &db).unwrap().0.unwrap();
        assert_eq!(answers[0].tuples[0], expect, "chain solution is unique");
        let answers = materialized_reference::evaluate_plan(&plan, &db, 64)
            .unwrap()
            .unwrap();
        assert_eq!(answers[0].tuples[0], expect, "chain solution is unique");
    }

    #[test]
    fn streaming_matches_materialized_answer_for_answer() {
        // Many locally-valid keys per region, several of them globally
        // consistent: streaming must pick the *same* representative as
        // the reference (the pinned re-enumeration provably reproduces
        // the materialized semi-join's per-key first choice).
        let mut db = Database::new();
        db.create_table("A", &["x", "y"]).unwrap();
        db.create_table("B", &["x", "z"]).unwrap();
        for x in 0..6 {
            for y in 0..3 {
                db.insert("A", vec![Value::int(x), Value::int(10 * x + y)])
                    .unwrap();
            }
        }
        for x in [2, 4, 5] {
            for z in 0..2 {
                db.insert("B", vec![Value::int(x), Value::int(100 * x + z)])
                    .unwrap();
            }
        }
        let atoms = vec![
            Atom::new("A", vec![vx(0), vx(1)]),
            Atom::new("B", vec![vx(0), vx(2)]),
        ];
        let plan = split_plan(atoms, &[0, 1, 2]);
        let m = materialized_reference::evaluate_plan(&plan, &db, 4096).unwrap();
        assert!(m.is_some());
        assert_eq!(evaluate_plan(&plan, &db).unwrap().0, m);
    }

    #[test]
    fn interior_regions_skip_inextensible_solutions_in_both_passes() {
        // A(x,y) — B(y,z) — C(z,w): the B region has a parent and a
        // child, and C admits two z values, so no singleton push-down
        // masks the extensibility check. B's first solution for y=1
        // (z=1) and its only solution for y=2 (z=9) cannot be extended
        // into C: bottom-up must not witness y=2, and the top-down pick
        // for y=1 must skip z=1.
        let mut db = Database::new();
        for (name, rows) in [
            ("A", &[(0, 2), (0, 1), (0, 3)][..]),
            ("B", &[(1, 1), (1, 2), (2, 9), (3, 3)][..]),
            ("C", &[(2, 20), (3, 30)][..]),
        ] {
            db.create_table(name, &["l", "r"]).unwrap();
            for &(l, r) in rows {
                db.insert(name, vec![Value::int(l), Value::int(r)]).unwrap();
            }
        }
        let plan = split_plan(
            vec![
                Atom::new("A", vec![vx(0), vx(1)]),
                Atom::new("B", vec![vx(1), vx(2)]),
                Atom::new("C", vec![vx(2), vx(3)]),
            ],
            &[0, 1, 2, 3],
        );
        assert_eq!(plan.units[0].regions.as_ref().unwrap().regions.len(), 3);
        let expect: Vec<Value> = [0, 1, 2, 20].map(Value::int).to_vec();
        let m = materialized_reference::evaluate_plan(&plan, &db, 64)
            .unwrap()
            .expect("x=0, y=1, z=2, w=20 is consistent");
        assert_eq!(m[0].tuples[0], expect);
        let s = evaluate_plan(&plan, &db).unwrap().0;
        assert_eq!(s.as_ref(), Some(&m), "streaming diverged");
    }

    /// How [`ring_plan`] rigs and orders an `eq_workload` ring.
    #[derive(Clone, Copy, Default)]
    struct Ring {
        /// Points one query's body anchor at a name absent from Friends:
        /// one region becomes unsatisfiable, so the whole ring has no
        /// solution.
        break_at: Option<usize>,
        /// Seeds a shuffle of the order the queries reach the graph in
        /// (`None`: ring order). It decides which region roots the
        /// block-cut tree, hence which side of each region its parent
        /// articulation variable sits on.
        arrival: Option<u64>,
        /// Builds the ring with `eq_workload::giant_detour` at the query
        /// this many places right of the first to arrive, whose region
        /// is the root: the region that deep has no solution under its
        /// parent's first choice, but the ring stays satisfiable. The
        /// first query in arrival order with that much room on its right
        /// is moved to the front (a trap left of the root is stepped
        /// round: see `giant_detour`). Left out when no query has room.
        detour: Option<usize>,
    }

    /// Plans one shared-flavor ring (one matched component) as `ring`
    /// says; the flag tells whether the detour was placed.
    fn ring_plan(
        cfg: &eq_workload::GiantComponentConfig,
        ring: Ring,
    ) -> (Database, ComponentPlan, bool) {
        use eq_workload::rng::{SliceRandom, StdRng};
        let (db, mut queries) = eq_workload::giant_component(cfg);
        if let Some(i) = ring.break_at {
            let q = &queries[i % cfg.queries];
            let mut body = q.body.clone();
            body[0].terms[0] = Term::str("NOBODY");
            queries[i % cfg.queries] =
                EntangledQuery::new(q.head.clone(), q.postconditions.clone(), body).with_id(q.id);
        }
        if let Some(seed) = ring.arrival {
            queries.shuffle(&mut StdRng::seed_from_u64(seed));
        }
        if let Some(depth) = ring.detour {
            let room = |q: &EntangledQuery| q.id.0 as usize + depth < cfg.queries;
            if let Some(i) = queries.iter().position(room) {
                queries[..=i].rotate_right(1);
            }
        }
        let root = queries[0].id.0 as usize;
        let detour = ring
            .detour
            .map(|depth| root + depth)
            .filter(|&at| at < cfg.queries);
        let db = match detour {
            Some(at) => eq_workload::giant_detour(cfg, at).0,
            None => db,
        };
        let gen = VarGen::new();
        let g = MatchGraph::build(
            queries
                .iter()
                .map(|q| q.rename_apart(&gen).with_id(q.id))
                .collect(),
        );
        let members: Vec<u32> = (0..cfg.queries as u32).collect();
        let m = match_component(&g, &members);
        let global = m.global.expect("rings always match");
        let plan = plan(&g, &m.survivors, &global);
        (db, plan, detour.is_some())
    }

    /// A 2,000-query shared chain with k = 12: 2,000 three-atom regions
    /// of k(k+1)/2 = 78 local solutions each.
    fn chain_2000() -> eq_workload::GiantComponentConfig {
        eq_workload::GiantComponentConfig {
            queries: 2_000,
            friends_per_user: 12,
            body: eq_workload::GiantBody::SharedChain,
        }
    }

    /// On a clean shared chain every region's first solution under its
    /// parent's pin extends, whichever region the arrival order makes
    /// the root: the descent answers alone, one pinned run and about
    /// one row per region, and no witness set is ever built.
    #[test]
    fn descent_answers_a_clean_ring_with_one_run_per_region() {
        let cfg = chain_2000();
        for arrival in [Some(2011), Some(7), Some(3)] {
            let ring = Ring {
                arrival,
                ..Ring::default()
            };
            let (db, plan, _) = ring_plan(&cfg, ring);
            let regions = plan.units[0]
                .regions
                .as_ref()
                .expect("the chain splits")
                .regions
                .len() as u64;
            assert_eq!(regions, 2_000);
            let (answers, stats) = evaluate_plan(&plan, &db).unwrap();
            let reference = materialized_reference::evaluate_plan(&plan, &db, 4096).unwrap();
            assert!(answers.is_some());
            assert_eq!(answers, reference, "arrival {arrival:?}");
            assert_eq!(stats.region_streamed, regions, "arrival {arrival:?}");
            assert_eq!(stats.witness_peak, 0, "arrival {arrival:?}");
            assert!(
                stats.eval.rows_considered <= 2 * regions,
                "arrival {arrival:?}: {} rows read for {regions} regions",
                stats.eval.rows_considered
            );
        }
    }

    /// A detour deep below the root: the descent dead-ends there, the
    /// witness pass runs, and the pinned pick goes round the trap to the
    /// answer the materialized semi-join keeps — on both shared flavors
    /// and in ring and shuffled arrival orders.
    #[test]
    fn a_dead_end_falls_back_to_the_witness_pass() {
        for body in [
            eq_workload::GiantBody::SharedChain,
            eq_workload::GiantBody::SharedWide,
        ] {
            let cfg = eq_workload::GiantComponentConfig {
                queries: 60,
                friends_per_user: 3,
                body,
            };
            for arrival in [None, Some(2011), Some(7)] {
                let ring = Ring {
                    arrival,
                    detour: Some(12),
                    ..Ring::default()
                };
                let (db, plan, detoured) = ring_plan(&cfg, ring);
                assert!(detoured, "{body:?}, arrival {arrival:?}");
                let (answers, stats) = evaluate_plan(&plan, &db).unwrap();
                let reference = materialized_reference::evaluate_plan(&plan, &db, 4096).unwrap();
                assert!(answers.is_some(), "{body:?}, arrival {arrival:?}");
                assert_eq!(answers, reference, "{body:?}, arrival {arrival:?}");
                assert!(stats.witness_peak > 0, "{body:?}, arrival {arrival:?}");
            }
        }
    }

    /// Step-count guard for the witness pass. On a 2,000-query shared
    /// chain with k = 12, enumerating every region's 78 local solutions
    /// and reading every row of every probed posting list cost ≈ 157·k
    /// rows and 6.6·k solutions per region; projection backjumping and
    /// index-only membership must hold that to the order of the
    /// articulation domain, in every region: in ring order and in
    /// shuffled arrival orders, where the regions on one side of the
    /// root would bind their parent articulation variable second if the
    /// bottom-up run did not open on it. A detour 1,000 regions below
    /// the root makes the descent dead-end, so the witness pass runs
    /// over every region; the counts include the descent's runs too.
    #[test]
    fn region_cost_tracks_the_articulation_domain() {
        const K: u64 = 12;
        let cfg = chain_2000();
        for arrival in [None, Some(2011), Some(7)] {
            let ring = Ring {
                arrival,
                detour: Some(1_000),
                ..Ring::default()
            };
            let (db, plan, detoured) = ring_plan(&cfg, ring);
            assert!(detoured, "arrival {arrival:?}");
            let regions = plan.units[0]
                .regions
                .as_ref()
                .expect("the chain splits")
                .regions
                .len() as u64;
            assert_eq!(regions, 2_000);
            let (answers, stats) = evaluate_plan(&plan, &db).unwrap();
            let reference = materialized_reference::evaluate_plan(&plan, &db, 4096).unwrap();
            assert!(answers.is_some());
            assert_eq!(answers, reference, "arrival {arrival:?}");
            assert!(
                stats.witness_peak > 0,
                "arrival {arrival:?}: no witness pass"
            );
            assert!(
                stats.eval.rows_considered <= 25 * K * regions,
                "arrival {arrival:?}: {} rows read for {regions} regions",
                stats.eval.rows_considered
            );
            assert!(
                stats.region_streamed <= 4 * K * regions,
                "arrival {arrival:?}: {} solutions streamed for {regions} regions",
                stats.region_streamed
            );
            assert!(stats.witness_peak <= K);
            assert!(
                stats.region_streamed_peak <= 2 * K,
                "arrival {arrival:?}: one region streamed {} solutions",
                stats.region_streamed_peak
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn streaming_equals_materialized_region_evaluation(
            n in 9usize..36,
            k in 1usize..5,
            flavor in 0usize..3,
            at in 0usize..36,
            arrival in proptest::option::of(0u64..1000),
            wide in 0usize..2,
        ) {
            // Shared-variable rings, which every plan splits: region
            // evaluation must be answer-for-answer identical to the
            // materialized semi-join — for every k (many local solutions
            // per region), on satisfiable, detoured and sabotaged rings,
            // in ring and in shuffled arrival order, and on the wide
            // flavor whose pendant regions carry Θ(k²) local solutions.
            // A clean ring (flavor 0) is answered by the descent alone;
            // a detoured one (flavor 1, up to `at + 1` regions below the root)
            // stays satisfiable and is answered by the witness pass and
            // the pinned pick; a broken one (flavor 2, at query `at`) has
            // no solution.
            use eq_workload::{GiantBody, GiantComponentConfig};
            proptest::prop_assume!(n > 4 * k);
            let cfg = GiantComponentConfig {
                queries: n,
                friends_per_user: k,
                body: if wide == 1 { GiantBody::SharedWide } else { GiantBody::SharedChain },
            };
            let break_at = (flavor == 2).then_some(at);
            let ring = Ring {
                break_at,
                arrival,
                detour: (flavor == 1).then_some(1 + at % (n - 1)),
            };
            let (db, plan, detoured) = ring_plan(&cfg, ring);
            proptest::prop_assert!(plan.units.iter().any(|u| u.regions.is_some()));
            let (streamed, stats) = evaluate_plan(&plan, &db).unwrap();
            let materialized = materialized_reference::evaluate_plan(&plan, &db, 4096).unwrap();
            proptest::prop_assert_eq!(streamed.is_some(), break_at.is_none());
            proptest::prop_assert_eq!(detoured, flavor == 1);
            if break_at.is_none() {
                proptest::prop_assert_eq!(stats.witness_peak > 0, detoured);
            }
            proptest::prop_assert_eq!(streamed, materialized);
        }
    }

    #[test]
    fn witness_peak_is_bounded_by_articulation_domain_not_solution_count() {
        // Each region holds domain² local solutions (x × private var),
        // but the witness map keys only on the articulation variable:
        // peak stays ≤ the domain size while the streamed count shows
        // the full enumeration volume passing through. The root's first
        // row carries an x no B row has, so the descent dead-ends at B
        // and the witness pass runs.
        const DOMAIN: i64 = 8;
        let mut db = Database::new();
        db.create_table("A", &["x", "y"]).unwrap();
        db.create_table("B", &["x", "z"]).unwrap();
        db.insert("A", vec![Value::int(-1), Value::int(9)]).unwrap();
        for x in 0..DOMAIN {
            for p in 0..DOMAIN {
                db.insert("A", vec![Value::int(x), Value::int(10 + p)])
                    .unwrap();
                db.insert("B", vec![Value::int(x), Value::int(100 + p)])
                    .unwrap();
            }
        }
        let atoms = vec![
            Atom::new("A", vec![vx(0), vx(1)]),
            Atom::new("B", vec![vx(0), vx(2)]),
        ];
        let plan = split_plan(atoms, &[0, 1, 2]);
        let (answers, stats) = evaluate_plan(&plan, &db).unwrap();
        let reference = materialized_reference::evaluate_plan(&plan, &db, 4096).unwrap();
        assert!(answers.is_some());
        assert_eq!(answers, reference);
        assert!(
            stats.witness_peak > 0 && stats.witness_peak <= DOMAIN as u64,
            "witness peak {} exceeds articulation domain {}",
            stats.witness_peak,
            DOMAIN
        );
        // The child region streamed its full DOMAIN² solution set while
        // retaining at most DOMAIN witness entries (it is a single
        // atom: the frame that binds x is the leaf, so "done with this
        // x" has no join to jump over).
        assert!(
            stats.region_streamed >= (DOMAIN * DOMAIN) as u64,
            "streamed only {}",
            stats.region_streamed
        );
    }

    #[test]
    fn plan_covers_exactly_the_combined_body() {
        let g = build(&[
            "{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)",
            "{T(1)} R(y1) <- D2(y1)",
            "{T(z1)} S(z2) <- D3(z1, z2)",
        ]);
        let (plan, cq) = plan_for(&g, &[0, 1, 2]);
        let mut plan_atoms: Vec<Atom> = plan.ground_atoms.clone();
        for u in &plan.units {
            plan_atoms.extend(u.atoms.iter().cloned());
        }
        let mut body = cq.body.clone();
        plan_atoms.sort();
        body.sort();
        assert_eq!(plan_atoms, body);
        assert_eq!(plan.heads, cq.heads);
    }
}
