//! A distributed Datalog engine over iterated non-uniform all-to-all.
//!
//! The BPRA line of work ([13, 17, 27, 28] in the paper) evaluates Datalog
//! programs by semi-naive fixpoint: each iteration joins the latest deltas
//! against full relations locally, then redistributes the newly derived
//! facts with one `MPI_Alltoallv` per iteration. This module is that engine,
//! generalized from the hand-written transitive closure in `crate::tc`:
//!
//! * Relations are sets of binary tuples, sharded **twice** — by first column
//!   and by second column — so any binary join is local to the owner of the
//!   join value.
//! * Rules have one or two body atoms over binary relations, with variables,
//!   constants, and repeated-variable filters.
//! * Each fixpoint iteration performs exactly one tuple exchange (with the
//!   pluggable all-to-all algorithm), mirroring the paper's §5 applications.
//!
//! ```text
//! path(x, y) :- edge(x, y).
//! path(x, z) :- path(x, y), edge(y, z).
//! ```

use std::collections::HashMap;

use bruck_comm::{CommResult, Communicator, ReduceOp};
use bruck_core::AlltoallvAlgorithm;

use crate::exchange::Fixpoint;
use crate::{owner, ExchangeStats, Relation, Tuple};

/// A relation name (interned by the caller; small dense ids).
pub type RelId = usize;

/// A term in an atom: a variable (scoped to one rule) or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Rule-scoped variable id.
    Var(u32),
    /// Constant value.
    Const(u64),
}

/// A binary atom `rel(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomPat {
    /// Relation id.
    pub rel: RelId,
    /// First argument.
    pub a: Term,
    /// Second argument.
    pub b: Term,
}

impl AtomPat {
    /// Convenience constructor.
    pub fn new(rel: RelId, a: Term, b: Term) -> Self {
        AtomPat { rel, a, b }
    }
}

/// A Horn rule with one or two body atoms.
///
/// For two-atom rules the engine joins on the variables shared between the
/// atoms; at least one shared variable must exist and the join is executed at
/// the owner of the *first* shared variable's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Derived atom; its variables must appear in the body.
    pub head: AtomPat,
    /// One or two body atoms.
    pub body: Vec<AtomPat>,
}

impl Rule {
    /// `head :- body0.`
    pub fn copy_rule(head: AtomPat, body0: AtomPat) -> Self {
        Rule { head, body: vec![body0] }
    }

    /// `head :- body0, body1.`
    pub fn join_rule(head: AtomPat, body0: AtomPat, body1: AtomPat) -> Self {
        Rule { head, body: vec![body0, body1] }
    }
}

/// A Datalog program: rules plus the number of relations they mention.
#[derive(Debug, Clone)]
pub struct Program {
    /// Number of relations (ids are `0..relations`).
    pub relations: usize,
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Validate rule shapes (arity, head variables bound in body).
    pub fn validate(&self) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.body.is_empty() || rule.body.len() > 2 {
                return Err(format!("rule {i}: body must have 1 or 2 atoms"));
            }
            let mut bound = Vec::new();
            for atom in &rule.body {
                if atom.rel >= self.relations {
                    return Err(format!("rule {i}: unknown body relation {}", atom.rel));
                }
                for t in [atom.a, atom.b] {
                    if let Term::Var(v) = t {
                        bound.push(v);
                    }
                }
            }
            if rule.head.rel >= self.relations {
                return Err(format!("rule {i}: unknown head relation {}", rule.head.rel));
            }
            for t in [rule.head.a, rule.head.b] {
                if let Term::Var(v) = t {
                    if !bound.contains(&v) {
                        return Err(format!("rule {i}: head variable {v} not bound in body"));
                    }
                }
            }
            if rule.body.len() == 2 && shared_vars(&rule.body[0], &rule.body[1]).is_empty() {
                return Err(format!("rule {i}: two-atom rule with no shared variable"));
            }
        }
        Ok(())
    }
}

fn vars_of(atom: &AtomPat) -> Vec<u32> {
    let mut vs = Vec::new();
    for t in [atom.a, atom.b] {
        if let Term::Var(v) = t {
            if !vs.contains(&v) {
                vs.push(v);
            }
        }
    }
    vs
}

fn shared_vars(a: &AtomPat, b: &AtomPat) -> Vec<u32> {
    vars_of(a).into_iter().filter(|v| vars_of(b).contains(v)).collect()
}

/// Variable bindings for one rule instantiation.
type Bindings = HashMap<u32, u64>;

/// Try to match `(x, y)` against `atom`, extending `env`.
fn match_atom(atom: &AtomPat, t: Tuple, env: &Bindings) -> Option<Bindings> {
    let mut env = env.clone();
    for (term, val) in [(atom.a, t.0), (atom.b, t.1)] {
        match term {
            Term::Const(c) => {
                if c != val {
                    return None;
                }
            }
            Term::Var(v) => match env.get(&v) {
                Some(&bound) if bound != val => return None,
                Some(_) => {}
                None => {
                    env.insert(v, val);
                }
            },
        }
    }
    Some(env)
}

fn instantiate(term: Term, env: &Bindings) -> u64 {
    match term {
        Term::Const(c) => c,
        Term::Var(v) => *env.get(&v).expect("validated: head variable bound"),
    }
}

/// One relation's two local shards.
#[derive(Debug, Default, Clone)]
struct ShardedRelation {
    /// Tuples `(x, y)` with `owner(x) == me`.
    by_first: Relation,
    /// Tuples stored reversed — `(y, x)` with `owner(y) == me` — so the
    /// second column is indexable.
    by_second: Relation,
}

/// Per-iteration instrumentation of a Datalog run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DatalogIteration {
    /// Globally new facts this iteration (known one round late: it is the
    /// next round's vote sum).
    pub new_facts: u64,
    /// The iteration's exchange stats.
    pub exchange: ExchangeStats,
}

/// Result of a distributed Datalog evaluation (per rank).
#[derive(Debug)]
pub struct DatalogResult {
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// Global fact count per relation at fixpoint.
    pub total_facts: Vec<u64>,
    /// This rank's first-column shard of every relation.
    pub local: Vec<Relation>,
    /// Per-iteration instrumentation.
    pub per_iteration: Vec<DatalogIteration>,
}

/// Facts of every relation and orientation share one exchange: each outbox
/// interleaves `(header, tuple)` pairs where `header = rel * 2 + reversed`.
fn push_fact(outbox: &mut Vec<Tuple>, rel: RelId, t: Tuple, reversed: bool) {
    outbox.push(((rel * 2 + usize::from(reversed)) as u64, 0));
    outbox.push(t);
}

/// Evaluate `program` over the given per-relation initial facts (every rank
/// passes the same full fact lists; sharding is internal). Returns per-rank
/// results; `local[rel]` holds the rank's first-column shard.
pub fn evaluate<C: Communicator + ?Sized>(
    comm: &C,
    algo: AlltoallvAlgorithm,
    program: &Program,
    facts: &[Vec<Tuple>],
) -> CommResult<DatalogResult> {
    program.validate().expect("invalid program");
    assert_eq!(facts.len(), program.relations, "one fact list per relation");
    let p = comm.size();
    let me = comm.rank();

    let mut rels: Vec<ShardedRelation> = vec![ShardedRelation::default(); program.relations];
    // delta[rel]: new tuples in canonical orientation, present on the rank
    // that owns them by *first* column (sufficient: the engine re-ships
    // reversed copies internally).
    let mut delta_fwd: Vec<Vec<Tuple>> = vec![Vec::new(); program.relations];
    let mut delta_rev: Vec<Vec<Tuple>> = vec![Vec::new(); program.relations];
    for (rel, fact_list) in facts.iter().enumerate() {
        for &t in fact_list {
            if owner(t.0, p) == me && rels[rel].by_first.insert(t) {
                delta_fwd[rel].push(t);
            }
            if owner(t.1, p) == me && rels[rel].by_second.insert((t.1, t.0)) {
                delta_rev[rel].push(t);
            }
        }
    }

    let mut fixpoint = Fixpoint::default();
    // Each new fact counted once globally, by its first-column insert (a
    // fact's fwd and rev copies are always emitted together, so the rev
    // shards quiesce exactly when the fwd shards do).
    let mut new_local = 0u64;
    loop {
        // Derive new facts from the deltas.
        let mut outboxes: Vec<Vec<Tuple>> = vec![Vec::new(); p];
        let emit = |env: &Bindings, head: &AtomPat, outboxes: &mut Vec<Vec<Tuple>>| {
            let x = instantiate(head.a, env);
            let y = instantiate(head.b, env);
            push_fact(&mut outboxes[owner(x, p)], head.rel, (x, y), false);
            push_fact(&mut outboxes[owner(y, p)], head.rel, (x, y), true);
        };
        for rule in &program.rules {
            match rule.body.as_slice() {
                [atom] => {
                    // ΔR matched directly (first-column shard is canonical).
                    for &t in &delta_fwd[atom.rel] {
                        if let Some(env) = match_atom(atom, t, &Bindings::new()) {
                            emit(&env, &rule.head, &mut outboxes);
                        }
                    }
                }
                [a0, a1] => {
                    let join_var = shared_vars(a0, a1)[0];
                    // Semi-naive: Δa0 ⋈ full(a1) and full(a0) ⋈ Δa1.
                    join_delta_full(
                        a0, a1, join_var, &delta_for(a0, join_var, &delta_fwd, &delta_rev),
                        &rels, p, me, &mut |env| emit(&env, &rule.head, &mut outboxes),
                    );
                    join_delta_full(
                        a1, a0, join_var, &delta_for(a1, join_var, &delta_fwd, &delta_rev),
                        &rels, p, me, &mut |env| emit(&env, &rule.head, &mut outboxes),
                    );
                }
                _ => unreachable!("validated"),
            }
        }

        // One all-to-all ships every derived fact (both orientations).
        let Some(received) = fixpoint.round(comm, algo, &outboxes, new_local)? else { break };

        // Deduplicate into the shards; new tuples feed the next deltas.
        delta_fwd.iter_mut().chain(&mut delta_rev).for_each(Vec::clear);
        new_local = 0;
        let mut pending = received.chunks_exact(2);
        for pair in &mut pending {
            let (header, t) = (pair[0], pair[1]);
            let rel = (header.0 / 2) as usize;
            let reversed = header.0 % 2 == 1;
            if reversed {
                if rels[rel].by_second.insert((t.1, t.0)) {
                    delta_rev[rel].push(t);
                }
            } else if rels[rel].by_first.insert(t) {
                delta_fwd[rel].push(t);
                new_local += 1;
            }
        }
    }

    let mut total_facts = Vec::with_capacity(program.relations);
    for rel in &rels {
        total_facts.push(comm.allreduce_u64(rel.by_first.len() as u64, ReduceOp::Sum)?);
    }
    let per_iteration: Vec<DatalogIteration> = fixpoint
        .rounds
        .into_iter()
        .map(|(new_facts, exchange)| DatalogIteration { new_facts, exchange })
        .collect();
    Ok(DatalogResult {
        iterations: per_iteration.len(),
        total_facts,
        local: rels.into_iter().map(|r| r.by_first).collect(),
        per_iteration,
    })
}

/// The delta tuples of `atom` oriented so the join variable is the probe key,
/// drawn from whichever shard owns that orientation.
fn delta_for(
    atom: &AtomPat,
    join_var: u32,
    delta_fwd: &[Vec<Tuple>],
    delta_rev: &[Vec<Tuple>],
) -> Vec<Tuple> {
    if atom.a == Term::Var(join_var) {
        // Join value is the first column: the by-first delta is local.
        delta_fwd[atom.rel].clone()
    } else {
        delta_rev[atom.rel].clone()
    }
}

/// Join `delta` tuples of `probe_atom` against the full local shard of
/// `other_atom` on `join_var`, calling `emit` per derived binding set.
#[allow(clippy::too_many_arguments)]
fn join_delta_full(
    probe_atom: &AtomPat,
    other_atom: &AtomPat,
    join_var: u32,
    delta: &[Tuple],
    rels: &[ShardedRelation],
    p: usize,
    me: usize,
    emit: &mut impl FnMut(Bindings),
) {
    let join_term = Term::Var(join_var);
    for &t in delta {
        let Some(env) = match_atom(probe_atom, t, &Bindings::new()) else { continue };
        let key = *env.get(&join_var).expect("join var bound by probe atom");
        debug_assert_eq!(owner(key, p), me, "delta must be sharded by the join value");
        // Scan the other atom's matches for the join value, from the shard
        // indexed by whichever column carries the join variable.
        if other_atom.a == join_term {
            for &second in rels[other_atom.rel].by_first.matches(key) {
                if let Some(env2) = match_atom(other_atom, (key, second), &env) {
                    emit(env2);
                }
            }
        } else {
            for &first in rels[other_atom.rel].by_second.matches(key) {
                if let Some(env2) = match_atom(other_atom, (first, key), &env) {
                    emit(env2);
                }
            }
        }
    }
}
