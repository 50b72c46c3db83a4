//! Batch-vs-incremental `D(S)` audit equivalence.
//!
//! A random lock-manager simulation produces wait-die-style histories —
//! attempts that block may die, release their locks, and retry, so the
//! committed-attempt projection (the subtle case: events of losing
//! attempts must contribute nothing, and instances can commit in a
//! different order than they locked) is exercised heavily. Every
//! generated history is audited twice:
//!
//! * **batch oracle** — materialize the committed projection as a
//!   [`Schedule`] over a one-transaction-per-instance audit system and
//!   run [`History`-style] `validate` + `conflict_digraph`;
//! * **incremental** — stream the identical event/commit/abort sequence
//!   through a [`StreamingAuditor`] and `seal`.
//!
//! The verdicts must agree exactly, and any incremental cycle witness
//! must be a genuine cycle of the batch conflict graph (the witness may
//! be a different — typically shorter-by-shortcut or longer-by-chain —
//! cycle than the one batch search happens to find; both must be real).
//!
//! Histories come in two gid shapes: sparse gids (`100 + 7i`; the
//! auditor must not rely on density) and the dense `base..base + n`
//! block an engine run sends.
//!
//! A second pass replays each history the way `wal::recover` does —
//! commits first, then a *truncated* prefix of the committed events (a
//! torn history tail) — and checks the sealed verdict against the batch
//! audit of the same partial projection, pinning the Lemma 1 arc
//! handling.

use ddlf_model::incremental::StreamingAuditor;
use ddlf_model::{
    Database, EntityId, GlobalNode, NodeId, Op, Schedule, Transaction, TransactionSystem, TxnId,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// One auditor input, in stream order.
#[derive(Debug, Clone, Copy)]
enum Call {
    Event(u32, u32, NodeId),
    Commit(u32, u32),
    Abort(u32, u32),
}

/// How a generated run numbers its instances.
#[derive(Debug, Clone, Copy)]
enum Gids {
    /// `100 + 7i`: gaps everywhere.
    Sparse,
    /// `base + i` for a random `base`: an engine run's block of gids.
    Dense,
}

/// A generated run: templates, the instance table, the full call stream,
/// and the final commit decisions.
struct Run {
    sys: TransactionSystem,
    /// `gid → template`.
    instances: Vec<(u32, TxnId)>,
    calls: Vec<Call>,
    /// `gid → committed attempt` (absent = never committed).
    committed: HashMap<u32, u32>,
}

/// Builds a random template over a non-empty entity subset: a random
/// total order of its `L`/`U` ops with every `Lx` before its `Ux` —
/// two-phase or not, the generator does not care.
fn random_template(rng: &mut StdRng, name: &str, db: &Database, n_entities: u32) -> Transaction {
    let mut entities: Vec<u32> = (0..n_entities).collect();
    entities.shuffle(rng);
    entities.truncate(rng.gen_range(1..=n_entities as usize));
    let mut pool: Vec<Op> = entities.iter().map(|&e| Op::lock(EntityId(e))).collect();
    let mut ops = Vec::new();
    while !pool.is_empty() {
        let i = rng.gen_range(0..pool.len());
        let op = pool.remove(i);
        if op.is_lock() {
            pool.push(Op::unlock(op.entity));
        }
        ops.push(op);
    }
    Transaction::from_total_order(name, &ops, db).unwrap()
}

/// Simulates an exclusive-lock execution with wait-die-style deaths:
/// a blocked attempt may abort (releasing everything it holds) and
/// retry; three strikes and the instance fails for good. Records the
/// exact stream an engine run would feed the auditor.
fn random_run(seed: u64, gids: Gids) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_entities = rng.gen_range(2..=4u32);
    let db = Database::one_entity_per_site(n_entities as usize);
    let n_templates = rng.gen_range(1..=3usize);
    let templates: Vec<Transaction> = (0..n_templates)
        .map(|i| random_template(&mut rng, &format!("T{i}"), &db, n_entities))
        .collect();
    let sys = TransactionSystem::new(db, templates).unwrap();

    let n_instances = rng.gen_range(2..=8usize);
    let (base, stride) = match gids {
        Gids::Sparse => (100, 7),
        Gids::Dense => (rng.gen_range(0..1u32 << 20), 1),
    };
    let instances: Vec<(u32, TxnId)> = (0..n_instances as u32)
        .map(|i| {
            (
                base + stride * i,
                TxnId(rng.gen_range(0..n_templates as u32)),
            )
        })
        .collect();

    struct State {
        order: Vec<NodeId>,
        pos: usize,
        attempt: u32,
        held: Vec<EntityId>,
        done: bool,
    }
    let mut states: Vec<State> = instances
        .iter()
        .map(|&(_, t)| State {
            order: sys.txn(t).any_total_order(),
            pos: 0,
            attempt: 0,
            held: Vec::new(),
            done: false,
        })
        .collect();
    let mut holders: HashMap<EntityId, usize> = HashMap::new();
    let mut calls = Vec::new();
    let mut committed = HashMap::new();

    for _ in 0..600 {
        let live: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            break;
        }
        let i = live[rng.gen_range(0..live.len())];
        let (gid, t) = instances[i];
        let tmpl = sys.txn(t);
        let s = &mut states[i];
        if s.pos == s.order.len() {
            // A finished attempt whose commit decision was held back.
            calls.push(Call::Commit(gid, s.attempt));
            committed.insert(gid, s.attempt);
            s.done = true;
            continue;
        }
        let node = s.order[s.pos];
        let op = tmpl.op(node);
        let blocked = op.is_lock() && holders.get(&op.entity).is_some_and(|&h| h != i);
        // A blocked attempt dies with probability ½; occasionally an
        // unblocked one dies too (a wound, a timeout — any reason).
        if blocked || rng.gen_bool(0.05) {
            if !blocked && rng.gen_bool(0.9) {
                continue; // mostly just make progress
            }
            for e in s.held.drain(..) {
                holders.remove(&e);
            }
            calls.push(Call::Abort(gid, s.attempt));
            s.attempt += 1;
            s.pos = 0;
            if s.attempt > 2 {
                s.done = true; // failed for good — never commits
            }
            continue;
        }
        calls.push(Call::Event(gid, s.attempt, node));
        if op.is_lock() {
            holders.insert(op.entity, i);
            s.held.push(op.entity);
        } else {
            holders.remove(&op.entity);
            s.held.retain(|&e| e != op.entity);
        }
        s.pos += 1;
        // Half the finished attempts commit at once; the rest decide
        // later, after other instances' events — an engine worker's
        // commit can trail its last unlock the same way — so commits
        // come out of lock order and merge mid-chain.
        if s.pos == s.order.len() && rng.gen_bool(0.5) {
            calls.push(Call::Commit(gid, s.attempt));
            committed.insert(gid, s.attempt);
            s.done = true;
        }
    }
    // Step budget exhausted: whoever is still in flight, or finished
    // but undecided, dies unseen (its buffered events must not leak into
    // the verdict).
    for (i, s) in states.iter_mut().enumerate() {
        if !s.done {
            for e in s.held.drain(..) {
                holders.remove(&e);
            }
            calls.push(Call::Abort(instances[i].0, s.attempt));
        }
    }
    Run {
        sys,
        instances,
        calls,
        committed,
    }
}

/// The committed projection of `calls` as explicit steps over a dense
/// one-transaction-per-committed-instance audit system.
fn committed_projection(run: &Run) -> (TransactionSystem, Vec<Option<u32>>, Vec<GlobalNode>) {
    let mut gids: Vec<u32> = run.committed.keys().copied().collect();
    gids.sort_unstable();
    let dense: HashMap<u32, usize> = gids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
    let template_of: HashMap<u32, TxnId> = run.instances.iter().copied().collect();
    let txns: Vec<Transaction> = gids
        .iter()
        .map(|g| {
            let t = run.sys.txn(template_of[g]);
            t.clone().with_name(format!("{}#{g}", t.name()))
        })
        .collect();
    let audit_sys = TransactionSystem::new(run.sys.db().clone(), txns).unwrap();
    let committed_attempt: Vec<Option<u32>> = gids.iter().map(|g| Some(run.committed[g])).collect();
    let steps: Vec<GlobalNode> = run
        .calls
        .iter()
        .filter_map(|c| match *c {
            Call::Event(gid, attempt, node) if run.committed.get(&gid) == Some(&attempt) => {
                Some(GlobalNode::new(TxnId(dense[&gid] as u32), node))
            }
            _ => None,
        })
        .collect();
    (audit_sys, committed_attempt, steps)
}

/// Batch verdict over explicit steps: `None` mirrors a validation error.
fn batch_verdict(audit_sys: &TransactionSystem, steps: &[GlobalNode]) -> Option<bool> {
    let sched = Schedule::from_steps(steps.to_vec());
    let v = sched.validate(audit_sys).ok()?;
    Some(sched.conflict_digraph(audit_sys, &v).is_acyclic())
}

/// Asserts that an incremental cycle witness is a genuine cycle of the
/// batch conflict graph.
fn assert_witness_real(
    run: &Run,
    audit_sys: &TransactionSystem,
    steps: &[GlobalNode],
    witness: &[u32],
) {
    let mut gids: Vec<u32> = run.committed.keys().copied().collect();
    gids.sort_unstable();
    let dense: HashMap<u32, u32> = gids
        .iter()
        .enumerate()
        .map(|(i, &g)| (g, i as u32))
        .collect();
    let sched = Schedule::from_steps(steps.to_vec());
    let v = sched.validate(audit_sys).expect("witnessed run validates");
    let cg = sched.conflict_digraph(audit_sys, &v);
    assert!(witness.len() >= 2, "cycles have length ≥ 2 here");
    for k in 0..witness.len() {
        let a = dense[&witness[k]];
        let b = dense[&witness[(k + 1) % witness.len()]];
        assert!(
            cg.labels.contains_key(&(a, b)),
            "witness arc {} → {} missing from the batch graph",
            witness[k],
            witness[(k + 1) % witness.len()],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Live feed (engine order: events stream in, decisions follow):
    /// sealed incremental verdict == batch verdict, witnesses real.
    #[test]
    fn live_streaming_verdict_matches_batch_oracle(seed in any::<u64>(), dense in any::<bool>()) {
        let run = random_run(seed, if dense { Gids::Dense } else { Gids::Sparse });
        let mut auditor = StreamingAuditor::new(&run.sys);
        for &(gid, t) in &run.instances {
            auditor.admit(gid, t);
        }
        for &c in &run.calls {
            match c {
                Call::Event(g, a, n) => auditor.event(g, a, n),
                Call::Commit(g, a) => auditor.commit(g, a),
                Call::Abort(g, a) => auditor.abort(g, a),
            }
        }
        let streaming = auditor.seal();
        let (audit_sys, committed_attempt, steps) = committed_projection(&run);
        let batch = batch_verdict(&audit_sys, &steps);
        prop_assert_eq!(
            streaming, batch,
            "seed {}: streaming {:?} != batch {:?} ({} committed, {} calls)",
            seed, streaming, batch, committed_attempt.len(), run.calls.len()
        );
        if streaming == Some(false) {
            let witness = auditor.cycle().expect("false verdict carries a witness").to_vec();
            assert_witness_real(&run, &audit_sys, &steps, &witness);
        }
    }

    /// Recovery feed (`wal::recover` order: all commit decisions first,
    /// then events merge on arrival), with the committed event stream
    /// truncated at a random point — the torn-history-tail case where
    /// `seal`'s Lemma 1 arcs carry the verdict.
    #[test]
    fn recovery_order_with_torn_tail_matches_batch_oracle(
        seed in any::<u64>(),
        cut_num in 0u64..=8,
        dense in any::<bool>(),
    ) {
        let run = random_run(seed, if dense { Gids::Dense } else { Gids::Sparse });
        let (audit_sys, _committed_attempt, steps) = committed_projection(&run);
        let cut = (steps.len() as u64 * cut_num / 8) as usize;
        let torn = &steps[..cut];

        let mut gids: Vec<u32> = run.committed.keys().copied().collect();
        gids.sort_unstable();
        let template_of: HashMap<u32, TxnId> = run.instances.iter().copied().collect();
        let mut auditor = StreamingAuditor::new(&run.sys);
        for &g in &gids {
            auditor.admit(g, template_of[&g]);
            auditor.commit(g, run.committed[&g]);
        }
        // `steps` re-keys txn to the dense index; feed gids back.
        for s in torn {
            let gid = gids[s.txn.index()];
            auditor.event(gid, run.committed[&gid], s.node);
        }
        let streaming = auditor.seal();
        let batch = batch_verdict(&audit_sys, torn);
        prop_assert_eq!(
            streaming, batch,
            "seed {} cut {}/{}: streaming {:?} != batch {:?}",
            seed, cut, steps.len(), streaming, batch
        );
        if streaming == Some(false) {
            let witness = auditor.cycle().expect("false verdict carries a witness").to_vec();
            assert_witness_real(&run, &audit_sys, torn, &witness);
        }
    }
}

/// The regression the issue pins: a mid-stream cycle flips the live
/// verdict to `Some(false)` the moment it closes, and the verdict stays
/// absorbed through later (clean) events, the seal, and repeated reads —
/// matching `Report::absorb`'s three-valued conjunction semantics.
#[test]
fn midstream_cycle_is_absorbing() {
    let db = Database::one_entity_per_site(2);
    let (x, y) = (EntityId(0), EntityId(1));
    let t1 = Transaction::from_total_order(
        "T1",
        &[Op::lock(x), Op::unlock(x), Op::lock(y), Op::unlock(y)],
        &db,
    )
    .unwrap();
    let t2 = Transaction::from_total_order(
        "T2",
        &[Op::lock(y), Op::unlock(y), Op::lock(x), Op::unlock(x)],
        &db,
    )
    .unwrap();
    let sys = TransactionSystem::new(db, vec![t1.clone(), t2, t1.with_name("T3")]).unwrap();

    let mut a = StreamingAuditor::for_system(&sys);
    // T1 uses x then T2 uses y — then they swap: cycle closes at T2.Lx.
    let prefix = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3)];
    for (t, n) in prefix {
        a.push_step(GlobalNode::new(TxnId(t), NodeId(n)));
        assert_eq!(a.verdict(), Some(true));
    }
    a.push_step(GlobalNode::new(TxnId(1), NodeId(2)));
    assert_eq!(a.verdict(), Some(false), "the cycle flips the live verdict");
    let witness = a.cycle().unwrap().to_vec();

    // A third transaction running serially afterwards is conflict-clean,
    // but the verdict must not recover.
    a.push_step(GlobalNode::new(TxnId(1), NodeId(3)));
    for n in 0..4 {
        a.push_step(GlobalNode::new(TxnId(2), NodeId(n)));
        assert_eq!(a.verdict(), Some(false), "absorbed across later events");
    }
    assert_eq!(a.seal(), Some(false));
    assert_eq!(a.seal(), Some(false), "seal is idempotent");
    assert_eq!(a.cycle().unwrap(), &witness[..], "witness is stable");
}

/// Per committed instance, `(commit position, lock position of each
/// entity)` in the live call stream, over its committed attempt only.
fn lock_positions(run: &Run) -> HashMap<u32, (usize, HashMap<EntityId, usize>)> {
    let template_of: HashMap<u32, TxnId> = run.instances.iter().copied().collect();
    let mut out: HashMap<u32, (usize, HashMap<EntityId, usize>)> = HashMap::new();
    for (i, c) in run.calls.iter().enumerate() {
        match *c {
            Call::Event(g, a, n) if run.committed.get(&g) == Some(&a) => {
                let op = run.sys.txn(template_of[&g]).op(n);
                if op.is_lock() {
                    out.entry(g).or_default().1.insert(op.entity, i);
                }
            }
            Call::Commit(g, _) => out.entry(g).or_default().0 = i,
            _ => {}
        }
    }
    out
}

/// Whether the live feed merges some lock *mid-chain*: instance `a`
/// locked an entity before `b` did, yet committed after `b`, so `a`'s
/// merge lands before `b`'s entry in the entity's sorted chain.
fn has_mid_chain_insert(run: &Run) -> bool {
    let pos = lock_positions(run);
    pos.values().any(|(commit_a, locks_a)| {
        pos.values().any(|(commit_b, locks_b)| {
            commit_a > commit_b
                && locks_a
                    .iter()
                    .any(|(e, &la)| locks_b.get(e).is_some_and(|&lb| la < lb))
        })
    })
}

/// Whether the recovery feed adds a conflict arc against the initial
/// topological order, forcing a Pearce–Kelly `reorder`. Recovery admits
/// and commits in gid order, so vertex positions start in gid order; the
/// first chain arc between adjacent lockers `p → s` with `gid(p) >
/// gid(s)` lands backwards unless an earlier one already reordered.
fn has_backwards_recovery_arc(run: &Run) -> bool {
    let mut chains: HashMap<EntityId, Vec<(usize, u32)>> = HashMap::new();
    for (gid, (_, locks)) in lock_positions(run) {
        for (e, at) in locks {
            chains.entry(e).or_default().push((at, gid));
        }
    }
    chains.values_mut().any(|c| {
        c.sort_unstable();
        c.windows(2).any(|w| w[0].1 > w[1].1)
    })
}

/// Guards the generator itself: across a seed sweep of each gid shape
/// it must exercise the cases the equivalence proptests claim to cover —
/// retried commits (committed attempt > 0), permanent failures,
/// genuinely non-serializable histories, and the auditor's two
/// order-repair paths on serializable ones: a live-feed commit that
/// inserts mid-chain (its order-side arc leaves the newest vertex, so it
/// always lands backwards) and a recovery-feed arc against gid order. A
/// vacuous generator would turn the proptests above into no-ops.
#[test]
fn generator_covers_the_interesting_cases() {
    for gids in [Gids::Sparse, Gids::Dense] {
        let (mut retried, mut failed, mut nonser, mut aborts) = (0, 0, 0, 0);
        let (mut mid_chain, mut backwards) = (0, 0);
        for seed in 0..300 {
            let run = random_run(seed, gids);
            aborts += run
                .calls
                .iter()
                .filter(|c| matches!(c, Call::Abort(..)))
                .count();
            retried += usize::from(run.committed.values().any(|&a| a > 0));
            failed += usize::from(run.committed.len() < run.instances.len());
            let (audit_sys, _, steps) = committed_projection(&run);
            match batch_verdict(&audit_sys, &steps) {
                Some(false) => nonser += 1,
                Some(true) => {
                    mid_chain += usize::from(has_mid_chain_insert(&run));
                    backwards += usize::from(has_backwards_recovery_arc(&run));
                }
                None => {}
            }
        }
        assert!(
            aborts > 100,
            "{gids:?}: only {aborts} aborted attempts across the sweep"
        );
        assert!(
            retried > 20,
            "{gids:?}: only {retried} runs with a retried commit"
        );
        assert!(
            failed > 20,
            "{gids:?}: only {failed} runs with a failed instance"
        );
        assert!(nonser > 10, "{gids:?}: only {nonser} non-serializable runs");
        assert!(
            mid_chain > 20,
            "{gids:?}: only {mid_chain} serializable runs with a mid-chain insert"
        );
        assert!(
            backwards > 50,
            "{gids:?}: only {backwards} serializable runs with a backwards recovery arc"
        );
    }
}
