//! The engine-level statement of the paper's headline payoff:
//!
//! * a **certified** banking system runs N instances × K threads on the
//!   `ddlf-engine` key-value store under the no-detector path with
//!   **zero aborts**, a serializable audited history, and conserved
//!   balances;
//! * an **uncertified** greedy pair completes via the wait-die fallback,
//!   paying for its missing certificate with real aborts;
//! * a run that fits one admission chunk executes on the calling thread
//!   with the same guarantees, audit and recovery as a pooled run.

use ddlf::engine::{
    recover, AdmissionOptions, AdmissionVerdict, Engine, EngineConfig, Inflation, Program,
    TemplateRegistry,
};
use ddlf::model::TxnId;
use ddlf::workloads::{bank_greedy_pair, bank_ordered_pair};
use std::time::Duration;

fn config(instances: usize, threads: usize, work_us: u64) -> EngineConfig {
    EngineConfig {
        threads,
        instances,
        work: Duration::from_micros(work_us),
        initial_value: 1_000,
        seed: 42,
        ..Default::default()
    }
}

/// Installs real money-transfer programs on the two transfer templates
/// (accounts move value; ledgers are read — declared explicitly, since
/// a locked entity no longer counts as a read by itself — but not
/// written, so the total is conserved).
fn with_transfer_programs(
    mut reg: TemplateRegistry,
    bank: &ddlf::workloads::Bank,
) -> TemplateRegistry {
    reg.set_program(
        TxnId(0),
        Program::transfer(bank.accounts[0][0], bank.accounts[1][0], 5)
            .read(bank.ledgers[0])
            .read(bank.ledgers[1]),
    )
    .unwrap();
    reg.set_program(
        TxnId(1),
        Program::transfer(bank.accounts[1][1], bank.accounts[0][1], 3)
            .read(bank.ledgers[0])
            .read(bank.ledgers[1]),
    )
    .unwrap();
    reg
}

#[test]
fn certified_banking_runs_clean_across_threads() {
    let (bank, sys) = bank_ordered_pair();
    let reg = with_transfer_programs(TemplateRegistry::register(sys), &bank);
    assert!(
        reg.verdict().is_certified(),
        "ordered transfers must certify: {}",
        reg.verdict()
    );

    let engine = Engine::with_registry(reg, config(40, 4, 50));
    let report = engine.run();

    // The paper's payoff: no detector, no timeouts — and nothing needed
    // aborting.
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.aborted_attempts, 0, "{report:?}");
    assert_eq!(report.dirty_aborts, 0);
    // The history is audited with D(S), not assumed serializable.
    assert_eq!(report.serializable, Some(true), "{report:?}");
    // 40 instances × 4 entities, lock + unlock each.
    assert_eq!(report.history_len, 40 * 8);
    assert_eq!(report.reads, 40 * 4);
    assert_eq!(report.writes, 40 * 2);
    assert!(report.throughput_per_sec() > 0.0);

    // Money is conserved: 6 entities (4 accounts + 2 ledgers) seeded with 1 000 each.
    assert_eq!(engine.store().total_int(), 6_000, "transfers must conserve");
    // Every committed transfer wrote two accounts.
    assert_eq!(engine.store().total_versions(), 40 * 2);
}

#[test]
fn uncertified_greedy_pair_completes_via_wait_die_with_aborts() {
    let (_, sys) = bank_greedy_pair();
    let engine = Engine::new(sys, config(30, 2, 100));
    let AdmissionVerdict::Fallback { reason } = engine.registry().verdict() else {
        panic!("greedy opposite-direction transfers must not certify");
    };
    assert!(!reason.is_empty());

    let report = engine.run();
    assert!(report.all_committed(), "{report:?}");
    // The fallback path really was exercised: contention on the two
    // ledgers (locked in opposite orders) forces wait-die victims.
    assert!(
        report.aborted_attempts > 0,
        "greedy pair under contention must pay aborts: {report:?}"
    );
    // The transfers are two-phase, so every death was clean …
    assert_eq!(report.dirty_aborts, 0, "{report:?}");
    // … and the committed projection still serializes.
    assert_eq!(report.serializable, Some(true), "{report:?}");
}

#[test]
fn forced_fallback_still_correct_on_certified_system() {
    // The benchmark's comparison axis: same certified workload, run once
    // trusting the certificate and once on wait-die.
    let (bank, sys) = bank_ordered_pair();
    let reg = with_transfer_programs(TemplateRegistry::register(sys.clone()), &bank);
    let trusted = Engine::with_registry(reg, config(20, 4, 20));
    let r1 = trusted.run();

    let reg = with_transfer_programs(TemplateRegistry::register(sys), &bank);
    let distrustful = Engine::with_registry(
        reg,
        EngineConfig {
            force_fallback: true,
            ..config(20, 4, 20)
        },
    );
    let r2 = distrustful.run();

    assert!(r1.all_committed() && r2.all_committed(), "{r1:?}\n{r2:?}");
    assert_eq!(r1.serializable, Some(true));
    assert_eq!(r2.serializable, Some(true));
    assert!(r2.forced_fallback);
    assert_eq!(r1.aborted_attempts, 0);
    // Both conserve money.
    assert_eq!(trusted.store().total_int(), 6_000);
    assert_eq!(distrustful.store().total_int(), 6_000);
}

/// `threads = 4` but `admission_batch ≥ instances`: the run is one chunk,
/// so it executes on the calling thread instead of a worker pool. The
/// certified path, the wait-die path, and WAL recovery must all behave
/// exactly as on a pooled run.
#[test]
fn one_chunk_run_on_the_calling_thread_keeps_every_guarantee() {
    const N: usize = 32;
    let (bank, sys) = bank_ordered_pair();
    let admission = AdmissionOptions {
        inflate: Inflation::Uniform(2),
        ..Default::default()
    };
    let registry = || {
        with_transfer_programs(
            TemplateRegistry::register_with(sys.clone(), admission.clone()),
            &bank,
        )
    };
    let one_chunk = |dir: Option<std::path::PathBuf>| EngineConfig {
        admission_batch: N,
        wal_dir: dir,
        wal_sync: true,
        group_commit: Some(8),
        ..config(N, 4, 0)
    };

    let dir = std::env::temp_dir().join(format!("ddlf-one-chunk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::with_registry(registry(), one_chunk(Some(dir.clone())));
    assert!(engine.registry().verdict().is_certified());
    let report = engine.run();
    assert!(report.all_committed(), "{report:?}");
    assert_eq!(report.committed, N);
    assert_eq!(report.aborted_attempts, 0, "{report:?}");
    assert_eq!(report.serializable, Some(true), "{report:?}");
    for t in &report.per_template {
        let limit = t.certified_slots.limit().expect("uniform inflation bounds");
        assert!(
            (1..=limit).contains(&t.peak_inflight),
            "{}: peak {} outside 1..={limit}",
            t.name,
            t.peak_inflight
        );
    }
    assert_eq!(engine.store().total_int(), 6_000, "transfers must conserve");

    // The WAL the calling thread wrote rebuilds the live committed state.
    let rec = recover(&dir).expect("recover the one-chunk run");
    assert_eq!(rec.committed, N, "{}", rec.summary());
    assert_eq!(rec.serializable, Some(true), "{:?}", rec.audit_error);
    assert_eq!(rec.torn_tails, 0);
    assert_eq!(rec.store.snapshot(), engine.store().snapshot());
    assert_eq!(rec.store.total_int(), engine.store().total_int());
    let _ = std::fs::remove_dir_all(&dir);

    // Distrusting the certificate: the same one-chunk run on wait-die.
    let fallback = Engine::with_registry(
        registry(),
        EngineConfig {
            force_fallback: true,
            ..one_chunk(None)
        },
    );
    let r = fallback.run();
    assert!(r.forced_fallback);
    assert!(r.all_committed(), "{r:?}");
    assert_eq!(r.serializable, Some(true), "{r:?}");
    assert_eq!(fallback.store().total_int(), 6_000);
}
