//! The four workloads: the spec the server receives, the server and
//! engine configuration, the client mix, and the conservation rule every
//! committed state must satisfy.
//!
//! Every template runs the engine's default program (`Add(1)` on each
//! entity it locks) and every template of a workload locks the same
//! number of entities, so a committed state always sums to
//! `base_sum + per_commit · committed`.

use crate::rng::Rng;
use ddlf_engine::{AdmissionOptions, EngineConfig, Inflation, Telemetry, DEFAULT_MAX_GROUP};
use ddlf_model::{SystemSpec, TransactionSystem, TxnId};
use ddlf_server::{InflateSpec, ServeConfig};
use ddlf_workloads::Bank;
use std::path::PathBuf;
use std::time::Duration;

/// Every workload the benchmark runs. `BENCHMARK.json` lists the ones
/// steady enough to compare (see `README.md`).
pub const NAMES: [&str; 4] = [
    "submit_small",
    "durable_sync",
    "snapshot_mix",
    "deadlock_prone",
];

const BANKING_ORDERED: &str = include_str!("../../fixtures/banking_ordered.json");
const CLASSIC_OPPOSITE_ORDER: &str = include_str!("../../fixtures/classic_opposite_order.json");

/// Per-lock work on the wait-die workload, so contention shows.
const DEADLOCK_WORK: Duration = Duration::from_micros(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SubmitSmall,
    DurableSync,
    SnapshotMix,
    DeadlockProne,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "submit_small" => Some(Kind::SubmitSmall),
            "durable_sync" => Some(Kind::DurableSync),
            "snapshot_mix" => Some(Kind::SnapshotMix),
            "deadlock_prone" => Some(Kind::DeadlockProne),
            _ => None,
        }
    }

    pub fn has_wal(self) -> bool {
        self == Kind::DurableSync
    }

    /// The engine configuration of a registration: the server's default
    /// (batched admission) plus this workload's WAL and work settings.
    /// `ServeConfig` overrides `threads` and `wal_dir` the same way.
    pub fn engine_config(
        self,
        nproc: usize,
        wal_dir: Option<PathBuf>,
        telemetry: Telemetry,
    ) -> EngineConfig {
        EngineConfig {
            threads: nproc,
            work: if self == Kind::DeadlockProne {
                DEADLOCK_WORK
            } else {
                Duration::ZERO
            },
            wal_dir,
            wal_sync: self.has_wal(),
            group_commit: self.has_wal().then_some(DEFAULT_MAX_GROUP),
            // The default chunk of 16 holds both templates' single slot
            // and serializes a wait-die run, leaving nothing to abort;
            // per-instance admission (`serve --admission-batch 1`) lets
            // the two opposite-order templates meet.
            admission_batch: if self == Kind::DeadlockProne {
                1
            } else {
                ServeConfig::default().engine.admission_batch
            },
            telemetry,
            ..ServeConfig::default().engine
        }
    }

    /// The server configuration: `nproc` run threads, histograms on (as
    /// `ddlf-audit serve` runs by default), the WAL when the workload
    /// has one.
    pub fn serve_config(self, nproc: usize, wal_dir: Option<PathBuf>) -> ServeConfig {
        ServeConfig {
            threads: nproc,
            default_inflate: InflateSpec::None,
            engine: self.engine_config(nproc, None, Telemetry::enabled()),
            wal_dir,
        }
    }
}

/// One generated workload.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub spec_json: String,
    pub sys: TransactionSystem,
    pub inflate: InflateSpec,
    /// Whether registration must certify (the no-detector path).
    pub certified: bool,
    /// Instances per `Submit`.
    pub submit_count: u32,
    /// Closed-loop writer connections.
    pub writers: usize,
    /// Closed-loop reader connections during the load.
    pub readers: usize,
    /// Σint of the initial store.
    pub base_sum: u128,
    /// Σint added by one committed instance.
    pub per_commit: u128,
    pub n_entities: usize,
    pub nproc: usize,
}

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64, nproc: usize) -> Option<Workload> {
        let kind = Kind::parse(name)?;
        let name = NAMES.iter().find(|n| **n == name)?;
        let mut rng = Rng::new(seed);
        let spec = match kind {
            Kind::SubmitSmall | Kind::DurableSync => shuffled(fixture(BANKING_ORDERED), &mut rng),
            Kind::DeadlockProne => shuffled(fixture(CLASSIC_OPPOSITE_ORDER), &mut rng),
            Kind::SnapshotMix => bank_spec(&mut rng),
        };
        let sys = spec.build().expect("generated spec builds");
        let locks: Vec<usize> = sys.iter().map(|(_, t)| t.entities().len()).collect();
        assert!(
            locks.windows(2).all(|w| w[0] == w[1]),
            "every template of a workload locks the same number of entities"
        );
        let initial = u128::from(EngineConfig::default().initial_value);
        let n_entities = sys.db().entities().count();
        Some(Workload {
            kind,
            name,
            spec_json: serde_json::to_string(&spec).expect("spec serializes"),
            inflate: match kind {
                Kind::SnapshotMix => InflateSpec::Auto { cap: nproc as u32 },
                _ => InflateSpec::None,
            },
            certified: kind != Kind::DeadlockProne,
            submit_count: if kind == Kind::SubmitSmall { 16 } else { 64 },
            writers: if kind == Kind::SnapshotMix { 1 } else { 2 },
            readers: usize::from(kind == Kind::SnapshotMix),
            base_sum: initial * n_entities as u128,
            per_commit: locks[0] as u128,
            n_entities,
            sys,
            nproc,
        })
    }

    pub fn has_wal(&self) -> bool {
        self.kind.has_wal()
    }

    /// The engine configuration of an in-process engine equivalent to
    /// the server's registration.
    pub fn engine_config(&self, wal_dir: Option<PathBuf>, telemetry: Telemetry) -> EngineConfig {
        self.kind.engine_config(self.nproc, wal_dir, telemetry)
    }

    /// The admission the server grants a registration of this workload
    /// (the server clamps an `Auto` cap to its thread count).
    pub fn admission(&self) -> AdmissionOptions {
        AdmissionOptions {
            inflate: match self.inflate {
                InflateSpec::None => Inflation::None,
                InflateSpec::Uniform(k) => Inflation::Uniform(k as usize),
                InflateSpec::Auto { cap } => Inflation::Auto {
                    cap: (cap as usize).clamp(1, self.nproc),
                },
            },
            ..Default::default()
        }
    }

    /// The template mix of one `Submit("", submit_count)`, split
    /// round-robin exactly as the server splits it.
    pub fn submit_mix(&self) -> Vec<(TxnId, usize)> {
        let n = self.sys.len();
        let count = self.submit_count as usize;
        (0..n)
            .map(|i| (TxnId::from_index(i), count / n + usize::from(i < count % n)))
            .collect()
    }

    /// Whether a committed state's Σint is reachable: at least the
    /// initial sum, and a whole number of committed instances above it.
    pub fn conserves(&self, sum: u128) -> bool {
        sum >= self.base_sum && (sum - self.base_sum).is_multiple_of(self.per_commit)
    }
}

fn fixture(json: &str) -> SystemSpec {
    serde_json::from_str(json).expect("fixture parses")
}

/// The fixture with its entity and transaction order permuted by the
/// seed: the same system up to ids, so the shape the fixture was chosen
/// for is kept while the bytes the server sees depend on the seed.
fn shuffled(mut spec: SystemSpec, rng: &mut Rng) -> SystemSpec {
    rng.shuffle(&mut spec.entities);
    rng.shuffle(&mut spec.transactions);
    spec
}

/// A bank of 4 branches × 16 accounts (+ 4 ledgers = 68 entities) with 5
/// cross-branch `transfer_ordered` templates between seeded accounts.
/// The branch routes are fixed (a ring plus one reverse transfer, as in
/// `examples/banking.rs`) because certification cost depends on them: on
/// random routes a registration took 0.03–4 s depending on the seed, on
/// these it takes about the same time for every seed. No two templates
/// share an account, so every template locks exactly 4 entities.
fn bank_spec(rng: &mut Rng) -> SystemSpec {
    const BRANCHES: usize = 4;
    const ACCOUNTS: usize = 16;
    const ROUTES: [(usize, usize); 5] = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)];
    let bank = Bank::new(BRANCHES, ACCOUNTS);
    let mut free: Vec<Vec<usize>> = (0..BRANCHES)
        .map(|_| {
            let mut a: Vec<usize> = (0..ACCOUNTS).collect();
            rng.shuffle(&mut a);
            a
        })
        .collect();
    let txns = ROUTES
        .iter()
        .enumerate()
        .map(|(i, &(from, to))| {
            let a = free[from].pop().expect("enough accounts");
            let b = free[to].pop().expect("enough accounts");
            bank.transfer_ordered(&format!("transfer{i}"), (from, a), (to, b))
        })
        .collect();
    let sys = TransactionSystem::new(bank.db.clone(), txns).expect("bank system builds");
    SystemSpec::from_system(&sys)
}
