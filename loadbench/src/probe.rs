//! In-process calls into the layers below the server, on the workload's
//! own system: the certifier, a direct engine run and read, and the
//! write-ahead log's build and recovery.

use crate::stats::median;
use crate::workload::Workload;
use ddlf_core::{
    certify_safe_and_deadlock_free, max_certified_inflation, CertifyOptions, InflateOptions,
};
use ddlf_engine::{recover, Engine, EngineConfig, Phase, Report, Telemetry, DEFAULT_MAX_GROUP};
use ddlf_model::EntityId;
use ddlf_server::StatsSnapshot;
use std::path::Path;
use std::time::{Duration, Instant};

/// Instances committed into the log that `recover_s` replays: fixed, so
/// recovery input does not grow with throughput.
pub const RECOVER_COMMITS: usize = 4096;

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

pub struct Certify {
    pub base_ms: f64,
    pub inflate_ms: f64,
    pub probes: f64,
}

/// Times `certify_safe_and_deadlock_free` and `max_certified_inflation`
/// at the registration's cap, median of `reps` calls each.
pub fn certify(w: &Workload, reps: usize) -> Certify {
    let base = (0..reps)
        .map(|_| {
            timed(|| certify_safe_and_deadlock_free(&w.sys, CertifyOptions::default()))
                .1
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let mut probes = 0.0;
    let inflate = (0..reps)
        .map(|_| {
            let (max, d) =
                timed(|| max_certified_inflation(&w.sys, InflateOptions::default(), w.nproc));
            probes = max.map_or(0.0, |m| m.probes as f64);
            d.as_secs_f64() * 1e3
        })
        .collect();
    Certify {
        base_ms: median(base),
        inflate_ms: median(inflate),
        probes,
    }
}

/// Checks one engine run the way the load checks a `Submit` reply.
fn check_run(w: &Workload, r: &Report) -> Result<(), String> {
    if !r.all_committed() || r.serializable != Some(true) || r.dirty_aborts != 0 {
        return Err(format!("in-process run: {}", r.summary()));
    }
    if w.certified && r.aborted_attempts != 0 {
        return Err(format!("in-process certified run aborted: {}", r.summary()));
    }
    Ok(())
}

pub struct Direct {
    /// Median `Engine::run_mix` wall time of one submission's mix.
    pub run_us: f64,
    /// Median `Engine::run_read_only` over every entity.
    pub read_us: f64,
    /// The engine's own `snapshot_read` phase, mean per read.
    pub snapshot_read_ns: f64,
}

/// Runs the submission mix and whole-database reads on an in-process
/// engine configured like the server's registration, each for half of
/// `budget`.
pub fn direct(w: &Workload, wal_dir: Option<&Path>, budget: Duration) -> Result<Direct, String> {
    let tel = Telemetry::enabled();
    let engine = Engine::try_with_admission(
        w.sys.clone(),
        w.admission(),
        w.engine_config(wal_dir.map(Path::to_path_buf), tel.clone()),
    )
    .map_err(|e| format!("in-process engine: {e}"))?;
    let mix = w.submit_mix();
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 5 || started.elapsed() < budget / 2 {
        let (r, d) = timed(|| engine.run_mix(&mix));
        check_run(w, &r)?;
        runs.push(d.as_secs_f64() * 1e6);
    }
    let ids: Vec<EntityId> = engine.store().db().entities().collect();
    let mut reads = Vec::new();
    let started = Instant::now();
    while reads.len() < 5 || started.elapsed() < budget / 2 {
        let (snap, d) = timed(|| engine.run_read_only(&ids));
        if !w.conserves(snap.sum_int()) {
            return Err(format!("in-process read sums to {}", snap.sum_int()));
        }
        reads.push(d.as_secs_f64() * 1e6);
    }
    let h = tel.phase_snapshot();
    let h = h.get(Phase::SnapshotRead);
    Ok(Direct {
        run_us: median(runs),
        read_us: median(reads),
        snapshot_read_ns: h.sum as f64 / h.count.max(1) as f64,
    })
}

pub struct WalLog {
    pub committed: u64,
    /// The building engine's telemetry, digested like the `Stats` RPC.
    pub stats: StatsSnapshot,
}

/// Writes a log of [`RECOVER_COMMITS`] committed instances into `dir`
/// with `durable_sync`'s flush policy (fsync before every
/// acknowledgement, group commit), from an in-process engine.
pub fn build_log(w: &Workload, dir: &Path) -> Result<WalLog, String> {
    let tel = Telemetry::enabled();
    let cfg = EngineConfig {
        wal_sync: true,
        group_commit: Some(DEFAULT_MAX_GROUP),
        ..w.engine_config(Some(dir.to_path_buf()), tel.clone())
    };
    let engine = Engine::try_with_admission(w.sys.clone(), w.admission(), cfg)
        .map_err(|e| format!("log engine: {e}"))?;
    let mix = w.submit_mix();
    let mut committed = 0u64;
    while (committed as usize) < RECOVER_COMMITS {
        let r = engine.run_mix(&mix);
        check_run(w, &r)?;
        committed += r.committed as u64;
    }
    drop(engine);
    Ok(WalLog {
        committed,
        stats: StatsSnapshot::from_telemetry(&tel),
    })
}

/// Recovers `dir` and checks it holds exactly `committed` instances, an
/// audited-serializable history and the matching Σint.
pub fn recover_checked(w: &Workload, dir: &Path, committed: u64) -> Result<Duration, String> {
    let (rec, d) = timed(|| recover(dir));
    let rec = rec.map_err(|e| format!("recover {}: {e}", dir.display()))?;
    let want_sum = w.base_sum + w.per_commit * u128::from(committed);
    if rec.committed as u64 != committed
        || rec.serializable != Some(true)
        || rec.store.total_int() != want_sum
    {
        return Err(format!(
            "recovered {} commits (Σ {}, serializable {:?}); acknowledged {committed} (Σ {want_sum})",
            rec.committed,
            rec.store.total_int(),
            rec.serializable
        ));
    }
    Ok(d)
}
