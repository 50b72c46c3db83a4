//! Closed-loop TCP load benchmark for the ddlf server.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path loadbench/Cargo.toml -- --self-test
//! ```
//!
//! One run starts the server in a child process, registers the
//! workload's seeded system, drives it with closed-loop clients for
//! `--seconds`, checks every reply, and prints one `metric` line per
//! metric followed by a one-line JSON result. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer metrics of a traced run.
//! Any correctness violation prints the violations on stderr and exits 1
//! without a result. See `README.md` next to this file.

mod cpu;
mod load;
mod probe;
mod rng;
mod selftest;
mod serverproc;
mod stats;
mod trace;
mod workload;

use ddlf_server::StatsSnapshot;
use load::{ClientOut, Op, Plan, Role};
use serverproc::ServerProc;
use stats::{median, quantile, sorted};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// End-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("submit_p50_ms", "ms"),
    ("commit_tps", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("reads_per_s", "1/s"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("server.report_rtt_us", "us"),
    ("server.outside_run_p50_us", "us"),
    ("server.outside_run_p99_us", "us"),
    ("server.bind_us", "us"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.reply_bytes", "bytes"),
    ("proto.read_decode_ns", "ns"),
    ("proto.read_reply_bytes", "bytes"),
    ("executor.run_p50_us", "us"),
    ("executor.run_p99_us", "us"),
    ("executor.direct_run_us", "us"),
    ("executor.peak_inflight", "count"),
    ("executor.aborts_per_commit", "ratio"),
    ("executor.commits", "count"),
    ("phase.gate_wait_ns", "ns"),
    ("phase.execute_ns", "ns"),
    ("phase.commit_ns", "ns"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.group_size", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("phase.fsync_ns", "ns"),
    ("phase.wal_append_ns", "ns"),
    ("mvcc.direct_read_us", "us"),
    ("phase.snapshot_read_ns", "ns"),
    ("mvcc.chain_versions", "count"),
    ("mvcc.chain_max_len", "count"),
    ("certify.base_ms", "ms"),
    ("certify.inflate_ms", "ms"),
    ("certify.probes", "count"),
    ("audit.arcs_per_commit", "ratio"),
    ("audit.history_per_submit", "count"),
    ("self.submit_wire_us", "us"),
    ("self.read_wire_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Setups per run: at least the first bound, then more until the second
/// bound or the time budget is reached; `setup_s` is their QUIET
/// quantile. A setup of well under a millisecond is mostly the cost of a
/// fresh process's first request, whose median moved by half between
/// runs with the host's load; its lower decile over many setups moved
/// far less.
const SETUPS: (usize, usize) = (5, 200);
const SETUP_BUDGET: Duration = Duration::from_millis(2500);
/// Recoveries of the fixed log per run: at least this many, and more
/// until the time budget is spent; `recover_s` is their QUIET quantile
/// (see WINDOWS for why).
const RECOVER_REPS: usize = 7;
const RECOVER_BUDGET: Duration = Duration::from_secs(2);
/// Closed-loop warm-up before the measured interval.
const WARMUP: Duration = Duration::from_millis(500);
/// The measured interval is cut into this many equal windows. Outside
/// load on a shared host only ever slows a run down, and a burst of it
/// can cover most of a run, so latencies are a low quantile (QUIET) and
/// rates the matching high quantile (1 - QUIET) of the per-window
/// figures: the figure of the quietest part of the run.
const WINDOWS: u32 = 40;
const QUIET: f64 = 0.1;
/// Length of the idle-server read probe of workloads without a reader.
const READ_PROBE: Duration = Duration::from_secs(3);
/// Report RPCs timed for `server.report_rtt_us`.
const REPORT_RTTS: usize = 500;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark's package directory; runtime files go under `run/`.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--serve") => serverproc::serve_main(&args[1..]),
        Some("--self-test") => selftest::run(),
        _ => match parse_args(&args) {
            Ok(a) => bench(&a),
            Err(e) => {
                eprintln!("{e}");
                eprintln!(
                    "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --self-test",
                    workload::NAMES.join("|")
                );
                2
            }
        },
    };
    std::process::exit(code);
}

/// One metric line: value, unit, and how it was taken.
struct Metric {
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Metrics {
    values: BTreeMap<&'static str, Metric>,
    /// Informational `#` lines printed before the metrics.
    info: Vec<String>,
}

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .expect("metric is listed");
        let note = note.into();
        self.values.insert(name, Metric { value, unit, note });
    }
}

fn bench(a: &Args) -> i32 {
    let nproc = nproc();
    let Some(w) = Workload::generate(&a.workload, a.seed, nproc) else {
        eprintln!(
            "unknown workload {:?}; one of {}",
            a.workload,
            workload::NAMES.join(", ")
        );
        return 2;
    };
    // Before any thread or child starts, so that all of them inherit it.
    let cpu = match cpu::pin_to_one() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let run_dir = package_dir().join("run").join(w.name);
    // Leftovers of an interrupted run are removed before anything is
    // timed; this run's files are removed after the last timed region.
    let _ = std::fs::remove_dir_all(&run_dir);
    // Flush what earlier runs left dirty (their fsynced logs and deleted
    // run directories), so its writeback does not land in a timed region.
    let _ = command_line("sync", &[]);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("create {}: {e}", run_dir.display());
        return 2;
    }
    println!(
        "# host nproc={nproc} pinned_cpu={cpu} commit={} rustc=\"{}\" wal_fs={} | workload={} seed={} seconds={} trace={}",
        commit_hash(),
        command_line("rustc", &["-V"]),
        command_line("stat", &["-f", "-c", "%T", &run_dir.to_string_lossy()]),
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
    );
    let mut m = Metrics::default();
    let outcome = measure(&w, a, &run_dir, &mut m);
    let _ = std::fs::remove_dir_all(&run_dir);
    let attempted = match outcome {
        Ok(attempted) => attempted,
        Err(violations) => {
            for v in &violations {
                eprintln!("VIOLATION [{}]: {v}", w.name);
            }
            return 1;
        }
    };
    for line in &m.info {
        println!("{line}");
    }
    let names: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (i, (name, _)) in names.iter().enumerate() {
        let Some(metric) = m.values.get(name).filter(|m| m.value.is_finite()) else {
            eprintln!("metric {name} was not measured");
            return 1;
        };
        println!(
            "metric {name} {} {} {}",
            metric.value, metric.unit, metric.note
        );
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.value,
            metric.unit
        );
    }
    println!("# failed_frac 0 frac (0 of {attempted} operations failed)");
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{json}}}}}"
    );
    0
}

/// The commit of the checkout, when it is a git work tree of its own.
fn commit_hash() -> String {
    let root = package_dir().join("..");
    let out = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", root.join(".git"))
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

type Violations = Vec<String>;

fn fail<T>(msg: impl Into<String>) -> Result<T, Violations> {
    Err(vec![msg.into()])
}

/// Runs one workload and fills `m`; returns the operations attempted.
/// A failed operation is a violation, so a run that returns has none.
fn measure(w: &Workload, a: &Args, run_dir: &Path, m: &mut Metrics) -> Result<u64, Violations> {
    let epoch = Instant::now();
    let mut main_tracer = Tracer::new(epoch, 0);

    // Set-up: bind plus the RegisterSystem reply, repeated (see
    // SETUPS); the last server stays up for the load.
    let mut setups = Vec::new();
    let mut binds = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    let server = loop {
        let wal = w.has_wal().then(|| run_dir.join(format!("wal-{i}")));
        let srv = ServerProc::spawn(w.name, w.nproc, wal.as_deref()).or_else(fail)?;
        let (reg, register) = main_tracer.spanned("client.register", i as u64, || {
            let begun = Instant::now();
            let reg = ddlf_server::Client::connect(srv.addr.as_str())
                .map_err(|e| e.to_string())
                .and_then(|mut c| {
                    c.register(&w.spec_json, w.inflate)
                        .map_err(|e| e.to_string())
                });
            (reg, begun.elapsed())
        });
        let reg = reg.or_else(fail)?;
        if reg.certified != w.certified {
            return fail(format!(
                "registration certified = {} (expected {}): {}",
                reg.certified, w.certified, reg.verdict
            ));
        }
        binds.push(srv.bind_ns as f64 / 1e3);
        setups.push(srv.bind_ns as f64 / 1e9 + register.as_secs_f64());
        i += 1;
        if i >= SETUPS.1 || (i >= SETUPS.0 && started.elapsed() >= SETUP_BUDGET) {
            break (srv, wal);
        }
        srv.shutdown().or_else(fail)?;
    };
    let (server, load_wal) = server;
    let n_setups = setups.len();
    m.set(
        "setup_s",
        quantile(&sorted(setups), QUIET),
        format!("lower decile of {n_setups} (bind + RegisterSystem reply)"),
    );
    m.set(
        "server.bind_us",
        median(binds),
        format!("median of {n_setups}"),
    );

    // The closed-loop load.
    let seconds = Duration::from_secs(a.seconds);
    let mut stats_client = ddlf_server::Client::connect(server.addr.as_str())
        .map_err(|e| vec![format!("connect: {e}")])?;
    let start = epoch.elapsed();
    let plan = Plan {
        epoch,
        measure_from: start + WARMUP,
        until: start + WARMUP + seconds,
        trace_window: a.trace.then(|| seconds / 20),
    };
    let roles: Vec<Role> = std::iter::repeat_n(Role::Writer, w.writers)
        .chain(std::iter::repeat_n(Role::Reader, w.readers))
        .collect();
    let (outs, stats_window) = std::thread::scope(|s| {
        let handles: Vec<_> = roles
            .iter()
            .enumerate()
            .map(|(i, &role)| {
                let (addr, plan) = (server.addr.as_str(), &plan);
                s.spawn(move || load::run_client(addr, role, w, plan, i + 1))
            })
            .collect();
        // Telemetry digests bracketing the measured interval.
        std::thread::sleep(plan.measure_from.saturating_sub(epoch.elapsed()));
        let before = stats_client.stats();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (
            outs,
            before.and_then(|b| stats_client.stats().map(|e| (b, e))),
        )
    });
    let mut violations: Violations = outs.iter().flat_map(|o| o.violations.clone()).collect();
    let (stats_before, stats_after) = match stats_window {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("stats: {e}"));
            return Err(violations);
        }
    };
    if !violations.is_empty() {
        return Err(violations);
    }
    let peak_rss = server
        .peak_rss_mb()
        .ok_or_else(|| vec!["cannot read the server's peak RSS".to_string()])?;
    m.set(
        "peak_rss_mb",
        peak_rss,
        "server process VmHWM after the load",
    );
    let committed: u64 = outs.iter().map(ClientOut::committed).sum();
    let mut attempted: u64 = outs.iter().map(|o| o.attempted).sum();

    let writer_ops = measured_ops(&outs, Role::Writer, &plan);
    let n = writer_ops.len();
    let note = format!("lower decile of per-window quantiles, n={n}");
    m.set(
        "submit_p50_ms",
        windowed_quantile(&writer_ops, &plan, 0.5) / 1e6,
        note,
    );
    // Submit latency has several modes (a Submit that found the engine
    // free, one that queued behind the other writer, ...) whose weights
    // shift from run to run, so a tail quantile between two modes jumps
    // with them: over seeds of the same code, p90's interquartile range
    // was 0.16-0.25 of its median. The tails are printed for reading, not
    // compared.
    for (name, q) in [("submit_p90_ms", 0.9), ("submit_p99_ms", 0.99)] {
        m.info.push(format!(
            "# {name} {} ms n={n} (not compared)",
            windowed_quantile(&writer_ops, &plan, q) / 1e6
        ));
    }
    let commit_rates = window_rates(&outs, Role::Writer, &plan, |o| o.committed as f64);
    m.set(
        "commit_tps",
        quantile(&sorted(commit_rates), 1.0 - QUIET),
        format!("upper decile of {WINDOWS} windows, {} writers", w.writers),
    );

    // Reads: the load's reader, or a probe on the idle server.
    let mut probe_out = Vec::new();
    let probe_plan: Plan;
    let (read_outs, read_plan, read_note) = if w.readers > 0 {
        (&outs, &plan, "during the load")
    } else {
        let start = epoch.elapsed();
        probe_plan = Plan {
            epoch,
            measure_from: start,
            until: start + READ_PROBE,
            trace_window: a.trace.then(|| READ_PROBE / 10),
        };
        let out = load::run_client(&server.addr, Role::Reader, w, &probe_plan, roles.len() + 1);
        attempted += out.attempted;
        if !out.violations.is_empty() {
            return Err(out.violations);
        }
        probe_out.push(out);
        (&probe_out, &probe_plan, "idle-server probe after the load")
    };
    let read_ops = measured_ops(read_outs, Role::Reader, read_plan);
    let n = read_ops.len();
    let note = format!("lower decile of per-window quantiles, n={n}, {read_note}");
    m.set(
        "read_p50_us",
        windowed_quantile(&read_ops, read_plan, 0.5) / 1e3,
        note.clone(),
    );
    m.set(
        "read_p90_us",
        windowed_quantile(&read_ops, read_plan, 0.9) / 1e3,
        note,
    );
    m.info.push(format!(
        "# read_p99_us {} us n={n} (not compared)",
        windowed_quantile(&read_ops, read_plan, 0.99) / 1e3
    ));
    let read_rates = window_rates(read_outs, Role::Reader, read_plan, |_| 1.0);
    m.set(
        "reads_per_s",
        quantile(&sorted(read_rates), 1.0 - QUIET),
        format!("upper decile of {WINDOWS} windows, 1 reader, {read_note}"),
    );

    // The final committed state holds exactly the acknowledged commits.
    let want = w.base_sum + w.per_commit * u128::from(committed);
    match stats_client.read(&[]) {
        Ok(snap) if snap.sum_int() == want => {}
        Ok(snap) => {
            return fail(format!(
                "final cut sums to {}, acknowledged commits give {want}",
                snap.sum_int()
            ))
        }
        Err(e) => return fail(format!("final read: {e}")),
    }

    if a.trace {
        let rtts = (0..REPORT_RTTS)
            .map(|i| {
                main_tracer.spanned("client.report", i as u64, || {
                    let started = Instant::now();
                    let r = stats_client.report();
                    r.map(|_| started.elapsed().as_secs_f64() * 1e6)
                })
            })
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|e| vec![format!("report: {e}")])?;
        m.set(
            "server.report_rtt_us",
            median(rtts),
            format!("median of {REPORT_RTTS} no-op Report RPCs after the load"),
        );
        let delta = Delta::between(&stats_after, &stats_before);
        server_metrics(m, &writer_ops, &read_ops, &delta, &stats_after);
        probe_metrics(m, w, &mut main_tracer, run_dir).or_else(fail)?;
    }
    drop(stats_client);
    server.shutdown().or_else(fail)?;

    // Durability: the load's log recovers exactly the acknowledged
    // commits (untimed: its size grows with throughput).
    if let Some(dir) = load_wal {
        probe::recover_checked(w, &dir, committed).or_else(fail)?;
    }

    // recover_s: a log of a fixed number of commits, recovered
    // RECOVER_REPS times.
    let log_dir = run_dir.join("recover-log");
    let log = main_tracer
        .spanned("probe.build_log", 0, || probe::build_log(w, &log_dir))
        .or_else(fail)?;
    // One untimed recovery first, so page cache and allocator are warm.
    probe::recover_checked(w, &log_dir, log.committed).or_else(fail)?;
    let mut recovers = Vec::new();
    let started = Instant::now();
    while recovers.len() < RECOVER_REPS || started.elapsed() < RECOVER_BUDGET {
        let d = main_tracer
            .spanned("wal.recover", 0, || {
                probe::recover_checked(w, &log_dir, log.committed)
            })
            .or_else(fail)?;
        recovers.push(d.as_secs_f64());
    }
    let note = format!(
        "lower decile of {}, log of {} commits",
        recovers.len(),
        log.committed
    );
    m.set("recover_s", quantile(&sorted(recovers), QUIET), note);
    if a.trace {
        let (source, delta) = if w.has_wal() {
            ("server load", Delta::between(&stats_after, &stats_before))
        } else {
            (
                "fixed-log build",
                Delta::between(&log.stats, &Default::default()),
            )
        };
        wal_metrics(m, &delta, source);
        let tracers: Vec<&Tracer> = std::iter::once(&main_tracer)
            .chain(outs.iter().map(|o| &o.tracer))
            .chain(probe_out.iter().map(|o| &o.tracer))
            .collect();
        span_metrics(m, &tracers, &writer_ops);
        write_spans(&tracers, w.name);
    }
    Ok(attempted)
}

/// The in-process layer probes: the certifier, and a direct engine run
/// and read with the registration's configuration.
fn probe_metrics(
    m: &mut Metrics,
    w: &Workload,
    tracer: &mut Tracer,
    run_dir: &Path,
) -> Result<(), String> {
    let c = tracer.spanned("probe.certify", 0, || probe::certify(w, 3));
    m.set("certify.base_ms", c.base_ms, "median of 3 in-process calls");
    let note = format!("median of 3, cap {}", w.nproc);
    m.set("certify.inflate_ms", c.inflate_ms, note);
    m.set("certify.probes", c.probes, "max_certified_inflation probes");
    let wal = w.has_wal().then(|| run_dir.join("direct-wal"));
    let d = tracer.spanned("probe.direct", 0, || {
        probe::direct(w, wal.as_deref(), Duration::from_secs(1))
    })?;
    let note = "median in-process Engine::run_mix of one Submit's mix";
    m.set("executor.direct_run_us", d.run_us, note);
    let note = "median in-process Engine::run_read_only, every entity";
    m.set("mvcc.direct_read_us", d.read_us, note);
    let note = "in-process engine, mean per read";
    m.set("phase.snapshot_read_ns", d.snapshot_read_ns, note);
    Ok(())
}

/// `role`'s operations inside the measured interval.
fn measured_ops(outs: &[ClientOut], role: Role, plan: &Plan) -> Vec<Op> {
    outs.iter()
        .filter(|o| o.role == role)
        .flat_map(|o| o.ops.iter().copied())
        .filter(|op| plan.measured(op))
        .collect()
}

/// The window an operation ending at `end_ns` falls in, if inside the
/// measured interval.
fn window_of(plan: &Plan, end_ns: u64) -> Option<usize> {
    let from = plan.measure_from.as_nanos() as u64;
    let len = (plan.until - plan.measure_from).as_nanos() as u64 / u64::from(WINDOWS);
    let i = (end_ns.checked_sub(from)? / len) as usize;
    (i < WINDOWS as usize).then_some(i)
}

/// The `q`-quantile of latency (ns) within each of up to WINDOWS equal
/// windows of the measured interval, QUIET quantile over the windows.
/// There are only as many windows as leave at least 10 samples
/// beyond the quantile in each; a sparse tail is taken over the whole
/// interval.
fn windowed_quantile(ops: &[Op], plan: &Plan, q: f64) -> f64 {
    let beyond = ops.len() as f64 * (1.0 - q);
    let n = ((beyond / 10.0) as usize).clamp(1, WINDOWS as usize);
    let mut windows = vec![Vec::new(); n];
    for op in ops {
        if let Some(i) = window_of(plan, op.end_ns) {
            windows[i * n / WINDOWS as usize].push(op.latency_ns() as f64);
        }
    }
    let per_window = windows.into_iter().map(|w| quantile(&sorted(w), q));
    quantile(&sorted(per_window.collect()), QUIET)
}

/// Per-second rates of `weight` over WINDOWS equal windows of the
/// measured interval, each operation counted in the window it ended in.
fn window_rates(
    outs: &[ClientOut],
    role: Role,
    plan: &Plan,
    weight: impl Fn(&Op) -> f64,
) -> Vec<f64> {
    let len_s = (plan.until - plan.measure_from).as_secs_f64() / f64::from(WINDOWS);
    let mut sums = vec![0.0; WINDOWS as usize];
    for op in outs.iter().filter(|o| o.role == role).flat_map(|o| &o.ops) {
        if let Some(i) = window_of(plan, op.end_ns) {
            sums[i] += weight(op);
        }
    }
    sums.into_iter().map(|s| s / len_s).collect()
}

/// Counter differences between two telemetry digests of one engine.
struct Delta {
    commits: f64,
    wal_bytes: f64,
    group_flushes: f64,
    group_commits: f64,
    /// (count, sum_ns) per phase name.
    phases: BTreeMap<String, (f64, f64)>,
}

impl Delta {
    fn between(after: &StatsSnapshot, before: &StatsSnapshot) -> Delta {
        let phase = |s: &StatsSnapshot, name: &str| {
            s.phases
                .iter()
                .find(|p| p.name == name)
                .map_or((0.0, 0.0), |p| (p.count as f64, p.sum_ns as f64))
        };
        Delta {
            commits: after.committed() as f64 - before.committed() as f64,
            wal_bytes: after.wal_bytes as f64 - before.wal_bytes as f64,
            group_flushes: after.group_flushes as f64 - before.group_flushes as f64,
            group_commits: after.group_commits as f64 - before.group_commits as f64,
            phases: after
                .phases
                .iter()
                .map(|p| {
                    let (c0, s0) = phase(before, &p.name);
                    (p.name.clone(), (p.count as f64 - c0, p.sum_ns as f64 - s0))
                })
                .collect(),
        }
    }

    /// A phase's time per committed instance.
    fn ns_per_commit(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |&(_, sum)| sum) / self.commits.max(1.0)
    }
}

fn server_metrics(m: &mut Metrics, writes: &[Op], reads: &[Op], d: &Delta, after: &StatsSnapshot) {
    let n = writes.len();
    let outside = sorted(
        writes
            .iter()
            .map(|o| o.latency_ns() as f64 / 1e3 - o.wall_us as f64)
            .collect(),
    );
    let note = format!("client Submit latency - RunStats.wall_us, n={n}");
    m.set(
        "server.outside_run_p50_us",
        quantile(&outside, 0.5),
        note.clone(),
    );
    m.set("server.outside_run_p99_us", quantile(&outside, 0.99), note);
    let traced_w: Vec<&Op> = writes.iter().filter(|o| o.traced).collect();
    let traced_r: Vec<&Op> = reads.iter().filter(|o| o.traced).collect();
    let med = |ops: &[&Op], f: fn(&Op) -> u64| median(ops.iter().map(|o| f(o) as f64).collect());
    let note = format!("median over {} traced Submits", traced_w.len());
    m.set(
        "proto.encode_ns",
        med(&traced_w, |o| o.encode_ns),
        note.clone(),
    );
    m.set(
        "proto.decode_ns",
        med(&traced_w, |o| o.decode_ns),
        note.clone(),
    );
    m.set("proto.reply_bytes", med(&traced_w, |o| o.reply_bytes), note);
    let note = format!("median over {} traced reads", traced_r.len());
    m.set(
        "proto.read_decode_ns",
        med(&traced_r, |o| o.decode_ns),
        note.clone(),
    );
    m.set(
        "proto.read_reply_bytes",
        med(&traced_r, |o| o.reply_bytes),
        note,
    );
    let run_us = sorted(writes.iter().map(|o| o.wall_us as f64).collect());
    let note = format!("RunStats.wall_us, n={n}");
    m.set("executor.run_p50_us", quantile(&run_us, 0.5), note.clone());
    m.set("executor.run_p99_us", quantile(&run_us, 0.99), note);
    let peak = writes.iter().map(|o| o.peak_inflight).max().unwrap_or(0);
    m.set(
        "executor.peak_inflight",
        peak as f64,
        "max RunStats.peak_inflight",
    );
    let commits: u64 = writes.iter().map(|o| o.committed).sum();
    let aborts: u64 = writes.iter().map(|o| o.aborts).sum();
    m.set(
        "executor.aborts_per_commit",
        aborts as f64 / commits.max(1) as f64,
        format!("{aborts} aborts / {commits} commits"),
    );
    m.set(
        "executor.commits",
        commits as f64,
        "base of the per-commit ratios",
    );
    let note = format!(
        "server Stats digest, ns per committed txn over {} commits",
        d.commits
    );
    for (metric, phase) in [
        ("phase.gate_wait_ns", "gate_wait"),
        ("phase.execute_ns", "execute"),
        ("phase.commit_ns", "commit"),
    ] {
        m.set(metric, d.ns_per_commit(phase), note.clone());
    }
    m.set(
        "mvcc.chain_versions",
        after.chain_versions as f64,
        "server Stats after the load",
    );
    m.set(
        "mvcc.chain_max_len",
        after.chain_max_len as f64,
        "server Stats after the load",
    );
    m.set(
        "audit.arcs_per_commit",
        after.auditor_arcs as f64 / after.auditor_nodes.max(1) as f64,
        "auditor arcs / nodes of the last run",
    );
    m.set(
        "audit.history_per_submit",
        writes.iter().map(|o| o.history_len as f64).sum::<f64>() / n.max(1) as f64,
        format!("mean RunStats.history_len, n={n}"),
    );
}

fn wal_metrics(m: &mut Metrics, d: &Delta, source: &str) {
    let per = d.commits.max(1.0);
    let note = format!("{source}, {} commits", d.commits);
    let fsyncs = d.phases.get("fsync").map_or(0.0, |&(c, _)| c);
    m.set("wal.fsyncs_per_commit", fsyncs / per, note.clone());
    m.set(
        "wal.group_size",
        d.group_commits / d.group_flushes.max(1.0),
        format!("{source}, group_commits / group_flushes"),
    );
    m.set("wal.bytes_per_commit", d.wal_bytes / per, note.clone());
    m.set("phase.fsync_ns", d.ns_per_commit("fsync"), note.clone());
    m.set("phase.wal_append_ns", d.ns_per_commit("wal_append"), note);
}

/// Self times from the spans, and the tracing overhead: traced against
/// untraced Submit latency, windows of the same run.
fn span_metrics(m: &mut Metrics, tracers: &[&Tracer], writes: &[Op]) {
    let mut self_us: BTreeMap<(&str, &str), (f64, f64)> = BTreeMap::new();
    let mut total = 0usize;
    for tr in tracers {
        total += tr.spans.len();
        for (s, self_ns) in tr.spans.iter().zip(tr.self_times_ns()) {
            let root = s.parent.map_or(s.name, |p| tr.spans[p].name);
            let e = self_us.entry((root, s.name)).or_default();
            e.0 += self_ns as f64 / 1e3;
            e.1 += 1.0;
        }
    }
    let mean = |key| self_us.get(&key).map_or(0.0, |&(sum, n)| sum / n);
    let note = "mean self time per span";
    m.set(
        "self.submit_wire_us",
        mean(("client.submit", "wire.round_trip")),
        note,
    );
    m.set(
        "self.read_wire_us",
        mean(("client.read", "wire.round_trip")),
        note,
    );
    m.set("trace.spans", total as f64, "spans recorded");
    let lat = |traced: bool| {
        median(
            writes
                .iter()
                .filter(|o| o.traced == traced)
                .map(|o| o.latency_ns() as f64)
                .collect(),
        )
    };
    let (untraced, traced) = (lat(false), lat(true));
    m.set(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        format!(
            "Submit p50 traced {:.1} us vs untraced {:.1} us",
            traced / 1e3,
            untraced / 1e3
        ),
    );
}

/// Writes every span as JSON lines next to the run directory.
fn write_spans(tracers: &[&Tracer], workload: &str) {
    let mut out = String::new();
    for tr in tracers {
        tr.write_jsonl(&mut out);
    }
    let path = package_dir()
        .join("run")
        .join(format!("{workload}.spans.jsonl"));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("write {}: {e}", path.display());
    }
}
