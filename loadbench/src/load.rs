//! Closed-loop clients. Each thread owns one connection and keeps
//! exactly one request outstanding: a writer loops `Submit("", count)`,
//! a reader loops whole-database `ReadOnly`. Every reply is checked
//! against the workload's correctness rules as it arrives.
//!
//! In a traced run the measured interval alternates between untraced
//! windows, served through [`ddlf_server::Client`] exactly as in an
//! untraced run, and traced windows, where the same request goes out on
//! a second connection through the public calls `Client` makes
//! internally (`Request::encode`, the frame round trip,
//! `Response::decode`), each wrapped in a span.

use crate::trace::Tracer;
use crate::workload::Workload;
use ddlf_server::{Client, Request, Response, RunStats, SnapshotReply};
use ddlf_sim::msg::frame;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// At most this many violation messages are kept per client.
const MAX_VIOLATIONS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Writer,
    Reader,
}

/// When a client sends: from `epoch` until `until`; operations that start
/// before `measure_from` are warm-up.
pub struct Plan {
    pub epoch: Instant,
    pub measure_from: Duration,
    pub until: Duration,
    /// Traced run: the measured interval alternates untraced and traced
    /// windows of this length, untraced first.
    pub trace_window: Option<Duration>,
}

impl Plan {
    fn traced_at(&self, t: Duration) -> bool {
        match self.trace_window {
            Some(w) if t >= self.measure_from => {
                ((t - self.measure_from).as_nanos() / w.as_nanos()) % 2 == 1
            }
            _ => false,
        }
    }

    /// Whether `op` started after warm-up and ended before the stop.
    pub fn measured(&self, op: &Op) -> bool {
        op.start_ns >= self.measure_from.as_nanos() as u64
            && op.end_ns <= self.until.as_nanos() as u64
    }
}

/// One completed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Op {
    /// Nanoseconds since the plan's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Instances committed (writers).
    pub committed: u64,
    pub traced: bool,
    /// Writers: the server's `RunStats` for this submission.
    pub wall_us: u64,
    pub history_len: u64,
    pub peak_inflight: u64,
    pub aborts: u64,
    /// Traced operations: the encode and decode spans' durations and the
    /// reply size.
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub reply_bytes: u64,
}

impl Op {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct ClientOut {
    pub role: Role,
    /// Every successful operation, warm-up included.
    pub ops: Vec<Op>,
    pub attempted: u64,
    /// One message per failed operation (up to MAX_VIOLATIONS).
    pub violations: Vec<String>,
    pub tracer: Tracer,
}

impl ClientOut {
    /// Instances committed over the whole run, warm-up included.
    pub fn committed(&self) -> u64 {
        self.ops.iter().map(|o| o.committed).sum()
    }
}

/// Runs one closed-loop client to the end of `plan`.
pub fn run_client(addr: &str, role: Role, w: &Workload, plan: &Plan, thread: usize) -> ClientOut {
    let mut out = ClientOut {
        role,
        ops: Vec::new(),
        attempted: 0,
        violations: Vec::new(),
        tracer: Tracer::new(plan.epoch, thread),
    };
    let connected = Client::connect(addr).and_then(|c| {
        let raw = match plan.trace_window {
            Some(_) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Some(s)
            }
            None => None,
        };
        Ok((c, raw))
    });
    let (mut client, mut raw) = match connected {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.violations.push(format!("connect {addr}: {e}"));
            return out;
        }
    };
    let request = match role {
        Role::Writer => Request::Submit {
            template: String::new(),
            count: w.submit_count,
        },
        Role::Reader => Request::ReadOnly {
            entities: Vec::new(),
        },
    };
    let span_name = match role {
        Role::Writer => "client.submit",
        Role::Reader => "client.read",
    };
    let mut last_read = (0u64, 0u128);
    let mut request_id = (thread as u64) << 40;
    loop {
        let t = plan.epoch.elapsed();
        if t >= plan.until {
            break;
        }
        request_id += 1;
        let mut op = Op {
            start_ns: t.as_nanos() as u64,
            traced: plan.traced_at(t),
            ..Op::default()
        };
        let reply = match (&mut raw, op.traced) {
            (Some(conn), true) => traced_call(
                conn,
                &mut out.tracer,
                span_name,
                &request,
                request_id,
                &mut op,
            ),
            _ => match role {
                Role::Writer => client
                    .submit("", w.submit_count)
                    .map(Response::Submitted)
                    .map_err(|e| e.to_string()),
                Role::Reader => client
                    .read(&[])
                    .map(Response::Snapshot)
                    .map_err(|e| e.to_string()),
            },
        };
        op.end_ns = plan.epoch.elapsed().as_nanos() as u64;
        out.attempted += 1;
        let checked = match (role, reply) {
            (Role::Writer, Ok(Response::Submitted(stats))) => check_submit(w, &stats).map(|()| {
                op.committed = stats.committed;
                op.wall_us = stats.wall_us;
                op.history_len = stats.history_len;
                op.peak_inflight = stats.peak_inflight;
                op.aborts = stats.aborted_attempts;
            }),
            (Role::Reader, Ok(Response::Snapshot(snap))) => check_read(w, &snap, &mut last_read),
            (_, Ok(other)) => Err(format!("unexpected reply {other:?}")),
            (_, Err(e)) => Err(e),
        };
        match checked {
            Ok(()) => out.ops.push(op),
            Err(e) if out.violations.len() < MAX_VIOLATIONS => {
                out.violations.push(format!("{span_name}: {e}"))
            }
            Err(_) => {}
        }
    }
    out
}

/// One request over the raw connection, spanned: a root span for the
/// request with encode, round-trip and decode children.
fn traced_call(
    conn: &mut TcpStream,
    tr: &mut Tracer,
    name: &'static str,
    req: &Request,
    id: u64,
    op: &mut Op,
) -> Result<Response, String> {
    let t0 = tr.now_ns();
    let payload = req.encode();
    let t1 = tr.now_ns();
    let reply = frame::write_frame(conn, payload.as_ref()).and_then(|()| frame::read_frame(conn));
    let t2 = tr.now_ns();
    let reply = match reply {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return Err("server closed the connection".to_string()),
        Err(e) => return Err(format!("transport error: {e}")),
    };
    op.reply_bytes = reply.len() as u64;
    let resp = Response::decode(reply.into());
    let t3 = tr.now_ns();
    op.encode_ns = t1 - t0;
    op.decode_ns = t3 - t2;
    if let Some(root) = tr.record(name, None, id, t0, t3) {
        tr.record("proto.encode", Some(root), id, t0, t1);
        tr.record("wire.round_trip", Some(root), id, t1, t2);
        tr.record("proto.decode", Some(root), id, t2, t3);
    }
    match resp {
        Some(Response::Error { kind, message }) => Err(format!("server error ({kind}): {message}")),
        Some(r) => Ok(r),
        None => Err("undecodable reply".to_string()),
    }
}

/// Every instance committed and the run audited serializable; on a
/// certified workload, not a single abort.
fn check_submit(w: &Workload, s: &RunStats) -> Result<(), String> {
    let n = u64::from(w.submit_count);
    if s.instances != n || s.committed != n || s.failed != 0 {
        return Err(format!(
            "{} of {} instances committed ({} failed; {n} submitted)",
            s.committed, s.instances, s.failed
        ));
    }
    if s.serializable != Some(true) {
        return Err(format!("run audited serializable = {:?}", s.serializable));
    }
    if s.dirty_aborts != 0 {
        return Err(format!("{} dirty aborts", s.dirty_aborts));
    }
    if w.certified && s.aborted_attempts != 0 {
        return Err(format!(
            "{} aborts on a certified system",
            s.aborted_attempts
        ));
    }
    Ok(())
}

/// A whole-database cut: every entity present with an integer, Σint
/// conserved, and cuts of one reader never going back in time.
fn check_read(w: &Workload, snap: &SnapshotReply, last: &mut (u64, u128)) -> Result<(), String> {
    if snap.entries.len() != w.n_entities || snap.entries.iter().any(|e| e.value.is_none()) {
        return Err(format!(
            "cut at ts {} holds {} of {} integer entities",
            snap.ts,
            snap.entries.len(),
            w.n_entities
        ));
    }
    let sum = snap.sum_int();
    if !w.conserves(sum) {
        return Err(format!(
            "cut at ts {} sums to {sum}: not {} + {}·k",
            snap.ts, w.base_sum, w.per_commit
        ));
    }
    if snap.ts < last.0 || sum < last.1 {
        return Err(format!(
            "cut (ts {}, Σ {sum}) is older than an earlier cut (ts {}, Σ {})",
            snap.ts, last.0, last.1
        ));
    }
    *last = (snap.ts, sum);
    Ok(())
}
