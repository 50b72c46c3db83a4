//! The server under test runs in a process of its own: this binary
//! started with `--serve <workload> <nproc> [--wal-dir <dir>]`. It binds
//! a `ddlf_server::Server` on loopback with the workload's configuration
//! for `nproc` CPUs (the child inherits the one-CPU affinity of the run,
//! so it is told the machine's count rather than reading its own),
//! prints `bound <addr> <bind_ns>` and serves until a `Shutdown`
//! request. The server sees only that configuration and the requests.

use crate::workload::Kind;
use ddlf_server::{Client, Server};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to exit after `Shutdown` before it is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(30);

/// Entry point of the `--serve` child.
pub fn serve_main(args: &[String]) -> i32 {
    let (kind, nproc, wal_dir) = match args {
        [name, n] => (Kind::parse(name), n.parse().ok(), None),
        [name, n, flag, dir] if flag == "--wal-dir" => {
            (Kind::parse(name), n.parse().ok(), Some(PathBuf::from(dir)))
        }
        _ => (None, None, None),
    };
    let (Some(kind), Some(nproc)) = (kind, nproc) else {
        eprintln!("usage: --serve <workload> <nproc> [--wal-dir <dir>]");
        return 2;
    };
    let cfg = kind.serve_config(nproc, wal_dir);
    let started = Instant::now();
    let server = match Server::bind("127.0.0.1:0", cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind: {e}");
            return 2;
        }
    };
    let bind_ns = started.elapsed().as_nanos();
    let mut out = std::io::stdout().lock();
    if writeln!(out, "bound {} {bind_ns}", server.local_addr())
        .and_then(|()| out.flush())
        .is_err()
    {
        return 2;
    }
    drop(out);
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

/// A running server child; killed and reaped on drop if still alive.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    pub bind_ns: u64,
}

impl ServerProc {
    pub fn spawn(
        workload: &str,
        nproc: usize,
        wal_dir: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--serve", workload, &nproc.to_string()]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|s| BufReader::new(s).read_line(&mut line));
        let parsed = match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["bound", addr, ns] => ns.parse().ok().map(|ns| (addr.to_string(), ns)),
            _ => None,
        };
        match (read, parsed) {
            (Some(Ok(_)), Some((addr, bind_ns))) => Ok(ServerProc {
                child,
                addr,
                bind_ns,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// The server process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Sends `Shutdown` and waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.addr.as_str())
            .map_err(|e| format!("connect for shutdown: {e}"))?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if started.elapsed() < EXIT_GRACE => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not exit after Shutdown".to_string()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
