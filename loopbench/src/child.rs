//! The server under test: the shipped `ontoaccess-cli` binary as a child
//! process, observed from outside (`/proc`, its data directory, HTTP).

use crate::json::Json;
use fixtures::http_probe::{ProbeConn, ProbeResponse};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};

/// Kernel clock ticks per second. Linux reports process times in
/// `USER_HZ`, which is 100 on every architecture this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// Pids of live children, so the watchdog can kill them before it
/// exits the process.
pub type LiveChildren = Arc<Mutex<Vec<u32>>>;

/// Find the checkout root (the directory holding `loopbench/`): the
/// working directory when the benchmark is run as documented, otherwise
/// the place the crate was built from.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("loopbench/Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the crate lives one level below the repo root")
        .to_path_buf()
}

/// Build the server binary from the checkout's sources and return its
/// path. A no-op build costs ~0.2 s and guarantees the binary matches
/// the sources; it honours `CARGO_TARGET_DIR` like the `cargo run` that
/// started the benchmark.
pub fn build_server_binary(root: &Path) -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => cwd.join(dir),
        None => root.join("target"),
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "ontoaccess-cli",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building ontoaccess-cli in {} failed",
            root.display()
        ));
    }
    let binary = target_dir.join("release/ontoaccess-cli");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

/// One running server.
pub struct Server {
    child: Child,
    // Kept open so a late write of the child cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    live: LiveChildren,
}

impl Server {
    /// Start the server on `data_dir` and wait until it prints its
    /// bound address. On a fresh directory the base state is
    /// `--populate publications --seed seed`; on an existing one the
    /// server recovers what the directory holds.
    pub fn spawn(
        binary: &Path,
        data_dir: &Path,
        publications: usize,
        seed: u64,
        live: &LiveChildren,
    ) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["--populate", &publications.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--serve", "127.0.0.1:0"])
            .args(["--workers", &crate::spec::WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        live.lock().expect("no holder panics").push(child.id());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the server exited before it bound an address".into());
                }
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("listening on http://")
                .and_then(|rest| rest.strip_suffix('/'))
            {
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("{addr}: {e}"))?;
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            live: Arc::clone(live),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<ProbeConn, String> {
        ProbeConn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// CPU time the server has used so far (user + system), seconds.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds_of(&self.pid().to_string())
    }

    /// Resident set of the server, MB.
    pub fn rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
                line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }

    /// `kill -9` and reap (what dropping the server does).
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id();
        if let Ok(mut live) = self.live.lock() {
            live.retain(|p| *p != pid);
        }
    }
}

/// CPU seconds (utime + stime) of `/proc/<who>/stat`; `who` is a pid or
/// `self`.
pub fn cpu_seconds_of(who: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{who}/stat"))
        .ok()
        .and_then(|stat| {
            // The command name may hold spaces; fields count from the
            // closing parenthesis. utime and stime are fields 14 and 15.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_ascii_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(f64::NAN)
}

/// `GET path` on an open connection.
pub fn get(conn: &mut ProbeConn, path: &str) -> Result<ProbeResponse, String> {
    conn.send(&format!("GET {path} HTTP/1.1\r\nHost: loopbench\r\n\r\n"))
        .map_err(|e| format!("GET {path}: {e}"))
}

/// The server's `/status` document.
pub fn status(conn: &mut ProbeConn) -> Result<Json, String> {
    let response = get(conn, "/status")?;
    if response.status != 200 {
        return Err(format!("/status answered {}", response.status));
    }
    Json::parse(&response.text())
}

/// The server's `/metrics` exposition.
pub fn metrics(conn: &mut ProbeConn) -> Result<String, String> {
    Ok(get(conn, "/metrics")?.text())
}

/// Sum and count of one histogram series of a `/metrics` exposition,
/// selected by name plus label set (e.g.
/// `ontoaccess_http_request_seconds` and `{endpoint="/sparql"}`).
pub fn histogram(text: &str, name: &str, labels: &str) -> Result<(f64, f64), String> {
    let sample = |suffix: &str| {
        let series = format!("{name}{suffix}{labels} ");
        text.lines()
            .find_map(|line| line.strip_prefix(series.as_str()))
            .and_then(|value| value.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("/metrics has no series {series}"))
    };
    Ok((sample("_sum")?, sample("_count")?))
}

/// File system type the directory lives on (longest mount-point match).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}
