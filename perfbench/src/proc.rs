//! The server under test as a child process, plus the few OS facts the
//! benchmark reads from `/proc`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// A running `reecc serve --addr` process.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn → first request answered, wall clock.
    pub setup: Duration,
    /// Server CPU seconds (all threads) spent by the time of that answer.
    pub setup_cpu_s: f64,
    stderr: Option<JoinHandle<Vec<String>>>,
}

/// The pool's own accounting, printed by the server when it drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    pub submitted: u64,
    pub answered: u64,
    pub dropped: u64,
}

impl Server {
    /// Start `reecc serve <args> --addr 127.0.0.1:0`, wait for the
    /// listening line, and time spawn → first answered request (an
    /// `epoch` probe, which touches neither the cache nor the kernels).
    pub fn start(reecc: &Path, args: &[String]) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(reecc)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", reecc.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Drains the server's stderr for its whole life, so the pipe can
        // never fill; hands the listening address over once.
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = listening_addr(&line) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                lines.push(line);
            }
            lines
        });
        let addr = match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let log = reader.join().unwrap_or_default().join("\n");
                return Err(format!("server did not start listening:\n{log}"));
            }
        };
        let mut server = Server {
            child,
            addr,
            setup: Duration::ZERO,
            setup_cpu_s: 0.0,
            stderr: Some(reader),
        };
        let reply = server.request(r#"{"op":"epoch","id":0}"#)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("probe failed: {reply}"));
        }
        server.setup = t0.elapsed();
        server.setup_cpu_s = server.cpu_seconds();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One blocking request on a fresh connection (control traffic only,
    /// never timed as load).
    pub fn request(&self, line: &str) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        s.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).map_err(|e| format!("receive: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection".to_string());
        }
        Ok(reply.trim_end().to_string())
    }

    /// Server user + system CPU seconds so far (all threads, live and
    /// exited).
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(self.pid())
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGTERM, wait for the graceful drain, and return the pool's
    /// drain accounting.
    pub fn stop(mut self) -> Result<DrainReport, String> {
        // SAFETY: `kill` has no memory-safety preconditions; the pid is
        // our own child, which has not been reaped yet.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not drain within 60 s".to_string());
                }
            }
        }
        let lines = self.stderr.take().expect("joined once").join().unwrap_or_default();
        lines
            .iter()
            .find_map(|l| parse_drain(l))
            .ok_or_else(|| format!("no drain summary in server log:\n{}", lines.join("\n")))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Error paths: never leave a server behind.
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

/// `serving <path> on 127.0.0.1:PORT (...)` → `127.0.0.1:PORT`.
fn listening_addr(line: &str) -> Option<String> {
    let rest = line.strip_prefix("serving ")?;
    let at = rest.find(" on 127.0.0.1:")?;
    let addr = rest[at + 4..].split_whitespace().next()?;
    Some(addr.to_string())
}

/// `drain: N submitted, N answered, N dropped, ...`.
fn parse_drain(line: &str) -> Option<DrainReport> {
    let rest = line.strip_prefix("drain: ")?;
    let mut report = DrainReport::default();
    for part in rest.split(", ") {
        let mut it = part.split_whitespace();
        let (Some(num), Some(what)) = (it.next(), it.next()) else { continue };
        let Ok(num) = num.parse::<u64>() else { continue };
        match what {
            "submitted" => report.submitted = num,
            "answered" => report.answered = num,
            "dropped" => report.dropped = num,
            _ => {}
        }
    }
    Some(report)
}

fn clock_ticks_per_second() -> f64 {
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// utime + stime of a process, in seconds.
pub fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks_per_second()
}

/// Host-wide steal seconds so far (summed over CPUs), from `/proc/stat`.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / clock_ticks_per_second()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_servers_lifecycle_lines() {
        let line = "serving g.txt on 127.0.0.1:40123 (1 worker(s), queue depth 256, cap 64 \
                    connection(s), tier fast)";
        assert_eq!(listening_addr(line).as_deref(), Some("127.0.0.1:40123"));
        let drain = "drain: 120 submitted, 119 answered, 1 dropped, 0 panic(s), 0 worker(s) \
                     respawned, 1.2ms elapsed";
        assert_eq!(
            parse_drain(drain),
            Some(DrainReport { submitted: 120, answered: 119, dropped: 1 })
        );
    }
}
