//! Open-loop load generation over loopback TCP.
//!
//! One thread drives every connection through `ppoll(2)`: it sends each
//! planned request when it falls due, whatever is still outstanding, and
//! stamps each reply on arrival. Latency is measured from the *scheduled*
//! send time, so a stalled generator or server charges the wait to every
//! request queued behind the stall; how late the generator itself ran is
//! reported separately.
//!
//! The server keeps at most one request per connection in its pool, so
//! the generator spreads requests over several connections (to the one
//! with the fewest outstanding) — the pool's queue and coalescer then see
//! the arrival process, as they would with independent clients.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::gen::Planned;
use crate::trace::Trace;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// What happened to one planned request.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Scheduled send time, ns after the stream start.
    pub due_ns: u64,
    /// Actual send time (≥ due).
    pub sent_ns: u64,
    /// Arrival of the response line; `None` if it never came.
    pub recv_ns: Option<u64>,
    /// The raw response line.
    pub line: String,
}

impl Reply {
    /// Latency from the scheduled send time in milliseconds; infinite
    /// when the reply never arrived or reports an error.
    pub fn latency_ms(&self) -> f64 {
        match self.recv_ns {
            Some(r) if self.ok() => (r - self.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }

    pub fn ok(&self) -> bool {
        self.line.starts_with(r#"{"ok":true"#)
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    outstanding: usize,
    closed: bool,
}

/// Drive `plan` against `addr` over `conns` connections, open loop.
/// Returns one [`Reply`] per planned request, in plan order. With a
/// trace, each reply is recorded as a client span as it arrives (the
/// traced run's extra work is exactly that bookkeeping).
pub fn open_loop(
    addr: &str,
    conns: usize,
    plan: &[Planned],
    mut trace: Option<&mut Trace>,
) -> Result<Vec<Reply>, String> {
    let mut pool: Vec<Conn> = (0..conns)
        .map(|_| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(Conn {
                stream,
                out: Vec::new(),
                inbuf: Vec::new(),
                outstanding: 0,
                closed: false,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut replies: Vec<Reply> =
        plan.iter().map(|p| Reply { due_ns: p.due_ns, ..Reply::default() }).collect();
    let last_due = plan.last().map_or(0, |p| p.due_ns);
    let give_up = last_due + Duration::from_secs(30).as_nanos() as u64;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut next = 0usize;
    let mut received = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    while received < plan.len() {
        let now = now_ns();
        if now > give_up {
            break;
        }
        while next < plan.len() && plan[next].due_ns <= now {
            let c = (0..pool.len()).min_by_key(|&i| pool[i].outstanding).expect("conns > 0");
            pool[c].out.extend_from_slice(plan[next].line.as_bytes());
            pool[c].out.push(b'\n');
            pool[c].outstanding += 1;
            replies[next].sent_ns = now;
            next += 1;
            flush(&mut pool[c])?;
        }
        let wait_ns = if next < plan.len() {
            plan[next].due_ns.saturating_sub(now_ns())
        } else {
            Duration::from_millis(50).as_nanos() as u64
        };
        let mut fds: Vec<PollFd> = pool
            .iter()
            .map(|c| PollFd {
                // A negative fd is skipped by the kernel.
                fd: if c.closed { -1 } else { c.stream.as_raw_fd() },
                events: if c.out.is_empty() { POLLIN } else { POLLIN | POLLOUT },
                revents: 0,
            })
            .collect();
        let ts = Timespec {
            tv_sec: (wait_ns / 1_000_000_000) as i64,
            tv_nsec: (wait_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd structs laid out as the kernel expects; the
        // timespec outlives the call and the signal mask is null (keep
        // the current mask).
        let ready = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if ready <= 0 {
            continue;
        }
        for (c, fd) in pool.iter_mut().zip(&fds) {
            if fd.revents & POLLOUT != 0 {
                flush(c)?;
            }
            if fd.revents & !POLLOUT == 0 {
                continue;
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.closed = true;
                        break;
                    }
                    Ok(k) => c.inbuf.extend_from_slice(&buf[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            let arrived = now_ns();
            let mut consumed = 0;
            while let Some(nl) = c.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8_lossy(&c.inbuf[consumed..consumed + nl]).into_owned();
                consumed += nl + 1;
                let id = reply_id(&line)
                    .filter(|&id| id < replies.len())
                    .ok_or_else(|| format!("reply without a request id: {line}"))?;
                let r = &mut replies[id];
                r.recv_ns = Some(arrived);
                if let Some(t) = trace.as_deref_mut() {
                    let origin = t.at(start);
                    t.client_request(
                        id as u64,
                        plan[id].op.name(),
                        origin + r.due_ns,
                        origin + arrived,
                        &line,
                    );
                }
                r.line = line;
                c.outstanding -= 1;
                received += 1;
            }
            c.inbuf.drain(..consumed);
            if c.closed && c.outstanding > 0 {
                return Err(
                    "server closed a load connection with requests outstanding".to_string()
                );
            }
        }
    }
    Ok(replies)
}

fn flush(c: &mut Conn) -> Result<(), String> {
    while !c.out.is_empty() {
        match c.stream.write(&c.out) {
            Ok(k) => {
                c.out.drain(..k);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// The `"id":N` field of a response line, without a full JSON parse.
pub fn reply_id(line: &str) -> Option<usize> {
    let at = line.find(r#""id":"#)? + 5;
    let digits: &str = &line[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Lateness of the generator: actual minus scheduled send, in µs.
pub fn lateness_us(replies: &[Reply]) -> Vec<f64> {
    replies.iter().map(|r| (r.sent_ns.saturating_sub(r.due_ns)) as f64 / 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Op;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A server that sits on each request for `stall` before answering,
    /// one request at a time: requests queued behind a stall must be
    /// charged the wait from their *scheduled* send time.
    #[test]
    fn latency_runs_from_the_scheduled_send_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stall = Duration::from_millis(40);
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            for line in BufReader::new(s).lines().take(3) {
                let line = line.unwrap();
                std::thread::sleep(stall);
                let id = &line[line.find("\"id\":").unwrap() + 5..line.len() - 1];
                writeln!(w, r#"{{"ok":true,"op":"ecc","id":{id}}}"#).unwrap();
            }
        });
        // Three requests due 1 ms apart: the third waits behind two stalls.
        let plan: Vec<Planned> = (0..3)
            .map(|i| Planned {
                due_ns: 1_000_000 * i as u64,
                op: Op::Ecc,
                line: format!(r#"{{"op":"ecc","v":0,"id":{i}}}"#),
            })
            .collect();
        let replies = open_loop(&addr, 1, &plan, None).unwrap();
        server.join().unwrap();
        let lat: Vec<f64> = replies.iter().map(Reply::latency_ms).collect();
        // Service of the third ends ≥ 120 ms after the first was due, and
        // it was due 2 ms in: it is charged the two stalls ahead of it.
        assert!(lat[2] >= 118.0, "{lat:?}");
        for r in &replies {
            assert!(r.sent_ns >= r.due_ns);
            let from_send = (r.recv_ns.unwrap() - r.sent_ns) as f64 / 1e6;
            assert!(r.latency_ms() >= from_send);
        }
    }

    #[test]
    fn late_sends_are_charged_to_latency() {
        // A reply stamped 5 ms after a send that itself went out 3 ms late
        // is 8 ms from the schedule.
        let r = Reply {
            due_ns: 10_000_000,
            sent_ns: 13_000_000,
            recv_ns: Some(18_000_000),
            line: r#"{"ok":true,"op":"ecc","id":0}"#.to_string(),
        };
        assert_eq!(r.latency_ms(), 8.0);
        assert_eq!(lateness_us(&[r]), vec![3000.0]);
        let failed =
            Reply { line: r#"{"ok":false,"op":"ecc","id":0}"#.to_string(), ..Reply::default() };
        assert_eq!(failed.latency_ms(), f64::INFINITY);
    }

    #[test]
    fn finds_the_reply_id() {
        assert_eq!(reply_id(r#"{"ok":true,"op":"ecc","id":42,"value":1.5}"#), Some(42));
        assert_eq!(reply_id(r#"{"ok":true,"op":"ecc"}"#), None);
    }
}
