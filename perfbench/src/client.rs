//! A plain HTTP/1.1 client and the closed-loop load generator.
//!
//! The server answers one request per connection (`Connection: close`), so
//! each request opens its own connection. Nothing is retried: a `429`, a
//! `5xx` or a transport error is one failed attempt.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A response: status (0 on a transport error) and body.
pub struct Reply {
    /// HTTP status, or 0 when the exchange failed.
    pub status: u16,
    /// The body, or the transport error's text.
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    match exchange(addr, method, path, body) {
        Ok(reply) => reply,
        Err(e) => Reply {
            status: 0,
            body: format!("transport error: {e}"),
        },
    }
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// One attempted request of the timed phase.
pub struct Sample {
    /// Index of the input sent.
    pub input: usize,
    /// Milliseconds from connect to the last response byte.
    pub ms: f64,
    /// Seconds from the loop's start to the last response byte.
    pub done_s: f64,
    /// The reply.
    pub reply: Reply,
}

/// What a closed loop did.
pub struct LoopResult {
    /// Every attempt, in completion order per connection.
    pub samples: Vec<Sample>,
    /// Seconds from the first send to the last reply.
    pub wall_s: f64,
}

/// Drives `connections` closed-loop clients for `seconds`: each sends its
/// next request only after the previous reply. The `k`-th request overall
/// posts `bodies[pick(k)]`; a `None` from `pick` ends the loop early.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    pick: &(dyn Fn(usize) -> Option<usize> + Sync),
    connections: usize,
    seconds: f64,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while started.elapsed().as_secs_f64() < seconds {
                        let Some(input) = pick(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        let t0 = Instant::now();
                        let reply = send(addr, "POST", "/v1/localize", &bodies[input]);
                        out.push(Sample {
                            input,
                            ms: t0.elapsed().as_secs_f64() * 1e3,
                            done_s: started.elapsed().as_secs_f64(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    LoopResult {
        samples,
        wall_s: started.elapsed().as_secs_f64(),
    }
}
