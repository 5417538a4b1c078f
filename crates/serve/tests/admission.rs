//! Admission under a connection flood: the `429` path spawns at most
//! `MAX_REJECTING` threads, closes what arrives past that unanswered, and
//! the server serves normally once the flood ends.
//!
//! This suite counts the whole process's threads, so it holds one test.

#![cfg(target_os = "linux")]

mod common;

use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{start, stop};
use veribug_serve::http;
use veribug_serve::server::MAX_REJECTING;
use veribug_serve::ServerConfig;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// `serve.rejected.queue_full` + `serve.rejected.dropped` so far.
fn rejected() -> u64 {
    let snap = obs::snapshot();
    ["serve.rejected.queue_full", "serve.rejected.dropped"]
        .iter()
        .map(|name| snap.counters.get(*name).copied().unwrap_or(0))
        .sum()
}

#[test]
fn idle_flood_is_bounded_and_the_server_recovers() {
    let (handle, join) = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // Idle connections: the first holds the worker (it waits for a request
    // head), the second the queue slot.
    let worker = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    let queued = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));

    let before = rejected();
    let flood: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut peak = threads();
    while rejected() < before + 200 {
        assert!(Instant::now() < deadline, "the accept loop took the flood");
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(5));
    }
    for _ in 0..20 {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        peak < MAX_REJECTING + 32,
        "{peak} threads under a 200-connection flood (cap {MAX_REJECTING})"
    );

    drop(flood);
    drop(queued);
    drop(worker);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        // Until the flood's threads exit, a request may still be turned
        // away: answered 429, or closed unanswered past the cap.
        match http::send(addr, "GET", "/healthz", &[], b"") {
            Ok(resp) if resp.status == 200 => break,
            Ok(resp) => assert_eq!(resp.status, 429, "body: {}", resp.text()),
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "the server never recovered");
        std::thread::sleep(Duration::from_millis(20));
    }
    stop(&handle, join);
}
