//! Shard-front integration: 3 live backends, requests for the same
//! design always land on the same shard, and killing a backend degrades
//! gracefully (requests re-route or fall back locally — no 5xx storm).

mod common;

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{encode, request, start, ResponseExt, BUGGY, GOLDEN};
use obs::json;
use veribug_serve::http;
use veribug_serve::{ServerConfig, ServerHandle, ShardConfig, ShardFront, ShardHandle};

/// A unique golden/buggy pair per tag, same shape as `serve_bench`.
fn localize_body(tag: usize) -> String {
    let tagged = |src: &str| encode(&format!("// design {tag}\n{src}"));
    format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":12,\"cycles\":8}}}}",
        tagged(GOLDEN),
        tagged(BUGGY)
    )
}

fn start_backend() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
}

fn start_front(
    backends: Vec<String>,
) -> (ShardHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let front = ShardFront::bind(ShardConfig {
        backends,
        health_interval: Duration::from_millis(100),
        local: ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        ..ShardConfig::default()
    })
    .expect("bind front");
    let handle = front.handle();
    let join = std::thread::spawn(move || front.run());
    (handle, join)
}

#[test]
fn three_backends_route_stably_and_survive_losing_one() {
    let mut backends = Vec::new();
    for _ in 0..3 {
        backends.push(start_backend());
    }
    let addrs: Vec<String> = backends.iter().map(|(h, _)| h.addr().to_string()).collect();
    let (front, front_join) = start_front(addrs.clone());

    // Same design → same shard, every time; different designs spread out.
    let designs = 6usize;
    let mut owner: HashMap<usize, String> = HashMap::new();
    for round in 0..3 {
        for tag in 0..designs {
            let resp = request(front.addr(), "POST", "/v1/localize", &localize_body(tag));
            assert_eq!(resp.status, 200, "round {round} tag {tag}: {}", resp.text());
            let shard = resp
                .header("x-veribug-shard")
                .expect("front names the shard")
                .to_owned();
            assert!(
                addrs.contains(&shard),
                "routed to a real backend, got {shard}"
            );
            match owner.get(&tag) {
                Some(prev) => assert_eq!(prev, &shard, "design {tag} moved shards"),
                None => {
                    owner.insert(tag, shard);
                }
            }
        }
    }
    let distinct: std::collections::HashSet<&String> = owner.values().collect();
    assert!(
        distinct.len() >= 2,
        "6 designs land on at least 2 of 3 backends, got {owner:?}"
    );

    // The front's status page sees all three as healthy.
    let status = request(front.addr(), "GET", "/statusz", "");
    let doc = json::parse(&status.text()).expect("front status is JSON");
    let healthy = doc
        .get("backends")
        .and_then(|b| b.as_arr())
        .expect("backends array")
        .iter()
        .filter(|b| b.get("healthy").and_then(|h| h.as_bool()) == Some(true))
        .count();
    assert_eq!(healthy, 3);

    // Kill one backend that owns at least one design. Every design must
    // still answer 200 — rerouted to a surviving backend or the local
    // fallback — with zero 5xx.
    let dead_addr = owner.values().next().unwrap().clone();
    let dead_idx = addrs.iter().position(|a| *a == dead_addr).unwrap();
    let (dead_handle, dead_join) = backends.remove(dead_idx);
    dead_handle.shutdown();
    dead_join
        .join()
        .expect("backend thread")
        .expect("clean exit");

    for round in 0..2 {
        for tag in 0..designs {
            let resp = request(front.addr(), "POST", "/v1/localize", &localize_body(tag));
            assert_eq!(
                resp.status,
                200,
                "round {round} tag {tag} after kill: {}",
                resp.text()
            );
            let shard = resp.header("x-veribug-shard").expect("shard header");
            assert_ne!(shard, dead_addr, "nothing routes to the dead backend");
        }
    }

    // Health checks converge on 2/3 healthy.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let status = request(front.addr(), "GET", "/statusz", "");
        let doc = json::parse(&status.text()).expect("front status is JSON");
        let healthy = doc
            .get("backends")
            .and_then(|b| b.as_arr())
            .expect("backends array")
            .iter()
            .filter(|b| b.get("healthy").and_then(|h| h.as_bool()) == Some(true))
            .count();
        if healthy == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "health thread never marked the dead backend down"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    front.shutdown();
    front_join
        .join()
        .expect("front thread")
        .expect("clean exit");
    for (handle, join) in backends {
        handle.shutdown();
        join.join().expect("backend thread").expect("clean exit");
    }
}

#[test]
fn front_with_no_live_backends_falls_back_to_local() {
    // One backend that is already gone by the time the first request
    // arrives: the ring routes to it, the forward fails, and the local
    // fallback answers.
    let (doomed, doomed_join) = start_backend();
    let doomed_addr = doomed.addr().to_string();
    doomed.shutdown();
    doomed_join
        .join()
        .expect("backend thread")
        .expect("clean exit");

    let (front, front_join) = start_front(vec![doomed_addr]);
    let resp = request(front.addr(), "POST", "/v1/localize", &localize_body(99));
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(
        resp.header("x-veribug-shard"),
        Some("local"),
        "dead fleet degrades to local execution"
    );
    front.shutdown();
    front_join
        .join()
        .expect("front thread")
        .expect("clean exit");
}

/// Starts a front with no backends (every request is answered by its local
/// fallback server) and reports `run`'s result through a channel, so a
/// lost shutdown fails the test at a `recv_timeout` instead of hanging it.
fn start_reporting_front() -> (ShardHandle, std::sync::mpsc::Receiver<std::io::Result<()>>) {
    let front = ShardFront::bind(ShardConfig {
        local: ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        ..ShardConfig::default()
    })
    .expect("bind front");
    let handle = front.handle();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(front.run());
    });
    (handle, rx)
}

/// The local fallback server's address, as the front's `/statusz` reports it.
fn local_fallback_addr(front: &ShardHandle) -> std::net::SocketAddr {
    let resp = request(front.addr(), "GET", "/statusz", "");
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.text()).expect("statusz is JSON");
    doc.get("local")
        .and_then(|v| v.as_str())
        .expect("statusz names the local fallback")
        .parse()
        .expect("local fallback address")
}

/// `run` returned in time, which means it joined the local fallback
/// server's thread; that server's listener is then closed.
fn expect_front_stopped(
    done: &std::sync::mpsc::Receiver<std::io::Result<()>>,
    local: std::net::SocketAddr,
) {
    done.recv_timeout(Duration::from_secs(5))
        .expect("front run() returned within 5 s of shutdown")
        .expect("clean exit");
    assert!(
        TcpStream::connect(local).is_err(),
        "local fallback server stopped"
    );
}

#[test]
fn handle_shutdown_stops_the_front_and_its_local_fallback() {
    let (front, done) = start_reporting_front();
    let local = local_fallback_addr(&front);
    front.shutdown();
    expect_front_stopped(&done, local);
}

#[test]
fn shutdown_endpoint_stops_the_front_and_its_local_fallback() {
    let (front, done) = start_reporting_front();
    let local = local_fallback_addr(&front);
    let resp = request(front.addr(), "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200);
    expect_front_stopped(&done, local);
}

/// The front's own errors use the backend's schema:
/// `{"error":{"status":...,"kind":...,"message":...}}`.
#[test]
fn front_errors_use_the_backend_error_schema() {
    let front = ShardFront::bind(ShardConfig {
        max_body_bytes: 256,
        local: ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        ..ShardConfig::default()
    })
    .expect("bind front");
    let handle = front.handle();
    let join = std::thread::spawn(move || front.run());

    let resp = request(handle.addr(), "POST", "/v1/localize", &"x".repeat(512));
    assert_eq!(resp.status, 413, "body: {}", resp.text());
    let doc = resp.json();
    let err = doc.get("error").expect("error object");
    assert_eq!(err.get("status").and_then(|s| s.as_num()), Some(413.0));
    assert_eq!(
        err.get("kind").and_then(|k| k.as_str()),
        Some("body_too_large")
    );

    // A malformed request line, sent raw.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let resp = http::read_response(&mut stream).expect("well-formed response");
    assert_eq!(resp.status, 400);
    let doc = resp.json();
    let err = doc.get("error").expect("error object");
    assert_eq!(
        err.get("kind").and_then(|k| k.as_str()),
        Some("bad_request")
    );

    handle.shutdown();
    join.join().expect("front thread").expect("clean exit");
}
