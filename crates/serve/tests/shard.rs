//! Shard-front integration: 3 live backends, requests for the same
//! design always land on the same shard, killing a backend degrades
//! gracefully (requests re-route or fall back locally — no 5xx storm),
//! and one request ID names a request on both hops.

mod common;

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use common::{encode, request, request_with, start, stop, ResponseExt, BUGGY, GOLDEN};
use obs::json;
use veribug_serve::http;
use veribug_serve::{Server, ServerConfig, ServerHandle};

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
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    start(ServerConfig {
        backends,
        workers: 2,
        ..ServerConfig::default()
    })
}

/// Backends the front's `/statusz` lists as healthy.
fn healthy_backends(front: std::net::SocketAddr) -> usize {
    let status = request(front, "GET", "/statusz", "");
    let doc = json::parse(&status.text()).expect("front status is JSON");
    doc.get("backends")
        .and_then(|b| b.as_arr())
        .expect("backends array")
        .iter()
        .filter(|b| b.get("healthy").and_then(|h| h.as_bool()) == Some(true))
        .count()
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
    // An even three-way ring puts all of `designs` on one backend with
    // probability 3·3^-designs: about 0.4% at 6 designs, 6·10^-6 at 12.
    let designs = 12usize;
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
        "{designs} designs land on at least 2 of 3 backends, got {owner:?}"
    );

    // The front's status page sees all three as healthy.
    assert_eq!(healthy_backends(front.addr()), 3);

    // Kill one backend that owns at least one design. Every design must
    // still answer 200 — rerouted to a surviving backend or the local
    // fallback — with zero 5xx.
    let dead_addr = owner.values().next().unwrap().clone();
    let dead_idx = addrs.iter().position(|a| *a == dead_addr).unwrap();
    let (dead_handle, dead_join) = backends.remove(dead_idx);
    stop(&dead_handle, dead_join);

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
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if healthy_backends(front.addr()) == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "health thread never marked the dead backend down"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    stop(&front, front_join);
    for (handle, join) in backends {
        stop(&handle, join);
    }
}

#[test]
fn front_with_no_live_backends_falls_back_to_local() {
    // One backend that is already gone by the time the first request
    // arrives: the ring routes to it, the forward fails, and the local
    // fallback answers.
    let (front, front_join) = start_front(vec![dead_backend()]);
    let resp = request(front.addr(), "POST", "/v1/localize", &localize_body(99));
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(
        resp.header("x-veribug-shard"),
        Some("local"),
        "dead fleet degrades to local execution"
    );
    stop(&front, front_join);
}

/// A backend that accepts connections and never answers ties up only its
/// share of the front's workers (one here): designs it owns spill to the
/// live backend or the local fallback, and every request is answered 200
/// by someone else, all but at most one of them before the stalled forward
/// gives up.
#[test]
fn a_stalled_backend_holds_only_its_share_of_the_front() {
    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind stalled backend");
    let stalled_addr = stalled.local_addr().unwrap();
    // Holds every connection open, unanswered, until the test binary exits.
    std::thread::spawn(move || stalled.incoming().flatten().collect::<Vec<_>>());
    let (live, live_join) = start_backend();
    // A forward gives up after the front's 3 s deadline plus a 2 s grace.
    let forward_wait = Duration::from_secs(5);
    let (front, front_join) = start(ServerConfig {
        backends: vec![stalled_addr.to_string(), live.addr().to_string()],
        workers: 1,
        queue_capacity: 8,
        deadline: Duration::from_secs(3),
        ..ServerConfig::default()
    });

    let clients: Vec<_> = (0..8)
        .map(|tag| {
            let addr = front.addr();
            std::thread::spawn(move || {
                let started = Instant::now();
                let resp = request(addr, "POST", "/v1/localize", &localize_body(200 + tag));
                (tag, resp, started.elapsed())
            })
        })
        .collect();
    let mut waited_out = 0;
    for client in clients {
        let (tag, resp, elapsed) = client.join().expect("client thread");
        assert_eq!(resp.status, 200, "tag {tag}: {}", resp.text());
        let shard = resp.header("x-veribug-shard").expect("shard header");
        assert_ne!(shard, stalled_addr.to_string(), "tag {tag}");
        if elapsed >= forward_wait {
            waited_out += 1;
        }
    }
    assert!(
        waited_out <= 1,
        "{waited_out} requests waited on the stalled backend; its share is 1"
    );

    stop(&front, front_join);
    stop(&live, live_join);
}

/// The address of a backend that has already stopped.
fn dead_backend() -> String {
    let (doomed, doomed_join) = start_backend();
    let addr = doomed.addr().to_string();
    stop(&doomed, doomed_join);
    addr
}

/// Starts a front whose one backend is already gone and reports `run`'s
/// result through a channel, so a lost shutdown fails the test at a
/// `recv_timeout` instead of hanging it.
fn start_reporting_front() -> (ServerHandle, std::sync::mpsc::Receiver<std::io::Result<()>>) {
    let front = Server::bind(ServerConfig {
        backends: vec![dead_backend()],
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind front");
    let handle = front.handle();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(front.run());
    });
    (handle, rx)
}

/// `run` returned in time, and the front's own listener is closed.
fn expect_front_stopped(
    done: &std::sync::mpsc::Receiver<std::io::Result<()>>,
    front: std::net::SocketAddr,
) {
    done.recv_timeout(Duration::from_secs(5))
        .expect("front run() returned within 5 s of shutdown")
        .expect("clean exit");
    assert!(
        TcpStream::connect(front).is_err(),
        "front address refuses connections"
    );
}

#[test]
fn handle_shutdown_stops_the_front_and_its_local_fallback() {
    let (front, done) = start_reporting_front();
    front.shutdown();
    expect_front_stopped(&done, front.addr());
}

#[test]
fn shutdown_endpoint_stops_the_front_and_its_local_fallback() {
    let (front, done) = start_reporting_front();
    let resp = request(front.addr(), "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200);
    expect_front_stopped(&done, front.addr());
}

/// The front's own errors use the backend's schema:
/// `{"error":{"status":...,"kind":...,"message":...}}`.
#[test]
fn front_errors_use_the_backend_error_schema() {
    let (backend, backend_join) = start_backend();
    let (handle, join) = start(ServerConfig {
        backends: vec![backend.addr().to_string()],
        workers: 1,
        max_body_bytes: 256,
        ..ServerConfig::default()
    });

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

    stop(&handle, join);
    stop(&backend, backend_join);
}

/// Traces on a `/tracez` page under request ID `id`.
fn traces_with_id(addr: std::net::SocketAddr, id: &str) -> usize {
    let page = request(addr, "GET", "/tracez?n=64", "");
    assert_eq!(page.status, 200);
    page.json()
        .get("traces")
        .and_then(|t| t.as_arr())
        .expect("traces array")
        .iter()
        .filter(|t| t.get("id").and_then(|i| i.as_str()) == Some(id))
        .count()
}

/// The front forwards its own request ID, minted or the client's, so one ID
/// names the request on both hops. Both servers share this process's trace
/// ring, so the backend's `/tracez` lists the ID twice: once for the
/// front's hop and once for the backend's.
#[test]
fn one_request_id_names_both_hops() {
    let (backend, backend_join) = start_backend();
    let (front, front_join) = start_front(vec![backend.addr().to_string()]);
    for client_id in [None, Some("client-hop-id.7")] {
        let headers: Vec<(&str, &str)> = client_id
            .map(|id| vec![("x-veribug-request-id", id)])
            .unwrap_or_default();
        let resp = request_with(
            front.addr(),
            "POST",
            "/v1/localize",
            &headers,
            &localize_body(7),
        );
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        assert_eq!(
            resp.header("x-veribug-shard"),
            Some(backend.addr().to_string().as_str())
        );
        let rid = resp.request_id().to_owned();
        if let Some(id) = client_id {
            assert_eq!(rid, id, "the client's ID is echoed");
        }
        // A trace lands in the ring just after its response is written.
        let deadline = Instant::now() + Duration::from_secs(5);
        while traces_with_id(backend.addr(), &rid) < 2 {
            assert!(Instant::now() < deadline, "no backend trace under {rid}");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(traces_with_id(backend.addr(), &rid), 2, "one trace per hop");
    }
    stop(&front, front_join);
    stop(&backend, backend_join);
}
