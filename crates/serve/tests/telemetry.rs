//! Live-telemetry integration tests: request-ID echo on every path, the
//! acceptance guarantee that 500/504 requests are always retained in
//! `/tracez` with their full span tree, introspection requests booked as
//! span-less digests, debug pages under concurrent traffic at 1/2/8
//! workers, and ring wraparound.
//!
//! The trace ring and rolling window are process-global, so tests that
//! assert on their contents serialize on [`LOCK`].

mod common;

use std::sync::Mutex;

use common::{encode, localize_body, request_with, start, stop, ResponseExt, BUGGY, GOLDEN};
use obs::json::Json;
use veribug_serve::ServerConfig;

static LOCK: Mutex<()> = Mutex::new(());

/// Traces on the `/tracez` page whose id satisfies a predicate.
fn traces_where(doc: &Json, pred: impl Fn(&str) -> bool) -> Vec<&Json> {
    doc.get("traces")
        .and_then(|t| t.as_arr())
        .expect("traces array")
        .iter()
        .filter(|t| t.get("id").and_then(|i| i.as_str()).is_some_and(&pred))
        .collect()
}

#[test]
fn every_response_echoes_a_request_id() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, join) = start(ServerConfig::default());
    let addr = handle.addr();

    // Minted when absent — on success and on error paths alike.
    for (method, path, want) in [
        ("GET", "/healthz", 200),
        ("GET", "/nope", 404),
        ("GET", "/v1/localize", 405),
    ] {
        let resp = request_with(addr, method, path, &[], "");
        assert_eq!(resp.status, want);
        assert!(!resp.request_id().is_empty(), "{path} echoes an id");
    }

    // A well-formed client ID is honored verbatim, and error bodies carry
    // it for /tracez correlation.
    let resp = request_with(
        addr,
        "GET",
        "/nope",
        &[("x-veribug-request-id", "client-id.42")],
        "",
    );
    assert_eq!(resp.status, 404);
    assert_eq!(resp.request_id(), "client-id.42");
    assert_eq!(
        resp.json()
            .get("error")
            .unwrap()
            .get("request_id")
            .unwrap()
            .as_str(),
        Some("client-id.42")
    );

    // A malformed client ID (illegal characters) is replaced, not echoed.
    let resp = request_with(
        addr,
        "GET",
        "/healthz",
        &[("x-veribug-request-id", "bad id with spaces")],
        "",
    );
    assert_eq!(resp.status, 200);
    assert_ne!(resp.request_id(), "bad id with spaces");

    // 200 bodies stay byte-identical across requests: the ID never enters
    // them.
    let a = request_with(addr, "POST", "/v1/localize", &[], &localize_body(8, 4));
    let b = request_with(
        addr,
        "POST",
        "/v1/localize",
        &[("x-veribug-request-id", "different-id")],
        &localize_body(8, 4),
    );
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    assert_ne!(a.request_id(), b.request_id());
    assert_eq!(a.body, b.body, "request id must never enter a 200 body");

    stop(&handle, join);
}

#[test]
fn healthz_reports_build_info() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, join) = start(ServerConfig::default());
    let resp = request_with(handle.addr(), "GET", "/healthz", &[], "");
    assert_eq!(resp.status, 200);
    let doc = resp.json();
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let engines: Vec<&str> = doc
        .get("engines")
        .and_then(|v| v.as_arr())
        .expect("engines array")
        .iter()
        .filter_map(|e| e.as_str())
        .collect();
    assert_eq!(engines, ["batch"]);
    assert!(doc.get("uptime_s").and_then(|v| v.as_num()).is_some());
    stop(&handle, join);
}

#[test]
fn errored_requests_always_keep_their_span_tree() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = ServerConfig {
        debug_endpoints: true,
        ..ServerConfig::default()
    };
    let (handle, join) = start(config);
    let addr = handle.addr();

    // A handler panic -> 500, retained as an error trace with a full tree.
    let resp = request_with(
        addr,
        "GET",
        "/debugz/panic",
        &[("x-veribug-request-id", "panic-trace-1")],
        "",
    );
    assert_eq!(resp.status, 500);
    assert_eq!(resp.request_id(), "panic-trace-1");

    // A fired deadline -> 504, same guarantee.
    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":64,\"cycles\":32,\"deadline_ms\":0}}}}",
        encode(GOLDEN),
        encode(BUGGY)
    );
    let resp = request_with(
        addr,
        "POST",
        "/v1/localize",
        &[("x-veribug-request-id", "deadline-trace-1")],
        &body,
    );
    assert_eq!(resp.status, 504, "body: {}", resp.text());

    let page = request_with(addr, "GET", "/tracez?n=512", &[], "");
    assert_eq!(page.status, 200);
    obs::validate::tracez(&page.text()).expect("tracez page validates");
    let doc = page.json();
    for (id, status) in [("panic-trace-1", 500.0), ("deadline-trace-1", 504.0)] {
        let matches = traces_where(&doc, |t| t == id);
        let trace = matches.first().unwrap_or_else(|| panic!("{id} retained"));
        assert_eq!(trace.get("status").unwrap().as_num(), Some(status));
        assert_eq!(trace.get("keep").unwrap().as_str(), Some("error"));
        assert_eq!(trace.get("sampled").unwrap().as_bool(), Some(true));
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        assert!(
            spans
                .iter()
                .any(|s| { s.get("name").and_then(|n| n.as_str()) == Some("serve.request") }),
            "{id} keeps its serve.request span"
        );
    }

    // The 504 trace exports as a valid Perfetto chrome-trace.
    let export = request_with(addr, "GET", "/tracez/export?id=deadline-trace-1", &[], "");
    assert_eq!(export.status, 200, "body: {}", export.text());
    obs::validate::chrome_trace(&export.text()).expect("export validates");

    // Unknown IDs 404 with a structured error.
    let missing = request_with(addr, "GET", "/tracez/export?id=never-was", &[], "");
    assert_eq!(missing.status, 404);

    // The text rendering shows the tree too.
    let text = request_with(addr, "GET", "/tracez?n=512&fmt=text", &[], "");
    assert_eq!(text.status, 200);
    assert!(text.text().contains("panic-trace-1"));
    assert!(text.text().contains("serve.request"));

    stop(&handle, join);
}

/// Each known path answers its own method, 405 to the other of GET and
/// POST, and 404 to any other method; `/debugz/panic` answers 404 to
/// everything unless debug endpoints are on, and 404 to POST even then.
/// `/tracez` books each request under its path's label (query stripped),
/// an unknown path under `other`, and an introspection path with no span
/// tree.
#[test]
fn every_route_keeps_its_status_label_and_tracing() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for debug_endpoints in [false, true] {
        let config = ServerConfig {
            debug_endpoints,
            ..ServerConfig::default()
        };
        let (handle, join) = start(config);
        let addr = handle.addr();
        let cases = [
            ("GET", "/healthz", 200, "/healthz"),
            ("GET", "/statusz?x=1", 200, "/statusz"),
            ("POST", "/healthz", 405, "/healthz"),
            ("PUT", "/healthz", 404, "/healthz"),
            ("GET", "/v1/localize", 405, "/v1/localize"),
            ("DELETE", "/v1/localize", 404, "/v1/localize"),
            ("GET", "/v1/shutdown", 405, "/v1/shutdown"),
            ("POST", "/tracez", 405, "/tracez"),
            ("POST", "/debugz/panic", 404, "/debugz/panic"),
            ("GET", "/nope", 404, "other"),
            ("GET", "/v1/localize/x", 404, "other"),
        ];
        let off_only = [("GET", "/debugz/panic", 404, "/debugz/panic")];
        let cases = cases
            .iter()
            .chain(if debug_endpoints { &[][..] } else { &off_only });
        let mut sent = Vec::new();
        for (i, &(method, path, status, label)) in cases.enumerate() {
            let id = format!("route-{debug_endpoints}-{i}");
            let resp = request_with(addr, method, path, &[("x-veribug-request-id", &id)], "");
            assert_eq!(resp.status, status, "{method} {path}: {}", resp.text());
            sent.push((id, method, path, label));
        }
        let doc = request_with(addr, "GET", "/tracez?n=512", &[], "").json();
        for (id, method, path, label) in sent {
            let traces = traces_where(&doc, |t| t == id);
            let [t] = traces.as_slice() else {
                panic!("{method} {path} is in /tracez once: {traces:?}");
            };
            assert_eq!(t.get("path").and_then(Json::as_str), Some(label));
            if matches!(label, "/healthz" | "/statusz" | "/tracez") {
                let spans = t.get("spans").and_then(Json::as_arr).expect("spans");
                assert!(spans.is_empty(), "{method} {path} is untraced: {t:?}");
            }
        }
        stop(&handle, join);
    }
}

#[test]
fn introspection_requests_never_enter_the_slow_set() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, join) = start(ServerConfig::default());
    let addr = handle.addr();
    // More requests than the ring's 128 slots, so the ring ends up holding
    // only these. Had they span trees, the slow set could not stay empty.
    let paths = ["/healthz", "/metricsz", "/statusz", "/tracez"];
    for i in 0..130 {
        let id = format!("introspect-{i}");
        let path = paths[i % paths.len()];
        let resp = request_with(addr, "GET", path, &[("x-veribug-request-id", &id)], "");
        assert_eq!(resp.status, 200, "{path}");
    }
    let doc = request_with(addr, "GET", "/tracez?n=512", &[], "").json();
    let ours = traces_where(&doc, |t| t.starts_with("introspect-"));
    assert!(ours.len() >= 100, "only {} retained", ours.len());
    for t in ours {
        assert_eq!(
            t.get("keep").and_then(Json::as_str),
            Some("digest"),
            "{t:?}"
        );
        let spans = t.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans.is_empty(), "{t:?}");
    }
    stop(&handle, join);
}

#[test]
fn debug_pages_hold_up_under_concurrent_traffic() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [1usize, 2, 8] {
        let config = ServerConfig {
            workers,
            queue_capacity: 64,
            ..ServerConfig::default()
        };
        let (handle, join) = start(config);
        let addr = handle.addr();
        let clients: Vec<_> = (0..4)
            .map(|c| {
                std::thread::spawn(move || {
                    for i in 0..4 {
                        for path in ["/healthz", "/statusz", "/tracez?n=8", "/metricsz"] {
                            let id = format!("conc-{workers}-{c}-{i}");
                            let resp = request_with(
                                addr,
                                "GET",
                                path,
                                &[("x-veribug-request-id", id.as_str())],
                                "",
                            );
                            assert_eq!(resp.status, 200, "{path} under load");
                            assert_eq!(resp.request_id(), id);
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }

        // After the burst both pages are still coherent.
        let page = request_with(addr, "GET", "/tracez?n=512", &[], "");
        obs::validate::tracez(&page.text()).expect("tracez validates after burst");
        let page_doc = page.json();
        let conc = traces_where(&page_doc, |t| t.starts_with(&format!("conc-{workers}-")));
        assert!(
            !conc.is_empty(),
            "burst requests landed in the ring at {workers} workers"
        );

        let status = request_with(addr, "GET", "/statusz", &[], "");
        assert_eq!(status.status, 200);
        let doc = status.json();
        let endpoints = doc.get("endpoints").and_then(|e| e.as_arr()).unwrap();
        let healthz = endpoints
            .iter()
            .find(|e| e.get("path").and_then(|p| p.as_str()) == Some("/healthz"))
            .expect("healthz endpoint in the rolling window");
        assert!(healthz.get("count").unwrap().as_num().unwrap() >= 16.0);
        assert!(healthz.get("s2xx").unwrap().as_num().unwrap() >= 16.0);

        stop(&handle, join);
    }
}

#[test]
fn the_trace_ring_wraps_keeping_the_newest() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, join) = start(ServerConfig::default());
    let addr = handle.addr();
    // More requests than the ring holds (capacity 128).
    for i in 0..140 {
        let id = format!("wrap-{i:03}");
        let resp = request_with(
            addr,
            "GET",
            "/healthz",
            &[("x-veribug-request-id", id.as_str())],
            "",
        );
        assert_eq!(resp.status, 200);
    }
    let page = request_with(addr, "GET", "/tracez?n=512", &[], "");
    let doc = page.json();
    let retained = doc
        .get("ring")
        .unwrap()
        .get("retained")
        .unwrap()
        .as_num()
        .unwrap();
    assert!(retained <= 128.0, "ring is bounded, saw {retained}");
    let wraps = traces_where(&doc, |t| t.starts_with("wrap-"));
    assert_eq!(wraps.len(), 128, "exactly one ring of wrap traces retained");
    assert!(
        traces_where(&doc, |t| t == "wrap-139").len() == 1,
        "newest survives"
    );
    assert!(
        traces_where(&doc, |t| t == "wrap-000").is_empty(),
        "oldest evicted"
    );
    stop(&handle, join);
}
