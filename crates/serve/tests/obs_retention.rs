//! A server without `--obs` keeps nothing per request in the process event
//! log: a request's spans live in its live trace (and so in `/tracez`),
//! and progress lines are not recorded. The log is process-wide, so this
//! suite is a binary of its own and binds exactly one server.

mod common;

use common::{localize_body, request, request_with, start, stop, ResponseExt};
use obs::json::Json;
use veribug_serve::ServerConfig;

/// Per-request event names that must not accumulate in the log.
const PER_REQUEST: [&str; 3] = ["serve.request", "explain.resolve", "progress"];

fn logged(name: &str) -> usize {
    obs::snapshot()
        .events
        .iter()
        .filter(|e| e.name() == name)
        .count()
}

#[test]
fn served_requests_leave_no_events_in_the_process_log() {
    let (handle, join) = start(ServerConfig::default());
    let addr = handle.addr();
    let body = localize_body(16, 8);
    assert_eq!(request(addr, "POST", "/v1/localize", &body).status, 200);
    let before: Vec<usize> = PER_REQUEST.iter().map(|n| logged(n)).collect();

    for i in 0..200 {
        let id = format!("retain-{i}");
        let resp = request_with(
            addr,
            "POST",
            "/v1/localize",
            &[("x-veribug-request-id", &id)],
            &body,
        );
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    let after: Vec<usize> = PER_REQUEST.iter().map(|n| logged(n)).collect();
    assert_eq!(
        before, after,
        "events per name {PER_REQUEST:?} grew with traffic"
    );

    // The requests are still traced: the ring holds them, and a slow-set
    // trace exports its full span tree.
    let page = request(addr, "GET", "/tracez?n=512", "").json();
    let traces = page.get("traces").and_then(Json::as_arr).expect("traces");
    let ours: Vec<&Json> = traces
        .iter()
        .filter(|t| {
            t.get("id")
                .and_then(Json::as_str)
                .is_some_and(|id| id.starts_with("retain-"))
        })
        .collect();
    assert!(ours.len() >= 100, "only {} requests in /tracez", ours.len());
    let slow = ours
        .iter()
        .find(|t| t.get("keep").and_then(Json::as_str) == Some("slow"))
        .and_then(|t| t.get("id").and_then(Json::as_str))
        .expect("a localize trace in the slow set");
    let export = request(addr, "GET", &format!("/tracez/export?id={slow}"), "");
    assert_eq!(export.status, 200, "{}", export.text());
    let v = obs::validate::chrome_trace(&export.text()).expect("export validates");
    for name in ["serve.request", "explain.resolve"] {
        assert!(
            v.span_names.iter().any(|n| n == name),
            "{name} missing from {:?}",
            v.span_names
        );
    }
    stop(&handle, join);
}
