//! Localhost integration tests for `veribug-serve`, covering every
//! acceptance case: happy path (same ranking as the CLI pipeline),
//! malformed JSON → 400, Verilog parse error → 422 with line/col,
//! queue-full → 429, deadline → 504, cache hits (asserted via obs
//! counters), and graceful shutdown draining in-flight work.

mod common;

use std::net::TcpStream;
use std::time::Duration;

use common::{encode, localize_body, request, start, stop, ResponseExt, BUGGY, GOLDEN};
use veribug_serve::{Server, ServerConfig};

#[test]
fn localize_matches_the_library_pipeline() {
    let (handle, join) = start(ServerConfig::default());
    let resp = request(handle.addr(), "POST", "/v1/localize", &localize_body(24, 8));
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = resp.json();
    assert_eq!(doc.get("module").unwrap().as_str(), Some("m"));
    assert_eq!(doc.get("total_runs").unwrap().as_num(), Some(24.0));
    assert!(doc.get("failing_runs").unwrap().as_num().unwrap() > 0.0);

    // The exact pipeline the CLI runs, on the same inputs.
    let model = veribug::model::VeriBugModel::new(veribug::model::ModelConfig::default());
    let golden = verilog::parse(GOLDEN).unwrap().top().clone();
    let buggy = verilog::parse(BUGGY).unwrap().top().clone();
    let opts = veribug::LocalizeOptions {
        runs: 24,
        cycles: 8,
        ..Default::default()
    };
    let report = veribug::localize::run(&model, &golden, &buggy, "y", &opts).unwrap();
    let served = doc.get("suspects").unwrap().as_arr().unwrap();
    assert_eq!(served.len(), report.suspects.len());
    for (s, expect) in served.iter().zip(&report.suspects) {
        assert_eq!(
            s.get("stmt").unwrap().as_str(),
            Some(&*expect.stmt.to_string())
        );
        assert_eq!(
            s.get("source").unwrap().as_str(),
            Some(expect.source.as_str())
        );
        let sus = s.get("suspiciousness").unwrap().as_num().unwrap();
        assert!((sus - f64::from(expect.suspiciousness)).abs() < 1e-5);
    }
    assert_eq!(
        doc.get("failing_runs")
            .unwrap()
            .as_num()
            .map(|n| n as usize),
        Some(report.failing_runs),
    );

    // The server's localize path runs the two-pass trace-elision flow:
    // the verdict screen must actually have executed (and elided records)
    // inside this server process, not just in the library comparison run.
    let metrics = request(handle.addr(), "GET", "/metricsz", "");
    assert_eq!(metrics.status, 200);
    let counters = metrics.json();
    let counters = counters.get("counters").unwrap();
    let verdict_runs = counters
        .get("sim.runs_verdict")
        .expect("verdict-mode run counter exported")
        .as_num()
        .unwrap();
    assert!(
        verdict_runs >= 2.0,
        "expected golden + buggy verdict screens, saw {verdict_runs}"
    );
    let elided = counters
        .get("sim.records_elided")
        .expect("elision counter exported")
        .as_num()
        .unwrap();
    assert!(elided > 0.0, "verdict mode must elide execution records");
    stop(&handle, join);
}

#[test]
fn malformed_json_is_400() {
    let (handle, join) = start(ServerConfig::default());
    let resp = request(handle.addr(), "POST", "/v1/localize", "{not json at all");
    assert_eq!(resp.status, 400);
    let doc = resp.json();
    assert_eq!(
        doc.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("bad_json")
    );
    stop(&handle, join);
}

#[test]
fn verilog_parse_error_is_422_with_position() {
    let (handle, join) = start(ServerConfig::default());
    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\"}}",
        encode("module m(input a, output y);\nassign y = ;\nendmodule"),
        encode(BUGGY)
    );
    let resp = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.text());
    let doc = resp.json();
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("verilog_parse"));
    assert_eq!(err.get("line").unwrap().as_num(), Some(2.0), "1-based line");
    assert!(
        err.get("col").unwrap().as_num().unwrap() >= 1.0,
        "1-based col"
    );
    stop(&handle, join);
}

/// The server's `serve.panics` count, read from `/metricsz` (absent
/// until the first panic).
fn panics(addr: std::net::SocketAddr) -> f64 {
    let doc = request(addr, "GET", "/metricsz", "").json();
    let counters = doc.get("counters").expect("counters");
    counters
        .get("serve.panics")
        .and_then(|c| c.as_num())
        .unwrap_or(0.0)
}

#[test]
fn inverted_part_select_is_422_elaboration_not_a_panic() {
    let (handle, join) = start(ServerConfig::default());
    let before = panics(handle.addr());
    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\"}}",
        encode("module m(input [3:0] a, output [3:0] y);\nassign y = a[3:0];\nendmodule"),
        encode("module m(input [3:0] a, output [3:0] y);\nassign y = a[0:3];\nendmodule"),
    );
    let resp = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.text());
    let doc = resp.json();
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("elaboration"));
    let message = err.get("message").unwrap().as_str().unwrap();
    assert!(
        message.contains("inverted part select `a[0:3]` at 2:12"),
        "{message}"
    );
    assert_eq!(panics(handle.addr()), before);
    stop(&handle, join);
}

#[test]
fn unknown_target_is_422() {
    let (handle, join) = start(ServerConfig::default());
    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"nope\"}}",
        encode(GOLDEN),
        encode(BUGGY)
    );
    let resp = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(resp.status, 422);
    assert_eq!(
        resp.json()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("unknown_target")
    );
    stop(&handle, join);
}

#[test]
fn oversized_body_is_413_and_queue_full_is_429() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        max_body_bytes: 256,
        ..ServerConfig::default()
    };
    let (handle, join) = start(config);

    // 413: declared body over the cap. Even this early-rejection path
    // echoes a request ID.
    let resp = request(handle.addr(), "POST", "/v1/localize", &"x".repeat(512));
    assert_eq!(resp.status, 413);
    assert!(resp.header("x-veribug-request-id").is_some());

    // 429: hold the single worker and the single queue slot with idle
    // connections (the worker blocks reading them), then a real request
    // must be rejected by the accept loop.
    let idle1 = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // worker picks up idle1
    let idle2 = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // idle2 sits in the queue
    let resp = request(handle.addr(), "GET", "/healthz", "");
    assert_eq!(resp.status, 429, "body: {}", resp.text());
    assert!(
        resp.header("x-veribug-request-id").is_some(),
        "backpressure rejections echo a request id too"
    );
    let doc = resp.json();
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("kind").unwrap().as_str(), Some("queue_full"));
    assert!(err.get("request_id").unwrap().as_str().is_some());
    drop(idle1);
    drop(idle2);
    stop(&handle, join);
}

#[test]
fn expired_deadline_is_504() {
    let (handle, join) = start(ServerConfig::default());
    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":64,\"cycles\":32,\"deadline_ms\":0}}}}",
        encode(GOLDEN),
        encode(BUGGY)
    );
    let resp = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(resp.status, 504, "body: {}", resp.text());
    assert_eq!(
        resp.json()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("deadline")
    );
    stop(&handle, join);
}

#[test]
fn repeat_request_hits_the_cache_and_stays_byte_identical() {
    let (handle, join) = start(ServerConfig::default());
    // Unique sources for this test so other tests' cache traffic cannot
    // interfere with the hit/miss assertions.
    let golden = format!("// cache-test\n{GOLDEN}");
    let buggy = format!("// cache-test\n{BUGGY}");
    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":16,\"cycles\":8}}}}",
        encode(&golden),
        encode(&buggy)
    );
    let cold = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(cold.status, 200);
    assert_eq!(
        cold.header("x-veribug-cache"),
        Some("golden=miss,buggy=miss")
    );
    assert_eq!(cold.header("x-veribug-explainer"), Some("miss"));
    let warm = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-veribug-cache"), Some("golden=hit,buggy=hit"));
    assert_eq!(warm.header("x-veribug-explainer"), Some("hit"));
    assert_eq!(
        cold.body, warm.body,
        "cache state never leaks into the body"
    );

    // The obs counters saw the hits (counters are process-global, so
    // assert presence and a sane magnitude rather than an exact value).
    let metrics = request(handle.addr(), "GET", "/metricsz", "");
    assert_eq!(metrics.status, 200);
    let doc = metrics.json();
    let hits = doc
        .get("counters")
        .unwrap()
        .get("serve.cache.hits")
        .expect("hit counter exported")
        .as_num()
        .unwrap();
    assert!(hits >= 2.0, "expected >= 2 cache hits, saw {hits}");
    stop(&handle, join);
}

#[test]
fn healthz_and_metricsz_respond() {
    let (handle, join) = start(ServerConfig::default());
    let health = request(handle.addr(), "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    let doc = health.json();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    assert!(doc.get("workers").unwrap().as_num().unwrap() >= 1.0);
    let hash = doc
        .get("weights_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(hash.len(), 16, "weights hash is 16 hex chars: {hash}");
    assert!(hash.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(
        doc.get("model_format").unwrap().as_str(),
        Some(veribug::persist::format_version())
    );

    let metrics = request(handle.addr(), "GET", "/metricsz", "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.json().get("counters").is_some());

    let missing = request(handle.addr(), "GET", "/nope", "");
    assert_eq!(missing.status, 404);
    let wrong_method = request(handle.addr(), "GET", "/v1/localize", "");
    assert_eq!(wrong_method.status, 405);
    stop(&handle, join);
}

#[test]
fn analyze_summarizes_the_design() {
    let (handle, join) = start(ServerConfig::default());
    let body = format!("{{\"design\":{},\"target\":\"y\"}}", encode(GOLDEN));
    let resp = request(handle.addr(), "POST", "/v1/analyze", &body);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = resp.json();
    assert_eq!(doc.get("module").unwrap().as_str(), Some("m"));
    let dep: Vec<&str> = doc
        .get("dep")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(|d| d.as_str())
        .collect();
    assert!(dep.contains(&"a") && dep.contains(&"b") && dep.contains(&"c"));
    assert!(doc.get("statements").unwrap().as_num().unwrap() >= 2.0);
    stop(&handle, join);
}

#[test]
fn shutdown_endpoint_drains_in_flight_requests() {
    let (handle, join) = start(ServerConfig::default());
    let addr = handle.addr();
    // A request heavy enough to still be running when shutdown lands.
    let slow =
        std::thread::spawn(move || request(addr, "POST", "/v1/localize", &localize_body(192, 32)));
    std::thread::sleep(Duration::from_millis(30));
    let resp = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.json().get("status").unwrap().as_str(),
        Some("draining")
    );
    // The in-flight localize completes with a real answer...
    let slow_resp = slow.join().expect("slow request thread");
    assert_eq!(slow_resp.status, 200, "in-flight request was drained");
    // ...and the listener actually exits.
    join.join().expect("server thread").expect("clean exit");
    // New connections are refused once the listener is gone.
    std::thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect(addr).is_err(), "listener closed");
}

/// A `/v1/localize` body over `golden`/`buggy` with the given `options`
/// fields.
fn memo_body(golden: &str, buggy: &str, target: &str, options: &str) -> String {
    format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"{target}\",\"options\":{{{options}}}}}",
        encode(golden),
        encode(buggy)
    )
}

/// The 200 body a server that never saw any other request gives `body`.
fn fresh_server_body(body: &str) -> Vec<u8> {
    let (handle, join) = start(ServerConfig::default());
    let resp = request(handle.addr(), "POST", "/v1/localize", body);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.header("x-veribug-golden-ref"), Some("miss"));
    stop(&handle, join);
    resp.body
}

/// Eight clients post two design pairs at once to a two-worker server, so
/// requests queue and race on the cold design cache and golden memo. Every
/// answer must be a 200 whose body equals a sequential request's for the
/// same pair.
#[test]
fn concurrent_identical_requests_return_identical_bodies() {
    let (handle, join) = start(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // Unique sources so other tests' traffic cannot warm these entries.
    let bodies: Vec<String> = (0..2)
        .map(|d| {
            let golden = format!("// concurrent-test {d}\n{GOLDEN}");
            let buggy = format!("// concurrent-test {d}\n{BUGGY}");
            memo_body(&golden, &buggy, "y", "\"runs\":16,\"cycles\":8")
        })
        .collect();
    let clients = 8;
    let start_line = std::sync::Arc::new(std::sync::Barrier::new(clients));
    let (tx, rx) = std::sync::mpsc::channel();
    let threads: Vec<_> = (0..clients)
        .map(|i| {
            let (tx, start_line) = (tx.clone(), std::sync::Arc::clone(&start_line));
            let body = bodies[i % 2].clone();
            std::thread::spawn(move || {
                start_line.wait();
                let resp = request(addr, "POST", "/v1/localize", &body);
                tx.send((i % 2, resp.status, resp.body))
                    .expect("receiver alive");
            })
        })
        .collect();
    drop(tx);
    let answers: Vec<_> = (0..clients)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("every client answered within 60 s")
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    stop(&handle, join);
    let sequential: Vec<Vec<u8>> = bodies.iter().map(|b| fresh_server_body(b)).collect();
    for (pair, status, body) in answers {
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
        assert_eq!(body, sequential[pair], "pair {pair}");
    }
}

/// GOLDEN → BUGGY at `y` through `cache`'s golden-reference and explainer
/// memos, calling `while_checked_out` while the explainer state is out of
/// the cache: the rendered body and whether the explainer was a memo hit.
fn localize_through_memos(
    cache: &veribug_serve::DesignCache,
    model: &veribug::VeriBugModel,
    opts: &veribug::LocalizeOptions,
    while_checked_out: impl FnOnce(),
) -> (String, bool) {
    let mut golden = cache.get(GOLDEN).unwrap();
    let mut buggy = cache.get(BUGGY).unwrap();
    let cancel = sim::CancelToken::inert();
    let (reference, _) = cache
        .golden_ref(GOLDEN, &veribug::GoldenKey::new("y", opts), || {
            veribug::GoldenRef::build(&mut golden.sim, "y", opts, &cancel)
        })
        .unwrap();
    let weights = veribug::persist::content_hash_hex(model);
    let build = || veribug::ExplainerState::new(&buggy.module, "y");
    let (report, hit) = cache.explainer(BUGGY, "y", &weights, build, |explainer| {
        while_checked_out();
        veribug::localize::run_with_sims(
            model,
            &reference,
            &mut buggy.sim,
            explainer,
            "y",
            opts,
            &cancel,
        )
    });
    (veribug_serve::api::render_report(&report.unwrap()), hit)
}

/// Identical requests that collide on the explainer checkout: while one
/// holds the memoized state, another builds its own. Every answer must
/// equal a fresh localization's, byte for byte.
#[test]
fn concurrent_explainer_checkouts_return_identical_bodies() {
    // In process, the collision is forced: a second localization runs
    // while the first holds the state.
    let model = veribug::VeriBugModel::new(veribug::ModelConfig::default());
    let opts = veribug::LocalizeOptions {
        runs: 24,
        cycles: 8,
        ..Default::default()
    };
    let expected = {
        let golden = verilog::parse(GOLDEN).unwrap().top().clone();
        let buggy = verilog::parse(BUGGY).unwrap().top().clone();
        let report = veribug::localize::run(&model, &golden, &buggy, "y", &opts).unwrap();
        veribug_serve::api::render_report(&report)
    };
    let cache = veribug_serve::DesignCache::new(4);
    assert_eq!(
        localize_through_memos(&cache, &model, &opts, || {}),
        (expected.clone(), false)
    );
    let outer = localize_through_memos(&cache, &model, &opts, || {
        let inner = localize_through_memos(&cache, &model, &opts, || {});
        assert_eq!(
            inner,
            (expected.clone(), false),
            "a checked-out state is not shared"
        );
    });
    assert_eq!(outer, (expected.clone(), true));
    assert_eq!(cache.explainers(BUGGY), 1);
    assert_eq!(
        localize_through_memos(&cache, &model, &opts, || {}),
        (expected, true)
    );

    // Over HTTP, with a warm memo: eight clients at once on two workers.
    let (handle, join) = start(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let golden = format!("// explainer-checkout-test\n{GOLDEN}");
    let buggy = format!("// explainer-checkout-test\n{BUGGY}");
    let body = memo_body(&golden, &buggy, "y", "\"runs\":16,\"cycles\":8");
    let warm_up = request(addr, "POST", "/v1/localize", &body);
    assert_eq!(warm_up.status, 200, "body: {}", warm_up.text());
    assert_eq!(warm_up.header("x-veribug-explainer"), Some("miss"));
    let clients = 8;
    let start_line = std::sync::Arc::new(std::sync::Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let (body, start_line) = (body.clone(), std::sync::Arc::clone(&start_line));
            std::thread::spawn(move || {
                start_line.wait();
                request(addr, "POST", "/v1/localize", &body)
            })
        })
        .collect();
    let answers: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    stop(&handle, join);
    let fresh = fresh_server_body(&body);
    assert_eq!(warm_up.body, fresh);
    let mut hits = 0;
    for resp in &answers {
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        assert_eq!(resp.body, fresh, "a concurrent answer differs");
        match resp.header("x-veribug-explainer") {
            Some("hit") => hits += 1,
            Some("miss") => {}
            other => panic!("x-veribug-explainer: {other:?}"),
        }
    }
    assert!(hits >= 1, "the first checkout after warm-up hits");
}

#[test]
fn golden_memo_misses_on_every_key_field_and_matches_a_fresh_server() {
    let (handle, join) = start(ServerConfig::default());
    // Unique sources so other tests' traffic cannot touch this entry.
    let golden = format!("// memo-key-test\n{GOLDEN}");
    let buggy = format!("// memo-key-test\n{BUGGY}");
    let base = "\"runs\":16,\"cycles\":8,\"stim_seed\":5,\"hold_probability\":0.8";
    let body = memo_body(&golden, &buggy, "y", base);
    let cold = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(cold.status, 200, "body: {}", cold.text());
    assert_eq!(cold.header("x-veribug-golden-ref"), Some("miss"));
    let warm = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(warm.header("x-veribug-golden-ref"), Some("hit"));
    assert_eq!(cold.body, warm.body, "a memo hit answers byte-identically");
    // Explanation-only options reuse the reference.
    let threshold = memo_body(&golden, &buggy, "y", &format!("{base},\"threshold\":0.5"));
    let resp = request(handle.addr(), "POST", "/v1/localize", &threshold);
    assert_eq!(resp.header("x-veribug-golden-ref"), Some("hit"));
    assert_eq!(resp.body, fresh_server_body(&threshold));

    // Changing any one key field misses, and answers what a fresh server
    // answers.
    let variants = [
        memo_body(&golden, &buggy, "t", base),
        memo_body(
            &golden,
            &buggy,
            "y",
            &base.replace("\"stim_seed\":5", "\"stim_seed\":6"),
        ),
        memo_body(
            &golden,
            &buggy,
            "y",
            &base.replace("\"runs\":16", "\"runs\":17"),
        ),
        memo_body(
            &golden,
            &buggy,
            "y",
            &base.replace("\"cycles\":8", "\"cycles\":9"),
        ),
        memo_body(&golden, &buggy, "y", &base.replace("0.8", "0.5")),
    ];
    for variant in &variants {
        let resp = request(handle.addr(), "POST", "/v1/localize", variant);
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        assert_eq!(
            resp.header("x-veribug-golden-ref"),
            Some("miss"),
            "{variant}"
        );
        assert_eq!(resp.body, fresh_server_body(variant), "{variant}");
    }
    stop(&handle, join);
}

#[test]
fn golden_memo_is_bounded_per_design() {
    use veribug_serve::cache::GOLDEN_REFS_PER_DESIGN;
    let (handle, join) = start(ServerConfig::default());
    let golden = format!("// memo-bound-test\n{GOLDEN}");
    let buggy = format!("// memo-bound-test\n{BUGGY}");
    let seeded = |seed: usize| {
        memo_body(
            &golden,
            &buggy,
            "y",
            &format!("\"runs\":8,\"cycles\":4,\"stim_seed\":{seed}"),
        )
    };
    let memo = |seed: usize| {
        let resp = request(handle.addr(), "POST", "/v1/localize", &seeded(seed));
        assert_eq!(resp.status, 200, "body: {}", resp.text());
        resp.header("x-veribug-golden-ref").map(str::to_owned)
    };
    // One more key than the bound: the first one is evicted.
    for seed in 0..=GOLDEN_REFS_PER_DESIGN {
        assert_eq!(memo(seed).as_deref(), Some("miss"));
    }
    for seed in 1..=GOLDEN_REFS_PER_DESIGN {
        assert_eq!(memo(seed).as_deref(), Some("hit"), "seed {seed}");
    }
    assert_eq!(
        memo(0).as_deref(),
        Some("miss"),
        "the oldest key was evicted"
    );
    stop(&handle, join);

    // The same bound on the cache itself.
    let cache = veribug_serve::DesignCache::new(4);
    let mut design = cache.get(&golden).unwrap();
    for seed in 0..2 * GOLDEN_REFS_PER_DESIGN as u64 {
        let opts = veribug::LocalizeOptions {
            runs: 4,
            cycles: 4,
            stim_seed: seed,
            ..Default::default()
        };
        let key = veribug::GoldenKey::new("y", &opts);
        let (_, hit) = cache
            .golden_ref(&golden, &key, || {
                veribug::GoldenRef::build(&mut design.sim, "y", &opts, &sim::CancelToken::inert())
            })
            .unwrap();
        assert!(!hit);
        assert!(cache.golden_refs(&golden) <= GOLDEN_REFS_PER_DESIGN);
    }
    assert_eq!(cache.golden_refs(&golden), GOLDEN_REFS_PER_DESIGN);
}

#[test]
fn expired_deadline_leaves_no_golden_memo_entry() {
    let (handle, join) = start(ServerConfig::default());
    let golden = format!("// memo-deadline-test\n{GOLDEN}");
    let buggy = format!("// memo-deadline-test\n{BUGGY}");
    let opts = "\"runs\":64,\"cycles\":32";
    let expired = memo_body(&golden, &buggy, "y", &format!("{opts},\"deadline_ms\":0"));
    let resp = request(handle.addr(), "POST", "/v1/localize", &expired);
    assert_eq!(resp.status, 504, "body: {}", resp.text());
    assert_eq!(resp.header("x-veribug-golden-ref"), Some("miss"));
    // The cancelled build was not memoized: the next identical request
    // builds again and answers what a fresh server answers.
    let body = memo_body(&golden, &buggy, "y", opts);
    let resp = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    assert_eq!(resp.header("x-veribug-golden-ref"), Some("miss"));
    assert_eq!(resp.body, fresh_server_body(&body));
    let again = request(handle.addr(), "POST", "/v1/localize", &body);
    assert_eq!(again.header("x-veribug-golden-ref"), Some("hit"));
    assert_eq!(again.body, resp.body);
    stop(&handle, join);

    // On the cache itself: a failed build leaves nothing behind.
    let cache = veribug_serve::DesignCache::new(4);
    let mut design = cache.get(&golden).unwrap();
    let defaults = veribug::LocalizeOptions::default();
    let key = veribug::GoldenKey::new("y", &defaults);
    let expired = sim::CancelToken::with_deadline(std::time::Instant::now());
    let err = cache
        .golden_ref(&golden, &key, || {
            veribug::GoldenRef::build(&mut design.sim, "y", &defaults, &expired)
        })
        .unwrap_err();
    assert!(matches!(
        err,
        veribug::VeriBugError::Sim(sim::SimError::Cancelled { .. })
    ));
    assert_eq!(cache.golden_refs(&golden), 0);
}

#[test]
fn golden_memo_hit_and_miss_bodies_match_at_any_thread_count() {
    // 160 runs fan out over three lane groups.
    let opts = veribug::LocalizeOptions {
        runs: 160,
        cycles: 8,
        ..Default::default()
    };
    let model = veribug::model::VeriBugModel::new(veribug::model::ModelConfig::default());
    let expected = {
        let golden = verilog::parse(GOLDEN).unwrap().top().clone();
        let buggy = verilog::parse(BUGGY).unwrap().top().clone();
        let report = veribug::localize::run(&model, &golden, &buggy, "y", &opts).unwrap();
        veribug_serve::api::render_report(&report)
    };
    let key = veribug::GoldenKey::new("y", &opts);
    let weights = veribug::persist::content_hash_hex(&model);
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            let cache = veribug_serve::DesignCache::new(4);
            for expect_hit in [false, true] {
                let mut golden = cache.get(GOLDEN).unwrap();
                let mut buggy = cache.get(BUGGY).unwrap();
                let cancel = sim::CancelToken::inert();
                let (reference, hit) = cache
                    .golden_ref(GOLDEN, &key, || {
                        veribug::GoldenRef::build(&mut golden.sim, "y", &opts, &cancel)
                    })
                    .unwrap();
                assert_eq!(hit, expect_hit);
                let (report, explainer_hit) = cache.explainer(
                    BUGGY,
                    "y",
                    &weights,
                    || veribug::ExplainerState::new(&buggy.module, "y"),
                    |explainer| {
                        veribug::localize::run_with_sims(
                            &model,
                            &reference,
                            &mut buggy.sim,
                            explainer,
                            "y",
                            &opts,
                            &cancel,
                        )
                    },
                );
                assert_eq!(explainer_hit, expect_hit);
                assert_eq!(
                    veribug_serve::api::render_report(&report.unwrap()),
                    expected,
                    "threads {threads}, memo hit {hit}"
                );
            }
        });
    }
}

/// Runs `server` on its own thread and reports `run`'s result through a
/// channel, so a shutdown that never reaches the accept loop fails the
/// test at a `recv_timeout` instead of hanging it.
fn run_reporting(server: Server) -> std::sync::mpsc::Receiver<std::io::Result<()>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    rx
}

fn expect_stopped(done: &std::sync::mpsc::Receiver<std::io::Result<()>>) {
    done.recv_timeout(Duration::from_secs(5))
        .expect("run() returned within 5 s of shutdown")
        .expect("clean exit");
}

fn bind_unspecified() -> Server {
    Server::bind(ServerConfig {
        addr: "0.0.0.0:0".to_owned(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind 0.0.0.0")
}

#[test]
fn handle_shutdown_stops_a_server_bound_to_an_unspecified_address() {
    let server = bind_unspecified();
    let handle = server.handle();
    assert!(handle.addr().ip().is_unspecified());
    let done = run_reporting(server);
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
    assert_eq!(request(loopback, "GET", "/healthz", "").status, 200);
    handle.shutdown();
    expect_stopped(&done);
    // A second shutdown finds the listener gone and is a no-op.
    handle.shutdown();
}

#[test]
fn shutdown_endpoint_stops_a_server_bound_to_an_unspecified_address() {
    let server = bind_unspecified();
    let port = server.handle().addr().port();
    let done = run_reporting(server);
    let loopback = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let resp = request(loopback, "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200);
    expect_stopped(&done);
}

#[test]
fn shutdown_before_run_returns_at_once() {
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    server.handle().shutdown();
    let done = run_reporting(server);
    expect_stopped(&done);
}
