//! Warm-restart and determinism tests for the persistent artifact store:
//! a server restarted over the same store answers its first request from
//! a preloaded cache, `/statusz` reports store occupancy, and store-hit
//! vs store-miss localization reports are byte-identical at 1, 2, and 8
//! threads.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use common::{localize_body, request, start, stop, ResponseExt, BUGGY, GOLDEN};
use obs::json::Json;
use sim::CancelToken;
use veribug_serve::{DesignCache, ServerConfig};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "veribug-serve-restart-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn restart_over_a_shared_store_is_warm_and_byte_identical() {
    let store_dir = temp_store("warm");
    let config = || ServerConfig {
        workers: 2,
        store_path: Some(store_dir.display().to_string()),
        ..ServerConfig::default()
    };

    // Cold process: first request misses, sources are written through.
    let (handle, join) = start(config());
    let cold = request(handle.addr(), "POST", "/v1/localize", &localize_body(24, 8));
    assert_eq!(cold.status, 200, "body: {}", cold.text());
    assert_eq!(
        cold.header("x-veribug-cache"),
        Some("golden=miss,buggy=miss")
    );
    let status = request(handle.addr(), "GET", "/statusz", "").json();
    let store_block = status.get("store").expect("store block in /statusz");
    assert!(
        store_block.get("writes").and_then(|v| v.as_num()).unwrap() >= 2.0,
        "both designs written through"
    );
    assert!(store_block.get("entries").and_then(|v| v.as_num()).unwrap() >= 2.0);
    stop(&handle, join);

    // Restarted process over the same store: preloaded, first request is
    // already a cache hit, and the body is byte-identical to the miss
    // path.
    let (handle, join) = start(config());
    let status = request(handle.addr(), "GET", "/statusz", "").json();
    let store_block = status.get("store").expect("store block in /statusz");
    assert_eq!(
        store_block.get("preloaded").and_then(|v| v.as_num()),
        Some(2.0),
        "both stored designs precompiled at bind"
    );
    assert!(
        store_block.get("hits").and_then(|v| v.as_num()).unwrap() >= 2.0,
        "preload reads count as store hits"
    );
    let warm = request(handle.addr(), "POST", "/v1/localize", &localize_body(24, 8));
    assert_eq!(warm.status, 200, "body: {}", warm.text());
    assert_eq!(
        warm.header("x-veribug-cache"),
        Some("golden=hit,buggy=hit"),
        "first request after restart is served from the preloaded cache"
    );
    assert_eq!(warm.body, cold.body, "store-hit response is byte-identical");
    stop(&handle, join);

    // A storeless server produces the same bytes, so persistence is
    // invisible to clients.
    let (handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let plain = request(handle.addr(), "POST", "/v1/localize", &localize_body(24, 8));
    assert_eq!(plain.body, cold.body);
    stop(&handle, join);

    std::fs::remove_dir_all(&store_dir).unwrap();
}

#[test]
fn statusz_reports_null_store_when_unconfigured() {
    let (handle, join) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let status = request(handle.addr(), "GET", "/statusz", "").json();
    assert!(
        matches!(status.get("store"), Some(Json::Null)),
        "store block is explicit null without a store"
    );
    stop(&handle, join);
}

/// The acceptance bar: localization through a store-preloaded cache
/// (store hit) and through a cold cache (store miss) renders
/// byte-identical reports at 1, 2, and 8 threads.
#[test]
fn store_hit_and_miss_reports_are_byte_identical_at_1_2_8_threads() {
    let store_dir = temp_store("threads");
    let store = Arc::new(store::Store::open(&store_dir, store::DEFAULT_BUDGET).unwrap());
    // Populate the store once (write-through on the build path).
    let seed_cache = DesignCache::with_store(8, Arc::clone(&store));
    seed_cache.get(GOLDEN).unwrap();
    seed_cache.get(BUGGY).unwrap();

    let model = veribug::model::VeriBugModel::new(veribug::model::ModelConfig::default());
    let opts = veribug::localize::LocalizeOptions {
        runs: 24,
        cycles: 8,
        ..veribug::localize::LocalizeOptions::default()
    };
    let render = |cache: &DesignCache| {
        let mut golden = cache.get(GOLDEN).unwrap();
        let mut buggy = cache.get(BUGGY).unwrap();
        let cancel = CancelToken::new();
        let (reference, _) = cache
            .golden_ref(GOLDEN, &veribug::GoldenKey::new("y", &opts), || {
                veribug::GoldenRef::build(&mut golden.sim, "y", &opts, &cancel)
            })
            .unwrap();
        let report = veribug::localize::run_with_sims(
            &model,
            &reference,
            &mut buggy.sim,
            &mut veribug::ExplainerState::new(&buggy.module, "y"),
            "y",
            &opts,
            &cancel,
        )
        .unwrap();
        (golden.hit, veribug_serve::api::render_report(&report))
    };

    let mut bodies = Vec::new();
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            // Store-miss path: a cold cache with no store at all.
            let (hit, miss_body) = render(&DesignCache::new(8));
            assert!(!hit, "cold cache misses");
            // Store-hit path: a fresh cache preloaded from the store.
            let warm_cache = DesignCache::with_store(8, Arc::clone(&store));
            assert_eq!(warm_cache.preload(), 2);
            let (hit, hit_body) = render(&warm_cache);
            assert!(hit, "preloaded cache hits");
            assert_eq!(
                hit_body, miss_body,
                "store hit and miss agree at {threads} threads"
            );
            bodies.push(miss_body);
        });
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "reports are byte-identical across 1/2/8 threads"
    );
    std::fs::remove_dir_all(&store_dir).unwrap();
}
