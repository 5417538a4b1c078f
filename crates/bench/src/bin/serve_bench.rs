//! Service benchmark for `veribug-serve`, written to `BENCH_serve.json`.
//!
//! Boots in-process servers on ephemeral ports and sends one request at a
//! time, so queueing never enters a figure; latency and throughput under
//! concurrent load are the standalone `perfbench/` package's question. The
//! JSON report carries:
//!
//! - a sequential cold/warm phase: fresh design pairs requested once cold
//!   and three times warm on the otherwise idle server, isolating what the
//!   compiled-design cache saves (parse → levelize → compile) — cold and
//!   warm p50 and their ratio;
//! - the cache-hit rate scraped from `/metricsz`;
//! - a determinism verdict (every warm body equals its pair's cold body
//!   byte for byte) and a drain verdict;
//! - a telemetry-overhead A/B (two fresh servers side by side, live
//!   tracing off and on, requests alternating between them within each
//!   rep; best-of-reps throughput and p99, each arm timing one calibrated
//!   request count per rep, enough for a `stats::MIN_REP_S` window);
//! - a `store_restart` block: first-request latency of a freshly booted
//!   server over an empty artifact store (cold restart) vs over a
//!   populated one (warm restart, designs precompiled at bind),
//!   min-of-3 boots each.
//!
//! Percentiles are nearest-rank and best-of-reps figures come from
//! alternating reps, both through `veribug_bench::stats`.
//!
//! Run with: `cargo run --release -p veribug-bench --bin serve_bench`
//!
//! Options: `--smoke` shrinks the workload (3 design pairs instead of 6)
//! and exits non-zero on any 5xx or transport failure, on a warm body that
//! differs from its pair's cold body, on a failed drain, on warm requests
//! not faster than cold ones, on live telemetry costing more than 5%
//! throughput or p99, or on a restart over a populated store that is not
//! a faster cache hit — without rewriting the JSON.

use std::fmt::Write as _;
use std::time::Instant;

use serve::http::{self, Response};
use serve::{Server, ServerConfig};
use veribug_bench::stats;

/// Statements in each design pair's combinational chain.
const STMTS: usize = 256;

/// A distinct golden/buggy pair: a combinational chain of [`STMTS`]
/// statements, so parse → levelize → compile (the work the cache skips) is
/// a measurable share of request latency. The `tag` comment makes each
/// pair's source bytes (and therefore its cache key) unique; the bug flips
/// one operator early in the chain so the divergence reaches the target.
fn design_pair(tag: usize) -> (String, String) {
    let mut golden =
        format!("// serve-bench design {tag}\nmodule m(input a, input b, input c, output y);\n");
    let ops = ["&", "|", "^"];
    for i in 0..STMTS {
        let prev = if i == 0 {
            "a".to_owned()
        } else {
            format!("t{}", i - 1)
        };
        let other = if i % 2 == 0 { "b" } else { "c" };
        let _ = writeln!(golden, "wire t{i};");
        let _ = writeln!(
            golden,
            "assign t{i} = {prev} {} {other};",
            ops[i % ops.len()]
        );
    }
    let _ = writeln!(golden, "assign y = t{} | c;", STMTS - 1);
    golden.push_str("endmodule\n");
    let buggy = golden.replacen("t0 = a & b", "t0 = a | b", 1);
    (golden, buggy)
}

fn localize_body(golden: &str, buggy: &str, runs: usize, cycles: usize) -> String {
    let mut body = String::from("{\"golden\":");
    obs::json::write_str(&mut body, golden);
    body.push_str(",\"buggy\":");
    obs::json::write_str(&mut body, buggy);
    let _ = write!(
        body,
        ",\"target\":\"y\",\"options\":{{\"runs\":{runs},\"cycles\":{cycles},\"threshold\":0.01}}}}"
    );
    body
}

/// Whether the server answered from its design cache.
fn cache_hit(resp: &Response) -> bool {
    resp.header("x-veribug-cache")
        .is_some_and(|v| !v.contains("miss"))
}

const FLAGS: obs::cli::Spec = obs::cli::Spec {
    name: "serve_bench",
    switches: &["smoke"],
    values: &[],
};

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = obs::cli::init(&FLAGS, std::env::args().skip(1));
    let smoke = opts.has("smoke");
    let design_count = if smoke { 3 } else { 6 };
    let (runs, cycles) = if smoke { (4, 4) } else { (8, 8) };

    let server = Server::bind(ServerConfig::default())?;
    let addr = server.local_addr()?;
    let server_thread = std::thread::spawn(move || server.run());

    obs::progress!(
        "serve_bench: {design_count} design pairs, one cold and three warm requests each"
    );

    // Sequential cold/warm phase on the idle server: fresh design pairs,
    // one cold request then three warm repeats each. This isolates what
    // the compiled-design cache saves — parse → levelize → compile — from
    // queueing noise, and checks that a cache hit answers byte for byte
    // what the miss did.
    let mut seq_cold: Vec<f64> = Vec::new();
    let mut seq_warm: Vec<f64> = Vec::new();
    let mut ok = 0usize;
    let mut server_errors = 0usize;
    let mut deterministic = true;
    for d in 0..design_count {
        let (golden, buggy) = design_pair(1000 + d);
        let body = localize_body(&golden, &buggy, runs, cycles);
        let mut cold_body = Vec::new();
        for rep in 0..4 {
            let t0 = Instant::now();
            let resp = http::send(addr, "POST", "/v1/localize", &[], body.as_bytes());
            let secs = t0.elapsed().as_secs_f64();
            let resp = match resp {
                Ok(resp) if resp.status < 500 => resp,
                // The smoke gate reports it; this pair's repeats would not
                // measure the cache.
                _ => {
                    server_errors += 1;
                    break;
                }
            };
            assert_eq!(resp.status, 200, "sequential phase request failed");
            ok += 1;
            if rep == 0 {
                assert!(
                    !cache_hit(&resp),
                    "first touch of a fresh pair must be a miss"
                );
                seq_cold.push(secs);
                cold_body = resp.body;
            } else {
                assert!(cache_hit(&resp), "repeat of a cached pair must be a hit");
                seq_warm.push(secs);
                deterministic &= resp.body == cold_body;
            }
        }
    }
    seq_cold.sort_by(f64::total_cmp);
    seq_warm.sort_by(f64::total_cmp);
    // Empty only when requests failed, which the smoke gates report first.
    let seq_cold_p50 = stats::nearest_rank(&seq_cold, 50.0).unwrap_or(0.0);
    let seq_warm_p50 = stats::nearest_rank(&seq_warm, 50.0).unwrap_or(0.0);

    // Cache-hit rate as the server counts it, scraped from /metricsz.
    let metrics = http::send(addr, "GET", "/metricsz", &[], b"")?;
    let (hits, misses) = cache_counters(&metrics.text());

    // Drain: stop accepting, finish in-flight, and require a clean exit.
    let shutdown_status = http::send(addr, "POST", "/v1/shutdown", &[], b"")?.status;
    let drained = shutdown_status == 200 && server_thread.join().is_ok_and(|r| r.is_ok());

    // Store-restart phase: what the persistent artifact store buys a
    // restarted process. Cold restart = fresh server over an *empty*
    // store (first request parses and compiles both designs); warm
    // restart = fresh server over the store a cold boot populated via
    // write-through (designs precompiled at bind, first request is an L1
    // hit). Rep 0 boots cold first, so every warm boot finds a populated
    // store.
    let store_dir =
        std::env::temp_dir().join(format!("veribug-serve-bench-store-{}", std::process::id()));
    let restart_reps = 3usize;
    let restart_body = {
        let (golden, buggy) = design_pair(3000);
        localize_body(&golden, &buggy, runs, cycles)
    };
    let mut warm_hit = true;
    let mut warm_preloaded = 0u64;
    let [[restart_cold_s], [restart_warm_s]] = stats::interleaved_min_of_reps(
        restart_reps,
        |arm| -> Result<_, Box<dyn std::error::Error>> {
            let warm = arm == 1;
            if !warm {
                std::fs::remove_dir_all(&store_dir).ok();
            }
            let (secs, hit, preloaded) = restart_probe(&store_dir, &restart_body)?;
            if warm {
                warm_hit &= hit;
                warm_preloaded = preloaded;
            } else {
                assert!(!hit, "cold restart over an empty store must miss");
            }
            Ok([secs])
        },
    )?;
    std::fs::remove_dir_all(&store_dir).ok();

    // Telemetry-overhead A/B: two fresh servers run side by side, live
    // tracing off and on, and every rep alternates requests between them
    // (`telemetry_probe`), so a host speed swing lands on both arms alike.
    // Live tracing flips no process-global obs state the other server
    // reads: every server enables collection at bind, and only a traced
    // request touches the live-trace registry and rolling windows. Each
    // arm keeps its fastest median latency and fastest p99 over the reps,
    // and the overhead is the clamped-at-zero gap between the two minima.
    // The workload is deterministic, so noise is one-sided — min-of-reps
    // converges on the true cost, and a "negative overhead" can only be
    // noise, hence the clamp.
    let probe_reps = if smoke { 5 } else { 3 };
    let probe_bodies: Vec<String> = (0..2)
        .map(|d| {
            let (golden, buggy) = design_pair(2000 + d);
            localize_body(&golden, &buggy, runs, cycles)
        })
        .collect();
    let (probe_reqs, [off_med, off_p99, on_med, on_p99]) =
        with_warm_server(false, &probe_bodies, |off| {
            with_warm_server(true, &probe_bodies, |on| {
                telemetry_probe([off, on], &probe_bodies, probe_reps)
            })
        })?;
    let off_rps = 1.0 / off_med.max(1e-9);
    let on_rps = 1.0 / on_med.max(1e-9);
    let rps_overhead = ((on_med - off_med) / on_med.max(1e-9)).max(0.0);
    let p99_overhead = ((on_p99 - off_p99) / off_p99.max(1e-9)).max(0.0);

    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"design_pairs\": {design_count},");
    let _ = writeln!(json, "  \"sequential_latency_s\": {{");
    let _ = writeln!(
        json,
        "    \"cold_p50\": {seq_cold_p50:.6}, \"warm_p50\": {seq_warm_p50:.6}, \"cold_over_warm\": {:.3}",
        if seq_warm_p50 > 0.0 { seq_cold_p50 / seq_warm_p50 } else { 0.0 }
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cache\": {{");
    let _ = writeln!(
        json,
        "    \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.4}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"store_restart\": {{");
    let _ = writeln!(json, "    \"reps\": {restart_reps},");
    let _ = writeln!(
        json,
        "    \"cold_first_request_s\": {restart_cold_s:.6}, \"warm_first_request_s\": {restart_warm_s:.6},"
    );
    let _ = writeln!(
        json,
        "    \"cold_over_warm\": {:.3}, \"warm_hit\": {warm_hit}, \"preloaded\": {warm_preloaded}",
        if restart_warm_s > 0.0 {
            restart_cold_s / restart_warm_s
        } else {
            0.0
        }
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"telemetry_overhead\": {{");
    let _ = writeln!(
        json,
        "    \"reps\": {probe_reps}, \"requests_per_probe\": {probe_reqs},"
    );
    let _ = writeln!(
        json,
        "    \"off_rps\": {off_rps:.3}, \"on_rps\": {on_rps:.3}, \"rps_overhead\": {rps_overhead:.4},"
    );
    let _ = writeln!(
        json,
        "    \"off_p99_s\": {off_p99:.6}, \"on_p99_s\": {on_p99:.6}, \"p99_overhead\": {p99_overhead:.4}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"status_200\": {ok},");
    let _ = writeln!(json, "  \"status_5xx_or_transport\": {server_errors},");
    let _ = writeln!(json, "  \"deterministic\": {deterministic},");
    let _ = writeln!(json, "  \"drained\": {drained}");
    json.push_str("}\n");
    println!("{json}");
    if !smoke {
        std::fs::write("BENCH_serve.json", &json)?;
        obs::progress!("wrote BENCH_serve.json");
    }

    if smoke {
        if server_errors > 0 {
            return Err(format!("smoke FAILED: {server_errors} 5xx/transport failures").into());
        }
        if !deterministic {
            return Err(
                "smoke FAILED: a warm response body differs from its pair's cold body".into(),
            );
        }
        if !drained {
            return Err("smoke FAILED: server did not drain cleanly".into());
        }
        if seq_warm_p50 >= seq_cold_p50 {
            return Err(format!(
                "smoke FAILED: cached requests not faster (warm p50 {seq_warm_p50:.4}s >= cold p50 {seq_cold_p50:.4}s)"
            )
            .into());
        }
        if !warm_hit {
            return Err(
                "smoke FAILED: restart over a populated store did not answer its first request from cache"
                    .into(),
            );
        }
        if restart_warm_s >= restart_cold_s {
            return Err(format!(
                "smoke FAILED: warm restart not faster (first request {restart_warm_s:.4}s >= cold {restart_cold_s:.4}s)"
            )
            .into());
        }
        // Live telemetry must stay within 5% on both throughput and p99
        // (same budget the obs overhead gate in bench_pipeline enforces; a
        // tighter bound sits inside min-of-reps jitter on this host). p99
        // additionally gets a 1ms absolute epsilon: on millisecond-scale
        // requests a relative bound alone is below timer noise.
        const MAX_OVERHEAD: f64 = 0.05;
        const P99_EPSILON_S: f64 = 0.001;
        if rps_overhead > MAX_OVERHEAD {
            return Err(format!(
                "smoke FAILED: telemetry costs {:.1}% throughput (off {off_rps:.1} rps, on {on_rps:.1} rps; gate {:.0}%)",
                rps_overhead * 100.0,
                MAX_OVERHEAD * 100.0
            )
            .into());
        }
        if p99_overhead > MAX_OVERHEAD && on_p99 > off_p99 + P99_EPSILON_S {
            return Err(format!(
                "smoke FAILED: telemetry costs {:.1}% p99 (off {off_p99:.4}s, on {on_p99:.4}s; gate {:.0}%)",
                p99_overhead * 100.0,
                MAX_OVERHEAD * 100.0
            )
            .into());
        }
        println!(
            "smoke OK: {ok} responses, cache hit rate {:.0}%, warm p50 {seq_warm_p50:.4}s vs cold p50 {seq_cold_p50:.4}s, warm restart {restart_warm_s:.4}s vs cold {restart_cold_s:.4}s, telemetry overhead {:.1}% rps / {:.1}% p99",
            hit_rate * 100.0,
            rps_overhead * 100.0,
            p99_overhead * 100.0
        );
    }
    Ok(())
}

/// The telemetry A/B over two warm servers, `addrs[0]` with live tracing
/// off and `addrs[1]` with it on: each of `reps` reps sends `reqs`
/// sequential warm localize requests to each server, alternating between
/// them and swapping which goes first on every request, and yields
/// `[off_median_s, off_p99_s, on_median_s, on_p99_s]`. Returns `reqs` and
/// the element-wise minimum over the reps. `reqs` is calibrated on the tracing-off server
/// so each arm's timed window lasts at least `stats::MIN_REP_S`: a warm
/// request takes 0.5–1 ms, and a window of a few dozen of them let one
/// scheduler stall move the gate. Throughput is derived as 1/median
/// rather than reqs/wall-clock: on the 2-core bench host a one-off
/// scheduler stall inside the timed window swings wall-clock by ~10% but
/// leaves the median untouched.
fn telemetry_probe(
    addrs: [std::net::SocketAddr; 2],
    bodies: &[String],
    reps: usize,
) -> Result<(usize, [f64; 4]), Box<dyn std::error::Error>> {
    let reqs =
        stats::passes_per_rep(|| warm_request(addrs[0], &bodies[0]).expect("calibration request"));
    let [best] = stats::interleaved_min_of_reps(reps, |_| {
        let mut lat = [Vec::with_capacity(reqs), Vec::with_capacity(reqs)];
        for i in 0..reqs {
            for k in 0..2 {
                let arm = (i + k) % 2;
                let r0 = Instant::now();
                warm_request(addrs[arm], &bodies[i % bodies.len()])?;
                lat[arm].push(r0.elapsed().as_secs_f64());
            }
        }
        let [off, on] = lat.map(|mut lat| {
            lat.sort_by(f64::total_cmp);
            [50.0, 99.0].map(|p| stats::nearest_rank(&lat, p).expect("reqs >= 1"))
        });
        Ok::<_, Box<dyn std::error::Error>>([off[0], off[1], on[0], on[1]])
    })?;
    Ok((reqs, best))
}

/// Boots a fresh server with live tracing on or off, warms its design
/// cache with one request per body, runs `f` against its address, and
/// drains it.
fn with_warm_server<T>(
    telemetry: bool,
    bodies: &[String],
    f: impl FnOnce(std::net::SocketAddr) -> Result<T, Box<dyn std::error::Error>>,
) -> Result<T, Box<dyn std::error::Error>> {
    let server = Server::bind(ServerConfig {
        telemetry,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr()?;
    let server_thread = std::thread::spawn(move || server.run());
    for body in bodies {
        let resp = http::send(addr, "POST", "/v1/localize", &[], body.as_bytes())?;
        assert_eq!(resp.status, 200, "telemetry probe warmup failed");
    }
    let out = f(addr)?;
    let shutdown_status = http::send(addr, "POST", "/v1/shutdown", &[], b"")?.status;
    assert_eq!(shutdown_status, 200, "telemetry probe drain failed");
    let _ = server_thread.join();
    Ok(out)
}

/// One localize request that must succeed from the design cache.
fn warm_request(addr: std::net::SocketAddr, body: &str) -> Result<(), Box<dyn std::error::Error>> {
    let resp = http::send(addr, "POST", "/v1/localize", &[], body.as_bytes())?;
    assert_eq!(resp.status, 200, "telemetry probe request failed");
    assert!(
        cache_hit(&resp),
        "telemetry probe must measure warm requests"
    );
    Ok(())
}

/// One restart probe: boots a fresh server over `store_dir`, times the
/// very first localize request, scrapes `store.preloaded` from `/statusz`,
/// and drains. Returns `(first_request_s, cache_hit, preloaded)`.
fn restart_probe(
    store_dir: &std::path::Path,
    body: &str,
) -> Result<(f64, bool, u64), Box<dyn std::error::Error>> {
    let server = Server::bind(ServerConfig {
        store_path: Some(store_dir.display().to_string()),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr()?;
    let server_thread = std::thread::spawn(move || server.run());
    let t0 = Instant::now();
    let resp = http::send(addr, "POST", "/v1/localize", &[], body.as_bytes())?;
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(resp.status, 200, "restart probe request failed");
    let statusz = http::send(addr, "GET", "/statusz", &[], b"")?;
    let preloaded = obs::json::parse(&statusz.text())
        .ok()
        .and_then(|doc| doc.get("store")?.get("preloaded")?.as_num())
        .map_or(0, |v| v as u64);
    let shutdown_status = http::send(addr, "POST", "/v1/shutdown", &[], b"")?.status;
    assert_eq!(shutdown_status, 200, "restart probe drain failed");
    let _ = server_thread.join();
    Ok((secs, cache_hit(&resp), preloaded))
}

/// Pulls `serve.cache.hits` / `serve.cache.misses` out of the `/metricsz`
/// JSON body.
fn cache_counters(metrics: &str) -> (u64, u64) {
    let read = |name: &str| -> u64 {
        obs::json::parse(metrics)
            .ok()
            .and_then(|doc| doc.get("counters")?.get(name)?.as_num())
            .map_or(0, |v| v as u64)
    };
    (read("serve.cache.hits"), read("serve.cache.misses"))
}
