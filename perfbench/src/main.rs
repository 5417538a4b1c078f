//! End-to-end and per-layer benchmark of the VeriBug localization service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload localize_hot --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every run first builds the model in process (the offline path at fixed
//! seeds), boots the server in process over that model, then drives
//! `/v1/localize` with a closed loop of two connections for `--seconds`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` also sends a
//! counting pass and replays the requests layer by layer in process, and
//! prints the per-layer metrics. METRICS.md defines each metric and the
//! end-to-end metric each layer metric should move. The last stdout line
//! is one JSON object: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod client;
mod inputs;
mod prep;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use serve::{api, DesignCache, Server, ServerConfig};
use store::{ArtifactKind, Store};

use crate::client::{closed_loop, send};
use crate::inputs::Request;
use crate::replay::{LayerTimes, Replayer};
use crate::stats::{median, split_windows, unattributed, valid_metric_name, windowed_percentile};

/// Client connections of the closed loop (the bench host has two cores).
const CONNECTIONS: usize = 2;
/// Equal time windows the timed phase is split into for latency and
/// throughput medians.
const WINDOWS: usize = 5;
/// Passes of the offline path per run; offline metrics are their medians.
const OFFLINE_REPS: usize = 3;
/// Server binds per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// `localize_fresh` pairs generated per timed second: about twice what two
/// connections get answered on a two-core host, so the pool never runs
/// dry.
const FRESH_PER_SECOND: usize = 400;
/// `localize_fresh` inputs whose answers `top5_frac` scores.
const FRESH_SCORED: usize = 1024;
/// `localize_fresh` answers checked byte for byte against an in-process
/// localization after the timed phase.
const FRESH_CHECKED: usize = 32;
/// `localize_fresh` pairs, never sent before, for the counting pass.
const FRESH_COUNTED: usize = 32;
/// `localize_fresh` served inputs the replay pass replays.
const FRESH_REPLAYED: usize = 128;
/// Where the counting pass's fresh pairs start in the generator's index
/// space, far beyond anything the timed phase can use.
const COUNTED_FIRST: u64 = 1 << 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hot,
    Fresh,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = match value("--workload")? {
        "localize_hot" => Workload::Hot,
        "localize_fresh" => Workload::Fresh,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// The metrics a run prints, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// A scratch directory under the benchmark's own, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// First line of a command's output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn counters() -> BTreeMap<String, u64> {
    obs::snapshot().counters
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
}

/// The expected 200 body of `req`, computed in process through the same
/// library call the server makes.
fn reference_body(model: &veribug::VeriBugModel, req: &Request) -> Result<String, Box<dyn Error>> {
    let golden = verilog::parse(&req.golden)?.top().clone();
    let buggy = verilog::parse(&req.buggy)?.top().clone();
    let report = veribug::localize::run(model, &golden, &buggy, &req.target, &req.opts)?;
    Ok(api::render_report(&report))
}

/// A booted server and the thread running its accept loop.
struct Running {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Drains the server and waits for its accept loop and workers.
    fn stop(self) -> Result<(), Box<dyn Error>> {
        let reply = send(self.addr, "POST", "/v1/shutdown", "");
        if reply.status != 200 {
            return Err(format!("shutdown answered {}: {}", reply.status, reply.body).into());
        }
        self.thread.join().map_err(|_| "server thread panicked")??;
        Ok(())
    }
}

/// Binds the server `SETUP_REPS` times, keeping the last one running, and
/// returns it with the median bind time.
fn boot(config: &ServerConfig) -> Result<(Running, f64), Box<dyn Error>> {
    let mut binds = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let server = Server::bind(config.clone())?;
        binds.push(t.elapsed().as_secs_f64());
        let running = Running {
            addr: server.local_addr()?,
            thread: std::thread::spawn(move || server.run()),
        };
        if rep + 1 == SETUP_REPS {
            return Ok((running, median(&binds)));
        }
        running.stop()?;
    }
    unreachable!("SETUP_REPS is at least 1")
}

/// One phase's request accounting, printed for every phase.
fn report_phase(name: &str, sent: usize, ok: usize) {
    println!(
        "phase {name}: sent {sent}, succeeded {ok}, failed {}",
        sent - ok
    );
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    obs::enable();
    obs::set_quiet(true);
    let work = WorkDir::create()?;
    let workers = par::max_threads();
    println!(
        "host: nproc {}, rustc {}, git {}, seed {}, server workers {workers}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
    );

    // The offline path, at fixed seeds: the served model and the hot
    // mutants come out of it. Every pass must train the pinned weights.
    let mut loaded = (0..OFFLINE_REPS)
        .map(|_| prep::load_inputs())
        .collect::<Result<Vec<_>, _>>()?;
    let loads: Vec<f64> = loaded.iter().map(|l| l.generate_s).collect();
    let inputs = loaded.pop().expect("OFFLINE_REPS is at least 1");
    let mut rounds = Vec::with_capacity(OFFLINE_REPS);
    for _ in 0..OFFLINE_REPS {
        rounds.push(prep::round(&inputs)?);
    }
    let mut correct = true;
    if rounds.iter().any(|r| r.weights_hash != prep::WEIGHTS_HASH) {
        eprintln!(
            "perfbench: trained weights differ from {}",
            prep::WEIGHTS_HASH
        );
        correct = false;
    }
    println!("weights: {}", rounds[0].weights_hash);
    let offline = |f: fn(&prep::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let model = &rounds[0].model;
    let model_path = work.0.join("model.vbm");
    veribug::persist::save(model, &model_path)?;

    // The requests, and the store the server boots over.
    let store_dir = work.0.join("store");
    let store = Store::open(&store_dir, store::DEFAULT_BUDGET)?;
    let (requests, counted) = match args.workload {
        Workload::Hot => {
            let reqs = inputs::hot(&inputs.cases, &rounds[0].mutants);
            for r in &reqs {
                for src in [&r.golden, &r.buggy] {
                    store.put(
                        ArtifactKind::Design,
                        serve::cache::fnv1a(src.as_bytes()),
                        src.as_bytes(),
                    )?;
                }
            }
            (reqs, Vec::new())
        }
        Workload::Fresh => (
            inputs::fresh(
                args.seed,
                0,
                (FRESH_PER_SECOND * args.seconds as usize).max(FRESH_SCORED + FRESH_REPLAYED),
            )?,
            inputs::fresh(args.seed, COUNTED_FIRST, FRESH_COUNTED)?,
        ),
    };
    drop(store);
    if requests.is_empty() {
        return Err("no requests to send".into());
    }
    let bodies: Vec<String> = requests.iter().map(|r| r.body.clone()).collect();
    let config = ServerConfig {
        workers,
        model_path: Some(model_path.display().to_string()),
        store_path: Some(store_dir.display().to_string()),
        ..ServerConfig::default()
    };
    let (server, setup_s) = boot(&config)?;

    // localize_hot: every mutant once, before timing. These answers are
    // the reference every timed answer must equal, and what top5_frac
    // scores.
    let mut warm_answers: Vec<Option<String>> = vec![None; requests.len()];
    if args.workload == Workload::Hot {
        let mut ok = 0;
        for (i, req) in requests.iter().enumerate() {
            let reply = send(server.addr, "POST", "/v1/localize", &req.body);
            if reply.status == 200 {
                ok += 1;
                if reply.body != reference_body(model, req)? {
                    eprintln!("perfbench: served answer {i} differs from the in-process one");
                    correct = false;
                }
                warm_answers[i] = Some(reply.body);
            }
        }
        report_phase("warmup", requests.len(), ok);
        if ok != requests.len() {
            return Err("warmup requests failed".into());
        }
    }

    // The timed phase.
    let order: Vec<usize> = {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        let mut state = args.seed;
        for i in (1..order.len()).rev() {
            state = inputs::splitmix(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    };
    let n = requests.len();
    let pick = |k: usize| match args.workload {
        Workload::Hot => Some(order[k % n]),
        Workload::Fresh => (k < n).then_some(k),
    };
    let timed = closed_loop(server.addr, &bodies, &pick, CONNECTIONS, args.seconds);
    let attempted = timed.samples.len();
    let mut latencies: Vec<(f64, f64)> = Vec::with_capacity(attempted);
    let mut served: BTreeMap<usize, &str> = BTreeMap::new();
    for s in &timed.samples {
        if s.reply.status != 200 {
            continue;
        }
        latencies.push((s.done_s, s.ms));
        match &warm_answers[s.input] {
            Some(expected) if *expected != s.reply.body => {
                eprintln!(
                    "perfbench: answer to input {} changed between requests",
                    s.input
                );
                correct = false;
            }
            _ => {}
        }
        served.insert(s.input, &s.reply.body);
    }
    let succeeded = latencies.len();
    let failed = attempted - succeeded;
    report_phase("timed", attempted, succeeded);
    if let Some(s) = timed.samples.iter().find(|s| s.reply.status != 200) {
        eprintln!(
            "perfbench: first failure: status {} {}",
            s.reply.status,
            s.reply.body.trim()
        );
    }
    if args.workload == Workload::Fresh && attempted >= n {
        return Err("the fresh pool ran dry before the timed phase ended".into());
    }
    // Latency and throughput are medians over equal time windows, so a
    // stall of the shared host inside one window moves them little.
    let span = args.seconds / WINDOWS as f64;
    let windows = split_windows(latencies, WINDOWS, span);
    let counts: Vec<usize> = windows.iter().map(Vec::len).collect();
    println!("timed windows: successful requests per {span} s window {counts:?}");
    let p50 = windowed_percentile(&windows, 50.0).ok_or("a timed window had too few answers")?;
    let rps = median(
        &counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                // The last window also holds the answers that arrived after
                // the deadline, so it runs until the last of them.
                let len = if i + 1 == WINDOWS {
                    timed.wall_s - span * (WINDOWS - 1) as f64
                } else {
                    span
                };
                c as f64 / len
            })
            .collect::<Vec<_>>(),
    );

    // Answers are checked against in-process localizations; top5_frac
    // scores a fixed set of inputs so it repeats exactly per seed.
    let scored: Vec<usize> = match args.workload {
        Workload::Hot => (0..n).collect(),
        Workload::Fresh => (0..FRESH_SCORED).collect(),
    };
    // The answer the server gave input `i`: the warm-up's on localize_hot,
    // the timed phase's on localize_fresh.
    let answer = |i: usize| -> Result<&str, String> {
        warm_answers[i]
            .as_deref()
            .or_else(|| served.get(&i).copied())
            .ok_or_else(|| format!("input {i} was never answered"))
    };
    if args.workload == Workload::Fresh {
        for (i, req) in requests.iter().enumerate().take(FRESH_CHECKED) {
            if answer(i)? != reference_body(model, req)? {
                eprintln!("perfbench: served answer {i} differs from the in-process one");
                correct = false;
            }
        }
    }
    let mut top5 = 0usize;
    for &i in &scored {
        top5 += usize::from(inputs::in_top5(answer(i)?, &requests[i].site));
    }

    let mut metrics = Metrics::default();
    if !args.trace {
        server.stop()?;
        metrics.push("setup_s", setup_s, "s");
        metrics.push("localize_p50_ms", p50, "ms");
        metrics.push(
            "localize_p95_ms",
            windowed_percentile(&windows, 95.0).ok_or_else(|| {
                format!("windows of {counts:?} answers leave fewer than ten beyond p95")
            })?,
            "ms",
        );
        metrics.push("localize_rps", rps, "1/s");
        metrics.push("ok_frac", succeeded as f64 / attempted as f64, "frac");
        metrics.push("top5_frac", top5 as f64 / scored.len() as f64, "frac");
        metrics.push("peak_rss_mb", peak_rss_mb()?, "MB");
        return Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics,
        });
    }

    // Counting pass: a fixed request set, sent one at a time, then the
    // drained server's counters (what /metricsz renders) per request.
    let counting: Vec<&Request> = match args.workload {
        Workload::Hot => requests.iter().collect(),
        Workload::Fresh => counted.iter().collect(),
    };
    let before = counters();
    let mut ok = 0;
    for req in &counting {
        ok += usize::from(send(server.addr, "POST", "/v1/localize", &req.body).status == 200);
    }
    report_phase("counting", counting.len(), ok);
    server.stop()?;
    if ok != counting.len() {
        return Err("counting-pass requests failed".into());
    }
    let after = counters();
    let per_request = |name: &str| delta(&before, &after, name) as f64 / counting.len() as f64;
    let (hits, misses) = (
        delta(&before, &after, "serve.cache.hits"),
        delta(&before, &after, "serve.cache.misses"),
    );

    // Replay pass: the cache in the server's state (hot: preloaded from
    // the same store; fresh: empty over a new store).
    let replay_store_dir = match args.workload {
        Workload::Hot => store_dir.clone(),
        Workload::Fresh => work.0.join("replay-store"),
    };
    let replay_store = Arc::new(Store::open(&replay_store_dir, store::DEFAULT_BUDGET)?);
    let mut preloads = Vec::with_capacity(SETUP_REPS);
    let mut cache = None;
    for _ in 0..SETUP_REPS {
        let fresh_cache = DesignCache::with_store(config.cache_capacity, Arc::clone(&replay_store));
        let t = Instant::now();
        fresh_cache.preload();
        preloads.push(t.elapsed().as_secs_f64());
        cache = Some(fresh_cache);
    }
    let cache = cache.expect("SETUP_REPS is at least 1");
    let scratch = Store::open(work.0.join("put-store"), store::DEFAULT_BUDGET)?;
    let replayer = Replayer {
        model,
        cache: &cache,
        scratch: &scratch,
    };
    let replayed: Vec<usize> = match args.workload {
        Workload::Hot => (0..n).collect(),
        Workload::Fresh => (0..FRESH_REPLAYED).collect(),
    };
    let mut times = LayerTimes::default();
    for &i in &replayed {
        if replayer.replay(&requests[i], &mut times)? != answer(i)? {
            eprintln!("perfbench: replayed answer {i} differs from the served one");
            correct = false;
        }
    }
    println!("phase replay: replayed {}", replayed.len());

    let layer = |v: &[f64]| median(v);
    let attributed = [
        layer(&times.parse),
        layer(&times.get),
        layer(&times.stimgen),
        layer(&times.verdict),
        layer(&times.full_trace),
        layer(&times.explain),
        layer(&times.render),
    ];
    metrics.push("serve.served_p50_ms", p50, "ms");
    metrics.push("serve.api.parse_ms", layer(&times.parse), "ms");
    metrics.push("serve.api.render_ms", layer(&times.render), "ms");
    metrics.push("serve.cache.get_ms", layer(&times.get), "ms");
    metrics.push("serve.cache.get_hit_ms", layer(&times.get_hit), "ms");
    metrics.push("serve.cache.get_miss_ms", layer(&times.get_miss), "ms");
    metrics.push(
        "serve.cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "frac",
    );
    metrics.push("verilog.parse_ms", layer(&times.verilog_parse), "ms");
    metrics.push("sim.build_ms", layer(&times.sim_build), "ms");
    metrics.push("store.put_ms", layer(&times.store_put), "ms");
    metrics.push("store.preload_s", median(&preloads), "s");
    metrics.push("sim.stimgen_ms", layer(&times.stimgen), "ms");
    metrics.push("mutate.verdict_ms", layer(&times.verdict), "ms");
    metrics.push(
        "mutate.failing_frac",
        times.failing_runs as f64 / times.total_runs.max(1) as f64,
        "frac",
    );
    metrics.push("mutate.full_trace_ms", layer(&times.full_trace), "ms");
    metrics.push("veribug.explain_ms", layer(&times.explain), "ms");
    metrics.push(
        "serve.unattributed_ms",
        unattributed(p50, &attributed),
        "ms",
    );
    metrics.push("offline_s", offline(|r| r.total_s), "s");
    metrics.push(
        "campaign_mutants_per_s",
        offline(|r| r.screened as f64 / r.campaign_s),
        "1/s",
    );
    metrics.push(
        "train_samples_per_s",
        offline(|r| r.samples_trained as f64 / r.train_s),
        "1/s",
    );
    metrics.push("rvdg.generate_s", median(&loads), "s");
    metrics.push("mutate.campaign_s", offline(|r| r.campaign_s), "s");
    metrics.push(
        "mutate.kept_frac",
        offline(|r| r.kept as f64 / r.screened.max(1) as f64),
        "frac",
    );
    metrics.push("veribug.dataset_build_s", offline(|r| r.dataset_s), "s");
    metrics.push("veribug.train_epoch_s", offline(|r| r.epoch_s), "s");
    metrics.push("veribug.evaluate_s", offline(|r| r.evaluate_s), "s");
    metrics.push("sim.runs_verdict", per_request("sim.runs_verdict"), "count");
    metrics.push(
        "sim.records_elided",
        per_request("sim.records_elided"),
        "count",
    );
    metrics.push(
        "serve.cache.evictions",
        per_request("serve.cache.evictions"),
        "count",
    );
    metrics.push("model.evals", per_request("model.evals"), "count");
    metrics.push("store.writes", per_request("store.writes"), "count");
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload localize_hot|localize_fresh --seed N --seconds N --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            out.correct,
            out.attempted,
            out.failed,
            out.metrics.json()
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
