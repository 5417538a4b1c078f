//! End-to-end tests of the `veribug` binary: version/usage/flag
//! validation, and the localize CLI↔server equivalence (byte-identical
//! suspect rankings).

mod common;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

use common::{encode, request, request_with, start, stop, ResponseExt, BUGGY, GOLDEN};

const BIN: &str = env!("CARGO_BIN_EXE_veribug");

/// The `/v1/localize` and `/v1/explain` body matching the CLI flags the
/// equivalence tests pass.
fn cli_equivalent_body() -> String {
    format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":24,\"cycles\":8,\"threshold\":0.01}}}}",
        encode(GOLDEN),
        encode(BUGGY)
    )
}

/// Scrapes the bound address from `veribug serve`'s banner line.
fn banner_addr(line: &str) -> SocketAddr {
    line.split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .expect("address in banner")
}

/// A `veribug serve` child that is killed and reaped when dropped, so a
/// failing assertion leaves no server running. `wait_with_output` takes
/// it back on the success path.
struct ServeChild(Option<Child>);

impl ServeChild {
    fn wait_with_output(mut self) -> Output {
        let child = self.0.take().expect("child not yet reaped");
        child.wait_with_output().expect("serve exits")
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns `veribug serve` on an ephemeral port with `args` appended and
/// returns the child, its stdout (kept open so late output never hits a
/// closed pipe) and the address scraped from the banner.
fn spawn_serve(args: &[&str], stderr: Stdio) -> (ServeChild, BufReader<ChildStdout>, SocketAddr) {
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let child = ServeChild(Some(child));
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner line");
    let addr = banner_addr(&line);
    (child, reader, addr)
}

/// One counter or gauge (0 when absent) from `/metricsz`, whose body must
/// pass its schema check. A `veribug serve` child's counters are its own;
/// the in-process suites share one registry across concurrent tests.
fn metric(addr: SocketAddr, name: &str) -> f64 {
    let page = request(addr, "GET", "/metricsz", "");
    let metrics = obs::validate::metricsz(&page.text()).expect("valid /metricsz");
    metrics.counters.get(name).copied().unwrap_or(0.0)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veribug-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn version_flag_prints_version() {
    for flag in ["--version", "-V", "version"] {
        let out = Command::new(BIN).arg(flag).output().expect("run");
        assert!(out.status.success(), "{flag} exits 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout.trim(),
            format!("veribug {}", env!("CARGO_PKG_VERSION"))
        );
    }
}

#[test]
fn unknown_subcommand_lists_valid_commands_and_fails() {
    let out = Command::new(BIN).arg("frobnicate").output().expect("run");
    assert!(!out.status.success(), "unknown command exits nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command `frobnicate`"), "{stderr}");
    for cmd in [
        "train", "localize", "explain", "inject", "analyze", "vcd", "serve",
    ] {
        assert!(stderr.contains(cmd), "stderr lists `{cmd}`: {stderr}");
    }
}

#[test]
fn unknown_flag_lists_valid_flags_and_fails() {
    let out = Command::new(BIN)
        .args(["localize", "--bogus", "x"])
        .output()
        .expect("run");
    assert!(!out.status.success(), "unknown flag exits nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --bogus"), "{stderr}");
    for flag in ["--golden", "--buggy", "--target", "--model", "--obs"] {
        assert!(stderr.contains(flag), "stderr lists `{flag}`: {stderr}");
    }
}

#[test]
fn positional_arguments_are_rejected() {
    let out = Command::new(BIN)
        .args(["analyze", "design.v"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected argument `design.v`"),
        "{stderr}"
    );
}

#[test]
fn non_finite_threshold_is_rejected() {
    for t in ["nan", "inf"] {
        let out = Command::new(BIN)
            .args([
                "localize", "--golden", "g.v", "--buggy", "b.v", "--target", "y",
            ])
            .args(["--model", "m.vbm", "--threshold", t])
            .output()
            .expect("run");
        assert!(!out.status.success(), "--threshold {t} exits nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("bad value for --threshold"), "{stderr}");
    }
}

#[test]
fn missing_required_option_fails() {
    let out = Command::new(BIN).arg("train").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing required option --out"), "{stderr}");
}

/// `veribug train` always trains: a configured store is neither read
/// nor written, so a second identical run retrains (and, training being
/// deterministic, writes the same bytes) instead of replaying weights.
#[test]
fn train_never_reads_or_writes_the_store() {
    let dir = scratch_dir("train-store");
    let store_dir = dir.join("store");
    let mut models = Vec::new();
    for run in 0..2 {
        let out = Command::new(BIN)
            .current_dir(&dir)
            .env(store::ENV_ROOT, &store_dir)
            .args(["train", "--out", "m.vbm", "--designs", "2", "--epochs", "1"])
            .output()
            .expect("run train");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "run {run}: {stderr}");
        assert!(!stderr.contains("stored weights"), "run {run}: {stderr}");
        assert!(stderr.contains("trained 1 epochs"), "run {run}: {stderr}");
        models.push(std::fs::read(dir.join("m.vbm")).expect("model written"));
    }
    assert_eq!(models[0], models[1], "both runs train the same weights");
    let weights_entries = std::fs::read_dir(store_dir.join("weights")).map_or(0, Iterator::count);
    assert_eq!(weights_entries, 0, "no weights written to the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_rejects_the_store_flag() {
    let dir = scratch_dir("train-store-flag");
    let out = Command::new(BIN)
        .current_dir(&dir)
        .args(["train", "--out", "m.vbm", "--designs", "1", "--epochs", "1"])
        .args(["--store", "store"])
        .output()
        .expect("run");
    assert!(!out.status.success(), "train --store exits nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --store for `veribug train`"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `veribug store ls` lists a stored design's key, `rm KEY` removes and
/// reports it, and a second `rm KEY` fails.
#[test]
fn store_subcommands_list_and_remove_an_entry() {
    let dir = scratch_dir("store-cmd");
    let root = dir.join("store");
    let key = store::hash::fnv1a(GOLDEN.as_bytes());
    let hex = store::hash::key_hex(key);
    store::Store::open(&root, store::DEFAULT_BUDGET)
        .unwrap()
        .put(store::ArtifactKind::Design, key, GOLDEN.as_bytes())
        .unwrap();
    let veribug_store = |args: &[&str]| {
        Command::new(BIN)
            .arg("store")
            .args(args)
            .args(["--store", root.to_str().expect("utf-8 path")])
            .output()
            .expect("run store")
    };

    let ls = veribug_store(&["ls"]);
    let stdout = String::from_utf8_lossy(&ls.stdout);
    assert!(
        ls.status.success(),
        "{}",
        String::from_utf8_lossy(&ls.stderr)
    );
    assert!(stdout.contains(&hex), "ls lists the key: {stdout}");
    assert!(stdout.contains("1 entries"), "{stdout}");

    let rm = veribug_store(&["rm", &hex]);
    let stdout = String::from_utf8_lossy(&rm.stdout);
    assert!(
        rm.status.success(),
        "{}",
        String::from_utf8_lossy(&rm.stderr)
    );
    assert!(stdout.contains(&format!("removed entry {hex}")), "{stdout}");
    let ls = veribug_store(&["ls"]);
    assert!(!String::from_utf8_lossy(&ls.stdout).contains(&hex));

    let again = veribug_store(&["rm", &hex]);
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(!again.status.success(), "a second rm fails");
    assert!(
        stderr.contains(&format!("no entry with key {hex}")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = Command::new(BIN).arg("--help").output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"), "{stdout}");
    assert!(stdout.contains("veribug serve"), "{stdout}");
}

/// `veribug analyze` and `POST /v1/analyze` print one summary: the CLI's
/// `Dep_t` list is the body's `dep`, and every statement the CLI lists is a
/// `slice` entry of the body with the same id, depth and source.
#[test]
fn cli_and_server_analyze_agree() {
    let dir = scratch_dir("analyze");
    let design = dir.join("golden.v");
    std::fs::write(&design, GOLDEN).unwrap();
    let out = Command::new(BIN)
        .args(["analyze", "--target", "y", "--design"])
        .arg(&design)
        .output()
        .expect("run analyze");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (_, cli_dep) = stdout
        .lines()
        .find_map(|l| l.strip_prefix("Dep_t (")?.split_once("): "))
        .expect("a Dep_t line");
    let cli_stmts: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("static slice"))
        .skip(1)
        .collect();
    assert!(!cli_stmts.is_empty(), "CLI lists the slice: {stdout}");

    let (handle, join) = start(Default::default());
    let body = format!("{{\"design\":{},\"target\":\"y\"}}", encode(GOLDEN));
    let resp = request(handle.addr(), "POST", "/v1/analyze", &body);
    stop(&handle, join);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let doc = resp.json();
    let array = |key| doc.get(key).and_then(|a| a.as_arr()).unwrap().iter();
    let http_dep: Vec<&str> = array("dep").map(|d| d.as_str().unwrap()).collect();
    assert_eq!(cli_dep, http_dep.join(", "));
    let http_stmts: Vec<String> = array("slice")
        .filter_map(|e| {
            let (stmt, depth) = (e.get("stmt")?.as_str()?, e.get("depth")?.as_num()?);
            Some(format!(
                "  {stmt} (depth {depth}): {}",
                e.get("source")?.as_str()?
            ))
        })
        .collect();
    for line in cli_stmts {
        assert!(
            http_stmts.iter().any(|h| h == line),
            "`{line}` not in {}",
            resp.text()
        );
    }
}

/// The acceptance check: the CLI and the server produce byte-identical
/// suspect rankings for the same inputs (both run `veribug::localize`).
#[test]
fn cli_and_server_rank_suspects_identically() {
    let dir = scratch_dir("equiv");
    let golden_path = dir.join("golden.v");
    let buggy_path = dir.join("buggy.v");
    let model_path = dir.join("model.vbm");
    std::fs::write(&golden_path, GOLDEN).unwrap();
    std::fs::write(&buggy_path, BUGGY).unwrap();
    let model = veribug::model::VeriBugModel::new(veribug::model::ModelConfig::default());
    veribug::persist::save(&model, model_path.to_str().unwrap()).unwrap();

    let out = Command::new(BIN)
        .args([
            "localize",
            "--golden",
            golden_path.to_str().unwrap(),
            "--buggy",
            buggy_path.to_str().unwrap(),
            "--target",
            "y",
            "--model",
            model_path.to_str().unwrap(),
            "--runs",
            "24",
            "--cycles",
            "8",
            "--threshold",
            "0.01",
            "--quiet",
        ])
        .output()
        .expect("run localize");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cli_ranking: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("suspicious statements"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .collect();
    assert!(!cli_ranking.is_empty(), "CLI produced a ranking: {stdout}");

    // The same request through the serving layer.
    let server = veribug_serve::Server::bind(veribug_serve::ServerConfig {
        model_path: Some(model_path.to_str().unwrap().to_owned()),
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let resp = request(addr, "POST", "/v1/localize", &cli_equivalent_body());
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert_eq!(resp.status, 200, "response: {}", resp.text());
    let doc = resp.json();
    let server_ranking: Vec<String> = doc
        .get("suspects")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| {
            format!(
                "  {:.3}  {}  {}",
                s.get("suspiciousness").unwrap().as_num().unwrap(),
                s.get("stmt").unwrap().as_str().unwrap(),
                s.get("source").unwrap().as_str().unwrap()
            )
        })
        .collect();
    assert_eq!(
        cli_ranking, server_ranking,
        "CLI and server rankings are byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The attention-introspection acceptance check: `veribug explain
/// --attention` output (text and JSON) is byte-identical at 1/2/8 threads,
/// and the JSON is byte-identical to the `POST /v1/explain` body for the
/// same inputs.
#[test]
fn explain_attention_is_thread_invariant_and_matches_server() {
    let dir = scratch_dir("explain");
    let golden_path = dir.join("golden.v");
    let buggy_path = dir.join("buggy.v");
    let model_path = dir.join("model.vbm");
    std::fs::write(&golden_path, GOLDEN).unwrap();
    std::fs::write(&buggy_path, BUGGY).unwrap();
    let model = veribug::model::VeriBugModel::new(veribug::model::ModelConfig::default());
    veribug::persist::save(&model, model_path.to_str().unwrap()).unwrap();

    let run = |threads: &str, json: bool| -> String {
        let mut args = vec![
            "explain",
            "--golden",
            golden_path.to_str().unwrap(),
            "--buggy",
            buggy_path.to_str().unwrap(),
            "--target",
            "y",
            "--model",
            model_path.to_str().unwrap(),
            "--runs",
            "24",
            "--cycles",
            "8",
            "--threshold",
            "0.01",
            "--attention",
            "--quiet",
        ];
        if json {
            args.push("--json");
        }
        let out = Command::new(BIN)
            .args(&args)
            .env("VERIBUG_THREADS", threads)
            .output()
            .expect("run explain");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let text1 = run("1", false);
    let json1 = run("1", true);
    assert!(text1.contains("F_t:"), "heat-map rendered: {text1}");
    assert!(
        json1.contains("\"attributions\":["),
        "json rendered: {json1}"
    );
    for threads in ["2", "8"] {
        assert_eq!(text1, run(threads, false), "{threads}-thread text output");
        assert_eq!(json1, run(threads, true), "{threads}-thread json output");
    }

    // The same request through `POST /v1/explain`.
    let server = veribug_serve::Server::bind(veribug_serve::ServerConfig {
        model_path: Some(model_path.to_str().unwrap().to_owned()),
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let resp = request(addr, "POST", "/v1/explain", &cli_equivalent_body());
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert_eq!(resp.status, 200, "response: {}", resp.text());
    assert_eq!(
        json1,
        resp.text(),
        "CLI --json and /v1/explain bodies are byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `veribug serve` end to end as a subprocess: scrape the ephemeral port
/// from stdout, hit /healthz, drain via /v1/shutdown, and require a clean
/// exit. A second process booted over the first one's `--store` preloads
/// both designs and answers its first localize from the cache.
#[test]
fn serve_subcommand_runs_and_drains() {
    let store = scratch_dir("serve-store");
    let args = ["--quiet", "--store", store.to_str().expect("utf-8 path")];
    for (preloaded, cache) in [
        (0.0, "golden=miss,buggy=miss"),
        (2.0, "golden=hit,buggy=hit"),
    ] {
        let (child, _stdout, addr) = spawn_serve(&args, Stdio::null());

        assert_eq!(
            request(addr, "GET", "/healthz", "").status,
            200,
            "healthz is up"
        );
        let status = request(addr, "GET", "/statusz", "").json();
        let preload = status
            .get("store")
            .and_then(|s| s.get("preloaded")?.as_num());
        assert_eq!(preload, Some(preloaded));
        let resp = request(addr, "POST", "/v1/localize", &cli_equivalent_body());
        assert_eq!(resp.header("x-veribug-cache"), Some(cache));
        assert!(metric(addr, "store.bytes") > 0.0);
        assert!(metric(addr, "store.hits") >= preloaded);

        let resp = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(resp.status, 200, "shutdown accepted: {}", resp.text());
        let status = child.wait_with_output().status;
        assert!(status.success(), "serve exits 0 after drain");
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// A localize asking for more simulation than the server bounds is a 400
/// answered before any stimulus is generated, and the server stays up.
/// Unbounded, `runs: 1e13` aborts the process on its stimulus allocation.
#[test]
fn serve_refuses_oversized_localize_and_stays_up() {
    let (child, _stdout, addr) = spawn_serve(&["--quiet"], Stdio::null());

    let body = format!(
        "{{\"golden\":{},\"buggy\":{},\"target\":\"y\",\"options\":{{\"runs\":1e13}}}}",
        encode(GOLDEN),
        encode(BUGGY)
    );
    let resp = request(addr, "POST", "/v1/localize", &body);
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("bad_field"), "{}", resp.text());
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);

    let resp = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200, "shutdown accepted: {}", resp.text());
    assert!(child.wait_with_output().status.success());
}

/// With `--obs` the drain path renders the report, holding the served
/// request's spans; the CLI's at-exit report must then be a no-op (exactly
/// one render per process), and `--access-log` emits one JSON line per
/// request on stderr.
#[test]
fn serve_renders_the_obs_report_once_and_logs_access() {
    let dir = scratch_dir("serve-obs");
    // A `.jsonl` name still gets the Chrome trace: `--obs` writes one format.
    let trace_path = dir.join("serve-trace.jsonl");
    let (child, _stdout, addr) = spawn_serve(
        &[
            "--access-log",
            "--obs",
            trace_path.to_str().expect("utf-8 path"),
        ],
        Stdio::piped(),
    );

    let healthz = request_with(
        addr,
        "GET",
        "/healthz",
        &[("x-veribug-request-id", "cli-access-1")],
        "",
    );
    assert_eq!(healthz.status, 200, "healthz is up");
    // Twice, so the second is served from the golden-reference and
    // explainer memos.
    for _ in 0..2 {
        let localize = request(addr, "POST", "/v1/localize", &cli_equivalent_body());
        assert_eq!(localize.status, 200, "{}", localize.text());
    }
    // Every statement is in `y`'s slice, but `y`'s own lies outside
    // `t`'s, so the records-only pass must skip its records.
    let body = cli_equivalent_body().replace("\"target\":\"y\"", "\"target\":\"t\"");
    assert_eq!(request(addr, "POST", "/v1/localize", &body).status, 200);
    for name in [
        "sim.records_skipped",
        "sim.records_elided",
        "serve.golden_ref.hits",
        "serve.explainer.hits",
    ] {
        assert!(metric(addr, name) > 0.0, "{name}");
    }

    let resp = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(resp.status, 200, "shutdown accepted: {}", resp.text());

    let output = child.wait_with_output();
    assert!(output.status.success(), "serve exits 0 after drain");
    let stderr = String::from_utf8_lossy(&output.stderr);

    // Exactly one report render: the drain-path one; the at-exit call is
    // a no-op. Two of either marker means the double-render regressed.
    assert_eq!(
        stderr.matches("obs: trace written to").count(),
        1,
        "report rendered exactly once, stderr:\n{stderr}"
    );
    assert_eq!(
        stderr.matches("obs summary").count(),
        1,
        "summary rendered exactly once, stderr:\n{stderr}"
    );
    // The request's spans lived in its live trace and were handed to the
    // process log for the `--obs` file.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let v = obs::validate::chrome_trace(&trace).expect("trace validates");
    for name in ["serve.request", "explain.resolve"] {
        assert!(
            v.span_names.iter().any(|n| n == name),
            "{name} missing from {:?}",
            v.span_names
        );
    }

    // The access log carried the healthz request with the client's ID.
    let access = stderr
        .lines()
        .find(|l| l.contains("\"id\":\"cli-access-1\""))
        .expect("access log line for the healthz request");
    assert!(access.contains("\"path\":\"/healthz\""), "line: {access}");
    assert!(access.contains("\"status\":200"), "line: {access}");

    let _ = std::fs::remove_dir_all(&dir);
}
