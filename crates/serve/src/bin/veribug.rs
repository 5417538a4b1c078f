//! The `veribug` command-line tool: train, localize, explain, inject,
//! analyze, dump, serve, store, shard-front.
//!
//! ```text
//! veribug train    --out model.vbm [--designs N] [--epochs N] [--seed S]
//!                  [--log train_log.jsonl]
//! veribug localize --golden g.v --buggy b.v --target T --model model.vbm
//!                  [--runs N] [--cycles N] [--threshold X] [--ansi]
//! veribug explain  --golden g.v --buggy b.v --target T [--model model.vbm]
//!                  [--runs N] [--cycles N] [--threshold X]
//!                  [--attention] [--json] [--out PATH]
//! veribug inject   --design g.v --target T [--negation N] [--operation N]
//!                  [--misuse N] [--seed S] [--out-dir DIR]
//! veribug analyze  --design f.v --target T
//! veribug vcd      --design f.v [--cycles N] [--seed S] --out trace.vcd
//! veribug serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!                  [--deadline-ms N] [--max-body N] [--model model.vbm]
//!                  [--access-log] [--debug-endpoints] [--store DIR]
//! veribug store    ls|gc|rm KEY [--store DIR]
//! veribug shard-front [--addr HOST:PORT] [--backends H:P,...] [--spawn N]
//!                  [--model model.vbm] [--store DIR]
//! veribug --version
//! ```
//!
//! Every subcommand also accepts `--obs <path>` (or the `VERIBUG_OBS`
//! environment variable) to write a Chrome trace of the run, and `--quiet`
//! to suppress progress lines (see `veribug-obs`).
//!
//! Unknown subcommands and unknown `--flags` are hard errors that print
//! the valid set and exit nonzero.

use std::collections::HashMap;
use std::process::ExitCode;

use mutate::{BugBudget, Campaign};
use rvdg::{Generator, RvdgConfig};
use sim::{Simulator, TestbenchGen};
use veribug::localize::{self, LocalizeOptions};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::render::render_comparison;
use veribug::train::{self, Dataset, TrainConfig};
use veribug::{persist, AttributionReport, DEFAULT_THRESHOLD};
use veribug_serve::{api, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if command == "--version" || command == "-V" || command == "version" {
        println!("veribug {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == command.as_str()) else {
        eprintln!(
            "error: unknown command `{command}`; valid commands: {}\n\n{USAGE}",
            COMMANDS
                .iter()
                .map(|c| c.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };
    // `veribug store` takes a positional action (`ls`, `gc`, `rm <key>`)
    // ahead of its flags; everything else is flags-only.
    let mut positionals: Vec<(&'static str, String)> = Vec::new();
    let mut flag_args: &[String] = &args[1..];
    if command == "store" {
        match args.get(1).map(String::as_str) {
            Some(action @ ("ls" | "gc")) => {
                positionals.push(("action", action.to_owned()));
                flag_args = &args[2..];
            }
            Some("rm") => {
                let Some(key) = args.get(2).filter(|v| !v.starts_with("--")) else {
                    eprintln!("error: `veribug store rm` needs a key (16 hex digits, as printed by `veribug store ls`)");
                    return ExitCode::FAILURE;
                };
                positionals.push(("action", "rm".to_owned()));
                positionals.push(("key", key.clone()));
                flag_args = &args[3..];
            }
            Some(other) if !other.starts_with("--") => {
                eprintln!("error: unknown store action `{other}`; valid actions: gc, ls, rm <key>");
                return ExitCode::FAILURE;
            }
            _ => {
                eprintln!(
                    "error: `veribug store` needs an action; valid actions: gc, ls, rm <key>"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let opts = match parse_opts(flag_args, spec) {
        Ok(mut o) => {
            for (k, v) in positionals {
                o.insert(k.to_owned(), v);
            }
            o
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    obs::init(opts.get("obs").map(String::as_str));
    obs::set_quiet(opts.contains_key("quiet"));
    let result = (spec.run)(&opts);
    obs::report();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
veribug — attention-based bug localization for Verilog designs

USAGE:
  veribug train    --out model.vbm [--designs N] [--epochs N] [--seed S]
                   [--log train_log.jsonl]
  veribug localize --golden g.v --buggy b.v --target T --model model.vbm
                   [--runs N] [--cycles N] [--threshold X] [--ansi]
  veribug explain  --golden g.v --buggy b.v --target T [--model model.vbm]
                   [--runs N] [--cycles N] [--threshold X]
                   [--attention] [--json] [--out PATH]
  veribug inject   --design g.v --target T [--negation N] [--operation N]
                   [--misuse N] [--seed S] [--out-dir DIR]
  veribug analyze  --design f.v --target T
  veribug vcd      --design f.v [--cycles N] [--seed S] --out trace.vcd
  veribug serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
                   [--deadline-ms N] [--max-body N] [--model model.vbm]
                   [--access-log] [--debug-endpoints] [--store DIR]
  veribug store    ls|gc|rm KEY [--store DIR]
  veribug shard-front [--addr HOST:PORT] [--backends H:P,H:P,...]
                   [--spawn N] [--model model.vbm] [--store DIR]
  veribug --version

Persistent design store: `serve`, `store` and `shard-front` take
--store DIR (or the VERIBUG_STORE environment variable), which names an
on-disk store of design sources; VERIBUG_STORE_BUDGET caps its size in
bytes. `veribug serve` writes each compiled design through and preloads
the stored ones at startup, so restarts answer warm. `veribug train`
never reads or writes the store.

Every subcommand also accepts:
  --obs PATH   write a Chrome trace of the run
  --quiet      suppress progress lines on stderr";

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// One subcommand: its name, the flags it accepts, and its entry point.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&HashMap<String, String>) -> CmdResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "train",
        flags: &["out", "designs", "epochs", "seed", "log"],
        run: cmd_train,
    },
    Command {
        name: "localize",
        flags: &[
            "golden",
            "buggy",
            "target",
            "model",
            "runs",
            "cycles",
            "threshold",
            "ansi",
        ],
        run: cmd_localize,
    },
    Command {
        name: "explain",
        flags: &[
            "golden",
            "buggy",
            "target",
            "model",
            "runs",
            "cycles",
            "threshold",
            "attention",
            "json",
            "out",
        ],
        run: cmd_explain,
    },
    Command {
        name: "inject",
        flags: &[
            "design",
            "target",
            "negation",
            "operation",
            "misuse",
            "seed",
            "out-dir",
        ],
        run: cmd_inject,
    },
    Command {
        name: "analyze",
        flags: &["design", "target"],
        run: cmd_analyze,
    },
    Command {
        name: "vcd",
        flags: &["design", "cycles", "seed", "out"],
        run: cmd_vcd,
    },
    Command {
        name: "serve",
        flags: &[
            "addr",
            "workers",
            "queue",
            "cache",
            "deadline-ms",
            "max-body",
            "model",
            "access-log",
            "debug-endpoints",
            "store",
        ],
        run: cmd_serve,
    },
    Command {
        name: "store",
        flags: &["store"],
        run: cmd_store,
    },
    Command {
        name: "shard-front",
        flags: &["addr", "backends", "spawn", "model", "store"],
        run: cmd_shard_front,
    },
];

/// Resolves the persistent-store root: `--store PATH` wins, then the
/// `VERIBUG_STORE` environment variable; `None` disables the store.
fn store_root(opts: &HashMap<String, String>) -> Option<String> {
    opts.get("store").cloned().or_else(|| {
        std::env::var(store::ENV_ROOT)
            .ok()
            .filter(|v| !v.is_empty())
    })
}

/// Flags every subcommand accepts.
const COMMON_FLAGS: &[&str] = &["obs", "quiet"];

fn parse_opts(args: &[String], spec: &Command) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument `{a}` for `veribug {}` (flags start with --)",
                spec.name
            ));
        };
        if !spec.flags.contains(&key) && !COMMON_FLAGS.contains(&key) {
            let mut valid: Vec<&str> = spec.flags.iter().chain(COMMON_FLAGS).copied().collect();
            valid.sort_unstable();
            return Err(format!(
                "unknown option --{key} for `veribug {}`; valid options: {}",
                spec.name,
                valid
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        match value {
            Some(v) => {
                out.insert(key.to_owned(), v.clone());
                i += 2;
            }
            None => {
                out.insert(key.to_owned(), "true".to_owned());
                i += 1;
            }
        }
    }
    Ok(out)
}

fn required<'o>(opts: &'o HashMap<String, String>, key: &str) -> Result<&'o str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn numeric<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<T>()
            .map_err(|e| format!("bad value for --{key}: {e}")),
    }
}

/// The `--runs`, `--cycles` and `--threshold` options `localize` and
/// `explain` share; the threshold must be finite.
fn localize_options(opts: &HashMap<String, String>) -> Result<LocalizeOptions, String> {
    let threshold: f32 = numeric(opts, "threshold", DEFAULT_THRESHOLD)?;
    if !threshold.is_finite() {
        return Err(format!(
            "bad value for --threshold: {threshold} is not finite"
        ));
    }
    Ok(LocalizeOptions {
        runs: numeric(opts, "runs", 160)?,
        cycles: numeric(opts, "cycles", 16)?,
        threshold,
        ..LocalizeOptions::default()
    })
}

fn load_module(path: &str) -> Result<verilog::Module, Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(verilog::parse(&source)
        .map_err(|e| format!("{path}: {e}"))?
        .top()
        .clone())
}

fn cmd_train(opts: &HashMap<String, String>) -> CmdResult {
    let out = required(opts, "out")?;
    let designs: usize = numeric(opts, "designs", 32)?;
    let epochs: usize = numeric(opts, "epochs", 80)?;
    let seed: u64 = numeric(opts, "seed", 1234)?;
    obs::progress!("generating {designs} RVDG designs (seed {seed})...");
    let corpus: Vec<_> = {
        let _span = obs::span("generate");
        Generator::new(RvdgConfig::default(), seed)
            .generate_corpus(designs)?
            .into_iter()
            .map(|d| d.module)
            .collect()
    };
    let dataset = {
        let _span = obs::span("simulate");
        Dataset::from_designs(&corpus, seed ^ 1, 64, 3)?
    };
    obs::progress!("dataset: {} unique statement executions", dataset.len());
    let mut model = VeriBugModel::new(ModelConfig::default());
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let report = train::train(&mut model, &dataset, &cfg)?;
    obs::progress!(
        "trained {epochs} epochs; loss {:.4} -> {:.4}",
        report.epoch_losses.first().unwrap_or(&0.0),
        report.epoch_losses.last().unwrap_or(&0.0)
    );
    persist::save(&model, out)?;
    let log = opts.get("log").map_or("train_log.jsonl", String::as_str);
    train::append_train_log(std::path::Path::new(log), &report, &cfg, &model)?;
    obs::progress!("model written to {out}, epoch telemetry appended to {log}");
    Ok(())
}

fn cmd_explain(opts: &HashMap<String, String>) -> CmdResult {
    let localize_opts = localize_options(opts)?;
    let (golden, buggy) = {
        let _span = obs::span("parse");
        (
            load_module(required(opts, "golden")?)?,
            load_module(required(opts, "buggy")?)?,
        )
    };
    let target = required(opts, "target")?;
    // Without --model, explain the freshly initialized (untrained) model —
    // the same fallback `veribug serve` uses, so CLI and `/v1/explain`
    // output can be compared directly.
    let model = match opts.get("model") {
        Some(path) => persist::load(path)?,
        None => VeriBugModel::new(ModelConfig::default()),
    };
    let report = localize::run(&model, &golden, &buggy, target, &localize_opts)?;
    let rendered = if opts.contains_key("attention") {
        let att = AttributionReport::from_localize(&model, &buggy, &report);
        if opts.contains_key("json") {
            att.to_json()
        } else {
            att.to_text()
        }
    } else {
        // Plain mode: the Fig. 4-style side-by-side comparison.
        format!(
            "{}\n",
            render_comparison(&buggy, &report.heatmap, &report.correct_map, false)
        )
    };
    match opts.get("out") {
        Some(path) => std::fs::write(path, rendered)?,
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cmd_localize(opts: &HashMap<String, String>) -> CmdResult {
    let localize_opts = localize_options(opts)?;
    let (golden, buggy) = {
        let _span = obs::span("parse");
        (
            load_module(required(opts, "golden")?)?,
            load_module(required(opts, "buggy")?)?,
        )
    };
    let target = required(opts, "target")?;
    let model = persist::load(required(opts, "model")?)?;
    let ansi = opts.contains_key("ansi");

    let report = localize::run(&model, &golden, &buggy, target, &localize_opts)?;
    obs::progress!(
        "{}/{} runs expose a failure at {target}",
        report.failing_runs,
        report.total_runs
    );
    if !report.has_failures() {
        return Err("no failing runs: nothing to localize".into());
    }
    if report.suspects.is_empty() {
        println!(
            "heatmap is empty: no statement crossed the {} threshold",
            localize_opts.threshold
        );
        return Ok(());
    }
    println!("suspicious statements (most suspicious first):");
    for s in &report.suspects {
        println!("  {:.3}  {}  {}", s.suspiciousness, s.stmt, s.source);
    }
    // Render the comparison view for the top candidates.
    println!(
        "\n{}",
        render_comparison(&buggy, &report.heatmap, &report.correct_map, ansi)
    );
    Ok(())
}

fn cmd_inject(opts: &HashMap<String, String>) -> CmdResult {
    let design = load_module(required(opts, "design")?)?;
    let target = required(opts, "target")?;
    let budget = BugBudget {
        negation: numeric(opts, "negation", 2)?,
        operation: numeric(opts, "operation", 2)?,
        misuse: numeric(opts, "misuse", 2)?,
    };
    let seed: u64 = numeric(opts, "seed", 7)?;
    let out_dir = opts.get("out-dir").cloned();

    let mutants = Campaign::new(seed).run(&design, target, &budget)?;
    println!(
        "{} mutants produced, {} observable at {target}",
        mutants.len(),
        mutants.iter().filter(|m| m.observable).count()
    );
    for (i, m) in mutants.iter().enumerate() {
        println!(
            "  mutant {i}: {} at {} ({})",
            m.site.kind,
            m.site.stmt,
            if m.observable { "observable" } else { "masked" }
        );
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir)?;
            let path = format!("{dir}/mutant_{i}.v");
            std::fs::write(&path, &m.source)?;
        }
    }
    if let Some(dir) = &out_dir {
        println!("mutant sources written to {dir}/");
    }
    Ok(())
}

fn cmd_analyze(opts: &HashMap<String, String>) -> CmdResult {
    let design = load_module(required(opts, "design")?)?;
    let summary = api::analyze(&design, required(opts, "target")?, 8);
    println!("module {}", summary.module);
    println!("target {}", summary.target);
    println!("Dep_t ({}): {}", summary.dep.len(), summary.dep.join(", "));
    println!("static slice ({} statements):", summary.slice.len());
    for (stmt, assignment) in &summary.slice {
        if let Some((depth, source)) = assignment {
            println!("  {stmt} (depth {depth}): {source}");
        }
    }
    Ok(())
}

fn cmd_vcd(opts: &HashMap<String, String>) -> CmdResult {
    let design = load_module(required(opts, "design")?)?;
    let out = required(opts, "out")?;
    let cycles: usize = numeric(opts, "cycles", 64)?;
    let seed: u64 = numeric(opts, "seed", 1)?;
    let mut sim = Simulator::new(&design)?;
    let stim = TestbenchGen::new(seed).generate(sim.netlist(), cycles);
    let trace = sim.run(&stim)?;
    std::fs::write(out, sim::to_vcd(sim.netlist(), &trace, 10))?;
    println!("{cycles} cycles dumped to {out}");
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> CmdResult {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned()),
        workers: numeric(opts, "workers", defaults.workers)?,
        queue_capacity: numeric(opts, "queue", defaults.queue_capacity)?,
        cache_capacity: numeric(opts, "cache", defaults.cache_capacity)?,
        deadline: std::time::Duration::from_millis(numeric(
            opts,
            "deadline-ms",
            defaults.deadline.as_millis() as u64,
        )?),
        max_body_bytes: numeric(opts, "max-body", defaults.max_body_bytes)?,
        model_path: opts.get("model").cloned(),
        telemetry: true,
        access_log: opts.contains_key("access-log"),
        debug_endpoints: opts.contains_key("debug-endpoints"),
        store_path: store_root(opts),
        backends: Vec::new(),
    };
    let workers = config.workers;
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    // The scrape-friendly line CI and scripts wait for; flushed so readers
    // on a pipe see it before the first request lands.
    println!("veribug-serve listening on {addr} ({workers} workers)");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run()?;
    println!("veribug-serve drained and stopped");
    Ok(())
}

fn open_store(opts: &HashMap<String, String>) -> Result<store::Store, Box<dyn std::error::Error>> {
    let root = store_root(opts).ok_or(
        "no store configured: pass --store PATH or set the VERIBUG_STORE environment variable",
    )?;
    Ok(store::Store::open(root, store::env_budget()?)?)
}

fn cmd_store(opts: &HashMap<String, String>) -> CmdResult {
    let s = open_store(opts)?;
    match opts.get("action").map(String::as_str) {
        Some("ls") => {
            let rows = s.list()?;
            println!("{:<16} {:>10} {:>8}", "key", "bytes", "age_s");
            for row in &rows {
                println!(
                    "{:<16} {:>10} {:>8}",
                    store::hash::key_hex(row.key),
                    row.bytes,
                    row.age.as_secs()
                );
            }
            let total: u64 = rows.iter().map(|r| r.bytes).sum();
            println!(
                "{} entries, {total} bytes (budget {} bytes) in {}",
                rows.len(),
                s.budget(),
                s.root().display()
            );
        }
        Some("gc") => {
            let report = s.gc()?;
            println!(
                "evicted {} entries ({} bytes); {} bytes resident under a {}-byte budget",
                report.removed,
                report.freed,
                report.remaining_bytes,
                s.budget()
            );
        }
        Some("rm") => {
            let raw = required(opts, "key")?;
            let key = store::hash::parse_key(raw)
                .ok_or_else(|| format!("bad key `{raw}`: expected 16 lowercase hex digits"))?;
            if !s.remove(key)? {
                return Err(format!("no entry with key {raw}").into());
            }
            println!("removed entry {raw}");
        }
        _ => unreachable!("main validates the store action"),
    }
    Ok(())
}

fn cmd_shard_front(opts: &HashMap<String, String>) -> CmdResult {
    let mut backends: Vec<String> = opts
        .get("backends")
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(ToOwned::to_owned)
                .collect()
        })
        .unwrap_or_default();
    let spawn: usize = numeric(opts, "spawn", 0)?;
    let mut children = Vec::new();
    for i in 0..spawn {
        let (child, addr) = spawn_backend(i, opts)?;
        children.push(child);
        backends.push(addr);
    }
    if backends.is_empty() {
        return Err(
            "no backends: pass --backends HOST:PORT[,HOST:PORT...] and/or --spawn N".into(),
        );
    }
    let n_backends = backends.len();
    let config = ServerConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8081".to_owned()),
        model_path: opts.get("model").cloned(),
        store_path: store_root(opts),
        backends,
        ..ServerConfig::default()
    };
    // Spawned backends are stopped however the front ends, a failed bind
    // included.
    let result = Server::bind(config).and_then(|front| {
        let addr = front.local_addr()?;
        println!("veribug-shard-front listening on {addr} ({n_backends} backends)");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        front.run()
    });
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    result?;
    println!("veribug-shard-front stopped");
    Ok(())
}

/// Spawns one `veribug serve` child on an ephemeral port and returns it
/// with its bound address (scraped from the "listening on" line).
fn spawn_backend(
    index: usize,
    opts: &HashMap<String, String>,
) -> Result<(std::process::Child, String), Box<dyn std::error::Error>> {
    use std::io::BufRead as _;
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["serve", "--addr", "127.0.0.1:0"]);
    if let Some(model) = opts.get("model") {
        cmd.args(["--model", model]);
    }
    if let Some(root) = store_root(opts) {
        // Each backend gets its own store subtree: consistent hashing
        // partitions designs across the fleet, so their stores partition
        // too.
        cmd.args(["--store", &format!("{root}/backend-{index}")]);
    }
    cmd.stdout(std::process::Stdio::piped());
    cmd.stderr(std::process::Stdio::null());
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            return Err(format!("backend {index} exited before reporting its address").into());
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_owned();
        }
    };
    // Keep draining the child's stdout so it never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok((child, addr))
}
