//! The `veribug` command-line tool: train, localize, explain, inject,
//! analyze, dump, serve, store, shard-front. `USAGE` below (printed by
//! `veribug --help`) lists each subcommand's flags.
//!
//! Every subcommand also accepts `--obs <path>` (or the `VERIBUG_OBS`
//! environment variable) to write a Chrome trace of the run, and `--quiet`
//! to suppress progress lines (see `veribug-obs`).
//!
//! Unknown subcommands are hard errors that print the valid set and exit
//! nonzero; flags are read by `obs::cli`, which does the same for an
//! unknown or malformed flag.

use std::process::ExitCode;

use mutate::{BugBudget, Campaign};
use obs::cli::{self, Opts};
use rvdg::{Generator, RvdgConfig};
use sim::{Simulator, TestbenchGen};
use veribug::localize::{self, LocalizeOptions};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::render::render_comparison;
use veribug::train::{self, Dataset, TrainConfig};
use veribug::{persist, AttributionReport};
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
    let Some(cmd) = COMMANDS.iter().find(|c| c.name() == command.as_str()) else {
        let names: Vec<&str> = COMMANDS.iter().map(Command::name).collect();
        let valid = names.join(", ");
        cli::fail(&format!(
            "unknown command `{command}`; valid commands: {valid}\n\n{USAGE}"
        ));
    };
    // `veribug store` takes a positional action (`ls`, `gc`, `rm <key>`)
    // ahead of its flags; everything else is flags-only.
    let mut positionals: Vec<(&str, &String)> = Vec::new();
    if command == "store" {
        match args.get(1).map(String::as_str) {
            Some("ls" | "gc") => positionals.push(("action", &args[1])),
            Some("rm") => {
                let Some(key) = args.get(2).filter(|v| !v.starts_with("--")) else {
                    cli::fail("`veribug store rm` needs a key (16 hex digits, as printed by `veribug store ls`)");
                };
                positionals.extend([("action", &args[1]), ("key", key)]);
            }
            Some(other) if !other.starts_with("--") => cli::fail(&format!(
                "unknown store action `{other}`; valid actions: gc, ls, rm <key>"
            )),
            _ => cli::fail("`veribug store` needs an action; valid actions: gc, ls, rm <key>"),
        }
    }
    let mut opts = cli::init(&cmd.spec, &args[1 + positionals.len()..]);
    for (key, value) in positionals {
        opts.insert(key, value.clone());
    }
    let result = (cmd.run)(&opts);
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

/// One subcommand: the flags it accepts and its entry point.
struct Command {
    spec: cli::Spec,
    run: fn(&Opts) -> CmdResult,
}

impl Command {
    fn name(&self) -> &'static str {
        self.spec.name.trim_start_matches("veribug ")
    }
}

const COMMANDS: &[Command] = &[
    Command {
        spec: cli::Spec {
            name: "veribug train",
            switches: &[],
            values: &["out", "designs", "epochs", "seed", "log"],
        },
        run: cmd_train,
    },
    Command {
        spec: cli::Spec {
            name: "veribug localize",
            switches: &["ansi"],
            values: &[
                "golden",
                "buggy",
                "target",
                "model",
                "runs",
                "cycles",
                "threshold",
            ],
        },
        run: cmd_localize,
    },
    Command {
        spec: cli::Spec {
            name: "veribug explain",
            switches: &["attention", "json"],
            values: &[
                "golden",
                "buggy",
                "target",
                "model",
                "runs",
                "cycles",
                "threshold",
                "out",
            ],
        },
        run: cmd_explain,
    },
    Command {
        spec: cli::Spec {
            name: "veribug inject",
            switches: &[],
            values: &[
                "design",
                "target",
                "negation",
                "operation",
                "misuse",
                "seed",
                "out-dir",
            ],
        },
        run: cmd_inject,
    },
    Command {
        spec: cli::Spec {
            name: "veribug analyze",
            switches: &[],
            values: &["design", "target"],
        },
        run: cmd_analyze,
    },
    Command {
        spec: cli::Spec {
            name: "veribug vcd",
            switches: &[],
            values: &["design", "cycles", "seed", "out"],
        },
        run: cmd_vcd,
    },
    Command {
        spec: cli::Spec {
            name: "veribug serve",
            switches: &["access-log", "debug-endpoints"],
            values: &[
                "addr",
                "workers",
                "queue",
                "cache",
                "deadline-ms",
                "max-body",
                "model",
                "store",
            ],
        },
        run: cmd_serve,
    },
    Command {
        spec: cli::Spec {
            name: "veribug store",
            switches: &[],
            values: &["store"],
        },
        run: cmd_store,
    },
    Command {
        spec: cli::Spec {
            name: "veribug shard-front",
            switches: &[],
            values: &["addr", "backends", "spawn", "model", "store"],
        },
        run: cmd_shard_front,
    },
];

/// Resolves the persistent-store root: `--store PATH` wins, then the
/// `VERIBUG_STORE` environment variable; `None` disables the store.
fn store_root(opts: &Opts) -> Option<String> {
    opts.get("store").map(str::to_owned).or_else(|| {
        std::env::var(store::ENV_ROOT)
            .ok()
            .filter(|v| !v.is_empty())
    })
}

/// The `--runs`, `--cycles` and `--threshold` options `localize` and
/// `explain` share, defaulting to [`LocalizeOptions::default`]; the
/// threshold must be finite.
fn localize_options(opts: &Opts) -> Result<LocalizeOptions, String> {
    let defaults = LocalizeOptions::default();
    let threshold: f32 = opts.numeric("threshold", defaults.threshold)?;
    if !threshold.is_finite() {
        return Err(format!(
            "bad value for --threshold: {threshold} is not finite"
        ));
    }
    Ok(LocalizeOptions {
        runs: opts.numeric("runs", defaults.runs)?,
        cycles: opts.numeric("cycles", defaults.cycles)?,
        threshold,
        ..defaults
    })
}

fn load_module(path: &str) -> Result<verilog::Module, Box<dyn std::error::Error>> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(verilog::parse(&source)
        .map_err(|e| format!("{path}: {e}"))?
        .top()
        .clone())
}

fn cmd_train(opts: &Opts) -> CmdResult {
    let out = opts.required("out")?;
    let designs: usize = opts.numeric("designs", 32)?;
    let epochs: usize = opts.numeric("epochs", 80)?;
    let seed: u64 = opts.numeric("seed", 1234)?;
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
    let log = opts.get("log").unwrap_or("train_log.jsonl");
    train::append_train_log(std::path::Path::new(log), &report, &cfg, &model)?;
    obs::progress!("model written to {out}, epoch telemetry appended to {log}");
    Ok(())
}

fn cmd_explain(opts: &Opts) -> CmdResult {
    let localize_opts = localize_options(opts)?;
    let (golden, buggy) = {
        let _span = obs::span("parse");
        (
            load_module(opts.required("golden")?)?,
            load_module(opts.required("buggy")?)?,
        )
    };
    let target = opts.required("target")?;
    // Without --model, explain the freshly initialized (untrained) model —
    // the same fallback `veribug serve` uses, so CLI and `/v1/explain`
    // output can be compared directly.
    let model = match opts.get("model") {
        Some(path) => persist::load(path)?,
        None => VeriBugModel::new(ModelConfig::default()),
    };
    let report = localize::run(&model, &golden, &buggy, target, &localize_opts)?;
    let rendered = if opts.has("attention") {
        let att = AttributionReport::from_localize(&model, &buggy, &report);
        if opts.has("json") {
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

fn cmd_localize(opts: &Opts) -> CmdResult {
    let localize_opts = localize_options(opts)?;
    let (golden, buggy) = {
        let _span = obs::span("parse");
        (
            load_module(opts.required("golden")?)?,
            load_module(opts.required("buggy")?)?,
        )
    };
    let target = opts.required("target")?;
    let model = persist::load(opts.required("model")?)?;
    let ansi = opts.has("ansi");

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

fn cmd_inject(opts: &Opts) -> CmdResult {
    let design = load_module(opts.required("design")?)?;
    let target = opts.required("target")?;
    let budget = BugBudget {
        negation: opts.numeric("negation", 2)?,
        operation: opts.numeric("operation", 2)?,
        misuse: opts.numeric("misuse", 2)?,
    };
    let seed: u64 = opts.numeric("seed", 7)?;
    let out_dir = opts.get("out-dir").map(str::to_owned);

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

fn cmd_analyze(opts: &Opts) -> CmdResult {
    let design = load_module(opts.required("design")?)?;
    let summary = api::analyze(&design, opts.required("target")?, 8);
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

fn cmd_vcd(opts: &Opts) -> CmdResult {
    let design = load_module(opts.required("design")?)?;
    let out = opts.required("out")?;
    let cycles: usize = opts.numeric("cycles", 64)?;
    let seed: u64 = opts.numeric("seed", 1)?;
    let mut sim = Simulator::new(&design)?;
    let stim = TestbenchGen::new(seed).generate(sim.netlist(), cycles);
    let trace = sim.run(&stim)?;
    std::fs::write(out, sim::to_vcd(sim.netlist(), &trace, 10))?;
    println!("{cycles} cycles dumped to {out}");
    Ok(())
}

fn cmd_serve(opts: &Opts) -> CmdResult {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: opts
            .get("addr")
            .map(str::to_owned)
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned()),
        workers: opts.numeric("workers", defaults.workers)?,
        queue_capacity: opts.numeric("queue", defaults.queue_capacity)?,
        cache_capacity: opts.numeric("cache", defaults.cache_capacity)?,
        deadline: std::time::Duration::from_millis(
            opts.numeric("deadline-ms", defaults.deadline.as_millis() as u64)?,
        ),
        max_body_bytes: opts.numeric("max-body", defaults.max_body_bytes)?,
        model_path: opts.get("model").map(str::to_owned),
        telemetry: true,
        access_log: opts.has("access-log"),
        debug_endpoints: opts.has("debug-endpoints"),
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

fn open_store(opts: &Opts) -> Result<store::Store, Box<dyn std::error::Error>> {
    let root = store_root(opts).ok_or(
        "no store configured: pass --store PATH or set the VERIBUG_STORE environment variable",
    )?;
    Ok(store::Store::open(root, store::env_budget()?)?)
}

fn cmd_store(opts: &Opts) -> CmdResult {
    let s = open_store(opts)?;
    match opts.get("action") {
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
            let raw = opts.required("key")?;
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

fn cmd_shard_front(opts: &Opts) -> CmdResult {
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
    let spawn: usize = opts.numeric("spawn", 0)?;
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
            .map(str::to_owned)
            .unwrap_or_else(|| "127.0.0.1:8081".to_owned()),
        model_path: opts.get("model").map(str::to_owned),
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
    opts: &Opts,
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
