//! Validates an exported observability file against the exporter schema.
//!
//! `ci/bench-smoke.sh` runs this against the trace emitted by
//! `bench_pipeline --smoke --obs obs.json`:
//!
//! ```text
//! obs_validate obs.json --require-span bench.simulate --require-counter-nonzero sim.comb_skips \
//!     --require-counter-nonzero sim.records_elided
//! ```
//!
//! `--accuracy` switches to the `BENCH_accuracy.json` schema produced by
//! `accuracy_bench` (the same script validates the smoke run's report):
//!
//! ```text
//! obs_validate --accuracy accuracy_smoke.json --require-counter-nonzero observable
//! ```
//!
//! The server's `/tracez` and `/metricsz` pages are schema-checked by the
//! serve crate's tests through `veribug_obs::validate::{tracez, metricsz}`.
//!
//! Exit status is nonzero on a schema violation or an unmet requirement.

use std::process::ExitCode;

use veribug_obs::validate;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut accuracy = false;
    let mut require_spans = Vec::new();
    let mut require_counters = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--accuracy" => accuracy = true,
            "--require-span" => match args.next() {
                Some(name) => require_spans.push(name),
                None => return usage("--require-span needs a value"),
            },
            "--require-counter-nonzero" => match args.next() {
                Some(name) => require_counters.push(name),
                None => return usage("--require-counter-nonzero needs a value"),
            },
            "-h" | "--help" => return usage(""),
            other if path.is_none() && !other.starts_with('-') => path = Some(arg),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return usage("missing trace file path");
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs_validate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if accuracy {
        validate::accuracy(&src)
    } else {
        validate::chrome_trace(&src)
    };
    let v = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obs_validate: {path}: schema violation: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for span in &require_spans {
        if !v.span_names.iter().any(|n| n == span) {
            eprintln!("obs_validate: {path}: required span `{span}` not present");
            ok = false;
        }
    }
    for counter in &require_counters {
        match v.counters.get(counter.as_str()) {
            Some(value) if *value > 0.0 => {}
            Some(_) => {
                eprintln!("obs_validate: {path}: counter `{counter}` is zero");
                ok = false;
            }
            None => {
                eprintln!("obs_validate: {path}: required counter `{counter}` not present");
                ok = false;
            }
        }
    }
    if !ok {
        return ExitCode::FAILURE;
    }
    println!(
        "obs_validate: {path}: OK ({} events, {} spans, {} counters)",
        v.events,
        v.span_names.len(),
        v.counters.len()
    );
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("obs_validate: {err}");
    }
    eprintln!(
        "usage: obs_validate [--accuracy] <trace.json> \
         [--require-span NAME]... [--require-counter-nonzero NAME]..."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
