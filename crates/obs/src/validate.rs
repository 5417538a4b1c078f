//! Schema self-checks for the exporter outputs, used by the
//! `obs_validate` binary (CI runs it against `bench_pipeline --smoke
//! --obs obs.json`) and by tests.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// What a successful validation saw, for `--require-*` checks and summary
/// printing.
#[derive(Debug, Default)]
pub struct Validated {
    /// Total trace events (spans + instants + metadata).
    pub events: usize,
    /// Distinct span names.
    pub span_names: Vec<String>,
    /// Counter totals from the metrics block.
    pub counters: BTreeMap<String, f64>,
}

/// Validates a Chrome `trace_event` export produced by
/// [`crate::export::chrome_trace`].
///
/// Checks the envelope (`traceEvents` array + `metrics` object), then every
/// event: required `name`/`ph`/`pid`/`tid` fields, a known phase, `ts` on
/// span/instant events and `dur` on complete events.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn chrome_trace(src: &str) -> Result<Validated, String> {
    let doc = json::parse(src)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents`")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    let mut v = Validated {
        events: events.len(),
        ..Validated::default()
    };
    for (i, e) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}]: bad or missing `{field}`");
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("ph"))?;
        e.get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("pid"))?;
        e.get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("tid"))?;
        match ph {
            "X" => {
                e.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("ts"))?;
                let dur = e
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("dur"))?;
                if dur < 0.0 {
                    return Err(format!("traceEvents[{i}]: negative dur"));
                }
                v.span_names.push(name.to_owned());
            }
            "i" => {
                e.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("ts"))?;
            }
            "M" => {}
            other => return Err(format!("traceEvents[{i}]: unknown phase `{other}`")),
        }
    }
    v.span_names.sort();
    v.span_names.dedup();
    let metrics = doc.get("metrics").ok_or("missing `metrics` block")?;
    v.counters = metrics_counters(metrics)?;
    for section in ["gauges", "histograms"] {
        metrics
            .get(section)
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("metrics: `{section}` missing or not an object"))?;
    }
    for (name, h) in metrics.get("histograms").unwrap().as_obj().unwrap() {
        for field in ["count", "sum", "mean", "min", "max", "p50", "p90", "p99"] {
            h.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("histogram `{name}`: bad or missing `{field}`"))?;
        }
    }
    Ok(v)
}

/// Validates a `/tracez` JSON page as served by `veribug serve`.
///
/// Checks the envelope (`ring` occupancy object + `traces` array), then
/// every trace: required identity fields, a known `keep` verdict
/// consistent with `sampled`, digests carrying no span tree, span records
/// with the full field set and in-trace parent linkage (skipped when the
/// trace reports dropped spans), and numeric counter attributions.
///
/// The returned [`Validated`] counts every span as an event, collects
/// distinct span names, and sums counter attributions across traces.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn tracez(src: &str) -> Result<Validated, String> {
    let doc = json::parse(src)?;
    let ring = doc.get("ring").ok_or("missing `ring`")?;
    for field in ["retained", "sampled", "active"] {
        ring.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("ring: bad or missing `{field}`"))?;
    }
    let traces = doc
        .get("traces")
        .ok_or("missing `traces`")?
        .as_arr()
        .ok_or("`traces` is not an array")?;
    let mut v = Validated::default();
    for (i, t) in traces.iter().enumerate() {
        let ctx = |field: &str| format!("traces[{i}]: bad or missing `{field}`");
        for field in ["id", "method", "path"] {
            t.get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| ctx(field))?;
        }
        for field in ["seq", "status", "start_us", "dur_us", "dropped_spans"] {
            t.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| ctx(field))?;
        }
        let keep = t
            .get("keep")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("keep"))?;
        if !matches!(keep, "error" | "slow" | "digest") {
            return Err(format!("traces[{i}]: unknown keep verdict `{keep}`"));
        }
        let sampled = t
            .get("sampled")
            .and_then(Json::as_bool)
            .ok_or_else(|| ctx("sampled"))?;
        if sampled == (keep == "digest") {
            return Err(format!(
                "traces[{i}]: `sampled`={sampled} contradicts keep=`{keep}`"
            ));
        }
        let spans = t
            .get("spans")
            .ok_or_else(|| ctx("spans"))?
            .as_arr()
            .ok_or_else(|| ctx("spans"))?;
        if keep == "digest" && !spans.is_empty() {
            return Err(format!("traces[{i}]: digest trace carries a span tree"));
        }
        let mut ids = Vec::with_capacity(spans.len());
        for (j, s) in spans.iter().enumerate() {
            let sctx = |field: &str| format!("traces[{i}].spans[{j}]: bad or missing `{field}`");
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| sctx("name"))?;
            for field in ["tid", "id", "parent", "ts_us", "dur_us"] {
                s.get(field)
                    .and_then(Json::as_num)
                    .ok_or_else(|| sctx(field))?;
            }
            ids.push(s.get("id").and_then(Json::as_num).unwrap_or(0.0));
            v.events += 1;
            v.span_names.push(name.to_owned());
        }
        let dropped = t.get("dropped_spans").and_then(Json::as_num).unwrap_or(0.0);
        if dropped == 0.0 {
            for (j, s) in spans.iter().enumerate() {
                let parent = s.get("parent").and_then(Json::as_num).unwrap_or(0.0);
                if parent != 0.0 && !ids.contains(&parent) {
                    return Err(format!(
                        "traces[{i}].spans[{j}]: parent {parent} not in trace"
                    ));
                }
            }
        }
        let counters = t
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| ctx("counters"))?;
        for (name, value) in counters {
            let n = value
                .as_num()
                .ok_or_else(|| format!("traces[{i}]: counter `{name}` is not a number"))?;
            *v.counters.entry(name.clone()).or_insert(0.0) += n;
        }
    }
    v.span_names.sort();
    v.span_names.dedup();
    Ok(v)
}

/// Validates a `BENCH_accuracy.json` report produced by `accuracy_bench`
/// (schema `veribug-accuracy v1`).
///
/// Checks the envelope (schema tag, seed manifest, weights hash, the
/// cross-thread determinism verdict — `false` is a violation, since the
/// artifact's numbers are meaningless if they depend on the worker count),
/// the `overall`/`designs`/`classes` precision blocks (counts plus
/// `p_at_1/3/5` and `mrr`, all within `[0, 1]`), and both quality
/// distributions.
///
/// The returned [`Validated`] carries the overall `injected`/`observable`
/// counts as counters so `--require-counter-nonzero observable` works.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn accuracy(src: &str) -> Result<Validated, String> {
    let doc = json::parse(src)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != "veribug-accuracy v1" {
        return Err(format!("unknown schema `{schema}`"));
    }
    let manifest = doc.get("seed_manifest").ok_or("missing `seed_manifest`")?;
    for field in ["train_seed", "campaign_seed_base", "rvdg_seed"] {
        manifest
            .get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("seed_manifest: bad or missing `{field}`"))?;
    }
    let threads = manifest
        .get("threads_checked")
        .and_then(Json::as_arr)
        .ok_or("seed_manifest: `threads_checked` missing or not an array")?;
    if threads.is_empty() || threads.iter().any(|t| t.as_num().is_none()) {
        return Err("seed_manifest: `threads_checked` must be a non-empty number array".into());
    }
    let hash = doc
        .get("weights_hash")
        .and_then(Json::as_str)
        .ok_or("missing `weights_hash`")?;
    if hash.len() != 16 || !hash.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("`weights_hash` is not 16 hex chars: `{hash}`"));
    }
    match doc
        .get("deterministic_across_threads")
        .and_then(Json::as_bool)
    {
        Some(true) => {}
        Some(false) => return Err("`deterministic_across_threads` is false".into()),
        None => return Err("missing `deterministic_across_threads`".into()),
    }
    let check_agg = |ctx: &str, block: &Json| -> Result<(f64, f64), String> {
        let num = |field: &str| {
            block
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{ctx}: bad or missing `{field}`"))
        };
        let injected = num("injected")?;
        let observable = num("observable")?;
        for field in ["p_at_1", "p_at_3", "p_at_5", "mrr"] {
            let p = num(field)?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{ctx}: `{field}` = {p} outside [0, 1]"));
            }
        }
        Ok((injected, observable))
    };
    let overall = doc.get("overall").ok_or("missing `overall`")?;
    let (injected, observable) = check_agg("overall", overall)?;
    let mut v = Validated::default();
    v.counters.insert("injected".to_owned(), injected);
    v.counters.insert("observable".to_owned(), observable);
    let designs = doc
        .get("designs")
        .and_then(Json::as_arr)
        .ok_or("`designs` missing or not an array")?;
    if designs.is_empty() {
        return Err("`designs` is empty".into());
    }
    for (i, d) in designs.iter().enumerate() {
        for field in ["name", "target"] {
            d.get(field)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("designs[{i}]: bad or missing `{field}`"))?;
        }
        let corpus = d
            .get("corpus")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("designs[{i}]: bad or missing `corpus`"))?;
        if !matches!(corpus, "catalog" | "rvdg") {
            return Err(format!("designs[{i}]: unknown corpus `{corpus}`"));
        }
        check_agg(&format!("designs[{i}]"), d)?;
        v.events += 1;
    }
    let classes = doc
        .get("classes")
        .and_then(Json::as_arr)
        .ok_or("`classes` missing or not an array")?;
    if classes.is_empty() {
        return Err("`classes` is empty".into());
    }
    for (i, c) in classes.iter().enumerate() {
        c.get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("classes[{i}]: bad or missing `kind`"))?;
        check_agg(&format!("classes[{i}]"), c)?;
    }
    let dists = doc.get("distributions").ok_or("missing `distributions`")?;
    for name in ["attention_entropy", "score_margin"] {
        let d = dists
            .get(name)
            .ok_or_else(|| format!("distributions: missing `{name}`"))?;
        for field in ["count", "mean", "min", "max", "p50", "p90", "p99"] {
            d.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("distribution `{name}`: bad or missing `{field}`"))?;
        }
    }
    Ok(v)
}

/// Validates a `/metricsz` JSON body as served by `veribug serve` (and
/// the shard front): the `counters`/`gauges`/`histograms` envelope,
/// numeric values throughout, the full percentile field set on every
/// histogram, and a numeric `dropped_events`.
///
/// The returned [`Validated`] merges counters *and* gauges into
/// `counters`, so one lookup by name reads either: the `veribug serve`
/// CLI tests read `store.hits` (a counter) and `store.bytes` (a gauge)
/// the same way.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn metricsz(src: &str) -> Result<Validated, String> {
    let doc = json::parse(src)?;
    let mut v = Validated {
        counters: metrics_counters(&doc)?,
        ..Validated::default()
    };
    let gauges = doc
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or("`gauges` missing or not an object")?;
    for (name, value) in gauges {
        let n = value
            .as_num()
            .ok_or_else(|| format!("gauge `{name}` is not a number"))?;
        v.counters.entry(name.clone()).or_insert(n);
    }
    let histograms = doc
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("`histograms` missing or not an object")?;
    for (name, h) in histograms {
        for field in ["count", "sum", "mean", "min", "max", "p50", "p90", "p99"] {
            h.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("histogram `{name}`: bad or missing `{field}`"))?;
        }
    }
    doc.get("dropped_events")
        .and_then(Json::as_num)
        .ok_or("missing `dropped_events`")?;
    v.events = v.counters.len();
    Ok(v)
}

fn metrics_counters(metrics: &Json) -> Result<BTreeMap<String, f64>, String> {
    let counters = metrics
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("metrics: `counters` missing or not an object")?;
    counters
        .iter()
        .map(|(k, v)| {
            v.as_num()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("counter `{k}` is not a number"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export;
    use crate::state::Report;

    fn live_report() -> Report {
        crate::enable();
        {
            let _g = crate::span("validate.test_stage");
            static C: crate::LazyCounter = crate::LazyCounter::new("validate.test_counter");
            C.add(7);
            static H: crate::LazyHistogram = crate::LazyHistogram::new("validate.test_hist");
            H.record(42);
            crate::instant("validate.test_point", 1.5);
        }
        crate::snapshot()
    }

    #[test]
    fn chrome_export_validates() {
        let r = live_report();
        let v = chrome_trace(&export::chrome_trace(&r)).expect("valid");
        assert!(v.span_names.iter().any(|n| n == "validate.test_stage"));
        assert!(v.counters.contains_key("validate.test_counter"));
    }

    #[test]
    fn tracez_page_validates() {
        let good = r#"{
            "ring": {"retained": 2, "sampled": 1, "active": 0},
            "traces": [
                {"id": "abc123", "seq": 2, "method": "POST", "path": "/v1/localize",
                 "status": 200, "start_us": 10, "dur_us": 250, "keep": "slow",
                 "sampled": true, "dropped_spans": 0,
                 "spans": [
                    {"name": "serve.request", "tid": 1, "id": 7, "parent": 0, "ts_us": 10, "dur_us": 250},
                    {"name": "serve.cache", "tid": 1, "id": 8, "parent": 7, "ts_us": 12, "dur_us": 3}
                 ],
                 "counters": {"sim.cycles": 64}},
                {"id": "def456", "seq": 1, "method": "GET", "path": "/healthz",
                 "status": 200, "start_us": 1, "dur_us": 5, "keep": "digest",
                 "sampled": false, "dropped_spans": 0, "spans": [], "counters": {}}
            ]
        }"#;
        let v = tracez(good).expect("valid tracez page");
        assert_eq!(v.events, 2);
        assert_eq!(v.span_names, ["serve.cache", "serve.request"]);
        assert_eq!(v.counters.get("sim.cycles"), Some(&64.0));
    }

    #[test]
    fn corrupt_tracez_is_rejected() {
        assert!(tracez("{}").is_err(), "missing envelope");
        assert!(
            tracez(r#"{"ring": {"retained": 0, "sampled": 0, "active": 0}, "traces": [{}]}"#)
                .is_err(),
            "trace missing fields"
        );
        // `sampled` contradicting the keep verdict.
        let contradiction = r#"{
            "ring": {"retained": 1, "sampled": 0, "active": 0},
            "traces": [{"id": "x", "seq": 1, "method": "GET", "path": "/healthz",
              "status": 200, "start_us": 0, "dur_us": 1, "keep": "digest",
              "sampled": true, "dropped_spans": 0, "spans": [], "counters": {}}]
        }"#;
        assert!(tracez(contradiction).is_err());
        // A span whose parent is not part of the trace.
        let orphan = r#"{
            "ring": {"retained": 1, "sampled": 1, "active": 0},
            "traces": [{"id": "x", "seq": 1, "method": "GET", "path": "/healthz",
              "status": 500, "start_us": 0, "dur_us": 1, "keep": "error",
              "sampled": true, "dropped_spans": 0,
              "spans": [{"name": "s", "tid": 0, "id": 2, "parent": 99, "ts_us": 0, "dur_us": 1}],
              "counters": {}}]
        }"#;
        assert!(tracez(orphan).is_err());
    }

    fn accuracy_fixture() -> String {
        r#"{
            "schema": "veribug-accuracy v1",
            "seed_manifest": {"train_seed": 1234, "campaign_seed_base": 1, "rvdg_seed": 2,
                              "threads_checked": [1, 2, 8]},
            "weights_hash": "00f1e2d3c4b5a697",
            "deterministic_across_threads": true,
            "overall": {"injected": 20, "observable": 18, "p_at_1": 0.5, "p_at_3": 0.6,
                        "p_at_5": 0.7, "mrr": 0.55},
            "designs": [{"name": "wb_mux_2", "target": "wbs0_we_o", "corpus": "catalog",
                         "injected": 4, "observable": 4, "p_at_1": 0.75, "p_at_3": 0.75,
                         "p_at_5": 0.75, "mrr": 0.75}],
            "classes": [{"kind": "negation", "injected": 5, "observable": 5, "p_at_1": 0.2,
                         "p_at_3": 0.2, "p_at_5": 0.2, "mrr": 0.2}],
            "distributions": {
                "attention_entropy": {"count": 50, "mean": 0.4, "min": 0, "max": 1.3,
                                      "p50": 0.4, "p90": 0.9, "p99": 1.2},
                "score_margin": {"count": 179, "mean": 2.5, "min": 0.06, "max": 5.0,
                                 "p50": 2.7, "p90": 4.3, "p99": 4.7}
            }
        }"#
        .to_owned()
    }

    #[test]
    fn accuracy_report_validates() {
        let v = accuracy(&accuracy_fixture()).expect("valid accuracy report");
        assert_eq!(v.events, 1);
        assert_eq!(v.counters.get("observable"), Some(&18.0));
    }

    #[test]
    fn corrupt_accuracy_report_is_rejected() {
        assert!(accuracy("{}").is_err(), "missing envelope");
        let nondeterministic = accuracy_fixture().replace(
            "\"deterministic_across_threads\": true",
            "\"deterministic_across_threads\": false",
        );
        assert!(accuracy(&nondeterministic).is_err());
        let bad_hash = accuracy_fixture().replace("00f1e2d3c4b5a697", "nothex");
        assert!(accuracy(&bad_hash).is_err());
        let out_of_range = accuracy_fixture().replace("\"p_at_5\": 0.7", "\"p_at_5\": 1.7");
        assert!(accuracy(&out_of_range).is_err());
        let no_designs = accuracy_fixture().replace("\"corpus\": \"catalog\"", "\"corpus\": \"x\"");
        assert!(accuracy(&no_designs).is_err());
    }

    #[test]
    fn metricsz_body_validates() {
        let r = live_report();
        let v = metricsz(&export::metricsz(&r)).expect("valid metricsz body");
        // Counters are process-global and other tests bump the same one,
        // so assert presence and positivity rather than an exact total.
        assert!(v.counters.get("validate.test_counter").copied() > Some(0.0));
    }

    #[test]
    fn corrupt_metricsz_is_rejected() {
        assert!(metricsz("{}").is_err(), "missing envelope");
        assert!(
            metricsz(r#"{"counters":{"a":"x"},"gauges":{},"histograms":{},"dropped_events":0}"#)
                .is_err(),
            "non-numeric counter"
        );
        assert!(
            metricsz(
                r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1}},"dropped_events":0}"#
            )
            .is_err(),
            "histogram missing percentile fields"
        );
        assert!(
            metricsz(r#"{"counters":{},"gauges":{},"histograms":{}}"#).is_err(),
            "missing dropped_events"
        );
    }

    #[test]
    fn corrupted_trace_is_rejected() {
        assert!(chrome_trace("{}").is_err());
        assert!(chrome_trace("{\"traceEvents\": [{}], \"metrics\": {}}").is_err());
    }
}
