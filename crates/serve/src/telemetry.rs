//! Renderers for the live-telemetry debug pages: `/tracez` (recent
//! tail-sampled traces, JSON or text), `/statusz` (build info + rolling
//! per-endpoint statistics), and the per-trace Perfetto export.
//!
//! Pages are debug surfaces, not API: their bodies are *not* covered by
//! the byte-identical-response guarantee (they change as requests flow),
//! but the JSON schema is stable and checked by `obs::validate::tracez`.

use std::fmt::Write as _;

use obs::json;
use obs::live::{self, CompletedTrace, TraceSpan};
use obs::rolling;

/// Renders the `/tracez` JSON page: ring occupancy plus the most recent
/// `limit` retained traces, newest first.
pub(crate) fn tracez_json(limit: usize) -> String {
    let (retained, sampled, active) = live::occupancy();
    let traces = live::recent(limit);
    let mut out = format!(
        "{{\"ring\":{{\"retained\":{retained},\"sampled\":{sampled},\"active\":{active}}},\"traces\":["
    );
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_trace_json(&mut out, t);
    }
    out.push_str("]}\n");
    out
}

fn write_trace_json(out: &mut String, t: &CompletedTrace) {
    out.push_str("{\"id\":");
    json::write_str(out, &t.id);
    let _ = write!(out, ",\"seq\":{}", t.seq);
    out.push_str(",\"method\":");
    json::write_str(out, &t.method);
    out.push_str(",\"path\":");
    json::write_str(out, &t.path);
    let _ = write!(
        out,
        ",\"status\":{},\"start_us\":{},\"dur_us\":{}",
        t.status, t.start_us, t.dur_us
    );
    out.push_str(",\"keep\":");
    json::write_str(out, t.keep.label());
    let _ = write!(
        out,
        ",\"sampled\":{},\"dropped_spans\":{}",
        t.sampled(),
        t.dropped_spans
    );
    out.push_str(",\"spans\":[");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(out, &s.name);
        let _ = write!(
            out,
            ",\"tid\":{},\"id\":{},\"parent\":{},\"ts_us\":{},\"dur_us\":{}}}",
            s.tid, s.id, s.parent, s.ts_us, s.dur_us
        );
    }
    out.push_str("],\"counters\":{");
    for (i, (name, value)) in t.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("}}");
}

/// Renders the `/tracez?fmt=text` page: one block per retained trace,
/// sampled traces with an indented span tree.
pub(crate) fn tracez_text(limit: usize) -> String {
    let (retained, sampled, active) = live::occupancy();
    let traces = live::recent(limit);
    let mut out =
        format!("tracez — {retained} retained ({sampled} sampled, {active} in flight)\n\n");
    for t in &traces {
        let _ = writeln!(
            out,
            "#{} {} {} {} -> {} in {:.1}ms [{}]",
            t.seq,
            t.id,
            t.method,
            t.path,
            t.status,
            t.dur_us as f64 / 1e3,
            t.keep.label(),
        );
        if t.sampled() {
            write_span_tree(&mut out, &t.spans);
            if !t.counters.is_empty() {
                let counters: Vec<String> =
                    t.counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
                let _ = writeln!(out, "  counters: {}", counters.join(" "));
            }
            if t.dropped_spans > 0 {
                let _ = writeln!(out, "  ({} spans dropped past cap)", t.dropped_spans);
            }
        }
    }
    out
}

fn write_span_tree(out: &mut String, spans: &[TraceSpan]) {
    // Roots are spans whose parent is not itself in the trace (the request
    // root has parent 0; a worker span's parent is an in-trace span).
    let in_trace = |id: u64| spans.iter().any(|s| s.id == id);
    fn emit(out: &mut String, spans: &[TraceSpan], parent: u64, depth: usize) {
        if depth > 16 {
            return;
        }
        for s in spans.iter().filter(|s| s.parent == parent) {
            let _ = writeln!(
                out,
                "  {:indent$}{} {:.1}ms (tid {})",
                "",
                s.name,
                s.dur_us as f64 / 1e3,
                s.tid,
                indent = depth * 2
            );
            emit(out, spans, s.id, depth + 1);
        }
    }
    for root in spans.iter().filter(|s| !in_trace(s.parent)) {
        let _ = writeln!(
            out,
            "  {} {:.1}ms (tid {})",
            root.name,
            root.dur_us as f64 / 1e3,
            root.tid
        );
        emit(out, spans, root.id, 1);
    }
}

/// Occupancy and configuration the server passes into [`statusz_json`]
/// (the renderer cannot reach into `ServerState` without a cycle).
pub(crate) struct StatusInfo {
    pub(crate) uptime_s: u64,
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) queued: usize,
    pub(crate) running: usize,
    pub(crate) cache_entries: usize,
    pub(crate) cache_capacity: usize,
    /// Persistent artifact store occupancy, when one is configured.
    pub(crate) store: Option<StoreStatus>,
    /// A shard front's `,"backends":[…],"ring_points":N` fields, appended
    /// to the top-level object; empty without backends.
    pub(crate) shard_fields: String,
    /// Content hash of the served model's weights.
    pub(crate) weights_hash: String,
    /// Persist-format version of those weights.
    pub(crate) model_format: &'static str,
    /// Total `model.evals` served (process lifetime).
    pub(crate) evals: u64,
    /// `model.score_margin` summary, once any evaluation recorded one.
    pub(crate) score_margin: Option<obs::HistSummary>,
}

/// Occupancy of the persistent artifact store, for the `/statusz` page.
pub(crate) struct StoreStatus {
    /// The store root directory.
    pub(crate) path: String,
    /// Configured byte budget.
    pub(crate) budget: u64,
    /// Entries currently resident (all kinds).
    pub(crate) entries: usize,
    /// Bytes currently resident (all kinds).
    pub(crate) bytes: u64,
    /// Designs compiled into the LRU from the store at bind.
    pub(crate) preloaded: usize,
    /// This process's store operation counts.
    pub(crate) stats: store::StoreStats,
}

/// Renders the `/statusz` JSON page: uptime, build info, worker/queue
/// occupancy, live-trace ring occupancy, and the rolling per-endpoint
/// window (rps, p50/p99 latency, status classes, stage breakdown, cache
/// attribution).
pub(crate) fn statusz_json(info: &StatusInfo, window_s: u64) -> String {
    let (retained, sampled, active) = live::occupancy();
    let snap = rolling::snapshot(window_s);
    let mut out = String::from("{\"status\":\"ok\",\"version\":");
    json::write_str(&mut out, env!("CARGO_PKG_VERSION"));
    // The engines the sim crate runs (see `sim::EngineKind`).
    out.push_str(",\"engines\":[\"batch\"]");
    let _ = write!(
        out,
        ",\"uptime_s\":{},\"workers\":{},\"queue\":{{\"capacity\":{},\"queued\":{},\"running\":{}}}",
        info.uptime_s, info.workers, info.queue_capacity, info.queued, info.running
    );
    let _ = write!(
        out,
        ",\"cache\":{{\"entries\":{},\"capacity\":{}}}",
        info.cache_entries, info.cache_capacity
    );
    out.push_str(",\"store\":");
    match &info.store {
        Some(s) => {
            out.push_str("{\"path\":");
            json::write_str(&mut out, &s.path);
            let _ = write!(
                out,
                ",\"budget_bytes\":{},\"entries\":{},\"bytes\":{},\"preloaded\":{},\"hits\":{},\"misses\":{},\"writes\":{},\"evictions\":{},\"corrupt\":{}}}",
                s.budget,
                s.entries,
                s.bytes,
                s.preloaded,
                s.stats.hits,
                s.stats.misses,
                s.stats.writes,
                s.stats.evictions,
                s.stats.corrupt
            );
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"model\":{\"weights_hash\":");
    json::write_str(&mut out, &info.weights_hash);
    out.push_str(",\"format\":");
    json::write_str(&mut out, info.model_format);
    let _ = write!(out, ",\"evals\":{}", info.evals);
    out.push_str(",\"score_margin\":");
    match &info.score_margin {
        Some(h) => {
            let _ = write!(out, "{{\"count\":{},\"mean\":", h.count);
            json::write_f64(&mut out, h.mean);
            out.push_str(",\"p50\":");
            json::write_f64(&mut out, h.p50);
            out.push_str(",\"p99\":");
            json::write_f64(&mut out, h.p99);
            out.push_str(",\"max\":");
            json::write_f64(&mut out, h.max);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out.push_str(&info.shard_fields);
    let _ = write!(
        out,
        ",\"ring\":{{\"retained\":{retained},\"sampled\":{sampled},\"active\":{active}}}"
    );
    let _ = write!(out, ",\"window_s\":{},\"endpoints\":[", snap.window_s);
    for (i, ep) in snap.endpoints.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        json::write_str(&mut out, &ep.path);
        let _ = write!(out, ",\"count\":{},\"rps\":", ep.count);
        json::write_f64(&mut out, ep.rps);
        let _ = write!(
            out,
            ",\"s2xx\":{},\"s4xx\":{},\"s5xx\":{}",
            ep.s2xx, ep.s4xx, ep.s5xx
        );
        out.push_str(",\"latency_s\":{\"p50\":");
        json::write_f64(&mut out, ep.latency.p50);
        out.push_str(",\"p90\":");
        json::write_f64(&mut out, ep.latency.p90);
        out.push_str(",\"p99\":");
        json::write_f64(&mut out, ep.latency.p99);
        out.push_str(",\"mean\":");
        json::write_f64(&mut out, ep.latency.mean);
        out.push_str(",\"max\":");
        json::write_f64(&mut out, ep.latency.max);
        out.push('}');
        let _ = write!(
            out,
            ",\"cache\":{{\"hits\":{},\"misses\":{}}}",
            ep.cache_hits, ep.cache_misses
        );
        out.push_str(",\"stages_us\":{");
        for (j, (name, us)) in ep.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{us}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracez_json_matches_the_validator_schema() {
        obs::enable();
        let scope = live::begin("telemetry-test", "POST", "/v1/localize");
        {
            let _root = obs::span("serve.request");
            let _child = obs::span("serve.cache");
        }
        scope.finish(200);
        let page = tracez_json(64);
        let v = obs::validate::tracez(&page).expect("page validates");
        // Our trace may be a digest (if faster than the slow set), but the
        // page as a whole must carry it.
        assert!(page.contains("telemetry-test"));
        let _ = v;
    }

    #[test]
    fn tracez_text_renders_a_tree() {
        obs::enable();
        let scope = live::begin("telemetry-text", "POST", "/v1/localize");
        {
            let _root = obs::span("serve.request");
            let _child = obs::span("serve.analyze");
        }
        scope.finish(500); // errors always keep the tree
        let page = tracez_text(64);
        assert!(page.contains("telemetry-text"));
        assert!(page.contains("serve.request"));
        let req_line = page
            .lines()
            .find(|l| l.trim_start().starts_with("serve.analyze"))
            .expect("child span rendered");
        assert!(
            req_line.starts_with("    "),
            "child is indented under the root: {req_line:?}"
        );
    }

    #[test]
    fn statusz_is_valid_json_with_required_fields() {
        obs::enable();
        let info = StatusInfo {
            uptime_s: 12,
            workers: 4,
            queue_capacity: 16,
            queued: 1,
            running: 2,
            cache_entries: 3,
            cache_capacity: 64,
            store: Some(StoreStatus {
                path: "/tmp/veribug-store".to_owned(),
                budget: 1 << 30,
                entries: 5,
                bytes: 4096,
                preloaded: 3,
                stats: store::StoreStats {
                    hits: 7,
                    misses: 2,
                    writes: 5,
                    evictions: 1,
                    corrupt: 0,
                },
            }),
            shard_fields: String::new(),
            weights_hash: "00f1e2d3c4b5a697".to_owned(),
            model_format: "veribug-model v1",
            evals: 42,
            score_margin: Some(obs::HistSummary {
                count: 42,
                mean: 0.5,
                ..obs::HistSummary::default()
            }),
        };
        let page = statusz_json(&info, 60);
        let doc = obs::json::parse(&page).expect("valid json");
        assert_eq!(
            doc.get("version").and_then(|v| v.as_str()),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(doc.get("uptime_s").and_then(|v| v.as_num()), Some(12.0));
        let engines = doc
            .get("engines")
            .and_then(|v| v.as_arr())
            .expect("engines");
        assert_eq!(engines.len(), 1);
        assert!(doc.get("endpoints").and_then(|v| v.as_arr()).is_some());
        let queue = doc.get("queue").expect("queue block");
        assert_eq!(queue.get("queued").and_then(|v| v.as_num()), Some(1.0));
        let store_block = doc.get("store").expect("store block");
        assert_eq!(
            store_block.get("path").and_then(|v| v.as_str()),
            Some("/tmp/veribug-store")
        );
        assert_eq!(
            store_block.get("entries").and_then(|v| v.as_num()),
            Some(5.0)
        );
        assert_eq!(
            store_block.get("bytes").and_then(|v| v.as_num()),
            Some(4096.0)
        );
        assert_eq!(
            store_block.get("preloaded").and_then(|v| v.as_num()),
            Some(3.0)
        );
        assert_eq!(store_block.get("hits").and_then(|v| v.as_num()), Some(7.0));
        assert_eq!(
            store_block.get("misses").and_then(|v| v.as_num()),
            Some(2.0)
        );
        assert_eq!(
            store_block.get("evictions").and_then(|v| v.as_num()),
            Some(1.0)
        );
        let model = doc.get("model").expect("model block");
        assert_eq!(
            model.get("weights_hash").and_then(|v| v.as_str()),
            Some("00f1e2d3c4b5a697")
        );
        assert_eq!(
            model.get("format").and_then(|v| v.as_str()),
            Some("veribug-model v1")
        );
        assert_eq!(model.get("evals").and_then(|v| v.as_num()), Some(42.0));
        assert_eq!(
            model
                .get("score_margin")
                .and_then(|m| m.get("count"))
                .and_then(|v| v.as_num()),
            Some(42.0)
        );
    }
}
