//! The exporters: a human-readable summary, the `/metricsz` metrics
//! object, and Chrome `trace_event` (load the file in `chrome://tracing`
//! or <https://ui.perfetto.dev>).

use std::fmt::Write as _;

use crate::json::{write_f64, write_str};
use crate::metrics::HistSummary;
use crate::state::{Event, Report, Span};

/// Renders the Chrome `trace_event` JSON object format:
///
/// ```json
/// { "traceEvents": [...], "displayTimeUnit": "ms", "metrics": {...} }
/// ```
///
/// Spans become complete (`"ph": "X"`) events, instants become `"ph": "i"`
/// events, and thread-name metadata rows out the flame chart. The
/// `"metrics"` block — the [`metricsz`] object: counters, gauges,
/// histogram summaries and `dropped_events` — is ignored by trace viewers
/// but carries the campaign's numeric diagnostics.
pub fn chrome_trace(report: &Report) -> String {
    let pid = std::process::id();
    let mut out = String::with_capacity(4096 + report.events.len() * 160);
    out.push_str("{\n\"traceEvents\": [\n");
    let mut first = true;
    let push_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };

    // Thread-name metadata, one per tid seen.
    let mut tids: Vec<u64> = report
        .events
        .iter()
        .map(|e| match e {
            Event::Span(Span { tid, .. }) | Event::Instant { tid, .. } => *tid,
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        push_sep(&mut out, &mut first);
        let label = if tid == 0 {
            "main".to_owned()
        } else {
            format!("worker-{tid}")
        };
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        );
        write_str(&mut out, &label);
        out.push_str("}}");
    }

    for e in &report.events {
        push_sep(&mut out, &mut first);
        match e {
            Event::Span(Span {
                name,
                tid,
                id,
                parent,
                ts_us,
                dur_us,
            }) => {
                out.push_str("{\"name\":");
                write_str(&mut out, name);
                let _ = write!(
                    out,
                    ",\"cat\":\"veribug\",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{dur_us},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}"
                );
            }
            Event::Instant {
                name,
                tid,
                parent,
                ts_us,
                value,
                msg,
            } => {
                out.push_str("{\"name\":");
                write_str(&mut out, name);
                let _ = write!(
                    out,
                    ",\"cat\":\"veribug\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"parent\":{parent}"
                );
                if let Some(v) = value {
                    out.push_str(",\"value\":");
                    write_f64(&mut out, *v);
                }
                if let Some(m) = msg {
                    out.push_str(",\"message\":");
                    write_str(&mut out, m);
                }
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"metrics\": ");
    write_metrics(&mut out, report);
    out.push_str("\n}\n");
    out
}

/// Renders the metrics-only snapshot a monitoring endpoint wants (the
/// `GET /metricsz` body of `veribug serve`): one JSON object with
/// `counters`, `gauges`, `histograms`, and `dropped_events` — no span
/// events, so the payload stays small on long-lived processes. The Chrome
/// exporter embeds the same object as its `"metrics"` block.
pub fn metricsz(report: &Report) -> String {
    let mut out = String::with_capacity(256);
    write_metrics(&mut out, report);
    out.push('\n');
    out
}

fn write_metrics(out: &mut String, report: &Report) {
    out.push_str("{\"counters\":{");
    for (i, (name, v)) in report.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in report.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, name);
        out.push(':');
        write_f64(out, *v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in report.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, name);
        out.push_str(":{");
        write_hist_fields(out, h);
        out.push('}');
    }
    let _ = write!(out, "}},\"dropped_events\":{}}}", report.dropped_events);
}

/// Writes a histogram summary's fields (`"count":…,"sum":…,"mean":…,
/// "min":…,"max":…,"p50":…,"p90":…,"p99":…`) without the enclosing braces,
/// so the metrics object and every debug page write the same field set.
pub fn write_hist_fields(out: &mut String, h: &HistSummary) {
    let _ = write!(out, "\"count\":{}", h.count);
    for (field, v) in [
        ("sum", h.sum),
        ("mean", h.mean),
        ("min", h.min),
        ("max", h.max),
        ("p50", h.p50),
        ("p90", h.p90),
        ("p99", h.p99),
    ] {
        let _ = write!(out, ",\"{field}\":");
        write_f64(out, v);
    }
}

/// Renders the human-readable summary: top spans by total self-recorded
/// time, then every counter, gauge, and histogram.
pub fn summary(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("── obs summary ────────────────────────────────────────────\n");

    // Aggregate span durations by name.
    let mut agg: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for e in &report.events {
        if let Event::Span(Span { name, dur_us, .. }) = e {
            let slot = agg.entry(name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += dur_us;
        }
    }
    if !agg.is_empty() {
        let mut rows: Vec<(&str, u64, u64)> =
            agg.into_iter().map(|(n, (c, d))| (n, c, d)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        let _ = writeln!(out, "{:<34} {:>8} {:>14}", "span", "count", "total");
        for (name, count, dur) in rows {
            let _ = writeln!(out, "{:<34} {:>8} {:>13.3}s", name, count, dur as f64 / 1e6);
        }
    }
    if !report.counters.is_empty() {
        let _ = writeln!(out, "{:<34} {:>23}", "counter", "value");
        for (name, v) in &report.counters {
            let _ = writeln!(out, "{name:<34} {v:>23}");
        }
    }
    if !report.gauges.is_empty() {
        let _ = writeln!(out, "{:<34} {:>23}", "gauge", "value");
        for (name, v) in &report.gauges {
            let _ = writeln!(out, "{name:<34} {v:>23.6}");
        }
    }
    if !report.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &report.histograms {
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
                name, h.count, h.mean, h.p50, h.p99, h.max
            );
        }
    }
    if report.dropped_events > 0 {
        let _ = writeln!(
            out,
            "(!) {} events dropped past the retention cap",
            report.dropped_events
        );
    }
    out.push_str("───────────────────────────────────────────────────────────\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_report() -> Report {
        let mut r = Report::default();
        r.events.push(Event::Span(Span {
            name: "stage.one".into(),
            tid: 0,
            id: 1,
            parent: 0,
            ts_us: 10,
            dur_us: 500,
        }));
        r.events.push(Event::Instant {
            name: "progress".into(),
            tid: 0,
            parent: 1,
            ts_us: 20,
            value: Some(0.25),
            msg: Some("building \"stuff\"".into()),
        });
        r.counters.insert("sim.cycles".into(), 123);
        r.gauges.insert("train.final_loss".into(), 0.125);
        r.histograms
            .insert("lat".into(), crate::HistSummary::default());
        r
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let rendered = chrome_trace(&sample_report());
        let doc = json::parse(&rendered).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 thread-name metadata + 1 span + 1 instant.
        assert_eq!(events.len(), 3);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("has a complete event");
        assert_eq!(span.get("name").unwrap().as_str(), Some("stage.one"));
        assert_eq!(span.get("dur").unwrap().as_num(), Some(500.0));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("sim.cycles")
                .unwrap()
                .as_num(),
            Some(123.0)
        );
    }

    #[test]
    fn summary_mentions_everything() {
        let s = summary(&sample_report());
        assert!(s.contains("stage.one"));
        assert!(s.contains("sim.cycles"));
        assert!(s.contains("train.final_loss"));
    }

    #[test]
    fn metricsz_is_valid_json_without_events() {
        let rendered = metricsz(&sample_report());
        let doc = json::parse(&rendered).expect("metricsz parses");
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("sim.cycles")
                .unwrap()
                .as_num(),
            Some(123.0)
        );
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("train.final_loss")
                .unwrap()
                .as_num(),
            Some(0.125)
        );
        let hist = doc.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(hist.get("count").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("dropped_events").unwrap().as_num(), Some(0.0));
        assert!(doc.get("traceEvents").is_none(), "no span events");
    }
}
