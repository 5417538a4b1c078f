//! Request/response bodies for the service, hand-rendered over
//! [`obs::json`].
//!
//! Rendering is deliberately deterministic: field order is fixed in code,
//! numbers go through [`obs::json::write_f64`], and nothing
//! request-varying (timestamps, cache state) enters a body — so identical
//! requests produce byte-identical responses, which the integration suite
//! and `serve_bench --smoke` assert.

use obs::json::{self, Json};
use veribug::{LocalizeOptions, LocalizeReport};
use verilog::{Module, StmtId};

/// The most simulated cycles one localize request may ask for: `runs` ×
/// `cycles`, a run counting at least one. 25× the default 160 × 16; it bounds
/// the work done before the first per-cycle deadline check.
pub const MAX_RUN_CYCLES: usize = 1 << 16;

/// A structured error answer; rendered as
/// `{"error":{"status":...,"kind":...,"message":...[,"line":...,"col":...][,"request_id":...]}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status to answer with.
    pub status: u16,
    /// A stable machine-readable discriminator (`bad_json`,
    /// `verilog_parse`, `queue_full`, `deadline`, ...).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// 1-based source line for Verilog parse errors.
    pub line: Option<u32>,
    /// 1-based source column for Verilog parse errors.
    pub col: Option<u32>,
    /// The request ID (also echoed in `x-veribug-request-id`), so a client
    /// can correlate an error with its `/tracez` entry.
    pub request_id: Option<String>,
}

impl ApiError {
    /// An error without source position.
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            message: message.into(),
            line: None,
            col: None,
            request_id: None,
        }
    }

    /// Attaches a Verilog source position.
    pub fn at(mut self, span: verilog::Span) -> ApiError {
        self.line = Some(span.line);
        self.col = Some(span.col);
        self
    }

    /// Attaches the request ID for `/tracez` correlation.
    pub fn with_request_id(mut self, id: impl Into<String>) -> ApiError {
        self.request_id = Some(id.into());
        self
    }

    /// The JSON body.
    pub fn body(&self) -> String {
        let mut out = String::from("{\"error\":{\"status\":");
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", self.status));
        out.push_str(",\"kind\":");
        json::write_str(&mut out, self.kind);
        out.push_str(",\"message\":");
        json::write_str(&mut out, &self.message);
        if let Some(line) = self.line {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"line\":{line}"));
        }
        if let Some(col) = self.col {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"col\":{col}"));
        }
        if let Some(id) = &self.request_id {
            out.push_str(",\"request_id\":");
            json::write_str(&mut out, id);
        }
        out.push_str("}}\n");
        out
    }
}

/// A parsed `/v1/localize` request body.
#[derive(Debug, Clone)]
pub struct LocalizeRequest {
    /// Golden (reference) Verilog source.
    pub golden: String,
    /// Buggy Verilog source.
    pub buggy: String,
    /// The output signal to localize against.
    pub target: String,
    /// Localization knobs (defaults match the CLI).
    pub opts: LocalizeOptions,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// A parsed `/v1/analyze` request body.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// The Verilog source to analyze.
    pub design: String,
    /// The target signal.
    pub target: String,
    /// Cone-of-influence unroll depth.
    pub depth: u32,
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "bad_json", "request body is not utf-8"))?;
    json::parse(text).map_err(|e| ApiError::new(400, "bad_json", e))
}

fn bad_field(message: impl Into<String>) -> ApiError {
    ApiError::new(400, "bad_field", message)
}

fn str_field(obj: &Json, key: &str) -> Result<String, ApiError> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(bad_field(format!("field `{key}` must be a string"))),
        None => Err(ApiError::new(
            400,
            "missing_field",
            format!("missing required field `{key}`"),
        )),
    }
}

fn num_field(obj: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(bad_field(format!("field `{key}` must be a number"))),
    }
}

/// A non-negative integral number, or `None` when `key` is absent.
fn int_field(obj: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match num_field(obj, key)? {
        Some(n) if !(n >= 0.0 && n.fract() == 0.0) => Err(bad_field(format!(
            "field `{key}` must be a non-negative integer"
        ))),
        n => Ok(n),
    }
}

/// A count option; one too large for `usize` saturates, so the
/// `runs × cycles` bound rejects it with its own message.
fn usize_field(obj: &Json, key: &str, default: usize) -> Result<usize, ApiError> {
    Ok(int_field(obj, key)?.map_or(default, |n| n as usize))
}

/// An option taken as an exact `u64`: a seed or a millisecond count.
fn u64_field(obj: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match int_field(obj, key)? {
        // `u64::MAX as f64` rounds up to 2^64, the first value that does
        // not fit.
        Some(n) if n >= u64::MAX as f64 => Err(bad_field(format!(
            "field `{key}` must be a non-negative integer below 2^64"
        ))),
        n => Ok(n.map(|n| n as u64)),
    }
}

/// Parses a `/v1/localize` body, and a `/v1/explain` body, which has the
/// same shape: that endpoint runs the identical pipeline and differs only
/// in what it renders (per-operand attention attributions instead of the
/// suspect list).
///
/// # Errors
///
/// `400` [`ApiError`]s for malformed JSON, missing required fields,
/// wrongly-typed options, a `stim_seed` or `deadline_ms` that is not a
/// `u64`, a `threshold` that is not finite as an `f32`, `runs × cycles`
/// above [`MAX_RUN_CYCLES`], or a `hold_probability` outside `[0, 1]`.
pub fn parse_localize(body: &[u8]) -> Result<LocalizeRequest, ApiError> {
    let doc = parse_body(body)?;
    if doc.as_obj().is_none() {
        return Err(ApiError::new(400, "bad_json", "body must be a JSON object"));
    }
    let golden = str_field(&doc, "golden")?;
    let buggy = str_field(&doc, "buggy")?;
    let target = str_field(&doc, "target")?;
    let mut opts = LocalizeOptions::default();
    let mut deadline_ms = None;
    if let Some(o) = doc.get("options") {
        if o.as_obj().is_none() {
            return Err(bad_field("`options` must be an object"));
        }
        opts.runs = usize_field(o, "runs", opts.runs)?;
        opts.cycles = usize_field(o, "cycles", opts.cycles)?;
        opts.run_groups = usize_field(o, "run_groups", opts.run_groups)?;
        if let Some(t) = num_field(o, "threshold")? {
            opts.threshold = t as f32;
            if !opts.threshold.is_finite() {
                return Err(bad_field(format!(
                    "field `threshold` must be a finite 32-bit number, got {t}"
                )));
            }
        }
        if let Some(s) = u64_field(o, "stim_seed")? {
            opts.stim_seed = s;
        }
        if let Some(h) = num_field(o, "hold_probability")? {
            if !(0.0..=1.0).contains(&h) {
                return Err(bad_field(format!(
                    "field `hold_probability` must be within [0, 1], got {h}"
                )));
            }
            opts.hold_probability = h;
        }
        deadline_ms = u64_field(o, "deadline_ms")?;
        let run_cycles = opts.runs.checked_mul(opts.cycles.max(1));
        if run_cycles.is_none_or(|n| n > MAX_RUN_CYCLES) {
            return Err(bad_field(format!(
                "`runs` × `cycles` must be at most {MAX_RUN_CYCLES}, got {} × {}",
                opts.runs, opts.cycles
            )));
        }
    }
    Ok(LocalizeRequest {
        golden,
        buggy,
        target,
        opts,
        deadline_ms,
    })
}

/// Parses a `/v1/analyze` body.
///
/// # Errors
///
/// As [`parse_localize`].
pub fn parse_analyze(body: &[u8]) -> Result<AnalyzeRequest, ApiError> {
    let doc = parse_body(body)?;
    if doc.as_obj().is_none() {
        return Err(ApiError::new(400, "bad_json", "body must be a JSON object"));
    }
    Ok(AnalyzeRequest {
        design: str_field(&doc, "design")?,
        target: str_field(&doc, "target")?,
        depth: usize_field(&doc, "depth", 8)?.min(u32::MAX as usize) as u32,
    })
}

/// The dependence summary of one target that `/v1/analyze` and
/// `veribug analyze` both print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeSummary {
    /// The module's name.
    pub module: String,
    /// The target signal.
    pub target: String,
    /// `Dep_t`: the signals that influence the target, in name order.
    pub dep: Vec<String>,
    /// The target's static slice in statement order, each assignment with
    /// the cone-of-influence depth of its left-hand side (0 when the cone
    /// does not reach it) and its `lhs = rhs` source.
    pub slice: Vec<(StmtId, Option<(u32, String)>)>,
}

/// Summarizes `module` for `target`: `Dep_t`, the static slice, and the
/// cone-of-influence depth of each slice assignment, unrolled `depth`
/// cycles.
pub fn analyze(module: &Module, target: &str, depth: u32) -> AnalyzeSummary {
    let cdfg = cdfg::Cdfg::build(module);
    let vdg = cdfg::Vdg::from_cdfg(module, &cdfg);
    let slice = cdfg::Slice::of_target_with(&cdfg, &vdg, target);
    let coi = cdfg::ConeOfInfluence::compute(&vdg, target, depth);
    let slice_stmts = slice
        .stmts
        .iter()
        .map(|&stmt| {
            let assignment = module.assignment(stmt).map(|a| {
                let depth = coi.min_cycles.get(&a.lhs.base).copied().unwrap_or(0);
                (depth, verilog::print_label(a))
            });
            (stmt, assignment)
        })
        .collect();
    AnalyzeSummary {
        module: module.name.clone(),
        target: target.to_owned(),
        dep: slice.dep.into_iter().collect(),
        slice: slice_stmts,
    }
}

/// Renders an [`AnalyzeSummary`] as the `/v1/analyze` 200 body.
pub fn render_analyze(summary: &AnalyzeSummary) -> String {
    let mut out = String::from("{\"module\":");
    json::write_str(&mut out, &summary.module);
    out.push_str(",\"target\":");
    json::write_str(&mut out, &summary.target);
    out.push_str(",\"dep\":[");
    for (i, d) in summary.dep.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, d);
    }
    out.push_str("],\"slice\":[");
    for (i, (stmt, assignment)) in summary.slice.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"stmt\":");
        json::write_str(&mut out, &stmt.to_string());
        if let Some((depth, source)) = assignment {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"depth\":{depth}"));
            out.push_str(",\"source\":");
            json::write_str(&mut out, source);
        }
        out.push('}');
    }
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!("],\"statements\":{}}}\n", summary.slice.len()),
    );
    out
}

/// Renders a [`LocalizeReport`] as the `/v1/localize` 200 body.
pub fn render_report(report: &LocalizeReport) -> String {
    let mut out = String::from("{\"module\":");
    json::write_str(&mut out, &report.module);
    out.push_str(",\"target\":");
    json::write_str(&mut out, &report.target);
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            ",\"total_runs\":{},\"failing_runs\":{},\"threshold\":",
            report.total_runs, report.failing_runs
        ),
    );
    json::write_f64(&mut out, f64::from(report.threshold));
    out.push_str(",\"engine\":");
    json::write_str(
        &mut out,
        match report.engine {
            sim::EngineKind::Batch => "batch",
        },
    );
    out.push_str(",\"suspects\":[");
    for (i, s) in report.suspects.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"stmt\":");
        json::write_str(&mut out, &s.stmt.to_string());
        out.push_str(",\"suspiciousness\":");
        json::write_f64(&mut out, f64::from(s.suspiciousness));
        out.push_str(",\"source\":");
        json::write_str(&mut out, &s.source);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localize_request_round_trips() {
        let body = br#"{"golden":"module g; endmodule","buggy":"module b; endmodule",
                        "target":"y","options":{"runs":8,"cycles":4,"threshold":0.5,
                        "deadline_ms":250}}"#;
        let req = parse_localize(body).unwrap();
        assert_eq!(req.target, "y");
        assert_eq!(req.opts.runs, 8);
        assert_eq!(req.opts.cycles, 4);
        assert!((req.opts.threshold - 0.5).abs() < 1e-6);
        assert_eq!(req.deadline_ms, Some(250));
        // Unspecified options keep the CLI defaults.
        assert_eq!(req.opts.stim_seed, LocalizeOptions::default().stim_seed);
    }

    #[test]
    fn missing_field_is_400() {
        let err = parse_localize(br#"{"golden":"x","buggy":"y"}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.kind, "missing_field");
        assert!(err.message.contains("target"));
    }

    #[test]
    fn malformed_json_is_400() {
        let err = parse_localize(b"{not json").unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.kind, "bad_json");
    }

    #[test]
    fn bad_option_type_is_400() {
        let err =
            parse_localize(br#"{"golden":"g","buggy":"b","target":"y","options":{"runs":"ten"}}"#)
                .unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.kind, "bad_field");
    }

    #[test]
    fn oversized_simulation_is_400() {
        let body = |opts: &str| {
            format!(r#"{{"golden":"g","buggy":"b","target":"y","options":{{{opts}}}}}"#)
        };
        for opts in [
            r#""runs":1e13"#,
            r#""runs":1e30,"cycles":1e30"#,
            r#""runs":65537,"cycles":0"#,
            r#""runs":4097,"cycles":16"#,
        ] {
            let err = parse_localize(body(opts).as_bytes()).unwrap_err();
            assert_eq!((err.status, err.kind), (400, "bad_field"), "{opts}");
            assert!(err.message.contains("65536"), "{}", err.message);
        }
        // The heaviest shape the benches send, and the limit itself, pass.
        for opts in [r#""runs":512,"cycles":64"#, r#""runs":4096,"cycles":16"#] {
            assert!(parse_localize(body(opts).as_bytes()).is_ok(), "{opts}");
        }
    }

    #[test]
    fn seed_and_deadline_must_be_u64() {
        let body = |opts: &str| {
            format!(r#"{{"golden":"g","buggy":"b","target":"y","options":{{{opts}}}}}"#)
        };
        for key in ["stim_seed", "deadline_ms"] {
            for v in ["-1", "-5", "1.5", "1e20", "18446744073709551616", "\"7\""] {
                let opts = format!(r#""{key}":{v}"#);
                let err = parse_localize(body(&opts).as_bytes()).unwrap_err();
                assert_eq!((err.status, err.kind), (400, "bad_field"), "{opts}");
                assert!(err.message.contains(key), "{}", err.message);
            }
        }
        let req = parse_localize(body(r#""stim_seed":0,"deadline_ms":0"#).as_bytes()).unwrap();
        assert_eq!((req.opts.stim_seed, req.deadline_ms), (0, Some(0)));
        let req =
            parse_localize(body(r#""stim_seed":9007199254740992,"deadline_ms":1e3"#).as_bytes())
                .unwrap();
        assert_eq!(req.opts.stim_seed, 1 << 53);
        assert_eq!(req.deadline_ms, Some(1000));
        // Absent, both keep their defaults.
        let req = parse_localize(body(r#""runs":4"#).as_bytes()).unwrap();
        assert_eq!(req.opts.stim_seed, LocalizeOptions::default().stim_seed);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn hold_probability_outside_unit_interval_is_400() {
        let body = |h: &str| {
            format!(
                r#"{{"golden":"g","buggy":"b","target":"y","options":{{"hold_probability":{h}}}}}"#
            )
        };
        for h in ["1.5", "-0.1", "1e400"] {
            let err = parse_localize(body(h).as_bytes()).unwrap_err();
            assert_eq!((err.status, err.kind), (400, "bad_field"), "{h}");
            assert!(err.message.contains("[0, 1]"), "{}", err.message);
        }
        for h in ["0", "0.8", "1"] {
            let req = parse_localize(body(h).as_bytes()).unwrap();
            assert_eq!(req.opts.hold_probability, h.parse::<f64>().unwrap());
        }
    }

    #[test]
    fn non_finite_threshold_is_400() {
        let body = |t: &str| {
            format!(r#"{{"golden":"g","buggy":"b","target":"y","options":{{"threshold":{t}}}}}"#)
        };
        for t in ["1e39", "-1e39"] {
            let err = parse_localize(body(t).as_bytes()).unwrap_err();
            assert_eq!((err.status, err.kind), (400, "bad_field"), "{t}");
            assert!(err.message.contains("threshold"), "{}", err.message);
        }
        let req = parse_localize(body("3e38").as_bytes()).unwrap();
        assert_eq!(req.opts.threshold, 3e38);
    }

    #[test]
    fn error_body_parses_back() {
        let e = ApiError::new(422, "verilog_parse", "unexpected token")
            .at(verilog::Span { line: 3, col: 7 });
        let doc = obs::json::parse(&e.body()).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("status").unwrap().as_num(), Some(422.0));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("verilog_parse"));
        assert_eq!(err.get("line").unwrap().as_num(), Some(3.0));
        assert_eq!(err.get("col").unwrap().as_num(), Some(7.0));
    }
}
