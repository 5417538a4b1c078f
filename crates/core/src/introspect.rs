//! Structured attention introspection: per-statement, per-operand
//! attribution reports built from a localization run.
//!
//! The explainer's heatmap already carries everything the paper's Fig. 4
//! visualizes — failing-trace attention `F_t`, the correct-trace baseline
//! `C_t`, and the suspiciousness ranking — but only as loose maps. This
//! module flattens them into one ordered [`AttributionReport`] with a
//! canonical JSON rendering, so `veribug explain --attention` and
//! `POST /v1/explain` produce byte-identical attributions (a test asserts
//! it). Rendering is deterministic: field order is fixed in code, floats
//! go through [`obs::json::write_f64`], and nothing run-varying enters
//! the output.

use crate::explain::SuspicionReason;
use crate::features::StatementFeatures;
use crate::localize::LocalizeReport;
use crate::model::VeriBugModel;
use crate::persist;
use obs::json;
use verilog::{Module, StmtId};

/// One operand's attribution inside a suspect statement.
#[derive(Debug, Clone, PartialEq)]
pub struct OperandAttribution {
    /// The operand (signal) name.
    pub name: String,
    /// Its failing-trace (`F_t`) attention weight.
    pub weight: f32,
    /// Its correct-trace (`C_t`) attention weight, when the statement was
    /// executed in correct traces at all.
    pub correct_weight: Option<f32>,
    /// 1-based rank of this operand within the statement, by decreasing
    /// failing-trace weight (ties break toward the earlier operand).
    pub rank: usize,
    /// Number of contributing use-def chains: the leaf-to-leaf AST paths
    /// the PathRNN embedded for this operand's context.
    pub paths: usize,
}

/// One suspect statement with its ranked operand attributions.
#[derive(Debug, Clone, PartialEq)]
pub struct StmtAttribution {
    /// The statement id in the buggy design.
    pub stmt: StmtId,
    /// 1-based rank by decreasing suspiciousness (ties toward lower ids).
    pub rank: usize,
    /// The suspiciousness score `d(F_t(l), C_t(l))`.
    pub suspiciousness: f32,
    /// Why the statement entered the heatmap.
    pub reason: SuspicionReason,
    /// The statement source, rendered as `lhs = rhs`.
    pub source: String,
    /// Per-operand attributions, in operand (source) order.
    pub operands: Vec<OperandAttribution>,
}

/// The full attribution report for one localization run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// The buggy module's name.
    pub module: String,
    /// The target output localized against.
    pub target: String,
    /// Total co-simulated runs.
    pub total_runs: usize,
    /// Runs whose target output diverged from golden.
    pub failing_runs: usize,
    /// The heatmap admission threshold used.
    pub threshold: f32,
    /// Which engine simulated the buggy design.
    pub engine: sim::EngineKind,
    /// Content hash of the model weights that produced the attention
    /// (16 hex digits; see [`persist::content_hash_hex`]).
    pub weights_hash: String,
    /// The persist-format version of those weights.
    pub weights_format: &'static str,
    /// Suspect statements, most suspicious first.
    pub attributions: Vec<StmtAttribution>,
}

/// Stable machine-readable label for a [`SuspicionReason`].
fn reason_label(reason: SuspicionReason) -> &'static str {
    match reason {
        SuspicionReason::OnlyInFailing => "only_in_failing",
        SuspicionReason::DivergentAttention => "divergent_attention",
    }
}

/// Stable machine-readable label for an engine kind.
fn engine_label(engine: sim::EngineKind) -> &'static str {
    match engine {
        sim::EngineKind::Batch => "batch",
    }
}

/// 1-based ranks by decreasing weight, ties toward the earlier operand.
fn operand_ranks(weights: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let mut ranks = vec![0usize; weights.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank + 1;
    }
    ranks
}

impl AttributionReport {
    /// Builds the attribution report for a completed localization run.
    ///
    /// `module` must be the buggy module the report was produced from
    /// (statement ids and operand order are resolved against it); `model`
    /// identifies the weights whose attention is being attributed.
    pub fn from_localize(
        model: &VeriBugModel,
        module: &Module,
        report: &LocalizeReport,
    ) -> AttributionReport {
        let features = StatementFeatures::extract_all(module);
        let mut attributions = Vec::with_capacity(report.heatmap.len());
        for (rank0, (stmt, sus)) in report.heatmap.ranked().into_iter().enumerate() {
            let entry = &report.heatmap.entries[&stmt];
            let correct = report.correct_map.per_stmt.get(&stmt);
            let f = features.get(&stmt);
            let ranks = operand_ranks(&entry.weights);
            let operands = entry
                .operands
                .iter()
                .enumerate()
                .map(|(i, name)| OperandAttribution {
                    name: name.clone(),
                    weight: entry.weights.get(i).copied().unwrap_or(0.0),
                    correct_weight: correct.and_then(|c| c.weights.get(i).copied()),
                    rank: ranks.get(i).copied().unwrap_or(i + 1),
                    paths: f
                        .and_then(|f| f.operands.get(i))
                        .map(|o| o.paths.len())
                        .unwrap_or(0),
                })
                .collect();
            attributions.push(StmtAttribution {
                stmt,
                rank: rank0 + 1,
                suspiciousness: sus,
                reason: entry.reason,
                source: module
                    .assignment(stmt)
                    .map(|a| format!("{} = {}", a.lhs.base, verilog::print_expr(&a.rhs)))
                    .unwrap_or_else(|| "<unknown>".to_owned()),
                operands,
            });
        }
        AttributionReport {
            module: report.module.clone(),
            target: report.target.clone(),
            total_runs: report.total_runs,
            failing_runs: report.failing_runs,
            threshold: report.threshold,
            engine: report.engine,
            weights_hash: persist::content_hash_hex(model),
            weights_format: persist::format_version(),
            attributions,
        }
    }

    /// The canonical JSON rendering, newline-terminated. Byte-identical
    /// for identical inputs at any thread count; served verbatim by
    /// `POST /v1/explain` and printed verbatim by
    /// `veribug explain --attention --json`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"module\":");
        json::write_str(&mut out, &self.module);
        out.push_str(",\"target\":");
        json::write_str(&mut out, &self.target);
        let _ = write!(
            out,
            ",\"total_runs\":{},\"failing_runs\":{},\"threshold\":",
            self.total_runs, self.failing_runs
        );
        json::write_f64(&mut out, f64::from(self.threshold));
        out.push_str(",\"engine\":");
        json::write_str(&mut out, engine_label(self.engine));
        out.push_str(",\"weights_hash\":");
        json::write_str(&mut out, &self.weights_hash);
        out.push_str(",\"weights_format\":");
        json::write_str(&mut out, self.weights_format);
        out.push_str(",\"attributions\":[");
        for (i, a) in self.attributions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stmt\":");
            json::write_str(&mut out, &a.stmt.to_string());
            let _ = write!(out, ",\"rank\":{},\"suspiciousness\":", a.rank);
            json::write_f64(&mut out, f64::from(a.suspiciousness));
            out.push_str(",\"reason\":");
            json::write_str(&mut out, reason_label(a.reason));
            out.push_str(",\"source\":");
            json::write_str(&mut out, &a.source);
            out.push_str(",\"operands\":[");
            for (j, op) in a.operands.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                json::write_str(&mut out, &op.name);
                out.push_str(",\"weight\":");
                json::write_f64(&mut out, f64::from(op.weight));
                out.push_str(",\"correct_weight\":");
                match op.correct_weight {
                    Some(w) => json::write_f64(&mut out, f64::from(w)),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"rank\":{},\"paths\":{}}}", op.rank, op.paths);
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// A plain-text heat-map rendering: one block per suspect statement
    /// with its `F_t`/`C_t` weights and operand ranks. Deterministic for
    /// identical inputs at any thread count.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "explain: {}/{} — {}/{} failing runs, threshold {:.2}, engine {}\n",
            self.module,
            self.target,
            self.failing_runs,
            self.total_runs,
            self.threshold,
            engine_label(self.engine),
        );
        let _ = writeln!(
            out,
            "weights: {} ({})",
            self.weights_hash, self.weights_format
        );
        if self.attributions.is_empty() {
            out.push_str("(no attributions: no failing run or nothing crossed the threshold)\n");
            return out;
        }
        for a in &self.attributions {
            let _ = writeln!(
                out,
                "#{} {} suspiciousness {:.3} [{}]",
                a.rank,
                a.stmt,
                a.suspiciousness,
                reason_label(a.reason)
            );
            let _ = writeln!(out, "   {}", a.source);
            let fmt_weights = |get: &dyn Fn(&OperandAttribution) -> Option<f32>| {
                a.operands
                    .iter()
                    .map(|op| match get(op) {
                        Some(w) => format!("{}[{w:.2}]", op.name),
                        None => format!("{}[-]", op.name),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let _ = writeln!(out, "   F_t: {}", fmt_weights(&|op| Some(op.weight)));
            let _ = writeln!(out, "   C_t: {}", fmt_weights(&|op| op.correct_weight));
            let ops = a
                .operands
                .iter()
                .map(|op| {
                    format!(
                        "{} (rank {}, {} path{})",
                        op.name,
                        op.rank,
                        op.paths,
                        if op.paths == 1 { "" } else { "s" }
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "   operands: {ops}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::{self, LocalizeOptions};
    use crate::model::{ModelConfig, VeriBugModel};

    const GOLDEN: &str = "module m(input a, input b, input c, output y);\n\
                          wire t;\nassign t = a & b;\nassign y = t | c;\nendmodule";
    const BUGGY: &str = "module m(input a, input b, input c, output y);\n\
                         wire t;\nassign t = a | b;\nassign y = t | c;\nendmodule";

    fn report() -> (VeriBugModel, Module, LocalizeReport) {
        let golden = verilog::parse(GOLDEN).unwrap().top().clone();
        let buggy = verilog::parse(BUGGY).unwrap().top().clone();
        let model = VeriBugModel::new(ModelConfig::default());
        let opts = LocalizeOptions {
            runs: 24,
            cycles: 8,
            // The untrained model's F_t/C_t gap is small; admit everything.
            threshold: 0.0,
            ..LocalizeOptions::default()
        };
        let r = localize::run(&model, &golden, &buggy, "y", &opts).unwrap();
        (model, buggy, r)
    }

    #[test]
    fn attribution_report_is_ranked_and_complete() {
        let (model, buggy, r) = report();
        assert!(r.has_failures(), "a|b vs a&b must diverge");
        let att = AttributionReport::from_localize(&model, &buggy, &r);
        assert_eq!(att.attributions.len(), r.heatmap.len());
        assert_eq!(att.weights_hash.len(), 16);
        for (i, a) in att.attributions.iter().enumerate() {
            assert_eq!(a.rank, i + 1);
            assert!(!a.operands.is_empty(), "suspects carry operands: {a:?}");
            // Operand ranks are a permutation of 1..=n.
            let mut ranks: Vec<usize> = a.operands.iter().map(|o| o.rank).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (1..=a.operands.len()).collect::<Vec<_>>());
            // Every operand has at least one contributing use-def chain.
            assert!(a.operands.iter().all(|o| o.paths > 0), "{a:?}");
        }
        // Ranking matches the report's suspects.
        for (a, s) in att.attributions.iter().zip(&r.suspects) {
            assert_eq!(a.stmt, s.stmt);
            assert_eq!(a.suspiciousness, s.suspiciousness);
            assert_eq!(a.source, s.source);
        }
    }

    #[test]
    fn json_rendering_parses_back_and_is_stable() {
        let (model, buggy, r) = report();
        let att = AttributionReport::from_localize(&model, &buggy, &r);
        let a = att.to_json();
        let b = AttributionReport::from_localize(&model, &buggy, &r).to_json();
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.ends_with('\n'));
        let doc = json::parse(&a).expect("valid json");
        assert_eq!(
            doc.get("module").and_then(|v| v.as_str()),
            Some(att.module.as_str())
        );
        assert_eq!(
            doc.get("weights_hash").and_then(|v| v.as_str()),
            Some(att.weights_hash.as_str())
        );
        let arr = doc
            .get("attributions")
            .and_then(|v| v.as_arr())
            .expect("attributions array");
        assert_eq!(arr.len(), att.attributions.len());
        if let Some(first) = arr.first() {
            assert_eq!(first.get("rank").and_then(|v| v.as_num()), Some(1.0));
            let ops = first
                .get("operands")
                .and_then(|v| v.as_arr())
                .expect("operands");
            for op in ops {
                assert!(op.get("weight").and_then(|v| v.as_num()).is_some());
                assert!(op.get("paths").and_then(|v| v.as_num()).is_some());
            }
        }
    }

    #[test]
    fn text_rendering_shows_both_maps() {
        let (model, buggy, r) = report();
        let att = AttributionReport::from_localize(&model, &buggy, &r);
        let text = att.to_text();
        assert!(text.contains("F_t:"), "{text}");
        assert!(text.contains("C_t:"), "{text}");
        assert!(text.contains(&att.weights_hash), "{text}");
        assert!(text.contains("suspiciousness"), "{text}");
    }
}
