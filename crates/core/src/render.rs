//! Text/ANSI rendering of heatmaps (paper Fig. 4).
//!
//! The paper discretizes importance scores in `[0, 1]` into bins and colors
//! operands with increasing intensity — reds for the failing-trace map
//! `H_t`/`F_t`, blues for the correct-trace map `C_t`. This module renders
//! the same view in a terminal: each statement of the slice is printed with
//! per-operand scores, optionally with ANSI background colors.

use std::fmt::Write as _;

use crate::explain::{AttentionMap, Heatmap};
use verilog::{Module, StmtId};

/// Which palette to color operands with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Palette {
    /// Reds — for `H_t` / `F_t` (failing) maps.
    Red,
    /// Blues — for `C_t` (correct) maps.
    Blue,
}

/// Rendering options.
#[derive(Debug, Clone, Copy)]
struct RenderOptions {
    /// Emit ANSI 256-color escapes.
    ansi: bool,
    /// Palette for the importance colors.
    palette: Palette,
    /// Number of intensity bins over `[0, 1]`.
    bins: usize,
}

/// Discretizes a score in `[0, 1]` into `0..bins`.
fn bin_of(score: f32, bins: usize) -> usize {
    let clamped = score.clamp(0.0, 1.0);
    ((clamped * bins as f32) as usize).min(bins - 1)
}

fn colorize(text: &str, score: f32, opts: &RenderOptions) -> String {
    if !opts.ansi {
        return format!("{text}[{score:.2}]");
    }
    let bin = bin_of(score, opts.bins);
    // ANSI-256 color ramps: light→saturated reds and blues.
    let reds = [252u8, 224, 217, 210, 196];
    let blues = [252u8, 195, 153, 111, 33];
    let ramp = match opts.palette {
        Palette::Red => reds,
        Palette::Blue => blues,
    };
    let idx = (bin * (ramp.len() - 1)) / (opts.bins - 1).max(1);
    format!("\x1b[48;5;{}m{text}\x1b[0m", ramp[idx])
}

/// Renders one statement with per-operand importance scores.
fn render_stmt(
    module: &Module,
    stmt: StmtId,
    operands: &[String],
    weights: &[f32],
    opts: &RenderOptions,
) -> String {
    let Some(a) = module.assignment(stmt) else {
        return format!("{stmt}: <unknown statement>");
    };
    let mut text = verilog::print_expr(&a.rhs);
    // Replace each operand occurrence with its colorized form. Longest
    // names first so `req10` is not clobbered by `req1`.
    let mut order: Vec<usize> = (0..operands.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(operands[i].len()));
    for i in order {
        let name = &operands[i];
        let score = weights.get(i).copied().unwrap_or(0.0);
        text = replace_word(&text, name, &colorize(name, score, opts));
    }
    let op = match a.kind {
        verilog::AssignKind::Continuous => "assign ",
        verilog::AssignKind::Blocking => "",
        verilog::AssignKind::NonBlocking => "",
    };
    let eq = if a.kind == verilog::AssignKind::NonBlocking {
        "<="
    } else {
        "="
    };
    format!("{op}{} {eq} {text};", a.lhs.base)
}

/// Whole-word replacement (identifier boundaries).
fn replace_word(text: &str, word: &str, with: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    while i < text.len() {
        if text[i..].starts_with(word) {
            let before_ok = i == 0 || !is_ident(bytes[i - 1]);
            let end = i + word.len();
            let after_ok = end >= text.len() || !is_ident(bytes[end]);
            if before_ok && after_ok {
                out.push_str(with);
                i = end;
                continue;
            }
        }
        let ch = text[i..].chars().next().expect("in bounds");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// Renders a Fig. 4-style side-by-side comparison: the correct-trace scores
/// (blue) against the heatmap scores (red) for the statements in `H_t`,
/// with the suspiciousness column.
pub fn render_comparison(
    module: &Module,
    heatmap: &Heatmap,
    correct: &AttentionMap,
    ansi: bool,
) -> String {
    let red = RenderOptions {
        ansi,
        palette: Palette::Red,
        bins: 5,
    };
    let blue = RenderOptions {
        ansi,
        palette: Palette::Blue,
        bins: 5,
    };
    let mut out = String::new();
    for (stmt, entry) in &heatmap.entries {
        let left = match correct.per_stmt.get(stmt) {
            Some(c) => render_stmt(module, *stmt, &c.operands, &c.weights, &blue),
            None => "(not executed in correct traces)".to_owned(),
        };
        let right = render_stmt(module, *stmt, &entry.operands, &entry.weights, &red);
        let _ = writeln!(out, "C_t: {left}");
        let _ = writeln!(out, "H_t: {right}");
        let _ = writeln!(out, "     suspiciousness = {:.3}\n", entry.suspiciousness);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{HeatmapEntry, SuspicionReason};
    use std::collections::BTreeMap;

    fn module() -> Module {
        verilog::parse("module m(input a, input ab, output y);\nassign y = a & ~ab;\nendmodule")
            .unwrap()
            .top()
            .clone()
    }

    #[test]
    fn bins_cover_range() {
        assert_eq!(bin_of(0.0, 5), 0);
        assert_eq!(bin_of(0.19, 5), 0);
        assert_eq!(bin_of(0.21, 5), 1);
        assert_eq!(bin_of(1.0, 5), 4);
        assert_eq!(bin_of(2.0, 5), 4); // clamped
    }

    #[test]
    fn replace_word_respects_boundaries() {
        assert_eq!(replace_word("a & ab", "a", "X"), "X & ab");
        assert_eq!(replace_word("ab & a", "ab", "Y"), "Y & a");
        assert_eq!(replace_word("aa", "a", "X"), "aa");
    }

    #[test]
    fn plain_rendering_shows_scores() {
        let m = module();
        let mut h = Heatmap {
            entries: BTreeMap::new(),
            threshold: 0.1,
        };
        h.entries.insert(
            StmtId(0),
            HeatmapEntry {
                operands: vec!["a".into(), "ab".into()],
                weights: vec![0.8, 0.2],
                suspiciousness: 0.42,
                reason: SuspicionReason::DivergentAttention,
            },
        );
        let text = render_comparison(&m, &h, &AttentionMap::default(), false);
        assert!(text.contains("a[0.80]"), "{text}");
        assert!(text.contains("ab[0.20]"), "{text}");
        assert!(text.contains("0.420"), "{text}");
    }

    #[test]
    fn ansi_rendering_emits_escapes() {
        let m = module();
        let mut h = Heatmap {
            entries: BTreeMap::new(),
            threshold: 0.1,
        };
        h.entries.insert(
            StmtId(0),
            HeatmapEntry {
                operands: vec!["a".into(), "ab".into()],
                weights: vec![0.9, 0.1],
                suspiciousness: 1.0,
                reason: SuspicionReason::OnlyInFailing,
            },
        );
        let text = render_comparison(&m, &h, &AttentionMap::default(), true);
        assert!(text.contains("\x1b[48;5;"), "{text}");
    }
}
