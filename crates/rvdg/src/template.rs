//! Typed expression templates over a signal pool.
//!
//! The plain Boolean generator in [`crate::expr`] covers `&`/`|`/`^`/`~`;
//! real designs also lean on comparisons, ternaries, bit-selects, and
//! arithmetic on narrow vectors. To transfer (paper Sec. VI-A), the trained
//! token embeddings must have seen every AST node kind, so the template
//! generator mixes those constructs into the synthetic corpus with
//! controllable weights.

use rand::rngs::StdRng;
use rand::RngExt;

use crate::expr::{random_expr, ExprConfig};

/// The signals available to the expression generator, with widths.
#[derive(Debug, Clone, Default)]
pub struct SignalPool {
    /// One-bit signals usable as Boolean operands.
    pub bits: Vec<String>,
    /// Multi-bit signals with their widths.
    pub wide: Vec<(String, u32)>,
}

impl SignalPool {
    fn random_bit(&self, rng: &mut StdRng) -> &str {
        &self.bits[rng.random_range(0..self.bits.len())]
    }

    fn random_wide(&self, rng: &mut StdRng) -> &(String, u32) {
        &self.wide[rng.random_range(0..self.wide.len())]
    }
}

/// Mixing weights for the one-bit-valued expression templates. Weights need
/// not sum to one; they are normalized internally.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TemplateMix {
    /// Plain Boolean combination of one-bit operands.
    pub boolean: f64,
    /// Equality/inequality of wide operands (vs each other or a literal),
    /// possibly conjoined with a one-bit operand.
    pub compare: f64,
    /// Ternary select over one-bit operands.
    pub ternary: f64,
    /// Bit-select of a wide operand folded into a Boolean combination.
    pub bit_select: f64,
    /// Reduction (`|x`, `&x`, `^x`) of a wide operand.
    pub reduction: f64,
}

impl Default for TemplateMix {
    fn default() -> Self {
        TemplateMix {
            boolean: 0.45,
            compare: 0.20,
            ternary: 0.15,
            bit_select: 0.12,
            reduction: 0.08,
        }
    }
}

impl TemplateMix {
    /// Only plain Boolean statements (the paper's minimal template).
    pub fn boolean_only() -> Self {
        TemplateMix {
            boolean: 1.0,
            compare: 0.0,
            ternary: 0.0,
            bit_select: 0.0,
            reduction: 0.0,
        }
    }
}

/// Generates a one-bit-valued expression over the pool.
///
/// # Panics
///
/// Panics when the pool has no one-bit signals.
pub fn random_bool_expr(
    rng: &mut StdRng,
    pool: &SignalPool,
    cfg: &ExprConfig,
    mix: &TemplateMix,
) -> String {
    assert!(!pool.bits.is_empty(), "empty one-bit signal pool");
    let have_wide = !pool.wide.is_empty();
    let weights = [
        mix.boolean,
        if have_wide { mix.compare } else { 0.0 },
        mix.ternary,
        if have_wide { mix.bit_select } else { 0.0 },
        if have_wide { mix.reduction } else { 0.0 },
    ];
    match pick(rng, &weights) {
        0 => random_expr(rng, &pool.bits, cfg),
        1 => compare_expr(rng, pool, cfg),
        2 => ternary_expr(rng, pool, cfg),
        3 => bit_select_expr(rng, pool, cfg),
        _ => reduction_expr(rng, pool),
    }
}

/// Generates a wide-valued expression of the given width: arithmetic,
/// ternary select, concatenation, or a shifted/registered move.
pub fn random_wide_expr(rng: &mut StdRng, pool: &SignalPool, width: u32) -> String {
    let same_width: Vec<&(String, u32)> = pool.wide.iter().filter(|(_, w)| *w == width).collect();
    if same_width.is_empty() {
        // Fall back to a literal of the right width.
        let v = rng.random_range(0..(1u64 << width.min(16)));
        return format!("{width}'d{v}");
    }
    let a = &same_width[rng.random_range(0..same_width.len())].0;
    let b = &same_width[rng.random_range(0..same_width.len())].0;
    match rng.random_range(0..5) {
        0 => format!("{a} + {width}'d1"),
        1 => format!("{a} - {width}'d1"),
        2 => format!("{a} ^ {b}"),
        3 => {
            let c = pool
                .bits
                .get(rng.random_range(0..pool.bits.len().max(1)))
                .cloned()
                .unwrap_or_else(|| "1'b1".to_owned());
            format!("{c} ? {a} : {b}")
        }
        _ => format!("{a} & {b}"),
    }
}

fn compare_expr(rng: &mut StdRng, pool: &SignalPool, cfg: &ExprConfig) -> String {
    let (a, w) = pool.random_wide(rng).clone();
    let op = if rng.random_bool(0.5) { "==" } else { "!=" };
    let rhs = if rng.random_bool(0.5) && pool.wide.iter().filter(|(_, ww)| *ww == w).count() > 1 {
        loop {
            let (b, wb) = pool.random_wide(rng);
            if *wb == w && *b != a {
                break b.clone();
            }
        }
    } else {
        let v = rng.random_range(0..(1u64 << w.min(16)));
        format!("{w}'d{v}")
    };
    let core = format!("({a} {op} {rhs})");
    if rng.random_bool(0.5) {
        let extra = random_expr(
            rng,
            &pool.bits,
            &ExprConfig {
                min_operands: 1,
                max_operands: 1,
                ..*cfg
            },
        );
        let join = if rng.random_bool(0.5) { "&" } else { "|" };
        format!("{core} {join} {extra}")
    } else {
        core
    }
}

fn ternary_expr(rng: &mut StdRng, pool: &SignalPool, cfg: &ExprConfig) -> String {
    let one = ExprConfig {
        min_operands: 1,
        max_operands: 1,
        ..*cfg
    };
    let c = random_expr(rng, &pool.bits, &one);
    let t = random_expr(rng, &pool.bits, &one);
    let f = random_expr(rng, &pool.bits, &one);
    format!("{c} ? {t} : {f}")
}

fn bit_select_expr(rng: &mut StdRng, pool: &SignalPool, cfg: &ExprConfig) -> String {
    let (a, w) = pool.random_wide(rng).clone();
    let idx = rng.random_range(0..w);
    let core = format!("{a}[{idx}]");
    if rng.random_bool(0.6) {
        let extra = random_expr(
            rng,
            &pool.bits,
            &ExprConfig {
                min_operands: 1,
                max_operands: 2,
                ..*cfg
            },
        );
        let join = ["&", "|", "^"][rng.random_range(0..3usize)];
        format!("{core} {join} {extra}")
    } else {
        core
    }
}

fn reduction_expr(rng: &mut StdRng, pool: &SignalPool) -> String {
    let (a, _) = pool.random_wide(rng);
    let op = ["|", "&", "^"][rng.random_range(0..3usize)];
    let bit = pool.random_bit(rng);
    format!("({op}{a}) ^ {bit}")
}

fn pick(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.random_range(0.0..total.max(f64::MIN_POSITIVE));
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pool() -> SignalPool {
        SignalPool {
            bits: vec!["a".into(), "b".into(), "c".into()],
            wide: vec![("w0".into(), 3), ("w1".into(), 3), ("w2".into(), 2)],
        }
    }

    fn parses_as_bool_rhs(e: &str) {
        let src = format!(
            "module m(input a, input b, input c, input [2:0] w0, input [2:0] w1, input [1:0] w2, output y);\nassign y = {e};\nendmodule"
        );
        verilog::parse(&src).unwrap_or_else(|err| panic!("`{e}`: {err}"));
    }

    #[test]
    fn all_templates_emit_parseable_expressions() {
        let cfg = ExprConfig::default();
        let mix = TemplateMix::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            parses_as_bool_rhs(&random_bool_expr(&mut rng, &pool(), &cfg, &mix));
        }
    }

    #[test]
    fn wide_expressions_parse() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let e = random_wide_expr(&mut rng, &pool(), 3);
            let src = format!(
                "module m(input a, input b, input c, input [2:0] w0, input [2:0] w1, input [1:0] w2, output [2:0] y);\nassign y = {e};\nendmodule"
            );
            verilog::parse(&src).unwrap_or_else(|err| panic!("`{e}`: {err}"));
        }
    }

    #[test]
    fn boolean_only_mix_never_uses_wide_constructs() {
        let cfg = ExprConfig::default();
        let mix = TemplateMix::boolean_only();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let e = random_bool_expr(&mut rng, &pool(), &cfg, &mix);
            assert!(
                !e.contains("w0") && !e.contains("w1") && !e.contains("w2"),
                "wide signal leaked into boolean-only mix: {e}"
            );
        }
    }

    #[test]
    fn templates_cover_target_node_kinds() {
        // Over many samples, the generator must produce comparisons,
        // ternaries, bit-selects, and reductions (the transfer vocabulary).
        let cfg = ExprConfig::default();
        let mix = TemplateMix::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut saw = [false; 4];
        for _ in 0..300 {
            let e = random_bool_expr(&mut rng, &pool(), &cfg, &mix);
            saw[0] |= e.contains("==") || e.contains("!=");
            saw[1] |= e.contains('?');
            saw[2] |= e.contains('[');
            saw[3] |= e.contains("(|") || e.contains("(&") || e.contains("(^");
        }
        assert!(saw.iter().all(|s| *s), "missing template coverage: {saw:?}");
    }
}
