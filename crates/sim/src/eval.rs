//! Expression evaluation kernels: scalar (the interpreter oracle's) and
//! lane-wise (the batch engine's), plus the [`Write`] both apply.
//!
//! Width semantics follow a simplified two-state reading of Verilog-2001:
//! bitwise/arithmetic binary operators work at the wider operand's width
//! (zero-extended, wrapping), comparisons/logical operators/reductions yield
//! one bit, shifts keep the left operand's width, concatenation sums widths.

use crate::netlist::SignalId;
use crate::value::{BatchValue, Value};
use verilog::{BinaryOp, UnaryOp};

/// A pending (possibly partial) write to a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write {
    /// Target signal.
    pub target: SignalId,
    /// Lowest bit replaced.
    pub lo: u8,
    /// Number of bits replaced.
    pub width: u8,
    /// Replacement bits (already truncated to `width`).
    pub bits: u64,
}

impl Write {
    /// Applies this write to a current value, read-modify-write style. A
    /// `lo` past bit 63 wraps modulo 64.
    pub fn apply(self, current: Value) -> Value {
        let lo = u32::from(self.lo);
        let mask = Value::mask(self.width).wrapping_shl(lo);
        let bits = (current.bits() & !mask) | (self.bits.wrapping_shl(lo) & mask);
        Value::new(bits, current.width())
    }
}

/// Applies a unary operator (the interpreter's kernel; the compiled
/// engine's lane-wise [`eval_unary_batch`] restates it per lane).
pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Value {
    match op {
        UnaryOp::Not => Value::new(!v.bits(), v.width()),
        UnaryOp::LogicalNot => Value::bit(!v.is_truthy()),
        UnaryOp::Negate => Value::new(v.bits().wrapping_neg(), v.width()),
        UnaryOp::RedAnd => Value::bit(v.bits() == Value::mask(v.width())),
        UnaryOp::RedOr => Value::bit(v.is_truthy()),
        UnaryOp::RedXor => Value::bit(v.bits().count_ones() & 1 == 1),
        UnaryOp::RedXnor => Value::bit(v.bits().count_ones() & 1 == 0),
    }
}

/// Applies a binary operator at the combined width (the interpreter's
/// kernel; [`eval_binary_batch`] restates it per lane).
pub(crate) fn eval_binary(op: BinaryOp, a: Value, b: Value) -> Value {
    let w = a.width().max(b.width());
    match op {
        BinaryOp::And => Value::new(a.bits() & b.bits(), w),
        BinaryOp::Or => Value::new(a.bits() | b.bits(), w),
        BinaryOp::Xor => Value::new(a.bits() ^ b.bits(), w),
        BinaryOp::Xnor => Value::new(!(a.bits() ^ b.bits()), w),
        BinaryOp::LogAnd => Value::bit(a.is_truthy() && b.is_truthy()),
        BinaryOp::LogOr => Value::bit(a.is_truthy() || b.is_truthy()),
        BinaryOp::Eq | BinaryOp::CaseEq => Value::bit(a.bits() == b.bits()),
        BinaryOp::Neq | BinaryOp::CaseNeq => Value::bit(a.bits() != b.bits()),
        BinaryOp::Lt => Value::bit(a.bits() < b.bits()),
        BinaryOp::Le => Value::bit(a.bits() <= b.bits()),
        BinaryOp::Gt => Value::bit(a.bits() > b.bits()),
        BinaryOp::Ge => Value::bit(a.bits() >= b.bits()),
        BinaryOp::Add => Value::new(a.bits().wrapping_add(b.bits()), w),
        BinaryOp::Sub => Value::new(a.bits().wrapping_sub(b.bits()), w),
        BinaryOp::Mul => Value::new(a.bits().wrapping_mul(b.bits()), w),
        BinaryOp::Div => Value::new(a.bits().checked_div(b.bits()).unwrap_or(0), w),
        BinaryOp::Mod => Value::new(a.bits().checked_rem(b.bits()).unwrap_or(0), w),
        BinaryOp::Shl => {
            let sh = b.bits().min(64) as u32;
            Value::new(a.bits().checked_shl(sh).unwrap_or(0), a.width())
        }
        BinaryOp::Shr => {
            let sh = b.bits().min(64) as u32;
            Value::new(a.bits().checked_shr(sh).unwrap_or(0), a.width())
        }
    }
}

/// Batched [`eval_unary`]: applies the operator to the first `n` lanes of
/// `v`, writing the result into `out` in place (no 512-byte temporary, no
/// copy-out). Lanes `n..LANES` of `out` are left untouched — they may hold
/// garbage from a previous op, and the batch engine never reads beyond the
/// batch fill.
///
/// The operator match sits outside the lane loop so each arm is a tight,
/// auto-vectorizable pass over the word planes. Every arm restates the
/// scalar formula verbatim; the differential suite holds the two paths
/// bit-identical.
pub(crate) fn eval_unary_batch(op: UnaryOp, v: &BatchValue, n: usize, out: &mut BatchValue) {
    let w = v.width();
    let m = Value::mask(w);
    // Slicing to the fill bound lets the optimizer drop per-lane bounds
    // checks and vectorize the lane loops.
    let a = &v.words()[..n];
    let o = &mut out.words_mut()[..n];
    let mut width = 1;
    match op {
        UnaryOp::Not => {
            for l in 0..n {
                o[l] = !a[l] & m;
            }
            width = w;
        }
        UnaryOp::LogicalNot => {
            for l in 0..n {
                o[l] = u64::from(a[l] == 0);
            }
        }
        UnaryOp::Negate => {
            for l in 0..n {
                o[l] = a[l].wrapping_neg() & m;
            }
            width = w;
        }
        UnaryOp::RedAnd => {
            for l in 0..n {
                o[l] = u64::from(a[l] == m);
            }
        }
        UnaryOp::RedOr => {
            for l in 0..n {
                o[l] = u64::from(a[l] != 0);
            }
        }
        UnaryOp::RedXor => {
            for l in 0..n {
                o[l] = u64::from(a[l].count_ones() & 1 == 1);
            }
        }
        UnaryOp::RedXnor => {
            for l in 0..n {
                o[l] = u64::from(a[l].count_ones() & 1 == 0);
            }
        }
    }
    out.set_width(width);
}

/// Batched [`eval_binary`]: applies the operator to the first `n` lanes at
/// the combined width, writing into `out` in place (see
/// [`eval_unary_batch`] for the lane/garbage contract). Shift amounts,
/// divisors, and comparison operands vary per lane.
pub(crate) fn eval_binary_batch(
    op: BinaryOp,
    a: &BatchValue,
    b: &BatchValue,
    n: usize,
    out: &mut BatchValue,
) {
    let w = a.width().max(b.width());
    let m = Value::mask(w);
    let (x, y) = (&a.words()[..n], &b.words()[..n]);
    let o = &mut out.words_mut()[..n];
    let mut width = 1;
    match op {
        BinaryOp::And => {
            for l in 0..n {
                o[l] = x[l] & y[l];
            }
            width = w;
        }
        BinaryOp::Or => {
            for l in 0..n {
                o[l] = x[l] | y[l];
            }
            width = w;
        }
        BinaryOp::Xor => {
            for l in 0..n {
                o[l] = x[l] ^ y[l];
            }
            width = w;
        }
        BinaryOp::Xnor => {
            for l in 0..n {
                o[l] = !(x[l] ^ y[l]) & m;
            }
            width = w;
        }
        BinaryOp::LogAnd => {
            for l in 0..n {
                o[l] = u64::from(x[l] != 0 && y[l] != 0);
            }
        }
        BinaryOp::LogOr => {
            for l in 0..n {
                o[l] = u64::from(x[l] != 0 || y[l] != 0);
            }
        }
        BinaryOp::Eq | BinaryOp::CaseEq => {
            for l in 0..n {
                o[l] = u64::from(x[l] == y[l]);
            }
        }
        BinaryOp::Neq | BinaryOp::CaseNeq => {
            for l in 0..n {
                o[l] = u64::from(x[l] != y[l]);
            }
        }
        BinaryOp::Lt => {
            for l in 0..n {
                o[l] = u64::from(x[l] < y[l]);
            }
        }
        BinaryOp::Le => {
            for l in 0..n {
                o[l] = u64::from(x[l] <= y[l]);
            }
        }
        BinaryOp::Gt => {
            for l in 0..n {
                o[l] = u64::from(x[l] > y[l]);
            }
        }
        BinaryOp::Ge => {
            for l in 0..n {
                o[l] = u64::from(x[l] >= y[l]);
            }
        }
        BinaryOp::Add => {
            for l in 0..n {
                o[l] = x[l].wrapping_add(y[l]) & m;
            }
            width = w;
        }
        BinaryOp::Sub => {
            for l in 0..n {
                o[l] = x[l].wrapping_sub(y[l]) & m;
            }
            width = w;
        }
        BinaryOp::Mul => {
            for l in 0..n {
                o[l] = x[l].wrapping_mul(y[l]) & m;
            }
            width = w;
        }
        BinaryOp::Div => {
            for l in 0..n {
                o[l] = x[l].checked_div(y[l]).unwrap_or(0);
            }
            width = w;
        }
        BinaryOp::Mod => {
            for l in 0..n {
                o[l] = x[l].checked_rem(y[l]).unwrap_or(0);
            }
            width = w;
        }
        BinaryOp::Shl => {
            let wa = a.width();
            let ma = Value::mask(wa);
            for l in 0..n {
                let sh = y[l].min(64) as u32;
                o[l] = x[l].checked_shl(sh).unwrap_or(0) & ma;
            }
            width = wa;
        }
        BinaryOp::Shr => {
            for l in 0..n {
                let sh = y[l].min(64) as u32;
                o[l] = x[l].checked_shr(sh).unwrap_or(0);
            }
            width = a.width();
        }
    }
    out.set_width(width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::oracle::EvalCtx;
    use crate::value::LANES;

    fn ctx_for(src: &str) -> (Netlist, Vec<(String, u64)>) {
        let nl = Netlist::elaborate(verilog::parse(src).unwrap().top()).unwrap();
        (nl, vec![])
    }

    fn eval_with(src: &str, sets: &[(&str, u64)], expr_of: &str) -> Value {
        let (nl, _) = ctx_for(src);
        let mut ctx = EvalCtx::new(&nl);
        for (name, v) in sets {
            let id = nl.signal_id(name).unwrap();
            let w = nl.signal(id).width;
            ctx.values[id.0 as usize] = Value::new(*v, w);
        }
        // Find the assignment whose LHS is expr_of and evaluate its RHS.
        let module = nl.module.clone();
        let assigns = module.assignments();
        let a = assigns
            .iter()
            .find(|a| a.lhs.base == expr_of)
            .expect("target assignment");
        ctx.eval(&a.rhs).unwrap()
    }

    #[test]
    fn bitwise_ops() {
        let src = "module m(input [3:0] a, input [3:0] b, output [3:0] y);\nassign y = a & ~b;\nendmodule";
        assert_eq!(
            eval_with(src, &[("a", 0b1100), ("b", 0b1010)], "y").bits(),
            0b0100
        );
    }

    #[test]
    fn reductions() {
        let src = "module m(input [3:0] a, output y0, output y1, output y2);\n\
                   assign y0 = &a;\nassign y1 = |a;\nassign y2 = ^a;\nendmodule";
        assert_eq!(eval_with(src, &[("a", 0xF)], "y0").bits(), 1);
        assert_eq!(eval_with(src, &[("a", 0xE)], "y0").bits(), 0);
        assert_eq!(eval_with(src, &[("a", 0x0)], "y1").bits(), 0);
        assert_eq!(eval_with(src, &[("a", 0b0111)], "y2").bits(), 1);
    }

    #[test]
    fn comparison_and_arith() {
        let src = "module m(input [3:0] a, input [3:0] b, output y, output [3:0] s);\n\
                   assign y = a < b;\nassign s = a + b;\nendmodule";
        assert_eq!(eval_with(src, &[("a", 3), ("b", 7)], "y").bits(), 1);
        // 4-bit wrap: 12 + 7 = 19 -> 3.
        assert_eq!(eval_with(src, &[("a", 12), ("b", 7)], "s").bits(), 3);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let src = "module m(input [3:0] a, input [3:0] b, output [3:0] q, output [3:0] r);\n\
                   assign q = a / b;\nassign r = a % b;\nendmodule";
        assert_eq!(eval_with(src, &[("a", 9), ("b", 0)], "q").bits(), 0);
        assert_eq!(eval_with(src, &[("a", 9), ("b", 0)], "r").bits(), 0);
        assert_eq!(eval_with(src, &[("a", 9), ("b", 2)], "q").bits(), 4);
    }

    #[test]
    fn ternary_selects_branch() {
        let src = "module m(input c, input [1:0] a, input [1:0] b, output [1:0] y);\n\
                   assign y = c ? a : b;\nendmodule";
        assert_eq!(
            eval_with(src, &[("c", 1), ("a", 2), ("b", 1)], "y").bits(),
            2
        );
        assert_eq!(
            eval_with(src, &[("c", 0), ("a", 2), ("b", 1)], "y").bits(),
            1
        );
    }

    #[test]
    fn concat_and_repeat() {
        let src = "module m(input a, input [1:0] b, output [4:0] y);\n\
                   assign y = {a, {2{b}}};\nendmodule";
        // a=1, b=0b10 -> {1, 10, 10} = 0b11010 = 26.
        assert_eq!(eval_with(src, &[("a", 1), ("b", 2)], "y").bits(), 0b11010);
    }

    #[test]
    fn bit_select_out_of_range_is_zero() {
        let src = "module m(input [3:0] a, input [2:0] i, output y);\nassign y = a[i];\nendmodule";
        assert_eq!(eval_with(src, &[("a", 0xF), ("i", 6)], "y").bits(), 0);
        assert_eq!(eval_with(src, &[("a", 0b1000), ("i", 3)], "y").bits(), 1);
    }

    #[test]
    fn shifts_keep_lhs_width() {
        let src = "module m(input [3:0] a, input [2:0] n, output [3:0] y, output [3:0] z);\n\
                   assign y = a << n;\nassign z = a >> n;\nendmodule";
        assert_eq!(
            eval_with(src, &[("a", 0b0011), ("n", 2)], "y").bits(),
            0b1100
        );
        assert_eq!(
            eval_with(src, &[("a", 0b1100), ("n", 2)], "z").bits(),
            0b0011
        );
    }

    #[test]
    fn partial_write_applies_rmw() {
        let w = Write {
            target: SignalId(0),
            lo: 2,
            width: 2,
            bits: 0b11,
        };
        let cur = Value::new(0b0001, 4);
        assert_eq!(w.apply(cur).bits(), 0b1101);
    }

    #[test]
    fn partial_write_at_top_of_64_bits() {
        // The mask for a part select touching bit 63 must not overflow.
        let w = Write {
            target: SignalId(0),
            lo: 60,
            width: 4,
            bits: 0b1010,
        };
        let cur = Value::new(u64::MAX, 64);
        let out = w.apply(cur);
        assert_eq!(out.bits() >> 60, 0b1010);
        assert_eq!(out.bits() & ((1u64 << 60) - 1), (1u64 << 60) - 1);
    }

    #[test]
    fn full_width_partial_write_replaces_everything() {
        let w = Write {
            target: SignalId(0),
            lo: 0,
            width: 64,
            bits: 0x0123_4567_89AB_CDEF,
        };
        let cur = Value::new(u64::MAX, 64);
        assert_eq!(w.apply(cur).bits(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn partial_write_excess_bits_are_masked() {
        // `bits` wider than `width` must not leak into neighbouring bits.
        let w = Write {
            target: SignalId(0),
            lo: 1,
            width: 2,
            bits: 0xFF,
        };
        let cur = Value::new(0b0000, 4);
        assert_eq!(w.apply(cur).bits(), 0b0110);
    }

    #[test]
    fn shift_by_width_or_more_is_zero() {
        // Verilog semantics for a logical shift by ≥ width: all bits fall out.
        let src = "module m(input [3:0] a, input [2:0] n, output [3:0] y, output [3:0] z);\n\
                   assign y = a << n;\nassign z = a >> n;\nendmodule";
        assert_eq!(eval_with(src, &[("a", 0b1111), ("n", 4)], "y").bits(), 0);
        assert_eq!(eval_with(src, &[("a", 0b1111), ("n", 7)], "z").bits(), 0);
        // And the scalar free-function path agrees,
        // including a shift amount of exactly 64 on a 64-bit value.
        let a = Value::new(u64::MAX, 64);
        let sh = Value::new(64, 7);
        assert_eq!(eval_binary(BinaryOp::Shl, a, sh).bits(), 0);
        assert_eq!(eval_binary(BinaryOp::Shr, a, sh).bits(), 0);
    }

    #[test]
    fn concat_of_mixed_widths_places_every_part() {
        let src = "module m(input a, input [2:0] b, input [3:0] c, output [7:0] y);\n\
                   assign y = {a, b, c};\nendmodule";
        let v = eval_with(src, &[("a", 1), ("b", 0b010), ("c", 0b1001)], "y");
        assert_eq!(v.width(), 8);
        assert_eq!(v.bits(), 0b1010_1001);
    }

    #[test]
    fn wide_arithmetic_wraps_at_64_bits() {
        let max = Value::new(u64::MAX, 64);
        let one = Value::new(1, 64);
        assert_eq!(eval_binary(BinaryOp::Add, max, one).bits(), 0);
        assert_eq!(
            eval_binary(BinaryOp::Sub, Value::new(0, 64), one).bits(),
            u64::MAX
        );
        assert_eq!(
            eval_binary(BinaryOp::Mul, max, Value::new(2, 64)).bits(),
            u64::MAX - 1
        );
    }

    #[test]
    fn binary_ops_extend_narrow_operand_to_wider_width() {
        // 4-bit + 8-bit happens at 8 bits: 15 + 250 = 265 -> wraps to 9.
        let a = Value::new(0xF, 4);
        let b = Value::new(250, 8);
        let sum = eval_binary(BinaryOp::Add, a, b);
        assert_eq!(sum.width(), 8);
        assert_eq!(sum.bits(), 9);
    }

    /// A deterministic per-lane bit pattern covering zero, all-ones, and
    /// mixed words (xorshift over the lane index).
    fn lane_pattern(width: u8, salt: u64) -> BatchValue {
        let mut words = [0u64; LANES];
        let mut s = salt | 1;
        for (l, w) in words.iter_mut().enumerate() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *w = match l % 4 {
                0 => 0,
                1 => u64::MAX,
                2 => s,
                _ => l as u64,
            };
        }
        BatchValue::from_words(words, width)
    }

    #[test]
    fn unary_batch_matches_scalar_on_every_lane() {
        use UnaryOp::*;
        for op in [Not, LogicalNot, Negate, RedAnd, RedOr, RedXor, RedXnor] {
            for width in [1u8, 3, 7, 32, 63, 64] {
                let v = lane_pattern(width, u64::from(width) * 31 + 7);
                let mut batch = BatchValue::zeros(1);
                eval_unary_batch(op, &v, LANES, &mut batch);
                for l in 0..LANES {
                    let scalar = eval_unary(op, v.lane(l));
                    assert_eq!(
                        batch.lane(l),
                        scalar,
                        "op {op:?} width {width} lane {l} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn binary_batch_matches_scalar_on_every_lane() {
        use BinaryOp::*;
        let ops = [
            And, Or, Xor, Xnor, LogAnd, LogOr, Eq, Neq, CaseEq, CaseNeq, Lt, Le, Gt, Ge, Add, Sub,
            Mul, Div, Mod, Shl, Shr,
        ];
        for op in ops {
            for (wa, wb) in [(1u8, 1u8), (4, 8), (8, 4), (63, 64), (64, 64), (64, 7)] {
                let a = lane_pattern(wa, 0x9E37_79B9);
                let b = lane_pattern(wb, 0x85EB_CA6B);
                let mut batch = BatchValue::zeros(1);
                eval_binary_batch(op, &a, &b, LANES, &mut batch);
                for l in 0..LANES {
                    let scalar = eval_binary(op, a.lane(l), b.lane(l));
                    assert_eq!(
                        batch.lane(l),
                        scalar,
                        "op {op:?} widths ({wa},{wb}) lane {l} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn shift_batch_per_lane_amounts_cover_width_and_beyond() {
        // Shift amounts 0..=LANES-1 per lane: amounts >= the operand width
        // (and >= 64) must flush to zero, exactly like the scalar path.
        let mut amounts = [0u64; LANES];
        for (l, a) in amounts.iter_mut().enumerate() {
            *a = l as u64;
        }
        amounts[62] = 64;
        amounts[63] = 100;
        let sh = BatchValue::from_words(amounts, 7);
        let a = BatchValue::splat(Value::new(u64::MAX, 64));
        for op in [BinaryOp::Shl, BinaryOp::Shr] {
            let mut batch = BatchValue::zeros(1);
            eval_binary_batch(op, &a, &sh, LANES, &mut batch);
            for l in 0..LANES {
                assert_eq!(batch.lane(l), eval_binary(op, a.lane(l), sh.lane(l)));
            }
        }
    }
}
