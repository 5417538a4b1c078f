//! Two-state bit-vector values (1–64 bits), scalar and batched.

use std::fmt;

/// Number of stimulus lanes a [`BatchValue`] carries.
///
/// 64 lanes means per-lane activity masks fit in one `u64`, so branch
/// divergence bookkeeping in the batch engine is plain word arithmetic.
pub const LANES: usize = 64;

/// A two-state logic value: `width` bits stored in the low bits of `bits`.
///
/// All constructors and operations keep the invariant that bits above
/// `width` are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Value {
    bits: u64,
    width: u8,
}

impl Value {
    /// Creates a value, truncating `bits` to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(bits: u64, width: u8) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of 1..=64");
        Value {
            bits: bits & Self::mask(width),
            width,
        }
    }

    /// A single-bit value.
    pub fn bit(b: bool) -> Self {
        Value {
            bits: u64::from(b),
            width: 1,
        }
    }

    /// The all-zero value of a given width.
    pub fn zero(width: u8) -> Self {
        Value::new(0, width)
    }

    /// The raw bits (above-width bits are always zero).
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The width in bits.
    pub fn width(self) -> u8 {
        self.width
    }

    /// True when any bit is set.
    pub fn is_truthy(self) -> bool {
        self.bits != 0
    }

    /// The least-significant bit.
    pub fn lsb(self) -> bool {
        self.bits & 1 != 0
    }

    /// Reinterprets the value at a new width (truncating or zero-extending).
    pub fn resize(self, width: u8) -> Self {
        Value::new(self.bits, width)
    }

    /// The low-bit mask for a width.
    pub fn mask(width: u8) -> u64 {
        if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'d{}", self.width, self.bits)
    }
}

impl fmt::Binary for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:0width$b}", self.bits, width = self.width as usize)
    }
}

impl fmt::LowerHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.bits)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bit(b)
    }
}

/// [`LANES`] independent [`Value`]s of one shared width, stored lane-major:
/// `words[l]` holds lane `l`'s bits.
///
/// Lane-major layout (one machine word per lane, rather than one word per
/// bit position across lanes) keeps arithmetic, shifts by per-lane amounts,
/// division, and comparisons as ordinary `u64` operations inside a
/// vectorizable loop; see DESIGN.md "Batch simulation" for the trade-off
/// against the transposed layout.
///
/// The scalar invariant carries over per lane: bits above `width` are zero
/// in every word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchValue {
    words: [u64; LANES],
    width: u8,
}

impl BatchValue {
    /// The all-zero batch of a given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn zeros(width: u8) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of 1..=64");
        BatchValue {
            words: [0; LANES],
            width,
        }
    }

    /// Every lane set to the same scalar value.
    pub fn splat(v: Value) -> Self {
        BatchValue {
            words: [v.bits(); LANES],
            width: v.width(),
        }
    }

    /// Builds a batch from raw per-lane words, truncating each to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn from_words(mut words: [u64; LANES], width: u8) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of 1..=64");
        let m = Value::mask(width);
        for w in &mut words {
            *w &= m;
        }
        BatchValue { words, width }
    }

    /// The shared width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Mutable access to the per-lane words, for in-place kernels. The
    /// caller is responsible for keeping live lanes masked to the width it
    /// subsequently sets with [`BatchValue::set_width`]; lanes beyond the
    /// batch fill may hold garbage (the engine never reads them).
    pub(crate) fn words_mut(&mut self) -> &mut [u64; LANES] {
        &mut self.words
    }

    /// Overwrites the width after an in-place kernel rewrote the words.
    pub(crate) fn set_width(&mut self, width: u8) {
        debug_assert!((1..=64).contains(&width), "width {width} out of 1..=64");
        self.width = width;
    }

    /// Copies the first `n` lanes (and the width) from `src` — a
    /// fill-bounded [`Clone`] for slab slots.
    pub(crate) fn copy_lanes(&mut self, src: &BatchValue, n: usize) {
        self.words[..n].copy_from_slice(&src.words[..n]);
        self.width = src.width;
    }

    /// Sets the first `n` lanes to the same scalar value — a fill-bounded
    /// [`BatchValue::splat`].
    pub(crate) fn splat_lanes(&mut self, v: Value, n: usize) {
        self.words[..n].fill(v.bits());
        self.width = v.width();
    }

    /// The raw per-lane words (above-width bits are always zero).
    pub fn words(&self) -> &[u64; LANES] {
        &self.words
    }

    /// Extracts one lane as a scalar [`Value`].
    pub fn lane(&self, l: usize) -> Value {
        Value::new(self.words[l], self.width)
    }

    /// Overwrites one lane, truncating the value to the batch width.
    pub fn set_lane(&mut self, l: usize, v: Value) {
        self.words[l] = v.bits() & Value::mask(self.width);
    }

    /// Per-lane truthiness as a mask: bit `l` is set when lane `l` is
    /// non-zero.
    pub fn truthy_mask(&self) -> u64 {
        let mut m = 0u64;
        for (l, &w) in self.words.iter().enumerate() {
            m |= u64::from(w != 0) << l;
        }
        m
    }

    /// Per-lane raw-bit equality as a mask: bit `l` is set when the lanes'
    /// bits match (widths are ignored, mirroring the interpreter's
    /// case-label comparison on `Value::bits`).
    pub fn eq_mask(&self, other: &BatchValue) -> u64 {
        let mut m = 0u64;
        for l in 0..LANES {
            m |= u64::from(self.words[l] == other.words[l]) << l;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncates_to_width() {
        assert_eq!(Value::new(0xFF, 4).bits(), 0xF);
        assert_eq!(Value::new(u64::MAX, 64).bits(), u64::MAX);
    }

    #[test]
    fn resize_zero_extends_and_truncates() {
        let v = Value::new(0b1010, 4);
        assert_eq!(v.resize(8).bits(), 0b1010);
        assert_eq!(v.resize(2).bits(), 0b10);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = Value::new(0, 0);
    }

    #[test]
    fn formatting() {
        let v = Value::new(0b101, 3);
        assert_eq!(v.to_string(), "3'd5");
        assert_eq!(format!("{v:b}"), "101");
        assert_eq!(format!("{v:x}"), "5");
    }

    #[test]
    fn resize_to_64_keeps_all_bits() {
        // The 64-bit mask path must not shift by 64 (UB in release, panic in
        // debug) — a full-width value survives a resize round trip intact.
        let v = Value::new(u64::MAX, 32);
        assert_eq!(v.resize(64).bits(), 0xFFFF_FFFF);
        assert_eq!(Value::new(u64::MAX, 64).resize(64).bits(), u64::MAX);
    }

    #[test]
    fn truthiness() {
        assert!(Value::new(2, 4).is_truthy());
        assert!(!Value::zero(4).is_truthy());
        assert!(!Value::new(2, 4).lsb());
        assert!(Value::new(3, 4).lsb());
    }

    #[test]
    fn batch_splat_and_lane_round_trip() {
        let b = BatchValue::splat(Value::new(0b1011, 4));
        assert_eq!(b.width(), 4);
        for l in [0, 1, 31, 63] {
            assert_eq!(b.lane(l), Value::new(0b1011, 4));
        }
    }

    #[test]
    fn batch_from_words_truncates_every_lane() {
        let mut words = [0u64; LANES];
        words[0] = 0xFF;
        words[63] = u64::MAX;
        let b = BatchValue::from_words(words, 4);
        assert_eq!(b.lane(0).bits(), 0xF);
        assert_eq!(b.lane(63).bits(), 0xF);
        assert_eq!(b.lane(1).bits(), 0);
    }

    #[test]
    fn batch_width_64_keeps_all_bits() {
        // The width-64 mask path must not shift by 64 in any lane.
        let mut words = [0u64; LANES];
        words[5] = u64::MAX;
        let b = BatchValue::from_words(words, 64);
        assert_eq!(b.lane(5).bits(), u64::MAX);
        let mut b = BatchValue::zeros(64);
        b.set_lane(7, Value::new(u64::MAX, 64));
        assert_eq!(b.lane(7).bits(), u64::MAX);
        assert_eq!(b.lane(8).bits(), 0);
    }

    #[test]
    fn batch_set_lane_truncates_to_batch_width() {
        let mut b = BatchValue::zeros(3);
        b.set_lane(2, Value::new(0xFF, 8));
        assert_eq!(b.lane(2).bits(), 0b111);
    }

    #[test]
    fn batch_truthy_mask_is_per_lane() {
        let mut b = BatchValue::zeros(4);
        b.set_lane(0, Value::new(1, 4));
        b.set_lane(3, Value::new(0b1000, 4));
        b.set_lane(63, Value::new(0xF, 4));
        assert_eq!(b.truthy_mask(), 1 | (1 << 3) | (1 << 63));
    }

    #[test]
    fn batch_eq_mask_compares_raw_bits() {
        let a = BatchValue::splat(Value::new(0b10, 2));
        let mut b = BatchValue::splat(Value::new(0b10, 2));
        b.set_lane(9, Value::new(0b01, 2));
        assert_eq!(a.eq_mask(&b), !(1u64 << 9));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn batch_zero_width_panics() {
        let _ = BatchValue::zeros(0);
    }
}
