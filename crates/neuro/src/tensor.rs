//! Dense row-major `f32` matrices — the only tensor shape the VeriBug model
//! needs (vectors are `1×n` matrices).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty tensor {rows}x{cols}");
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "empty tensor {rows}x{cols}");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Tensor { rows, cols, data }
    }

    /// A `1×n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor::from_vec(1, n, data)
    }

    /// A `1×1` scalar.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// A one-hot `1×n` row vector.
    ///
    /// # Panics
    ///
    /// Panics when `hot >= n`.
    pub fn one_hot(n: usize, hot: usize) -> Self {
        assert!(hot < n, "one-hot index {hot} out of {n}");
        let mut t = Tensor::zeros(1, n);
        t[(0, hot)] = 1.0;
        t
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single element of a `1×1` tensor.
    ///
    /// # Panics
    ///
    /// Panics when the tensor is not `1×1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    /// Borrows one row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix multiply `self (r×k) · other (k×c) -> (r×c)`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} by {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(orow) {
                    *d += a * b;
                }
            }
        }
        out
    }

    /// Matrix multiply against a transposed right operand without
    /// materializing the transpose: `self (m×k) · otherᵀ (k×n) -> (m×n)`
    /// where `other` is `n×k`.
    ///
    /// Each output element is a dot product of two row slices, so the inner
    /// loop is contiguous in both operands.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt {}x{} by ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = &mut out.data[i * other.rows..(i + 1) * other.rows];
            for (d, j) in orow.iter_mut().zip(0..other.rows) {
                let brow = other.row(j);
                *d = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// Matrix multiply with a transposed left operand without materializing
    /// the transpose: `selfᵀ (m×k) · other (k×n) -> (m×n)` where `self` is
    /// `k×m`.
    ///
    /// Computed as a sum of rank-1 updates over the shared `k` dimension;
    /// the inner loop streams rows of both `other` and the output.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn ({}x{})ᵀ by {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        for t in 0..self.rows {
            let arow = self.row(t);
            let brow = &other.data[t * other.cols..(t + 1) * other.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(brow) {
                    *d += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combine with another same-shape tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |x, y| x + y)
    }

    /// Elementwise (Hadamard) product of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |x, y| x * y)
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// `self (r×c) + b (1×c)` broadcast over rows (bias add).
    ///
    /// # Panics
    ///
    /// Panics when `b` is not `1×c`.
    pub fn add_row_broadcast(&self, b: &Tensor) -> Tensor {
        let (ar, ac) = self.shape();
        let (br, bc) = b.shape();
        assert_eq!((br, bc), (1, ac), "broadcast add {ar}x{ac} + {br}x{bc}");
        let mut v = self.clone();
        for r in 0..ar {
            for c in 0..ac {
                v[(r, c)] += b[(0, c)];
            }
        }
        v
    }

    /// Softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Tensor {
        let mut v = self.clone();
        for r in 0..self.rows {
            let row = self.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (c, e) in exps.iter().enumerate() {
                v[(r, c)] = e / sum;
            }
        }
        v
    }

    /// Sums all rows into a `1×c` vector.
    pub fn sum_rows(&self) -> Tensor {
        let mut v = Tensor::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                v[(0, c)] += self[(r, c)];
            }
        }
        v
    }

    /// Concatenates same-row-count tensors along columns.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = parts[0].rows;
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut v = Tensor::zeros(rows, total);
        let mut off = 0;
        for t in parts {
            assert_eq!(t.rows, rows, "concat_cols row mismatch");
            for r in 0..rows {
                for c in 0..t.cols {
                    v[(r, off + c)] = t[(r, c)];
                }
            }
            off += t.cols;
        }
        v
    }

    /// Stacks same-column-count tensors along rows.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = parts[0].cols;
        let total: usize = parts.iter().map(|p| p.rows).sum();
        let mut v = Tensor::zeros(total, cols);
        let mut off = 0;
        for t in parts {
            assert_eq!(t.cols, cols, "concat_rows col mismatch");
            for r in 0..t.rows {
                for c in 0..cols {
                    v[(off + r, c)] = t[(r, c)];
                }
            }
            off += t.rows;
        }
        v
    }

    /// In-place elementwise add.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sets every element to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element in a `1×n` row vector.
    ///
    /// # Panics
    ///
    /// Panics when the tensor has more than one row.
    pub fn argmax_row(&self) -> usize {
        assert_eq!(self.rows, 1, "argmax_row on multi-row tensor");
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>9.4} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_free_matmuls_match_explicit_transposes() {
        let a = Tensor::from_vec(2, 3, vec![1., -2., 3., 0., 5., -6.]);
        let b = Tensor::from_vec(
            4,
            3,
            vec![7., 8., 9., 10., 0., 12., 13., 14., 15., 16., 17., 18.],
        );
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transposed()));
        let c = Tensor::from_vec(2, 4, vec![1., 2., 0., 4., 5., 6., 7., 8.]);
        assert_eq!(a.matmul_tn(&c), a.transposed().matmul(&c));
    }

    #[test]
    #[should_panic(expected = "matmul_nt")]
    fn matmul_nt_shape_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul_nt(&Tensor::zeros(2, 4));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed()[(2, 1)], 6.0);
    }

    #[test]
    fn one_hot_and_argmax() {
        let t = Tensor::one_hot(4, 2);
        assert_eq!(t.argmax_row(), 2);
        assert_eq!(t.sum(), 1.0);
    }

    #[test]
    fn frobenius_norm() {
        let t = Tensor::from_vec(1, 2, vec![3., 4.]);
        assert!((t.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn zip_and_map() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.zip(&b, |x, y| x * y).data(), &[4., 10., 18.]);
        assert_eq!(a.map(|x| x + 1.).data(), &[2., 3., 4.]);
    }
}
