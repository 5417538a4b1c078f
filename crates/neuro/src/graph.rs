//! Define-by-run reverse-mode autograd over [`Tensor`]s.
//!
//! A [`Graph`] is a tape: every operation appends a node holding its forward
//! value and the identity of its parents. [`Graph::backward`] walks the tape
//! in reverse, propagating gradients and accumulating them into the
//! persistent [`Params`] store for leaf nodes bound to parameters.
//!
//! The op set is exactly what the VeriBug model (LSTM + aggregation +
//! attention + MLPs + regularized weighted cross-entropy) requires. Each
//! op's forward arithmetic is a [`Tensor`] function the tape calls, so the
//! layers' tape-free `infer` methods, which call the same functions, are
//! bit-identical to a forward pass on the tape.

use crate::params::{GradBuffer, ParamId, Params};
use crate::tensor::Tensor;
use std::collections::HashMap;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    AddRowBroadcast(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    ScaleByScalar(NodeId, NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Relu(NodeId),
    SoftmaxRow(NodeId),
    ConcatCols(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    SumRows(NodeId),
    Transpose(NodeId),
    Row(NodeId, usize),
    CrossEntropyLogits(NodeId, usize),
    RecipFrobNorm(NodeId),
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    op: Op,
    param: Option<ParamId>,
}

/// A reverse-mode autograd tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    param_nodes: HashMap<ParamId, NodeId>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
            param_nodes: HashMap::new(),
        }
    }

    fn push(&mut self, value: Tensor, op: Op, param: Option<ParamId>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { value, op, param });
        id
    }

    /// The forward value of a node.
    pub fn value(&self, n: NodeId) -> &Tensor {
        &self.nodes[n.0].value
    }

    fn values(&self, parts: &[NodeId]) -> Vec<&Tensor> {
        parts.iter().map(|p| self.value(*p)).collect()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds (or reuses) a leaf bound to a parameter; its gradient flows into
    /// the parameter's accumulator on [`Graph::backward`].
    pub fn param(&mut self, params: &Params, id: ParamId) -> NodeId {
        if let Some(&n) = self.param_nodes.get(&id) {
            return n;
        }
        let n = self.push(params.value(id).clone(), Op::Leaf, Some(id));
        self.param_nodes.insert(id, n);
        n
    }

    /// Adds a constant leaf (no gradient flows out of it).
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf, None)
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b), None)
    }

    /// Elementwise sum of two same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b), None)
    }

    /// `a (r×c) + b (1×c)` broadcast over rows (bias add).
    ///
    /// # Panics
    ///
    /// Panics when `b` is not `1×c`.
    pub fn add_row_broadcast(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add_row_broadcast(self.value(b));
        self.push(v, Op::AddRowBroadcast(a, b), None)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b), None)
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.value(a).scale(s);
        self.push(v, Op::Scale(a, s), None)
    }

    /// Multiplication by a learnable `1×1` scalar node (the paper's ε).
    ///
    /// # Panics
    ///
    /// Panics when `s` is not `1×1`.
    pub fn scale_by(&mut self, a: NodeId, s: NodeId) -> NodeId {
        assert_eq!(self.value(s).shape(), (1, 1), "scale_by needs 1x1 scalar");
        let k = self.value(s).item();
        let v = self.value(a).scale(k);
        self.push(v, Op::ScaleByScalar(a, s), None)
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).tanh();
        self.push(v, Op::Tanh(a), None)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).sigmoid();
        self.push(v, Op::Sigmoid(a), None)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).relu();
        self.push(v, Op::Relu(a), None)
    }

    /// Softmax applied independently to each row.
    pub fn softmax_row(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).softmax_rows();
        self.push(v, Op::SoftmaxRow(a), None)
    }

    /// Concatenates same-row-count nodes along columns.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let v = Tensor::concat_cols(&self.values(parts));
        self.push(v, Op::ConcatCols(parts.to_vec()), None)
    }

    /// Stacks same-column-count nodes along rows.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        let v = Tensor::concat_rows(&self.values(parts));
        self.push(v, Op::ConcatRows(parts.to_vec()), None)
    }

    /// Sums all rows into a `1×c` vector.
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).sum_rows();
        self.push(v, Op::SumRows(a), None)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).transposed();
        self.push(v, Op::Transpose(a), None)
    }

    /// Extracts row `r` as a `1×c` node.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row(&mut self, a: NodeId, r: usize) -> NodeId {
        let t = self.value(a);
        assert!(r < t.rows(), "row {r} out of {}", t.rows());
        let v = Tensor::row_vector(t.row(r).to_vec());
        self.push(v, Op::Row(a, r), None)
    }

    /// Cross-entropy of a `1×k` logits node against a class index:
    /// `-log softmax(logits)[target]`, yielding a `1×1` scalar.
    ///
    /// # Panics
    ///
    /// Panics when the node is not a single row or `target` is out of range.
    pub fn cross_entropy_logits(&mut self, logits: NodeId, target: usize) -> NodeId {
        let t = self.value(logits);
        assert_eq!(t.rows(), 1, "cross entropy needs 1xk logits");
        assert!(target < t.cols(), "target class out of range");
        let row = t.row(0);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
        let loss = log_sum - row[target];
        self.push(
            Tensor::scalar(loss),
            Op::CrossEntropyLogits(logits, target),
            None,
        )
    }

    /// `1 / ||A||_F` as a `1×1` scalar — the paper's localization
    /// regularizer term. The norm is clamped below at `1e-6`.
    pub fn recip_frob_norm(&mut self, a: NodeId) -> NodeId {
        let norm = self.value(a).frob_norm().max(1e-6);
        self.push(Tensor::scalar(1.0 / norm), Op::RecipFrobNorm(a), None)
    }

    /// Runs backpropagation from a `1×1` loss node, accumulating parameter
    /// gradients into `params`.
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a `1×1` scalar.
    pub fn backward(&self, loss: NodeId, params: &mut Params) {
        self.backward_with(loss, &mut |pid, g| params.accumulate_grad(pid, g));
    }

    /// Runs backpropagation from a `1×1` loss node, accumulating parameter
    /// gradients into a detached [`GradBuffer`].
    ///
    /// This is the data-parallel entry point: each worker backpropagates
    /// into its own buffer against a shared immutable `Params`, and the
    /// buffers are merged in a fixed order afterwards.
    ///
    /// # Panics
    ///
    /// Panics when `loss` is not a `1×1` scalar.
    pub fn backward_to(&self, loss: NodeId, buf: &mut GradBuffer) {
        self.backward_with(loss, &mut |pid, g| buf.accumulate(pid, g));
    }

    /// Backpropagation core: walks the tape in reverse and hands each leaf
    /// parameter gradient to `sink`.
    fn backward_with(&self, loss: NodeId, sink: &mut dyn FnMut(ParamId, &Tensor)) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            match &node.op {
                Op::Leaf => {
                    if let Some(pid) = node.param {
                        sink(pid, &g);
                    }
                }
                Op::MatMul(a, b) => {
                    // da = g·bᵀ and db = aᵀ·g via the transpose-free kernels.
                    let da = g.matmul_nt(&self.nodes[b.0].value);
                    let db = self.nodes[a.0].value.matmul_tn(&g);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::AddRowBroadcast(a, b) => {
                    let mut db = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            db[(0, c)] += g[(r, c)];
                        }
                    }
                    accumulate(&mut grads, *a, g);
                    accumulate(&mut grads, *b, db);
                }
                Op::Mul(a, b) => {
                    let da = g.zip(&self.nodes[b.0].value, |x, y| x * y);
                    let db = g.zip(&self.nodes[a.0].value, |x, y| x * y);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Scale(a, s) => {
                    accumulate(&mut grads, *a, g.map(|x| x * s));
                }
                Op::ScaleByScalar(a, s) => {
                    let k = self.nodes[s.0].value.item();
                    let da = g.map(|x| x * k);
                    let ds = g.zip(&self.nodes[a.0].value, |gx, ax| gx * ax).sum();
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *s, Tensor::scalar(ds));
                }
                Op::Tanh(a) => {
                    let da = g.zip(&node.value, |gx, y| gx * (1.0 - y * y));
                    accumulate(&mut grads, *a, da);
                }
                Op::Sigmoid(a) => {
                    let da = g.zip(&node.value, |gx, y| gx * y * (1.0 - y));
                    accumulate(&mut grads, *a, da);
                }
                Op::Relu(a) => {
                    let da = g.zip(
                        &self.nodes[a.0].value,
                        |gx, x| if x > 0.0 { gx } else { 0.0 },
                    );
                    accumulate(&mut grads, *a, da);
                }
                Op::SoftmaxRow(a) => {
                    let y = &node.value;
                    let mut da = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|c| g[(r, c)] * y[(r, c)]).sum();
                        for c in 0..y.cols() {
                            da[(r, c)] = y[(r, c)] * (g[(r, c)] - dot);
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for p in parts {
                        let t = &self.nodes[p.0].value;
                        let mut dp = Tensor::zeros(t.rows(), t.cols());
                        for r in 0..t.rows() {
                            for c in 0..t.cols() {
                                dp[(r, c)] = g[(r, off + c)];
                            }
                        }
                        off += t.cols();
                        accumulate(&mut grads, *p, dp);
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for p in parts {
                        let t = &self.nodes[p.0].value;
                        let mut dp = Tensor::zeros(t.rows(), t.cols());
                        for r in 0..t.rows() {
                            for c in 0..t.cols() {
                                dp[(r, c)] = g[(off + r, c)];
                            }
                        }
                        off += t.rows();
                        accumulate(&mut grads, *p, dp);
                    }
                }
                Op::SumRows(a) => {
                    let t = &self.nodes[a.0].value;
                    let mut da = Tensor::zeros(t.rows(), t.cols());
                    for r in 0..t.rows() {
                        for c in 0..t.cols() {
                            da[(r, c)] = g[(0, c)];
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Transpose(a) => {
                    accumulate(&mut grads, *a, g.transposed());
                }
                Op::Row(a, r) => {
                    let t = &self.nodes[a.0].value;
                    let mut da = Tensor::zeros(t.rows(), t.cols());
                    for c in 0..t.cols() {
                        da[(*r, c)] = g[(0, c)];
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::CrossEntropyLogits(a, target) => {
                    let logits = &self.nodes[a.0].value;
                    let row = logits.row(0);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
                    let sum: f32 = exps.iter().sum();
                    let scale = g.item();
                    let mut da = Tensor::zeros(1, logits.cols());
                    for c in 0..logits.cols() {
                        let soft = exps[c] / sum;
                        da[(0, c)] = scale * (soft - f32::from(u8::from(c == *target)));
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::RecipFrobNorm(a) => {
                    let t = &self.nodes[a.0].value;
                    let norm = t.frob_norm().max(1e-6);
                    let scale = -g.item() / (norm * norm * norm);
                    let da = t.map(|x| x * scale);
                    accumulate(&mut grads, *a, da);
                }
            }
        }
    }
}

fn accumulate(grads: &mut [Option<Tensor>], n: NodeId, delta: Tensor) {
    match &mut grads[n.0] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;

    /// Numerically checks d(loss)/d(param[idx]) by central differences.
    fn finite_diff(
        params: &mut Params,
        pid: ParamId,
        idx: (usize, usize),
        f: &dyn Fn(&Params) -> f32,
    ) -> f32 {
        let eps = 1e-3_f32;
        let orig = params.value(pid)[idx];
        params.value_mut(pid)[idx] = orig + eps;
        let hi = f(params);
        params.value_mut(pid)[idx] = orig - eps;
        let lo = f(params);
        params.value_mut(pid)[idx] = orig;
        (hi - lo) / (2.0 * eps)
    }

    /// A small but representative network touching every op:
    /// softmax-attention over rows of relu(X·W + b), scalar-scaled skip,
    /// cross-entropy + reciprocal-norm regularizer.
    fn forward(params: &Params) -> (Graph, NodeId) {
        let mut g = Graph::new();
        let w = g.param(params, ParamId(0));
        let b = g.param(params, ParamId(1));
        let att = g.param(params, ParamId(2));
        let eps = g.param(params, ParamId(3));
        let x = g.input(Tensor::from_vec(
            3,
            4,
            vec![
                0.5, -0.2, 0.3, 0.8, -0.5, 0.1, 0.9, -0.3, 0.2, 0.7, -0.8, 0.4,
            ],
        ));
        let h0 = g.matmul(x, w); // 3x5
        let h1 = g.add_row_broadcast(h0, b);
        let h = g.relu(h1);
        let skip = g.scale_by(h, eps);
        let h = g.add(h, skip);
        let th = g.tanh(h);
        let sg = g.sigmoid(h);
        let gated = g.mul(th, sg);
        // Attention: scores = gated · attᵀ -> 3x1; softmax over the column.
        let att_t = g.transpose(att); // 5x1
        let scores = g.matmul(gated, att_t); // 3x1
        let scores_t = g.transpose(scores); // 1x3
        let alpha = g.softmax_row(scores_t); // 1x3
        let ctx = g.matmul(alpha, gated); // 1x5
        let r0 = g.row(gated, 0);
        let both = g.concat_cols(&[ctx, r0]); // 1x10
        let stacked = g.concat_rows(&[ctx, r0]); // 2x5
        let summed = g.sum_rows(stacked); // 1x5
        let all = g.concat_cols(&[both, summed]); // 1x15
        let w2 = g.input(Tensor::from_vec(
            15,
            2,
            (0..30).map(|i| (i as f32) * 0.01 - 0.15).collect(),
        ));
        let logits = g.matmul(all, w2);
        let ce = g.cross_entropy_logits(logits, 1);
        let reg = g.recip_frob_norm(gated);
        let reg_scaled = g.scale(reg, 0.1);
        let loss = g.add(ce, reg_scaled);
        (g, loss)
    }

    fn loss_value(params: &Params) -> f32 {
        let (g, loss) = forward(params);
        g.value(loss).item()
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut init = Initializer::new(1234);
        let mut params = Params::new();
        params.register("w", init.sample(4, 5));
        params.register("b", init.sample(1, 5));
        params.register("att", init.sample(1, 5));
        params.register("eps", Tensor::scalar(0.3));

        let (g, loss) = forward(&params);
        g.backward(loss, &mut params);

        for pid in [ParamId(0), ParamId(1), ParamId(2), ParamId(3)] {
            let (rows, cols) = params.value(pid).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let analytic = params.grad(pid)[(r, c)];
                    let numeric = finite_diff(&mut params, pid, (r, c), &loss_value);
                    assert!(
                        (analytic - numeric).abs() < 2e-2_f32.max(numeric.abs() * 0.05),
                        "param {} [{r},{c}]: analytic {analytic} vs numeric {numeric}",
                        params.name(pid),
                    );
                }
            }
        }
    }

    #[test]
    fn backward_to_buffer_matches_backward_into_params() {
        let mut init = Initializer::new(1234);
        let mut params = Params::new();
        params.register("w", init.sample(4, 5));
        params.register("b", init.sample(1, 5));
        params.register("att", init.sample(1, 5));
        params.register("eps", Tensor::scalar(0.3));

        let (g, loss) = forward(&params);
        let mut buf = GradBuffer::zeros_like(&params);
        g.backward_to(loss, &mut buf);

        let mut direct = params.clone();
        g.backward(loss, &mut direct);
        for pid in direct.ids() {
            assert_eq!(buf.grad(pid), direct.grad(pid), "{}", direct.name(pid));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]));
        let s = g.softmax_row(x);
        for r in 0..2 {
            let sum: f32 = g.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_decreases_with_confidence() {
        let mut g = Graph::new();
        let confident = g.input(Tensor::from_vec(1, 2, vec![0.0, 5.0]));
        let unsure = g.input(Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        let lc = g.cross_entropy_logits(confident, 1);
        let lu = g.cross_entropy_logits(unsure, 1);
        assert!(g.value(lc).item() >= 0.0);
        assert!(g.value(lc).item() < g.value(lu).item());
    }

    #[test]
    fn param_nodes_are_cached() {
        let mut params = Params::new();
        let pid = params.register("w", Tensor::scalar(2.0));
        let mut g = Graph::new();
        let a = g.param(&params, pid);
        let b = g.param(&params, pid);
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_accumulates_across_shared_use() {
        // loss = w*w (via mul of the same param node) -> dloss/dw = 2w.
        let mut params = Params::new();
        let pid = params.register("w", Tensor::scalar(3.0));
        let mut g = Graph::new();
        let w = g.param(&params, pid);
        let sq = g.mul(w, w);
        g.backward(sq, &mut params);
        assert!((params.grad(pid).item() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn input_leaves_get_no_param_grads() {
        let mut params = Params::new();
        let pid = params.register("w", Tensor::scalar(1.0));
        let mut g = Graph::new();
        let w = g.param(&params, pid);
        let x = g.input(Tensor::scalar(5.0));
        let y = g.mul(w, x);
        g.backward(y, &mut params);
        assert!((params.grad(pid).item() - 5.0).abs() < 1e-6);
    }
}
