//! Dot-product attention building blocks.

use crate::graph::{Graph, NodeId};
use crate::tensor::Tensor;

/// Dot-product attention of one query over a set of keys/values.
///
/// Given `query (1×d)`, `keys (N×d)`, and `values (N×c)`, computes
/// `weights = softmax(keys · queryᵀ)` (a `1×N` distribution over the rows)
/// and the attended context `weights · values (1×c)`.
///
/// Returns `(weights, context)`.
///
/// This is the shape VeriBug's attention layer uses: the repeated attention
/// vector `A` of the paper collapses to a single query row, keys are the
/// *updated* operand embeddings `X*`, and values are the raw operand
/// embeddings `X` (paper Sec. IV-C, "Attention layer").
pub fn dot_product_attention(
    g: &mut Graph,
    query: NodeId,
    keys: NodeId,
    values: NodeId,
) -> (NodeId, NodeId) {
    let qt = g.transpose(query); // d×1
    let scores = g.matmul(keys, qt); // N×1
    let scores_row = g.transpose(scores); // 1×N
    let weights = g.softmax_row(scores_row); // 1×N
    let context = g.matmul(weights, values); // 1×c
    (weights, context)
}

/// Tape-free [`dot_product_attention`]: the same arithmetic on tensors.
/// Returns `(weights, context)`.
pub fn attend(query: &Tensor, keys: &Tensor, values: &Tensor) -> (Tensor, Tensor) {
    let scores = keys.matmul(&query.transposed()); // N×1
    let weights = scores.transposed().softmax_rows(); // 1×N
    let context = weights.matmul(values); // 1×c
    (weights, context)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_a_distribution() {
        let mut g = Graph::new();
        let q = g.input(Tensor::from_vec(1, 3, vec![1., 0., -1.]));
        let k = g.input(Tensor::from_vec(
            4,
            3,
            vec![
                0.2, 0.1, 0.0, //
                1.0, 0.0, -1.0, //
                -1.0, 0.0, 1.0, //
                0.0, 0.0, 0.0,
            ],
        ));
        let v = g.input(Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 0., 0.]));
        let (w, ctx) = dot_product_attention(&mut g, q, k, v);
        let wv = g.value(w);
        assert_eq!(wv.shape(), (1, 4));
        assert!((wv.sum() - 1.0).abs() < 1e-6);
        assert!(wv.data().iter().all(|&x| x >= 0.0));
        assert_eq!(g.value(ctx).shape(), (1, 2));
        // The aligned key (row 1) must get the largest weight.
        assert_eq!(wv.argmax_row(), 1);
        // The tape-free evaluation agrees bit for bit.
        let (tw, tctx) = attend(g.value(q), g.value(k), g.value(v));
        assert_eq!(&tw, wv);
        assert_eq!(&tctx, g.value(ctx));
    }

    #[test]
    fn uniform_keys_give_uniform_weights() {
        let mut g = Graph::new();
        let q = g.input(Tensor::from_vec(1, 2, vec![0.5, 0.5]));
        let k = g.input(Tensor::from_vec(3, 2, vec![1., 1., 1., 1., 1., 1.]));
        let v = g.input(Tensor::from_vec(3, 1, vec![1., 2., 3.]));
        let (w, ctx) = dot_product_attention(&mut g, q, k, v);
        for &x in g.value(w).data() {
            assert!((x - 1.0 / 3.0).abs() < 1e-6);
        }
        assert!((g.value(ctx).item() - 2.0).abs() < 1e-6);
    }
}
