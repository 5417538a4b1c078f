//! Linear layers, multi-layer perceptrons, and token embeddings.

use crate::graph::{Graph, NodeId};
use crate::init::Initializer;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// One affine layer `x·W + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a fresh linear layer under `prefix`.
    pub fn register(
        params: &mut Params,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        init: &mut Initializer,
    ) -> Self {
        Linear {
            w: params.register_init(&format!("{prefix}.w"), in_dim, out_dim, init),
            b: params.register(&format!("{prefix}.b"), Tensor::zeros(1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to an `r×in_dim` node, yielding `r×out_dim`.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: NodeId) -> NodeId {
        let w = g.param(params, self.w);
        let b = g.param(params, self.b);
        let xw = g.matmul(x, w);
        g.add_row_broadcast(xw, b)
    }

    /// Tape-free [`Linear::forward`]: the same arithmetic on `x`, reading
    /// the weights in place.
    pub fn infer(&self, params: &Params, x: &Tensor) -> Tensor {
        x.matmul(params.value(self.w))
            .add_row_broadcast(params.value(self.b))
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }
}

/// A multi-layer perceptron with ReLU between layers (none after the last).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Registers an MLP with the given layer dimensions, e.g. `[18, 32, 32]`
    /// builds `18→32→32` with one hidden ReLU.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two dimensions are given.
    pub fn register(
        params: &mut Params,
        prefix: &str,
        dims: &[usize],
        init: &mut Initializer,
    ) -> Self {
        assert!(dims.len() >= 2, "MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::register(params, &format!("{prefix}.l{i}"), w[0], w[1], init))
            .collect();
        Mlp { layers }
    }

    /// Applies the MLP to an `r×in_dim` node.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: NodeId) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, params, h);
            if i != last {
                h = g.relu(h);
            }
        }
        h
    }

    /// Tape-free [`Mlp::forward`]: the same arithmetic on `x`, reading the
    /// weights in place.
    pub fn infer(&self, params: &Params, x: &Tensor) -> Tensor {
        let mut h = self.layers[0].infer(params, x);
        for layer in &self.layers[1..] {
            h = layer.infer(params, &h.relu());
        }
        h
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }
}

/// A learned token-embedding table (`vocab×dim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a fresh embedding table.
    pub fn register(
        params: &mut Params,
        prefix: &str,
        vocab: usize,
        dim: usize,
        init: &mut Initializer,
    ) -> Self {
        Embedding {
            table: params.register_init(&format!("{prefix}.table"), vocab, dim, init),
            vocab,
            dim,
        }
    }

    /// Looks a token index up, yielding its `1×dim` embedding node.
    ///
    /// # Panics
    ///
    /// Panics when `token >= vocab`.
    pub fn lookup(&self, g: &mut Graph, params: &Params, token: usize) -> NodeId {
        assert!(
            token < self.vocab,
            "token {token} out of vocab {}",
            self.vocab
        );
        let t = g.param(params, self.table);
        g.row(t, token)
    }

    /// Tape-free [`Embedding::lookup`]: a copy of the token's row.
    ///
    /// # Panics
    ///
    /// Panics when `token >= vocab`.
    pub fn row(&self, params: &Params, token: usize) -> Tensor {
        assert!(
            token < self.vocab,
            "token {token} out of vocab {}",
            self.vocab
        );
        Tensor::row_vector(params.value(self.table).row(token).to_vec())
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_shapes() {
        let mut init = Initializer::new(3);
        let mut params = Params::new();
        let mlp = Mlp::register(&mut params, "mlp", &[6, 16, 4], &mut init);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 6));
        let y = mlp.forward(&mut g, &params, x);
        assert_eq!(g.value(y).shape(), (2, 4));
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 4);
    }

    #[test]
    fn infer_matches_the_tape_bit_for_bit() {
        let mut init = Initializer::new(8);
        let mut params = Params::new();
        let mlp = Mlp::register(&mut params, "mlp", &[3, 7, 5, 2], &mut init);
        let emb = Embedding::register(&mut params, "tok", 4, 3, &mut init);
        let x = Tensor::from_vec(2, 3, vec![0.5, -1.0, 0.0, 2.0, 0.25, -0.75]);
        let mut g = Graph::new();
        let xn = g.input(x.clone());
        let y = mlp.forward(&mut g, &params, xn);
        assert_eq!(&mlp.infer(&params, &x), g.value(y));
        let e = emb.lookup(&mut g, &params, 2);
        assert_eq!(&emb.row(&params, 2), g.value(e));
    }

    #[test]
    fn embedding_rows_are_table_rows() {
        let mut init = Initializer::new(4);
        let mut params = Params::new();
        let emb = Embedding::register(&mut params, "tok", 10, 5, &mut init);
        let mut g = Graph::new();
        let e3 = emb.lookup(&mut g, &params, 3);
        let expected = params
            .value(params.id_of("tok.table").unwrap())
            .row(3)
            .to_vec();
        assert_eq!(g.value(e3).data(), &expected[..]);
    }

    #[test]
    fn embedding_gradient_hits_only_used_rows() {
        let mut init = Initializer::new(5);
        let mut params = Params::new();
        let emb = Embedding::register(&mut params, "tok", 6, 3, &mut init);
        let mut g = Graph::new();
        let e = emb.lookup(&mut g, &params, 2);
        let et = g.transpose(e);
        let sq = g.matmul(e, et);
        g.backward(sq, &mut params);
        let grad = params.grad(params.id_of("tok.table").unwrap());
        for r in 0..6 {
            let norm: f32 = grad.row(r).iter().map(|v| v * v).sum();
            if r == 2 {
                assert!(norm > 0.0);
            } else {
                assert_eq!(norm, 0.0);
            }
        }
    }

    #[test]
    fn linear_is_affine() {
        let mut init = Initializer::new(6);
        let mut params = Params::new();
        let lin = Linear::register(&mut params, "l", 2, 2, &mut init);
        // Force known weights.
        let wid = params.id_of("l.w").unwrap();
        let bid = params.id_of("l.b").unwrap();
        *params.value_mut(wid) = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        *params.value_mut(bid) = Tensor::from_vec(1, 2, vec![10., 20.]);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(1, 2, vec![3., 4.]));
        let y = lin.forward(&mut g, &params, x);
        assert_eq!(g.value(y).data(), &[13., 24.]);
    }
}
