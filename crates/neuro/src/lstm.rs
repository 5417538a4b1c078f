//! A single-layer LSTM — the paper's *PathRNN* backbone.

use crate::graph::{Graph, NodeId};
use crate::init::Initializer;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Parameter handles for one LSTM layer (separate matrices per gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Lstm {
    input_dim: usize,
    hidden_dim: usize,
    w_i: ParamId,
    u_i: ParamId,
    b_i: ParamId,
    w_f: ParamId,
    u_f: ParamId,
    b_f: ParamId,
    w_g: ParamId,
    u_g: ParamId,
    b_g: ParamId,
    w_o: ParamId,
    u_o: ParamId,
    b_o: ParamId,
}

impl Lstm {
    /// Registers a fresh LSTM's parameters under `prefix`.
    ///
    /// The forget-gate bias is initialized to 1.0 (standard practice, keeps
    /// early training stable); every other weight is Glorot-uniform.
    pub fn register(
        params: &mut Params,
        prefix: &str,
        input_dim: usize,
        hidden_dim: usize,
        init: &mut Initializer,
    ) -> Self {
        let w = |params: &mut Params, name: &str, r: usize, c: usize, init: &mut Initializer| {
            params.register_init(&format!("{prefix}.{name}"), r, c, init)
        };
        let ones_bias = Tensor::from_vec(1, hidden_dim, vec![1.0; hidden_dim]);
        Lstm {
            input_dim,
            hidden_dim,
            w_i: w(params, "w_i", input_dim, hidden_dim, init),
            u_i: w(params, "u_i", hidden_dim, hidden_dim, init),
            b_i: params.register(&format!("{prefix}.b_i"), Tensor::zeros(1, hidden_dim)),
            w_f: w(params, "w_f", input_dim, hidden_dim, init),
            u_f: w(params, "u_f", hidden_dim, hidden_dim, init),
            b_f: params.register(&format!("{prefix}.b_f"), ones_bias),
            w_g: w(params, "w_g", input_dim, hidden_dim, init),
            u_g: w(params, "u_g", hidden_dim, hidden_dim, init),
            b_g: params.register(&format!("{prefix}.b_g"), Tensor::zeros(1, hidden_dim)),
            w_o: w(params, "w_o", input_dim, hidden_dim, init),
            u_o: w(params, "u_o", hidden_dim, hidden_dim, init),
            b_o: params.register(&format!("{prefix}.b_o"), Tensor::zeros(1, hidden_dim)),
        }
    }

    /// One LSTM step: `(h, c) -> (h', c')` given input `x` (`1×input_dim`).
    pub fn step(
        &self,
        g: &mut Graph,
        params: &Params,
        x: NodeId,
        h: NodeId,
        c: NodeId,
    ) -> (NodeId, NodeId) {
        let gate = |g: &mut Graph, w: ParamId, u: ParamId, b: ParamId| {
            let wn = g.param(params, w);
            let un = g.param(params, u);
            let bn = g.param(params, b);
            let xw = g.matmul(x, wn);
            let hu = g.matmul(h, un);
            let s = g.add(xw, hu);
            g.add(s, bn)
        };
        let i_pre = gate(g, self.w_i, self.u_i, self.b_i);
        let i = g.sigmoid(i_pre);
        let f_pre = gate(g, self.w_f, self.u_f, self.b_f);
        let f = g.sigmoid(f_pre);
        let g_pre = gate(g, self.w_g, self.u_g, self.b_g);
        let gt = g.tanh(g_pre);
        let o_pre = gate(g, self.w_o, self.u_o, self.b_o);
        let o = g.sigmoid(o_pre);
        let fc = g.mul(f, c);
        let ig = g.mul(i, gt);
        let c_new = g.add(fc, ig);
        let tc = g.tanh(c_new);
        let h_new = g.mul(o, tc);
        (h_new, c_new)
    }

    /// Tape-free [`Lstm::step`]: the same arithmetic, reading the weights
    /// in place. Returns `(h', c')`.
    fn step_infer(&self, params: &Params, x: &Tensor, h: &Tensor, c: &Tensor) -> (Tensor, Tensor) {
        let gate = |w: ParamId, u: ParamId, b: ParamId| {
            x.matmul(params.value(w))
                .add(&h.matmul(params.value(u)))
                .add(params.value(b))
        };
        let i = gate(self.w_i, self.u_i, self.b_i).sigmoid();
        let f = gate(self.w_f, self.u_f, self.b_f).sigmoid();
        let gt = gate(self.w_g, self.u_g, self.b_g).tanh();
        let o = gate(self.w_o, self.u_o, self.b_o).sigmoid();
        let c_new = f.mul(c).add(&i.mul(&gt));
        let h_new = o.mul(&c_new.tanh());
        (h_new, c_new)
    }

    /// Tape-free [`Lstm::run`]: the final hidden state over `inputs`.
    pub fn infer(&self, params: &Params, inputs: &[Tensor]) -> Tensor {
        let mut h = Tensor::zeros(1, self.hidden_dim);
        let mut c = Tensor::zeros(1, self.hidden_dim);
        for x in inputs {
            (h, c) = self.step_infer(params, x, &h, &c);
        }
        h
    }

    /// Runs the LSTM over a sequence of `1×input_dim` inputs and returns the
    /// final hidden state (`1×hidden_dim`). An empty sequence yields the
    /// zero state.
    pub fn run(&self, g: &mut Graph, params: &Params, inputs: &[NodeId]) -> NodeId {
        let mut h = g.input(Tensor::zeros(1, self.hidden_dim));
        let mut c = g.input(Tensor::zeros(1, self.hidden_dim));
        for &x in inputs {
            let (h2, c2) = self.step(g, params, x, h, c);
            h = h2;
            c = c2;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Params, Lstm) {
        let mut init = Initializer::new(99);
        let mut params = Params::new();
        let lstm = Lstm::register(&mut params, "rnn", 4, 8, &mut init);
        (params, lstm)
    }

    #[test]
    fn final_state_shape_and_boundedness() {
        let (params, lstm) = setup();
        let mut g = Graph::new();
        let xs: Vec<NodeId> = (0..5).map(|i| g.input(Tensor::one_hot(4, i % 4))).collect();
        let h = lstm.run(&mut g, &params, &xs);
        assert_eq!(g.value(h).shape(), (1, 8));
        // h = o * tanh(c) is bounded in (-1, 1).
        assert!(g.value(h).data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn distinguishes_sequences() {
        let (params, lstm) = setup();
        let mut g = Graph::new();
        let seq_a: Vec<NodeId> = [0usize, 1, 2]
            .iter()
            .map(|&i| g.input(Tensor::one_hot(4, i)))
            .collect();
        let seq_b: Vec<NodeId> = [2usize, 1, 0]
            .iter()
            .map(|&i| g.input(Tensor::one_hot(4, i)))
            .collect();
        let ha = lstm.run(&mut g, &params, &seq_a);
        let hb = lstm.run(&mut g, &params, &seq_b);
        assert_ne!(g.value(ha), g.value(hb), "order must matter");
    }

    #[test]
    fn infer_matches_the_tape_bit_for_bit() {
        let (params, lstm) = setup();
        let inputs: Vec<Tensor> = [0usize, 3, 1, 1, 2]
            .iter()
            .map(|&i| Tensor::one_hot(4, i))
            .collect();
        let mut g = Graph::new();
        let xs: Vec<NodeId> = inputs.iter().map(|t| g.input(t.clone())).collect();
        let h = lstm.run(&mut g, &params, &xs);
        assert_eq!(&lstm.infer(&params, &inputs), g.value(h));
        assert_eq!(lstm.infer(&params, &[]), Tensor::zeros(1, 8));
    }

    #[test]
    fn empty_sequence_is_zero_state() {
        let (params, lstm) = setup();
        let mut g = Graph::new();
        let h = lstm.run(&mut g, &params, &[]);
        assert!(g.value(h).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradients_flow_to_all_gates() {
        let (mut params, lstm) = setup();
        let mut g = Graph::new();
        let xs: Vec<NodeId> = (0..3).map(|i| g.input(Tensor::one_hot(4, i))).collect();
        let h = lstm.run(&mut g, &params, &xs);
        let ht = g.transpose(h);
        let sq = g.matmul(h, ht); // scalar ||h||^2
        g.backward(sq, &mut params);
        for pid in params.ids().collect::<Vec<_>>() {
            let gnorm = params.grad(pid).frob_norm();
            assert!(
                gnorm.is_finite(),
                "gradient of {} not finite",
                params.name(pid)
            );
        }
        // At least the input weights of the candidate gate must receive
        // nonzero gradient.
        let wg = params.id_of("rnn.w_g").unwrap();
        assert!(params.grad(wg).frob_norm() > 0.0);
    }
}
