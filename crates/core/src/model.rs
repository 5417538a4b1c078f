//! The VeriBug deep-learning model (paper Sec. IV-C).
//!
//! For one executed statement:
//!
//! 1. **Operand embeddings** — each leaf-to-leaf path is embedded by the
//!    *PathRNN* (an LSTM over node-kind token embeddings); path embeddings
//!    are summed into the context embedding `c_i ∈ R^{d_c}`, concatenated
//!    with the one-hot value encoding `v_i ∈ R^{d_v}` into
//!    `x_i = (c_i ‖ v_i)`.
//! 2. **Aggregation layer** — `x*_i = MLP_θ1(Σ_j x_j + ε·x_i)` with a
//!    learnable skip weight ε, giving *relative* operand representations.
//! 3. **Attention layer** — `softmax(A X*ᵀ) X` with a learned attention
//!    vector `a` repeated over operands; the attention weights α are the
//!    importance scores used for localization.
//! 4. **Prediction** — `MLP_θ2` maps the attended statement embedding to
//!    two logits for the output-bit classes.
//!
//! Training runs [`VeriBugModel::forward`] on an autograd [`Graph`].
//! Inference runs the same arithmetic without a tape: the operand contexts
//! `c_i` do not depend on operand values, so [`VeriBugModel::operand_contexts`]
//! embeds them once per statement and [`VeriBugModel::infer`] evaluates
//! steps 1–4 for one value vector, reading the parameters in place. Both
//! paths call the same `Tensor` kernels in the same order, so their
//! attention and logits are bit-identical.

use std::collections::HashMap;

use neuro::{Embedding, Graph, Initializer, Lstm, Mlp, NodeId, ParamId, Params, Tensor};
use verilog::{NodeKind, StmtId};

use crate::features::StatementFeatures;

/// Tape-free evaluations scored through [`VeriBugModel::predict_with`]:
/// one per [`VeriBugModel::predict`] call, per explainer memo miss and per
/// `train::evaluate` sample.
static EVALS: obs::LazyCounter = obs::LazyCounter::new("model.evals");
/// Absolute logit margin `|l_1 - l_0|` per evaluation — a confidence
/// proxy: small margins mean the output-bit classes are nearly tied.
static SCORE_MARGIN: obs::LazyHistogram = obs::LazyHistogram::new_micros("model.score_margin");

/// How path embeddings are combined into a context embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ContextAggregation {
    /// Sum of path embeddings (the paper's formulation).
    Sum,
    /// Mean of path embeddings (ablation: normalizes operand contexts that
    /// have many paths).
    Mean,
}

/// Model hyper-parameters. Defaults follow the paper: `d_c = 16`,
/// `d_a = 32`; the value encoding is 2-way one-hot.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Node-kind token embedding dimension.
    pub token_dim: usize,
    /// Context (PathRNN hidden) dimension — paper `d_c`.
    pub context_dim: usize,
    /// One-hot value-encoding dimension — `d_v` (2: bit is 0 / bit is 1).
    pub value_dim: usize,
    /// Attention / aggregation dimension — paper `d_a`.
    pub attention_dim: usize,
    /// Hidden width of the two MLPs.
    pub mlp_hidden: usize,
    /// Initial value of the learnable skip weight ε.
    pub epsilon_init: f32,
    /// How path embeddings combine into context embeddings.
    pub context_aggregation: ContextAggregation,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            token_dim: 16,
            context_dim: 16,
            value_dim: 2,
            attention_dim: 32,
            mlp_hidden: 64,
            epsilon_init: 0.5,
            context_aggregation: ContextAggregation::Sum,
            seed: 0xB106_CA7E,
        }
    }
}

/// One training/inference sample: a statement's features plus the operand
/// values and target bit observed in one execution.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Operand truth values, aligned with `StatementFeatures::operands`
    /// (multi-bit operands are reduced to "any bit set").
    pub values: Vec<bool>,
    /// The executed statement's resulting output bit (same reduction).
    pub target: bool,
}

/// The output of one forward pass.
#[derive(Debug)]
pub struct Forward {
    /// Two-class logits node (`1×2`).
    pub logits: NodeId,
    /// The attention weights over operands (extracted values).
    pub attention: Vec<f32>,
    /// The stacked updated operand embeddings `X*` (`N×d_a`) — the paper's
    /// regularizer operates on its norm.
    pub x_star: NodeId,
}

/// The value-independent half of one statement's operand embeddings: the
/// PathRNN context `c_i` of every operand, stacked `N×d_c` in operand
/// order. Computed once per statement by
/// [`VeriBugModel::operand_contexts`] and reused for every value vector.
#[derive(Debug, Clone)]
pub struct OperandContexts {
    stmt: StmtId,
    contexts: Tensor,
}

impl OperandContexts {
    /// Number of operands.
    pub fn operand_count(&self) -> usize {
        self.contexts.rows()
    }
}

/// The output of one tape-free evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Inference {
    /// Two-class logits (`1×2`).
    pub logits: Tensor,
    /// The attention weights over operands.
    pub attention: Vec<f32>,
}

/// The VeriBug model: persistent parameters plus forward-pass logic.
#[derive(Debug)]
pub struct VeriBugModel {
    config: ModelConfig,
    params: Params,
    token_emb: Embedding,
    path_rnn: Lstm,
    mlp_agg: Mlp,
    mlp_pred: Mlp,
    epsilon: ParamId,
    attention: ParamId,
}

impl VeriBugModel {
    /// Builds a freshly initialized model.
    pub fn new(config: ModelConfig) -> Self {
        let mut init = Initializer::new(config.seed);
        let mut params = Params::new();
        let token_emb = Embedding::register(
            &mut params,
            "tok",
            NodeKind::vocab_size(),
            config.token_dim,
            &mut init,
        );
        let path_rnn = Lstm::register(
            &mut params,
            "path_rnn",
            config.token_dim,
            config.context_dim,
            &mut init,
        );
        let x_dim = config.context_dim + config.value_dim;
        let mlp_agg = Mlp::register(
            &mut params,
            "mlp_agg",
            &[x_dim, config.mlp_hidden, config.attention_dim],
            &mut init,
        );
        let mlp_pred = Mlp::register(
            &mut params,
            "mlp_pred",
            &[x_dim, config.mlp_hidden, 2],
            &mut init,
        );
        let epsilon = params.register("epsilon", Tensor::scalar(config.epsilon_init));
        let attention = params.register_init("attention", 1, config.attention_dim, &mut init);
        VeriBugModel {
            config,
            params,
            token_emb,
            path_rnn,
            mlp_agg,
            mlp_pred,
            epsilon,
            attention,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The parameter store (for optimizers and inspection).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable parameter store (for the trainer).
    pub fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    /// The current value of the learnable skip weight ε.
    pub fn epsilon(&self) -> f32 {
        self.params.value(self.epsilon).item()
    }

    /// Runs one forward pass on `graph` for a statement execution.
    ///
    /// # Panics
    ///
    /// Panics when `sample.values` is not aligned with `features.operands`.
    pub fn forward(&self, g: &mut Graph, features: &StatementFeatures, sample: &Sample) -> Forward {
        assert_eq!(
            features.operand_count(),
            sample.values.len(),
            "operand/value mismatch for {}",
            features.stmt
        );
        // 1. Operand embeddings x_i = (c_i || v_i).
        let mut xs: Vec<NodeId> = Vec::with_capacity(features.operand_count());
        for (ctx, &value) in features.operands.iter().zip(&sample.values) {
            let mut path_embs: Vec<NodeId> = Vec::with_capacity(ctx.paths.len());
            for path in &ctx.paths {
                let tokens: Vec<NodeId> = path
                    .iter()
                    .map(|k| self.token_emb.lookup(g, &self.params, k.index()))
                    .collect();
                path_embs.push(self.path_rnn.run(g, &self.params, &tokens));
            }
            let c_i = match path_embs.len() {
                0 => g.input(Tensor::zeros(1, self.config.context_dim)),
                1 => path_embs[0],
                n => {
                    let stacked = g.concat_rows(&path_embs);
                    let summed = g.sum_rows(stacked);
                    match self.config.context_aggregation {
                        ContextAggregation::Sum => summed,
                        ContextAggregation::Mean => g.scale(summed, 1.0 / n as f32),
                    }
                }
            };
            let v_i = g.input(Tensor::one_hot(self.config.value_dim, usize::from(value)));
            xs.push(g.concat_cols(&[c_i, v_i]));
        }

        // 2. Aggregation layer: x*_i = MLP_θ1(Σ_j x_j + ε·x_i).
        let x_matrix = g.concat_rows(&xs); // N × (d_c + d_v)
        let sum_x = g.sum_rows(x_matrix); // 1 × (d_c + d_v)
        let eps = g.param(&self.params, self.epsilon);
        let mut x_stars: Vec<NodeId> = Vec::with_capacity(xs.len());
        for &x_i in &xs {
            let skip = g.scale_by(x_i, eps);
            let agg_in = g.add(sum_x, skip);
            x_stars.push(self.mlp_agg.forward(g, &self.params, agg_in));
        }
        let x_star = g.concat_rows(&x_stars); // N × d_a

        // 3. Attention: softmax(A X*ᵀ) X.
        let a = g.param(&self.params, self.attention);
        let (weights, stmt_emb) = neuro::dot_product_attention(g, a, x_star, x_matrix);

        // 4. Prediction.
        let logits = self.mlp_pred.forward(g, &self.params, stmt_emb);
        Forward {
            logits,
            attention: g.value(weights).data().to_vec(),
            x_star,
        }
    }

    /// Step 1's value-independent half, tape-free: every operand's context
    /// embedding `c_i`, exactly as [`VeriBugModel::forward`] computes it.
    ///
    /// The PathRNN is a pure function of a path's tokens, and a statement's
    /// operands share many paths (`a→b` in one operand's context is often
    /// token for token `b→a` in another's), so each distinct path is
    /// embedded once.
    pub fn operand_contexts(&self, features: &StatementFeatures) -> OperandContexts {
        let mut embedded: HashMap<&[NodeKind], Tensor> = HashMap::new();
        let rows: Vec<Tensor> = features
            .operands
            .iter()
            .map(|ctx| {
                let path_embs: Vec<Tensor> = ctx
                    .paths
                    .iter()
                    .map(|path| {
                        embedded
                            .entry(path)
                            .or_insert_with(|| {
                                let tokens: Vec<Tensor> = path
                                    .iter()
                                    .map(|k| self.token_emb.row(&self.params, k.index()))
                                    .collect();
                                self.path_rnn.infer(&self.params, &tokens)
                            })
                            .clone()
                    })
                    .collect();
                match path_embs.len() {
                    0 => Tensor::zeros(1, self.config.context_dim),
                    1 => path_embs.into_iter().next().expect("one path"),
                    n => {
                        let summed =
                            Tensor::concat_rows(&path_embs.iter().collect::<Vec<_>>()).sum_rows();
                        match self.config.context_aggregation {
                            ContextAggregation::Sum => summed,
                            ContextAggregation::Mean => summed.scale(1.0 / n as f32),
                        }
                    }
                }
            })
            .collect();
        OperandContexts {
            stmt: features.stmt,
            contexts: Tensor::concat_rows(&rows.iter().collect::<Vec<_>>()),
        }
    }

    /// Tape-free forward pass for one value vector over precomputed
    /// contexts: the arithmetic of [`VeriBugModel::forward`], op for op.
    /// The per-operand aggregation MLP runs on all operands as one matrix,
    /// which is row for row the same arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when `values` is not aligned with the statement's operands.
    pub fn infer(&self, ctx: &OperandContexts, values: &[bool]) -> Inference {
        assert_eq!(
            ctx.operand_count(),
            values.len(),
            "operand/value mismatch for {}",
            ctx.stmt
        );
        // 1. Operand embeddings x_i = (c_i || v_i), stacked N × (d_c + d_v).
        let one_hots: Vec<Tensor> = values
            .iter()
            .map(|&value| Tensor::one_hot(self.config.value_dim, usize::from(value)))
            .collect();
        let v_matrix = Tensor::concat_rows(&one_hots.iter().collect::<Vec<_>>());
        let x_matrix = Tensor::concat_cols(&[&ctx.contexts, &v_matrix]);

        // 2. Aggregation layer: x*_i = MLP_θ1(Σ_j x_j + ε·x_i).
        let sum_x = x_matrix.sum_rows();
        let eps = self.params.value(self.epsilon).item();
        let agg_in = x_matrix.scale(eps).add_row_broadcast(&sum_x);
        let x_star = self.mlp_agg.infer(&self.params, &agg_in);

        // 3. Attention: softmax(A X*ᵀ) X.
        let a = self.params.value(self.attention);
        let (weights, stmt_emb) = neuro::attend(a, &x_star, &x_matrix);

        // 4. Prediction.
        Inference {
            logits: self.mlp_pred.infer(&self.params, &stmt_emb),
            attention: weights.data().to_vec(),
        }
    }

    /// Convenience inference: predicted output bit and attention weights.
    ///
    /// # Panics
    ///
    /// Panics when `values` is not aligned with `features.operands`.
    pub fn predict(&self, features: &StatementFeatures, values: &[bool]) -> (bool, Vec<f32>) {
        assert_eq!(
            features.operand_count(),
            values.len(),
            "operand/value mismatch for {}",
            features.stmt
        );
        self.predict_with(&self.operand_contexts(features), values)
    }

    /// Like [`VeriBugModel::predict`], over contexts computed once per
    /// statement, so scoring many value vectors of one statement embeds its
    /// paths once. Counts `model.evals` and records `model.score_margin`.
    pub fn predict_with(&self, ctx: &OperandContexts, values: &[bool]) -> (bool, Vec<f32>) {
        let out = self.infer(ctx, values);
        EVALS.incr();
        let row = out.logits.data();
        if obs::enabled() && row.len() >= 2 {
            SCORE_MARGIN.record_f64(f64::from((row[1] - row[0]).abs()));
        }
        (out.logits.argmax_row() == 1, out.attention)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::StatementFeatures;

    fn arb_features() -> StatementFeatures {
        let unit = verilog::parse(
            "module m(input req1, input req2, output reg gnt1);\n\
             always @(*) begin\ngnt1 = req1 & ~req2;\nend\nendmodule",
        )
        .unwrap();
        let module = unit.top().clone();
        StatementFeatures::extract(&module.assignments()[0].clone()).unwrap()
    }

    #[test]
    fn attention_is_a_distribution_over_operands() {
        let model = VeriBugModel::new(ModelConfig::default());
        let f = arb_features();
        let (_, att) = model.predict(&f, &[true, false]);
        assert_eq!(att.len(), 2);
        let sum: f32 = att.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(att.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn forward_shapes() {
        let model = VeriBugModel::new(ModelConfig::default());
        let f = arb_features();
        let mut g = Graph::new();
        let fwd = model.forward(
            &mut g,
            &f,
            &Sample {
                values: vec![true, true],
                target: true,
            },
        );
        assert_eq!(g.value(fwd.logits).shape(), (1, 2));
        assert_eq!(g.value(fwd.x_star).shape(), (2, 32));
    }

    #[test]
    fn different_values_change_the_prediction_input() {
        let model = VeriBugModel::new(ModelConfig::default());
        let f = arb_features();
        let mut g = Graph::new();
        let a = model.forward(
            &mut g,
            &f,
            &Sample {
                values: vec![true, false],
                target: true,
            },
        );
        let b = model.forward(
            &mut g,
            &f,
            &Sample {
                values: vec![false, true],
                target: false,
            },
        );
        assert_ne!(g.value(a.logits).data(), g.value(b.logits).data());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let m1 = VeriBugModel::new(ModelConfig::default());
        let m2 = VeriBugModel::new(ModelConfig::default());
        let f = arb_features();
        assert_eq!(
            m1.predict(&f, &[true, false]).1,
            m2.predict(&f, &[true, false]).1
        );
    }

    #[test]
    #[should_panic(expected = "operand/value mismatch")]
    fn misaligned_values_panic() {
        let model = VeriBugModel::new(ModelConfig::default());
        let f = arb_features();
        let _ = model.predict(&f, &[true]);
    }
}
