//! # veribug-neuro
//!
//! A minimal, dependency-light deep-learning substrate: dense `f32` tensors,
//! a define-by-run reverse-mode autograd tape, an LSTM layer, MLPs, token
//! embeddings, dot-product attention, and an Adam optimizer.
//!
//! The VeriBug paper's model is small (context dim 16, attention dim 32, one
//! LSTM, two MLPs); this crate reproduces exactly the operations that model
//! needs rather than a general framework (DESIGN.md, substitution #2).
//! Gradient correctness is enforced by finite-difference tests of the ops on
//! [`Graph`]. Every layer also has a tape-free `infer` for inference, built
//! on the same [`Tensor`] functions as the tape's ops.
//!
//! ## Quick start — fit a tiny classifier
//!
//! ```
//! use veribug_neuro::{Adam, Graph, Initializer, Mlp, Params, Tensor};
//!
//! let mut init = Initializer::new(7);
//! let mut params = Params::new();
//! let mlp = Mlp::register(&mut params, "clf", &[2, 8, 2], &mut init);
//! let mut adam = Adam::new(1e-2);
//!
//! // XOR-ish toy data.
//! let data = [([0.0, 0.0], 0), ([1.0, 1.0], 0), ([0.0, 1.0], 1), ([1.0, 0.0], 1)];
//! for _ in 0..300 {
//!     let mut g = Graph::new();
//!     let mut losses = Vec::new();
//!     for (x, y) in &data {
//!         let input = g.input(Tensor::row_vector(x.to_vec()));
//!         let logits = mlp.forward(&mut g, &params, input);
//!         losses.push(g.cross_entropy_logits(logits, *y));
//!     }
//!     let total = losses
//!         .into_iter()
//!         .reduce(|a, b| g.add(a, b))
//!         .expect("non-empty batch");
//!     g.backward(total, &mut params);
//!     adam.step(&mut params, data.len() as f32);
//! }
//!
//! // The fitted model classifies the training points correctly.
//! let mut g = Graph::new();
//! let x = g.input(Tensor::row_vector(vec![1.0, 0.0]));
//! let logits = mlp.forward(&mut g, &params, x);
//! assert_eq!(g.value(logits).argmax_row(), 1);
//! ```

#![warn(missing_docs)]

mod adam;
mod attention;
mod graph;
mod init;
mod lstm;
mod mlp;
mod params;
mod tensor;

pub use adam::Adam;
pub use attention::{attend, dot_product_attention};
pub use graph::{Graph, NodeId};
pub use init::Initializer;
pub use lstm::Lstm;
pub use mlp::{Embedding, Linear, Mlp};
pub use params::{GradBuffer, ParamId, Params};
pub use tensor::Tensor;
