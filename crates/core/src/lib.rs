//! # veribug
//!
//! A from-scratch Rust reproduction of **VeriBug: An Attention-Based
//! Framework for Bug Localization in Hardware Designs** (DATE 2024).
//!
//! VeriBug learns Verilog *execution semantics* from simulation traces —
//! free supervision, no labeled bug corpus — and repurposes the learned
//! attention weights as operand importance scores. Comparing aggregated
//! attention between failing (`T_f`) and correct (`T_c`) traces yields a
//! suspiciousness score per design statement and a heatmap `H_t` of likely
//! root causes.
//!
//! The pipeline, end to end:
//!
//! 1. [`StatementFeatures`] — dynamic slicing + operand contexts (leaf-to-leaf AST
//!    paths), paper Sec. IV-B;
//! 2. [`model`] — PathRNN (LSTM) context embeddings, the aggregation layer
//!    with learnable ε-skip, dot-product attention, and the output-bit
//!    predictor, Sec. IV-C;
//! 3. [`mod@train`] — dataset construction from RVDG synthetic designs and the
//!    regularized class-weighted loss, Secs. IV-C and V;
//! 4. [`explain`] — attention maps, `F_t`/`C_t` aggregation, suspiciousness
//!    and heatmaps, Sec. IV-D;
//! 5. [`coverage`] — top-1 bug-coverage scoring, Sec. VI-A;
//! 6. [`render`] — Fig. 4-style heatmap rendering.
//!
//! ## Quick start: train on synthetic designs, localize an injected bug
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use veribug::{
//!     coverage::coverage_for_mutants,
//!     model::{ModelConfig, VeriBugModel},
//!     train::{self, Dataset, TrainConfig},
//! };
//! use mutate::{BugBudget, Campaign};
//! use rvdg::{Generator, RvdgConfig};
//!
//! // 1. Train on a small synthetic corpus.
//! let corpus: Vec<_> = Generator::new(RvdgConfig::default(), 1)
//!     .generate_corpus(2)?
//!     .into_iter()
//!     .map(|d| d.module)
//!     .collect();
//! let dataset = Dataset::from_designs(&corpus, 1, 16, 1)?;
//! let mut model = VeriBugModel::new(ModelConfig::default());
//! train::train(&mut model, &dataset, &TrainConfig { epochs: 1, ..Default::default() })?;
//!
//! // 2. Inject a bug and localize it.
//! let golden = verilog::parse(
//!     "module m(input a, input b, input c, output y);\n\
//!      wire t;\nassign t = a & b;\nassign y = t | c;\nendmodule",
//! )?.top().clone();
//! let mutants = Campaign::new(5).run(&golden, "y", &BugBudget {
//!     negation: 1, operation: 0, misuse: 0,
//! })?;
//! let (cov, _outcomes) = coverage_for_mutants(&model, &mutants, "y");
//! assert_eq!(cov.injected, mutants.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod coverage;
mod error;
pub mod explain;
mod features;
pub mod introspect;
pub mod localize;
pub mod model;
pub mod persist;
pub mod render;
pub mod train;

pub use coverage::{coverage_for_mutants, localize_mutant, Coverage, LocalizationOutcome};
pub use error::VeriBugError;
pub use explain::{
    suspiciousness, AttentionMap, Explainer, ExplainerState, Heatmap, HeatmapEntry, StmtAttention,
    SuspicionReason, DEFAULT_THRESHOLD,
};
pub use features::{OperandContext, Path, StatementFeatures};
pub use introspect::{AttributionReport, OperandAttribution, StmtAttribution};
pub use localize::{GoldenKey, GoldenRef, LocalizeOptions, LocalizeReport, Suspect};
pub use model::{
    ContextAggregation, Forward, Inference, ModelConfig, OperandContexts, Sample, VeriBugModel,
};
pub use persist::{load as load_model, save as save_model, LoadError};
pub use render::render_comparison;
pub use train::{
    append_train_log, evaluate, train, Dataset, DatasetEntry, EpochStats, EvalMetrics, TrainConfig,
    TrainReport,
};
