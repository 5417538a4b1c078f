//! # veribug-rvdg
//!
//! The paper's **Random Verilog Design Generator** (Sec. V): seeded synthetic
//! Verilog designs following a fixed two-block template — a clocked always
//! block for state and a combinational always block of `if`/`else-if` arms
//! of blocking Boolean assignments — with enforced variable
//! interdependencies and bounded operand counts.
//!
//! VeriBug trains **only** on this corpus; the paper's transfer claim is
//! that the learned execution semantics generalize to the realistic designs
//! in `veribug-designs` without retraining.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use veribug_rvdg::{Generator, RvdgConfig};
//!
//! let generator = Generator::new(RvdgConfig::default(), 42);
//! let design = generator.generate(0)?;
//! assert!(design.source.starts_with("module rvdg_0"));
//! assert_eq!(design.module.items.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod expr;
mod generator;
mod template;

pub use expr::{random_expr, ExprConfig};
pub use generator::{GeneratedDesign, Generator, RvdgConfig};
pub use template::{random_bool_expr, random_wide_expr, SignalPool, TemplateMix};
