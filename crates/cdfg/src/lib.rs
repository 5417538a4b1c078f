//! # veribug-cdfg
//!
//! GOLDMINE-style lightweight static analysis for the VeriBug reproduction:
//!
//! - [`Cdfg`] — statement-level control-data flow graph,
//! - [`Vdg`] — variable dependency graph abstracting operation detail,
//! - [`ConeOfInfluence`] — temporal dependence under `n`-cycle unrolling,
//! - [`dependencies_of`] — the paper's `Dep_t` reverse-DFS analysis,
//! - [`Slice`] — static and dynamic design slices for a target output,
//! - [`levelize()`] — exposed-read/write summaries and a topological
//!   evaluation order for combinational processes (the scheduling layer of
//!   `veribug-sim`'s compiled engine).
//!
//! The paper uses the GOLDMINE framework [Pal et al., TCAD 2020] to produce
//! these artifacts; this crate computes the same artifacts directly from the
//! `verilog` AST (see DESIGN.md, substitution #1).
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use veribug_cdfg::{dependencies_of, Slice, Vdg};
//!
//! let unit = verilog::parse(
//!     "module arb(input req1, input req2, output gnt1, output gnt2);\n\
//!      assign gnt1 = req1 & ~req2;\nassign gnt2 = req2;\nendmodule",
//! )?;
//! let module = unit.top();
//! let vdg = Vdg::build(module);
//! let dep = dependencies_of(&vdg, "gnt1");
//! assert!(dep.contains("req1") && dep.contains("req2"));
//!
//! let slice = Slice::of_target(module, "gnt1");
//! assert_eq!(slice.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod coi;
pub mod depend;
pub mod graph;
pub mod levelize;
pub mod slice;
pub mod vdg;

pub use coi::ConeOfInfluence;
pub use depend::dependencies_of;
pub use graph::{Cdfg, CdfgEdge, CdfgNode, DepKind};
pub use levelize::{levelize, CombProcess, Levelization};
pub use slice::Slice;
pub use vdg::{Vdg, VdgEdge};
