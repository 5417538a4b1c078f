//! Design slicing (Sec. IV-B of the paper).
//!
//! The slicing criterion includes a statement when its left-hand-side
//! variable is in `Dep_t ∪ {t}` (static slice). The *dynamic* slice further
//! intersects the static slice with the statements actually executed by a
//! concrete input stimulus — "if a statement is not executed by `I_n`, it is
//! certainly not the cause of a bug symptomatized at one of the outputs".
//! The explainer takes it per run: it reads only the execution records of
//! static-slice statements, and a statement that did not execute has none.

use std::collections::BTreeSet;

use crate::depend::dependencies_of;
use crate::graph::Cdfg;
use crate::vdg::Vdg;
use verilog::{Module, StmtId};

/// A slice of a design with respect to a target output.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Slice {
    /// The target variable the slice was taken for.
    pub target: String,
    /// `Dep_t`: variables influencing the target.
    pub dep: BTreeSet<String>,
    /// Statement ids in the slice, ordered.
    pub stmts: BTreeSet<StmtId>,
}

impl Slice {
    /// Computes the **static** slice of `module` for `target`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let unit = verilog::parse(
    ///     "module m(input a, input b, output y, output z);\n\
    ///      wire t;\nassign t = a & b;\nassign y = ~t;\nassign z = b;\nendmodule",
    /// )?;
    /// let slice = veribug_cdfg::Slice::of_target(unit.top(), "y");
    /// assert_eq!(slice.stmts.len(), 2); // t and y, not z
    /// # Ok(())
    /// # }
    /// ```
    pub fn of_target(module: &Module, target: &str) -> Slice {
        let cdfg = Cdfg::build(module);
        let vdg = Vdg::from_cdfg(module, &cdfg);
        Self::of_target_with(&cdfg, &vdg, target)
    }

    /// Computes the static slice reusing prebuilt graphs.
    pub fn of_target_with(cdfg: &Cdfg, vdg: &Vdg, target: &str) -> Slice {
        let dep = dependencies_of(vdg, target);
        let stmts = cdfg
            .nodes()
            .iter()
            .filter(|n| n.lhs == target || dep.contains(&n.lhs))
            .map(|n| n.stmt)
            .collect();
        Slice {
            target: target.to_owned(),
            dep,
            stmts,
        }
    }

    /// True when the slice contains the statement.
    pub fn contains(&self, stmt: StmtId) -> bool {
        self.stmts.contains(&stmt)
    }

    /// Number of statements in the slice.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// True when the slice has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        verilog::parse(src).unwrap().top().clone()
    }

    #[test]
    fn static_slice_follows_dependencies() {
        let m = module(
            "module m(input a, input b, output y, output z);\n\
             wire t;\nassign t = a & b;\nassign y = ~t;\nassign z = b;\nendmodule",
        );
        let s = Slice::of_target(&m, "y");
        assert_eq!(s.len(), 2);
        assert!(s.contains(StmtId(0))); // t = a & b
        assert!(s.contains(StmtId(1))); // y = ~t
        assert!(!s.contains(StmtId(2))); // z = b
        assert_eq!(
            s.dep.iter().cloned().collect::<Vec<_>>(),
            vec!["a", "b", "t"]
        );
    }

    #[test]
    fn control_dependencies_pull_in_guard_defs() {
        let m = module(
            "module m(input a, input b, output reg y);\nwire sel;\n\
             assign sel = a ^ b;\n\
             always @(*) begin\nif (sel) y = a; else y = b;\nend\nendmodule",
        );
        let s = Slice::of_target(&m, "y");
        // sel's definition is in the slice because y is control-dependent on it.
        assert!(s.contains(StmtId(0)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_slice_for_unknown_target() {
        let m = module("module m(input a, output y);\nassign y = a;\nendmodule");
        let s = Slice::of_target(&m, "ghost");
        assert!(s.is_empty());
    }
}
