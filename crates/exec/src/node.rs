//! [`ExecNode`]: a self-contained executable plan tree.
//!
//! All name/column resolution has already happened: filters, join keys,
//! sort keys, and aggregate arguments are *offsets* into the row layout
//! their child produces. Lowering from memo plans to this representation
//! lives in the `plansample` core crate (`plansample::lower`), keeping
//! this engine independent of the optimizer — it can execute any
//! well-formed tree, which is what a testing engine must do.

use plansample_catalog::{Datum, TableId};
use plansample_query::{AggFunc, CmpOp};

/// A compiled single-column predicate: `row[offset] op value`.
#[derive(Debug, Clone)]
pub struct ColFilter {
    /// Column offset within the operator's row layout.
    pub offset: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Datum,
}

impl ColFilter {
    /// Evaluates against a row.
    pub fn matches(&self, row: &[Datum]) -> bool {
        self.op.eval(&row[self.offset], &self.value)
    }
}

/// Which input a copied segment comes from when assembling join output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left child's row.
    Left,
    /// The right child's row.
    Right,
}

/// Join bookkeeping shared by all join operators.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Equality predicates as `(left_offset, right_offset)` pairs.
    /// Empty for a pure cross product.
    pub eq_pairs: Vec<(usize, usize)>,
    /// Output assembly: copy `len` columns starting at `offset` from
    /// `side`, in order. Produces the canonical (ascending-relation)
    /// layout regardless of join order.
    pub assemble: Vec<(Side, usize, usize)>,
}

impl JoinSpec {
    /// Do `left` and `right` rows satisfy all equality predicates?
    pub fn pairs_match(&self, left: &[Datum], right: &[Datum]) -> bool {
        self.eq_pairs.iter().all(|&(l, r)| left[l] == right[r])
    }

    /// Assembles the output row.
    pub fn assemble_row(&self, left: &[Datum], right: &[Datum]) -> Vec<Datum> {
        let mut out = Vec::with_capacity(self.assemble.iter().map(|&(_, _, len)| len).sum());
        for &(side, offset, len) in &self.assemble {
            let src = match side {
                Side::Left => left,
                Side::Right => right,
            };
            out.extend_from_slice(&src[offset..offset + len]);
        }
        out
    }
}

/// A compiled aggregate expression.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Offset of the argument column; `None` only for `COUNT(*)`.
    pub arg: Option<usize>,
}

/// A physical plan ready for execution.
#[derive(Debug, Clone)]
pub enum ExecNode {
    /// Heap scan with pushed-down filters; row order unspecified.
    TableScan {
        /// Which stored table.
        table: TableId,
        /// Pushed-down predicates (offsets within the base table row).
        filters: Vec<ColFilter>,
    },
    /// Ordered scan: rows sorted by `sort_col` (then by full row for
    /// determinism), filters applied.
    IndexScan {
        /// Which stored table.
        table: TableId,
        /// The indexed column ordinal.
        sort_col: usize,
        /// Pushed-down predicates.
        filters: Vec<ColFilter>,
    },
    /// Sorts the input by the given column offsets (lexicographic).
    Sort {
        /// Input plan.
        input: Box<ExecNode>,
        /// Sort key offsets, major first.
        keys: Vec<usize>,
    },
    /// Tuple-at-a-time nested loops with arbitrary equality predicates
    /// (or none: cross product).
    NestedLoopJoin {
        /// Outer input.
        left: Box<ExecNode>,
        /// Inner input.
        right: Box<ExecNode>,
        /// Predicates and output assembly.
        spec: JoinSpec,
    },
    /// Builds a hash table on the left input keyed by all equality
    /// columns, probes with the right.
    HashJoin {
        /// Build input.
        left: Box<ExecNode>,
        /// Probe input.
        right: Box<ExecNode>,
        /// Predicates (must be non-empty) and output assembly.
        spec: JoinSpec,
    },
    /// Merges two inputs sorted on `left_key`/`right_key`; other
    /// equality predicates in `spec` are applied as residuals.
    /// **Trusts** its inputs to be sorted — an invalid plan yields wrong
    /// results rather than an error, by design.
    MergeJoin {
        /// Left (sorted) input.
        left: Box<ExecNode>,
        /// Right (sorted) input.
        right: Box<ExecNode>,
        /// Merge key offset in the left layout.
        left_key: usize,
        /// Merge key offset in the right layout.
        right_key: usize,
        /// All predicates (incl. the merge key pair) and assembly.
        spec: JoinSpec,
    },
    /// Hash-based grouping; output rows are `group values ++ aggregates`.
    HashAgg {
        /// Input plan.
        input: Box<ExecNode>,
        /// Group-key offsets.
        group: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Streaming grouping over runs of equal keys. **Trusts** the input
    /// to arrive grouped; unsorted input yields fragmented groups.
    StreamAgg {
        /// Input plan.
        input: Box<ExecNode>,
        /// Group-key offsets.
        group: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<ExecNode>,
        /// Offsets to keep, in output order.
        cols: Vec<usize>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use plansample_catalog::Datum::Int;

    #[test]
    fn filter_matches() {
        let f = ColFilter {
            offset: 1,
            op: CmpOp::Ge,
            value: Int(5),
        };
        assert!(f.matches(&[Int(0), Int(5)]));
        assert!(!f.matches(&[Int(9), Int(4)]));
    }

    #[test]
    fn join_spec_pairs_and_assembly() {
        let spec = JoinSpec {
            eq_pairs: vec![(0, 1)],
            assemble: vec![(Side::Right, 0, 2), (Side::Left, 0, 1)],
        };
        let l = [Int(7)];
        let r = [Int(3), Int(7)];
        assert!(spec.pairs_match(&l, &r));
        assert_eq!(spec.assemble_row(&l, &r), vec![Int(3), Int(7), Int(7)]);
        let r2 = [Int(3), Int(8)];
        assert!(!spec.pairs_match(&l, &r2));
    }

    #[test]
    fn cross_product_spec_always_matches() {
        let spec = JoinSpec {
            eq_pairs: vec![],
            assemble: vec![(Side::Left, 0, 1), (Side::Right, 0, 1)],
        };
        assert!(spec.pairs_match(&[Int(1)], &[Int(2)]));
    }
}
