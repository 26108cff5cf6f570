//! Operator execution.
//!
//! Each node materializes its full output ([`ExecNode::execute`]).
//! Operators with physical-property obligations (`MergeJoin`,
//! `StreamAgg`) trust their inputs — they do not verify or repair
//! sortedness. Running an invalid plan therefore produces observable
//! wrong answers instead of errors, which is the behaviour the
//! differential-testing methodology requires.

use crate::node::{AggSpec, ExecNode, JoinSpec};
use crate::{Database, ExecError, Row, Table};
use plansample_catalog::Datum;
use plansample_query::AggFunc;
use std::collections::HashMap;

impl ExecNode {
    /// Executes the plan against `db`, producing the result table.
    pub fn execute(&self, db: &Database) -> Result<Table, ExecError> {
        match self {
            ExecNode::TableScan { table, filters } => {
                let src = db.table(*table)?;
                check_offsets(filters.iter().map(|f| f.offset), src.width())?;
                let rows: Vec<Row> = src
                    .rows()
                    .iter()
                    .filter(|r| filters.iter().all(|f| f.matches(r)))
                    .cloned()
                    .collect();
                Table::from_rows(src.width(), rows)
            }
            ExecNode::IndexScan {
                table,
                sort_col,
                filters,
            } => {
                let src = db.table(*table)?;
                check_offsets(
                    filters.iter().map(|f| f.offset).chain([*sort_col]),
                    src.width(),
                )?;
                let mut rows: Vec<Row> = src
                    .rows()
                    .iter()
                    .filter(|r| filters.iter().all(|f| f.matches(r)))
                    .cloned()
                    .collect();
                // Key order first, full row as tiebreak for determinism.
                rows.sort_by(|a, b| a[*sort_col].cmp(&b[*sort_col]).then_with(|| a.cmp(b)));
                Table::from_rows(src.width(), rows)
            }
            ExecNode::Sort { input, keys } => {
                let src = input.execute(db)?;
                check_offsets(keys.iter().copied(), src.width())?;
                let width = src.width();
                let mut rows = src.into_rows();
                rows.sort_by(|a, b| {
                    keys.iter()
                        .map(|&k| a[k].cmp(&b[k]))
                        .find(|o| *o != std::cmp::Ordering::Equal)
                        .unwrap_or_else(|| a.cmp(b))
                });
                Table::from_rows(width, rows)
            }
            ExecNode::NestedLoopJoin { left, right, spec } => {
                let l = left.execute(db)?;
                let r = right.execute(db)?;
                check_join_offsets(spec, l.width(), r.width())?;
                let mut out = Vec::new();
                for lrow in l.rows() {
                    for rrow in r.rows() {
                        if spec.pairs_match(lrow, rrow) {
                            out.push(spec.assemble_row(lrow, rrow));
                        }
                    }
                }
                Table::from_rows(l.width() + r.width(), out)
            }
            ExecNode::HashJoin { left, right, spec } => {
                let l = left.execute(db)?;
                let r = right.execute(db)?;
                check_join_offsets(spec, l.width(), r.width())?;
                let mut build: HashMap<Vec<Datum>, Vec<&Row>> = HashMap::new();
                for lrow in l.rows() {
                    let key: Vec<Datum> = spec
                        .eq_pairs
                        .iter()
                        .map(|&(lo, _)| lrow[lo].clone())
                        .collect();
                    build.entry(key).or_default().push(lrow);
                }
                let mut out = Vec::new();
                for rrow in r.rows() {
                    let key: Vec<Datum> = spec
                        .eq_pairs
                        .iter()
                        .map(|&(_, ro)| rrow[ro].clone())
                        .collect();
                    if let Some(matches) = build.get(&key) {
                        for lrow in matches {
                            out.push(spec.assemble_row(lrow, rrow));
                        }
                    }
                }
                Table::from_rows(l.width() + r.width(), out)
            }
            ExecNode::MergeJoin {
                left,
                right,
                left_key,
                right_key,
                spec,
            } => {
                let l = left.execute(db)?;
                let r = right.execute(db)?;
                check_join_offsets(spec, l.width(), r.width())?;
                check_offsets([*left_key], l.width())?;
                check_offsets([*right_key], r.width())?;
                let (lrows, rrows) = (l.rows(), r.rows());
                let mut out = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < lrows.len() && j < rrows.len() {
                    match lrows[i][*left_key].cmp(&rrows[j][*right_key]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            // Duplicate blocks: all pairs of the two runs.
                            let key = lrows[i][*left_key].clone();
                            let i_end = run_end(lrows, i, *left_key, &key);
                            let j_end = run_end(rrows, j, *right_key, &key);
                            for lrow in &lrows[i..i_end] {
                                for rrow in &rrows[j..j_end] {
                                    if spec.pairs_match(lrow, rrow) {
                                        out.push(spec.assemble_row(lrow, rrow));
                                    }
                                }
                            }
                            i = i_end;
                            j = j_end;
                        }
                    }
                }
                Table::from_rows(l.width() + r.width(), out)
            }
            ExecNode::HashAgg { input, group, aggs } => {
                let src = input.execute(db)?;
                check_offsets(group.iter().copied(), src.width())?;
                check_offsets(aggs.iter().filter_map(|a| a.arg), src.width())?;
                let mut groups: HashMap<Vec<Datum>, Accumulators> = HashMap::new();
                for row in src.rows() {
                    let key: Vec<Datum> = group.iter().map(|&g| row[g].clone()).collect();
                    groups
                        .entry(key)
                        .or_insert_with(|| Accumulators::new(aggs))
                        .update(row, aggs)?;
                }
                finalize_groups(groups, group.len(), aggs, src.len())
            }
            ExecNode::StreamAgg { input, group, aggs } => {
                let src = input.execute(db)?;
                check_offsets(group.iter().copied(), src.width())?;
                check_offsets(aggs.iter().filter_map(|a| a.arg), src.width())?;
                let width = group.len() + aggs.len();
                let mut out = Vec::new();
                let mut current: Option<(Vec<Datum>, Accumulators)> = None;
                for row in src.rows() {
                    let key: Vec<Datum> = group.iter().map(|&g| row[g].clone()).collect();
                    let start_new = match &current {
                        Some((k, _)) => *k != key,
                        None => true,
                    };
                    if start_new {
                        if let Some((k, accs)) = current.take() {
                            out.push(accs.finish_into(k));
                        }
                        current = Some((key, Accumulators::new(aggs)));
                    }
                    let (_, accs) = current.as_mut().expect("just installed");
                    accs.update(row, aggs)?;
                }
                if let Some((k, accs)) = current.take() {
                    out.push(accs.finish_into(k));
                }
                // Scalar aggregate over an empty input: one row of empty
                // accumulators (SQL semantics), matching HashAgg.
                if out.is_empty() && group.is_empty() {
                    out.push(Accumulators::new(aggs).finish_into(Vec::new()));
                }
                Table::from_rows(width, out)
            }
            ExecNode::Project { input, cols } => {
                let src = input.execute(db)?;
                check_offsets(cols.iter().copied(), src.width())?;
                let rows: Vec<Row> = src
                    .rows()
                    .iter()
                    .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                    .collect();
                Table::from_rows(cols.len(), rows)
            }
        }
    }
}

fn run_end(rows: &[Row], start: usize, key_col: usize, key: &Datum) -> usize {
    let mut end = start;
    while end < rows.len() && &rows[end][key_col] == key {
        end += 1;
    }
    end
}

fn check_offsets<I: IntoIterator<Item = usize>>(offsets: I, width: usize) -> Result<(), ExecError> {
    for offset in offsets {
        if offset >= width {
            return Err(ExecError::OffsetOutOfRange { offset, width });
        }
    }
    Ok(())
}

fn check_join_offsets(spec: &JoinSpec, lw: usize, rw: usize) -> Result<(), ExecError> {
    check_offsets(spec.eq_pairs.iter().map(|&(l, _)| l), lw)?;
    check_offsets(spec.eq_pairs.iter().map(|&(_, r)| r), rw)?;
    for &(side, offset, len) in &spec.assemble {
        let width = match side {
            crate::Side::Left => lw,
            crate::Side::Right => rw,
        };
        if len > 0 {
            check_offsets([offset + len - 1], width)?;
        }
    }
    Ok(())
}

fn finalize_groups(
    groups: HashMap<Vec<Datum>, Accumulators>,
    group_width: usize,
    aggs: &[AggSpec],
    input_rows: usize,
) -> Result<Table, ExecError> {
    let width = group_width + aggs.len();
    let mut out: Vec<Row> = groups
        .into_iter()
        .map(|(k, accs)| accs.finish_into(k))
        .collect();
    // Scalar aggregate over empty input: one all-empty row.
    if out.is_empty() && group_width == 0 && input_rows == 0 {
        out.push(Accumulators::new(aggs).finish_into(Vec::new()));
    }
    Table::from_rows(width, out)
}

/// A bank of aggregate accumulators, one per [`AggSpec`].
#[derive(Debug, Clone)]
struct Accumulators(Vec<Acc>);

impl Accumulators {
    /// Fresh accumulators for the given aggregate list.
    fn new(aggs: &[AggSpec]) -> Self {
        Accumulators(aggs.iter().map(Acc::new).collect())
    }

    /// Folds one input row into every accumulator.
    fn update(&mut self, row: &[Datum], aggs: &[AggSpec]) -> Result<(), ExecError> {
        for (acc, spec) in self.0.iter_mut().zip(aggs) {
            acc.update(row, spec)?;
        }
        Ok(())
    }

    /// Finalizes into an output row `key ++ aggregate values`.
    fn finish_into(self, mut key: Vec<Datum>) -> Row {
        key.extend(self.0.into_iter().map(Acc::finish));
        key
    }
}

/// Aggregate accumulator. Integer sums stay exact integers so results
/// are bitwise identical across join orders — a prerequisite for exact
/// differential comparison (floats would accumulate in plan-dependent
/// order).
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(SumState),
    Min(Option<Datum>),
    Max(Option<Datum>),
    Avg(SumState, i64),
}

#[derive(Debug, Clone, Copy)]
enum SumState {
    Empty,
    Int(i64),
    Float(f64),
}

impl SumState {
    fn add(&mut self, v: &Datum, func: &'static str) -> Result<(), ExecError> {
        let next = match (&self, v) {
            (SumState::Empty, Datum::Int(x)) => SumState::Int(*x),
            (SumState::Empty, Datum::Float(x)) => SumState::Float(*x),
            (SumState::Int(acc), Datum::Int(x)) => SumState::Int(acc + x),
            (SumState::Int(acc), Datum::Float(x)) => SumState::Float(*acc as f64 + x),
            (SumState::Float(acc), Datum::Int(x)) => SumState::Float(acc + *x as f64),
            (SumState::Float(acc), Datum::Float(x)) => SumState::Float(acc + x),
            (_, Datum::Null) => return Ok(()), // SQL: NULLs ignored
            (_, other) => {
                return Err(ExecError::BadAggregateInput {
                    func,
                    value: other.to_string(),
                })
            }
        };
        *self = next;
        Ok(())
    }

    fn finish(self) -> Datum {
        match self {
            SumState::Empty => Datum::Null,
            SumState::Int(v) => Datum::Int(v),
            SumState::Float(v) => Datum::Float(v),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            SumState::Empty => None,
            SumState::Int(v) => Some(*v as f64),
            SumState::Float(v) => Some(*v),
        }
    }
}

impl Acc {
    fn new(spec: &AggSpec) -> Acc {
        match spec.func {
            AggFunc::CountStar => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(SumState::Empty),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(SumState::Empty, 0),
        }
    }

    fn update(&mut self, row: &[Datum], spec: &AggSpec) -> Result<(), ExecError> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(state) => {
                let v = &row[spec.arg.expect("SUM has an argument")];
                state.add(v, "SUM")?;
            }
            Acc::Avg(state, n) => {
                let v = &row[spec.arg.expect("AVG has an argument")];
                if !matches!(v, Datum::Null) {
                    state.add(v, "AVG")?;
                    *n += 1;
                }
            }
            Acc::Min(cur) => {
                let v = &row[spec.arg.expect("MIN has an argument")];
                if !matches!(v, Datum::Null) && cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let v = &row[spec.arg.expect("MAX has an argument")];
                if !matches!(v, Datum::Null) && cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Datum {
        match self {
            Acc::Count(n) => Datum::Int(n),
            Acc::Sum(state) => state.finish(),
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Datum::Null),
            Acc::Avg(state, n) => match (state.as_f64(), n) {
                (_, 0) | (None, _) => Datum::Null,
                (Some(sum), n) => Datum::Float(sum / n as f64),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ColFilter, Side};
    use plansample_catalog::Datum::{Float, Int, Null, Str};
    use plansample_catalog::TableId;
    use plansample_query::CmpOp;

    fn db_one(width: usize, rows: Vec<Row>) -> Database {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(width, rows).unwrap());
        db
    }

    fn db_two(w0: usize, r0: Vec<Row>, w1: usize, r1: Vec<Row>) -> Database {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(w0, r0).unwrap());
        db.insert(TableId(1), Table::from_rows(w1, r1).unwrap());
        db
    }

    fn scan(t: u32) -> Box<ExecNode> {
        Box::new(ExecNode::TableScan {
            table: TableId(t),
            filters: vec![],
        })
    }

    fn simple_spec(lw: usize, rw: usize, pairs: Vec<(usize, usize)>) -> JoinSpec {
        JoinSpec {
            eq_pairs: pairs,
            assemble: vec![(Side::Left, 0, lw), (Side::Right, 0, rw)],
        }
    }

    #[test]
    fn table_scan_filters() {
        let db = db_one(
            2,
            vec![
                vec![Int(1), Int(10)],
                vec![Int(2), Int(20)],
                vec![Int(3), Int(30)],
            ],
        );
        let node = ExecNode::TableScan {
            table: TableId(0),
            filters: vec![ColFilter {
                offset: 1,
                op: CmpOp::Gt,
                value: Int(15),
            }],
        };
        let out = node.execute(&db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.rows().iter().all(|r| r[1] > Int(15)));
    }

    #[test]
    fn index_scan_sorts() {
        let db = db_one(1, vec![vec![Int(3)], vec![Int(1)], vec![Int(2)]]);
        let node = ExecNode::IndexScan {
            table: TableId(0),
            sort_col: 0,
            filters: vec![],
        };
        let out = node.execute(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Int(1)], vec![Int(2)], vec![Int(3)]]);
    }

    #[test]
    fn sort_is_lexicographic() {
        let db = db_one(
            2,
            vec![
                vec![Int(2), Int(1)],
                vec![Int(1), Int(2)],
                vec![Int(1), Int(1)],
            ],
        );
        let node = ExecNode::Sort {
            input: scan(0),
            keys: vec![0, 1],
        };
        let out = node.execute(&db).unwrap();
        assert_eq!(
            out.rows(),
            &[
                vec![Int(1), Int(1)],
                vec![Int(1), Int(2)],
                vec![Int(2), Int(1)]
            ]
        );
    }

    #[test]
    fn nlj_and_hash_join_agree() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)]],
            2,
            vec![
                vec![Int(2), Int(20)],
                vec![Int(3), Int(30)],
                vec![Int(2), Int(21)],
            ],
        );
        let spec = simple_spec(1, 2, vec![(0, 0)]);
        let nlj = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec: spec.clone(),
        };
        let hj = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec,
        };
        let a = nlj.execute(&db).unwrap();
        let b = hj.execute(&db).unwrap();
        assert_eq!(a.len(), 4); // 2 left dups × 2 right dups
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn merge_join_handles_duplicate_blocks() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)], vec![Int(3)]],
            1,
            vec![vec![Int(2)], vec![Int(2)], vec![Int(4)]],
        );
        let spec = simple_spec(1, 1, vec![(0, 0)]);
        let mj = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort {
                input: scan(0),
                keys: vec![0],
            }),
            right: Box::new(ExecNode::Sort {
                input: scan(1),
                keys: vec![0],
            }),
            left_key: 0,
            right_key: 0,
            spec: spec.clone(),
        };
        let nlj = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec,
        };
        let a = mj.execute(&db).unwrap();
        assert_eq!(a.len(), 4); // 2×2 block
        assert!(a.multiset_eq(&nlj.execute(&db).unwrap()));
    }

    #[test]
    fn merge_join_trusts_sortedness() {
        // Unsorted inputs: the merge join silently produces a wrong
        // (incomplete) result — by design.
        let db = db_two(
            1,
            vec![vec![Int(3)], vec![Int(1)]],
            1,
            vec![vec![Int(1)], vec![Int(3)]],
        );
        let spec = simple_spec(1, 1, vec![(0, 0)]);
        let mj = ExecNode::MergeJoin {
            left: scan(0),
            right: scan(1),
            left_key: 0,
            right_key: 0,
            spec,
        };
        let out = mj.execute(&db).unwrap();
        assert!(
            out.len() < 2,
            "bad plan must corrupt the result, got {}",
            out.len()
        );
    }

    #[test]
    fn cross_product_via_nlj() {
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)]],
            1,
            vec![vec![Int(10)], vec![Int(20)]],
        );
        let nlj = ExecNode::NestedLoopJoin {
            left: scan(0),
            right: scan(1),
            spec: simple_spec(1, 1, vec![]),
        };
        assert_eq!(nlj.execute(&db).unwrap().len(), 4);
    }

    #[test]
    fn residual_predicates_in_merge_join() {
        // Two eq predicates; merge on the first, residual on the second.
        let db = db_two(
            2,
            vec![vec![Int(1), Int(7)], vec![Int(1), Int(8)]],
            2,
            vec![vec![Int(1), Int(7)], vec![Int(1), Int(9)]],
        );
        let spec = simple_spec(2, 2, vec![(0, 0), (1, 1)]);
        let mj = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort {
                input: scan(0),
                keys: vec![0],
            }),
            right: Box::new(ExecNode::Sort {
                input: scan(1),
                keys: vec![0],
            }),
            left_key: 0,
            right_key: 0,
            spec,
        };
        let out = mj.execute(&db).unwrap();
        assert_eq!(out.len(), 1); // only the (1,7)-(1,7) pair
    }

    #[test]
    fn hash_agg_groups_and_aggregates() {
        let db = db_one(
            2,
            vec![
                vec![Int(1), Int(10)],
                vec![Int(2), Int(5)],
                vec![Int(1), Int(30)],
            ],
        );
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(1),
                },
                AggSpec {
                    func: AggFunc::CountStar,
                    arg: None,
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(1),
                },
                AggSpec {
                    func: AggFunc::Max,
                    arg: Some(1),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    arg: Some(1),
                },
            ],
        };
        let out = agg.execute(&db).unwrap();
        let rows = out.sorted_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            vec![Int(1), Int(40), Int(2), Int(10), Int(30), Float(20.0)]
        );
        assert_eq!(
            rows[1],
            vec![Int(2), Int(5), Int(1), Int(5), Int(5), Float(5.0)]
        );
    }

    #[test]
    fn stream_agg_matches_hash_agg_on_sorted_input() {
        let db = db_one(
            2,
            vec![
                vec![Int(2), Int(1)],
                vec![Int(1), Int(2)],
                vec![Int(1), Int(3)],
                vec![Int(2), Int(9)],
            ],
        );
        let aggs = vec![AggSpec {
            func: AggFunc::Sum,
            arg: Some(1),
        }];
        let hash = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: aggs.clone(),
        };
        let stream = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort {
                input: scan(0),
                keys: vec![0],
            }),
            group: vec![0],
            aggs,
        };
        assert!(hash
            .execute(&db)
            .unwrap()
            .multiset_eq(&stream.execute(&db).unwrap()));

        // Sorted input produced by a join: join -> sort -> stream agg.
        let db = db_two(
            1,
            vec![vec![Int(1)], vec![Int(2)], vec![Int(2)]],
            2,
            vec![
                vec![Int(1), Int(5)],
                vec![Int(2), Int(7)],
                vec![Int(2), Int(9)],
            ],
        );
        let join = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: simple_spec(1, 2, vec![(0, 0)]),
        };
        let aggs = vec![AggSpec {
            func: AggFunc::Sum,
            arg: Some(2),
        }];
        let stream = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort {
                input: Box::new(join.clone()),
                keys: vec![0],
            }),
            group: vec![0],
            aggs: aggs.clone(),
        };
        let hash = ExecNode::HashAgg {
            input: Box::new(join),
            group: vec![0],
            aggs,
        };
        let out = stream.execute(&db).unwrap();
        // Key 2: (7 + 9) × 2 left duplicates.
        assert_eq!(out.rows(), &[vec![Int(1), Int(5)], vec![Int(2), Int(32)]]);
        assert!(out.multiset_eq(&hash.execute(&db).unwrap()));
    }

    #[test]
    fn stream_agg_on_unsorted_input_fragments_groups() {
        let db = db_one(
            2,
            vec![
                vec![Int(1), Int(1)],
                vec![Int(2), Int(1)],
                vec![Int(1), Int(1)],
            ],
        );
        let stream = ExecNode::StreamAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::CountStar,
                arg: None,
            }],
        };
        // group 1 appears twice (fragmented) -> 3 output rows, not 2.
        assert_eq!(stream.execute(&db).unwrap().len(), 3);
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let db = db_one(1, vec![]);
        let aggs = vec![
            AggSpec {
                func: AggFunc::CountStar,
                arg: None,
            },
            AggSpec {
                func: AggFunc::Sum,
                arg: Some(0),
            },
            AggSpec {
                func: AggFunc::Avg,
                arg: Some(0),
            },
        ];
        for node in [
            ExecNode::HashAgg {
                input: scan(0),
                group: vec![],
                aggs: aggs.clone(),
            },
            ExecNode::StreamAgg {
                input: scan(0),
                group: vec![],
                aggs,
            },
        ] {
            let out = node.execute(&db).unwrap();
            assert_eq!(out.rows(), &[vec![Int(0), Null, Null]]);
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let db = db_one(1, vec![]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![0],
            aggs: vec![AggSpec {
                func: AggFunc::CountStar,
                arg: None,
            }],
        };
        assert!(agg.execute(&db).unwrap().is_empty());
    }

    #[test]
    fn sum_over_strings_errors() {
        let db = db_one(1, vec![vec![Str("x".into())]]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(0),
            }],
        };
        assert!(matches!(
            agg.execute(&db),
            Err(ExecError::BadAggregateInput { func: "SUM", .. })
        ));
    }

    #[test]
    fn aggregates_skip_nulls() {
        let db = db_one(1, vec![vec![Int(5)], vec![Null], vec![Int(3)]]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(0),
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(0),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    arg: Some(0),
                },
            ],
        };
        let out = agg.execute(&db).unwrap();
        assert_eq!(out.rows()[0], vec![Int(8), Int(3), Float(4.0)]);
    }

    #[test]
    fn project_selects_columns() {
        let db = db_one(3, vec![vec![Int(1), Int(2), Int(3)]]);
        let p = ExecNode::Project {
            input: scan(0),
            cols: vec![2, 0],
        };
        let out = p.execute(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Int(3), Int(1)]]);
    }

    #[test]
    fn offsets_validated() {
        let db = db_one(1, vec![vec![Int(1)]]);
        let p = ExecNode::Project {
            input: scan(0),
            cols: vec![5],
        };
        assert!(matches!(
            p.execute(&db),
            Err(ExecError::OffsetOutOfRange {
                offset: 5,
                width: 1
            })
        ));
    }

    #[test]
    fn mixed_int_float_sum_widens() {
        let db = db_one(1, vec![vec![Int(1)], vec![Float(0.5)]]);
        let agg = ExecNode::HashAgg {
            input: scan(0),
            group: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(0),
            }],
        };
        assert_eq!(agg.execute(&db).unwrap().rows()[0], vec![Float(1.5)]);
    }
}
