//! Property tests: all three join algorithms implement the same join, and
//! both aggregation algorithms implement the same aggregation (given
//! their property obligations are met).

use plansample_catalog::Datum::{self, Int};
use plansample_catalog::TableId;
use plansample_exec::{AggSpec, Database, ExecNode, JoinSpec, Side, Table};
use plansample_query::AggFunc;
use proptest::prelude::*;

fn arb_table(
    width: usize,
    max_rows: usize,
    key_domain: i64,
) -> impl Strategy<Value = Vec<Vec<Datum>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..key_domain).prop_map(Int), width..=width),
        0..=max_rows,
    )
}

fn db_two(w0: usize, r0: Vec<Vec<Datum>>, w1: usize, r1: Vec<Vec<Datum>>) -> Database {
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

fn spec(lw: usize, rw: usize, pairs: Vec<(usize, usize)>) -> JoinSpec {
    JoinSpec {
        eq_pairs: pairs,
        assemble: vec![(Side::Left, 0, lw), (Side::Right, 0, rw)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn three_join_algorithms_agree(
        l in arb_table(2, 24, 6),
        r in arb_table(2, 24, 6),
    ) {
        let db = db_two(2, l, 2, r);
        let s = spec(2, 2, vec![(0, 0)]);

        let nlj = ExecNode::NestedLoopJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let hj = ExecNode::HashJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let mj = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            right: Box::new(ExecNode::Sort { input: scan(1), keys: vec![0] }),
            left_key: 0,
            right_key: 0,
            spec: s,
        };

        let a = nlj.execute(&db).unwrap();
        let b = hj.execute(&db).unwrap();
        let c = mj.execute(&db).unwrap();
        prop_assert!(a.multiset_eq(&b), "NLJ vs HashJoin");
        prop_assert!(a.multiset_eq(&c), "NLJ vs MergeJoin");
    }

    #[test]
    fn join_with_two_predicates_agrees(
        l in arb_table(2, 16, 4),
        r in arb_table(2, 16, 4),
    ) {
        let db = db_two(2, l, 2, r);
        let s = spec(2, 2, vec![(0, 0), (1, 1)]);
        let nlj = ExecNode::NestedLoopJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let hj = ExecNode::HashJoin { left: scan(0), right: scan(1), spec: s.clone() };
        let mj = ExecNode::MergeJoin {
            left: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            right: Box::new(ExecNode::Sort { input: scan(1), keys: vec![0] }),
            left_key: 0,
            right_key: 0,
            spec: s,
        };
        let a = nlj.execute(&db).unwrap();
        prop_assert!(a.multiset_eq(&hj.execute(&db).unwrap()));
        prop_assert!(a.multiset_eq(&mj.execute(&db).unwrap()));
    }

    #[test]
    fn join_commutes_as_multiset(
        l in arb_table(1, 20, 5),
        r in arb_table(1, 20, 5),
    ) {
        let db = db_two(1, l, 1, r);
        // A ⋈ B assembled as (A,B) vs B ⋈ A assembled back as (A,B).
        let ab = ExecNode::HashJoin {
            left: scan(0),
            right: scan(1),
            spec: spec(1, 1, vec![(0, 0)]),
        };
        let ba = ExecNode::HashJoin {
            left: scan(1),
            right: scan(0),
            spec: JoinSpec {
                eq_pairs: vec![(0, 0)],
                assemble: vec![(Side::Right, 0, 1), (Side::Left, 0, 1)],
            },
        };
        let x = ab.execute(&db).unwrap();
        let y = ba.execute(&db).unwrap();
        prop_assert!(x.multiset_eq(&y));
    }

    #[test]
    fn aggregation_algorithms_agree(rows in arb_table(2, 32, 5)) {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(2, rows).unwrap());
        let aggs = vec![
            AggSpec { func: AggFunc::Sum, arg: Some(1) },
            AggSpec { func: AggFunc::CountStar, arg: None },
            AggSpec { func: AggFunc::Min, arg: Some(1) },
            AggSpec { func: AggFunc::Max, arg: Some(1) },
        ];
        let hash = ExecNode::HashAgg { input: scan(0), group: vec![0], aggs: aggs.clone() };
        let stream = ExecNode::StreamAgg {
            input: Box::new(ExecNode::Sort { input: scan(0), keys: vec![0] }),
            group: vec![0],
            aggs,
        };
        prop_assert!(hash.execute(&db).unwrap().multiset_eq(&stream.execute(&db).unwrap()));
    }

    #[test]
    fn sort_preserves_multiset(rows in arb_table(2, 32, 10)) {
        let mut db = Database::new();
        db.insert(TableId(0), Table::from_rows(2, rows).unwrap());
        let sorted = ExecNode::Sort { input: scan(0), keys: vec![1, 0] }.execute(&db).unwrap();
        let plain = scan(0).execute(&db).unwrap();
        prop_assert!(sorted.multiset_eq(&plain));
        // and really is sorted on the key
        for w in sorted.rows().windows(2) {
            prop_assert!(w[0][1] <= w[1][1]);
        }
    }
}
