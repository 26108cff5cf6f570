//! The query texts and synthetic specs the workloads run.

use plansample_datagen::joingraph::Topology;

/// TPC-H join queries as SQL text, with the join graphs of Q3, Q5, Q7,
/// Q8, Q9 and Q10 (dates are day offsets from 1992-01-01).
pub const TPCH_SQL: [(&str, &str); 6] = [
    (
        "Q3",
        "SELECT l.l_orderkey, SUM(l.l_extendedprice) FROM customer c, orders o, lineitem l \
         WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey \
         AND l.l_orderkey = o.o_orderkey AND o.o_orderdate < 1168 AND l.l_shipdate > 1168 \
         GROUP BY l.l_orderkey",
    ),
    (
        "Q5",
        "SELECT n.n_name, SUM(l.l_extendedprice) \
         FROM customer c, orders o, lineitem l, supplier s, nation n, region r \
         WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
         AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey \
         AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey \
         AND r.r_name = 'ASIA' AND o.o_orderdate >= 730 GROUP BY n.n_name",
    ),
    (
        "Q7",
        "SELECT n1.n_name, n2.n_name, SUM(l.l_extendedprice) \
         FROM supplier s, lineitem l, orders o, customer c, nation n1, nation n2 \
         WHERE s.s_suppkey = l.l_suppkey AND o.o_orderkey = l.l_orderkey \
         AND c.c_custkey = o.o_custkey AND s.s_nationkey = n1.n_nationkey \
         AND c.c_nationkey = n2.n_nationkey AND n1.n_name = 'FRANCE' \
         AND n2.n_name = 'GERMANY' AND l.l_shipdate >= 1095 GROUP BY n1.n_name, n2.n_name",
    ),
    (
        "Q8",
        "SELECT n2.n_name, SUM(l.l_extendedprice) \
         FROM part p, supplier s, lineitem l, orders o, customer c, nation n1, nation n2, region r \
         WHERE p.p_partkey = l.l_partkey AND s.s_suppkey = l.l_suppkey \
         AND l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey \
         AND c.c_nationkey = n1.n_nationkey AND n1.n_regionkey = r.r_regionkey \
         AND s.s_nationkey = n2.n_nationkey AND r.r_name = 'AMERICA' \
         AND o.o_orderdate >= 1095 AND p.p_type = 'ECONOMY ANODIZED STEEL' GROUP BY n2.n_name",
    ),
    (
        "Q9",
        "SELECT n.n_name, SUM(l.l_extendedprice) \
         FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n \
         WHERE s.s_suppkey = l.l_suppkey AND ps.ps_suppkey = l.l_suppkey \
         AND ps.ps_partkey = l.l_partkey AND p.p_partkey = l.l_partkey \
         AND o.o_orderkey = l.l_orderkey AND s.s_nationkey = n.n_nationkey \
         AND p.p_name = 'green' GROUP BY n.n_name",
    ),
    (
        "Q10",
        "SELECT n.n_name, SUM(l.l_extendedprice) FROM customer c, orders o, lineitem l, nation n \
         WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
         AND c.c_nationkey = n.n_nationkey AND o.o_orderdate >= 638 GROUP BY n.n_name",
    ),
];

/// Small synthetic join graphs served next to the TPC-H queries.
pub const SERVED_SYNTH: [(Topology, u16, u64); 4] = [
    (Topology::Chain, 6, 11),
    (Topology::Star, 6, 21),
    (Topology::Cycle, 6, 32),
    (Topology::Clique, 5, 41),
];
