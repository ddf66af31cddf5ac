//! Query templates and op sequences. Templates live here, not in
//! `presto::workload`, so an engine change cannot alter the benchmark's
//! inputs. `--seed` picks template literals and op order only; the data
//! seed is fixed in `fixture.rs`.
//!
//! Every literal is drawn from a small set whose members cost about the
//! same, and a cycle draws a template's literal combinations without
//! replacement (stratified: all of them before any repeats), so a seed
//! changes *which* queries run and in what order but hardly how much work
//! a run holds. Every `LIMIT` sits under a total `ORDER BY`, so results
//! are unique and the oracle comparison is exact up to float rounding.

use presto::common::DataType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    AdhocScan,
    StarJoin,
    PointLookup,
    EtlWrite,
    SpillJoin,
}

pub const ALL_WORKLOADS: [Workload; 5] = [
    Workload::AdhocScan,
    Workload::StarJoin,
    Workload::PointLookup,
    Workload::EtlWrite,
    Workload::SpillJoin,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocScan => "adhoc_scan",
            Workload::StarJoin => "star_join",
            Workload::PointLookup => "point_lookup",
            Workload::EtlWrite => "etl_write",
            Workload::SpillJoin => "spill_join",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads (capped at `available_parallelism`).
    /// Two clients on the join and lookup mixes make the cluster's MLFQ
    /// and admission path arbitrate between queries.
    pub fn clients(self) -> usize {
        match self {
            Workload::StarJoin | Workload::PointLookup => 2,
            _ => 1,
        }
    }

    /// Ops of the timed pass per second of `--seconds`, frozen at about
    /// what this engine did on the 2-core sandbox when the benchmark was
    /// defined. The op count is fixed, not the time: the work, and so the
    /// memory it leaves behind, is identical across commits; a slower
    /// engine takes longer over it.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Workload::AdhocScan => 72.0,
            Workload::StarJoin => 21.0,
            Workload::PointLookup => 550.0,
            Workload::EtlWrite => 14.0,
            Workload::SpillJoin => 18.0,
        }
    }

    /// Set-ups per timed run; `setup_s` is their median. A set-up lasts
    /// from most of a second (the Hive fixtures) down to two milliseconds
    /// (`ads`), and the shorter it is the more repeats steady it.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::AdhocScan | Workload::StarJoin => 4,
            Workload::EtlWrite => 8,
            Workload::SpillJoin => 24,
            Workload::PointLookup => 200,
        }
    }

    /// Ops the traced pass replays (from the start of the sequence, one
    /// client).
    pub fn trace_ops(self) -> usize {
        match self {
            Workload::AdhocScan => 64,
            Workload::StarJoin => 32,
            Workload::PointLookup => 600,
            Workload::EtlWrite => 24,
            Workload::SpillJoin => 24,
        }
    }

    fn templates(self) -> &'static [Template] {
        match self {
            Workload::AdhocScan => ADHOC_SCAN,
            Workload::StarJoin => STAR_JOIN,
            Workload::PointLookup => POINT_LOOKUP,
            Workload::EtlWrite => ETL_WRITE,
            Workload::SpillJoin => SPILL_JOIN,
        }
    }

    /// One cycle of the op sequence: `weight` ops per template, their
    /// literal combinations drawn in seeded order without replacement (and
    /// again from the start once all are used), in seeded order. Runs loop
    /// over it.
    pub fn cycle(self, seed: u64) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b5e_55ed);
        let mut ops: Vec<Op> = Vec::new();
        for t in self.templates() {
            let mut combinations: Vec<usize> = (0..t.choices.iter().product()).collect();
            shuffle(&mut combinations, &mut rng);
            for k in 0..t.weight {
                // One digit per literal, in mixed radix.
                let mut index = combinations[k % combinations.len()];
                let picks: Vec<usize> = t
                    .choices
                    .iter()
                    .map(|n| {
                        let pick = index % n;
                        index /= n;
                        pick
                    })
                    .collect();
                ops.push(Op {
                    template: t.name,
                    select: (t.sql)(&picks),
                    target: t.target,
                });
            }
        }
        shuffle(&mut ops, &mut rng);
        ops
    }
}

/// Fisher-Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One query of the sequence. For `etl_write`, `select` is the body of an
/// `INSERT INTO <fresh table>` and `target` the table's columns.
#[derive(Clone)]
pub struct Op {
    pub template: &'static str,
    pub select: String,
    pub target: Option<&'static [(&'static str, DataType)]>,
}

struct Template {
    name: &'static str,
    /// Ops per cycle. Weights place the median and the 90th percentile of
    /// the mix inside one template's latency distribution instead of in the
    /// gap between two, where nearest-rank percentiles flip run to run.
    weight: usize,
    /// How many values each literal of the template can take.
    choices: &'static [usize],
    /// The statement for one pick (an index below its `choices` entry) per
    /// literal.
    sql: fn(&[usize]) -> String,
    target: Option<&'static [(&'static str, DataType)]>,
}

const fn query(
    name: &'static str,
    weight: usize,
    choices: &'static [usize],
    sql: fn(&[usize]) -> String,
) -> Template {
    Template {
        name,
        weight,
        choices,
        sql,
        target: None,
    }
}

// ---- adhoc_scan: join-free shapes over lineitem/orders (§II-A) ----

const ADHOC_SCAN: &[Template] = &[
    query("q09_case_pivot", 16, &[3, 3], |p| {
        let (a, b) = ([9, 10, 11][p[0]], [24, 25, 26][p[1]]);
        format!(
            "SELECT SUM(CASE WHEN quantity BETWEEN 1 AND {a} THEN extendedprice ELSE 0.0 END), \
                    SUM(CASE WHEN quantity BETWEEN {} AND {b} THEN extendedprice ELSE 0.0 END), \
                    SUM(CASE WHEN quantity > {b} THEN extendedprice ELSE 0.0 END) \
             FROM lineitem",
            a + 1
        )
    }),
    // orderkey rises through the files, so the range prunes stripes by
    // footer min/max; the remaining conjuncts run in the fused leaf loop.
    query("q06_selective", 14, &[6, 5, 2], |p| {
        let eighth = [1, 2, 3, 4, 5, 6][p[0]];
        let d = [3, 4, 5, 6, 7][p[1]];
        format!(
            "SELECT SUM(extendedprice * discount), COUNT(*) FROM lineitem \
             WHERE orderkey >= {} AND orderkey < {} \
               AND discount BETWEEN 0.0{} AND 0.0{} AND quantity < {}",
            eighth * ORDERS_PER_EIGHTH,
            (eighth + 2) * ORDERS_PER_EIGHTH,
            d - 1,
            d + 1,
            [24, 25][p[2]]
        )
    }),
    query("q01_rollup", 8, &[4], |p| {
        format!(
            "SELECT returnflag, linestatus, SUM(quantity), SUM(extendedprice), \
                    SUM(extendedprice * (1.0 - discount)), AVG(quantity), AVG(discount), COUNT(*) \
             FROM lineitem WHERE shipdate <= DATE '1998-{}' GROUP BY returnflag, linestatus",
            ["09-01", "09-15", "10-01", "10-15"][p[0]]
        )
    }),
    // TPC-DS q28's distinct count, as a group-by under a global aggregate.
    // `COUNT(DISTINCT partkey)` itself is kept out of the mix: about one
    // such query in 20 000 dies with a spurious "exceeded per-node total
    // memory limit" (see README), and a workload may hold no failing op.
    query("q28_distinct", 14, &[4, 2], |p| {
        let d = [2, 4, 6, 8][p[0]];
        format!(
            "SELECT COUNT(*), SUM(total) / SUM(cnt), SUM(cnt) \
             FROM (SELECT partkey, COUNT(*) AS cnt, SUM(extendedprice) AS total FROM lineitem \
                   WHERE quantity < {} AND discount BETWEEN 0.0{} AND 0.0{} GROUP BY partkey) t",
            [5, 6][p[1]],
            d - 1,
            d + 1
        )
    }),
    query("q44_agg_window", 8, &[3], |p| {
        format!(
            "SELECT * FROM (\
                SELECT partkey, avg_price, rank() OVER (ORDER BY avg_price DESC) AS rnk \
                FROM (SELECT partkey, AVG(extendedprice) AS avg_price \
                      FROM lineitem WHERE quantity >= {} GROUP BY partkey) agg\
             ) ranked WHERE rnk <= 10",
            [1, 2, 3][p[0]]
        )
    }),
    query("q73_having", 12, &[2, 2], |p| {
        format!(
            "SELECT custkey, COUNT(*) AS cnt FROM orders \
             WHERE orderstatus = '{}' GROUP BY custkey HAVING COUNT(*) > {}",
            ["O", "P"][p[0]],
            [2, 3][p[1]]
        )
    }),
    query("q76_union_all", 8, &[3], |p| {
        format!(
            "SELECT returnflag, linestatus, COUNT(*), SUM(extendedprice) \
             FROM lineitem WHERE quantity > {} GROUP BY returnflag, linestatus \
             UNION ALL \
             SELECT orderstatus, orderpriority, COUNT(*), SUM(totalprice) \
             FROM orders GROUP BY orderstatus, orderpriority",
            [1, 2, 3][p[0]]
        )
    }),
    query("shipmode_in", 16, &[4, 2], |p| {
        let (a, b) = [
            ("AIR", "RAIL"),
            ("SHIP", "TRUCK"),
            ("MAIL", "FOB"),
            ("REG AIR", "AIR"),
        ][p[0]];
        format!(
            "SELECT shipmode, COUNT(*), SUM(extendedprice) FROM lineitem \
             WHERE shipmode IN ('{a}', '{b}') AND discount >= 0.0{} GROUP BY shipmode",
            [1, 2][p[1]]
        )
    }),
];

/// An eighth of the orderkey domain at the Hive fixture's scale
/// (`fixture::FULL.scale_hive` → 75 000 orders).
const ORDERS_PER_EIGHTH: i64 = 75_000 / 8;

// ---- star_join: the Fig. 6 join shapes ----

const STAR_JOIN: &[Template] = &[
    query("q18", 4, &[5], |p| {
        format!(
            "SELECT c.mktsegment, AVG(l.quantity), AVG(l.extendedprice), COUNT(*) \
             FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey \
             JOIN customer c ON o.custkey = c.custkey \
             WHERE o.orderpriority <> '{}' GROUP BY c.mktsegment",
            PRIORITIES[p[0]]
        )
    }),
    query("q20", 4, &[5], |p| {
        let (from, to) = [
            ("1993-01-01", "1993-04-01"),
            ("1994-04-01", "1994-07-01"),
            ("1995-07-01", "1995-10-01"),
            ("1996-10-01", "1997-01-01"),
            ("1997-01-01", "1997-04-01"),
        ][p[0]];
        format!(
            "SELECT p.type, SUM(l.extendedprice * (1.0 - l.discount)) AS revenue \
             FROM lineitem l JOIN part p ON l.partkey = p.partkey \
             WHERE l.shipdate >= DATE '{from}' AND l.shipdate < DATE '{to}' \
             GROUP BY p.type ORDER BY revenue DESC"
        )
    }),
    query("q26", 4, &[5], |p| {
        format!(
            "SELECT p.brand, AVG(l.quantity), AVG(l.discount), AVG(l.extendedprice) \
             FROM lineitem l JOIN part p ON l.partkey = p.partkey \
             JOIN orders o ON l.orderkey = o.orderkey \
             WHERE o.orderpriority = '{}' GROUP BY p.brand",
            PRIORITIES[p[0]]
        )
    }),
    query("q50", 4, &[2], |p| {
        format!(
            "SELECT o.orderpriority, COUNT(*) \
             FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
             WHERE l.shipdate >= o.orderdate AND l.returnflag <> '{}' \
             GROUP BY o.orderpriority",
            ["R", "A"][p[0]]
        )
    }),
    query("q60", 4, &[2], |p| {
        format!(
            "SELECT n.name, SUM(l.extendedprice) AS rev \
             FROM lineitem l JOIN supplier s ON l.suppkey = s.suppkey \
             JOIN nation n ON s.nationkey = n.nationkey \
             WHERE l.returnflag <> '{}' GROUP BY n.name ORDER BY rev DESC",
            ["R", "A"][p[0]]
        )
    }),
    query("q64", 4, &[2], |p| {
        format!(
            "SELECT p.brand, s.name, COUNT(*) AS cnt \
             FROM lineitem l JOIN part p ON l.partkey = p.partkey \
             JOIN supplier s ON l.suppkey = s.suppkey \
             JOIN orders o ON l.orderkey = o.orderkey \
             WHERE o.orderstatus = '{}' \
             GROUP BY p.brand, s.name ORDER BY cnt DESC, p.brand, s.name LIMIT 100",
            ["O", "P"][p[0]]
        )
    }),
    query("q78", 4, &[2], |p| {
        format!(
            "SELECT l.suppkey, SUM(l.quantity) AS qty, SUM(l.extendedprice) AS price \
             FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey \
             WHERE o.orderstatus <> '{}' \
             GROUP BY l.suppkey ORDER BY qty DESC, l.suppkey LIMIT 100",
            ["O", "P"][p[0]]
        )
    }),
    query("q80", 4, &[5, 2], |p| {
        format!(
            "SELECT n.name, SUM(l.extendedprice * (1.0 - l.discount)) AS net \
             FROM lineitem l \
             JOIN supplier s ON l.suppkey = s.suppkey \
             JOIN nation n ON s.nationkey = n.nationkey \
             JOIN region r ON n.regionkey = r.regionkey \
             WHERE r.name = '{}' AND l.returnflag <> '{}' GROUP BY n.name",
            ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"][p[0]],
            ["R", "A"][p[1]]
        )
    }),
];

const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

// ---- point_lookup: highly selective, programmatically generated (§II-D) ----

const POINT_LOOKUP: &[Template] = &[
    query("daily_rollup", 200, &[50], |p| {
        format!(
            "SELECT day, SUM(clicks), SUM(spend) FROM ads \
             WHERE advertiser_id = {} GROUP BY day ORDER BY day",
            p[0]
        )
    }),
    query("filtered_count", 200, &[50, 5], |p| {
        format!(
            "SELECT COUNT(*), AVG(spend) FROM ads WHERE advertiser_id = {} AND clicks > {}",
            p[0], p[1]
        )
    }),
    query("top_ads_rank", 200, &[50], |p| {
        format!(
            "SELECT ad_id, c, rank() OVER (ORDER BY c DESC) AS r \
             FROM (SELECT ad_id, SUM(clicks) AS c FROM ads \
                   WHERE advertiser_id = {} GROUP BY ad_id) t \
             ORDER BY c DESC, ad_id LIMIT 20",
            p[0]
        )
    }),
];

// ---- etl_write: transform + write back (§II-B) ----

const ETL_WRITE: &[Template] = &[
    // Row-for-row transform: write-heavy.
    Template {
        name: "lineitem_transform",
        weight: 4,
        choices: &[3, 2],
        sql: |p| {
            format!(
                "SELECT orderkey, partkey, suppkey, \
                        extendedprice * (1.0 - discount) AS net, \
                        extendedprice * (1.0 - discount) * (1.0 + tax) AS gross, \
                        CASE WHEN quantity < {} THEN 'small' ELSE 'bulk' END AS bucket, \
                        shipmode \
                 FROM lineitem WHERE returnflag <> '{}'",
                [10, 20, 30][p[0]],
                ["R", "A"][p[1]]
            )
        },
        target: Some(&[
            ("orderkey", DataType::Bigint),
            ("partkey", DataType::Bigint),
            ("suppkey", DataType::Bigint),
            ("net", DataType::Double),
            ("gross", DataType::Double),
            ("bucket", DataType::Varchar),
            ("shipmode", DataType::Varchar),
        ]),
    },
    // The examples/batch_etl.rs join + rollup: read-heavy, small write.
    Template {
        name: "supplier_revenue",
        weight: 12,
        choices: &[5],
        sql: |p| {
            format!(
                "SELECT l.suppkey, l.returnflag, \
                        SUM(l.extendedprice * (1.0 - l.discount)) AS net_revenue, \
                        COUNT(*) AS order_count \
                 FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey \
                 WHERE o.orderpriority <> '{}' GROUP BY l.suppkey, l.returnflag",
                PRIORITIES[p[0]]
            )
        },
        target: Some(&[
            ("suppkey", DataType::Bigint),
            ("returnflag", DataType::Varchar),
            ("net_revenue", DataType::Double),
            ("order_count", DataType::Bigint),
        ]),
    },
];

// ---- spill_join: join + wide GROUP BY under a starved pool (§IV-F2) ----

const SPILL_JOIN: &[Template] = &[
    query("join_wide_group_by", 8, &[4], |p| {
        format!(
            "SELECT o.orderkey, o.custkey, COUNT(*), SUM(l.tax), SUM(l.discount) \
             FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
             WHERE l.quantity <= {} GROUP BY o.orderkey, o.custkey",
            [47, 48, 49, 50][p[0]]
        )
    }),
    query("custkey_rollup", 8, &[4], |p| {
        format!(
            "SELECT o.custkey, COUNT(*), SUM(o.totalprice), MIN(o.orderdate), MAX(o.orderdate) \
             FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey \
             WHERE l.quantity <= {} GROUP BY o.custkey",
            [47, 48, 49, 50][p[0]]
        )
    }),
];
