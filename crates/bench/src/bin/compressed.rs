//! §V-E "Operating on Compressed Data".
//!
//! The engine processes dictionary and RLE blocks without decoding:
//! expressions evaluate once per distinct dictionary entry (or once per
//! run) instead of once per row, and a group-by over dictionary keys looks
//! each tuple of dictionary ids up once. This bench times three leaf shapes
//! over low-cardinality data, each with compressed-block processing on and
//! off:
//!
//! - `lower(shipinstruct)` behind a filter that keeps every row;
//! - a selective dictionary filter, `shipinstruct IN (..) AND shipmode <> ..`;
//! - a two-key dictionary `GROUP BY shipinstruct, shipmode` with `COUNT(*)`
//!   and `SUM(n)`. Its "off" run also reads the keys decoded (flat), since
//!   the group-by takes dictionary keys whatever the session says.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin compressed
//! ```

use presto_common::{DataType, Session, Value};
use presto_exec::agg::{AggPhase, AggSpec, HashAggregationOperator};
use presto_exec::operator::Operator;
use presto_expr::{AggregateFunction, AggregateKind, CmpOp, Expr, PageProcessor, ScalarFn};
use presto_page::blocks::{DictionaryBlock, LongBlock, VarcharBlock};
use presto_page::{Block, Page};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const INSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];

/// Two low-cardinality varchar columns, dictionary-encoded like an ORC
/// stripe (Fig. 5), plus a numeric column, in pages of 8192 rows.
fn dictionary_pages(rows: usize) -> Vec<Page> {
    let instruct = Arc::new(Block::from(VarcharBlock::from_strs(&INSTRUCT)));
    let modes = Arc::new(Block::from(VarcharBlock::from_strs(&MODES)));
    let mut rng = StdRng::seed_from_u64(9);
    (0..rows)
        .step_by(8192)
        .map(|start| {
            let n = 8192.min(rows - start);
            let mut ids =
                |m: usize| -> Vec<u32> { (0..n).map(|_| rng.gen_range(0..m as u32)).collect() };
            let (a, b) = (ids(INSTRUCT.len()), ids(MODES.len()));
            let nums: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            Page::new(vec![
                Block::Dictionary(DictionaryBlock::new(Arc::clone(&instruct), a)),
                Block::Dictionary(DictionaryBlock::new(Arc::clone(&modes), b)),
                Block::from(LongBlock::from_values(nums)),
            ])
        })
        .collect()
}

fn varchar(i: usize) -> Expr {
    Expr::column(i, DataType::Varchar)
}

fn session(compressed: bool) -> Session {
    Session {
        process_compressed: compressed,
        ..Session::default()
    }
}

/// Filter + project every page; returns the rows produced.
fn filter_project(pages: &[Page], compressed: bool, filter: &Expr, projections: &[Expr]) -> usize {
    let mut processor = PageProcessor::new(Some(filter), projections, &session(compressed));
    pages
        .iter()
        .map(|page| processor.process(page).expect("process").row_count())
        .sum()
}

fn lower_projection(pages: &[Page], compressed: bool) -> usize {
    let (f, t) = ScalarFn::resolve("lower", &[DataType::Varchar]).expect("lower(varchar)");
    let projections = [
        Expr::Call {
            function: f,
            args: vec![varchar(0)],
            data_type: t,
        },
        Expr::column(2, DataType::Bigint),
    ];
    let keep_all = Expr::cmp(CmpOp::Ne, varchar(0), Expr::literal("nonexistent"));
    filter_project(pages, compressed, &keep_all, &projections)
}

fn selective_filter(pages: &[Page], compressed: bool) -> usize {
    let filter = Expr::and(vec![
        Expr::InList {
            expr: Box::new(varchar(0)),
            list: vec![Value::varchar("COLLECT COD"), Value::varchar("NONE")],
        },
        Expr::cmp(CmpOp::Ne, varchar(1), Expr::literal("AIR")),
    ]);
    filter_project(
        pages,
        compressed,
        &filter,
        &[Expr::column(2, DataType::Bigint)],
    )
}

fn two_key_group_by(pages: &[Page], compressed: bool) -> usize {
    let projections = [varchar(0), varchar(1), Expr::column(2, DataType::Bigint)];
    let mut processor = PageProcessor::new(None, &projections, &session(compressed));
    let aggregate = |kind, input: Option<usize>| AggSpec {
        function: AggregateFunction::new(kind, input.map(|_| DataType::Bigint)).expect("aggregate"),
        input,
    };
    let mut op = HashAggregationOperator::new(
        AggPhase::Single,
        vec![0, 1],
        vec![DataType::Varchar; 2],
        vec![
            aggregate(AggregateKind::Count, None),
            aggregate(AggregateKind::Sum, Some(2)),
        ],
        None,
    );
    for page in pages {
        let out = processor.process(page).expect("process");
        op.add_input(out).expect("aggregate input");
    }
    op.finish();
    let mut groups = 0;
    while let Some(p) = op.output().expect("aggregate output") {
        groups += p.row_count();
    }
    groups
}

/// Best of three, so a page-fault-heavy first pass does not decide.
fn time(run: impl Fn() -> usize) -> (Duration, usize) {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let out = run();
            (start.elapsed(), out)
        })
        .min_by_key(|(elapsed, _)| *elapsed)
        .expect("three runs")
}

fn main() {
    let rows: usize = std::env::var("PRESTO_COMPRESSED_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);
    println!("§V-E reproduction: processing dictionary blocks without decoding ({rows} rows)\n");
    let pages = dictionary_pages(rows);
    let decoded: Vec<Page> = pages
        .iter()
        .map(|p| Page::new(p.blocks().iter().map(Block::decode).collect()))
        .collect();
    type Case = (&'static str, fn(&[Page], bool) -> usize, bool);
    let cases: [Case; 3] = [
        (
            "lower(shipinstruct), keep-all filter",
            lower_projection,
            false,
        ),
        ("selective dictionary filter", selective_filter, false),
        ("GROUP BY shipinstruct, shipmode", two_key_group_by, true),
    ];
    println!(
        "{:<38} {:>12} {:>12} {:>9}",
        "shape", "off", "on (§V-E)", "speedup"
    );
    for (name, run, off_reads_decoded) in cases {
        let off_input = if off_reads_decoded { &decoded } else { &pages };
        let (off, n1) = time(|| run(off_input, false));
        let (on, n2) = time(|| run(&pages, true));
        assert_eq!(n1, n2, "{name}: on and off disagree");
        println!(
            "{name:<38} {off:>12.2?} {on:>12.2?} {:>8.1}x",
            off.as_secs_f64() / on.as_secs_f64()
        );
    }
    println!(
        "\n{} and {} distinct values per dictionary; the group-by's off run reads decoded keys.",
        INSTRUCT.len(),
        MODES.len()
    );
    println!("\nexpected shape (paper): processing the dictionary instead of every row wins");
    println!("by a wide margin on low-cardinality data, for filters, projections and grouping.");
}
