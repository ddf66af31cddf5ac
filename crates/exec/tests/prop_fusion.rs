#![allow(clippy::unwrap_used)]
//! Leaf-operator differential properties. Filter/project chains must
//! produce exactly the rows the row-at-a-time interpreter
//! (`process_interpreted`) produces over the same pages; an absorbed partial
//! aggregate must match the same operator without it followed by a discrete
//! partial aggregation — for every input the scan can serve: all column
//! types, NULLs, NaN doubles, dictionary- and RLE-encoded pages, and empty
//! pages. Fusion is an optimization, never a semantic change, whatever the
//! expressions.

use presto_common::{DataType, Schema, Session, Value};
use presto_connector::{Connector, TupleDomain};
use presto_connectors::MemoryConnector;
use presto_exec::agg::{AggPhase, AggSpec, HashAggregationOperator};
use presto_exec::scan::{FusedAggStage, ScanOperator, SplitQueue};
use presto_exec::Operator;
use presto_expr::processor::process_interpreted;
use presto_expr::{AggregateFunction, AggregateKind, ArithOp, CmpOp, Expr, ScalarFn};
use presto_page::blocks::DictionaryBlock;
use presto_page::{Block, Page};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated row: nullable bigint key, bigint value, double that may
/// be NaN or NULL, small nullable varchar.
type Row = (Option<i64>, i64, Option<f64>, Option<u8>);

fn schema() -> Schema {
    Schema::of(&[
        ("k", DataType::Bigint),
        ("v", DataType::Bigint),
        ("d", DataType::Double),
        ("s", DataType::Varchar),
    ])
}

fn value_row(r: &Row) -> Vec<Value> {
    vec![
        r.0.map(Value::Bigint).unwrap_or(Value::Null),
        Value::Bigint(r.1),
        r.2.map(Value::Double).unwrap_or(Value::Null),
        r.3.map(|c| Value::varchar(format!("s{c}")))
            .unwrap_or(Value::Null),
    ]
}

/// How one generated page is physically encoded. The differential holds
/// whatever the layout, because both operators read the same pages.
#[derive(Debug, Clone)]
enum Chunk {
    /// Flat columnar blocks.
    Flat(Vec<Row>),
    /// The varchar column dictionary-encoded over the chunk's distinct
    /// values (ids shared, dictionary per page).
    Dict(Vec<Row>),
    /// One row repeated `count` times as RLE runs on every column.
    Rle(Row, usize),
    /// A zero-row page.
    Empty,
}

fn chunk_page(chunk: &Chunk) -> Page {
    match chunk {
        Chunk::Flat(rows) => {
            let rows: Vec<Vec<Value>> = rows.iter().map(value_row).collect();
            Page::from_rows(&schema(), &rows)
        }
        Chunk::Dict(rows) => {
            let flat = chunk_page(&Chunk::Flat(rows.clone()));
            // Distinct varchar values of the chunk become the dictionary;
            // every row's value indexes into it (NULL is an entry too).
            let mut entries: Vec<Value> = Vec::new();
            let mut ids = Vec::with_capacity(rows.len());
            for r in rows {
                let v =
                    r.3.map(|c| Value::varchar(format!("s{c}")))
                        .unwrap_or(Value::Null);
                let id = entries.iter().position(|e| *e == v).unwrap_or_else(|| {
                    entries.push(v);
                    entries.len() - 1
                });
                ids.push(id as u32);
            }
            let dictionary = Arc::new(Block::from_values(DataType::Varchar, &entries));
            Page::new(vec![
                flat.block(0).clone(),
                flat.block(1).clone(),
                flat.block(2).clone(),
                Block::Dictionary(DictionaryBlock::new(dictionary, ids)),
            ])
        }
        Chunk::Rle(row, count) => {
            let values = value_row(row);
            let types = [
                DataType::Bigint,
                DataType::Bigint,
                DataType::Double,
                DataType::Varchar,
            ];
            Page::new(
                values
                    .iter()
                    .zip(types)
                    .map(|(v, t)| Block::rle(Block::single(t, v), *count))
                    .collect(),
            )
        }
        Chunk::Empty => Page::from_rows(&schema(), &[]),
    }
}

fn load(chunks: &[Chunk]) -> Arc<MemoryConnector> {
    let c = MemoryConnector::new();
    c.load_table("t", schema(), chunks.iter().map(chunk_page).collect());
    c
}

fn feed_splits(c: &dyn Connector, queue: &SplitQueue) {
    let mut src = c.split_source("t", "default", &TupleDomain::all()).unwrap();
    while !src.is_finished() {
        for s in src.next_batch(16).unwrap() {
            queue.add(s);
        }
    }
    queue.no_more_splits();
}

fn drain_source(op: &mut dyn Operator) -> Vec<Page> {
    let mut out = Vec::new();
    let mut guard = 0;
    while !op.is_finished() {
        guard += 1;
        assert!(guard < 100_000, "source operator did not converge");
        if let Some(p) = op.output().unwrap() {
            out.push(p);
        }
    }
    out
}

/// Final-phase specs over a partial output laid out as
/// `[groups..., spec0 state..., spec1 state...]`.
fn final_specs(group_count: usize, specs: &[AggSpec]) -> Vec<AggSpec> {
    let mut start = group_count;
    specs
        .iter()
        .map(|s| {
            let arity = s.function.intermediate_types().len();
            let out = AggSpec {
                function: s.function,
                input: Some(start),
            };
            start += arity;
            out
        })
        .collect()
}

/// Merge partial pages through a final aggregation and render the rows.
fn finalize(partials: Vec<Page>, agg: &FusedAggStage, out_schema: &Schema) -> Vec<String> {
    let mut finals = HashAggregationOperator::new(
        AggPhase::Final,
        (0..agg.group_channels.len()).collect(),
        agg.group_types.clone(),
        final_specs(agg.group_channels.len(), &agg.specs),
        None,
    );
    for p in partials {
        finals.add_input(p).unwrap();
    }
    finals.finish();
    let mut rows = Vec::new();
    while let Some(p) = finals.output().unwrap() {
        rows.extend(p.to_rows(out_schema).iter().map(|r| format!("{r:?}")));
    }
    rows.sort_unstable();
    rows
}

/// One leaf chain under test, in the scan's channel space.
struct Chain {
    filter: Option<Expr>,
    projections: Vec<Expr>,
    agg: Option<FusedAggStage>,
}

/// Drain a leaf operator over `chunks`, optionally absorbing `agg`.
fn run_leaf(chunks: &[Chunk], chain: &Chain, agg: Option<&FusedAggStage>) -> Vec<Page> {
    let connector = load(chunks);
    let queue = SplitQueue::new();
    feed_splits(connector.as_ref(), &queue);
    let mut op = ScanOperator::new(
        connector as Arc<dyn Connector>,
        queue,
        vec![0, 1, 2, 3],
        TupleDomain::all(),
        chain.filter.as_ref(),
        &chain.projections,
        &Session::default(),
    );
    if let Some(agg) = agg {
        op = op.with_partial_aggregation(agg);
    }
    drain_source(&mut op)
}

fn render(pages: &[Page], out_schema: &Schema) -> Vec<String> {
    let mut rows: Vec<String> = pages
        .iter()
        .flat_map(|p| p.to_rows(out_schema))
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort_unstable();
    rows
}

/// Run the leaf operator and its reference over identical pages and return
/// both row renderings (sorted — partial flush boundaries and group order
/// are not part of the contract). Without an aggregate the reference is the
/// interpreter; with one, the same leaf without the aggregate feeding a
/// discrete partial aggregation.
fn run_both(chunks: &[Chunk], chain: &Chain, out_schema: &Schema) -> (Vec<String>, Vec<String>) {
    let Some(agg) = &chain.agg else {
        let leaf = run_leaf(chunks, chain, None);
        let reference: Vec<Page> = chunks
            .iter()
            .map(|c| process_interpreted(chain.filter.as_ref(), &chain.projections, &chunk_page(c)))
            .collect::<Result<_, _>>()
            .unwrap();
        return (render(&leaf, out_schema), render(&reference, out_schema));
    };
    let absorbed = run_leaf(chunks, chain, Some(agg));
    let mut partial = HashAggregationOperator::new(
        AggPhase::Partial,
        agg.group_channels.clone(),
        agg.group_types.clone(),
        agg.specs.clone(),
        None,
    );
    for p in run_leaf(chunks, chain, None) {
        partial.add_input(p).unwrap();
    }
    partial.finish();
    let mut discrete_partials = Vec::new();
    while let Some(p) = partial.output().unwrap() {
        discrete_partials.push(p);
    }
    (
        finalize(absorbed, agg, out_schema),
        finalize(discrete_partials, agg, out_schema),
    )
}

// --- generators ---------------------------------------------------------

fn arb_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![4 => (0i64..12).prop_map(Some), 1 => Just(None)],
        -40i64..40,
        prop_oneof![
            4 => (-8i64..8).prop_map(|v| Some(v as f64 * 0.5)),
            1 => Just(Some(f64::NAN)),
            1 => Just(None),
        ],
        prop_oneof![4 => (0u8..4).prop_map(Some), 1 => Just(None)],
    )
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        4 => proptest::collection::vec(arb_row(), 1..24).prop_map(Chunk::Flat),
        3 => proptest::collection::vec(arb_row(), 1..24).prop_map(Chunk::Dict),
        2 => (arb_row(), 1usize..24).prop_map(|(r, n)| Chunk::Rle(r, n)),
        1 => Just(Chunk::Empty),
    ]
}

fn arb_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    proptest::collection::vec(arb_chunk(), 0..6)
}

/// A filter over every column type: `k < kt AND d < dt` (NaN compares
/// false, NULL propagates) optionally strengthened with `s = 's1'`.
fn filter_expr(kt: i64, dt: f64, on_s: bool) -> Expr {
    let mut conjuncts = vec![
        Expr::cmp(
            CmpOp::Lt,
            Expr::column(0, DataType::Bigint),
            Expr::literal(kt),
        ),
        Expr::cmp(
            CmpOp::Lt,
            Expr::column(2, DataType::Double),
            Expr::literal(dt),
        ),
    ];
    if on_s {
        conjuncts.push(Expr::cmp(
            CmpOp::Eq,
            Expr::column(3, DataType::Varchar),
            Expr::literal("s1"),
        ));
    }
    Expr::and(conjuncts)
}

/// Expressions the leaf once refused to run (generic scalar calls, lossy
/// casts, IN lists over doubles): `upper(s)`, `CAST(d AS varchar)` and
/// `d IN (0.5, -1.0, 2.0)`.
fn upper_s() -> Expr {
    let (function, data_type) = ScalarFn::resolve("upper", &[DataType::Varchar]).unwrap();
    Expr::Call {
        function,
        args: vec![Expr::column(3, DataType::Varchar)],
        data_type,
    }
}

fn d_as_varchar() -> Expr {
    Expr::Cast {
        expr: Box::new(Expr::column(2, DataType::Double)),
        data_type: DataType::Varchar,
    }
}

fn d_in_list() -> Expr {
    Expr::InList {
        expr: Box::new(Expr::column(2, DataType::Double)),
        list: vec![Value::Double(0.5), Value::Double(-1.0), Value::Double(2.0)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scan → Filter → Project without aggregation: projected rows match
    /// the interpreter exactly.
    #[test]
    fn fused_filter_project_matches_discrete(
        chunks in arb_chunks(),
        kt in -2i64..14,
        dt in -5i64..5,
        on_s in any::<bool>(),
    ) {
        let chain = Chain {
            filter: Some(filter_expr(kt, dt as f64, on_s)),
            projections: vec![
                Expr::column(1, DataType::Bigint),
                Expr::arith(
                    ArithOp::Add,
                    Expr::column(1, DataType::Bigint),
                    Expr::column(0, DataType::Bigint),
                ),
                Expr::column(3, DataType::Varchar),
            ],
            agg: None,
        };
        let out = Schema::of(&[
            ("v", DataType::Bigint),
            ("vk", DataType::Bigint),
            ("s", DataType::Varchar),
        ]);
        let (fused, reference) = run_both(&chunks, &chain, &out);
        prop_assert_eq!(fused, reference);
    }

    /// Global aggregation (the zero-group fast path): COUNT/SUM over
    /// bigints and NaN-bearing doubles match the discrete partial+final.
    #[test]
    fn fused_global_agg_matches_discrete(
        chunks in arb_chunks(),
        kt in -2i64..14,
        dt in -5i64..5,
    ) {
        let chain = Chain {
            filter: Some(filter_expr(kt, dt as f64, false)),
            projections: vec![
                Expr::column(1, DataType::Bigint),
                Expr::column(2, DataType::Double),
            ],
            agg: Some(FusedAggStage {
                group_channels: vec![],
                group_types: vec![],
                specs: vec![
                    AggSpec {
                        function: AggregateFunction::new(AggregateKind::Count, None).unwrap(),
                        input: None,
                    },
                    AggSpec {
                        function: AggregateFunction::new(
                            AggregateKind::Sum,
                            Some(DataType::Bigint),
                        )
                        .unwrap(),
                        input: Some(0),
                    },
                    AggSpec {
                        function: AggregateFunction::new(
                            AggregateKind::Sum,
                            Some(DataType::Double),
                        )
                        .unwrap(),
                        input: Some(1),
                    },
                ],
            }),
        };
        let out = Schema::of(&[
            ("count", DataType::Bigint),
            ("sum_v", DataType::Bigint),
            ("sum_d", DataType::Double),
        ]);
        let (fused, discrete) = run_both(&chunks, &chain, &out);
        prop_assert_eq!(fused, discrete);
    }

    /// Grouped partial aggregation (the pre-hashed group-by hand-off):
    /// nullable bigint × varchar group keys across all encodings.
    #[test]
    fn fused_grouped_agg_matches_discrete(
        chunks in arb_chunks(),
        kt in -2i64..14,
    ) {
        let chain = Chain {
            filter: Some(Expr::cmp(
                CmpOp::Lt,
                Expr::column(0, DataType::Bigint),
                Expr::literal(kt),
            )),
            projections: vec![
                Expr::column(0, DataType::Bigint),
                Expr::column(3, DataType::Varchar),
                Expr::column(1, DataType::Bigint),
            ],
            agg: Some(FusedAggStage {
                group_channels: vec![0, 1],
                group_types: vec![DataType::Bigint, DataType::Varchar],
                specs: vec![
                    AggSpec {
                        function: AggregateFunction::new(AggregateKind::Count, None).unwrap(),
                        input: None,
                    },
                    AggSpec {
                        function: AggregateFunction::new(
                            AggregateKind::Sum,
                            Some(DataType::Bigint),
                        )
                        .unwrap(),
                        input: Some(2),
                    },
                ],
            }),
        };
        let out = Schema::of(&[
            ("k", DataType::Bigint),
            ("s", DataType::Varchar),
            ("count", DataType::Bigint),
            ("sum_v", DataType::Bigint),
        ]);
        let (fused, discrete) = run_both(&chunks, &chain, &out);
        prop_assert_eq!(fused, discrete);
    }

    /// No filter at all (scan → project → agg): the selection vector is
    /// the identity and the gather must still preserve every encoding.
    #[test]
    fn fused_unfiltered_agg_matches_discrete(chunks in arb_chunks()) {
        let chain = Chain {
            filter: None,
            projections: vec![
                Expr::column(0, DataType::Bigint),
                Expr::column(1, DataType::Bigint),
            ],
            agg: Some(FusedAggStage {
                group_channels: vec![0],
                group_types: vec![DataType::Bigint],
                specs: vec![AggSpec {
                    function: AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint))
                        .unwrap(),
                    input: Some(1),
                }],
            }),
        };
        let out = Schema::of(&[("k", DataType::Bigint), ("sum_v", DataType::Bigint)]);
        let (fused, discrete) = run_both(&chunks, &chain, &out);
        prop_assert_eq!(fused, discrete);
    }

    /// Generic calls, lossy casts and double IN lists under a filter: the
    /// leaf matches the interpreter.
    #[test]
    fn fused_formerly_rejected_expressions_match_interpreter(
        chunks in arb_chunks(),
        kt in -2i64..14,
    ) {
        let chain = Chain {
            filter: Some(Expr::or(vec![
                d_in_list(),
                Expr::cmp(
                    CmpOp::Lt,
                    Expr::column(0, DataType::Bigint),
                    Expr::literal(kt),
                ),
            ])),
            projections: vec![upper_s(), d_as_varchar(), Expr::column(0, DataType::Bigint)],
            agg: None,
        };
        let out = Schema::of(&[
            ("upper_s", DataType::Varchar),
            ("d_str", DataType::Varchar),
            ("k", DataType::Bigint),
        ]);
        let (fused, reference) = run_both(&chunks, &chain, &out);
        prop_assert_eq!(fused, reference);
    }

    /// The same expressions as group keys of an absorbed partial
    /// aggregation match the discrete partial+final.
    #[test]
    fn fused_formerly_rejected_group_keys_match_discrete(
        chunks in arb_chunks(),
        filtered in any::<bool>(),
    ) {
        let chain = Chain {
            filter: filtered.then(d_in_list),
            projections: vec![upper_s(), d_as_varchar(), Expr::column(1, DataType::Bigint)],
            agg: Some(FusedAggStage {
                group_channels: vec![0, 1],
                group_types: vec![DataType::Varchar, DataType::Varchar],
                specs: vec![
                    AggSpec {
                        function: AggregateFunction::new(AggregateKind::Count, None).unwrap(),
                        input: None,
                    },
                    AggSpec {
                        function: AggregateFunction::new(
                            AggregateKind::Sum,
                            Some(DataType::Bigint),
                        )
                        .unwrap(),
                        input: Some(2),
                    },
                ],
            }),
        };
        let out = Schema::of(&[
            ("upper_s", DataType::Varchar),
            ("d_str", DataType::Varchar),
            ("count", DataType::Bigint),
            ("sum_v", DataType::Bigint),
        ]);
        let (fused, discrete) = run_both(&chunks, &chain, &out);
        prop_assert_eq!(fused, discrete);
    }
}
