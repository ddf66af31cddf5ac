#![allow(clippy::unwrap_used)]
//! Differential property tests for the spill framework (§IV-F2): join,
//! aggregation, and sort driven under a forced tiny memory budget — a
//! revocation after every input page, the grace partition limit at one
//! byte — must produce results identical to the unconstrained run. The
//! join also runs armed with no revocation (zero spilled partitions, the
//! path every join takes) and with revocations after a generated subset of
//! build pages, from one or three builders. Inputs cover NULL keys, NaN/∞
//! aggregates, dictionary- and RLE-encoded pages, and collision-heavy key
//! domains. Every run also asserts that no spill file outlives its manager.

use presto_common::{DataType, Schema, Value};
use presto_exec::agg::{AggPhase, AggSpec, HashAggregationOperator};
use presto_exec::join::{HashBuilderOperator, JoinBridge, LookupJoinOperator, ProbeJoinType};
use presto_exec::sort::SortOperator;
use presto_exec::{Operator, SpillManager};
use presto_expr::{AggregateFunction, AggregateKind};
use presto_page::blocks::DictionaryBlock;
use presto_page::{Block, Page};
use presto_planner::SortKey;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Bigint), ("v", DataType::Double)])
}

/// One generated row: nullable collision-heavy key, double value that may
/// be NaN or ±∞.
type Row = (Option<i64>, f64);

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => (-100i64..100).prop_map(|v| v as f64),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            // A 6-value key domain packs many duplicates into the same
            // hash buckets and radix partitions (collision-heavy).
            prop_oneof![5 => (0i64..6).prop_map(Some), 1 => Just(None)],
            arb_value(),
        ),
        0..max,
    )
}

/// Physical encoding of a generated page; the differential must hold
/// regardless of layout because both runs consume the same pages.
#[derive(Debug, Clone, Copy)]
enum Encoding {
    Flat,
    /// Key channel dictionary-encoded over the page's distinct keys.
    Dict,
    /// First row repeated as RLE runs on both channels.
    Rle,
}

fn arb_encoding() -> impl Strategy<Value = Encoding> {
    prop_oneof![
        3 => Just(Encoding::Flat),
        1 => Just(Encoding::Dict),
        1 => Just(Encoding::Rle),
    ]
}

fn page_of(rows: &[Row], encoding: Encoding) -> Page {
    let values: Vec<Vec<Value>> = rows
        .iter()
        .map(|(k, v)| {
            vec![
                k.map(Value::Bigint).unwrap_or(Value::Null),
                Value::Double(*v),
            ]
        })
        .collect();
    let flat = Page::from_rows(&schema(), &values);
    match encoding {
        Encoding::Flat => flat,
        Encoding::Dict => {
            let mut entries: Vec<Value> = Vec::new();
            let mut ids = Vec::with_capacity(rows.len());
            for (k, _) in rows {
                let v = k.map(Value::Bigint).unwrap_or(Value::Null);
                let id = entries.iter().position(|e| *e == v).unwrap_or_else(|| {
                    entries.push(v);
                    entries.len() - 1
                });
                ids.push(id as u32);
            }
            let dictionary = Arc::new(Block::from_values(DataType::Bigint, &entries));
            Page::new(vec![
                Block::Dictionary(DictionaryBlock::new(dictionary, ids)),
                flat.block(1).clone(),
            ])
        }
        Encoding::Rle => {
            let (k, v) = rows[0];
            let count = rows.len();
            Page::new(vec![
                Block::rle(
                    Block::single(
                        DataType::Bigint,
                        &k.map(Value::Bigint).unwrap_or(Value::Null),
                    ),
                    count,
                ),
                Block::rle(Block::single(DataType::Double, &Value::Double(v)), count),
            ])
        }
    }
}

/// RLE pages repeat their first row, so mirror that in the row model the
/// reference run consumes.
fn effective_rows(rows: &[Row], encoding: Encoding) -> Vec<Row> {
    match encoding {
        Encoding::Rle => vec![rows[0]; rows.len()],
        _ => rows.to_vec(),
    }
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "presto-prop-spill-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_dir_empty_and_remove(dir: &std::path::Path) {
    assert_eq!(
        std::fs::read_dir(dir).unwrap().count(),
        0,
        "spill files leaked in {}",
        dir.display()
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Render output rows in a NaN-safe comparable form (Value's NaN is not
/// equal to itself; the Debug text is).
fn render(pages: &[Page], types: &[DataType]) -> Vec<String> {
    let mut out = Vec::new();
    for p in pages {
        assert_eq!(p.column_count(), types.len());
        for i in 0..p.row_count() {
            let mut row = String::new();
            for (c, t) in types.iter().enumerate() {
                row.push_str(&format!("{:?}|", p.block(c).value_at(*t, i)));
            }
            out.push(row);
        }
    }
    out
}

fn drain(op: &mut dyn Operator, out: &mut Vec<Page>) {
    while let Some(p) = op.output().unwrap() {
        out.push(p);
    }
}

/// When a spill-armed join builder is asked to revoke.
#[derive(Debug, Clone)]
enum Revoke {
    /// Never: spill armed, zero spilled partitions.
    Never,
    /// After each build page the mask marks.
    After(Vec<bool>),
    /// After every build page.
    Every,
}

impl Revoke {
    fn after(&self, page: usize) -> bool {
        match self {
            Revoke::Never => false,
            Revoke::After(mask) => mask.get(page).copied().unwrap_or(false),
            Revoke::Every => true,
        }
    }
}

fn arb_revoke() -> impl Strategy<Value = Revoke> {
    prop_oneof![
        Just(Revoke::Never),
        proptest::collection::vec(any::<bool>(), 4..5).prop_map(Revoke::After),
        Just(Revoke::Every),
    ]
}

/// Run a hash join over the given build/probe pages, the build pages dealt
/// round-robin to `builders` builders. `spill` arms spill with the grace
/// partition limit at one byte and revokes on the builder that took a page
/// as it says; `None` is the unconstrained run.
fn join_run(
    build_pages: &[Page],
    probe_pages: &[Page],
    join_type: ProbeJoinType,
    spill: Option<&Revoke>,
    builders: usize,
) -> Vec<String> {
    let dir = scratch_dir();
    let manager = SpillManager::new(Some(dir.clone()), 0);
    let bridge = JoinBridge::new(vec![0], builders);
    if spill.is_some() {
        bridge.enable_spill(Arc::clone(&manager));
    }
    let mut ops: Vec<HashBuilderOperator> = (0..builders)
        .map(|_| HashBuilderOperator::new(Arc::clone(&bridge)))
        .collect();
    for (i, p) in build_pages.iter().enumerate() {
        let builder = &mut ops[i % builders];
        builder.add_input(p.clone()).unwrap();
        if spill.is_some_and(|revoke| revoke.after(i)) {
            builder.revoke_memory().unwrap();
        }
    }
    for builder in &mut ops {
        builder.finish();
    }
    let mut op = LookupJoinOperator::new(
        Arc::clone(&bridge),
        join_type,
        vec![0],
        schema(),
        schema(),
        None,
    );
    if spill.is_some() {
        op = op.with_grace_partition_limit(1);
    }
    let mut pages = Vec::new();
    for p in probe_pages {
        op.add_input(p.clone()).unwrap();
        drain(&mut op, &mut pages);
    }
    op.finish();
    drain(&mut op, &mut pages);
    assert!(op.is_finished());
    let mut rows = render(
        &pages,
        &[
            DataType::Bigint,
            DataType::Double,
            DataType::Bigint,
            DataType::Double,
        ],
    );
    rows.sort();
    drop(op);
    drop(ops);
    drop(bridge);
    drop(manager);
    assert_dir_empty_and_remove(&dir);
    rows
}

/// Run a single-phase SUM + COUNT aggregation; `spill` revokes (spills
/// the accumulated hash state) after every input page.
fn agg_run(pages: &[Page], spill: bool) -> Vec<String> {
    let dir = scratch_dir();
    let manager = SpillManager::new(Some(dir.clone()), 0);
    let sum = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Double)).unwrap();
    let count = AggregateFunction::new(AggregateKind::Count, None).unwrap();
    let mut op = HashAggregationOperator::new(
        AggPhase::Single,
        vec![0],
        vec![DataType::Bigint],
        vec![
            AggSpec {
                function: sum,
                input: Some(1),
            },
            AggSpec {
                function: count,
                input: None,
            },
        ],
        spill.then(|| Arc::clone(&manager)),
    );
    for p in pages {
        op.add_input(p.clone()).unwrap();
        if spill {
            op.revoke_memory().unwrap();
        }
    }
    op.finish();
    let mut pages_out = Vec::new();
    drain(&mut op, &mut pages_out);
    let mut rows = render(
        &pages_out,
        &[DataType::Bigint, DataType::Double, DataType::Bigint],
    );
    rows.sort();
    drop(op);
    drop(manager);
    assert_dir_empty_and_remove(&dir);
    rows
}

/// Run a sort (key asc NULLs last, value desc); `spill` revokes (spills
/// the sorted run) after every input page.
fn sort_run(pages: &[Page], spill: bool) -> Vec<String> {
    let dir = scratch_dir();
    let manager = SpillManager::new(Some(dir.clone()), 0);
    let keys = vec![
        SortKey {
            channel: 0,
            ascending: true,
            nulls_first: false,
        },
        SortKey {
            channel: 1,
            ascending: false,
            nulls_first: false,
        },
    ];
    let mut op = SortOperator::new(keys, spill.then(|| Arc::clone(&manager)));
    for p in pages {
        op.add_input(p.clone()).unwrap();
        if spill {
            op.revoke_memory().unwrap();
        }
    }
    op.finish();
    let mut pages_out = Vec::new();
    drain(&mut op, &mut pages_out);
    // Sorted output: order matters, no re-sort.
    let rows = render(&pages_out, &[DataType::Bigint, DataType::Double]);
    drop(op);
    drop(manager);
    assert_dir_empty_and_remove(&dir);
    rows
}

/// Generated page set: chunked rows with a physical encoding per chunk.
fn arb_pages(max_rows: usize) -> impl Strategy<Value = Vec<(Vec<Row>, Encoding)>> {
    proptest::collection::vec((arb_rows(max_rows), arb_encoding()), 0..4).prop_map(|chunks| {
        chunks
            .into_iter()
            .filter(|(rows, _)| !rows.is_empty())
            .collect()
    })
}

fn build_pages(chunks: &[(Vec<Row>, Encoding)]) -> Vec<Page> {
    chunks
        .iter()
        .map(|(rows, enc)| page_of(&effective_rows(rows, *enc), Encoding::Flat))
        .collect()
}

fn encoded_pages(chunks: &[(Vec<Row>, Encoding)]) -> Vec<Page> {
    chunks
        .iter()
        .map(|(rows, enc)| page_of(rows, *enc))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash join armed for spill — revoking never, after some build
    /// pages, or after every one, from one or three builders — ≡ the
    /// unconstrained hash join, for inner and left joins, across
    /// encodings, NULL keys, and NaN payloads.
    #[test]
    fn join_spill_differential(
        build in arb_pages(25),
        probe in arb_pages(25),
        left in any::<bool>(),
        revoke in arb_revoke(),
        builders in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let join_type = if left { ProbeJoinType::Left } else { ProbeJoinType::Inner };
        // Encoded pages probe-side exercise the dict/RLE fast paths; the
        // build side uses the same logical rows flattened so both runs
        // observe identical inputs.
        let b = build_pages(&build);
        let p = encoded_pages(&probe);
        let spilled = join_run(&b, &p, join_type, Some(&revoke), builders);
        let plain = join_run(&b, &p, join_type, None, 1);
        prop_assert_eq!(spilled, plain);
    }

    /// Aggregation under forced spill ≡ unconstrained aggregation,
    /// including NaN/∞ sums and NULL group keys.
    #[test]
    fn agg_spill_differential(input in arb_pages(40)) {
        let pages = encoded_pages(&input);
        let spilled = agg_run(&pages, true);
        let plain = agg_run(&pages, false);
        prop_assert_eq!(spilled, plain);
    }

    /// External (spilling) sort ≡ in-memory sort, byte for byte, in
    /// output order.
    #[test]
    fn sort_spill_differential(input in arb_pages(40)) {
        let pages = encoded_pages(&input);
        let spilled = sort_run(&pages, true);
        let plain = sort_run(&pages, false);
        prop_assert_eq!(spilled, plain);
    }
}

proptest! {
    /// Spill runs hold the shuffle's frames: pages of every encoding, small
    /// and many times larger, read back identical, and consuming the run
    /// deletes its file.
    #[test]
    fn spill_run_round_trips_framed_pages(input in arb_pages(400), copies in 2usize..32) {
        let dir = scratch_dir();
        let manager = SpillManager::new(Some(dir.clone()), 0);
        let mut pages = encoded_pages(&input);
        // Repeating a page makes one frame many times the others' length.
        if let Some(first) = pages.first().cloned() {
            pages.push(Page::concat(&vec![first; copies]));
        }
        let mut run = manager.create_run("round-trip");
        for page in &pages {
            run.append(page).unwrap();
        }
        let types = [DataType::Bigint, DataType::Double];
        let back = run.into_pages().unwrap();
        prop_assert_eq!(render(&back, &types), render(&pages, &types));
        prop_assert_eq!(manager.live_files(), 0);
        drop(manager);
        assert_dir_empty_and_remove(&dir);
    }
}

/// Chaos: a spill write that fails mid-revocation surfaces a retryable
/// (transient) error, not a wrong answer or a panic.
#[test]
fn spill_write_failure_is_retryable() {
    use presto_common::chaos::{Effect, FaultPlane, Site, Trigger};
    use presto_common::Session;
    let dir = scratch_dir();
    let plane = FaultPlane::new(0).rule(Site::SpillWrite, Trigger::Every(1), Effect::Transient);
    let session = Session {
        spill_dir: Some(dir.clone()),
        ..Session::default()
    };
    let manager = SpillManager::for_session(&session, Some(Arc::new(plane)), Arc::default());
    let sum = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Double)).unwrap();
    let mut op = HashAggregationOperator::new(
        AggPhase::Single,
        vec![0],
        vec![DataType::Bigint],
        vec![AggSpec {
            function: sum,
            input: Some(1),
        }],
        Some(Arc::clone(&manager)),
    );
    let rows: Vec<Row> = (0..64).map(|i| (Some(i % 7), i as f64)).collect();
    op.add_input(page_of(&rows, Encoding::Flat)).unwrap();
    let err = op.revoke_memory().unwrap_err();
    assert!(
        err.is_retryable(),
        "spill write fault must be retryable: {err}"
    );
    drop(op);
    drop(manager);
    assert_dir_empty_and_remove(&dir);
}

/// Every spilling operator counts one spill event per run append — the
/// manager's own definition — so operator totals sum to the manager's: a
/// join that revokes mid-build and then takes rows for a spilled
/// partition, an aggregation whose one revocation writes several pages,
/// and a sort, all spilling through one manager.
#[test]
fn operator_spill_counters_sum_to_the_manager() {
    let dir = scratch_dir();
    let manager = SpillManager::new(Some(dir.clone()), 0);
    let rows: Vec<Row> = (0..20_000).map(|k| (Some(k), k as f64)).collect();
    let mut ops: Vec<Box<dyn Operator>> = Vec::new();

    let bridge = JoinBridge::new(vec![0], 1);
    bridge.enable_spill(Arc::clone(&manager));
    let mut builder = HashBuilderOperator::new(Arc::clone(&bridge));
    let page = |keys: std::ops::Range<usize>| page_of(&rows[keys], Encoding::Flat);
    builder.add_input(page(0..400)).unwrap();
    assert!(builder.revoke_memory().unwrap() > 0);
    builder.add_input(page(400..800)).unwrap();
    builder.finish();
    assert!(bridge.table().unwrap().has_spill());
    let mut probe = LookupJoinOperator::new(
        Arc::clone(&bridge),
        ProbeJoinType::Inner,
        vec![0],
        schema(),
        schema(),
        None,
    );
    probe.add_input(page(0..800)).unwrap();
    probe.finish();
    let mut joined = Vec::new();
    drain(&mut probe, &mut joined);
    assert_eq!(joined.iter().map(Page::row_count).sum::<usize>(), 800);
    ops.push(Box::new(builder));
    ops.push(Box::new(probe));

    let sum = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Double)).unwrap();
    let mut agg = HashAggregationOperator::new(
        AggPhase::Single,
        vec![0],
        vec![DataType::Bigint],
        vec![AggSpec {
            function: sum,
            input: Some(1),
        }],
        Some(Arc::clone(&manager)),
    );
    // More groups than one output page holds: the revocation writes
    // several pages.
    agg.add_input(page(0..20_000)).unwrap();
    let before = manager.spill_events();
    agg.revoke_memory().unwrap();
    let events = manager.spill_events() - before;
    assert!(events > 1, "one revocation, several pages");
    ops.push(Box::new(agg));

    let keys = vec![SortKey {
        channel: 0,
        ascending: true,
        nulls_first: false,
    }];
    let mut sort = SortOperator::new(keys, Some(Arc::clone(&manager)));
    sort.add_input(page(0..100)).unwrap();
    sort.revoke_memory().unwrap();
    ops.push(Box::new(sort));

    let total = |name: &str| -> u64 {
        ops.iter()
            .flat_map(|op| op.counters())
            .filter(|&(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    };
    assert_eq!(total("spill_events"), manager.spill_events());
    assert_eq!(total("spilled_bytes"), manager.spilled_bytes());
    drop(ops);
    drop(bridge);
    drop(manager);
    assert_dir_empty_and_remove(&dir);
}
