use super::*;
use crate::operator::{BlockedReason, Operator};
use crate::spill::SpillManager;
use presto_common::wake::Waker;
use presto_common::{DataType, Schema, Value};
use presto_expr::Expr;
use presto_page::hash::combine_hashes;
use presto_page::{Block, Page};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn kv_page(rows: &[(i64, &str)]) -> Page {
    let schema = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
    Page::from_rows(
        &schema,
        &rows
            .iter()
            .map(|&(k, s)| vec![Value::Bigint(k), Value::varchar(s)])
            .collect::<Vec<_>>(),
    )
}

fn build_table(rows: &[(i64, &str)]) -> Arc<JoinBridge> {
    let bridge = JoinBridge::new(vec![0], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(kv_page(rows)).unwrap();
    b.finish();
    bridge
}

fn schema() -> Schema {
    Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)])
}

fn drain_rows(op: &mut LookupJoinOperator) -> Vec<(i64, String, i64, String)> {
    let mut out = Vec::new();
    while let Some(p) = op.output().unwrap() {
        for i in 0..p.row_count() {
            out.push((
                p.block(0).i64_at(i),
                p.block(1).str_at(i).to_string(),
                if p.block(2).is_null(i) {
                    -1
                } else {
                    p.block(2).i64_at(i)
                },
                if p.block(3).is_null(i) {
                    "-".into()
                } else {
                    p.block(3).str_at(i).to_string()
                },
            ));
        }
    }
    out.sort();
    out
}

#[test]
fn inner_join_matches_keys() {
    let bridge = build_table(&[(1, "a"), (2, "b"), (2, "b2")]);
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0],
        schema(),
        schema(),
        None,
    );
    probe.add_input(kv_page(&[(2, "x"), (3, "y")])).unwrap();
    let rows = drain_rows(&mut probe);
    // key 2 matches both build rows; key 3 matches none.
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.0 == 2 && r.2 == 2));
    probe.finish();
    assert!(probe.is_finished());
}

#[test]
fn left_join_pads_unmatched() {
    let bridge = build_table(&[(1, "a")]);
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Left,
        vec![0],
        schema(),
        schema(),
        None,
    );
    probe.add_input(kv_page(&[(1, "x"), (9, "z")])).unwrap();
    let rows = drain_rows(&mut probe);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], (1, "x".into(), 1, "a".into()));
    assert_eq!(rows[1], (9, "z".into(), -1, "-".into()));
}

#[test]
fn null_keys_never_match_but_survive_left_join() {
    let bridge = build_table(&[(1, "a")]);
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Left,
        vec![0],
        schema(),
        schema(),
        None,
    );
    let schema2 = schema();
    let p = Page::from_rows(
        &schema2,
        &[
            vec![Value::Null, Value::varchar("n")],
            vec![Value::Bigint(1), Value::varchar("m")],
        ],
    );
    probe.add_input(p).unwrap();
    let rows = drain_rows(&mut probe);
    assert_eq!(rows.len(), 2);
    // NULL key row survives null-padded.
    assert!(rows.iter().any(|r| r.1 == "n" && r.2 == -1));
}

#[test]
fn null_build_keys_never_match() {
    let bridge = JoinBridge::new(vec![0], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    let s = schema();
    b.add_input(Page::from_rows(
        &s,
        &[
            vec![Value::Null, Value::varchar("null-build")],
            vec![Value::Bigint(7), Value::varchar("seven")],
        ],
    ))
    .unwrap();
    b.finish();
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0],
        schema(),
        schema(),
        None,
    );
    // A NULL probe key must not meet the NULL build key.
    let p = Page::from_rows(
        &s,
        &[
            vec![Value::Null, Value::varchar("null-probe")],
            vec![Value::Bigint(7), Value::varchar("x")],
        ],
    );
    probe.add_input(p).unwrap();
    let rows = drain_rows(&mut probe);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].3, "seven");
}

#[test]
fn residual_filter_applies_to_pairs() {
    let bridge = build_table(&[(1, "keep"), (1, "drop")]);
    // filter: build.s = 'keep' (channel 3 of the combined schema)
    let filter = Expr::cmp(
        presto_expr::CmpOp::Eq,
        Expr::column(3, DataType::Varchar),
        Expr::literal("keep"),
    );
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0],
        schema(),
        schema(),
        Some(&filter),
    );
    probe.add_input(kv_page(&[(1, "x")])).unwrap();
    let rows = drain_rows(&mut probe);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].3, "keep");
}

#[test]
fn probe_blocks_until_build_done() {
    let bridge = JoinBridge::new(vec![0], 1);
    let probe = LookupJoinOperator::new(
        Arc::clone(&bridge),
        ProbeJoinType::Inner,
        vec![0],
        schema(),
        schema(),
        None,
    );
    assert_eq!(probe.blocked(), Some(BlockedReason::WaitingForBuild));
    assert!(!probe.needs_input());
    let mut b = HashBuilderOperator::new(bridge);
    b.finish();
    assert!(probe.blocked().is_none());
    assert!(probe.needs_input());
}

#[test]
fn cross_join_produces_product() {
    let bridge = JoinBridge::new(vec![], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(kv_page(&[(10, "a"), (20, "b")])).unwrap();
    b.finish();
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Cross,
        vec![],
        schema(),
        schema(),
        None,
    );
    probe
        .add_input(kv_page(&[(1, "x"), (2, "y"), (3, "z")]))
        .unwrap();
    let rows = drain_rows(&mut probe);
    assert_eq!(rows.len(), 6);
}

#[test]
fn multiple_builders_merge() {
    let bridge = JoinBridge::new(vec![0], 2);
    let mut b1 = HashBuilderOperator::new(Arc::clone(&bridge));
    let mut b2 = HashBuilderOperator::new(Arc::clone(&bridge));
    b1.add_input(kv_page(&[(1, "a")])).unwrap();
    b2.add_input(kv_page(&[(2, "b")])).unwrap();
    b1.finish();
    assert!(bridge.table().is_none(), "waits for all builders");
    assert!(!b1.is_finished(), "builder waits for the table");
    assert_eq!(b1.blocked(), Some(BlockedReason::WaitingForBuild));
    b2.finish();
    assert_eq!(bridge.table().unwrap().row_count(), 2);
    assert!(b1.is_finished() && b2.is_finished());
}

#[test]
fn finalize_runs_off_the_bridge_lock() {
    // builder_finished() must only queue work: the table appears only
    // after claim_and_build_one() calls, and table() polls in between
    // return instantly with None instead of blocking on a finalize
    // critical section.
    let bridge = JoinBridge::new(vec![0], 1);
    let rows: Vec<(i64, String)> = (0..100).map(|i| (i, format!("v{i}"))).collect();
    let borrowed: Vec<(i64, &str)> = rows.iter().map(|(k, s)| (*k, s.as_str())).collect();
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(kv_page(&borrowed)).unwrap();
    // A finished builder parked on the bridge is called back when the
    // work queue appears — to help build — and a probe when the table
    // publishes.
    let bell = presto_common::wake::Bell::new();
    let helper = Waker::new(&bell);
    bridge.on_progress(&helper);
    // Go through the bridge directly so no operator drains the queue.
    b.flush_buffers().unwrap();
    bridge.builder_finished_with(None);
    assert!(helper.is_woken(), "finalize work is an event");
    assert!(bridge.table().is_none(), "nothing built under the lock");
    let probe = Waker::new(&bell);
    bridge.on_progress(&probe);
    let mut built = 0;
    while bridge.claim_and_build_one() {
        built += 1;
        if bridge.table().is_none() {
            // Poll mid-finalize: must not deadlock or publish early.
            assert!(built < 64 + 1);
            assert!(!probe.is_woken(), "not before the table exists");
        }
    }
    assert!(built >= 8, "keyed builds use multiple partitions");
    assert_eq!(bridge.table().unwrap().row_count(), 100);
    assert!(probe.is_woken(), "publication is an event");
}

#[test]
fn parallel_finalize_uses_multiple_threads() {
    // Two threads each claim at least one partition: the partition work
    // queue serves claimants concurrently (> 1 thread finalize).
    let bridge = JoinBridge::new(vec![0], 2);
    let rows: Vec<(i64, String)> = (0..256).map(|i| (i, format!("v{i}"))).collect();
    let borrowed: Vec<(i64, &str)> = rows.iter().map(|(k, s)| (*k, s.as_str())).collect();
    let mut b1 = HashBuilderOperator::new(Arc::clone(&bridge));
    let mut b2 = HashBuilderOperator::new(Arc::clone(&bridge));
    b1.add_input(kv_page(&borrowed[..128])).unwrap();
    b2.add_input(kv_page(&borrowed[128..])).unwrap();
    // Finish via the bridge so the operators don't drain the queue
    // single-threadedly first.
    b1.flush_buffers().unwrap();
    b2.flush_buffers().unwrap();
    bridge.builder_finished_with(None);
    bridge.builder_finished_with(None);
    let barrier = std::sync::Barrier::new(2);
    let claims: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let bridge = Arc::clone(&bridge);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    bridge.claim_and_build_one()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        claims.iter().all(|&c| c),
        "both threads claimed a partition: {claims:?}"
    );
    // Drain the rest and verify the table.
    while bridge.claim_and_build_one() {}
    assert_eq!(bridge.table().unwrap().row_count(), 256);
    drop((b1, b2));
}

/// A build page whose every row reaches one partition: an RLE key and a
/// dictionary payload, `rows` rows of key 5 over payloads `p0`, `p1`, `p2`.
fn rle_dictionary_page(rows: usize) -> Page {
    use presto_page::blocks::{DictionaryBlock, VarcharBlock};
    let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["p0", "p1", "p2"])));
    let ids = (0..rows as u32).map(|i| i % 3).collect();
    Page::new(vec![
        Block::rle(Block::single(DataType::Bigint, &Value::Bigint(5)), rows),
        Block::Dictionary(DictionaryBlock::new(dict, ids)),
    ])
}

#[test]
fn exact_memory_accounting_from_flat_layout() {
    let rows: Vec<(i64, String)> = (0..1000).map(|i| (i % 100, format!("s{i}"))).collect();
    let borrowed: Vec<(i64, &str)> = rows.iter().map(|(k, s)| (*k, s.as_str())).collect();
    let bridge = build_table(&borrowed);
    assert_exact_accounting(&bridge, 1000);
    // A page that one partition takes whole is charged as decoded: the
    // table holds, and counts, its flat form.
    let bridge = JoinBridge::new(vec![0], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    let page = rle_dictionary_page(1000);
    let decoded = page.clone().into_flat().size_in_bytes();
    assert!(decoded > page.size_in_bytes());
    b.add_input(page).unwrap();
    b.finish();
    let table = bridge.table().unwrap();
    let page_bytes: usize = table.pages().iter().map(Page::size_in_bytes).sum();
    assert_eq!(page_bytes, decoded);
    assert_exact_accounting(&bridge, 1000);
}

fn assert_exact_accounting(bridge: &JoinBridge, rows: usize) {
    let table = bridge.table().unwrap();
    // memory_bytes is the exact sum of page bytes and the per-partition
    // flat layouts — no estimate constants.
    let page_bytes: usize = table.pages().iter().map(Page::size_in_bytes).sum();
    let layout: usize = table
        .partitions
        .iter()
        .filter_map(|p| p.resident())
        .map(|table| table.memory_bytes())
        .sum();
    assert_eq!(table.memory_bytes(), page_bytes + layout);
    assert_eq!(table.hash_layout_bytes(), layout);
    // The bridge reports the table's exact size once built.
    assert_eq!(bridge.build_bytes(), table.memory_bytes());
    // Every row is addressable.
    assert_eq!(table.iter_rows().count(), rows);
    // Every build column is flat.
    let blocks = table.pages().iter().flat_map(Page::blocks);
    assert!(blocks
        .into_iter()
        .all(|b| !matches!(b, Block::Rle(_) | Block::Dictionary(_) | Block::Lazy(_))));
}

#[test]
fn single_partition_rle_dictionary_build_joins() {
    let bridge = JoinBridge::new(vec![0], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(rle_dictionary_page(6)).unwrap();
    b.finish();
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Left,
        vec![0],
        schema(),
        schema(),
        None,
    );
    probe.add_input(kv_page(&[(5, "x"), (6, "y")])).unwrap();
    let rows = drain_rows(&mut probe);
    let payloads: Vec<&str> = rows.iter().map(|r| r.3.as_str()).collect();
    assert_eq!(payloads, ["p0", "p0", "p1", "p1", "p2", "p2", "-"]);
    assert!(rows[..6].iter().all(|r| (r.0, r.2) == (5, 5)));
    assert_eq!((rows[6].0, rows[6].2), (6, -1));
}

/// Join `probe` against `build` (both of `schema`) on the `keys` columns
/// of each; the output rows, sorted.
fn join_values(
    schema: &Schema,
    keys: &[usize],
    build: &[Vec<Value>],
    probe: &[Vec<Value>],
    join_type: ProbeJoinType,
) -> Vec<Vec<Value>> {
    let bridge = JoinBridge::new(keys.to_vec(), 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(Page::from_rows(schema, build)).unwrap();
    b.finish();
    let mut op = LookupJoinOperator::new(
        bridge,
        join_type,
        keys.to_vec(),
        schema.clone(),
        schema.clone(),
        None,
    );
    op.add_input(Page::from_rows(schema, probe)).unwrap();
    op.finish();
    let fields = schema.fields().iter().chain(schema.fields());
    let output = Schema::new(fields.cloned().collect());
    let mut rows = Vec::new();
    while let Some(page) = op.output().unwrap() {
        rows.extend(page.to_rows(&output));
    }
    rows.sort();
    rows
}

#[test]
fn double_keys_join_by_sql_equality() {
    let schema = Schema::of(&[("k", DataType::Double), ("s", DataType::Varchar)]);
    let row = |k: Value, s: &str| vec![k, Value::varchar(s)];
    let build = [
        row(Value::Double(0.0), "zero"),
        row(Value::Double(f64::NAN), "nan"),
        row(Value::Null, "null"),
        row(Value::Double(1.5), "x"),
    ];
    let probe = [
        row(Value::Double(-0.0), "p0"),
        row(Value::Double(f64::NAN), "pnan"),
        row(Value::Null, "pnull"),
        row(Value::Double(2.0), "none"),
    ];
    // -0.0 = 0.0; NaN and NULL equal nothing, themselves included.
    let matched = [
        Value::Double(-0.0),
        Value::varchar("p0"),
        Value::Double(0.0),
        Value::varchar("zero"),
    ];
    let inner = join_values(&schema, &[0], &build, &probe, ProbeJoinType::Inner);
    assert_eq!(inner, vec![matched.to_vec()]);
    let left = join_values(&schema, &[0], &build, &probe, ProbeJoinType::Left);
    let padded = |k: Value, s: &str| vec![k, Value::varchar(s), Value::Null, Value::Null];
    let mut expected = vec![
        matched.to_vec(),
        padded(Value::Double(f64::NAN), "pnan"),
        padded(Value::Null, "pnull"),
        padded(Value::Double(2.0), "none"),
    ];
    expected.sort();
    assert_eq!(left, expected);
}

#[test]
fn varchar_keys_join_by_bytes_including_empty() {
    let schema = Schema::of(&[("k", DataType::Varchar), ("v", DataType::Bigint)]);
    let row =
        |k: Option<&str>, v: i64| vec![k.map_or(Value::Null, Value::varchar), Value::Bigint(v)];
    let build = [
        row(Some(""), 1),
        row(Some("a"), 2),
        row(None, 3),
        row(Some("ab"), 4),
    ];
    let probe = [
        row(Some(""), 10),
        row(Some("a"), 20),
        row(None, 30),
        row(Some("b"), 40),
    ];
    let inner = join_values(&schema, &[0], &build, &probe, ProbeJoinType::Inner);
    let joined = |k: &str, p: i64, b: i64| {
        vec![
            Value::varchar(k),
            Value::Bigint(p),
            Value::varchar(k),
            Value::Bigint(b),
        ]
    };
    assert_eq!(inner, vec![joined("", 10, 1), joined("a", 20, 2)]);
    let left = join_values(&schema, &[0], &build, &probe, ProbeJoinType::Left);
    assert_eq!(
        left.len(),
        4,
        "the NULL and 'b' probe rows are padded: {left:?}"
    );
    assert!(left.contains(&vec![
        Value::Null,
        Value::Bigint(30),
        Value::Null,
        Value::Null
    ]));
}

#[test]
fn two_key_join_mixes_bigint_and_varchar() {
    let schema = Schema::of(&[
        ("k", DataType::Bigint),
        ("s", DataType::Varchar),
        ("v", DataType::Double),
    ]);
    let row = |k: i64, s: &str, v: f64| vec![Value::Bigint(k), Value::varchar(s), Value::Double(v)];
    let build = [
        row(1, "a", 0.5),
        row(1, "b", 1.5),
        row(2, "a", 2.5),
        row(1, "a", 3.5),
    ];
    let probe = [
        row(1, "a", 10.0),
        row(1, "b", 20.0),
        row(2, "b", 30.0),
        row(3, "a", 40.0),
    ];
    let inner = join_values(&schema, &[0, 1], &build, &probe, ProbeJoinType::Inner);
    let pairs: Vec<(f64, f64)> = inner
        .iter()
        .map(|r| (r[2].as_f64().unwrap(), r[5].as_f64().unwrap()))
        .collect();
    assert_eq!(pairs, [(10.0, 0.5), (10.0, 3.5), (20.0, 1.5)]);
    assert!(inner.iter().all(|r| r[0] == r[3] && r[1] == r[4]));
}

#[test]
fn dictionary_probe_caches_entry_matches() {
    use presto_page::blocks::{DictionaryBlock, VarcharBlock};
    let bridge = JoinBridge::new(vec![0], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    let s = Schema::of(&[("k", DataType::Varchar), ("v", DataType::Bigint)]);
    b.add_input(Page::from_rows(
        &s,
        &[
            vec![Value::varchar("a"), Value::Bigint(1)],
            vec![Value::varchar("b"), Value::Bigint(2)],
        ],
    ))
    .unwrap();
    b.finish();
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0],
        Schema::of(&[("k", DataType::Varchar)]),
        s,
        None,
    );
    let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["a", "b", "zz"])));
    // 6 rows over 3 entries; repeats hit the cache.
    let p1 = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
        Arc::clone(&dict),
        vec![0, 1, 2, 0, 1, 2],
    ))]);
    probe.add_input(p1).unwrap();
    let out = probe.output().unwrap().unwrap();
    assert_eq!(out.row_count(), 4, "a and b match twice each");
    assert_eq!(probe.dict_probe_hits(), 3);
    // Second page sharing the dictionary: all rows served by the cache.
    let p2 = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
        Arc::clone(&dict),
        vec![1, 1, 0],
    ))]);
    probe.add_input(p2).unwrap();
    assert_eq!(probe.output().unwrap().unwrap().row_count(), 3);
    assert_eq!(probe.dict_probe_hits(), 6);
}

#[test]
fn rle_probe_resolves_once_per_page() {
    let bridge = build_table(&[(5, "five"), (6, "six")]);
    let mut probe = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0],
        Schema::of(&[("k", DataType::Bigint)]),
        schema(),
        None,
    );
    let rle = Page::new(vec![Block::rle(
        Block::single(DataType::Bigint, &Value::Bigint(5)),
        4,
    )]);
    probe.add_input(rle).unwrap();
    let out = probe.output().unwrap().unwrap();
    assert_eq!(out.row_count(), 4);
    assert!((0..4).all(|i| out.block(2).str_at(i) == "five"));
    assert_eq!(probe.rle_probe_rows(), 4);
    // An RLE run of NULLs matches nothing.
    let null_rle = Page::new(vec![Block::rle(
        Block::single(DataType::Bigint, &Value::Null),
        3,
    )]);
    probe.add_input(null_rle).unwrap();
    assert!(probe.output().unwrap().is_none());
}

#[test]
fn build_publishes_dynamic_filter() {
    use crate::dynfilter::{DynamicFilterRegistry, DynamicFilterSource};
    let registry = DynamicFilterRegistry::new();
    let join = presto_common::PlanNodeId(42);
    let bridge = JoinBridge::new(vec![0], 1);
    bridge.enable_dynamic_filter(DynamicFilterSource {
        join,
        registry: Arc::clone(&registry),
        key_types: vec![DataType::Bigint],
        max_values: 100,
    });
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    let s = schema();
    // A NULL key must not widen the published domain.
    b.add_input(Page::from_rows(
        &s,
        &[
            vec![Value::Bigint(5), Value::varchar("a")],
            vec![Value::Null, Value::varchar("n")],
            vec![Value::Bigint(9), Value::varchar("b")],
        ],
    ))
    .unwrap();
    b.finish();
    let f = registry.completed(join).unwrap();
    assert_eq!(f.rows, 2, "null-key rows are not collected");
    match &f.domains[0] {
        Some(presto_connector::Domain::Set(v)) => {
            assert_eq!(v, &vec![Value::Bigint(5), Value::Bigint(9)]);
        }
        other => panic!("expected set, got {other:?}"),
    }
    // The table itself still builds normally.
    assert_eq!(bridge.table().unwrap().row_count(), 2);
}

/// Invert the splitmix64 finalizer used by `presto_page::hash` so the
/// test can manufacture genuine 64-bit hash collisions.
fn inv_mix(mut h: u64) -> u64 {
    fn unshift(mut v: u64, s: u32) -> u64 {
        // Invert v ^= v >> s by reapplying until all bits recovered.
        let mut r = v;
        while v > 0 {
            v >>= s;
            r ^= v;
        }
        r
    }
    fn mul_inverse(a: u64) -> u64 {
        // Newton iteration: works for any odd multiplier mod 2^64.
        let mut x = a;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        }
        x
    }
    h = unshift(h, 31);
    h = h.wrapping_mul(mul_inverse(0x94D0_49BB_1331_11EB));
    h = unshift(h, 27);
    h = h.wrapping_mul(mul_inverse(0xBF58_476D_1CE4_E5B9));
    unshift(h, 30)
}

/// Two distinct (a, b) bigint key pairs with identical row hashes.
fn collision_pair() -> ((i64, i64), (i64, i64)) {
    use presto_page::hash::hash_i64;
    let (a1, a2) = (0i64, 1i64);
    let (b1, _) = (42i64, ());
    // Row hash is mix(mix(hash(a)) * SEED ^ hash(b)); solve for b2 so
    // the pre-mix values collide.
    const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
    let c1 = combine_hashes(0, hash_i64(a1)).wrapping_mul(SEED);
    let c2 = combine_hashes(0, hash_i64(a2)).wrapping_mul(SEED);
    let b2 = inv_mix(hash_i64(b1) ^ c1 ^ c2) as i64;
    ((a1, b1), (a2, b2))
}

#[test]
fn hash_collisions_do_not_cross_join() {
    use presto_page::hash::hash_columns;
    let ((a1, b1), (a2, b2)) = collision_pair();
    assert_ne!((a1, b1), (a2, b2));
    let s = Schema::of(&[("a", DataType::Bigint), ("b", DataType::Bigint)]);
    let build = Page::from_rows(&s, &[vec![Value::Bigint(a1), Value::Bigint(b1)]]);
    let probe_page = Page::from_rows(&s, &[vec![Value::Bigint(a2), Value::Bigint(b2)]]);
    // Verify this really is a full 64-bit collision.
    assert_eq!(
        hash_columns(&build, &[0, 1])[0],
        hash_columns(&probe_page, &[0, 1])[0],
        "constructed keys collide"
    );
    let bridge = JoinBridge::new(vec![0, 1], 1);
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(build).unwrap();
    b.finish();
    let mut probe = LookupJoinOperator::new(
        Arc::clone(&bridge),
        ProbeJoinType::Inner,
        vec![0, 1],
        s.clone(),
        s.clone(),
        None,
    );
    probe.add_input(probe_page).unwrap();
    assert!(
        probe.output().unwrap().is_none(),
        "colliding but unequal keys must not join"
    );
    // The equal key still joins.
    let mut probe2 = LookupJoinOperator::new(
        bridge,
        ProbeJoinType::Inner,
        vec![0, 1],
        s.clone(),
        s.clone(),
        None,
    );
    probe2
        .add_input(Page::from_rows(
            &s,
            &[vec![Value::Bigint(a1), Value::Bigint(b1)]],
        ))
        .unwrap();
    assert_eq!(probe2.output().unwrap().unwrap().row_count(), 1);
}

/// A spill-armed bridge + probe joined over `build`/`probe` rows with a
/// forced revocation after `revoke_after` build pages; returns the
/// drained rows plus the total memory freed by revocations.
fn grace_run(
    build: &[Vec<(i64, &str)>],
    probe_pages: &[Vec<(i64, &str)>],
    join_type: ProbeJoinType,
    revoke: bool,
) -> (Vec<(i64, String, i64, String)>, u64) {
    let dir = std::env::temp_dir().join(format!(
        "presto-grace-test-{}-{}",
        std::process::id(),
        NEXT_TEST_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let manager = SpillManager::new(Some(dir.clone()), 0);
    let bridge = JoinBridge::new(vec![0], 1);
    if revoke {
        bridge.enable_spill(Arc::clone(&manager));
    }
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    let mut freed_total = 0;
    for rows in build {
        b.add_input(kv_page(rows)).unwrap();
        if revoke {
            assert!(b.can_revoke_memory());
            let freed = b.revoke_memory().unwrap();
            assert!(freed > 0, "revocation frees build memory");
            freed_total += freed;
        }
    }
    b.finish();
    let mut op = LookupJoinOperator::new(
        Arc::clone(&bridge),
        join_type,
        vec![0],
        schema(),
        schema(),
        None,
    )
    .with_grace_partition_limit(1); // force recursion on every pair
    let mut rows = Vec::new();
    let drain = |op: &mut LookupJoinOperator, out: &mut Vec<_>| {
        while let Some(p) = op.output().unwrap() {
            for i in 0..p.row_count() {
                out.push((
                    p.block(0).i64_at(i),
                    p.block(1).str_at(i).to_string(),
                    if p.block(2).is_null(i) {
                        -1
                    } else {
                        p.block(2).i64_at(i)
                    },
                    if p.block(3).is_null(i) {
                        "-".into()
                    } else {
                        p.block(3).str_at(i).to_string()
                    },
                ));
            }
        }
    };
    for page_rows in probe_pages {
        op.add_input(kv_page(page_rows)).unwrap();
        drain(&mut op, &mut rows);
    }
    op.finish();
    drain(&mut op, &mut rows);
    rows.sort();
    assert!(op.is_finished());
    // Every holder of a run drops: the builder, the probe and the bridge.
    drop(b);
    drop(op);
    drop(bridge);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "no spill files leaked"
    );
    std::fs::remove_dir_all(&dir).ok();
    (rows, freed_total)
}

static NEXT_TEST_DIR: AtomicUsize = AtomicUsize::new(0);

#[test]
fn grace_join_matches_in_memory_inner_and_left() {
    // Enough distinct keys to populate many radix partitions; probe
    // includes matching, non-matching, and repeated keys.
    let build: Vec<Vec<(i64, String)>> = (0..4)
        .map(|c| {
            (0..200)
                .map(|i| (c * 200 + i, format!("b{c}_{i}")))
                .collect()
        })
        .collect();
    let probe: Vec<Vec<(i64, String)>> = (0..3)
        .map(|c| {
            (0..150)
                .map(|i| (c * 137 + i * 7 % 900, format!("p{c}_{i}")))
                .collect()
        })
        .collect();
    let build_ref: Vec<Vec<(i64, &str)>> = build
        .iter()
        .map(|v| v.iter().map(|(k, s)| (*k, s.as_str())).collect())
        .collect();
    let probe_ref: Vec<Vec<(i64, &str)>> = probe
        .iter()
        .map(|v| v.iter().map(|(k, s)| (*k, s.as_str())).collect())
        .collect();
    for join_type in [ProbeJoinType::Inner, ProbeJoinType::Left] {
        let (spilled, freed) = grace_run(&build_ref, &probe_ref, join_type, true);
        let (plain, _) = grace_run(&build_ref, &probe_ref, join_type, false);
        assert!(freed > 0);
        assert_eq!(spilled, plain, "{join_type:?} grace join identical");
    }
}

#[test]
fn grace_join_hash_collisions_do_not_cross_join() {
    let ((a1, b1), (a2, b2)) = collision_pair();
    // Single-column collision is impossible to manufacture here, so use
    // the two-key collision with both channels as keys and spill.
    let s = Schema::of(&[("a", DataType::Bigint), ("b", DataType::Bigint)]);
    let manager = SpillManager::new(None, 0);
    let bridge = JoinBridge::new(vec![0, 1], 1);
    bridge.enable_spill(Arc::clone(&manager));
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(Page::from_rows(
        &s,
        &[vec![Value::Bigint(a1), Value::Bigint(b1)]],
    ))
    .unwrap();
    assert!(b.revoke_memory().unwrap() > 0, "whole build spills");
    b.finish();
    let table = bridge.table().unwrap();
    assert!(table.has_spill());
    assert_eq!(table.row_count(), 0, "all rows on disk");
    let mut probe = LookupJoinOperator::new(
        Arc::clone(&bridge),
        ProbeJoinType::Inner,
        vec![0, 1],
        s.clone(),
        s.clone(),
        None,
    );
    probe
        .add_input(Page::from_rows(
            &s,
            &[
                vec![Value::Bigint(a2), Value::Bigint(b2)],
                vec![Value::Bigint(a1), Value::Bigint(b1)],
            ],
        ))
        .unwrap();
    probe.finish();
    let mut rows = 0;
    while let Some(p) = probe.output().unwrap() {
        for i in 0..p.row_count() {
            assert_eq!(p.block(0).i64_at(i), a1);
            assert_eq!(p.block(1).i64_at(i), b1);
        }
        rows += p.row_count();
    }
    assert_eq!(rows, 1, "colliding but unequal keys must not join");
    assert!(probe.is_finished());
}

#[test]
fn revocation_is_a_noop_after_finalize_starts() {
    let manager = SpillManager::new(None, 0);
    let bridge = JoinBridge::new(vec![0], 1);
    bridge.enable_spill(Arc::clone(&manager));
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(kv_page(&[(1, "a"), (2, "b")])).unwrap();
    b.finish();
    assert!(bridge.table().is_some());
    assert!(!b.can_revoke_memory());
    assert_eq!(b.revoke_memory().unwrap(), 0);
    assert!(!bridge.table().unwrap().has_spill());
}

#[test]
fn cross_join_bridge_never_arms_spill() {
    let manager = SpillManager::new(None, 0);
    let bridge = JoinBridge::new(vec![], 1);
    bridge.enable_spill(Arc::clone(&manager));
    let mut b = HashBuilderOperator::new(Arc::clone(&bridge));
    b.add_input(kv_page(&[(1, "a"), (2, "b")])).unwrap();
    assert!(!b.can_revoke_memory(), "cross joins are spill-ineligible");
    assert_eq!(b.revoke_memory().unwrap(), 0);
    b.finish();
    assert!(!bridge.table().unwrap().has_spill());
    assert_eq!(manager.spill_events(), 0);
}

mod gather {
    use super::*;
    use crate::flathash::FlatHashTable;
    use crate::join::partition::Partition;
    use crate::join::table::JoinHashTable;
    use presto_common::Field;
    use presto_page::BlockBuilder;
    use proptest::prelude::*;

    fn arb_value(t: DataType) -> BoxedStrategy<Value> {
        let value = match t {
            DataType::Bigint => any::<i64>().prop_map(Value::Bigint).boxed(),
            DataType::Double => prop_oneof![
                any::<f64>().prop_map(Value::Double),
                Just(Value::Double(-0.0)),
                Just(Value::Double(f64::NAN)),
            ]
            .boxed(),
            DataType::Boolean => any::<bool>().prop_map(Value::Boolean).boxed(),
            _ => prop_oneof![
                Just(Value::varchar("")),
                "[a-z]{0,6}".prop_map(Value::varchar)
            ]
            .boxed(),
        };
        prop_oneof![3 => value, 1 => Just(Value::Null)].boxed()
    }

    /// A build schema and its partitions' rows; `None` is a spilled
    /// partition.
    fn arb_partitions() -> impl Strategy<Value = (Schema, Vec<Option<Vec<Vec<Value>>>>)> {
        let types = prop_oneof![
            Just(DataType::Bigint),
            Just(DataType::Double),
            Just(DataType::Boolean),
            Just(DataType::Varchar),
        ];
        proptest::collection::vec(types, 1..4).prop_flat_map(|types| {
            let fields = types.iter().enumerate();
            let schema = Schema::new(
                fields
                    .map(|(i, &t)| Field::new(format!("c{i}"), t))
                    .collect(),
            );
            let row: Vec<BoxedStrategy<Value>> = types.iter().map(|&t| arb_value(t)).collect();
            let rows = proptest::collection::vec(row, 0..12);
            let partition = proptest::option::of(rows);
            (Just(schema), proptest::collection::vec(partition, 1..6))
        })
    }

    proptest! {
        /// The typed gather equals a per-cell `append_from` copy of the
        /// addressed build rows.
        #[test]
        fn gather_equals_per_cell_model(
            (schema, partitions) in arb_partitions(),
            picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        ) {
            let manager = SpillManager::new(None, 0);
            let built = partitions.iter().map(|rows| match rows {
                Some(rows) => Partition::Resident((
                    Page::from_rows(&schema, rows),
                    FlatHashTable::with_capacity(rows.len()),
                )),
                None => Partition::Spilled(manager.create_run("gather-test")),
            });
            let table = JoinHashTable::new(built.collect(), vec![0]);
            let filled: Vec<(u32, usize)> = partitions
                .iter()
                .enumerate()
                .filter_map(|(p, rows)| Some((p as u32, rows.as_ref()?.len())))
                .filter(|&(_, n)| n > 0)
                .collect();
            let addrs: Vec<(u32, u32)> = if filled.is_empty() {
                Vec::new()
            } else {
                picks
                    .iter()
                    .map(|&(p, r)| {
                        let (p, n) = filled[p as usize % filled.len()];
                        (p, r % n as u32)
                    })
                    .collect()
            };
            let types: Vec<DataType> = schema.fields().iter().map(|f| f.data_type).collect();
            let model = types.iter().enumerate().map(|(c, &t)| {
                let mut b = BlockBuilder::with_capacity(t, addrs.len());
                for &(p, row) in &addrs {
                    b.append_from(table.pages()[p as usize].block(c), row as usize);
                }
                b.finish()
            });
            let model = Page::new(model.collect());
            let gathered = table.gather(&addrs, &types);
            prop_assert_eq!(gathered.row_count(), addrs.len());
            prop_assert_eq!(gathered.to_rows(&schema), model.to_rows(&schema));
        }
    }
}
