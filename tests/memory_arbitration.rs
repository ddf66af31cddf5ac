#![allow(clippy::unwrap_used)]
//! The §IV-F2 memory-arbitration experiment: memory can be overcommitted
//! ("it is generally safe to overcommit the memory of the cluster as long
//! as mechanisms exist to keep the cluster healthy when nodes are low on
//! memory") because the reserved pool unblocks the biggest query, and
//! per-query limits kill runaways instead of the cluster.

use presto::cluster::ClusterConfig;
use presto::common::{Session, Value};
use presto_testkit::{run_sorted, tpch_catalog, TestCluster};
use std::sync::Arc;

fn tight_cluster(node_memory: u64, kill: bool) -> TestCluster {
    let config = ClusterConfig {
        workers: 2,
        threads_per_worker: 2,
        node_memory_bytes: node_memory,
        reserved_pool_bytes: node_memory,
        kill_on_memory_exhausted: kill,
        ..ClusterConfig::test()
    };
    TestCluster::start(config, tpch_catalog(0.002))
}

/// Memory-hungry aggregation (one group per lineitem row pair).
const HUNGRY: &str = "SELECT orderkey, partkey, COUNT(*), SUM(extendedprice) \
                      FROM lineitem GROUP BY orderkey, partkey";

#[test]
fn overcommit_survives_via_reserved_pool() {
    // The general pool is small enough that several concurrent hungry
    // queries exceed it; the reserved-pool promotion must let them finish
    // one at a time rather than deadlocking.
    let cluster = tight_cluster(1 << 20, false);
    let handles: Vec<_> = (0..4)
        .map(|_| cluster.submit(HUNGRY, Session::default()))
        .collect();
    let mut ok = 0;
    for h in handles {
        if h.join().unwrap().is_ok() {
            ok += 1;
        }
    }
    assert_eq!(ok, 4, "all queries complete despite overcommit");
}

#[test]
fn kill_policy_fails_queries_instead_of_blocking() {
    // The same overcommit under the kill policy: once the reserved pool is
    // taken, an exhausted general pool kills a query instead of blocking
    // it. Every query ends, each failure is the out-of-memory kill, and
    // the node serves the next query.
    let cluster = tight_cluster(1 << 20, true);
    let handles: Vec<_> = (0..8)
        .map(|_| cluster.submit(HUNGRY, Session::default()))
        .collect();
    let mut killed = 0;
    for h in handles {
        if let Err(e) = h.join().unwrap() {
            assert_eq!(
                e.error.code,
                presto::common::ErrorCode::InsufficientResources
            );
            assert!(e.error.message.contains("out of memory"), "{e}");
            killed += 1;
        }
    }
    assert!(
        killed >= 1,
        "eight hungry queries on a 1 MiB pool kill none"
    );
    let out = cluster.execute("SELECT COUNT(*) FROM lineitem").unwrap();
    assert!(matches!(out.rows()[0][0], Value::Bigint(n) if n > 0));
}

#[test]
fn per_query_limit_kills_only_the_offender() {
    let cluster = tight_cluster(64 << 20, false);
    // Each of the three §IV-F2 limits, set absurdly low on its own.
    let limits = [
        (
            "per-node user memory limit",
            Session {
                query_max_memory_per_node: 4 << 10,
                ..Session::default()
            },
        ),
        (
            "per-node total memory limit",
            Session {
                query_max_total_memory_per_node: 4 << 10,
                ..Session::default()
            },
        ),
        (
            "global user memory limit",
            Session {
                query_max_memory: 4 << 10,
                ..Session::default()
            },
        ),
    ];
    for (limit, tiny) in limits {
        // A query over the limit dies, naming that limit…
        let err = cluster.execute_with_session(HUNGRY, &tiny).unwrap_err();
        assert_eq!(
            err.error.code,
            presto::common::ErrorCode::InsufficientResources
        );
        assert!(err.error.message.contains(limit), "{limit}: {err}");
        // …while a normal query on the same cluster succeeds right after.
        let out = cluster.execute("SELECT COUNT(*) FROM lineitem").unwrap();
        assert!(matches!(out.rows()[0][0], Value::Bigint(n) if n > 0));
    }
}

#[test]
fn cache_memory_is_charged_as_system_memory() {
    // Cache retention participates in §IV-F2 arbitration: bytes the
    // metadata cache retains appear as system memory on every worker pool
    // and shrink the general pool's headroom.
    let cluster = tight_cluster(64 << 20, false);
    let cache = cluster.metadata_cache();
    assert!(cluster.worker_system_memory().iter().all(|&b| b == 0));
    cache.statistics("memory", "lineitem", || {
        presto::common::TableStatistics::with_row_count(1000.0)
    });
    let retained = cache.total_bytes() as i64;
    assert!(retained > 0, "cache retains the inserted statistics");
    for bytes in cluster.worker_system_memory() {
        assert_eq!(bytes, retained, "every pool sees the cache's balance");
    }
    cache.clear();
    assert!(cluster.worker_system_memory().iter().all(|&b| b == 0));
}

#[test]
fn spilling_lets_queries_run_under_the_limit() {
    // §IV-F2: "Revocation is processed by spilling state to disk. Presto
    // supports spilling for hash joins and aggregations." Per-node limits
    // kill regardless of spill; what spill handles is pool exhaustion, so
    // the aggregation runs on a pool far below its state.
    let small_pool = tight_cluster(256 << 10, false);
    let spill = Session {
        spill_enabled: true,
        ..Session::default()
    };
    assert_eq!(small_pool.metrics_snapshot().spill.queries_spilled, 0);
    let spilled = run_sorted(&small_pool, HUNGRY, &spill);
    assert!(
        small_pool.metrics_snapshot().spill.queries_spilled >= 1,
        "the query spilled"
    );
    let roomy = tight_cluster(64 << 20, false);
    let unspilled = run_sorted(&roomy, HUNGRY, &Session::default());
    assert_eq!(spilled, unspilled, "spilling changes no row");
}

#[test]
fn window_spills_through_its_sort() {
    // §IV-F2 revocation reaches the window: it buffers its input in a sort,
    // which spills sorted runs when the pool runs short, partitioned or
    // not.
    let small_pool = tight_cluster(128 << 10, false);
    let roomy = tight_cluster(64 << 20, false);
    let spill = Session {
        spill_enabled: true,
        ..Session::default()
    };
    for over in [
        "PARTITION BY partkey ORDER BY extendedprice DESC",
        "ORDER BY extendedprice DESC",
    ] {
        let sql =
            format!("SELECT orderkey, partkey, extendedprice, rank() OVER ({over}) FROM lineitem");
        let before = small_pool.metrics_snapshot().spill.queries_spilled;
        let spilled = run_sorted(&small_pool, &sql, &spill);
        assert!(
            small_pool.metrics_snapshot().spill.queries_spilled > before,
            "the window spilled: {over}"
        );
        let unspilled = run_sorted(&roomy, &sql, &Session::default());
        assert_eq!(spilled, unspilled, "spilling changes no row: {over}");
    }
}

#[test]
fn shuffle_operators_charge_actual_retained_bytes() {
    // §IV-F2: shuffle buffers are system memory. Both ends of the exchange
    // must charge the bytes they actually retain — not a flat per-operator
    // token — so arbitration sees real pressure. The sink's charge is its
    // coalescing accumulator plus its share of the output buffer; the
    // source's charge is the client's buffered wire bytes.
    use presto::exec::exchange::{
        ExchangeSourceOperator, OutputRouting, PartitionedOutputOperator,
    };
    use presto::exec::Operator;
    use presto::page::Page;
    use presto::shuffle::{ExchangeClient, OutputBuffer};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    let schema = presto::common::Schema::of(&[("k", presto::common::DataType::Bigint)]);
    let page = |lo: i64| {
        Page::from_rows(
            &schema,
            &(lo..lo + 200)
                .map(|v| vec![Value::Bigint(v)])
                .collect::<Vec<_>>(),
        )
    };

    // Sink side: with flush targets set beyond the input, every row sits in
    // the partitioner, so the charge must grow with the data (a constant
    // token would stay flat).
    let buffer = OutputBuffer::new(4, usize::MAX);
    let mut sink = PartitionedOutputOperator::new(
        Arc::clone(&buffer),
        OutputRouting::Hash { channels: vec![0] },
    )
    .with_targets(usize::MAX, usize::MAX);
    let mut last = 0usize;
    for batch in 0..3 {
        sink.add_input(page(batch * 200)).unwrap();
        let charge = sink.system_memory_bytes();
        assert!(
            charge > last,
            "charge must track accumulated rows: {charge} after batch {batch}"
        );
        last = charge;
    }
    assert_eq!(buffer.retained_bytes(), 0, "nothing flushed yet");
    sink.finish();
    // Accumulators flushed into the buffer: the charge now equals exactly
    // the wire bytes the buffer retains for unacknowledged pages.
    let wire = buffer.totals().wire_bytes;
    assert_eq!(buffer.retained_bytes() as u64, wire);
    assert_eq!(sink.system_memory_bytes(), buffer.retained_bytes());
    for p in 0..4 {
        let r = buffer.poll(p, 0, usize::MAX);
        buffer.poll(p, r.next_token, usize::MAX); // acknowledge
    }
    assert_eq!(sink.system_memory_bytes(), 0, "acked pages are freed");

    // Source side: the operator's charge is the client's buffered wire
    // bytes, which return to zero once the pages are consumed.
    let upstream = OutputBuffer::new(1, usize::MAX);
    for batch in 0..3 {
        upstream.enqueue(0, page(batch * 200));
    }
    upstream.set_no_more_pages();
    let expected_wire = upstream.totals().wire_bytes as usize;
    let client = Arc::new(ExchangeClient::new(usize::MAX, Duration::ZERO));
    client.add_source(upstream, 0);
    let no_more = Arc::new(AtomicBool::new(true));
    let mut source = ExchangeSourceOperator::new(Arc::clone(&client), no_more);
    client.poll_progress().unwrap();
    assert_eq!(
        source.system_memory_bytes(),
        expected_wire,
        "source charges exactly the fetched wire bytes"
    );
    let mut rows = 0usize;
    while !source.is_finished() {
        if let Some(p) = source.output().unwrap() {
            rows += p.row_count();
        }
    }
    assert_eq!(rows, 600);
    assert_eq!(
        source.system_memory_bytes(),
        0,
        "drained client charges nothing"
    );
}

#[test]
fn join_build_memory_is_exact_flat_layout() {
    // §V-E: the join build charges memory from the flat partitioned layout
    // itself (pages + row-address vectors + hash arrays), not an estimate.
    // The bridge's reported bytes must match the table's exact accounting
    // at every phase boundary, so arbitration and revoke decisions see
    // truthful numbers.
    use presto::common::{DataType, Schema};
    use presto::exec::join::{HashBuilderOperator, JoinBridge};
    use presto::exec::Operator;
    use presto::page::Page;

    let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Varchar)]);
    let rows: Vec<Vec<Value>> = (0..2_000)
        .map(|i| vec![Value::Bigint(i % 331), Value::varchar(format!("row-{i}"))])
        .collect();
    let bridge = JoinBridge::new(vec![0], 1);
    let mut builder = HashBuilderOperator::new(Arc::clone(&bridge));
    let mut input_bytes = 0;
    for piece in rows.chunks(257) {
        let page = Page::from_rows(&schema, piece);
        input_bytes += page.size_in_bytes();
        builder.add_input(page).unwrap();
        // While accumulating, the charge covers at least the page bytes
        // plus the partition entries (16 bytes per keyed row).
        assert!(bridge.build_bytes() >= input_bytes);
    }
    builder.finish();
    let table = bridge.table().expect("build complete");
    // Exact identity: reported bytes == page bytes + flat layout bytes.
    let page_bytes: usize = table.pages().iter().map(Page::size_in_bytes).sum();
    assert_eq!(
        table.memory_bytes(),
        page_bytes + table.hash_layout_bytes(),
        "no estimate constants in the accounting"
    );
    assert_eq!(bridge.build_bytes(), table.memory_bytes());
    assert_eq!(builder.user_memory_bytes(), table.memory_bytes());
    assert_eq!(table.row_count(), 2_000);
}

#[test]
fn joins_complete_under_tight_memory_with_exact_accounting() {
    // End-to-end: a join query on a tight general pool still completes —
    // the exact build-side accounting admits it without overcharging.
    let cluster = tight_cluster(8 << 20, false);
    let out = cluster
        .execute(
            "SELECT COUNT(*) FROM orders o, lineitem l \
             WHERE o.orderkey = l.orderkey",
        )
        .unwrap();
    assert!(matches!(out.rows()[0][0], Value::Bigint(n) if n > 0));
}
