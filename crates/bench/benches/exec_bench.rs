//! Criterion micro-benchmarks for the execution operators: hash
//! aggregation, hash join build/probe, and the shuffle buffer.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use presto_common::{DataType, Schema, Value};
use presto_exec::agg::{AggPhase, AggSpec, HashAggregationOperator};
use presto_exec::join::{HashBuilderOperator, JoinBridge, LookupJoinOperator, ProbeJoinType};
use presto_exec::Operator;
use presto_expr::{AggregateFunction, AggregateKind};
use presto_page::Page;
use presto_shuffle::OutputBuffer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ROWS: usize = 65_536;

fn kv_page(rows: usize, key_range: i64, seed: u64) -> Page {
    let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            vec![
                Value::Bigint(rng.gen_range(0..key_range)),
                Value::Bigint(rng.gen_range(0..100)),
            ]
        })
        .collect();
    Page::from_rows(&schema, &data)
}

fn bench_aggregation(c: &mut Criterion) {
    let page = kv_page(ROWS, 1024, 3);
    let mut group = c.benchmark_group("hash_aggregation");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("sum_group_by_1024_keys", |b| {
        b.iter(|| {
            let mut op = HashAggregationOperator::new(
                AggPhase::Single,
                vec![0],
                vec![DataType::Bigint],
                vec![AggSpec {
                    function: AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint))
                        .expect("sum(bigint)"),
                    input: Some(1),
                }],
                None,
            );
            op.add_input(page.clone()).expect("aggregate input");
            op.finish();
            op.output()
                .expect("aggregate output")
                .expect("one result page")
                .row_count()
        })
    });
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let build = kv_page(8_192, 8_192, 4);
    let probe = kv_page(ROWS, 8_192, 5);
    let schema = Schema::of(&[("k", DataType::Bigint), ("v", DataType::Bigint)]);
    let mut group = c.benchmark_group("hash_join");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("build_8k", |b| {
        b.iter(|| {
            let bridge = JoinBridge::new(vec![0], 1);
            let mut builder = HashBuilderOperator::new(Arc::clone(&bridge));
            builder.add_input(build.clone()).expect("build input");
            builder.finish();
            bridge.table().expect("published table").row_count()
        })
    });
    group.bench_function("probe_64k_against_8k", |b| {
        let bridge = JoinBridge::new(vec![0], 1);
        let mut builder = HashBuilderOperator::new(Arc::clone(&bridge));
        builder.add_input(build.clone()).expect("build input");
        builder.finish();
        b.iter(|| {
            let mut join = LookupJoinOperator::new(
                Arc::clone(&bridge),
                ProbeJoinType::Inner,
                vec![0],
                schema.clone(),
                schema.clone(),
                None,
            );
            join.add_input(probe.clone()).expect("probe input");
            join.output()
                .expect("probe output")
                .map(|p| p.row_count())
                .unwrap_or(0)
        })
    });
    group.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let page = kv_page(8_192, 1024, 6);
    let mut group = c.benchmark_group("shuffle_buffer");
    group.throughput(Throughput::Elements(8_192));
    group.bench_function("enqueue_poll_ack", |b| {
        b.iter(|| {
            let buffer = OutputBuffer::new(1, 64 << 20);
            buffer.enqueue(0, page.clone());
            let r = buffer.poll(0, 0, usize::MAX);
            buffer.poll(0, r.next_token, usize::MAX);
            r.pages.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_aggregation, bench_join, bench_shuffle);
criterion_main!(benches);
