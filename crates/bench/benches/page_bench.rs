//! Criterion micro-benchmarks for the columnar page layer: dictionary-aware
//! hashing (§V-E), structure-preserving filters, and the shuffle codec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use presto_common::{DataType, Schema, Value};
use presto_page::blocks::{DictionaryBlock, VarcharBlock};
use presto_page::hash::hash_columns;
use presto_page::{deserialize_page, serialize_page, Block, Page};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ROWS: usize = 65_536;

fn dictionary_page() -> Page {
    let entries: Vec<String> = (0..16).map(|i| format!("value-{i}")).collect();
    let dict = Arc::new(Block::from(VarcharBlock::from_strs(&entries)));
    let mut rng = StdRng::seed_from_u64(2);
    let ids: Vec<u32> = (0..ROWS).map(|_| rng.gen_range(0..16)).collect();
    Page::new(vec![Block::Dictionary(DictionaryBlock::new(dict, ids))])
}

fn flat_page() -> Page {
    let mut rng = StdRng::seed_from_u64(2);
    let schema = Schema::of(&[("s", DataType::Varchar)]);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| vec![Value::varchar(format!("value-{}", rng.gen_range(0..16)))])
        .collect();
    Page::from_rows(&schema, &rows)
}

fn bench_hashing(c: &mut Criterion) {
    let dict = dictionary_page();
    let flat = flat_page();
    let mut group = c.benchmark_group("row_hashing");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("dictionary_block", |b| b.iter(|| hash_columns(&dict, &[0])));
    group.bench_function("flat_block", |b| b.iter(|| hash_columns(&flat, &[0])));
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    let dict = dictionary_page();
    let flat = flat_page();
    let positions: Vec<u32> = (0..ROWS as u32).step_by(3).collect();
    let mut group = c.benchmark_group("block_filter");
    group.throughput(Throughput::Elements(positions.len() as u64));
    group.bench_function("dictionary_block", |b| b.iter(|| dict.filter(&positions)));
    group.bench_function("flat_block", |b| b.iter(|| flat.filter(&positions)));
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let page = flat_page();
    let bytes = serialize_page(&page);
    let mut group = c.benchmark_group("page_codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("serialize", |b| b.iter(|| serialize_page(&page)));
    group.bench_function("deserialize", |b| {
        b.iter(|| deserialize_page(&bytes).expect("own frame decodes"))
    });
    group.finish();
}

criterion_group!(benches, bench_hashing, bench_filter, bench_codec);
criterion_main!(benches);
