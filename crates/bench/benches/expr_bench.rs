//! Criterion micro-benchmarks for expression evaluation (§V-B).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use presto_common::{DataType, Schema, Session, Value};
use presto_expr::processor::process_interpreted;
use presto_expr::{ArithOp, CmpOp, Expr, PageProcessor};
use presto_page::Page;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn test_page(rows: usize) -> Page {
    let schema = Schema::of(&[
        ("a", DataType::Bigint),
        ("b", DataType::Bigint),
        ("x", DataType::Double),
    ]);
    let mut rng = StdRng::seed_from_u64(1);
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            vec![
                Value::Bigint(rng.gen_range(0..1_000_000)),
                Value::Bigint(rng.gen_range(1..100)),
                Value::Double(rng.gen_range(0.0..1.0)),
            ]
        })
        .collect();
    Page::from_rows(&schema, &data)
}

fn exprs() -> (Expr, Vec<Expr>) {
    let filter = Expr::cmp(
        CmpOp::Gt,
        Expr::column(2, DataType::Double),
        Expr::literal(0.25f64),
    );
    let proj = vec![Expr::arith(
        ArithOp::Add,
        Expr::arith(
            ArithOp::Mul,
            Expr::column(0, DataType::Bigint),
            Expr::literal(7i64),
        ),
        Expr::column(1, DataType::Bigint),
    )];
    (filter, proj)
}

fn bench_evaluators(c: &mut Criterion) {
    let rows = 65_536usize;
    let page = test_page(rows);
    let (filter, proj) = exprs();
    let mut group = c.benchmark_group("expression_evaluation");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function(BenchmarkId::new("compiled", rows), |b| {
        let mut processor = PageProcessor::new(Some(&filter), &proj, &Session::default());
        b.iter(|| processor.process(&page).expect("compiled").row_count())
    });
    group.bench_function(BenchmarkId::new("interpreted", rows), |b| {
        b.iter(|| {
            process_interpreted(Some(&filter), &proj, &page)
                .expect("interpreted")
                .row_count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_evaluators);
criterion_main!(benches);
