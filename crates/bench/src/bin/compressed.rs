//! §V-E "Operating on Compressed Data".
//!
//! The engine processes dictionary and RLE blocks without decoding:
//! expressions evaluate once per distinct dictionary entry (or once per
//! run) instead of once per row. This bench compares the page processor
//! with compressed-block processing on vs off over low-cardinality data.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin compressed
//! ```

use presto_common::{DataType, Session, Value};
use presto_expr::{CmpOp, Expr, PageProcessor, ScalarFn};
use presto_page::blocks::{DictionaryBlock, LongBlock, VarcharBlock};
use presto_page::{Block, Page};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn dictionary_pages(rows: usize) -> Vec<Page> {
    // Low-cardinality ship-instruction column, dictionary-encoded like an
    // ORC stripe (Fig. 5), plus a numeric column.
    let entries = [
        "DELIVER IN PERSON",
        "COLLECT COD",
        "NONE",
        "TAKE BACK RETURN",
    ];
    let dictionary = Arc::new(Block::from(VarcharBlock::from_strs(&entries)));
    let mut rng = StdRng::seed_from_u64(9);
    (0..rows)
        .step_by(8192)
        .map(|start| {
            let n = 8192.min(rows - start);
            let ids: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..entries.len() as u32))
                .collect();
            let nums: Vec<i64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            Page::new(vec![
                Block::Dictionary(DictionaryBlock::new(Arc::clone(&dictionary), ids)),
                Block::from(LongBlock::from_values(nums)),
            ])
        })
        .collect()
}

fn main() {
    let rows: usize = std::env::var("PRESTO_COMPRESSED_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);
    println!("§V-E reproduction: processing dictionary blocks without decoding ({rows} rows)\n");
    let pages = dictionary_pages(rows);
    // Projection: lower(shipinstruct) — string work per evaluation; filter
    // keeps most rows so projection cost dominates.
    let (f, t) = ScalarFn::resolve("lower", &[DataType::Varchar]).expect("lower(varchar)");
    let projections = vec![
        Expr::Call {
            function: f,
            args: vec![Expr::column(0, DataType::Varchar)],
            data_type: t,
        },
        Expr::column(1, DataType::Bigint),
    ];
    let filter = Expr::cmp(
        CmpOp::Ne,
        Expr::column(0, DataType::Varchar),
        Expr::typed_literal(Value::varchar("nonexistent"), DataType::Varchar),
    );

    let run = |compressed: bool| -> (std::time::Duration, usize) {
        let session = Session {
            process_compressed: compressed,
            ..Session::default()
        };
        let mut processor = PageProcessor::new(Some(&filter), &projections, &session);
        let start = Instant::now();
        let mut out = 0;
        for page in &pages {
            out += processor.process(page).expect("process").row_count();
        }
        (start.elapsed(), out)
    };
    let (decoded_time, n1) = run(false);
    let (compressed_time, n2) = run(true);
    assert_eq!(n1, n2);
    println!("{:<34} {:>12}", "mode", "time");
    println!("{:<34} {:>12.2?}", "decode-first (baseline)", decoded_time);
    println!(
        "{:<34} {:>12.2?}",
        "dictionary-aware (§V-E)", compressed_time
    );
    println!(
        "\nspeedup: {:.1}x over {} rows ({} distinct values per dictionary)",
        decoded_time.as_secs_f64() / compressed_time.as_secs_f64(),
        rows,
        4
    );
    println!("\nexpected shape (paper): processing the dictionary (4 entries) instead of");
    println!("every row wins by a wide margin on low-cardinality data.");
}
