#![allow(clippy::unwrap_used)]
//! Property tests for the PORC file format: write→read round trips across
//! stripe boundaries, and stripe pruning never drops matching rows.

use presto_common::{DataType, Schema, Value};
use presto_connector::{Domain, TupleDomain};
use presto_page::Page;
use presto_porc::{IoStats, PorcReader, PorcWriter, WriterOptions};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_rows() -> impl Strategy<Value = Vec<(Option<i64>, Option<String>, f64)>> {
    proptest::collection::vec(
        (
            prop_oneof![5 => (-100i64..100).prop_map(Some), 1 => Just(None)],
            prop_oneof![5 => "[a-d]{1,3}".prop_map(Some), 1 => Just(None)],
            -100.0f64..100.0,
        ),
        0..300,
    )
}

fn schema() -> Schema {
    Schema::of(&[
        ("k", DataType::Bigint),
        ("s", DataType::Varchar),
        ("x", DataType::Double),
    ])
}

fn to_page(rows: &[(Option<i64>, Option<String>, f64)]) -> Page {
    Page::from_rows(
        &schema(),
        &rows
            .iter()
            .map(|(k, s, x)| {
                vec![
                    k.map(Value::Bigint).unwrap_or(Value::Null),
                    s.clone().map(Value::varchar).unwrap_or(Value::Null),
                    Value::Double(*x),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

fn temp_file(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("porc-prop-{}-{tag}.porc", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_round_trip(rows in arb_rows(), stripe_rows in 1usize..64, tag in any::<u64>()) {
        let path = temp_file(tag);
        let mut writer = PorcWriter::create(
            &path,
            schema(),
            WriterOptions { stripe_rows, ..Default::default() },
        )
        .unwrap();
        let page = to_page(&rows);
        if page.row_count() > 0 {
            writer.append(&page).unwrap();
        }
        let meta = writer.finish().unwrap();
        prop_assert_eq!(meta.row_count as usize, rows.len());
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        let mut got: Vec<Vec<Value>> = Vec::new();
        for s in 0..reader.stripe_count() {
            let p = reader.read_stripe(s, &[0, 1, 2], false).unwrap();
            got.extend(p.to_rows(&schema()));
        }
        prop_assert_eq!(got, page.to_rows(&schema()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stripe_pruning_never_drops_matches(
        rows in arb_rows(),
        probe in -100i64..100,
        tag in any::<u64>(),
    ) {
        let path = temp_file(tag.wrapping_add(1));
        let mut writer = PorcWriter::create(
            &path,
            schema(),
            WriterOptions { stripe_rows: 16, ..Default::default() },
        )
        .unwrap();
        let page = to_page(&rows);
        if page.row_count() > 0 {
            writer.append(&page).unwrap();
        }
        writer.finish().unwrap();
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        let mut predicate = TupleDomain::all();
        predicate.constrain(0, Domain::point(Value::Bigint(probe)));
        // Count matches surviving pruning…
        let mut surviving = 0usize;
        for s in reader.select_stripes(&predicate) {
            let p = reader.read_stripe(s, &[0], false).unwrap();
            for i in 0..p.row_count() {
                if !p.block(0).is_null(i) && p.block(0).i64_at(i) == probe {
                    surviving += 1;
                }
            }
        }
        // …must equal the true count (no false negatives from min/max or
        // Bloom statistics).
        let expected = rows.iter().filter(|(k, _, _)| *k == Some(probe)).count();
        prop_assert_eq!(surviving, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_and_eager_reads_agree(rows in arb_rows(), tag in any::<u64>()) {
        let path = temp_file(tag.wrapping_add(2));
        let mut writer = PorcWriter::create(
            &path,
            schema(),
            WriterOptions { stripe_rows: 32, ..Default::default() },
        )
        .unwrap();
        let page = to_page(&rows);
        if page.row_count() > 0 {
            writer.append(&page).unwrap();
        }
        writer.finish().unwrap();
        let reader = PorcReader::open(&path, Arc::new(IoStats::new())).unwrap();
        for s in 0..reader.stripe_count() {
            let lazy = reader.read_stripe(s, &[1, 0], true).unwrap();
            let eager = reader.read_stripe(s, &[1, 0], false).unwrap();
            let projected = Schema::of(&[("s", DataType::Varchar), ("k", DataType::Bigint)]);
            prop_assert_eq!(lazy.to_rows(&projected), eager.to_rows(&projected));
        }
        std::fs::remove_file(&path).ok();
    }
}
