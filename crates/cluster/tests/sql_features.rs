//! SQL dialect feature coverage, end to end: temporal functions, LIKE,
//! BETWEEN, CASE/CAST, ordinals, aliases, nested derived tables, and
//! window aggregates — everything §IV-A promises, executed distributed.

#![allow(clippy::unwrap_used)]

use presto_cluster::{Cluster, ClusterConfig};
use presto_common::time::days_from_civil;
use presto_common::{DataType, Schema, Value};
use presto_testkit::{memory_catalog, TestCluster};

fn cluster() -> TestCluster {
    let schema = Schema::of(&[
        ("id", DataType::Bigint),
        ("name", DataType::Varchar),
        ("amount", DataType::Double),
        ("created", DataType::Date),
    ]);
    let rows: Vec<Vec<Value>> = (0..100)
        .map(|i| {
            vec![
                Value::Bigint(i),
                Value::varchar(format!(
                    "{}-{:03}",
                    if i % 3 == 0 { "alpha" } else { "beta" },
                    i
                )),
                Value::Double(i as f64 * 1.5),
                Value::Date(days_from_civil(1995, 1, 1) + i * 10),
            ]
        })
        .collect();
    let (catalogs, _) = memory_catalog().table("items", schema, &rows, 100).build();
    TestCluster::start(ClusterConfig::test(), catalogs)
}

#[test]
fn date_literals_and_temporal_functions() {
    let c = cluster();
    let out = c
        .execute(
            "SELECT year(created) AS y, COUNT(*) FROM items \
             WHERE created >= DATE '1995-06-01' AND created < DATE '1996-06-01' \
             GROUP BY year(created) ORDER BY y",
        )
        .unwrap();
    let rows = out.rows();
    assert!(!rows.is_empty());
    // The range spans mid-1995 to mid-1996.
    assert_eq!(rows[0][0], Value::Bigint(1995));
    assert_eq!(rows[rows.len() - 1][0], Value::Bigint(1996));
    let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
    // Dates step 10 days: exactly 365/10 ≈ 36 or 37 rows in one year.
    assert!((35..=38).contains(&total), "{total}");
}

#[test]
fn like_and_string_functions() {
    let c = cluster();
    let out = c
        .execute(
            "SELECT upper(substr(name, 1, 5)) AS prefix, COUNT(*) AS n \
             FROM items WHERE name LIKE 'alpha%' GROUP BY upper(substr(name, 1, 5))",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::varchar("ALPHA"));
    assert_eq!(rows[0][1], Value::Bigint(34)); // i % 3 == 0 for 0..100
    let none = c
        .execute("SELECT COUNT(*) FROM items WHERE name LIKE '%gamma%'")
        .unwrap();
    assert_eq!(none.rows()[0][0], Value::Bigint(0));
}

#[test]
fn between_and_not_variants() {
    let c = cluster();
    let inside = c
        .execute("SELECT COUNT(*) FROM items WHERE id BETWEEN 10 AND 19")
        .unwrap();
    assert_eq!(inside.rows()[0][0], Value::Bigint(10));
    let outside = c
        .execute("SELECT COUNT(*) FROM items WHERE id NOT BETWEEN 10 AND 19")
        .unwrap();
    assert_eq!(outside.rows()[0][0], Value::Bigint(90));
    let not_in = c
        .execute("SELECT COUNT(*) FROM items WHERE id NOT IN (1, 2, 3)")
        .unwrap();
    assert_eq!(not_in.rows()[0][0], Value::Bigint(97));
}

#[test]
fn case_cast_coalesce() {
    let c = cluster();
    let out = c
        .execute(
            "SELECT CASE WHEN amount > 100.0 THEN 'big' WHEN amount > 50.0 THEN 'mid' \
                    ELSE 'small' END AS bucket, \
                    COUNT(*), SUM(CAST(id AS double)) \
             FROM items GROUP BY 1 ORDER BY 1",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][0], Value::varchar("big"));
    assert_eq!(rows[1][0], Value::varchar("mid"));
    assert_eq!(rows[2][0], Value::varchar("small"));
    let coalesce = c
        .execute("SELECT coalesce(NULL, 7) FROM items WHERE id = 0")
        .unwrap();
    assert_eq!(coalesce.rows()[0][0], Value::Bigint(7));
}

#[test]
fn nested_derived_tables_with_window() {
    let c = cluster();
    let out = c
        .execute(
            "SELECT bucket, cnt, rank() OVER (ORDER BY cnt DESC) AS r FROM (\
                SELECT id % 4 AS bucket, COUNT(*) AS cnt FROM items GROUP BY id % 4\
             ) agg ORDER BY r, bucket",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 4);
    // All buckets have 25 items → every rank ties at 1.
    assert!(rows.iter().all(|r| r[2] == Value::Bigint(1)), "{rows:?}");
}

#[test]
fn order_by_ordinals_and_aliases() {
    let c = cluster();
    let by_ordinal = c
        .execute("SELECT name, amount FROM items ORDER BY 2 DESC LIMIT 1")
        .unwrap();
    let by_alias = c
        .execute("SELECT name, amount AS a FROM items ORDER BY a DESC LIMIT 1")
        .unwrap();
    assert_eq!(by_ordinal.rows()[0][0], by_alias.rows()[0][0]);
    assert_eq!(by_ordinal.rows()[0][1], Value::Double(99.0 * 1.5));
}

#[test]
fn aggregate_function_breadth() {
    let c = cluster();
    let out = c
        .execute(
            "SELECT COUNT(*), AVG(amount), stddev_pop(amount), var_pop(amount), \
             MIN(created), MAX(name) FROM items",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows[0][0], Value::Bigint(100));
    // avg of 0..100 × 1.5 = 74.25
    assert!(matches!(rows[0][1], Value::Double(v) if (v - 74.25).abs() < 1e-9));
    // stddev_pop² = var_pop
    let (sd, var) = match (&rows[0][2], &rows[0][3]) {
        (Value::Double(sd), Value::Double(var)) => (*sd, *var),
        other => panic!("{other:?}"),
    };
    assert!((sd * sd - var).abs() < 1e-6);
    assert_eq!(rows[0][4], Value::Date(days_from_civil(1995, 1, 1)));
}

#[test]
fn division_by_zero_guarded_by_short_circuit() {
    let c = cluster();
    // The guard must protect the division (compiled short-circuit, §V-B).
    let out = c
        .execute("SELECT COUNT(*) FROM items WHERE id <> 0 AND 1000 / id > 50")
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Bigint(19)); // id in 1..=19
                                                     // Unguarded division by zero is a user error.
    let err = c.execute("SELECT 1 / (id - id) FROM items").unwrap_err();
    assert_eq!(err.error.code, presto_common::ErrorCode::User);
}

#[test]
fn right_join_normalizes_to_left() {
    let c = cluster();
    // items with id < 3 right-joined against all ids 0..5 from a derived
    // table — unmatched right rows must survive null-padded.
    let out = c
        .execute(
            "SELECT small.id, big.id FROM \
             (SELECT id FROM items WHERE id < 3) small \
             RIGHT JOIN (SELECT id FROM items WHERE id < 5) big \
             ON small.id = big.id \
             ORDER BY 2",
        )
        .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 5);
    // Matched rows keep both sides; unmatched (3, 4) have NULL left side.
    assert_eq!(rows[2], vec![Value::Bigint(2), Value::Bigint(2)]);
    assert_eq!(rows[3], vec![Value::Null, Value::Bigint(3)]);
    assert_eq!(rows[4], vec![Value::Null, Value::Bigint(4)]);
}

/// A cluster over `ints(k bigint)` 0..20, `doubles(d double)` 0, 4, ..,
/// 16, `dates(dt date)` ten days and `stamps(ts timestamp)` the same ten
/// days at midnight: equi-joins between columns of two types.
fn mixed_type_cluster() -> TestCluster {
    let day0 = days_from_civil(2020, 3, 1);
    let midnight = |i: i64| Value::Timestamp((day0 + i) * 86_400_000);
    let tables: [(&str, &str, DataType, Vec<Value>); 4] = [
        (
            "ints",
            "k",
            DataType::Bigint,
            (0..20).map(Value::Bigint).collect(),
        ),
        (
            "doubles",
            "d",
            DataType::Double,
            (0..5).map(|i| Value::Double(i as f64 * 4.0)).collect(),
        ),
        (
            "dates",
            "dt",
            DataType::Date,
            (0..10).map(|i| Value::Date(day0 + i)).collect(),
        ),
        (
            "stamps",
            "ts",
            DataType::Timestamp,
            (0..10).map(midnight).collect(),
        ),
    ];
    let catalog = tables.into_iter().fold(
        memory_catalog(),
        |catalog, (name, column, data_type, values)| {
            let rows: Vec<Vec<Value>> = values.into_iter().map(|v| vec![v]).collect();
            catalog.table(name, Schema::of(&[(column, data_type)]), &rows, 20)
        },
    );
    TestCluster::start(ClusterConfig::test(), catalog.build().0)
}

/// Each query, as a comma join and as `JOIN ... ON`, counts `expected`.
fn assert_counts(c: &Cluster, queries: [&str; 2], expected: i64) {
    for sql in queries {
        let out = c.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        assert_eq!(out.rows(), vec![vec![Value::Bigint(expected)]], "{sql}");
    }
}

/// `bigint = double` compares by SQL rules (the bigint widens). The hash
/// join compares key lanes of one type, so the pair stays a join filter.
#[test]
fn bigint_equals_double_join() {
    let c = mixed_type_cluster();
    let queries = [
        "SELECT COUNT(*) FROM ints a, doubles b WHERE a.k = b.d",
        "SELECT COUNT(*) FROM ints a JOIN doubles b ON a.k = b.d",
    ];
    assert_counts(&c, queries, 5);
}

/// `date = timestamp` compares the date as its midnight, so each day meets
/// its timestamp; a hash join of the raw `i64` lanes, days against
/// milliseconds, would meet none.
#[test]
fn date_equals_timestamp_join() {
    let c = mixed_type_cluster();
    let queries = [
        "SELECT COUNT(*) FROM dates c, stamps t WHERE c.dt = t.ts",
        "SELECT COUNT(*) FROM dates c JOIN stamps t ON c.dt = t.ts",
    ];
    assert_counts(&c, queries, 10);
}
