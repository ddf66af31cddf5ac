//! §IV-C3 / Fig. 3: shuffle elision via plan properties.
//!
//! The paper's Fig. 3 shows a naive plan needing four shuffles; data-layout
//! properties collapse it ("this optimization applied to the plan in
//! Figure 3 causes it to collapse to a single data processing stage"). We
//! plan the A/B-testing join+aggregate over (a) randomly-distributed
//! tables and (b) Raptor tables bucketed on the join key, and report
//! shuffle counts and runtimes.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin shuffles
//! ```

use presto_bench::{load_abtest_tables, scale_factor, BenchCluster};
use presto_common::Session;
use presto_connector::ConnectorMetadata;
use presto_sql::parse_statement;
use std::time::Duration;

fn main() {
    let scale = scale_factor();
    println!("§IV-C3 reproduction: shuffle elision from data-layout properties (SF {scale})\n");
    let fixture = BenchCluster::new("shuffles", scale);
    // Unbucketed copies of the A/B tables in the memory catalog.
    {
        use presto_common::{DataType, Schema};
        let schema = Schema::of(&[
            ("uid", DataType::Bigint),
            ("test_id", DataType::Bigint),
            ("v", DataType::Double),
        ]);
        let _ = load_abtest_tables; // bucketed versions already in raptor
        for table in ["exposure", "conversion"] {
            // Re-read from raptor via the engine and materialize in memory.
            fixture
                .memory
                .create_table(table, &schema)
                .expect("create copy");
            let out = fixture
                .cluster
                .execute_with_session(
                    &format!("INSERT INTO memory.{table} SELECT * FROM raptor.{table}"),
                    &Session::for_catalog("memory"),
                )
                .expect("copy");
            let _ = out;
            fixture.memory.analyze(table).expect("analyze copy");
        }
    }

    let sql = "SELECT e.uid, SUM(e.v), SUM(c.v) \
               FROM exposure e JOIN conversion c ON e.uid = c.uid \
               GROUP BY e.uid";
    for (label, catalog) in [
        ("random layout (memory)", "memory"),
        ("bucketed on uid (raptor)", "raptor"),
    ] {
        let session = Session::for_catalog(catalog);
        let stmt = parse_statement(sql).expect("parse");
        let plan = presto_planner::plan_statement(&stmt, &session, fixture.cluster.catalogs())
            .expect("plan");
        // Time it, best of 3.
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let out = fixture
                .cluster
                .execute_with_session(sql, &session)
                .expect("run");
            best = best.min(out.wall_time);
        }
        println!(
            "{label:<28} shuffles={:<2} fragments={:<2} runtime={:.1?}",
            plan.shuffle_count(),
            plan.fragments.len(),
            best
        );
    }
    println!("\nexpected shape (paper, Fig. 3): the co-partitioned layout collapses the");
    println!("join+aggregation into a single source stage — only the final output gather");
    println!("remains — and runs faster than the shuffled plan.");
}
