//! The traced pass. Spans are recorded here, outside the engine, around
//! the layers' public functions; counts come from counters the engine
//! already publishes, read before and after. Nothing inside the engine
//! changes; in-engine spans are a later issue.

use crate::fixture::{self, out_dir, Size};
use crate::report::{median, RunRecord};
use crate::run::{Prepared, Quiescence};
use crate::spec::PER_LAYER;
use presto::cluster::history::QueryHistoryEntry;
use presto::common::id::PlanNodeIdAllocator;
use presto::common::json::Json;
use presto::common::{DataType, Session};
use presto::expr::expr::{ArithOp, CmpOp};
use presto::expr::{Expr, PageProcessor};
use presto::page::frame::{decode_framed_page, frame_page};
use presto::page::Page;
use presto::planner::analyzer::Analyzer;
use presto::planner::fragment::fragment_plan;
use presto::planner::optimizer::optimize;
use presto::porc::{IoStats, PorcReader, PorcWriter, WriterOptions};
use presto::sql::parse_statement;
use presto::workload::TpchGenerator;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One span: `parent` indexes the span that caused it; spans of one op
/// share `op_id`.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op_id: usize,
}

/// In-memory span store, written as Chrome `trace_event` JSON at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: usize) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) -> Duration {
        self.spans[span].end = self.origin.elapsed();
        self.spans[span].end - self.spans[span].start
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.open(name, Some(parent), self.spans[parent].op_id);
        let out = f();
        (out, self.close(span))
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start.as_secs_f64() * 1e6)),
                    ("dur", Json::Num((s.end - s.start).as_secs_f64() * 1e6)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("op_id", Json::Int(s.op_id as i64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([("traceEvents", Json::Arr(events))]);
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Cluster-lifetime counters the engine publishes, as one flat map.
fn counters(prepared: &Prepared) -> BTreeMap<&'static str, f64> {
    let fx = &prepared.fixture;
    let snap = fx.cluster.metrics_snapshot();
    let mut c = BTreeMap::new();
    let workers = &snap.workers;
    c.insert(
        "busy_nanos",
        workers.iter().map(|w| w.busy_nanos).sum::<u64>() as f64,
    );
    c.insert(
        "quanta",
        workers
            .iter()
            .flat_map(|w| &w.scheduler.levels)
            .map(|l| l.quanta_granted)
            .sum::<u64>() as f64,
    );
    c.insert(
        "demotions",
        workers.iter().map(|w| w.scheduler.demotions).sum::<u64>() as f64,
    );
    c.insert(
        "revocations",
        workers
            .iter()
            .map(|w| w.memory.revocation_requests)
            .sum::<i64>() as f64,
    );
    c.insert(
        "df_splits_pruned",
        snap.dynamic_filters.splits_pruned as f64,
    );
    c.insert(
        "df_rows_filtered",
        snap.dynamic_filters.rows_filtered as f64,
    );
    c.insert("df_wait_nanos", snap.dynamic_filters.wait_nanos as f64);
    c.insert("fused_scan_rows", snap.fusion.scan_rows as f64);
    c.insert("shuffle_retries", snap.shuffle.retries as f64);
    if let Some(hive) = &fx.hive {
        let io = hive.io_stats();
        let (bytes, cells, pruned, read) = io.snapshot();
        c.insert("porc_bytes", bytes as f64);
        c.insert("porc_cells", cells as f64);
        c.insert("porc_pruned", pruned as f64);
        c.insert("porc_read", read as f64);
        c.insert("porc_footers", io.footer_reads() as f64);
    }
    if let Some(sharded) = &fx.sharded {
        c.insert("sharded_rows", sharded.rows_scanned() as f64);
    }
    for (layer, counters) in fx.cluster.telemetry().cache_counters_by_layer() {
        let (hits, misses) = match layer {
            "porc_footer" => ("footer_hits", "footer_misses"),
            "split_listing" => ("listing_hits", "listing_misses"),
            _ => ("metastore_hits", "metastore_misses"),
        };
        *c.entry(hits).or_insert(0.0) += counters.hits as f64;
        *c.entry(misses).or_insert(0.0) += counters.misses as f64;
        *c.entry("cache_evictions").or_insert(0.0) += counters.evictions as f64;
    }
    c
}

/// Sums over the traced ops; divided by the op count at the end.
#[derive(Default)]
struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn ms(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    fn us(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e6);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// What the engine's history retained for one query.
    fn history(&mut self, entry: &QueryHistoryEntry) {
        // Fragments are numbered leaf-first; the last streams to the client.
        let root_stage = entry.tasks.iter().map(|t| t.stage).max();
        self.ms("cluster.queued_ms", entry.queued);
        self.ms("cluster.planning_ms", entry.planning);
        self.ms("cluster.executing_ms", entry.executing);
        self.add("cluster.tasks_per_query", entry.tasks.len() as f64);
        self.add("exec.peak_memory_bytes", entry.peak_memory_bytes as f64);
        for task in &entry.tasks {
            // The root stage's output is the result drain, not a shuffle.
            if Some(task.stage) != root_stage {
                self.add("shuffle.wire_bytes", task.output_wire_bytes as f64);
                self.add("shuffle.logical_bytes", task.output_logical_bytes as f64);
                self.add("shuffle.output_pages", task.output_pages as f64);
            }
            for op in &task.operators {
                let by_name = match op.name {
                    "ScanFilterProject" => Some("exec.scan_cpu_ms"),
                    "FusedPipeline" => Some("exec.fused_cpu_ms"),
                    "FilterProject" => Some("exec.filter_project_cpu_ms"),
                    "Aggregate" | "AggregatePartial" => Some("exec.aggregate_cpu_ms"),
                    "HashBuilder" => Some("exec.hash_builder_cpu_ms"),
                    "LookupJoin" => Some("exec.lookup_join_cpu_ms"),
                    "Sort" | "TopN" => Some("exec.sort_cpu_ms"),
                    "Window" => Some("exec.window_cpu_ms"),
                    "TableWriter" => Some("exec.table_writer_cpu_ms"),
                    "PartitionedOutput" => Some("exec.partitioned_output_cpu_ms"),
                    "ExchangeSource" => Some("exec.exchange_source_cpu_ms"),
                    _ => None,
                };
                if let Some(name) = by_name {
                    self.ms(name, op.cpu);
                }
                self.ms("exec.cpu_total_ms", op.cpu);
                self.ms("exec.blocked_ms", op.blocked);
                if op.name == "ExchangeSource" {
                    self.ms("exec.exchange_blocked_ms", op.blocked);
                }
                // Discrete scans publish only what they emit; fused scans
                // publish what they read (counted from the snapshot).
                if op.name == "ScanFilterProject" {
                    self.add("exec.leaf_input_rows", op.output_rows as f64);
                }
                self.add("exec.spilled_bytes", op.spilled_bytes as f64);
                self.add("exec.spill_events", op.spill_events as f64);
            }
        }
    }
}

pub fn traced_pass(prepared: &Prepared, size: &Size) -> Result<RunRecord, String> {
    let fx = &prepared.fixture;
    let workload = fx.workload;
    let n = (workload.trace_ops() / size.trace_ops_divisor).max(2);
    let threads = (fixture::WORKERS * fixture::THREADS_PER_WORKER) as f64;
    let err = |e: presto::common::PrestoError| e.to_string();

    // First replay, tracing off: the engine's own clocks and counters,
    // undisturbed. Its op wall is also the base of `trace.overhead_frac`.
    // Target tables are made before, and read back after, the two counter
    // snapshots, so the deltas hold the ops and nothing else.
    let calls = prepared.calls(prepared.ops.iter().cycle().take(n))?;
    let before = counters(prepared);
    let mut sums = Sums::default();
    let mut rows_returned = 0u64;
    let mut execute_wall = Duration::ZERO;
    let mut samples = Vec::new();
    for call in &calls {
        let sample = prepared.execute(call);
        execute_wall += sample.latency;
        if let Some(entry) = sample.query.and_then(|q| fx.cluster.query_history().get(q)) {
            rows_returned += entry.rows_returned;
            sums.history(&entry);
        }
        samples.push(sample);
    }
    let quiescence = Quiescence::wait(fx);
    let after = counters(prepared);
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let mut failed = samples.iter().filter(|s| !s.ok).count();
    failed += prepared.count_bad_targets(&calls, &samples)?;

    // Second replay, traced: the harness calls each layer itself, so the
    // engine's one `planning` phase splits into parse/analyze/optimize/
    // fragment, then lets the engine run the statement.
    let calls = prepared.calls(prepared.ops.iter().cycle().take(n))?;
    let mut samples = Vec::new();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let (mut op_wall, mut harness_planning) = (Duration::ZERO, Duration::ZERO);
    let catalogs = fx.cluster.catalogs();
    let session = &fx.session;
    for call in &calls {
        let sql = &call.sql;
        let root = tracer.open("op", None, call.index);
        let (stmt, d) = tracer.span("sql.parse", root, || parse_statement(sql));
        let stmt = stmt.map_err(err)?;
        sums.us("sql.parse_us", d);
        let (logical, d) = tracer.span("planner.analyze", root, || {
            Analyzer::new(catalogs, session).analyze(&stmt)
        });
        sums.us("planner.analyze_us", d);
        harness_planning += d;
        let logical = logical.map_err(err)?;
        let (optimized, d) = tracer.span("planner.optimize", root, || {
            // As `planner::plan_statement` does: ids above the analyzer's.
            let mut ids = PlanNodeIdAllocator::new();
            (0..10_000).for_each(|_| {
                ids.next_id();
            });
            optimize(logical, session, catalogs, &mut ids)
        });
        sums.us("planner.optimize_us", d);
        harness_planning += d;
        let optimized = optimized.map_err(err)?;
        let (plan, d) = tracer.span("planner.fragment", root, || {
            fragment_plan(optimized, session, catalogs)
        });
        sums.us("planner.fragment_us", d);
        harness_planning += d;
        let plan = plan.map_err(err)?;
        sums.add("planner.fragments", plan.fragments.len() as f64);
        sums.add("planner.shuffles", plan.shuffle_count() as f64);
        sums.add("planner.dynamic_filters", plan.dynamic_filters.len() as f64);
        sums.add(
            "planner.fused_chains",
            plan.fused_chains.iter().filter(|c| c.fused()).count() as f64,
        );
        let started = Instant::now();
        let (out, _) = tracer.span("cluster.execute", root, || {
            fx.cluster.execute_with_session(sql, session)
        });
        op_wall += tracer.close(root);
        samples.push(prepared.check(call, out, started));
    }
    let traced_quiescence = Quiescence::wait(fx);
    failed += samples.iter().filter(|s| !s.ok).count();
    failed += prepared.count_bad_targets(&calls, &samples)?;

    // The floor every query pays: parse, plan, schedule and drain of a
    // query that reads nothing.
    let floor_us = median(
        (0..50)
            .map(|_| {
                let started = Instant::now();
                let _ = black_box(fx.cluster.execute_with_session("SELECT 1", session));
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    );

    let per_op = |v: f64| v / n as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut m: BTreeMap<&'static str, f64> =
        sums.0.iter().map(|(name, v)| (*name, per_op(*v))).collect();
    let planning_ms = sums.get("cluster.planning_ms");
    m.insert(
        "planner.crosscheck_frac",
        ratio(harness_planning.as_secs_f64() * 1e3, planning_ms),
    );
    m.insert("cluster.floor_us", floor_us);
    m.insert(
        "cluster.worker_busy_frac",
        ratio(
            delta("busy_nanos") * 1e-9,
            execute_wall.as_secs_f64() * threads,
        ),
    );
    m.insert("cluster.mlfq_quanta", per_op(delta("quanta")));
    m.insert("cluster.mlfq_demotions", per_op(delta("demotions")));
    let snap = fx.cluster.metrics_snapshot();
    m.insert(
        "cluster.pool_peak_bytes",
        snap.workers
            .iter()
            .map(|w| w.memory.peak_general + w.memory.peak_reserved)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("cluster.revocation_requests", per_op(delta("revocations")));
    m.insert(
        "cluster.df_splits_pruned",
        per_op(delta("df_splits_pruned")),
    );
    m.insert(
        "cluster.df_rows_filtered",
        per_op(delta("df_rows_filtered")),
    );
    m.insert("cluster.df_wait_ms", per_op(delta("df_wait_nanos") * 1e-6));
    m.insert("cluster.leaked_tasks", quiescence.leaked_tasks as f64);
    m.insert(
        "cluster.leaked_pool_bytes",
        quiescence.leaked_pool_bytes as f64,
    );
    // The client's wall less the engine's planning is execution; what
    // operator CPU spread over every executor thread does not cover is
    // unattributed: scheduling, split feed, result drain, imbalance.
    // (`exec.blocked_ms` sums over drivers that wait concurrently, so it
    // cannot be subtracted from a wall time.)
    let execute_self_ms = execute_wall.as_secs_f64() * 1e3 - planning_ms;
    let covered_ms = sums.get("exec.cpu_total_ms") / threads;
    m.insert(
        "cluster.unattributed_ms",
        per_op((execute_self_ms - covered_ms).max(0.0)),
    );
    *m.entry("exec.leaf_input_rows").or_insert(0.0) += per_op(delta("fused_scan_rows"));
    m.insert(
        "exec.spill_bytes_per_event",
        ratio(
            sums.get("exec.spilled_bytes"),
            sums.get("exec.spill_events"),
        ),
    );
    m.insert("exec.spill_files_left", quiescence.spill_files_left as f64);
    m.insert(
        "shuffle.bytes_per_page",
        ratio(
            sums.get("shuffle.wire_bytes"),
            sums.get("shuffle.output_pages"),
        ),
    );
    m.insert("shuffle.retries", per_op(delta("shuffle_retries")));
    m.insert("porc.bytes_read", per_op(delta("porc_bytes")));
    m.insert("porc.cells_loaded", per_op(delta("porc_cells")));
    m.insert("porc.stripes_read", per_op(delta("porc_read")));
    m.insert("porc.stripes_pruned", per_op(delta("porc_pruned")));
    m.insert("porc.footer_reads", per_op(delta("porc_footers")));
    m.insert(
        "connectors.sharded_rows_scanned",
        ratio(delta("sharded_rows"), rows_returned as f64),
    );
    let hit_rate = |hits: &str, misses: &str| ratio(delta(hits), delta(hits) + delta(misses));
    m.insert(
        "cache.footer_hit_rate",
        hit_rate("footer_hits", "footer_misses"),
    );
    m.insert(
        "cache.metastore_hit_rate",
        hit_rate("metastore_hits", "metastore_misses"),
    );
    m.insert(
        "cache.split_listing_hit_rate",
        hit_rate("listing_hits", "listing_misses"),
    );
    m.insert("cache.evictions", delta("cache_evictions"));
    m.insert(
        "cache.bytes",
        snap.caches.iter().map(|c| c.bytes).sum::<u64>() as f64,
    );
    m.insert("setup.datagen_s", prepared.setup.datagen_s);
    m.insert("setup.load_s", prepared.setup.load_s);
    m.insert("setup.cluster_start_s", prepared.setup.cluster_start_s);
    m.insert("harness.verify_s", prepared.verify_s);
    m.insert(
        "trace.overhead_frac",
        ratio(
            op_wall.as_secs_f64() - execute_wall.as_secs_f64(),
            execute_wall.as_secs_f64(),
        ),
    );
    kernels(prepared, size, &mut m)?;

    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    tracer.write(&out_dir().join(format!("{}{}.trace.json", size.label, workload.name())))?;

    // Every per-layer name is reported on every workload; a layer the
    // workload does not touch reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    for q in [&quiescence, &traced_quiescence] {
        if !q.is_clean() {
            return Err(format!(
                "cluster not quiescent after the traced pass: {q:?}"
            ));
        }
    }
    Ok(RunRecord {
        workload,
        trace: true,
        attempted: 2 * n,
        failed: failed.min(2 * n),
        metrics,
        clients: 1,
        setup_reps: prepared.setup_reps,
        wall_s: op_wall.as_secs_f64(),
        templates: Vec::new(),
    })
}

/// Run `f` repeatedly for about `millis` and return the median seconds
/// per call.
fn time_calls(millis: u64, mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(millis);
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(times)
}

/// Direct calls into `expr`, `page` and `porc` over the same lineitem
/// pages on every workload: the layers' speed with no cluster around them.
fn kernels(
    prepared: &Prepared,
    size: &Size,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let generator = TpchGenerator::new(size.kernel_scale);
    let schema = generator.lineitem_schema();
    let pages = generator.lineitem();
    let rows: usize = pages.iter().map(Page::row_count).sum();
    let bytes: usize = pages.iter().map(Page::size_in_bytes).sum();
    let column = |name: &str| {
        let i = schema.index_of(name).expect("lineitem column");
        Expr::column(i, schema.data_type(i))
    };

    // The q6 conjunct and two projections.
    let filter = Expr::and(vec![
        Expr::cmp(CmpOp::Ge, column("discount"), Expr::literal(0.05f64)),
        Expr::cmp(CmpOp::Le, column("discount"), Expr::literal(0.07f64)),
        Expr::cmp(CmpOp::Lt, column("quantity"), Expr::literal(24.0f64)),
    ]);
    let revenue = Expr::arith(ArithOp::Mul, column("extendedprice"), column("discount"));
    let net = Expr::arith(
        ArithOp::Mul,
        column("extendedprice"),
        Expr::arith(ArithOp::Sub, Expr::literal(1.0f64), column("discount")),
    );
    debug_assert_eq!(revenue.data_type(), DataType::Double);
    let mut processor = PageProcessor::new(Some(&filter), &[revenue, net], &Session::default());
    let mut failure = None;
    let s = time_calls(size.kernel_millis, || {
        for page in &pages {
            match processor.process(page) {
                Ok(out) => {
                    black_box(out);
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
    });
    m.insert("expr.filter_project_mrows_s", rows as f64 / s / 1e6);

    let min_bytes = Session::default().shuffle_compression_min_bytes;
    let s = time_calls(size.kernel_millis, || {
        for page in &pages {
            black_box(frame_page(page, min_bytes));
        }
    });
    m.insert("page.frame_encode_mb_s", bytes as f64 / s / 1e6);
    let frames: Vec<_> = pages.iter().map(|p| frame_page(p, min_bytes)).collect();
    let s = time_calls(size.kernel_millis, || {
        for frame in &frames {
            match decode_framed_page(frame) {
                Ok(page) => {
                    black_box(page);
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
    });
    m.insert("page.frame_decode_mb_s", bytes as f64 / s / 1e6);

    let path = prepared.fixture.scratch("kernel.porc");
    let s = time_calls(size.kernel_millis, || {
        let written = PorcWriter::create(&path, schema.clone(), WriterOptions::default()).and_then(
            |mut w| {
                pages.iter().try_for_each(|p| w.append(p))?;
                w.finish()
            },
        );
        if let Err(e) = written {
            failure = Some(e.to_string());
        }
    });
    m.insert("porc.write_mb_s", bytes as f64 / s / 1e6);
    let all_columns: Vec<usize> = (0..schema.len()).collect();
    let s = time_calls(size.kernel_millis, || {
        let read = PorcReader::open(&path, Arc::new(IoStats::new())).and_then(|reader| {
            (0..reader.stripe_count()).try_for_each(|stripe| {
                black_box(reader.read_stripe(stripe, &all_columns, false)?);
                Ok(())
            })
        });
        if let Err(e) = read {
            failure = Some(e.to_string());
        }
    });
    m.insert("porc.read_mrows_s", rows as f64 / s / 1e6);
    std::fs::remove_file(&path).ok();
    failure.map_or(Ok(()), Err)
}
