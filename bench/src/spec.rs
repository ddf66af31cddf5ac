//! The benchmark's fixed vocabulary: the metric names and units the binary
//! prints. `BENCHMARK.json` at the repository root lists the same names
//! with their directions and regression bounds (`bench compare` reads them
//! from there); `tests/smoke.rs` fails if the two drift.

/// Length of the timed pass when `--seconds` is not given; `run_seconds`
/// in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;

/// `(name, unit)` of the client-visible metrics, measured with tracing
/// off. The failure share of ISSUE 11's table is reported as
/// `attempted`/`failed` in every result line instead of as a metric,
/// because a metric may never be 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
];

const ALL: &[&str] = &[
    "adhoc_scan",
    "star_join",
    "point_lookup",
    "etl_write",
    "spill_join",
];
const SCAN: &[&str] = &["adhoc_scan"];
const NONE: &[&str] = &[];

/// `(name, unit, workloads on which the value must repeat exactly run to
/// run)` of the per-layer metrics of the traced pass; per-op means unless
/// the glossary in `README.md` says otherwise.
pub const PER_LAYER: &[(&str, &str, &[&str])] = &[
    ("sql.parse_us", "us", NONE),
    ("planner.analyze_us", "us", NONE),
    ("planner.optimize_us", "us", NONE),
    ("planner.fragment_us", "us", NONE),
    ("planner.fragments", "count", ALL),
    ("planner.shuffles", "count", ALL),
    ("planner.dynamic_filters", "count", ALL),
    ("planner.fused_chains", "count", ALL),
    ("planner.crosscheck_frac", "fraction", NONE),
    ("cluster.queued_ms", "ms", NONE),
    ("cluster.planning_ms", "ms", NONE),
    ("cluster.executing_ms", "ms", NONE),
    ("cluster.floor_us", "us", NONE),
    ("cluster.tasks_per_query", "count", NONE),
    ("cluster.worker_busy_frac", "fraction", NONE),
    ("cluster.mlfq_quanta", "count", NONE),
    ("cluster.mlfq_demotions", "count", NONE),
    ("cluster.pool_peak_bytes", "bytes", NONE),
    ("cluster.revocation_requests", "count", NONE),
    ("cluster.df_splits_pruned", "count", NONE),
    ("cluster.df_rows_filtered", "rows", NONE),
    ("cluster.df_wait_ms", "ms", NONE),
    ("cluster.leaked_tasks", "count", ALL),
    ("cluster.leaked_pool_bytes", "bytes", ALL),
    ("cluster.unattributed_ms", "ms", NONE),
    ("exec.scan_cpu_ms", "ms", NONE),
    ("exec.fused_cpu_ms", "ms", NONE),
    ("exec.filter_project_cpu_ms", "ms", NONE),
    ("exec.aggregate_cpu_ms", "ms", NONE),
    ("exec.hash_builder_cpu_ms", "ms", NONE),
    ("exec.lookup_join_cpu_ms", "ms", NONE),
    ("exec.sort_cpu_ms", "ms", NONE),
    ("exec.window_cpu_ms", "ms", NONE),
    ("exec.table_writer_cpu_ms", "ms", NONE),
    ("exec.partitioned_output_cpu_ms", "ms", NONE),
    ("exec.exchange_source_cpu_ms", "ms", NONE),
    ("exec.cpu_total_ms", "ms", NONE),
    ("exec.blocked_ms", "ms", NONE),
    ("exec.exchange_blocked_ms", "ms", NONE),
    ("exec.leaf_input_rows", "rows", NONE),
    ("exec.peak_memory_bytes", "bytes", NONE),
    ("exec.spilled_bytes", "bytes", NONE),
    ("exec.spill_events", "count", NONE),
    ("exec.spill_bytes_per_event", "bytes", NONE),
    ("exec.spill_files_left", "count", ALL),
    ("expr.filter_project_mrows_s", "Mrows/s", NONE),
    ("shuffle.wire_bytes", "bytes", NONE),
    ("shuffle.logical_bytes", "bytes", NONE),
    ("shuffle.output_pages", "count", NONE),
    ("shuffle.bytes_per_page", "bytes", NONE),
    ("shuffle.retries", "count", NONE),
    ("page.frame_encode_mb_s", "MB/s", NONE),
    ("page.frame_decode_mb_s", "MB/s", NONE),
    ("porc.bytes_read", "bytes", NONE),
    ("porc.cells_loaded", "count", NONE),
    ("porc.stripes_read", "count", SCAN),
    ("porc.stripes_pruned", "count", SCAN),
    ("porc.footer_reads", "count", NONE),
    ("porc.read_mrows_s", "Mrows/s", NONE),
    ("porc.write_mb_s", "MB/s", NONE),
    ("connectors.sharded_rows_scanned", "rows/row", NONE),
    ("cache.footer_hit_rate", "fraction", NONE),
    ("cache.metastore_hit_rate", "fraction", NONE),
    ("cache.split_listing_hit_rate", "fraction", NONE),
    ("cache.evictions", "count", NONE),
    ("cache.bytes", "bytes", NONE),
    ("setup.datagen_s", "s", NONE),
    ("setup.load_s", "s", NONE),
    ("setup.cluster_start_s", "s", NONE),
    ("harness.verify_s", "s", NONE),
    ("trace.overhead_frac", "fraction", NONE),
];
