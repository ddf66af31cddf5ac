//! §IV-E2 shuffle data-plane benchmark: the coalescing partitioned-output
//! writer and the concurrent non-blocking exchange fetcher against faithful
//! replicas of the previous paths.
//!
//! Scenario 1 (sink): hash-partitioned output across consumer counts
//! {4, 16, 64}. The baseline replica shatters every input page into up to
//! `consumers` fragments and serializes each eagerly (the old
//! `OutputRouting::Hash` arm); the new path is the [`PagePartitioner`]
//! scatter-and-coalesce. Expected shape: ≥ 2× throughput at 64 consumers
//! and mean delivered page rows ≥ half the target page size.
//!
//! Scenario 2 (fetch): N pre-filled sources drained by K driver threads at
//! injected latencies {0, 1ms}. The baseline replica is the old
//! sleep-under-the-shared-mutex client (every driver convoys behind one
//! lock that holds the simulated round trip); the new path issues
//! per-request deadlines and overlaps them. Expected shape: wall-clock
//! sub-linear in the source count once latency dominates.
//!
//! ```sh
//! cargo run --release -p presto-bench --bin shuffle_bench [-- --smoke]
//! ```
//!
//! Emits `BENCH_shuffle.json` in the working directory.

use presto_bench::report::BenchReport;
use presto_common::json::Json;
use presto_exec::partitioned_output::PagePartitioner;
use presto_page::hash::hash_columns;
use presto_page::{Block, LongBlock, Page};
use presto_shuffle::{ExchangeClient, OutputBuffer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic two-column (key, value) pages.
fn make_input(total_rows: usize, rows_per_page: usize, cardinality: usize) -> Vec<Page> {
    let mut pages = Vec::new();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut produced = 0usize;
    while produced < total_rows {
        let n = rows_per_page.min(total_rows - produced);
        let mut keys = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            keys.push((state % cardinality as u64) as i64);
            values.push((state >> 32) as i64);
        }
        pages.push(Page::new(vec![
            Block::from(LongBlock::from_values(keys)),
            Block::from(LongBlock::from_values(values)),
        ]));
        produced += n;
    }
    pages
}

// --- Scenario 1: partitioned output sink -------------------------------

/// Faithful replica of the pre-coalescing hash route: one filter + eager
/// serialize per (page, destination) pair.
fn baseline_sink(pages: &[Page], buffer: &OutputBuffer, consumers: usize) {
    for page in pages {
        let hashes = hash_columns(page, &[0]);
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); consumers];
        for (i, h) in hashes.iter().enumerate() {
            positions[(h % consumers as u64) as usize].push(i as u32);
        }
        for (p, pos) in positions.iter().enumerate() {
            if !pos.is_empty() {
                buffer.enqueue(p, page.filter(pos));
            }
        }
    }
    buffer.set_no_more_pages();
}

/// The new path: scatter into per-partition accumulators, flush at target.
fn coalescing_sink(pages: &[Page], buffer: &OutputBuffer, consumers: usize, target_rows: usize) {
    let mut partitioner = PagePartitioner::new(vec![0], consumers, target_rows, 1 << 20);
    for page in pages {
        for (p, out) in partitioner.route(page.clone()) {
            buffer.enqueue(p, out);
        }
    }
    for (p, out) in partitioner.finish() {
        buffer.enqueue(p, out);
    }
    buffer.set_no_more_pages();
}

/// Drain every partition through the token protocol, decoding frames.
fn drain(buffer: &OutputBuffer, consumers: usize) -> (usize, usize, u64) {
    let (mut pages, mut rows, mut key_sum) = (0usize, 0usize, 0u64);
    for p in 0..consumers {
        let mut token = 0u64;
        loop {
            let r = buffer.poll(p, token, 1 << 20);
            token = r.next_token;
            for frame in r.pages {
                let page = frame.into_page().expect("valid frame");
                pages += 1;
                rows += page.row_count();
                for i in 0..page.row_count() {
                    key_sum = key_sum.wrapping_add(page.block(0).i64_at(i) as u64);
                }
            }
            if r.finished {
                break;
            }
        }
    }
    (pages, rows, key_sum)
}

struct SinkRun {
    elapsed: Duration,
    delivered_pages: usize,
    delivered_rows: usize,
    key_sum: u64,
    wire_bytes: u64,
}

fn run_sink(
    pages: &[Page],
    consumers: usize,
    target_rows: usize,
    compression_min: usize,
    coalesce: bool,
) -> SinkRun {
    let buffer = OutputBuffer::with_placement(vec![false; consumers], usize::MAX, compression_min);
    let start = Instant::now();
    if coalesce {
        coalescing_sink(pages, &buffer, consumers, target_rows);
    } else {
        baseline_sink(pages, &buffer, consumers);
    }
    let elapsed = start.elapsed();
    let wire = buffer.totals().wire_bytes;
    let (delivered_pages, delivered_rows, key_sum) = drain(&buffer, consumers);
    SinkRun {
        elapsed,
        delivered_pages,
        delivered_rows,
        key_sum,
        wire_bytes: wire,
    }
}

// --- Scenario 2: exchange fetch ----------------------------------------

/// Faithful replica of the old exchange client: one shared mutex, the
/// simulated round-trip slept *while holding it*, pages decoded under it,
/// token advanced before the batch fully decodes.
struct BaselineFetcher {
    sources: Vec<(Arc<OutputBuffer>, u64, bool)>,
    cursor: usize,
    latency: Duration,
}

impl BaselineFetcher {
    fn poll_progress(&mut self) -> Vec<Page> {
        let n = self.sources.len();
        let mut out = Vec::new();
        for _ in 0..n {
            let idx = self.cursor % n;
            self.cursor += 1;
            let (buffer, token, finished) = &mut self.sources[idx];
            if *finished {
                continue;
            }
            if !self.latency.is_zero() {
                std::thread::sleep(self.latency); // the convoy
            }
            let r = buffer.poll(0, *token, 1 << 20);
            *token = r.next_token;
            *finished = r.finished;
            for frame in r.pages {
                out.push(frame.into_page().expect("valid frame"));
            }
        }
        out
    }

    fn is_finished(&self) -> bool {
        self.sources.iter().all(|(_, _, f)| *f)
    }
}

fn fill_sources(
    n_sources: usize,
    pages_per_source: usize,
    rows_per_page: usize,
) -> Vec<Arc<OutputBuffer>> {
    (0..n_sources)
        .map(|s| {
            let buffer = OutputBuffer::new(1, usize::MAX);
            for page in make_input(pages_per_source * rows_per_page, rows_per_page, 1024 + s) {
                buffer.enqueue(0, page);
            }
            buffer.set_no_more_pages();
            buffer
        })
        .collect()
}

fn run_baseline_fetch(
    sources: Vec<Arc<OutputBuffer>>,
    drivers: usize,
    latency: Duration,
) -> (usize, Duration) {
    let fetcher = Arc::new(parking_lot_mutex(BaselineFetcher {
        sources: sources.into_iter().map(|b| (b, 0, false)).collect(),
        cursor: 0,
        latency,
    }));
    let start = Instant::now();
    let rows: usize = std::thread::scope(|scope| {
        (0..drivers)
            .map(|_| {
                let fetcher = Arc::clone(&fetcher);
                scope.spawn(move || {
                    let mut rows = 0usize;
                    loop {
                        let mut guard = fetcher.lock();
                        if guard.is_finished() {
                            break;
                        }
                        let pages = guard.poll_progress();
                        drop(guard);
                        rows += pages.iter().map(Page::row_count).sum::<usize>();
                    }
                    rows
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("driver"))
            .sum()
    });
    (rows, start.elapsed())
}

fn run_new_fetch(
    sources: Vec<Arc<OutputBuffer>>,
    drivers: usize,
    latency: Duration,
) -> (usize, Duration) {
    let client = Arc::new(ExchangeClient::with_config(64 << 20, latency, 16, 3));
    for source in sources {
        client.add_source(source, 0);
    }
    let start = Instant::now();
    let rows: usize = std::thread::scope(|scope| {
        (0..drivers)
            .map(|_| {
                let client = Arc::clone(&client);
                scope.spawn(move || {
                    let mut rows = 0usize;
                    while !client.is_finished() {
                        let progressed = client.poll_progress().expect("poll");
                        while let Some(page) = client.next_page() {
                            rows += page.row_count();
                        }
                        if !progressed {
                            // Virtual requests in flight: yield briefly, as
                            // the worker's blocked-driver backoff would.
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                    rows
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("driver"))
            .sum()
    });
    (rows, start.elapsed())
}

fn parking_lot_mutex<T>(value: T) -> parking_lot::Mutex<T> {
    parking_lot::Mutex::new(value)
}

fn mrps(rows: usize, elapsed: Duration) -> String {
    format!(
        "{:7.2} Mrows/s",
        rows as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fetch_only = std::env::args().any(|a| a == "--fetch-only");
    // Smoke mode runs the same paths at trivial sizes so the suite can be
    // exercised from `cargo test -q` (tier-1) without release-build timing.
    let (total_rows, rows_per_page, target_rows, fetch_pages, reps) = if smoke {
        // Enough rows that even 64 consumers fill target-sized pages.
        (160_000, 128, 1024, 8, 1)
    } else {
        (2_000_000, 256, 1024, 128, 3)
    };
    println!(
        "shuffle_bench: {total_rows} rows in {rows_per_page}-row pages, target {target_rows} \
         rows/page{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut sink_report = Vec::new();
    let mut compression_report = Json::Null;
    let mut fetch_report = Vec::new();

    println!("\nhash-partitioned sink (shatter baseline vs coalescing writer):");
    let input = make_input(total_rows, rows_per_page, 100_000);
    for consumers in [4usize, 16, 64] {
        if fetch_only {
            break;
        }
        let mut base_best: Option<SinkRun> = None;
        let mut new_best: Option<SinkRun> = None;
        for _ in 0..reps {
            let b = run_sink(&input, consumers, target_rows, usize::MAX, false);
            let n = run_sink(&input, consumers, target_rows, usize::MAX, true);
            assert_eq!(b.delivered_rows, n.delivered_rows, "row counts must agree");
            assert_eq!(b.key_sum, n.key_sum, "key checksums must agree");
            assert_eq!(n.delivered_rows, total_rows, "no rows lost");
            if base_best.as_ref().is_none_or(|x| b.elapsed < x.elapsed) {
                base_best = Some(b);
            }
            if new_best.as_ref().is_none_or(|x| n.elapsed < x.elapsed) {
                new_best = Some(n);
            }
        }
        let (b, n) = (base_best.expect("baseline"), new_best.expect("new"));
        let mean_rows = n.delivered_rows / n.delivered_pages.max(1);
        let base_mean = b.delivered_rows / b.delivered_pages.max(1);
        println!(
            "  {consumers:>3} consumers  baseline {} ({:>6} pages, mean {:>5} rows)  \
             coalescing {} ({:>5} pages, mean {:>5} rows)  speedup {:4.2}x",
            mrps(b.delivered_rows, b.elapsed),
            b.delivered_pages,
            base_mean,
            mrps(n.delivered_rows, n.elapsed),
            n.delivered_pages,
            mean_rows,
            b.elapsed.as_secs_f64() / n.elapsed.as_secs_f64().max(1e-9),
        );
        sink_report.push(Json::obj([
            ("consumers", Json::Int(consumers as i64)),
            ("baseline_ms", Json::Num(b.elapsed.as_secs_f64() * 1e3)),
            ("coalescing_ms", Json::Num(n.elapsed.as_secs_f64() * 1e3)),
            (
                "speedup",
                Json::Num(b.elapsed.as_secs_f64() / n.elapsed.as_secs_f64().max(1e-9)),
            ),
            ("mean_page_rows", Json::Int(mean_rows as i64)),
            ("baseline_mean_page_rows", Json::Int(base_mean as i64)),
        ]));
        if smoke {
            assert!(
                mean_rows >= target_rows / 2,
                "coalescing must deliver ≥ target/2 mean page rows, got {mean_rows}"
            );
        }
    }

    println!("\nwire compression (coalescing writer, 16 consumers):");
    if !fetch_only {
        let raw = run_sink(&input, 16, target_rows, usize::MAX, true);
        let compressed = run_sink(&input, 16, target_rows, 8 << 10, true);
        assert_eq!(
            raw.key_sum, compressed.key_sum,
            "compression must be lossless"
        );
        println!(
            "  raw {:>11} wire bytes  lz {:>11} wire bytes  ratio {:4.2}x  ({} vs {})",
            raw.wire_bytes,
            compressed.wire_bytes,
            raw.wire_bytes as f64 / compressed.wire_bytes.max(1) as f64,
            mrps(raw.delivered_rows, raw.elapsed),
            mrps(compressed.delivered_rows, compressed.elapsed),
        );
        compression_report = Json::obj([
            ("raw_wire_bytes", Json::Int(raw.wire_bytes as i64)),
            ("lz_wire_bytes", Json::Int(compressed.wire_bytes as i64)),
            (
                "ratio",
                Json::Num(raw.wire_bytes as f64 / compressed.wire_bytes.max(1) as f64),
            ),
        ]);
    }

    println!("\nexchange fetch (sleep-under-lock baseline vs concurrent fetcher):");
    let drivers = 4;
    for (n_sources, latency) in [
        (8usize, Duration::ZERO),
        (8, Duration::from_millis(1)),
        (16, Duration::from_millis(1)),
    ] {
        if smoke && latency > Duration::ZERO && n_sources > 8 {
            continue; // keep smoke wall-clock tiny
        }
        let expect_rows = n_sources * fetch_pages * rows_per_page;
        let (mut base_elapsed, mut new_elapsed) = (Duration::MAX, Duration::MAX);
        for _ in 0..reps {
            let (base_rows, b) = run_baseline_fetch(
                fill_sources(n_sources, fetch_pages, rows_per_page),
                drivers,
                latency,
            );
            let (new_rows, n) = run_new_fetch(
                fill_sources(n_sources, fetch_pages, rows_per_page),
                drivers,
                latency,
            );
            assert_eq!(base_rows, expect_rows, "baseline must deliver all rows");
            assert_eq!(new_rows, expect_rows, "fetcher must deliver all rows");
            base_elapsed = base_elapsed.min(b);
            new_elapsed = new_elapsed.min(n);
        }
        println!(
            "  {n_sources:>2} sources @ {:>5.1?} latency, {drivers} drivers  \
             baseline {:>9.2?}  concurrent {:>9.2?}  speedup {:4.2}x",
            latency,
            base_elapsed,
            new_elapsed,
            base_elapsed.as_secs_f64() / new_elapsed.as_secs_f64().max(1e-9),
        );
        fetch_report.push(Json::obj([
            ("sources", Json::Int(n_sources as i64)),
            ("latency_ms", Json::Num(latency.as_secs_f64() * 1e3)),
            ("drivers", Json::Int(drivers as i64)),
            ("baseline_ms", Json::Num(base_elapsed.as_secs_f64() * 1e3)),
            ("concurrent_ms", Json::Num(new_elapsed.as_secs_f64() * 1e3)),
            (
                "speedup",
                Json::Num(base_elapsed.as_secs_f64() / new_elapsed.as_secs_f64().max(1e-9)),
            ),
        ]));
    }
    println!("\nexpected shape: coalescing ≥ 2x the shatter baseline at 64 consumers with");
    println!("near-target mean page rows; with 1ms injected latency the concurrent fetcher's");
    println!("wall-clock stays sub-linear in source count (overlapped virtual round trips).");

    BenchReport::new("shuffle")
        .config(
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        )
        .config("total_rows", Json::Int(total_rows as i64))
        .config("rows_per_page", Json::Int(rows_per_page as i64))
        .config("target_rows", Json::Int(target_rows as i64))
        .metric("sink", Json::Arr(sink_report))
        .metric("compression", compression_report)
        .metric("fetch", Json::Arr(fetch_report))
        .write();
}
