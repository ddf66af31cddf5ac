//! Stress tests for the concurrent exchange fetcher (§IV-E2): many driver
//! threads draining many sources under injected latency and chaos decode
//! failures must deliver every page exactly once — framed or handed over
//! from a producer on the consumer's worker — and the per-request
//! deadline model must keep a fetch round's wall-clock sub-linear in the
//! source count (virtual round trips overlap instead of serializing).

use presto_common::chaos::{Effect, FaultPlane, Site, Trigger};
use presto_page::{frame_page, Block, LongBlock, Page};
use presto_shuffle::{ExchangeClient, OutputBuffer};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One source's pages, every row value globally unique: `source << 20 | seq`.
fn fill_source(source: usize, pages: usize, rows_per_page: usize) -> Arc<OutputBuffer> {
    fill(
        OutputBuffer::new(1, usize::MAX),
        source,
        pages,
        rows_per_page,
    )
}

/// Like [`fill_source`], but handing its pages over unframed, as a
/// producer on the consumer's worker does.
fn fill_local_source(source: usize, pages: usize, rows_per_page: usize) -> Arc<OutputBuffer> {
    let buffer = OutputBuffer::with_placement(vec![true], usize::MAX, usize::MAX);
    fill(buffer, source, pages, rows_per_page)
}

fn fill(
    buffer: Arc<OutputBuffer>,
    source: usize,
    pages: usize,
    rows_per_page: usize,
) -> Arc<OutputBuffer> {
    for p in 0..pages {
        buffer.enqueue(0, source_page(source, p, rows_per_page));
    }
    buffer.set_no_more_pages();
    buffer
}

/// Page `p` of `source`.
fn source_page(source: usize, p: usize, rows_per_page: usize) -> Page {
    let values: Vec<i64> = (0..rows_per_page)
        .map(|r| ((source << 20) | (p * rows_per_page + r)) as i64)
        .collect();
    Page::new(vec![Block::from(LongBlock::from_values(values))])
}

/// Every `n`th frame decode fails transiently.
fn decode_faults(n: u64) -> Option<Arc<FaultPlane>> {
    let plane = FaultPlane::new(0).rule(Site::FrameDecode, Trigger::Every(n), Effect::Transient);
    Some(Arc::new(plane))
}

fn drain_with_drivers(client: &Arc<ExchangeClient>, drivers: usize) -> Vec<i64> {
    std::thread::scope(|scope| {
        (0..drivers)
            .map(|_| {
                let client = Arc::clone(client);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    while !client.is_finished() {
                        let progressed = client.poll_progress().expect("within retry budget");
                        while let Some(page) = client.next_page() {
                            for i in 0..page.row_count() {
                                seen.push(page.block(0).i64_at(i));
                            }
                        }
                        if !progressed {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    seen
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("driver thread"))
            .collect()
    })
}

#[test]
fn multi_driver_drain_under_latency_and_chaos_loses_and_duplicates_nothing() {
    drain_exactly_once(|_| false);
}

/// The same run with every other source on the consumer's worker. Pages
/// handed over go through the token protocol like frames do, and every
/// one still arrives exactly once.
#[test]
fn exactly_once_with_half_the_sources_local() {
    drain_exactly_once(|s| s % 2 == 0);
}

fn drain_exactly_once(local: fn(usize) -> bool) {
    let (sources, pages, rows, drivers) = (6usize, 24usize, 32usize, 4usize);
    // Capacity of ~one frame forces many single-frame fetch batches, so a
    // chaos failure (every 7th decode) hits individual batches rather than
    // condemning every batch; 2ms simulated round trips overlap across
    // sources. Tokens must not advance past undecoded batches (the
    // at-least-once guarantee) while retries must not re-deliver decoded
    // ones.
    let one_frame = frame_page(&source_page(0, 0, rows), usize::MAX).len();
    let mut client = ExchangeClient::with_config(one_frame, Duration::from_millis(2), 8, 10);
    client.set_faults(decode_faults(7));
    let client = Arc::new(client);
    for s in 0..sources {
        let fill = if local(s) {
            fill_local_source
        } else {
            fill_source
        };
        client.add_source(fill(s, pages, rows), 0);
    }

    let delivered = drain_with_drivers(&client, drivers);

    let expected: HashSet<i64> = (0..sources)
        .flat_map(|s| (0..pages * rows).map(move |i| ((s << 20) | i) as i64))
        .collect();
    assert_eq!(
        delivered.len(),
        expected.len(),
        "row count must match exactly (no loss, no duplicates)"
    );
    let unique: HashSet<i64> = delivered.into_iter().collect();
    assert_eq!(unique, expected, "every row delivered exactly once");
    assert_eq!(client.buffered_bytes(), 0, "drained client retains nothing");
    let received = client.received();
    let local_sources = (0..sources).filter(|&s| local(s)).count();
    assert_eq!(received.local_pages as usize, local_sources * pages);
}

#[test]
fn fetch_round_wall_clock_is_sublinear_in_source_count() {
    // 8 sources at 20ms simulated latency. A serial fetcher pays at least
    // 2 round trips per source (data + final ack) = 8 × 2 × 20ms = 320ms.
    // The deadline model starts all 8 virtual requests in one pass, so the
    // whole drain costs a few *overlapped* round trips, far under N × RTT.
    let (sources, latency) = (8usize, Duration::from_millis(20));
    let client = Arc::new(ExchangeClient::with_config(64 << 20, latency, 16, 3));
    for s in 0..sources {
        client.add_source(fill_source(s, 4, 16), 0);
    }

    let start = Instant::now();
    let delivered = drain_with_drivers(&client, 1);
    let elapsed = start.elapsed();

    assert_eq!(delivered.len(), sources * 4 * 16, "all rows fetched");
    let serial_floor = latency * 2 * sources as u32; // 320ms
    assert!(
        elapsed < serial_floor / 2,
        "drain took {elapsed:?}; a serial fetcher needs ≥ {serial_floor:?} — \
         round trips must overlap"
    );
}

#[test]
fn single_poll_pass_issues_all_requests_without_blocking() {
    // One poll_progress call must start every source's virtual request and
    // return immediately — never sleep the simulated latency inline.
    let latency = Duration::from_millis(50);
    let client = Arc::new(ExchangeClient::with_config(64 << 20, latency, 16, 3));
    for s in 0..4 {
        client.add_source(fill_source(s, 2, 8), 0);
    }
    let start = Instant::now();
    client.poll_progress().expect("first pass");
    assert!(
        start.elapsed() < Duration::from_millis(40),
        "poll_progress must not block on injected latency"
    );
}

#[test]
fn cancel_mid_drain_under_chaos_stops_all_drivers_and_releases_buffers() {
    // Four drivers drain four sources through a flaky transport (every 5th
    // decode fails, so several sources sit in retry-backoff windows at any
    // moment). Cancelling mid-drain must stop polling AND retrying at once:
    // no driver keeps a dead query's retry budget alive.
    let mut client = ExchangeClient::with_config(512, Duration::from_millis(1), 8, 10);
    client.set_faults(decode_faults(5));
    let client = Arc::new(client);
    client.set_retry_backoff(Duration::from_micros(100));
    for s in 0..4 {
        client.add_source(fill_source(s, 64, 32), 0);
    }
    let canceller = Arc::clone(&client);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let client = Arc::clone(&client);
            scope.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !client.is_finished() {
                    assert!(Instant::now() < deadline, "driver failed to observe cancel");
                    if client.poll_progress().is_err() {
                        break;
                    }
                    while client.next_page().is_some() {}
                    std::thread::sleep(Duration::from_micros(100));
                }
            });
        }
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            canceller.cancel();
        });
    });
    assert!(client.is_cancelled());
    assert!(
        client.is_finished(),
        "a cancelled client reports finished so exchange drivers retire"
    );
    // Drain anything a racing decode slipped in after the cancel's sweep;
    // teardown must end with zero retained wire bytes.
    while client.next_page().is_some() {}
    assert_eq!(client.buffered_bytes(), 0, "cancel releases buffered pages");
}

#[test]
fn aborted_source_mid_drain_surfaces_worker_failed_to_every_driver() {
    use presto_common::ErrorCode;
    // Source 0's producer "crashes" mid-stream: its buffer aborts without
    // ever finishing. Every driver must get the retryable WorkerFailed
    // error instead of blocking forever or burning the decode-retry budget.
    let client = Arc::new(ExchangeClient::with_config(
        64 << 10,
        Duration::from_millis(1),
        8,
        3,
    ));
    let lost = OutputBuffer::new(1, usize::MAX);
    let values: Vec<i64> = (0..8).collect();
    lost.enqueue(
        0,
        Page::new(vec![Block::from(LongBlock::from_values(values))]),
    );
    client.add_source(Arc::clone(&lost), 0);
    for s in 1..4 {
        client.add_source(fill_source(s, 8, 8), 0);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let client = Arc::clone(&client);
                scope.spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    loop {
                        assert!(Instant::now() < deadline, "worker loss never surfaced");
                        match client.poll_progress() {
                            Err(e) => break e,
                            Ok(_) => {
                                while client.next_page().is_some() {}
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        }
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(5));
            lost.abort();
        });
        for h in handles {
            let e = h.join().expect("driver thread");
            assert_eq!(e.code, ErrorCode::WorkerFailed, "{e}");
            assert!(e.is_retryable(), "worker loss is retryable upstream");
        }
    });
}
