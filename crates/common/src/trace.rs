//! Bounded lock-free trace-event timeline (§VII).
//!
//! The paper's workers keep "recent history" of fine-grained runtime
//! events cheaply enough to leave enabled in production. This module is
//! the equivalent: a fixed-capacity ring of [`TraceEvent`]s written with a
//! per-slot seqlock (no mutex anywhere on the record path) and drained by
//! an exporter that renders Chrome `trace_event` JSON loadable in
//! `chrome://tracing` / Perfetto.
//!
//! Writers claim a slot with one `fetch_add` and publish the payload
//! between two releases of the slot's sequence word; readers validate the
//! sequence around the payload read and simply drop slots that were
//! mid-write. The ring overwrites oldest events — tracing never blocks and
//! never grows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What happened. The discriminants are stable (they travel through the
/// packed slot word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// One driver quantum on an executor thread (span; `dur` set).
    DriverQuantum = 0,
    /// A scan driver opened a split (instant).
    SplitStart = 1,
    /// A scan driver drained a split to completion (instant).
    SplitFinish = 2,
    /// A page entered a task's output buffer (instant).
    PageEnqueue = 3,
    /// A page left an exchange client's ready queue (instant).
    PageDequeue = 4,
    /// A memory pool granted a reservation delta (instant).
    MemoryGrant = 5,
    /// Memory was revoked/released back to a pool (instant).
    MemoryRevoke = 6,
}

impl TraceKind {
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::DriverQuantum => "driver_quantum",
            TraceKind::SplitStart => "split_start",
            TraceKind::SplitFinish => "split_finish",
            TraceKind::PageEnqueue => "page_enqueue",
            TraceKind::PageDequeue => "page_dequeue",
            TraceKind::MemoryGrant => "memory_grant",
            TraceKind::MemoryRevoke => "memory_revoke",
        }
    }

    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::DriverQuantum,
            1 => TraceKind::SplitStart,
            2 => TraceKind::SplitFinish,
            3 => TraceKind::PageEnqueue,
            4 => TraceKind::PageDequeue,
            5 => TraceKind::MemoryGrant,
            6 => TraceKind::MemoryRevoke,
            _ => return None,
        })
    }
}

/// One timeline event. `ts_nanos` is relative to the buffer's epoch (its
/// creation instant); spans carry `dur_nanos`, instants leave it zero.
/// `pid`/`tid` map onto Chrome's process/thread lanes (worker / query
/// here); `a` and `b` are kind-specific payloads (rows, bytes, deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: TraceKind,
    pub ts_nanos: u64,
    pub dur_nanos: u64,
    pub pid: u32,
    pub tid: u32,
    pub a: u64,
    pub b: u64,
}

/// One ring slot: a seqlock word plus the event packed into atomics so
/// concurrent wrap-around writes are racy-by-value, never UB.
struct Slot {
    /// Even = stable (value is 2*(wraps+1)), odd = write in progress.
    seq: AtomicU64,
    /// kind (low 8 bits) | pid << 8 | tid << 40 is too tight for u32 ids,
    /// so: word0 = kind | (pid as u64) << 8, word1 = tid.
    word0: AtomicU64,
    tid: AtomicU64,
    ts: AtomicU64,
    dur: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The bounded lock-free ring.
pub struct TraceBuffer {
    epoch: Instant,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceBuffer {
    /// Create a ring with `capacity` slots (rounded up to at least 16).
    pub fn new(capacity: usize) -> Arc<TraceBuffer> {
        let capacity = capacity.max(16);
        Arc::new(TraceBuffer {
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    word0: AtomicU64::new(0),
                    tid: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    dur: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (not clamped to capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events silently lost to ring wrap-around: every record beyond
    /// capacity overwrote the then-oldest slot. `head` is monotone, so
    /// this is exact accounting, not an estimate — exporters surface it so
    /// a truncated timeline is never mistaken for a complete one.
    pub fn overwritten_events(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Nanoseconds since the buffer's epoch, the `ts` domain of every
    /// event in this ring.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an instant event stamped now.
    pub fn record(&self, kind: TraceKind, pid: u32, tid: u32, a: u64, b: u64) {
        self.record_at(kind, self.now_nanos(), 0, pid, tid, a, b);
    }

    /// Record a span that started `dur_nanos` ago and ends now.
    pub fn record_span(&self, kind: TraceKind, dur_nanos: u64, pid: u32, tid: u32, a: u64, b: u64) {
        let end = self.now_nanos();
        self.record_at(
            kind,
            end.saturating_sub(dur_nanos),
            dur_nanos,
            pid,
            tid,
            a,
            b,
        );
    }

    /// Record with an explicit timestamp (testing, replay).
    #[allow(clippy::too_many_arguments)]
    pub fn record_at(
        &self,
        kind: TraceKind,
        ts_nanos: u64,
        dur_nanos: u64,
        pid: u32,
        tid: u32,
        a: u64,
        b: u64,
    ) {
        let n = self.slots.len() as u64;
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(idx % n) as usize];
        // Seqlock write: odd marks in-progress; the stable value encodes
        // the wrap generation so a reader that observes the same even
        // value before and after knows the payload is coherent.
        let stable = (idx / n + 1) * 2;
        slot.seq.store(stable - 1, Ordering::Release);
        slot.word0
            .store(kind as u8 as u64 | ((pid as u64) << 8), Ordering::Relaxed);
        slot.tid.store(tid as u64, Ordering::Relaxed);
        slot.ts.store(ts_nanos, Ordering::Relaxed);
        slot.dur.store(dur_nanos, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(stable, Ordering::Release);
    }

    /// Copy out every stable event, oldest first. Slots being written
    /// while we read are skipped (the writer wins).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let word0 = slot.word0.load(Ordering::Relaxed);
            let tid = slot.tid.load(Ordering::Relaxed);
            let ts = slot.ts.load(Ordering::Relaxed);
            let dur = slot.dur.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // overwritten while reading
            }
            let Some(kind) = TraceKind::from_u8((word0 & 0xff) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                kind,
                ts_nanos: ts,
                dur_nanos: dur,
                pid: (word0 >> 8) as u32,
                tid: tid as u32,
                a,
                b,
            });
        }
        out.sort_by_key(|e| e.ts_nanos);
        out
    }

    /// Render the current contents as Chrome `trace_event` JSON (the
    /// "JSON Array Format" wrapped in an object, which both
    /// `chrome://tracing` and Perfetto accept). Spans become `ph:"X"`
    /// complete events, instants `ph:"i"`; `ts`/`dur` are microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let events = self.snapshot();
        let mut out = String::with_capacity(events.len() * 96 + 64);
        // Metadata first: how many events the ring dropped, so consumers
        // know whether the timeline is complete.
        out.push_str(&format!(
            "{{\"displayTimeUnit\":\"ms\",\"overwrittenEvents\":{},\"traceEvents\":[",
            self.overwritten_events()
        ));
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = if e.kind == TraceKind::DriverQuantum {
                "X"
            } else {
                "i"
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"presto\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}",
                e.kind.name(),
                ph,
                e.ts_nanos as f64 / 1_000.0,
                e.pid,
                e.tid,
            ));
            if ph == "X" {
                out.push_str(&format!(",\"dur\":{:.3}", e.dur_nanos as f64 / 1_000.0));
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(",\"args\":{{\"a\":{},\"b\":{}}}}}", e.a, e.b));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let buf = TraceBuffer::new(64);
        buf.record_at(TraceKind::SplitStart, 10, 0, 1, 7, 0, 0);
        buf.record_at(TraceKind::SplitFinish, 30, 0, 1, 7, 0, 0);
        buf.record_at(TraceKind::DriverQuantum, 20, 5, 2, 9, 1, 0);
        let events = buf.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::SplitStart);
        assert_eq!(events[1].kind, TraceKind::DriverQuantum);
        assert_eq!(events[1].dur_nanos, 5);
        assert_eq!(events[2].ts_nanos, 30);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let buf = TraceBuffer::new(16);
        for i in 0..100u64 {
            buf.record_at(TraceKind::PageEnqueue, i, 0, 0, 0, 0, i);
        }
        let events = buf.snapshot();
        assert_eq!(events.len(), 16);
        assert!(events.iter().all(|e| e.b >= 84), "only newest survive");
        assert_eq!(buf.recorded(), 100);
        assert_eq!(buf.overwritten_events(), 84, "loss is accounted exactly");
    }

    #[test]
    fn overwrite_counter_stays_zero_until_full() {
        let buf = TraceBuffer::new(16);
        for i in 0..16u64 {
            buf.record_at(TraceKind::PageEnqueue, i, 0, 0, 0, 0, i);
            assert_eq!(buf.overwritten_events(), 0);
        }
        buf.record_at(TraceKind::PageEnqueue, 16, 0, 0, 0, 0, 16);
        assert_eq!(buf.overwritten_events(), 1);
        assert!(buf.to_chrome_trace().contains("\"overwrittenEvents\":1"));
    }

    #[test]
    fn concurrent_writers_never_corrupt() {
        let buf = TraceBuffer::new(32);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let b = std::sync::Arc::clone(&buf);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    b.record(TraceKind::MemoryGrant, t, t, i, i * 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for e in buf.snapshot() {
            assert_eq!(e.b, e.a * 2, "payload words must be coherent");
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let buf = TraceBuffer::new(16);
        buf.record_span(TraceKind::DriverQuantum, 1_000, 3, 4, 42, 0);
        buf.record(TraceKind::PageEnqueue, 1, 2, 4096, 0);
        let json = buf.to_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"driver_quantum\""));
    }
}
