//! The unified spill subsystem (§IV-F2: "Revocation is processed by
//! spilling state to disk").
//!
//! Every operator that spills — hash aggregation, sort, grace hash join —
//! writes its runs through one task-owned [`SpillManager`]: a configurable
//! spill directory (`Session::spill_dir`, OS temp dir by default), a disk
//! budget (`Session::spill_max_bytes`) enforced at write time, and a count
//! of live run files. Each [`SpillRun`] owns its file and deletes it when
//! it is consumed or dropped, so a run file lives exactly as long as the
//! operator (or published hash table) holding it: an aborted query, or one
//! whose worker died mid-run, leaves none behind once its drivers drop.
//!
//! Run files hold framed pages: each record is a `u32` length followed by
//! the §IV-E2 wire frame (`presto_page::frame_page`) — the page codec's
//! lane encodings under an xxh64 checksum, with the frame's LZ stage off —
//! so a torn or corrupted run is detected on re-ingest and surfaces as a
//! *transient* error instead of silently wrong results. File names are
//! crash-safe: they embed the process id plus a process-unique monotonic
//! id, so a recycled operator address can never collide with a leaked file
//! from an earlier operator (the ABA class of bug), and leftovers of a
//! crashed process are attributable by pid.
//!
//! Every write consults the cluster's fault plane (`Site::SpillWrite`), if
//! one is installed: an injected failure surfaces as a retryable error, so
//! a query whose spill disk misbehaves degrades exactly like one whose
//! network does.

use presto_common::chaos::{key_of, FaultPlane, Site};
use presto_common::{PrestoError, Result, Session};
use presto_page::{decode_framed_page, frame_page, Page};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-unique monotonic run ids. Never reused within a process, unlike
/// the operator addresses the file names previously embedded.
static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(0);

/// Task-owned coordinator of all spill I/O: directory, disk budget,
/// lifetime counters, fault injection, and the live-file count. Every run
/// holds the manager, so it outlives every file written through it.
pub struct SpillManager {
    dir: PathBuf,
    /// Disk budget in bytes; 0 = unlimited. Exceeding it is an
    /// insufficient-resources failure, like exceeding a memory limit.
    max_bytes: u64,
    /// Bytes currently on disk across live runs.
    used_bytes: AtomicU64,
    /// Lifetime bytes written (monotonic; files are deleted after
    /// re-ingest, so this cannot be derived from live state).
    spilled_bytes: AtomicU64,
    /// Lifetime spill write operations.
    spill_events: AtomicU64,
    faults: Option<Arc<FaultPlane>>,
    /// Live run files written through this manager.
    files: AtomicUsize,
    /// Live run files of every manager sharing this gauge (a worker's
    /// tasks), kept in step with `files`.
    files_gauge: Arc<AtomicUsize>,
}

impl SpillManager {
    /// A manager writing to `dir` (OS temp dir when `None`) under a byte
    /// budget (0 = unlimited).
    pub fn new(dir: Option<PathBuf>, max_bytes: u64) -> Arc<SpillManager> {
        SpillManager::build(dir, max_bytes, None, Arc::default())
    }

    /// The manager a task runs with: the session's directory and disk
    /// budget, writing under the cluster's fault plane, its live run files
    /// counted on `files_gauge` as well.
    pub fn for_session(
        session: &Session,
        faults: Option<Arc<FaultPlane>>,
        files_gauge: Arc<AtomicUsize>,
    ) -> Arc<SpillManager> {
        SpillManager::build(
            session.spill_dir.clone(),
            session.spill_max_bytes,
            faults,
            files_gauge,
        )
    }

    fn build(
        dir: Option<PathBuf>,
        max_bytes: u64,
        faults: Option<Arc<FaultPlane>>,
        files_gauge: Arc<AtomicUsize>,
    ) -> Arc<SpillManager> {
        Arc::new(SpillManager {
            dir: dir.unwrap_or_else(std::env::temp_dir),
            max_bytes,
            used_bytes: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            spill_events: AtomicU64::new(0),
            faults,
            files: AtomicUsize::new(0),
            files_gauge,
        })
    }

    /// Bytes currently held on disk by live runs.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Lifetime bytes written to spill files.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// Lifetime spill write operations.
    pub fn spill_events(&self) -> u64 {
        self.spill_events.load(Ordering::Relaxed)
    }

    /// Live (not yet consumed or removed) run files.
    pub fn live_files(&self) -> usize {
        self.files.load(Ordering::Relaxed)
    }

    /// Start a new empty run. No I/O happens until the first append.
    pub fn create_run(self: &Arc<Self>, label: &'static str) -> SpillRun {
        let id = NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!(
            "presto-spill-{}-{label}-{id}.run",
            std::process::id()
        ));
        SpillRun {
            manager: Arc::clone(self),
            path,
            file: None,
            bytes: 0,
            pages: 0,
            rows: 0,
        }
    }

    /// Pre-write gate: the fault plane, then the disk budget. A write is
    /// named by its length and its index in the run.
    fn check_write(&self, len: u64, page: u64) -> Result<()> {
        if let Some(faults) = &self.faults {
            faults.hit(Site::SpillWrite, key_of((len, page)))?;
        }
        if self.max_bytes > 0 && self.used_bytes.load(Ordering::Relaxed) + len > self.max_bytes {
            return Err(PrestoError::resources(format!(
                "spill budget exceeded: task holds {} spilled bytes, writing {} more \
                 would pass spill_max_bytes={}",
                self.used_bytes.load(Ordering::Relaxed),
                len,
                self.max_bytes
            )));
        }
        Ok(())
    }

    fn record_write(&self, len: u64) {
        self.used_bytes.fetch_add(len, Ordering::Relaxed);
        self.spilled_bytes.fetch_add(len, Ordering::Relaxed);
        self.spill_events.fetch_add(1, Ordering::Relaxed);
    }

    // A file is counted once created and un-counted only once deleted: at
    // zero no run file is left.
    fn register(&self) {
        self.files.fetch_add(1, Ordering::Relaxed);
        self.files_gauge.fetch_add(1, Ordering::Relaxed);
    }

    fn unregister(&self, bytes: u64) {
        self.files.fetch_sub(1, Ordering::Relaxed);
        self.files_gauge.fetch_sub(1, Ordering::Relaxed);
        self.used_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// One checksummed run file of framed pages. Append during revocation,
/// read back on re-ingest. The run owns its file: it is deleted when the
/// run is consumed or dropped, whichever comes first.
pub struct SpillRun {
    manager: Arc<SpillManager>,
    path: PathBuf,
    file: Option<std::fs::File>,
    bytes: u64,
    pages: u64,
    rows: u64,
}

impl SpillRun {
    /// Frame and append one page. Returns the bytes written.
    pub fn append(&mut self, page: &Page) -> Result<u64> {
        let frame = frame_page(page, usize::MAX);
        let record_len = frame.len() as u64 + 4;
        self.manager.check_write(record_len, self.pages)?;
        if self.file.is_none() {
            std::fs::create_dir_all(&self.manager.dir)?;
            self.file = Some(std::fs::File::create(&self.path)?);
            self.manager.register();
        }
        let file = self.file.as_mut().expect("spill file just opened");
        file.write_all(&(frame.len() as u32).to_le_bytes())?;
        file.write_all(&frame)?;
        file.flush()?;
        self.bytes += record_len;
        self.rows += page.row_count() as u64;
        self.pages += 1;
        self.manager.record_write(record_len);
        Ok(record_len)
    }

    /// Bytes written to this run so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Rows written to this run so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Pages written to this run so far.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// The manager this run writes through.
    pub(crate) fn manager(&self) -> &Arc<SpillManager> {
        &self.manager
    }

    /// Read every page back, verifying checksums. The run stays on disk
    /// (use [`SpillRun::into_pages`] to consume-and-delete). Corruption or
    /// truncation surfaces as a transient error, like a bad wire frame.
    pub fn read_pages(&self) -> Result<Vec<Page>> {
        if self.pages == 0 {
            return Ok(Vec::new());
        }
        // Reopen for reading; the write handle's cursor is at EOF.
        let mut file = std::fs::File::open(&self.path)?;
        let mut out = Vec::with_capacity(self.pages as usize);
        let mut len_buf = [0u8; 4];
        loop {
            match file.read_exact(&mut len_buf) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            let mut buf = vec![0u8; len];
            file.read_exact(&mut buf).map_err(|e| {
                PrestoError::transient(format!(
                    "spill run truncated mid-record ({}): {e}",
                    self.path.display()
                ))
            })?;
            out.push(decode_framed_page(&buf)?);
        }
        Ok(out)
    }

    /// Read every page back and delete the run.
    pub fn into_pages(mut self) -> Result<Vec<Page>> {
        let pages = self.read_pages()?;
        self.remove();
        Ok(pages)
    }

    /// Delete the file and release its budget. Idempotent.
    pub fn remove(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.path);
            self.manager.unregister(self.bytes);
            self.bytes = 0;
            self.pages = 0;
            self.rows = 0;
        }
    }
}

impl Drop for SpillRun {
    fn drop(&mut self) {
        self.remove();
    }
}

/// One operator's spill counters, counted the way [`SpillManager`] counts
/// them — one event per [`SpillRun::append`] — so the operators' totals
/// sum to the manager's.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SpillTally {
    bytes: u64,
    events: u64,
}

impl SpillTally {
    /// Append `page` to `run` and count the write.
    pub(crate) fn append(&mut self, run: &mut SpillRun, page: &Page) -> Result<()> {
        self.bytes += run.append(page)?;
        self.events += 1;
        Ok(())
    }

    /// The operator counters spilling operators report.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 2] {
        [("spilled_bytes", self.bytes), ("spill_events", self.events)]
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::{DataType, Schema, Value};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "presto-spilltest-{tag}-{}-{}",
            std::process::id(),
            NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn page(n: i64) -> Page {
        let schema = Schema::of(&[("k", DataType::Bigint), ("s", DataType::Varchar)]);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Bigint(i), Value::varchar(format!("row-{i}"))])
            .collect();
        Page::from_rows(&schema, &rows)
    }

    fn rows_of(pages: &[Page]) -> Vec<(i64, String)> {
        let mut out = Vec::new();
        for p in pages {
            for i in 0..p.row_count() {
                out.push((p.block(0).i64_at(i), p.block(1).str_at(i).to_string()));
            }
        }
        out
    }

    #[test]
    fn round_trip_preserves_pages() {
        let dir = scratch_dir("roundtrip");
        let mgr = SpillManager::new(Some(dir.clone()), 0);
        let mut run = mgr.create_run("test");
        run.append(&page(100)).unwrap();
        run.append(&page(7)).unwrap();
        assert_eq!(run.rows(), 107);
        assert_eq!(mgr.live_files(), 1);
        assert!(mgr.used_bytes() > 0);
        assert_eq!(mgr.spill_events(), 2);
        let pages = run.into_pages().unwrap();
        assert_eq!(
            rows_of(&pages),
            rows_of(&[page(100), page(7)]),
            "byte-identical round trip"
        );
        assert_eq!(mgr.live_files(), 0, "consumed run removed its file");
        assert_eq!(mgr.used_bytes(), 0);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_removes_file() {
        let dir = scratch_dir("drop");
        let mgr = SpillManager::new(Some(dir.clone()), 0);
        {
            let mut run = mgr.create_run("test");
            run.append(&page(10)).unwrap();
            assert_eq!(mgr.live_files(), 1);
        }
        assert_eq!(mgr.live_files(), 0);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two tasks' managers on one worker share its gauge: it counts every
    /// live run of either, and reaches zero only when the last run drops.
    #[test]
    fn shared_gauge_counts_runs_until_the_last_drops() {
        let dir = scratch_dir("gauge");
        let gauge = Arc::new(AtomicUsize::new(0));
        let mgr = SpillManager::build(Some(dir.clone()), 0, None, Arc::clone(&gauge));
        let other = SpillManager::build(Some(dir.clone()), 0, None, Arc::clone(&gauge));
        let mut a = mgr.create_run("a");
        let mut b = mgr.create_run("b");
        let mut c = other.create_run("c");
        a.append(&page(5)).unwrap();
        b.append(&page(5)).unwrap();
        c.append(&page(5)).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 3);
        assert_eq!((mgr.live_files(), other.live_files()), (2, 1));
        drop(mgr);
        drop(a);
        drop(b);
        assert_eq!(gauge.load(Ordering::Relaxed), 1, "the other task's run");
        drop(other);
        assert_eq!(
            gauge.load(Ordering::Relaxed),
            1,
            "a run outlives its manager handle"
        );
        drop(c);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_exceeded_is_resources_error() {
        let dir = scratch_dir("budget");
        let mgr = SpillManager::new(Some(dir.clone()), 64);
        let mut run = mgr.create_run("test");
        let err = run.append(&page(1000)).unwrap_err();
        assert_eq!(
            err.code,
            presto_common::ErrorCode::InsufficientResources,
            "spill budget is a resource limit: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected write failure is retryable whether it hits a run's first
    /// write or a later one, and dropping the run still deletes its file.
    #[test]
    fn injected_write_fault_is_retryable() {
        use presto_common::chaos::{Effect, Trigger};
        for every in [1, 3] {
            let dir = scratch_dir("fault");
            let plane = Arc::new(FaultPlane::new(0).rule(
                Site::SpillWrite,
                Trigger::Every(every),
                Effect::Transient,
            ));
            let session = Session {
                spill_dir: Some(dir.clone()),
                ..Session::default()
            };
            let mgr = SpillManager::for_session(&session, Some(Arc::clone(&plane)), Arc::default());
            let mut run = mgr.create_run("test");
            for _ in 1..every {
                run.append(&page(10)).unwrap();
            }
            let err = run.append(&page(10)).unwrap_err();
            assert!(
                err.is_retryable(),
                "spill-IO fault must be retryable: {err}"
            );
            assert_eq!(plane.fired(Site::SpillWrite), 1);
            drop(run);
            assert_eq!(mgr.live_files(), 0);
            assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupted_run_surfaces_transient_error() {
        let dir = scratch_dir("corrupt");
        let mgr = SpillManager::new(Some(dir.clone()), 0);
        let mut run = mgr.create_run("test");
        run.append(&page(50)).unwrap();
        // Flip a byte past the length prefix: the frame checksum must catch it.
        let path = run.path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = run.read_pages().unwrap_err();
        assert!(err.is_retryable(), "corruption is transient: {err}");
        drop(run);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_ids_are_process_unique() {
        let mgr = SpillManager::new(None, 0);
        let a = mgr.create_run("x");
        let b = mgr.create_run("x");
        assert_ne!(a.path, b.path);
    }
}
