//! The Data Source API: streaming page reads.

use presto_common::{counter_set, Result};
use presto_page::Page;
use std::sync::Arc;

use crate::domain::TupleDomain;
use crate::split::Split;

/// A predicate that may *narrow while the scan runs*: the engine publishes
/// join build-side key domains here once the build finalizes, and page
/// sources re-consult it between stripes to skip data a static pushdown
/// could not. Connectors apply it best-effort — the engine always re-applies
/// the full filter — so ignoring it is always correct, just slower.
pub trait DynamicFilter: Send + Sync {
    /// The current narrowed domain over table-schema column indices, or
    /// `None` if no filter has arrived yet. May tighten between calls.
    fn domain(&self) -> Option<TupleDomain>;

    /// Connector reports stripes (or equivalent units) it skipped because
    /// of the dynamic domain, for the operator stats tree.
    fn record_stripes_pruned(&self, _n: u64) {}
}

counter_set! {
    /// Dynamic-filtering savings (§VII): how much work the build-side domains
    /// pushed into probe scans saved. The engine keeps one set per scan, one
    /// per query and one for the cluster's lifetime.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DynamicFilterMetrics[json, columns, atomic(DynamicFilterTotals)] {
        /// Filters completed and published by join builds.
        filters_published: u64,
        /// Splits discarded before a scan driver opened them.
        splits_pruned: u64,
        /// Stripes skipped by readers under a narrowed domain.
        stripes_pruned: u64,
        /// Rows dropped by the row-level membership check.
        rows_filtered: u64,
        /// Total time scans spent gated on filter arrival.
        wait_nanos: u64,
    }
}

/// Options the engine passes when opening a split for reading.
#[derive(Clone)]
pub struct ScanOptions {
    /// Columns to read, as indices into the table schema, in output order.
    pub columns: Vec<usize>,
    /// Predicate (over table-schema column indices) the connector may use
    /// to skip data. Connectors apply it best-effort; the engine always
    /// re-applies the full filter.
    pub predicate: TupleDomain,
    /// Runtime-narrowing predicate from dynamic filtering, if any join
    /// upstream of this scan publishes one.
    pub dynamic_filter: Option<Arc<dyn DynamicFilter>>,
    /// Produce lazy blocks that decode on first access (§V-D). Connectors
    /// that cannot are free to ignore this.
    pub lazy: bool,
    /// Target rows per page.
    pub target_page_rows: usize,
}

impl std::fmt::Debug for ScanOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanOptions")
            .field("columns", &self.columns)
            .field("predicate", &self.predicate)
            .field("dynamic_filter", &self.dynamic_filter.is_some())
            .field("lazy", &self.lazy)
            .field("target_page_rows", &self.target_page_rows)
            .finish()
    }
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            columns: Vec::new(),
            predicate: TupleDomain::all(),
            dynamic_filter: None,
            lazy: true,
            target_page_rows: 1024,
        }
    }
}

/// A streaming reader over one split.
pub trait PageSource: Send {
    /// The next page, or `None` when the split is exhausted.
    fn next_page(&mut self) -> Result<Option<Page>>;

    /// Bytes fetched from storage so far (post-pruning, pre-decode). Feeds
    /// the §V-D "data fetched" metric.
    fn bytes_read(&self) -> u64 {
        0
    }

    /// Rows the source has produced so far.
    fn rows_read(&self) -> u64 {
        0
    }
}

/// Creates [`PageSource`]s for splits of this connector.
pub trait PageSourceFactory: Send + Sync {
    fn create_source(&self, split: &Split, options: &ScanOptions) -> Result<Box<dyn PageSource>>;
}

/// A [`PageSource`] over in-memory pages (used by the memory connector and
/// tests).
pub struct FixedPageSource {
    pages: std::vec::IntoIter<Page>,
    rows: u64,
}

impl FixedPageSource {
    pub fn new(pages: Vec<Page>) -> FixedPageSource {
        FixedPageSource {
            pages: pages.into_iter(),
            rows: 0,
        }
    }
}

impl PageSource for FixedPageSource {
    fn next_page(&mut self) -> Result<Option<Page>> {
        match self.pages.next() {
            Some(p) => {
                self.rows += p.row_count() as u64;
                Ok(Some(p))
            }
            None => Ok(None),
        }
    }

    fn rows_read(&self) -> u64 {
        self.rows
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_page::blocks::LongBlock;
    use presto_page::Block;

    #[test]
    fn fixed_source_streams_pages() {
        let p1 = Page::new(vec![Block::from(LongBlock::from_values(vec![1, 2]))]);
        let p2 = Page::new(vec![Block::from(LongBlock::from_values(vec![3]))]);
        let mut src = FixedPageSource::new(vec![p1, p2]);
        assert_eq!(src.next_page().unwrap().unwrap().row_count(), 2);
        assert_eq!(src.next_page().unwrap().unwrap().row_count(), 1);
        assert!(src.next_page().unwrap().is_none());
        assert_eq!(src.rows_read(), 3);
    }

    #[test]
    fn scan_options_default_is_lazy_unconstrained() {
        let o = ScanOptions::default();
        assert!(o.lazy);
        assert!(o.predicate.is_all());
    }
}
