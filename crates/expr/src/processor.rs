//! The page processor: fused filter + projections with §V-E compressed-data
//! processing.
//!
//! "When a page processor evaluating a transformation or filter encounters a
//! dictionary block, it processes all of the values in the dictionary (or
//! the single value in a run-length-encoded block) … The page processor
//! keeps track of the number of real rows produced and the size of the
//! dictionary, which helps measure the effectiveness of processing the
//! dictionary as compared to processing all of the indices."

use presto_common::{DataType, Result, Session};
use presto_page::{Block, Page};

use crate::compiled::{filter_channels, CompiledExpr, EntryTally};
use crate::expr::Expr;
use crate::interpreter::evaluate_row;

/// Counters exposed for tests and the §V-E benchmark.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcessorStats {
    /// Projections evaluated via the dictionary fast path.
    pub dictionary_projections: usize,
    /// Projections evaluated via the RLE fast path.
    pub rle_projections: usize,
    /// Projections evaluated position-by-position.
    pub flat_projections: usize,
    /// Rows produced so far.
    pub rows_produced: u64,
    /// Dictionary entries processed so far, by the filter and projections.
    pub dict_entries_processed: u64,
}

/// A compiled filter + projection pipeline, page in / page out.
pub struct PageProcessor {
    filter: Option<CompiledExpr>,
    projections: Vec<CompiledExpr>,
    /// Speculation state per the paper's heuristic: per-entry kernels may
    /// evaluate a dictionary larger than the page while this holds.
    speculate: bool,
    /// When the session disables compiled expressions (§V-B ablation),
    /// fall back to the row interpreter using these originals.
    interpreted: Option<(Option<Expr>, Vec<Expr>)>,
    /// Selection buffer reused across pages (one allocation per split
    /// instead of one per page).
    sel_buf: Vec<u32>,
    /// Input channels the projections read, by channel. A selective filter
    /// gathers only these; filter-only channels are never copied.
    needed: Vec<bool>,
    stats: ProcessorStats,
}

impl PageProcessor {
    /// Build from optional filter and projection expressions. Expressions
    /// are compiled once per task, like the paper's per-task bytecode
    /// classes (§V-B3). With `process_compressed` (§V-E) the filter and the
    /// projections evaluate single-column subtrees per dictionary entry or
    /// RLE run ([`CompiledExpr::compile_per_entry`]).
    pub fn new(filter: Option<&Expr>, projections: &[Expr], session: &Session) -> PageProcessor {
        let mut needed = Vec::new();
        for c in projections.iter().flat_map(Expr::referenced_columns) {
            if needed.len() <= c {
                needed.resize(c + 1, false);
            }
            needed[c] = true;
        }
        let compile = if session.process_compressed {
            CompiledExpr::compile_per_entry
        } else {
            CompiledExpr::compile
        };
        PageProcessor {
            filter: filter.map(compile),
            projections: projections.iter().map(compile).collect(),
            speculate: true,
            interpreted: (!session.compiled_expressions)
                .then(|| (filter.cloned(), projections.to_vec())),
            sel_buf: Vec::new(),
            needed,
            stats: ProcessorStats::default(),
        }
    }

    /// Output column types.
    pub fn output_types(&self) -> Vec<DataType> {
        self.projections
            .iter()
            .map(CompiledExpr::data_type)
            .collect()
    }

    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }

    /// Process one page: filter, then project.
    pub fn process(&mut self, page: &Page) -> Result<Page> {
        if let Some((filter, projections)) = &self.interpreted {
            let out = process_interpreted(filter.as_ref(), projections, page)?;
            self.stats.rows_produced += out.row_count() as u64;
            self.stats.flat_projections += projections.len();
            return Ok(out);
        }
        let mut tally = EntryTally {
            speculate: self.speculate,
            ..EntryTally::default()
        };
        let rows = match &self.filter {
            Some(f) => {
                f.selection_tallied(page, &mut self.sel_buf, &mut tally)?;
                self.sel_buf.len()
            }
            None => page.row_count(),
        };
        self.stats.dict_entries_processed += tally.entries;
        if rows == 0 {
            self.update_speculation();
            return Ok(Page::empty());
        }
        if self.projections.is_empty() {
            // Cardinality-only output (COUNT(*)-style plans).
            self.stats.rows_produced += rows as u64;
            return Ok(Page::zero_column(rows));
        }
        let gathered;
        let filtered = if rows == page.row_count() {
            page
        } else {
            gathered = filter_channels(page, &self.sel_buf, &self.needed);
            &gathered
        };
        let mut out: Vec<Block> = Vec::with_capacity(self.projections.len());
        for projection in &self.projections {
            tally.dictionaries = 0;
            tally.runs = 0;
            tally.entries = 0;
            out.push(projection.eval_tallied(filtered, &mut tally)?);
            if tally.dictionaries > 0 {
                self.stats.dictionary_projections += 1;
            } else if tally.runs > 0 {
                self.stats.rle_projections += 1;
            } else {
                self.stats.flat_projections += 1;
            }
            self.stats.dict_entries_processed += tally.entries;
        }
        self.stats.rows_produced += rows as u64;
        self.update_speculation();
        Ok(Page::new(out))
    }

    /// Heuristic from the paper: speculation stays on while processing
    /// dictionaries has produced more rows than dictionary entries.
    fn update_speculation(&mut self) {
        self.speculate = self.stats.dict_entries_processed <= self.stats.rows_produced;
    }
}

/// Reference (interpreted) filter + project used by the §V-B benchmark and
/// for differential testing: identical semantics, row-at-a-time execution.
pub fn process_interpreted(
    filter: Option<&Expr>,
    projections: &[Expr],
    page: &Page,
) -> Result<Page> {
    use presto_page::BlockBuilder;
    let mut builders: Vec<BlockBuilder> = projections
        .iter()
        .map(|e| BlockBuilder::new(e.data_type()))
        .collect();
    let mut rows = 0usize;
    for i in 0..page.row_count() {
        if let Some(f) = filter {
            match evaluate_row(f, page, i)? {
                presto_common::Value::Boolean(true) => {}
                _ => continue,
            }
        }
        rows += 1;
        for (e, b) in projections.iter().zip(&mut builders) {
            b.push_value(&evaluate_row(e, page, i)?);
        }
    }
    if builders.is_empty() {
        return Ok(Page::zero_column(rows));
    }
    Ok(Page::new(
        builders.into_iter().map(BlockBuilder::finish).collect(),
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use presto_common::{Schema, Value};
    use presto_page::blocks::{DictionaryBlock, LazyBlock, LongBlock, VarcharBlock};
    use std::sync::Arc;

    fn session() -> Session {
        Session::default()
    }

    #[test]
    fn filter_and_project() {
        let schema = Schema::of(&[("a", DataType::Bigint), ("b", DataType::Bigint)]);
        let page = Page::from_rows(
            &schema,
            &[
                vec![Value::Bigint(1), Value::Bigint(10)],
                vec![Value::Bigint(2), Value::Bigint(20)],
                vec![Value::Bigint(3), Value::Bigint(30)],
            ],
        );
        let filter = Expr::cmp(
            CmpOp::Gt,
            Expr::column(0, DataType::Bigint),
            Expr::literal(1i64),
        );
        let proj = vec![Expr::column(1, DataType::Bigint)];
        let mut p = PageProcessor::new(Some(&filter), &proj, &session());
        let out = p.process(&page).unwrap();
        assert_eq!(out.row_count(), 2);
        assert_eq!(out.block(0).i64_at(0), 20);
        // Same result interpreted.
        let ref_out = process_interpreted(Some(&filter), &proj, &page).unwrap();
        assert_eq!(
            ref_out.to_rows(&Schema::of(&[("b", DataType::Bigint)])),
            out.to_rows(&Schema::of(&[("b", DataType::Bigint)]))
        );
    }

    #[test]
    fn dictionary_projection_fast_path() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["in person", "cod"])));
        let ids: Vec<u32> = (0..100).map(|i| i % 2).collect();
        let page = Page::new(vec![Block::Dictionary(DictionaryBlock::new(dict, ids))]);
        let (f, t) = crate::functions::ScalarFn::resolve("upper", &[DataType::Varchar]).unwrap();
        let proj = vec![Expr::Call {
            function: f,
            args: vec![Expr::column(0, DataType::Varchar)],
            data_type: t,
        }];
        let mut p = PageProcessor::new(None, &proj, &session());
        let out = p.process(&page).unwrap();
        assert!(
            matches!(out.block(0), Block::Dictionary(_)),
            "output stays dictionary-encoded"
        );
        assert_eq!(out.block(0).str_at(0), "IN PERSON");
        assert_eq!(out.block(0).str_at(1), "COD");
        let stats = p.stats();
        assert_eq!(stats.dictionary_projections, 1);
        // Only 2 entries were processed for 100 rows.
        assert_eq!(stats.dict_entries_processed, 2);
    }

    #[test]
    fn dictionary_filter_evaluates_each_entry_once() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&[
            "AIR", "RAIL", "SHIP", "x",
        ])));
        let ids: Vec<u32> = (0..64).map(|i| i % 4).collect();
        let page = Page::new(vec![
            Block::Dictionary(DictionaryBlock::new(dict, ids)),
            Block::from(LongBlock::from_values((0..64).collect())),
        ]);
        let filter = Expr::and(vec![
            Expr::InList {
                expr: Box::new(Expr::column(0, DataType::Varchar)),
                list: vec![Value::varchar("AIR"), Value::varchar("RAIL")],
            },
            Expr::cmp(
                CmpOp::Ne,
                Expr::column(0, DataType::Varchar),
                Expr::literal("RAIL"),
            ),
        ]);
        let proj = vec![
            Expr::column(1, DataType::Bigint),
            Expr::column(0, DataType::Varchar),
        ];
        let schema = Schema::of(&[("n", DataType::Bigint), ("s", DataType::Varchar)]);
        let mut per_entry = PageProcessor::new(Some(&filter), &proj, &session());
        let out = per_entry.process(&page).unwrap();
        assert_eq!(out.row_count(), 16);
        // The whole conjunction reads one column: one pass over its 4
        // entries, then one for the projected column.
        assert_eq!(per_entry.stats().dict_entries_processed, 4 + 4);
        assert!(matches!(out.block(1), Block::Dictionary(_)));
        let decoded = Session {
            process_compressed: false,
            ..Session::default()
        };
        let mut rows = PageProcessor::new(Some(&filter), &proj, &decoded);
        assert_eq!(
            rows.process(&page).unwrap().to_rows(&schema),
            out.to_rows(&schema)
        );
        assert_eq!(rows.stats().dict_entries_processed, 0);
    }

    #[test]
    fn rle_projection_fast_path() {
        let page = Page::new(vec![Block::rle(
            Block::from(LongBlock::from_values(vec![21])),
            50,
        )]);
        let proj = vec![Expr::arith(
            crate::expr::ArithOp::Mul,
            Expr::column(0, DataType::Bigint),
            Expr::literal(2i64),
        )];
        let mut p = PageProcessor::new(None, &proj, &session());
        let out = p.process(&page).unwrap();
        assert!(matches!(out.block(0), Block::Rle(_)));
        assert_eq!(out.block(0).i64_at(49), 42);
        assert_eq!(p.stats().rle_projections, 1);
    }

    #[test]
    fn compressed_processing_can_be_disabled() {
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&["x"])));
        let page = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
            dict,
            vec![0, 0, 0],
        ))]);
        let proj = vec![Expr::column(0, DataType::Varchar)];
        let mut session = session();
        session.process_compressed = false;
        let mut p = PageProcessor::new(None, &proj, &session);
        p.process(&page).unwrap();
        assert_eq!(p.stats().dictionary_projections, 0);
        assert_eq!(p.stats().flat_projections, 1);
    }

    #[test]
    fn selective_filter_keeps_unreferenced_lazy_column_unloaded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let loads = Arc::new(AtomicUsize::new(0));
        let loads2 = Arc::clone(&loads);
        let lazy = Block::Lazy(LazyBlock::new(3, move || {
            loads2.fetch_add(1, Ordering::SeqCst);
            Block::from(LongBlock::from_values(vec![7, 8, 9]))
        }));
        let page = Page::new(vec![
            Block::from(LongBlock::from_values(vec![1, 2, 3])),
            lazy,
        ]);
        // Filter on column 0 selects nothing; lazy column 1 never loads.
        let filter = Expr::cmp(
            CmpOp::Gt,
            Expr::column(0, DataType::Bigint),
            Expr::literal(100i64),
        );
        let proj = vec![Expr::column(1, DataType::Bigint)];
        let mut p = PageProcessor::new(Some(&filter), &proj, &session());
        let out = p.process(&page).unwrap();
        assert_eq!(out.row_count(), 0);
        assert_eq!(loads.load(Ordering::SeqCst), 0, "lazy column must not load");
    }

    #[test]
    fn speculation_heuristic_tracks_effectiveness() {
        // A dictionary larger than the data: after processing it once, the
        // processor should stop speculating.
        let entries: Vec<String> = (0..1000).map(|i| format!("v{i}")).collect();
        let dict = Arc::new(Block::from(VarcharBlock::from_strs(&entries)));
        let page = Page::new(vec![Block::Dictionary(DictionaryBlock::new(
            dict,
            vec![1, 2],
        ))]);
        let proj = vec![Expr::column(0, DataType::Varchar)];
        let mut p = PageProcessor::new(None, &proj, &session());
        p.process(&page).unwrap();
        // 1000 entries processed for 2 rows → speculation off.
        assert!(!p.speculate);
        p.process(&page).unwrap();
        // Second page is processed flat (dict len 1000 > rows 2).
        assert_eq!(p.stats().flat_projections, 1);
    }
}
