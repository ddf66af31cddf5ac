//! Sorting: full sort (with spill-to-disk runs) and bounded TopN, both on
//! one typed key comparator, [`SortKeys`]; the window sorts through
//! [`SortOperator`] too.

use presto_common::Result;
use presto_page::{Block, Page};
use presto_planner::SortKey;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::operator::Operator;
use crate::spill::{SpillManager, SpillRun, SpillTally};

/// A page's sort keys, each its flat key column with the key's direction
/// and NULL placement. RLE, dictionary and lazy keys are decoded once per
/// page, so comparing two rows is one typed comparison per key.
pub(crate) struct SortKeys<'a> {
    keys: Vec<(Cow<'a, Block>, SortKey)>,
}

impl<'a> SortKeys<'a> {
    pub fn new(page: &'a Page, keys: &[SortKey]) -> SortKeys<'a> {
        let keys = keys.iter().map(|k| (page.block(k.channel).as_flat(), *k));
        SortKeys {
            keys: keys.collect(),
        }
    }

    /// Row `i` here against row `j` of `other`, which has the same keys.
    /// NULLs go first or last by `nulls_first` in either direction; DESC
    /// reverses only the comparison of two values.
    pub fn cmp(&self, i: usize, other: &SortKeys, j: usize) -> Ordering {
        for ((a, key), (b, _)) in self.keys.iter().zip(&other.keys) {
            // A NULL slot holds a placeholder, compared and then ignored.
            let (a_null, b_null, values) = match (a.as_ref(), b.as_ref()) {
                (Block::Long(a), Block::Long(b)) => {
                    (a.is_null(i), b.is_null(j), a.values[i].cmp(&b.values[j]))
                }
                (Block::Double(a), Block::Double(b)) => (
                    a.is_null(i),
                    b.is_null(j),
                    a.values[i].total_cmp(&b.values[j]),
                ),
                (Block::Bool(a), Block::Bool(b)) => {
                    (a.is_null(i), b.is_null(j), a.values[i].cmp(&b.values[j]))
                }
                (Block::Varchar(a), Block::Varchar(b)) => {
                    (a.is_null(i), b.is_null(j), a.value(i).cmp(b.value(j)))
                }
                _ => unreachable!("flat key columns of one type"),
            };
            let ord = match (a_null, b_null) {
                (false, false) if key.ascending => values,
                (false, false) => values.reverse(),
                (true, true) => Ordering::Equal,
                (a_null, _) if a_null == key.nulls_first => Ordering::Less,
                _ => Ordering::Greater,
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// `page`'s row positions in key order; ties keep their input order.
pub(crate) fn sort_indices(page: &Page, keys: &[SortKey]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..page.row_count() as u32).collect();
    if order.len() < 2 {
        // Nothing to order; the page may have no columns at all.
        return order;
    }
    let keys = SortKeys::new(page, keys);
    order.sort_by(|&a, &b| keys.cmp(a as usize, &keys, b as usize));
    order
}

/// Full in-memory sort with optional spill of sorted runs (§IV-F2: "Presto
/// supports spilling for … aggregations"; sorts use the same mechanism).
pub struct SortOperator {
    keys: Vec<SortKey>,
    buffered: Vec<Page>,
    buffered_bytes: usize,
    input_done: bool,
    outputs: VecDeque<Page>,
    produced: bool,
    /// Set when spill is armed: revocation writes sorted runs through it.
    pub(crate) spill: Option<Arc<SpillManager>>,
    spill_runs: Vec<SpillRun>,
    spilled: SpillTally,
}

impl SortOperator {
    pub fn new(keys: Vec<SortKey>, spill: Option<Arc<SpillManager>>) -> SortOperator {
        SortOperator {
            keys,
            buffered: Vec::new(),
            buffered_bytes: 0,
            input_done: false,
            outputs: VecDeque::new(),
            produced: false,
            spill,
            spill_runs: Vec::new(),
            spilled: SpillTally::default(),
        }
    }

    fn sorted_buffered(&mut self) -> Page {
        let all = match self.buffered.len() {
            1 => self.buffered.swap_remove(0),
            _ => Page::concat(&std::mem::take(&mut self.buffered)),
        };
        self.buffered_bytes = 0;
        all.filter(&sort_indices(&all, &self.keys))
    }

    /// The whole input in key order, as one page: the buffered rows sorted
    /// and merged with the spilled runs. Ties keep their input order.
    fn sorted_input(&mut self) -> Result<Page> {
        let in_memory = self.sorted_buffered();
        if self.spill_runs.is_empty() {
            return Ok(in_memory);
        }
        // The runs in input order, the buffered rows last. Empty runs are
        // dropped — a zero-row page has no column layout to contribute.
        let mut runs: Vec<Page> = Vec::new();
        for run in std::mem::take(&mut self.spill_runs) {
            // Checksums verified per record; the file is deleted on consume
            // (or by the run's drop if an error unwinds out of here).
            let pages = run.into_pages()?;
            runs.push(Page::concat(&pages));
        }
        runs.push(in_memory);
        runs.retain(|run| run.row_count() > 0);
        // K-way merge over the runs laid end to end: repeatedly take the
        // least head, a tie going to the earlier run.
        let all = Page::concat(&runs);
        let keys = SortKeys::new(&all, &self.keys);
        let mut heads = Vec::with_capacity(runs.len());
        let mut start = 0;
        for run in &runs {
            heads.push(start..start + run.row_count());
            start += run.row_count();
        }
        let mut permutation: Vec<u32> = Vec::with_capacity(all.row_count());
        while let Some(head) = heads
            .iter_mut()
            .filter(|head| head.start < head.end)
            .min_by(|a, b| keys.cmp(a.start, &keys, b.start))
        {
            permutation.push(head.start as u32);
            head.start += 1;
        }
        Ok(all.filter(&permutation))
    }

    /// The next output page. Once the input is done, `emit` maps the whole
    /// sorted input (as [`Self::sorted_input`] gives it, with the sort
    /// keys) to what goes out, in chunks: the sort emits it as it is, the
    /// window with its function columns appended.
    pub(crate) fn output_with(
        &mut self,
        emit: impl FnOnce(Page, &[SortKey]) -> Result<Page>,
    ) -> Result<Option<Page>> {
        if let Some(p) = self.outputs.pop_front() {
            return Ok(Some(p));
        }
        if !self.input_done || self.produced {
            return Ok(None);
        }
        self.produced = true;
        let sorted = self.sorted_input()?;
        if sorted.row_count() > 0 {
            let page = emit(sorted, &self.keys)?;
            self.chunk_out(page);
        }
        Ok(self.outputs.pop_front())
    }

    /// Queue `page` for output in pages of at most 8 192 rows; one that
    /// fits goes out as it is.
    fn chunk_out(&mut self, page: Page) {
        const CHUNK: usize = 8192;
        let rows = page.row_count();
        if rows <= CHUNK {
            self.outputs.push_back(page);
            return;
        }
        for start in (0..rows).step_by(CHUNK) {
            let positions: Vec<u32> = (start..rows.min(start + CHUNK)).map(|r| r as u32).collect();
            self.outputs.push_back(page.filter(&positions));
        }
    }
}

impl Operator for SortOperator {
    fn name(&self) -> &'static str {
        "Sort"
    }

    fn needs_input(&self) -> bool {
        !self.input_done
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        let page = page.into_loaded();
        self.buffered_bytes += page.size_in_bytes();
        self.buffered.push(page);
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        self.output_with(|sorted, _| Ok(sorted))
    }

    fn is_finished(&self) -> bool {
        self.input_done && self.produced && self.outputs.is_empty()
    }

    fn user_memory_bytes(&self) -> usize {
        self.buffered_bytes
    }

    fn can_revoke_memory(&self) -> bool {
        self.spill.is_some() && !self.buffered.is_empty()
    }

    fn revoke_memory(&mut self) -> Result<u64> {
        let Some(spill) = self.spill.as_ref().filter(|_| self.can_revoke_memory()) else {
            return Ok(0);
        };
        let mut run = spill.create_run("sort");
        let freed = self.buffered_bytes as u64;
        let sorted = self.sorted_buffered();
        self.spilled.append(&mut run, &sorted)?;
        self.spill_runs.push(run);
        Ok(freed)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.spilled.counters().to_vec()
    }
}

/// Bounded TopN: keeps only the best N rows seen so far.
pub struct TopNOperator {
    keys: Vec<SortKey>,
    count: usize,
    /// Current candidates, re-compacted as input arrives.
    current: Option<Page>,
    input_done: bool,
    produced: bool,
}

impl TopNOperator {
    pub fn new(keys: Vec<SortKey>, count: u64) -> TopNOperator {
        TopNOperator {
            keys,
            count: count as usize,
            current: None,
            input_done: false,
            produced: false,
        }
    }
}

impl Operator for TopNOperator {
    fn name(&self) -> &'static str {
        "TopN"
    }

    fn needs_input(&self) -> bool {
        !self.input_done
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        let combined = match self.current.take() {
            Some(cur) => Page::concat(&[cur, page.into_loaded()]),
            None => page.into_loaded(),
        };
        let mut order = sort_indices(&combined, &self.keys);
        order.truncate(self.count);
        self.current = Some(combined.filter(&order));
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        if !self.input_done || self.produced {
            return Ok(None);
        }
        self.produced = true;
        Ok(self.current.take())
    }

    fn is_finished(&self) -> bool {
        self.input_done && self.produced
    }

    fn user_memory_bytes(&self) -> usize {
        self.current.as_ref().map_or(0, Page::size_in_bytes)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::Schema;
    use presto_common::{DataType, Value};

    fn page(vals: &[Option<i64>]) -> Page {
        let schema = Schema::of(&[("x", DataType::Bigint)]);
        Page::from_rows(
            &schema,
            &vals
                .iter()
                .map(|v| vec![v.map(Value::Bigint).unwrap_or(Value::Null)])
                .collect::<Vec<_>>(),
        )
    }

    fn key(asc: bool, nulls_first: bool) -> Vec<SortKey> {
        vec![SortKey {
            channel: 0,
            ascending: asc,
            nulls_first,
        }]
    }

    fn drain(op: &mut dyn Operator) -> Vec<Option<i64>> {
        let mut out = Vec::new();
        while let Some(p) = op.output().unwrap() {
            for i in 0..p.row_count() {
                out.push(if p.block(0).is_null(i) {
                    None
                } else {
                    Some(p.block(0).i64_at(i))
                });
            }
        }
        out
    }

    #[test]
    fn sorts_with_null_placement() {
        let mut op = SortOperator::new(key(true, false), None);
        op.add_input(page(&[Some(3), None, Some(1)])).unwrap();
        op.add_input(page(&[Some(2)])).unwrap();
        op.finish();
        assert_eq!(drain(&mut op), vec![Some(1), Some(2), Some(3), None]);
        let mut op = SortOperator::new(key(false, true), None);
        op.add_input(page(&[Some(3), None, Some(1)])).unwrap();
        op.finish();
        assert_eq!(drain(&mut op), vec![None, Some(3), Some(1)]);
    }

    #[test]
    fn spilled_sort_matches_in_memory() {
        let data: Vec<Option<i64>> = (0..1000).map(|i| Some((i * 37) % 500)).collect();
        let run = |spill: bool| -> Vec<Option<i64>> {
            let mut op =
                SortOperator::new(key(true, false), spill.then(|| SpillManager::new(None, 0)));
            op.add_input(page(&data[..400])).unwrap();
            if spill {
                assert!(op.revoke_memory().unwrap() > 0);
                assert_eq!(op.user_memory_bytes(), 0);
            }
            op.add_input(page(&data[400..800])).unwrap();
            if spill {
                op.revoke_memory().unwrap();
            }
            op.add_input(page(&data[800..])).unwrap();
            op.finish();
            drain(&mut op)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn topn_keeps_best_bounded() {
        let mut op = TopNOperator::new(key(false, false), 3);
        op.add_input(page(&[Some(5), Some(1), Some(9)])).unwrap();
        op.add_input(page(&[Some(7), Some(2)])).unwrap();
        // Memory stays bounded by N rows regardless of input size.
        assert!(op.user_memory_bytes() < 1024);
        op.finish();
        assert_eq!(drain(&mut op), vec![Some(9), Some(7), Some(5)]);
    }

    #[test]
    fn empty_input_sorts_to_nothing() {
        let mut op = SortOperator::new(key(true, false), None);
        op.finish();
        assert_eq!(drain(&mut op), Vec::<Option<i64>>::new());
        assert!(op.is_finished());
    }
}
