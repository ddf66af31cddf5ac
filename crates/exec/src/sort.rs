//! Sorting: full sort (with spill-to-disk runs) and bounded TopN.

use presto_common::Result;
use presto_page::Page;
use presto_planner::SortKey;
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::operator::Operator;
use crate::spill::{SpillManager, SpillRun, SpillTally};

/// Compare two rows (possibly across pages) under a key set.
pub fn compare_rows(a: &Page, arow: usize, b: &Page, brow: usize, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let (ab, bb) = (a.block(k.channel), b.block(k.channel));
        let (an, bn) = (ab.is_null(arow), bb.is_null(brow));
        let ord = match (an, bn) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if k.nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if k.nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let natural = ab.compare_at(arow, bb, brow);
                if k.ascending {
                    natural
                } else {
                    natural.reverse()
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort a single page by keys, returning the permuted page.
pub fn sort_page(page: &Page, keys: &[SortKey]) -> Page {
    let mut order: Vec<u32> = (0..page.row_count() as u32).collect();
    order.sort_by(|&a, &b| compare_rows(page, a as usize, page, b as usize, keys));
    page.filter(&order)
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
    spill: Option<Arc<SpillManager>>,
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
        let all = Page::concat(&self.buffered);
        self.buffered.clear();
        self.buffered_bytes = 0;
        sort_page(&all, &self.keys)
    }

    fn chunk_out(&mut self, page: Page) {
        let chunk = 8192usize;
        let mut start = 0;
        while start < page.row_count() {
            let end = (start + chunk).min(page.row_count());
            let positions: Vec<u32> = (start as u32..end as u32).collect();
            self.outputs.push_back(page.filter(&positions));
            start = end;
        }
        if page.row_count() == 0 {
            self.outputs.push_back(page);
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
        self.buffered_bytes += page.size_in_bytes();
        self.buffered.push(page.load_all());
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        if let Some(p) = self.outputs.pop_front() {
            return Ok(Some(p));
        }
        if !self.input_done || self.produced {
            return Ok(None);
        }
        self.produced = true;
        let in_memory = self.sorted_buffered();
        if self.spill_runs.is_empty() {
            if in_memory.row_count() > 0 {
                self.chunk_out(in_memory);
            }
            return Ok(self.outputs.pop_front());
        }
        // Merge spilled sorted runs with the in-memory run. Empty runs are
        // dropped — a zero-row page has no column layout to contribute.
        let mut runs: Vec<Page> = Vec::new();
        if in_memory.row_count() > 0 {
            runs.push(in_memory);
        }
        for run in std::mem::take(&mut self.spill_runs) {
            // Checksums verified per record; the file is deleted on consume
            // (or by the run's drop if an error unwinds out of here).
            let pages = run.into_pages()?;
            runs.push(Page::concat(&pages));
        }
        // K-way merge by repeatedly taking the least head.
        let mut cursors = vec![0usize; runs.len()];
        let total: usize = runs.iter().map(Page::row_count).sum();
        let mut order: Vec<(usize, u32)> = Vec::with_capacity(total); // (run, row)
        for _ in 0..total {
            let mut best: Option<usize> = None;
            for (r, run) in runs.iter().enumerate() {
                if cursors[r] >= run.row_count() {
                    continue;
                }
                best = Some(match best {
                    None => r,
                    Some(b) => {
                        if compare_rows(run, cursors[r], &runs[b], cursors[b], &self.keys)
                            == Ordering::Less
                        {
                            r
                        } else {
                            b
                        }
                    }
                });
            }
            let r = best.expect("rows remaining");
            order.push((r, cursors[r] as u32));
            cursors[r] += 1;
        }
        // Materialize per-run gathers, then interleave.
        // Simpler: build one concatenated page and a global permutation.
        let offsets: Vec<u32> = {
            let mut off = Vec::with_capacity(runs.len());
            let mut acc = 0u32;
            for run in &runs {
                off.push(acc);
                acc += run.row_count() as u32;
            }
            off
        };
        let combined = Page::concat(&runs);
        let permutation: Vec<u32> = order.iter().map(|&(r, row)| offsets[r] + row).collect();
        let merged = combined.filter(&permutation);
        if merged.row_count() > 0 {
            self.chunk_out(merged);
        }
        Ok(self.outputs.pop_front())
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
            Some(cur) => Page::concat(&[cur, page.load_all()]),
            None => page.load_all(),
        };
        let sorted = sort_page(&combined, &self.keys);
        self.current = Some(sorted.truncate(self.count));
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
