//! Index-nested-loop join.

use presto_common::{Result, Schema};
use presto_page::Page;

use crate::operator::Operator;

/// Index-nested-loop join (§IV-B3-3): probe rows look up a connector index.
pub struct IndexJoinOperator {
    index: Box<dyn presto_connector::IndexSource>,
    probe_keys: Vec<usize>,
    probe_schema: Schema,
    pending: Option<Page>,
    input_done: bool,
}

impl IndexJoinOperator {
    pub fn new(
        index: Box<dyn presto_connector::IndexSource>,
        probe_keys: Vec<usize>,
        probe_schema: Schema,
    ) -> IndexJoinOperator {
        IndexJoinOperator {
            index,
            probe_keys,
            probe_schema,
            pending: None,
            input_done: false,
        }
    }
}

impl Operator for IndexJoinOperator {
    fn name(&self) -> &'static str {
        "IndexJoin"
    }

    fn needs_input(&self) -> bool {
        !self.input_done && self.pending.is_none()
    }

    fn add_input(&mut self, page: Page) -> Result<()> {
        // Project the probe keys into the lookup page.
        let keys = page.project(&self.probe_keys);
        let (matches, key_indices) = self.index.lookup(&keys)?;
        if matches.row_count() == 0 {
            return Ok(());
        }
        // Gather probe columns for each matched output row.
        let probe_side = page.filter(&key_indices);
        let width = self.probe_schema.len() + matches.column_count();
        let combined = probe_side.append_columns(matches);
        debug_assert_eq!(combined.column_count(), width);
        self.pending = Some(combined);
        Ok(())
    }

    fn finish(&mut self) {
        self.input_done = true;
    }

    fn output(&mut self) -> Result<Option<Page>> {
        Ok(self.pending.take())
    }

    fn is_finished(&self) -> bool {
        self.input_done && self.pending.is_none()
    }
}
