//! Aggregate functions with distributed (partial/final) evaluation.
//!
//! Distributed aggregation runs in two phases (Fig. 3 of the paper:
//! `AggregatePartial` → shuffle → `AggregateFinal`). Each function therefore
//! defines an *intermediate* representation that partial accumulators emit
//! as ordinary page columns and final accumulators merge:
//!
//! | function      | intermediate columns            |
//! |---------------|---------------------------------|
//! | count         | count bigint                    |
//! | sum           | sum (input type), empty flag    |
//! | min/max       | value (input type)              |
//! | avg           | sum double, count bigint        |
//! | stddev/var    | count bigint, mean, m2 doubles  |
//! | count_distinct| not decomposable — single phase |
//!
//! Accumulators are *grouped*: state is kept in flat vectors indexed by
//! group id, following the paper's flat-memory guidance (§V-A: "data
//! structures in the critical path of query execution are implemented over
//! flat memory arrays").

use presto_common::{DataType, PrestoError, Result, Value};
use presto_page::blocks::{flat, DoubleBlock, Lanes, LongBlock, NullMask};
use presto_page::{Block, BlockBuilder, PhysicalType};
use std::borrow::Cow;
use std::collections::HashSet;

/// Which aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    Count,
    /// `COUNT(x)`: counts non-null inputs; `Count` with no argument counts rows.
    CountNonNull,
    Sum,
    Min,
    Max,
    Avg,
    StddevPop,
    StddevSamp,
    VarPop,
    VarSamp,
    CountDistinct,
}

impl AggregateKind {
    /// Resolve by SQL name + argument presence + DISTINCT flag.
    pub fn resolve(name: &str, has_arg: bool, distinct: bool) -> Result<AggregateKind> {
        let lname = name.to_ascii_lowercase();
        if distinct {
            return match lname.as_str() {
                "count" => Ok(AggregateKind::CountDistinct),
                _ => Err(PrestoError::user(format!(
                    "DISTINCT not supported for {name}"
                ))),
            };
        }
        match lname.as_str() {
            "count" if has_arg => Ok(AggregateKind::CountNonNull),
            "count" => Ok(AggregateKind::Count),
            "sum" => Ok(AggregateKind::Sum),
            "min" => Ok(AggregateKind::Min),
            "max" => Ok(AggregateKind::Max),
            "avg" => Ok(AggregateKind::Avg),
            "stddev" | "stddev_samp" => Ok(AggregateKind::StddevSamp),
            "stddev_pop" => Ok(AggregateKind::StddevPop),
            "variance" | "var_samp" => Ok(AggregateKind::VarSamp),
            "var_pop" => Ok(AggregateKind::VarPop),
            _ => Err(PrestoError::user(format!(
                "unknown aggregate function '{name}'"
            ))),
        }
    }

    /// Whether this aggregate supports a partial/final split. Aggregates
    /// that do not (count_distinct) force single-phase aggregation.
    pub fn supports_partial(&self) -> bool {
        !matches!(self, AggregateKind::CountDistinct)
    }
}

/// A fully-resolved aggregate: kind + input type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateFunction {
    pub kind: AggregateKind,
    /// Input type; `None` only for zero-argument `COUNT(*)`.
    pub input_type: Option<DataType>,
}

impl AggregateFunction {
    pub fn new(kind: AggregateKind, input_type: Option<DataType>) -> Result<AggregateFunction> {
        use AggregateKind::*;
        match kind {
            Count => {}
            CountNonNull | Min | Max | CountDistinct => {
                if input_type.is_none() {
                    return Err(PrestoError::user("aggregate requires an argument"));
                }
            }
            Sum | Avg | StddevPop | StddevSamp | VarPop | VarSamp => match input_type {
                Some(t) if t.is_numeric() => {}
                _ => return Err(PrestoError::user("aggregate requires a numeric argument")),
            },
        }
        Ok(AggregateFunction { kind, input_type })
    }

    /// Final output type.
    pub fn output_type(&self) -> DataType {
        use AggregateKind::*;
        match self.kind {
            Count | CountNonNull | CountDistinct => DataType::Bigint,
            Sum | Min | Max => self
                .input_type
                .expect("non-count aggregate carries an input type"),
            Avg | StddevPop | StddevSamp | VarPop | VarSamp => DataType::Double,
        }
    }

    /// Column types of the intermediate (partial) representation.
    pub fn intermediate_types(&self) -> Vec<DataType> {
        use AggregateKind::*;
        match self.kind {
            Count | CountNonNull => vec![DataType::Bigint],
            Sum | Min | Max => vec![self
                .input_type
                .expect("non-count aggregate carries an input type")],
            Avg => vec![DataType::Double, DataType::Bigint],
            StddevPop | StddevSamp | VarPop | VarSamp => {
                vec![DataType::Bigint, DataType::Double, DataType::Double]
            }
            CountDistinct => vec![DataType::Bigint],
        }
    }

    /// Create a grouped accumulator for this function.
    pub fn create_accumulator(&self) -> GroupedAccumulator {
        use AggregateKind::*;
        let f = *self;
        match self.kind {
            Count | CountNonNull => GroupedAccumulator::Count {
                f,
                counts: Vec::new(),
            },
            Sum if self.input_type == Some(DataType::Double) => GroupedAccumulator::Sum {
                f,
                sums: Vec::new(),
                saw_value: Vec::new(),
            },
            Sum => GroupedAccumulator::SumLong {
                f,
                sums: Vec::new(),
                saw_value: Vec::new(),
            },
            Min | Max => GroupedAccumulator::MinMax {
                f,
                values: Vec::new(),
            },
            Avg => GroupedAccumulator::Avg {
                f,
                sums: Vec::new(),
                counts: Vec::new(),
            },
            StddevPop | StddevSamp | VarPop | VarSamp => GroupedAccumulator::Moments {
                f,
                counts: Vec::new(),
                means: Vec::new(),
                m2s: Vec::new(),
            },
            CountDistinct => GroupedAccumulator::Distinct {
                f,
                sets: Vec::new(),
            },
        }
    }
}

/// The group of each row given to a [`GroupedAccumulator`].
#[derive(Debug, Clone, Copy)]
pub enum Groups<'a> {
    /// This many rows, all in group 0: a global aggregation, which folds
    /// `SUM`, `COUNT` and `AVG` in registers.
    Global(usize),
    /// Row `i` is in group `ids[i]`; no id exceeds the second field.
    Ids(&'a [u32], u32),
}

impl Groups<'_> {
    /// The groups the accumulator must hold.
    fn count(&self) -> usize {
        match *self {
            Groups::Global(_) => 1,
            Groups::Ids(_, max_group) => max_group as usize + 1,
        }
    }

    /// The group id of each row.
    fn ids(&self) -> Cow<'_, [u32]> {
        match *self {
            Groups::Global(rows) => Cow::Owned(vec![0; rows]),
            Groups::Ids(ids, _) => Cow::Borrowed(ids),
        }
    }
}

/// Grouped aggregation state: one logical accumulator per group id, stored
/// in flat vectors.
#[derive(Debug)]
pub enum GroupedAccumulator {
    Count {
        f: AggregateFunction,
        counts: Vec<i64>,
    },
    /// `SUM(double)`.
    Sum {
        f: AggregateFunction,
        sums: Vec<f64>,
        saw_value: Vec<bool>,
    },
    /// `SUM` over an integer-backed type: exact, and an overflow is an error.
    SumLong {
        f: AggregateFunction,
        sums: Vec<i64>,
        saw_value: Vec<bool>,
    },
    MinMax {
        f: AggregateFunction,
        values: Vec<Option<Value>>,
    },
    Avg {
        f: AggregateFunction,
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    Moments {
        f: AggregateFunction,
        counts: Vec<i64>,
        means: Vec<f64>,
        m2s: Vec<f64>,
    },
    Distinct {
        f: AggregateFunction,
        sets: Vec<HashSet<Value>>,
    },
}

impl GroupedAccumulator {
    fn function(&self) -> AggregateFunction {
        match self {
            GroupedAccumulator::Count { f, .. }
            | GroupedAccumulator::Sum { f, .. }
            | GroupedAccumulator::SumLong { f, .. }
            | GroupedAccumulator::MinMax { f, .. }
            | GroupedAccumulator::Avg { f, .. }
            | GroupedAccumulator::Moments { f, .. }
            | GroupedAccumulator::Distinct { f, .. } => *f,
        }
    }

    /// Number of groups currently tracked.
    pub fn group_count(&self) -> usize {
        match self {
            GroupedAccumulator::Count { counts, .. } => counts.len(),
            GroupedAccumulator::Sum { sums, .. } => sums.len(),
            GroupedAccumulator::SumLong { sums, .. } => sums.len(),
            GroupedAccumulator::MinMax { values, .. } => values.len(),
            GroupedAccumulator::Avg { counts, .. } => counts.len(),
            GroupedAccumulator::Moments { counts, .. } => counts.len(),
            GroupedAccumulator::Distinct { sets, .. } => sets.len(),
        }
    }

    /// Approximate retained bytes, for memory accounting. User memory per
    /// §IV-F2: proportional to group cardinality.
    pub fn size_in_bytes(&self) -> usize {
        match self {
            GroupedAccumulator::Count { counts, .. } => counts.len() * 8,
            GroupedAccumulator::Sum { sums, .. } => sums.len() * 9,
            GroupedAccumulator::SumLong { sums, .. } => sums.len() * 9,
            GroupedAccumulator::MinMax { values, .. } => values.len() * 32,
            GroupedAccumulator::Avg { counts, .. } => counts.len() * 16,
            GroupedAccumulator::Moments { counts, .. } => counts.len() * 24,
            GroupedAccumulator::Distinct { sets, .. } => {
                sets.iter().map(|s| 32 + s.len() * 32).sum()
            }
        }
    }

    /// Ensure at least `n` groups exist (used for global aggregations over
    /// empty input: COUNT(*) = 0, SUM = NULL).
    pub fn ensure_group_count(&mut self, n: usize) {
        self.ensure_groups(n);
    }

    fn ensure_groups(&mut self, n: usize) {
        match self {
            GroupedAccumulator::Count { counts, .. } => counts.resize(n, 0),
            GroupedAccumulator::Sum {
                sums, saw_value, ..
            } => {
                sums.resize(n, 0.0);
                saw_value.resize(n, false);
            }
            GroupedAccumulator::SumLong {
                sums, saw_value, ..
            } => {
                sums.resize(n, 0);
                saw_value.resize(n, false);
            }
            GroupedAccumulator::MinMax { values, .. } => values.resize(n, None),
            GroupedAccumulator::Avg { sums, counts, .. } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0);
            }
            GroupedAccumulator::Moments {
                counts, means, m2s, ..
            } => {
                counts.resize(n, 0);
                means.resize(n, 0.0);
                m2s.resize(n, 0.0);
            }
            GroupedAccumulator::Distinct { sets, .. } => sets.resize_with(n, HashSet::new),
        }
    }

    /// Accumulate raw input rows. `input` is the argument block (`None` for
    /// `COUNT(*)`) and `groups` assigns its rows to groups. Numeric inputs
    /// are read as flat lanes, decoded once when the page is not flat.
    pub fn add_input(&mut self, input: Option<&Block>, groups: Groups<'_>) -> Result<()> {
        self.ensure_groups(groups.count());
        if let Groups::Global(rows) = groups {
            if self.fold_global(input, rows)? {
                return Ok(());
            }
        }
        let group_ids = groups.ids();
        let group_ids = group_ids.as_ref();
        let f = self.function();
        match self {
            GroupedAccumulator::Count { counts, .. } => match (f.kind, input) {
                (AggregateKind::Count, _) => {
                    for &g in group_ids {
                        counts[g as usize] += 1;
                    }
                }
                (_, Some(block)) => match null_lanes(block) {
                    None => {
                        for &g in group_ids {
                            counts[g as usize] += 1;
                        }
                    }
                    Some(nulls) => {
                        for (&g, &null) in group_ids.iter().zip(nulls.iter()) {
                            counts[g as usize] += i64::from(!null);
                        }
                    }
                },
                _ => unreachable!("COUNT(x) requires input"),
            },
            GroupedAccumulator::Sum {
                sums, saw_value, ..
            } => {
                let block = flat::<DoubleBlock>(input.expect("sum input"));
                each(&block.values, &block.nulls, group_ids, |g, v| {
                    sums[g] += v;
                    saw_value[g] = true;
                });
            }
            GroupedAccumulator::SumLong {
                sums, saw_value, ..
            } => {
                let block = flat::<LongBlock>(input.expect("sum input"));
                sum_checked(sums, saw_value, &block.values, &block.nulls, group_ids)?;
            }
            GroupedAccumulator::MinMax { values, .. } => {
                let block = input.expect("min/max input");
                let t = f
                    .input_type
                    .expect("non-count aggregate carries an input type");
                let want_max = f.kind == AggregateKind::Max;
                let beats = |ord: Option<std::cmp::Ordering>| match ord {
                    Some(std::cmp::Ordering::Greater) => want_max,
                    Some(std::cmp::Ordering::Less) => !want_max,
                    _ => false,
                };
                match PhysicalType::of(t) {
                    PhysicalType::Long => {
                        min_max_lanes::<LongBlock>(values, block, t, group_ids, |v, cur| {
                            cur.as_i64().is_some_and(|c| beats(v.partial_cmp(&c)))
                        })
                    }
                    PhysicalType::Double => {
                        min_max_lanes::<DoubleBlock>(values, block, t, group_ids, |v, cur| {
                            cur.as_f64().is_some_and(|c| beats(v.partial_cmp(&c)))
                        })
                    }
                    PhysicalType::Bool | PhysicalType::Varchar => {
                        for (i, &g) in group_ids.iter().enumerate() {
                            if block.is_null(i) {
                                continue;
                            }
                            let v = block.value_at(t, i);
                            let slot = &mut values[g as usize];
                            if slot.as_ref().is_none_or(|cur| beats(v.sql_cmp(cur))) {
                                *slot = Some(v);
                            }
                        }
                    }
                }
            }
            GroupedAccumulator::Avg { sums, counts, .. } => {
                each_f64(input.expect("avg input"), group_ids, |g, v| {
                    sums[g] += v;
                    counts[g] += 1;
                });
            }
            GroupedAccumulator::Moments {
                counts, means, m2s, ..
            } => {
                each_f64(input.expect("moments input"), group_ids, |g, v| {
                    // Welford's online update.
                    counts[g] += 1;
                    let delta = v - means[g];
                    means[g] += delta / counts[g] as f64;
                    m2s[g] += delta * (v - means[g]);
                });
            }
            GroupedAccumulator::Distinct { sets, .. } => {
                let block = input.expect("count distinct input");
                let t = f
                    .input_type
                    .expect("non-count aggregate carries an input type");
                for (i, &g) in group_ids.iter().enumerate() {
                    if !block.is_null(i) {
                        sets[g as usize].insert(block.value_at(t, i));
                    }
                }
            }
        }
        Ok(())
    }

    /// One group's `rows` input rows folded in registers, in row order, so
    /// the result has the bits the grouped loop would give. `false` when
    /// this accumulator has no register fold.
    fn fold_global(&mut self, input: Option<&Block>, rows: usize) -> Result<bool> {
        let f = self.function();
        match self {
            GroupedAccumulator::Count { counts, .. } => {
                let nulls = match (f.kind, input) {
                    (AggregateKind::Count, _) => 0,
                    (_, Some(block)) => {
                        null_lanes(block).map_or(0, |n| n.iter().filter(|&&n| n).count())
                    }
                    _ => unreachable!("COUNT(x) requires input"),
                };
                counts[0] += (rows - nulls) as i64;
            }
            GroupedAccumulator::Sum {
                sums, saw_value, ..
            } => {
                let block = flat::<DoubleBlock>(input.expect("sum input"));
                let (sum, saw) = fold(&block.values, &block.nulls, sums[0], |s, v| s + v);
                sums[0] = sum;
                saw_value[0] |= saw;
            }
            GroupedAccumulator::SumLong {
                sums, saw_value, ..
            } => {
                let block = flat::<LongBlock>(input.expect("sum input"));
                let add = |(s, over): (i64, bool), v: i64| {
                    let (s, o) = s.overflowing_add(v);
                    (s, over | o)
                };
                let ((sum, overflow), saw) =
                    fold(&block.values, &block.nulls, (sums[0], false), add);
                sums[0] = sum;
                saw_value[0] |= saw;
                if overflow {
                    return Err(PrestoError::user("bigint addition overflow"));
                }
            }
            GroupedAccumulator::Avg { sums, counts, .. } => {
                let block = input.expect("avg input");
                let acc = (sums[0], counts[0]);
                let ((sum, count), _) = if block.physical_type() == PhysicalType::Double {
                    let b = flat::<DoubleBlock>(block);
                    fold(&b.values, &b.nulls, acc, |(s, c), v| (s + v, c + 1))
                } else {
                    let b = flat::<LongBlock>(block);
                    fold(&b.values, &b.nulls, acc, |(s, c), v| (s + v as f64, c + 1))
                };
                sums[0] = sum;
                counts[0] = count;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Merge intermediate state produced by [`GroupedAccumulator::write_intermediate`].
    pub fn add_intermediate(&mut self, blocks: &[Block], groups: Groups<'_>) -> Result<()> {
        // Min/max and sum intermediates use the input representation verbatim.
        if let GroupedAccumulator::MinMax { .. }
        | GroupedAccumulator::Sum { .. }
        | GroupedAccumulator::SumLong { .. } = self
        {
            return self.add_input(Some(&blocks[0]), groups);
        }
        self.ensure_groups(groups.count());
        let group_ids = groups.ids();
        let group_ids = group_ids.as_ref();
        match self {
            GroupedAccumulator::Count { counts, .. } => {
                let c = flat::<LongBlock>(&blocks[0]);
                for (&g, &n) in group_ids.iter().zip(&c.values) {
                    counts[g as usize] += n;
                }
            }
            GroupedAccumulator::Avg { sums, counts, .. } => {
                let (s, c) = (
                    flat::<DoubleBlock>(&blocks[0]),
                    flat::<LongBlock>(&blocks[1]),
                );
                for ((&g, &sum), &n) in group_ids.iter().zip(&s.values).zip(&c.values) {
                    sums[g as usize] += sum;
                    counts[g as usize] += n;
                }
            }
            GroupedAccumulator::Moments {
                counts, means, m2s, ..
            } => {
                let cb = flat::<LongBlock>(&blocks[0]);
                let (mb, m2b) = (
                    flat::<DoubleBlock>(&blocks[1]),
                    flat::<DoubleBlock>(&blocks[2]),
                );
                for (i, &g) in group_ids.iter().enumerate() {
                    // Chan et al. parallel merge of (count, mean, M2).
                    let g = g as usize;
                    let (n1, n2) = (counts[g] as f64, cb.values[i] as f64);
                    if n2 == 0.0 {
                        continue;
                    }
                    let delta = mb.values[i] - means[g];
                    let n = n1 + n2;
                    means[g] += delta * n2 / n;
                    m2s[g] += m2b.values[i] + delta * delta * n1 * n2 / n;
                    counts[g] = n as i64;
                }
            }
            GroupedAccumulator::Sum { .. }
            | GroupedAccumulator::SumLong { .. }
            | GroupedAccumulator::MinMax { .. } => unreachable!("handled above"),
            GroupedAccumulator::Distinct { .. } => {
                unreachable!("count_distinct has no intermediate phase")
            }
        }
        Ok(())
    }

    /// Emit intermediate state columns for groups `0..group_count`.
    pub fn write_intermediate(&self) -> Vec<Block> {
        let f = self.function();
        let n = self.group_count();
        match self {
            GroupedAccumulator::Count { counts, .. } => {
                vec![Block::from(presto_page::blocks::LongBlock::from_values(
                    counts.clone(),
                ))]
            }
            GroupedAccumulator::Sum {
                sums, saw_value, ..
            } => {
                vec![Block::from(DoubleBlock::new(
                    sums.clone(),
                    unseen(saw_value),
                ))]
            }
            GroupedAccumulator::SumLong {
                sums, saw_value, ..
            } => {
                vec![Block::from(LongBlock::new(sums.clone(), unseen(saw_value)))]
            }
            GroupedAccumulator::MinMax { values, .. } => {
                let mut b = BlockBuilder::with_capacity(
                    f.input_type
                        .expect("non-count aggregate carries an input type"),
                    n,
                );
                for v in values {
                    match v {
                        Some(v) => b.push_value(v),
                        None => b.push_null(),
                    }
                }
                vec![b.finish()]
            }
            GroupedAccumulator::Avg { sums, counts, .. } => vec![
                Block::from(presto_page::blocks::DoubleBlock::from_values(sums.clone())),
                Block::from(presto_page::blocks::LongBlock::from_values(counts.clone())),
            ],
            GroupedAccumulator::Moments {
                counts, means, m2s, ..
            } => vec![
                Block::from(presto_page::blocks::LongBlock::from_values(counts.clone())),
                Block::from(presto_page::blocks::DoubleBlock::from_values(means.clone())),
                Block::from(presto_page::blocks::DoubleBlock::from_values(m2s.clone())),
            ],
            GroupedAccumulator::Distinct { .. } => {
                unreachable!("count_distinct has no intermediate phase")
            }
        }
    }

    /// Emit final output values for groups `0..group_count`.
    pub fn write_final(&self) -> Block {
        let f = self.function();
        let n = self.group_count();
        let mut out = BlockBuilder::with_capacity(f.output_type(), n);
        match self {
            GroupedAccumulator::Count { counts, .. } => {
                for &c in counts {
                    out.push_i64(c);
                }
            }
            GroupedAccumulator::Sum {
                sums, saw_value, ..
            } => {
                for (&sum, &saw) in sums.iter().zip(saw_value) {
                    if saw {
                        out.push_f64(sum);
                    } else {
                        out.push_null();
                    }
                }
            }
            GroupedAccumulator::SumLong {
                sums, saw_value, ..
            } => {
                for (&sum, &saw) in sums.iter().zip(saw_value) {
                    if saw {
                        out.push_i64(sum);
                    } else {
                        out.push_null();
                    }
                }
            }
            GroupedAccumulator::MinMax { values, .. } => {
                for v in values {
                    match v {
                        Some(v) => out.push_value(v),
                        None => out.push_null(),
                    }
                }
            }
            GroupedAccumulator::Avg { sums, counts, .. } => {
                for g in 0..n {
                    if counts[g] == 0 {
                        out.push_null();
                    } else {
                        out.push_f64(sums[g] / counts[g] as f64);
                    }
                }
            }
            GroupedAccumulator::Moments { counts, m2s, .. } => {
                use AggregateKind::*;
                for g in 0..n {
                    let c = counts[g];
                    let value = match f.kind {
                        VarPop if c >= 1 => Some(m2s[g] / c as f64),
                        VarSamp if c >= 2 => Some(m2s[g] / (c - 1) as f64),
                        StddevPop if c >= 1 => Some((m2s[g] / c as f64).sqrt()),
                        StddevSamp if c >= 2 => Some((m2s[g] / (c - 1) as f64).sqrt()),
                        _ => None,
                    };
                    match value {
                        Some(v) => out.push_f64(v),
                        None => out.push_null(),
                    }
                }
            }
            GroupedAccumulator::Distinct { sets, .. } => {
                for s in sets {
                    out.push_i64(s.len() as i64);
                }
            }
        }
        out.finish()
    }
}

/// Fold the non-NULL lanes of `values` into `acc` in row order; also
/// whether any lane was folded.
#[inline]
fn fold<T: Copy, A>(values: &[T], nulls: &NullMask, acc: A, f: impl Fn(A, T) -> A) -> (A, bool) {
    match nulls {
        None => (values.iter().fold(acc, |a, &v| f(a, v)), !values.is_empty()),
        Some(nulls) => {
            let mut saw = false;
            let mut acc = acc;
            for (&v, &null) in values.iter().zip(nulls) {
                if !null {
                    acc = f(acc, v);
                    saw = true;
                }
            }
            (acc, saw)
        }
    }
}

/// Visit the non-NULL rows of flat lanes as (group, value).
#[inline]
fn each<T: Copy>(values: &[T], nulls: &NullMask, group_ids: &[u32], mut f: impl FnMut(usize, T)) {
    match nulls {
        None => {
            for (&g, &v) in group_ids.iter().zip(values) {
                f(g as usize, v);
            }
        }
        Some(nulls) => {
            for ((&g, &v), &null) in group_ids.iter().zip(values).zip(nulls) {
                if !null {
                    f(g as usize, v);
                }
            }
        }
    }
}

/// [`each`] over a numeric block's lanes, widened to `f64`.
fn each_f64(block: &Block, group_ids: &[u32], mut f: impl FnMut(usize, f64)) {
    if block.physical_type() == PhysicalType::Double {
        let b = flat::<DoubleBlock>(block);
        each(&b.values, &b.nulls, group_ids, f);
    } else {
        let b = flat::<LongBlock>(block);
        each(&b.values, &b.nulls, group_ids, |g, v| f(g, v as f64));
    }
}

/// MIN/MAX over flat lanes: `beats(lane, current)` compares in the lane
/// type, and a `Value` is built only for a new extreme.
fn min_max_lanes<L: Lanes>(
    values: &mut [Option<Value>],
    block: &Block,
    t: DataType,
    group_ids: &[u32],
    beats: impl Fn(L::Lane, &Value) -> bool,
) {
    let lanes = flat::<L>(block);
    let nulls = lanes.null_mask();
    for (i, (&g, &v)) in group_ids.iter().zip(lanes.lanes()).enumerate() {
        if nulls.as_ref().is_some_and(|n| n[i]) {
            continue;
        }
        let slot = &mut values[g as usize];
        if slot.as_ref().is_none_or(|cur| beats(v, cur)) {
            *slot = Some(block.value_at(t, i));
        }
    }
}

/// Integer `SUM`: exact, with overflow a user error.
fn sum_checked(
    sums: &mut [i64],
    saw_value: &mut [bool],
    values: &[i64],
    nulls: &NullMask,
    group_ids: &[u32],
) -> Result<()> {
    let mut overflow = false;
    each(values, nulls, group_ids, |g, v| {
        let (sum, over) = sums[g].overflowing_add(v);
        sums[g] = sum;
        overflow |= over;
        saw_value[g] = true;
    });
    if overflow {
        return Err(PrestoError::user("bigint addition overflow"));
    }
    Ok(())
}

/// A SUM's NULL lanes: the groups that saw no value.
fn unseen(saw_value: &[bool]) -> NullMask {
    saw_value
        .contains(&false)
        .then(|| saw_value.iter().map(|&s| !s).collect())
}

/// The NULL lanes of `block`; `None` when no row is NULL.
fn null_lanes(block: &Block) -> Option<Cow<'_, [bool]>> {
    match block.loaded() {
        Block::Long(b) => b.nulls.as_deref().map(Cow::Borrowed),
        Block::Double(b) => b.nulls.as_deref().map(Cow::Borrowed),
        Block::Bool(b) => b.nulls.as_deref().map(Cow::Borrowed),
        Block::Varchar(b) => b.nulls.as_deref().map(Cow::Borrowed),
        Block::Rle(r) => r.value.is_null(0).then(|| Cow::Owned(vec![true; r.count])),
        Block::Dictionary(d) => {
            let null_entries: Vec<bool> = (0..d.dictionary.len())
                .map(|e| d.dictionary.is_null(e))
                .collect();
            null_entries
                .contains(&true)
                .then(|| Cow::Owned(d.ids.iter().map(|&id| null_entries[id as usize]).collect()))
        }
        Block::Lazy(_) => unreachable!("loaded() resolves lazy blocks"),
    }
}

/// Convenience: run a single-group (global) aggregation over a page column,
/// used by tests and the scalar-aggregation path.
pub fn aggregate_single(
    function: AggregateFunction,
    input: Option<&Block>,
    rows: usize,
) -> Result<Value> {
    let mut acc = function.create_accumulator();
    acc.add_input(input, Groups::Global(rows))?;
    let out = acc.write_final();
    Ok(out.value_at(function.output_type(), 0))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_page::blocks::LongBlock;

    fn bigints(vals: &[Option<i64>]) -> Block {
        Block::from_values(
            DataType::Bigint,
            &vals
                .iter()
                .map(|v| v.map(Value::Bigint).unwrap_or(Value::Null))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn count_variants() {
        let block = bigints(&[Some(1), None, Some(3)]);
        let star = AggregateFunction::new(AggregateKind::Count, None).unwrap();
        assert_eq!(aggregate_single(star, None, 3).unwrap(), Value::Bigint(3));
        let non_null =
            AggregateFunction::new(AggregateKind::CountNonNull, Some(DataType::Bigint)).unwrap();
        assert_eq!(
            aggregate_single(non_null, Some(&block), 3).unwrap(),
            Value::Bigint(2)
        );
    }

    #[test]
    fn sum_empty_group_is_null() {
        let f = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint)).unwrap();
        let block = bigints(&[None, None]);
        assert_eq!(aggregate_single(f, Some(&block), 2).unwrap(), Value::Null);
        let block = bigints(&[Some(2), Some(5)]);
        assert_eq!(
            aggregate_single(f, Some(&block), 2).unwrap(),
            Value::Bigint(7)
        );
    }

    #[test]
    fn bigint_sum_is_exact_and_checks_overflow() {
        let f = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Bigint)).unwrap();
        // 2^53 + 1 does not survive a round trip through f64.
        let block = bigints(&[Some(9_007_199_254_740_993), Some(1)]);
        assert_eq!(
            aggregate_single(f, Some(&block), 2).unwrap(),
            Value::Bigint(9_007_199_254_740_994)
        );
        let over = bigints(&[Some(i64::MAX), Some(1)]);
        let err = aggregate_single(f, Some(&over), 2).unwrap_err();
        assert!(
            err.to_string().contains("bigint addition overflow"),
            "{err}"
        );
        // Merging partial sums checks too.
        let mut fin = f.create_accumulator();
        fin.add_intermediate(&[bigints(&[Some(i64::MAX)])], Groups::Ids(&[0], 0))
            .unwrap();
        let err = fin
            .add_intermediate(&[bigints(&[Some(1)])], Groups::Ids(&[0], 0))
            .unwrap_err();
        assert!(
            err.to_string().contains("bigint addition overflow"),
            "{err}"
        );
    }

    #[test]
    fn global_sum_folds_in_row_order_bit_for_bit() {
        // Order-sensitive: the small terms vanish or survive depending on
        // where they meet the large ones.
        let values = [
            1e16, 1.0, -1e16, 1.0, 0.1, 1e16, -0.0, 3.0, -1e16, 0.7, 1e-3, 2.5e15, -2.5e15, 1.0,
        ];
        let nulls: Vec<bool> = (0..values.len()).map(|i| i % 5 == 3).collect();
        let row_order = |skip: &[bool]| {
            let cells = values.iter().zip(skip);
            cells
                .filter(|(_, &null)| !null)
                .fold(0.0f64, |s, (&v, _)| s + v)
        };
        let f = AggregateFunction::new(AggregateKind::Sum, Some(DataType::Double)).unwrap();
        for nulls in [None, Some(nulls.clone())] {
            let block = Block::from(DoubleBlock::new(values.to_vec(), nulls.clone()));
            let expected = row_order(nulls.as_deref().unwrap_or(&[false; 14]));
            let global = aggregate_single(f, Some(&block), values.len()).unwrap();
            assert_eq!(global.as_f64().unwrap().to_bits(), expected.to_bits());
            // Split across two pages, and through the grouped loop.
            let mut split = f.create_accumulator();
            let (head, tail) = (
                block.filter(&(0..5).collect::<Vec<_>>()),
                block.filter(&(5..14).collect::<Vec<_>>()),
            );
            split.add_input(Some(&head), Groups::Global(5)).unwrap();
            split.add_input(Some(&tail), Groups::Global(9)).unwrap();
            let mut grouped = f.create_accumulator();
            grouped
                .add_input(Some(&block), Groups::Ids(&[0; 14], 0))
                .unwrap();
            for acc in [split, grouped] {
                assert_eq!(acc.write_final().f64_at(0).to_bits(), expected.to_bits());
            }
        }
        assert_ne!(
            row_order(&[false; 14]),
            values.iter().rev().sum::<f64>(),
            "order matters here"
        );
    }

    #[test]
    fn min_max_compare_in_the_lane_type() {
        // 2^53 and 2^53 + 1 are one f64: compared as bigints they differ.
        let max = AggregateFunction::new(AggregateKind::Max, Some(DataType::Bigint)).unwrap();
        let block = bigints(&[Some(9_007_199_254_740_992), Some(9_007_199_254_740_993)]);
        assert_eq!(
            aggregate_single(max, Some(&block), 2).unwrap(),
            Value::Bigint(9_007_199_254_740_993)
        );
        // A NaN never beats the running extreme, as under `sql_cmp`.
        let min = AggregateFunction::new(AggregateKind::Min, Some(DataType::Double)).unwrap();
        let block = Block::from_values(
            DataType::Double,
            &[
                Value::Double(2.0),
                Value::Double(f64::NAN),
                Value::Null,
                Value::Double(-1.5),
            ],
        );
        assert_eq!(
            aggregate_single(min, Some(&block), 4).unwrap(),
            Value::Double(-1.5)
        );
    }

    #[test]
    fn encoded_inputs_decode_once_and_agree() {
        use presto_page::blocks::DictionaryBlock;
        use std::sync::Arc;
        let flat = bigints(&[Some(4), None, Some(4), Some(-1), None]);
        let dictionary = Block::Dictionary(DictionaryBlock::new(
            Arc::new(bigints(&[Some(4), None, Some(-1)])),
            vec![0, 1, 0, 2, 1],
        ));
        let ids = [0, 1, 0, 1, 1];
        for kind in [
            AggregateKind::CountNonNull,
            AggregateKind::Sum,
            AggregateKind::Avg,
            AggregateKind::VarSamp,
            AggregateKind::Min,
            AggregateKind::Max,
        ] {
            let f = AggregateFunction::new(kind, Some(DataType::Bigint)).unwrap();
            let run = |block: &Block| {
                let mut acc = f.create_accumulator();
                acc.add_input(Some(block), Groups::Ids(&ids, 1)).unwrap();
                let out = acc.write_final();
                (0..2)
                    .map(|g| out.value_at(f.output_type(), g))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(&dictionary), run(&flat), "{kind:?}");
        }
        let count =
            AggregateFunction::new(AggregateKind::CountNonNull, Some(DataType::Bigint)).unwrap();
        let null_run = Block::rle(Block::single(DataType::Bigint, &Value::Null), 3);
        assert_eq!(
            aggregate_single(count, Some(&null_run), 3).unwrap(),
            Value::Bigint(0)
        );
    }

    #[test]
    fn min_max_with_groups() {
        let f = AggregateFunction::new(AggregateKind::Max, Some(DataType::Bigint)).unwrap();
        let mut acc = f.create_accumulator();
        let block = Block::from(LongBlock::from_values(vec![5, 1, 9, 3]));
        acc.add_input(Some(&block), Groups::Ids(&[0, 1, 0, 1], 1))
            .unwrap();
        let out = acc.write_final();
        assert_eq!(out.i64_at(0), 9);
        assert_eq!(out.i64_at(1), 3);
    }

    #[test]
    fn avg_partial_final_equals_single_phase() {
        let f = AggregateFunction::new(AggregateKind::Avg, Some(DataType::Bigint)).unwrap();
        // Partial 1 sees [1, 2]; partial 2 sees [3].
        let mut p1 = f.create_accumulator();
        p1.add_input(
            Some(&Block::from(LongBlock::from_values(vec![1, 2]))),
            Groups::Ids(&[0, 0], 0),
        )
        .unwrap();
        let mut p2 = f.create_accumulator();
        p2.add_input(
            Some(&Block::from(LongBlock::from_values(vec![3]))),
            Groups::Ids(&[0], 0),
        )
        .unwrap();
        // Final merges both intermediates.
        let mut fin = f.create_accumulator();
        fin.add_intermediate(&p1.write_intermediate(), Groups::Ids(&[0], 0))
            .unwrap();
        fin.add_intermediate(&p2.write_intermediate(), Groups::Ids(&[0], 0))
            .unwrap();
        assert_eq!(fin.write_final().f64_at(0), 2.0);
    }

    #[test]
    fn stddev_merge_matches_single_pass() {
        let data: Vec<i64> = vec![2, 4, 4, 4, 5, 5, 7, 9];
        let f = AggregateFunction::new(AggregateKind::StddevPop, Some(DataType::Bigint)).unwrap();
        // Single phase.
        let block = Block::from(LongBlock::from_values(data.clone()));
        let single = aggregate_single(f, Some(&block), data.len()).unwrap();
        // Two partials split 3/5.
        let mut p1 = f.create_accumulator();
        p1.add_input(
            Some(&Block::from(LongBlock::from_values(data[..3].to_vec()))),
            Groups::Ids(&[0; 3], 0),
        )
        .unwrap();
        let mut p2 = f.create_accumulator();
        p2.add_input(
            Some(&Block::from(LongBlock::from_values(data[3..].to_vec()))),
            Groups::Ids(&[0; 5], 0),
        )
        .unwrap();
        let mut fin = f.create_accumulator();
        fin.add_intermediate(&p1.write_intermediate(), Groups::Ids(&[0], 0))
            .unwrap();
        fin.add_intermediate(&p2.write_intermediate(), Groups::Ids(&[0], 0))
            .unwrap();
        let merged = fin.write_final().f64_at(0);
        // Known value: stddev_pop of this set is exactly 2.
        assert!((merged - 2.0).abs() < 1e-9);
        assert_eq!(single, Value::Double(merged));
    }

    #[test]
    fn count_distinct() {
        let f =
            AggregateFunction::new(AggregateKind::CountDistinct, Some(DataType::Bigint)).unwrap();
        assert!(!f.kind.supports_partial());
        let block = bigints(&[Some(1), Some(1), Some(2), None]);
        assert_eq!(
            aggregate_single(f, Some(&block), 4).unwrap(),
            Value::Bigint(2)
        );
    }

    #[test]
    fn resolve_names() {
        assert_eq!(
            AggregateKind::resolve("SUM", true, false).unwrap(),
            AggregateKind::Sum
        );
        assert_eq!(
            AggregateKind::resolve("count", false, false).unwrap(),
            AggregateKind::Count
        );
        assert_eq!(
            AggregateKind::resolve("count", true, true).unwrap(),
            AggregateKind::CountDistinct
        );
        assert!(AggregateKind::resolve("sum", true, true).is_err());
        assert!(AggregateKind::resolve("median", true, false).is_err());
    }

    #[test]
    fn type_checking() {
        assert!(AggregateFunction::new(AggregateKind::Sum, Some(DataType::Varchar)).is_err());
        assert!(AggregateFunction::new(AggregateKind::Min, Some(DataType::Varchar)).is_ok());
        assert!(AggregateFunction::new(AggregateKind::CountNonNull, None).is_err());
    }
}
