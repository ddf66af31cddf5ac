//! Runtime dynamic filtering: push join build-side key domains into
//! probe-side table scans.
//!
//! A hash join's build side, once fully consumed, knows the exact set of
//! key values any probe row must carry to survive the join. For selective
//! joins (a dimension table filtered to a few rows joining a large fact
//! table) that domain is a far stronger predicate than anything the
//! optimizer could derive statically, so the engine collects it at runtime
//! and feeds it back into the probe-side scans (§IV-B3 pushdown applied at
//! execution time):
//!
//! 1. **Collection** — each [`crate::join::HashBuilderOperator`] folds each
//!    build page's key lanes into a [`DomainCollector`]: one typed domain
//!    per key (an exact set, overflowing to min/max, escalating to "no
//!    constraint"), plus the row hashes the build already computed.
//! 2. **Publication** — when the last builder finishes, the merged domains
//!    are reported to the query's [`DynamicFilterRegistry`]. Partitioned
//!    builds merge one report per task; replicated (broadcast) builds
//!    complete on the first report. Only then does each become a [`Domain`].
//! 3. **Consumption** — probe-side scans hold a [`ScanDynamicFilter`]:
//!    unassigned splits are re-pruned against their min/max summaries,
//!    open readers re-check stripes (via [`presto_connector::DynamicFilter`]),
//!    and surviving pages pass a row check on their key lanes before
//!    leaving the scan. Scans wait at most `session.dynamic_filter_wait`
//!    for filters; an expired deadline simply scans unpruned — dynamic
//!    filtering is an optimization, never a correctness dependency.

use parking_lot::{Condvar, Mutex};
use presto_common::{DataType, PlanNodeId, Value};
use presto_connector::{Domain, DynamicFilterTotals, TupleDomain};
use presto_page::blocks::{flat, Lanes};
use presto_page::hash::hash_columns;
use presto_page::{Block, BoolBlock, DoubleBlock, LongBlock, Page, PhysicalType};
use presto_planner::DynamicFilterSpec;
use std::cmp;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row hashes retained for the probe-side Bloom filter are capped; a build
/// side past this size publishes domains only.
const MAX_BLOOM_HASHES: usize = 1 << 20;

/// Sets larger than this get no row check: the Bloom filter covers them.
const MAX_ROW_CHECK_SET: usize = 64;

/// A build key's physical lane as its domain holds it: `i64` for bigint,
/// date and timestamp, `f64`, `bool`, or a varchar's string. `PartialOrd`
/// is SQL order, as [`Value::sql_cmp`] compares two keys of one type: NaN
/// is unordered and `-0.0` equals `0.0`.
trait Lane: Clone + PartialOrd {
    /// `Value`'s total order, in which a set is kept sorted; lanes it calls
    /// equal are one member. SQL order is total on every lane but `f64`.
    fn value_cmp(&self, other: &Self) -> cmp::Ordering {
        self.partial_cmp(other).unwrap_or(cmp::Ordering::Equal)
    }
}

impl Lane for i64 {}
impl Lane for bool {}
impl Lane for Box<str> {}
impl Lane for f64 {
    /// Bit-equal doubles only are one member, as `Value` equality has it.
    fn value_cmp(&self, other: &f64) -> cmp::Ordering {
        self.total_cmp(other)
    }
}

/// One build key's domain over its lanes: the exact distinct lanes, sorted
/// in `Value` order, until there are more than `max_values`; then the
/// inclusive range they span; `All` (no constraint) once a lane is not
/// self-comparable (NaN), which min/max cannot soundly summarize.
#[derive(Debug)]
enum KeyLanes<K> {
    Set(Vec<K>),
    Range(K, K),
    All,
}

impl<K: Lane> KeyLanes<K> {
    /// Fold in the lanes of non-NULL keys.
    fn add(&mut self, mut lanes: Vec<K>, max_values: usize) {
        if lanes.iter().any(|k| k.partial_cmp(k).is_none()) {
            *self = KeyLanes::All;
        }
        match self {
            KeyLanes::All => {}
            KeyLanes::Set(set) => {
                set.append(&mut lanes);
                // A stable sort merges the sorted set with the new run.
                set.sort_by(K::value_cmp);
                set.dedup_by(|a, b| a.value_cmp(b).is_eq());
                if set.len() > max_values {
                    // NaN-free, so the total order's ends are the SQL bounds.
                    *self = KeyLanes::Range(set[0].clone(), set[set.len() - 1].clone());
                }
            }
            KeyLanes::Range(min, max) => {
                for k in lanes {
                    if k < *min {
                        *min = k;
                    } else if k > *max {
                        *max = k;
                    }
                }
            }
        }
    }

    fn merge(self, other: KeyLanes<K>, max_values: usize) -> KeyLanes<K> {
        let (mut into, lanes) = match (self, other) {
            (KeyLanes::All, _) | (_, KeyLanes::All) => return KeyLanes::All,
            (KeyLanes::Set(lanes), into) | (into, KeyLanes::Set(lanes)) => (into, lanes),
            (into, KeyLanes::Range(min, max)) => (into, vec![min, max]),
        };
        into.add(lanes, max_values);
        into
    }

    /// The pushdown [`Domain`], each lane made a `Value` by `value`; `None`
    /// when unconstrained.
    fn to_domain(&self, value: impl Fn(&K) -> Value) -> Option<Domain> {
        match self {
            KeyLanes::All => None,
            KeyLanes::Set(set) => Some(Domain::Set(set.iter().map(value).collect())),
            KeyLanes::Range(min, max) => Some(Domain::Range {
                min: Some(value(min)),
                max: Some(value(max)),
            }),
        }
    }

    /// [`KeyLanes::add`] of the lanes of `block`, flat as `L`, at `rows`.
    fn add_lanes<L: Lanes<Lane = K>>(&mut self, block: &Block, rows: &[u32], max_values: usize) {
        let lanes = flat::<L>(block);
        let lanes = rows.iter().map(|&r| lanes.lanes()[r as usize].clone());
        self.add(lanes.collect(), max_values);
    }

    /// [`KeyLanes::retain`] over the lanes of `block`, flat as `L`.
    fn retain_lanes<L: Lanes<Lane = K>>(&self, block: &Block, keep: &mut [bool]) {
        let lanes = flat::<L>(block);
        let nulls = lanes.null_mask().as_deref();
        let probe = (lanes.lanes().iter().enumerate())
            .map(|(r, v)| (!nulls.is_some_and(|n| n[r])).then_some(v));
        self.retain(keep, probe, K::partial_cmp);
    }

    /// Clear `keep[r]` for each probe row whose lane (`None`: NULL) equals
    /// no key under SQL `=`; `order` orders a key against a probe lane.
    fn retain<'a, P: ?Sized + 'a>(
        &self,
        keep: &mut [bool],
        probe: impl Iterator<Item = Option<&'a P>>,
        order: impl Fn(&K, &P) -> Option<cmp::Ordering>,
    ) {
        let joins = |v: &P| match self {
            // NaN orders against nothing: treated as Less, it is never found.
            KeyLanes::Set(set) => set
                .binary_search_by(|k| order(k, v).unwrap_or(cmp::Ordering::Less))
                .is_ok(),
            KeyLanes::Range(min, max) => {
                let (lo, hi) = (order(min, v), order(max, v));
                lo.is_some_and(cmp::Ordering::is_le) && hi.is_some_and(cmp::Ordering::is_ge)
            }
            KeyLanes::All => true,
        };
        for (slot, lane) in keep.iter_mut().zip(probe) {
            *slot = *slot && lane.is_some_and(joins);
        }
    }
}

/// A build key's `KeyLanes` by physical type, `i64` lanes with their SQL
/// type. Hash-join keys pair equal types only, so a probe key's lanes are
/// its build key's.
#[derive(Debug)]
enum TypedDomain {
    Long(KeyLanes<i64>, DataType),
    Double(KeyLanes<f64>),
    Bool(KeyLanes<bool>),
    Varchar(KeyLanes<Box<str>>),
}

impl TypedDomain {
    fn new(data_type: DataType) -> TypedDomain {
        match PhysicalType::of(data_type) {
            PhysicalType::Long => TypedDomain::Long(KeyLanes::Set(Vec::new()), data_type),
            PhysicalType::Double => TypedDomain::Double(KeyLanes::Set(Vec::new())),
            PhysicalType::Bool => TypedDomain::Bool(KeyLanes::Set(Vec::new())),
            PhysicalType::Varchar => TypedDomain::Varchar(KeyLanes::Set(Vec::new())),
        }
    }

    /// Fold in the key lanes of `block` at `rows`, whose keys are non-NULL.
    fn add(&mut self, block: &Block, rows: &[u32], max_values: usize) {
        match self {
            TypedDomain::Long(d, _) => d.add_lanes::<LongBlock>(block, rows, max_values),
            TypedDomain::Double(d) => d.add_lanes::<DoubleBlock>(block, rows, max_values),
            TypedDomain::Bool(d) => d.add_lanes::<BoolBlock>(block, rows, max_values),
            TypedDomain::Varchar(d) => {
                let block = block.loaded();
                let mut lanes: Vec<&str> = rows.iter().map(|&r| block.str_at(r as usize)).collect();
                lanes.sort_unstable();
                lanes.dedup();
                let ranged = matches!(d, KeyLanes::Range(..)) || lanes.len() > max_values;
                if ranged && lanes.len() > 2 {
                    // Only the page's ends can stay: a range widens to them,
                    // and a set that must become a range spans them too.
                    let ends = KeyLanes::Range(lanes[0].into(), lanes[lanes.len() - 1].into());
                    *d = std::mem::replace(d, KeyLanes::All).merge(ends, max_values);
                } else {
                    d.add(lanes.into_iter().map(Into::into).collect(), max_values);
                }
            }
        }
    }

    fn merge(self, other: TypedDomain, max_values: usize) -> TypedDomain {
        use TypedDomain::{Bool, Double, Long, Varchar};
        match (self, other) {
            (Long(a, t), Long(b, _)) => Long(a.merge(b, max_values), t),
            (Double(a), Double(b)) => Double(a.merge(b, max_values)),
            (Bool(a), Bool(b)) => Bool(a.merge(b, max_values)),
            (Varchar(a), Varchar(b)) => Varchar(a.merge(b, max_values)),
            _ => unreachable!("every report of one key has its lane type"),
        }
    }

    /// The connector's [`Domain`]: the one place a dynamic filter builds
    /// `Value`s.
    fn to_domain(&self) -> Option<Domain> {
        match self {
            TypedDomain::Long(d, t) => d.to_domain(|&v| Value::from_i64(*t, v)),
            TypedDomain::Double(d) => d.to_domain(|&v| Value::Double(v)),
            TypedDomain::Bool(d) => d.to_domain(|&v| Value::Boolean(v)),
            TypedDomain::Varchar(d) => d.to_domain(|v| Value::varchar(v)),
        }
    }

    /// Clear `keep[r]` for each row of the probe key `block` that joins no
    /// build key (a NULL joins none).
    fn retain(&self, block: &Block, keep: &mut [bool]) {
        match self {
            TypedDomain::Long(d, _) => d.retain_lanes::<LongBlock>(block, keep),
            TypedDomain::Double(d) => d.retain_lanes::<DoubleBlock>(block, keep),
            TypedDomain::Bool(d) => d.retain_lanes::<BoolBlock>(block, keep),
            TypedDomain::Varchar(d) => {
                let block = block.loaded();
                let probe = (0..keep.len()).map(|r| (!block.is_null(r)).then(|| block.str_at(r)));
                d.retain(keep, probe, |k, v| Some((**k).cmp(v)));
            }
        }
    }
}

/// Bloom filter over combined build-key row hashes (three probes via
/// double hashing). Sized at ~12 bits/key for a low false-positive rate.
#[derive(Debug, Clone)]
pub struct DfBloom {
    bits: Vec<u64>,
    mask: u64,
}

impl DfBloom {
    pub fn build(hashes: &[u64]) -> DfBloom {
        let nbits = (hashes.len().max(64) * 12).next_power_of_two();
        let mut bits = vec![0u64; nbits / 64];
        let mask = (nbits - 1) as u64;
        for &h in hashes {
            let step = (h >> 32) | 1;
            for k in 0..3u64 {
                let bit = h.wrapping_add(k.wrapping_mul(step)) & mask;
                bits[(bit / 64) as usize] |= 1 << (bit % 64);
            }
        }
        DfBloom { bits, mask }
    }

    #[inline]
    pub fn may_contain(&self, h: u64) -> bool {
        let step = (h >> 32) | 1;
        (0..3u64).all(|k| {
            let bit = h.wrapping_add(k.wrapping_mul(step)) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }
}

/// One builder's (or one task's) raw contribution: per-key domains plus the
/// combined row hashes, mergeable across builders and tasks.
#[derive(Debug)]
pub struct CollectedDomains {
    keys: Vec<TypedDomain>,
    /// `None` once the hash count overflowed [`MAX_BLOOM_HASHES`].
    hashes: Option<Vec<u64>>,
    pub rows: u64,
    max_values: usize,
}

impl CollectedDomains {
    pub fn empty(key_types: &[DataType], max_values: usize) -> CollectedDomains {
        CollectedDomains {
            keys: key_types.iter().map(|&t| TypedDomain::new(t)).collect(),
            hashes: Some(Vec::new()),
            rows: 0,
            max_values,
        }
    }

    pub fn merge(mut self, other: CollectedDomains) -> CollectedDomains {
        let keys = self.keys.into_iter().zip(other.keys);
        self.keys = keys.map(|(a, b)| a.merge(b, self.max_values)).collect();
        self.hashes = match (self.hashes, other.hashes) {
            (Some(mut a), Some(b)) if a.len() + b.len() <= MAX_BLOOM_HASHES => {
                a.extend(b);
                Some(a)
            }
            _ => None,
        };
        self.rows += other.rows;
        self
    }

    fn publish(self) -> PublishedFilter {
        let bloom = match &self.hashes {
            Some(h) if !h.is_empty() => Some(DfBloom::build(h)),
            _ => None,
        };
        let domains: Vec<Option<Domain>> = self.keys.iter().map(TypedDomain::to_domain).collect();
        let row_checks = (self.keys.into_iter().zip(&domains)).map(|(k, d)| match d {
            Some(Domain::Set(v)) if v.len() > MAX_ROW_CHECK_SET => None,
            d => d.as_ref().map(|_| k),
        });
        PublishedFilter {
            row_checks: row_checks.collect(),
            domains,
            bloom,
            rows: self.rows,
        }
    }
}

/// Per-builder collector, filled off the bridge lock as build pages arrive.
#[derive(Debug)]
pub struct DomainCollector {
    key_channels: Vec<usize>,
    collected: CollectedDomains,
}

impl DomainCollector {
    pub fn new(
        key_channels: Vec<usize>,
        key_types: &[DataType],
        max_values: usize,
    ) -> DomainCollector {
        DomainCollector {
            key_channels,
            collected: CollectedDomains::empty(key_types, max_values),
        }
    }

    /// Fold in the build rows of `page` at `rows`, every key of which is
    /// non-NULL: one typed pass per key. `hashes[r]` is row `r`'s combined
    /// key hash, exactly as the join build computed it.
    pub fn add_rows(&mut self, page: &Page, rows: &[u32], hashes: &[u64]) {
        let c = &mut self.collected;
        c.rows += rows.len() as u64;
        match &mut c.hashes {
            Some(h) if h.len() + rows.len() <= MAX_BLOOM_HASHES => {
                h.extend(rows.iter().map(|&r| hashes[r as usize]))
            }
            slot => *slot = None,
        }
        for (key, &ch) in c.keys.iter_mut().zip(&self.key_channels) {
            key.add(page.block(ch), rows, c.max_values);
        }
    }

    pub fn finish(self) -> CollectedDomains {
        self.collected
    }
}

/// A completed, merged dynamic filter for one join.
#[derive(Debug)]
pub struct PublishedFilter {
    /// Per build-key domain, aligned with the join's key order; `None`
    /// means that key is unconstrained.
    pub domains: Vec<Option<Domain>>,
    /// The typed domains the row check reads; `None` where a key is
    /// unconstrained or its set is past [`MAX_ROW_CHECK_SET`].
    row_checks: Vec<Option<TypedDomain>>,
    /// Membership filter over combined key hashes in key order.
    pub bloom: Option<DfBloom>,
    /// Build rows with fully non-null keys. Zero proves the join — and so
    /// the probe scan — produces nothing.
    pub rows: u64,
}

#[derive(Default)]
struct FilterSlot {
    /// Reports that complete the filter; 0 (unregistered) means 1.
    expected: usize,
    received: usize,
    pending: Option<CollectedDomains>,
    done: Option<Arc<PublishedFilter>>,
}

/// Coordinator-routed rendezvous between join builds (producers) and scans
/// (consumers). One registry serves a whole query; joins are keyed by plan
/// node id.
#[derive(Default)]
pub struct DynamicFilterRegistry {
    slots: Mutex<HashMap<PlanNodeId, FilterSlot>>,
    cond: Condvar,
    /// Query-wide counters, rolled into cluster telemetry by the coordinator.
    totals: DynamicFilterTotals,
}

impl DynamicFilterRegistry {
    pub fn new() -> Arc<DynamicFilterRegistry> {
        Arc::new(DynamicFilterRegistry::default())
    }

    pub fn totals(&self) -> &DynamicFilterTotals {
        &self.totals
    }

    /// Declare how many build-side reports complete `join`'s filter: the
    /// join stage's task count for partitioned builds, 1 for replicated
    /// builds (every task sees the full build side, the first wins).
    pub fn register(&self, join: PlanNodeId, expected: usize) {
        self.slots.lock().entry(join).or_default().expected = expected;
    }

    /// Merge one build side's domains in; the report completing the filter
    /// publishes it and wakes waiters. Reports to an unregistered join
    /// complete immediately (single-task execution).
    pub fn report(&self, join: PlanNodeId, collected: CollectedDomains) {
        let mut slots = self.slots.lock();
        let slot = slots.entry(join).or_default();
        if slot.done.is_some() {
            return; // replicated build: later tasks re-report the same domain
        }
        slot.received += 1;
        slot.pending = Some(match slot.pending.take() {
            Some(prev) => prev.merge(collected),
            None => collected,
        });
        if slot.received >= slot.expected.max(1) {
            let merged = slot.pending.take().expect("just stored");
            slot.done = Some(Arc::new(merged.publish()));
            self.totals
                .filters_published
                .fetch_add(1, Ordering::Relaxed);
            drop(slots);
            self.cond.notify_all();
        }
    }

    pub fn completed(&self, join: PlanNodeId) -> Option<Arc<PublishedFilter>> {
        self.slots.lock().get(&join).and_then(|s| s.done.clone())
    }

    /// Block until every listed join's filter is complete or `deadline`
    /// passes; returns whether all completed. Used by the coordinator's
    /// split feeder — operators poll non-blockingly instead.
    pub fn wait_all(&self, joins: &[PlanNodeId], deadline: Instant) -> bool {
        let mut slots = self.slots.lock();
        loop {
            let all = joins
                .iter()
                .all(|j| slots.get(j).is_some_and(|s| s.done.is_some()));
            if all {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cond.wait_for(&mut slots, deadline - now);
        }
    }
}

/// Whether a split whose per-column min/max summary is `split` can be
/// discarded under the dynamic constraint `dynamic` (both keyed by table
/// column index).
pub fn split_pruned(dynamic: &TupleDomain, split: &TupleDomain) -> bool {
    if dynamic.is_none() {
        return true;
    }
    dynamic
        .columns()
        .any(|col| match (dynamic.domain(col), split.domain(col)) {
            (Some(d), Some(s)) => d.intersect(s).is_none(),
            _ => false,
        })
}

/// Hand-off from the coordinator into task compilation: the query's
/// registry plus the planner's filter specs.
pub struct TaskDynamicFilters {
    pub registry: Arc<DynamicFilterRegistry>,
    pub specs: Vec<DynamicFilterSpec>,
}

impl TaskDynamicFilters {
    pub fn new(
        registry: Arc<DynamicFilterRegistry>,
        specs: Vec<DynamicFilterSpec>,
    ) -> Arc<TaskDynamicFilters> {
        Arc::new(TaskDynamicFilters { registry, specs })
    }

    pub fn specs_for_scan(&self, scan: PlanNodeId) -> Vec<DynamicFilterSpec> {
        self.specs
            .iter()
            .filter(|s| s.scan == scan)
            .cloned()
            .collect()
    }

    pub fn produces_for_join(&self, join: PlanNodeId) -> bool {
        self.specs.iter().any(|s| s.join == join)
    }
}

/// Consumer handle held by one scan operator. A scan can receive filters
/// from several joins (a star-schema fact table gets one per dimension);
/// their domains intersect. All counters are also forwarded to the
/// registry's query-wide totals.
pub struct ScanDynamicFilter {
    registry: Arc<DynamicFilterRegistry>,
    specs: Vec<DynamicFilterSpec>,
    started: Instant,
    deadline: Instant,
    ready: AtomicBool,
    /// Cached effective domain, computed once every filter is in (or the
    /// deadline expired).
    cache: Mutex<Option<Option<TupleDomain>>>,
    /// This scan's own share of the registry's totals.
    own: DynamicFilterTotals,
}

impl ScanDynamicFilter {
    pub fn new(
        registry: Arc<DynamicFilterRegistry>,
        specs: Vec<DynamicFilterSpec>,
        wait: Duration,
    ) -> Arc<ScanDynamicFilter> {
        let started = Instant::now();
        Arc::new(ScanDynamicFilter {
            registry,
            specs,
            started,
            deadline: started + wait,
            ready: AtomicBool::new(false),
            cache: Mutex::new(None),
            own: DynamicFilterTotals::default(),
        })
    }

    /// Count `n` on this scan and on the query-wide totals.
    fn count(&self, counter: impl Fn(&DynamicFilterTotals) -> &AtomicU64, n: u64) {
        counter(&self.own).fetch_add(n, Ordering::Relaxed);
        counter(self.registry.totals()).fetch_add(n, Ordering::Relaxed);
    }

    /// Whether the scan may proceed: every expected filter arrived or the
    /// wait deadline expired. Records the wait time on the transition.
    pub fn ready(&self) -> bool {
        if self.ready.load(Ordering::Relaxed) {
            return true;
        }
        let complete = self
            .specs
            .iter()
            .all(|s| self.registry.completed(s.join).is_some());
        if !complete && Instant::now() < self.deadline {
            return false;
        }
        if self
            .ready
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.count(|t| &t.wait_nanos, self.started.elapsed().as_nanos() as u64);
        }
        true
    }

    /// The effective constraint over *table* column indices, from every
    /// completed filter; `None` when nothing has arrived yet.
    pub fn table_domain(&self) -> Option<TupleDomain> {
        if let Some(cached) = &*self.cache.lock() {
            return cached.clone();
        }
        let domain = self.compute_domain();
        if self.ready.load(Ordering::Relaxed) {
            *self.cache.lock() = Some(domain.clone());
        }
        domain
    }

    fn compute_domain(&self) -> Option<TupleDomain> {
        let mut td = TupleDomain::all();
        let mut any = false;
        for spec in &self.specs {
            let Some(filter) = self.registry.completed(spec.join) else {
                continue;
            };
            any = true;
            if filter.rows == 0 {
                return Some(TupleDomain::none());
            }
            for key in spec.mapped_keys() {
                if let Some(Some(d)) = filter.domains.get(key.key_index) {
                    td.constrain(key.table_column, d.clone());
                }
            }
        }
        any.then_some(td)
    }

    /// An empty build side proves the probe produces nothing; the scan
    /// becomes a no-op.
    pub fn provably_empty(&self) -> bool {
        self.table_domain().is_some_and(|d| d.is_none())
    }

    /// Row-level membership filter: per-key range / small-set checks plus
    /// the Bloom filter over combined key hashes (only when every key of a
    /// spec maps onto this scan, so the hash is reproducible).
    pub fn prune_rows(&self, page: Page) -> Page {
        let active: Vec<(Arc<PublishedFilter>, &DynamicFilterSpec)> = self
            .specs
            .iter()
            .filter_map(|s| self.registry.completed(s.join).map(|f| (f, s)))
            .collect();
        if active.is_empty() {
            return page;
        }
        let rows = page.row_count();
        let mut keep = vec![true; rows];
        for (filter, spec) in &active {
            if filter.rows == 0 {
                keep.iter_mut().for_each(|k| *k = false);
                break;
            }
            for key in spec.mapped_keys() {
                if let Some(Some(check)) = filter.row_checks.get(key.key_index) {
                    check.retain(page.block(key.scan_channel), &mut keep);
                }
            }
            if let Some(bloom) = &filter.bloom {
                if !spec.keys.is_empty() && spec.keys.iter().all(Option::is_some) {
                    let channels: Vec<usize> =
                        spec.keys.iter().flatten().map(|k| k.scan_channel).collect();
                    let hashes = hash_columns(&page, &channels);
                    for (slot, h) in keep.iter_mut().zip(&hashes) {
                        if *slot && !bloom.may_contain(*h) {
                            *slot = false;
                        }
                    }
                }
            }
        }
        let selection: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i as u32))
            .collect();
        let dropped = (rows - selection.len()) as u64;
        if dropped == 0 {
            return page;
        }
        self.count(|t| &t.rows_filtered, dropped);
        page.filter(&selection)
    }

    pub fn note_splits_pruned(&self, n: u64) {
        self.count(|t| &t.splits_pruned, n);
    }

    /// Counters surfaced through the owning scan operator's stats.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let own = self.own.snapshot();
        vec![
            ("df_splits_pruned", own.splits_pruned),
            ("df_stripes_pruned", own.stripes_pruned),
            ("df_rows_filtered", own.rows_filtered),
            ("df_wait_ms", own.wait_nanos / 1_000_000),
        ]
    }
}

impl presto_connector::DynamicFilter for ScanDynamicFilter {
    fn domain(&self) -> Option<TupleDomain> {
        self.table_domain()
    }

    fn record_stripes_pruned(&self, n: u64) {
        self.count(|t| &t.stripes_pruned, n);
    }
}

/// Build-side publication config, attached to a [`crate::join::JoinBridge`]
/// when the planner mapped this join's keys onto a probe-side scan.
pub struct DynamicFilterSource {
    pub join: PlanNodeId,
    pub registry: Arc<DynamicFilterRegistry>,
    pub key_types: Vec<DataType>,
    pub max_values: usize,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use presto_common::Schema;
    use presto_planner::DynamicFilterKey;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn bigint_page(values: &[i64]) -> Page {
        let schema = Schema::of(&[("k", DataType::Bigint)]);
        let rows: Vec<Vec<Value>> = values.iter().map(|&v| vec![Value::Bigint(v)]).collect();
        Page::from_rows(&schema, &rows)
    }

    fn collect(values: &[i64], max_values: usize) -> CollectedDomains {
        let page = bigint_page(values);
        let hashes = hash_columns(&page, &[0]);
        let mut c = DomainCollector::new(vec![0], &[DataType::Bigint], max_values);
        let rows: Vec<u32> = (0..values.len() as u32).collect();
        c.add_rows(&page, &rows, &hashes);
        c.finish()
    }

    #[test]
    fn small_build_publishes_exact_set() {
        let f = collect(&[3, 1, 2, 2], 100).publish();
        assert_eq!(f.rows, 4);
        match &f.domains[0] {
            Some(Domain::Set(v)) => {
                assert_eq!(
                    v,
                    &vec![Value::Bigint(1), Value::Bigint(2), Value::Bigint(3)]
                );
            }
            other => panic!("expected set, got {other:?}"),
        }
        assert!(f.bloom.is_some());
    }

    #[test]
    fn overflow_demotes_to_range() {
        let values: Vec<i64> = (0..50).collect();
        let f = collect(&values, 10).publish();
        match &f.domains[0] {
            Some(Domain::Range { min, max }) => {
                assert_eq!(min, &Some(Value::Bigint(0)));
                assert_eq!(max, &Some(Value::Bigint(49)));
            }
            other => panic!("expected range, got {other:?}"),
        }
    }

    /// The scan-side filter of a join published from `collected`, its one
    /// bigint key on channel 0.
    fn bigint_scan_filter(collected: CollectedDomains) -> Arc<ScanDynamicFilter> {
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(5);
        registry.report(join, collected);
        let key = DynamicFilterKey {
            key_index: 0,
            scan_channel: 0,
            table_column: 0,
        };
        let spec = DynamicFilterSpec {
            join,
            join_fragment: 0,
            scan: PlanNodeId(6),
            scan_fragment: 1,
            broadcast: false,
            keys: vec![Some(key)],
        };
        ScanDynamicFilter::new(registry, vec![spec], Duration::from_secs(5))
    }

    #[test]
    fn bigint_range_beyond_f64_precision_keeps_every_joining_row() {
        const BIG: i64 = 1 << 53; // BIG and BIG + 1 are one f64
        let rest: Vec<i64> = (2..MAX_ROW_CHECK_SET as i64 + 4).map(|d| BIG + d).collect();
        for pair in [[BIG + 1, BIG], [BIG, BIG + 1]] {
            let build = [rest.as_slice(), &pair].concat();
            // Both keys arrive after the set overflowed to a range: one
            // collector sees them in turn, or a range merges the second.
            let merged = collect(&[rest.as_slice(), &pair[..1]].concat(), MAX_ROW_CHECK_SET)
                .merge(collect(&pair[1..], MAX_ROW_CHECK_SET));
            for collected in [collect(&build, MAX_ROW_CHECK_SET), merged] {
                let filter = bigint_scan_filter(collected);
                let domain = filter.table_domain().unwrap();
                assert!(matches!(domain.domain(0), Some(Domain::Range { .. })));
                let probe = [build.as_slice(), &[BIG - 1, BIG + 100]].concat();
                let kept = filter.prune_rows(bigint_page(&probe));
                assert_eq!(flat::<LongBlock>(kept.block(0)).values, build);
            }
        }
    }

    /// Keys near 0, ±2^53 (where `f64` stops holding every integer) and
    /// the ends of `i64`.
    fn arb_key() -> impl Strategy<Value = i64> {
        let base = prop_oneof![
            Just(0i64),
            Just(1 << 53),
            Just(-(1 << 53)),
            Just(i64::MAX - 8),
            Just(i64::MIN + 8),
        ];
        (base, -8i64..9).prop_map(|(b, d)| b + d)
    }

    /// Whether each row of the one-key `probe` page passes `check`.
    fn row_check(check: &TypedDomain, probe: &Page) -> Vec<bool> {
        let mut keep = vec![true; probe.row_count()];
        check.retain(probe.block(0), &mut keep);
        keep
    }

    proptest! {
        /// The lane check keeps every probe key the build holds, and
        /// exactly the keys `Domain::contains` keeps, for sets and ranges
        /// collected in any arrival order.
        #[test]
        fn lane_domain_keeps_every_joining_key(
            build in proptest::collection::vec(arb_key(), 1..80),
            probe in proptest::collection::vec(arb_key(), 0..80),
            max_values in prop_oneof![Just(2usize), Just(1000usize)],
        ) {
            let collected = collect(&build, max_values);
            let domain = collected.keys[0].to_domain().unwrap();
            let keys: Vec<i64> = probe.iter().chain(&build).copied().collect();
            let kept = row_check(&collected.keys[0], &bigint_page(&keys));
            for (v, kept) in keys.iter().zip(kept) {
                prop_assert_eq!(kept, domain.contains(&Value::Bigint(*v)), "key {}", v);
                prop_assert!(kept || !build.contains(v), "dropped joining key {}", v);
            }
        }
    }

    #[test]
    fn nan_escalates_to_unconstrained() {
        let mut k = KeyLanes::Set(Vec::new());
        k.add(vec![1.0], 10);
        k.add(vec![f64::NAN], 10);
        assert!(matches!(k, KeyLanes::All));
        assert!(k.to_domain(|&v| Value::Double(v)).is_none());
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let hashes: Vec<u64> = (0..1000u64)
            .map(|v| v.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let bloom = DfBloom::build(&hashes);
        assert!(hashes.iter().all(|&h| bloom.may_contain(h)));
        let misses = (5000..6000u64)
            .map(|v| v.wrapping_mul(0x517CC1B727220A95))
            .filter(|&h| bloom.may_contain(h))
            .count();
        assert!(misses < 100, "false positive rate too high: {misses}/1000");
    }

    #[test]
    fn registry_merges_partitioned_reports() {
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(7);
        registry.register(join, 2);
        registry.report(join, collect(&[1, 2], 100));
        assert!(registry.completed(join).is_none());
        registry.report(join, collect(&[3], 100));
        let f = registry.completed(join).unwrap();
        assert_eq!(f.rows, 3);
        match &f.domains[0] {
            Some(Domain::Set(v)) => assert_eq!(v.len(), 3),
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn broadcast_first_report_wins() {
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(9);
        registry.register(join, 1);
        registry.report(join, collect(&[1], 100));
        registry.report(join, collect(&[1], 100)); // replica re-report: dropped
        let f = registry.completed(join).unwrap();
        assert_eq!(f.rows, 1);
        assert_eq!(registry.totals().snapshot().filters_published, 1);
    }

    #[test]
    fn wait_all_times_out_without_reports() {
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(1);
        registry.register(join, 1);
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(!registry.wait_all(&[join], deadline));
        registry.report(join, collect(&[5], 100));
        assert!(registry.wait_all(&[join], Instant::now()));
    }

    #[test]
    fn split_pruning_by_range_overlap() {
        let mut dynamic = TupleDomain::all();
        dynamic.constrain(2, Domain::Set(vec![Value::Bigint(100), Value::Bigint(200)]));
        let mut inside = TupleDomain::all();
        inside.constrain(
            2,
            Domain::Range {
                min: Some(Value::Bigint(150)),
                max: Some(Value::Bigint(250)),
            },
        );
        let mut outside = TupleDomain::all();
        outside.constrain(
            2,
            Domain::Range {
                min: Some(Value::Bigint(300)),
                max: Some(Value::Bigint(400)),
            },
        );
        assert!(!split_pruned(&dynamic, &inside));
        assert!(split_pruned(&dynamic, &outside));
        // An empty dynamic domain prunes everything.
        assert!(split_pruned(&TupleDomain::none(), &inside));
        // A split with no summary is never pruned.
        assert!(!split_pruned(&dynamic, &TupleDomain::all()));
    }

    #[test]
    fn empty_build_side_proves_empty_scan() {
        let registry = DynamicFilterRegistry::new();
        let join = PlanNodeId(3);
        registry.report(join, collect(&[], 100));
        let spec = DynamicFilterSpec {
            join,
            join_fragment: 0,
            scan: PlanNodeId(4),
            scan_fragment: 1,
            broadcast: false,
            keys: vec![None],
        };
        let df = ScanDynamicFilter::new(registry, vec![spec], Duration::from_secs(5));
        assert!(df.ready());
        assert!(df.provably_empty());
    }

    /// The reference model: the `Value` domain the collector kept before
    /// domains were typed, as it was. `add` took one build row's key.
    #[derive(Debug, Clone)]
    enum KeyDomain {
        Values(HashSet<Value>),
        Range { min: Value, max: Value },
        All,
    }

    impl KeyDomain {
        fn new() -> KeyDomain {
            KeyDomain::Values(HashSet::new())
        }

        fn add(&mut self, v: Value, max_values: usize) {
            if v.is_null() {
                return; // NULL keys never join
            }
            if v.sql_cmp(&v) != Some(std::cmp::Ordering::Equal) {
                *self = KeyDomain::All;
                return;
            }
            match self {
                KeyDomain::All => {}
                KeyDomain::Values(set) => {
                    set.insert(v);
                    if set.len() > max_values {
                        *self = range_of(set.drain());
                    }
                }
                KeyDomain::Range { min, max } => {
                    if v.sql_cmp(min) == Some(std::cmp::Ordering::Less) {
                        *min = v;
                    } else if v.sql_cmp(max) == Some(std::cmp::Ordering::Greater) {
                        *max = v;
                    }
                }
            }
        }

        fn merge(self, other: KeyDomain) -> KeyDomain {
            match (self, other) {
                (KeyDomain::All, _) | (_, KeyDomain::All) => KeyDomain::All,
                (KeyDomain::Values(mut a), KeyDomain::Values(b)) => {
                    a.extend(b);
                    KeyDomain::Values(a)
                }
                (KeyDomain::Values(set), KeyDomain::Range { min, max })
                | (KeyDomain::Range { min, max }, KeyDomain::Values(set)) => {
                    let mut r = KeyDomain::Range { min, max };
                    for v in set {
                        r.add(v, 0);
                    }
                    r
                }
                (KeyDomain::Range { min: a0, max: a1 }, KeyDomain::Range { min: b0, max: b1 }) => {
                    let mut r = KeyDomain::Range { min: a0, max: a1 };
                    r.add(b0, 0);
                    r.add(b1, 0);
                    r
                }
            }
        }

        fn to_domain(&self, max_values: usize) -> Option<Domain> {
            match self {
                KeyDomain::All => None,
                KeyDomain::Values(set) if set.len() > max_values => {
                    match range_of(set.iter().cloned()) {
                        KeyDomain::Range { min, max } => Some(Domain::Range {
                            min: Some(min),
                            max: Some(max),
                        }),
                        _ => None,
                    }
                }
                KeyDomain::Values(set) => {
                    let mut values: Vec<Value> = set.iter().cloned().collect();
                    values.sort(); // deterministic explain / pruning order
                    Some(Domain::Set(values))
                }
                KeyDomain::Range { min, max } => Some(Domain::Range {
                    min: Some(min.clone()),
                    max: Some(max.clone()),
                }),
            }
        }
    }

    fn range_of(values: impl Iterator<Item = Value>) -> KeyDomain {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for v in values {
            if min
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less))
            {
                min = Some(v.clone());
            }
            if max
                .as_ref()
                .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater))
            {
                max = Some(v);
            }
        }
        match (min, max) {
            (Some(min), Some(max)) => KeyDomain::Range { min, max },
            _ => KeyDomain::All, // empty input: caller keeps the empty set instead
        }
    }

    const KEY_TYPES: [DataType; 6] = [
        DataType::Bigint,
        DataType::Double,
        DataType::Varchar,
        DataType::Boolean,
        DataType::Date,
        DataType::Timestamp,
    ];

    /// Keys of `data_type` at its edges: NULL, NaN, ±0.0, ±∞, `''`,
    /// multi-byte strings, the ends of `i64` and ±2^53.
    fn arb_value(data_type: DataType) -> BoxedStrategy<Value> {
        let long = prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(i64::MIN + 1),
            Just(i64::MAX - 1),
            -3i64..4,
            (1i64 << 53) - 2..(1 << 53) + 3,
            -(1i64 << 53) - 2..-(1 << 53) + 3,
        ];
        let key = match data_type {
            DataType::Double => prop_oneof![
                1 => Just(f64::NAN),
                6 => Just(-0.0),
                6 => Just(0.0),
                4 => Just(f64::INFINITY),
                4 => Just(f64::NEG_INFINITY),
                4 => Just(9007199254740992.0), // 2^53
                20 => (-3i64..4).prop_map(|v| v as f64 / 2.0),
            ]
            .prop_map(Value::Double)
            .boxed(),
            DataType::Varchar => prop_oneof![
                Just(String::new()),
                Just("é".to_string()),
                Just("日本".to_string()),
                Just("日".to_string()),
                Just("z".to_string()),
                "[a-c]{1,2}",
            ]
            .prop_map(Value::varchar)
            .boxed(),
            DataType::Boolean => any::<bool>().prop_map(Value::Boolean).boxed(),
            _ => long
                .prop_map(move |v| Value::from_i64(data_type, v))
                .boxed(),
        };
        prop_oneof![1 => Just(Value::Null), 8 => key].boxed()
    }

    /// `rows` of a one-key build side through a collector, in pages of
    /// three rows, as the join build hands them over: only the rows whose
    /// key is non-NULL.
    fn collect_values(rows: &[Value], data_type: DataType, max_values: usize) -> CollectedDomains {
        let schema = Schema::of(&[("k", data_type)]);
        let mut c = DomainCollector::new(vec![0], &[data_type], max_values);
        for rows in rows.chunks(3) {
            let rows: Vec<Vec<Value>> = rows.iter().map(|v| vec![v.clone()]).collect();
            let page = Page::from_rows(&schema, &rows);
            let joinable: Vec<u32> = (0..rows.len() as u32)
                .filter(|&r| !rows[r as usize][0].is_null())
                .collect();
            c.add_rows(&page, &joinable, &hash_columns(&page, &[0]));
        }
        c.finish()
    }

    fn model(rows: &[Value], max_values: usize) -> KeyDomain {
        let mut k = KeyDomain::new();
        rows.iter().for_each(|v| k.add(v.clone(), max_values));
        k
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The typed domain publishes what the `Value` model publishes, for
        /// every key type, split over two collectors merged either way;
        /// and its lane row check keeps exactly what `Domain::contains`
        /// keeps.
        #[test]
        fn typed_domain_matches_value_model(
            (data_type, build, probe) in (0usize..6).prop_flat_map(|t| (
                Just(KEY_TYPES[t]),
                proptest::collection::vec(arb_value(KEY_TYPES[t]), 0..40),
                proptest::collection::vec(arb_value(KEY_TYPES[t]), 0..40),
            )),
            max_values in prop_oneof![Just(1usize), Just(2usize), Just(1000usize)],
            split in 0usize..41,
            swap in any::<bool>(),
        ) {
            let (head, tail) = build.split_at(split.min(build.len()));
            let (a, b) = (collect_values(head, data_type, max_values), collect_values(tail, data_type, max_values));
            let published = if swap { b.merge(a) } else { a.merge(b) }.publish();
            let (a, b) = (model(head, max_values), model(tail, max_values));
            let want = if swap { b.merge(a) } else { a.merge(b) }.to_domain(max_values);
            let got = &published.domains[0];
            match (got, &want) {
                (None, None) => {}
                (Some(Domain::Set(got)), Some(Domain::Set(want))) => prop_assert_eq!(got, want),
                (
                    Some(Domain::Range { min: Some(a0), max: Some(a1) }),
                    Some(Domain::Range { min: Some(b0), max: Some(b1) }),
                ) => {
                    prop_assert_eq!(a0.sql_cmp(b0), Some(std::cmp::Ordering::Equal), "min {:?} vs {:?}", a0, b0);
                    prop_assert_eq!(a1.sql_cmp(b1), Some(std::cmp::Ordering::Equal), "max {:?} vs {:?}", a1, b1);
                }
                _ => prop_assert!(false, "published {:?}, model {:?}", got, want),
            }
            // At most 40 build keys: a set is never past MAX_ROW_CHECK_SET,
            // so every constrained key has a row check.
            let check = &published.row_checks[0];
            prop_assert_eq!(check.is_some(), got.is_some());
            if let (Some(check), Some(domain)) = (check, got) {
                let schema = Schema::of(&[("k", data_type)]);
                let keys: Vec<Vec<Value>> = probe.iter().chain(&build).map(|v| vec![v.clone()]).collect();
                let kept = row_check(check, &Page::from_rows(&schema, &keys));
                for (key, kept) in keys.iter().zip(kept) {
                    prop_assert_eq!(kept, domain.contains(&key[0]), "key {:?} in {:?}", key[0], domain);
                }
            }
        }
    }
}
