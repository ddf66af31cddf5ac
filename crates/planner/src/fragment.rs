//! Plan fragmentation: cutting the optimized plan into per-stage fragments
//! (§IV-C3, Fig. 3).
//!
//! "The engine inserts buffered in-memory data transfers (shuffles) between
//! stages … the optimizer must reason carefully about the total number of
//! shuffles introduced into the plan." Every node declares the partitioning
//! it *requires*; each piece of the plan tracks the partitioning it
//! *provides* (from connector data layouts and from exchanges already
//! inserted below). An exchange is inserted only when the provided property
//! does not satisfy the requirement — so a join of two tables bucketed on
//! the join key runs co-located with zero shuffles, and an aggregation over
//! data already hash-partitioned on its grouping keys aggregates in place.

use presto_common::id::PlanNodeIdAllocator;
use presto_common::{PrestoError, Result, Schema, Session};
use presto_connector::{CatalogManager, Domain, TupleDomain};

use crate::plan::{AggregateSpec, AggregateStep, JoinDistribution, PlanNode};

/// Tasks of every hash-partitioned intermediate stage.
pub const HASH_PARTITION_COUNT: usize = 4;

/// How the tasks of one fragment are laid out (§IV-D2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentPartitioning {
    /// Leaf fragment driven by connector splits. With `bucket_count`, the
    /// scheduler creates one task per bucket and routes same-bucket splits
    /// of every scan in the fragment to the same task (co-located joins).
    Source { bucket_count: Option<usize> },
    /// Fixed hash partitioning across `count` tasks.
    Hash { count: usize },
    /// A single task.
    Single,
}

/// How a fragment's output routes to its consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputPartitioning {
    /// All rows to the single consumer task.
    Gather,
    /// Hash-partition rows on `channels` across `count` consumer tasks.
    Hash { channels: Vec<usize>, count: usize },
    /// Replicate every page to every consumer task.
    Broadcast,
    /// Distribute pages round-robin over however many consumer tasks exist
    /// (used for scaled writers).
    RoundRobin,
    /// Root fragment: stream to the client.
    None,
}

/// One executable stage.
#[derive(Debug, Clone)]
pub struct PlanFragment {
    pub id: u32,
    pub root: PlanNode,
    pub partitioning: FragmentPartitioning,
    pub output: OutputPartitioning,
}

impl PlanFragment {
    /// Fragment ids this fragment reads from (its children in the stage
    /// tree), discovered from RemoteSource leaves.
    pub fn source_fragments(&self) -> Vec<u32> {
        fn collect(node: &PlanNode, out: &mut Vec<u32>) {
            if let PlanNode::RemoteSource { fragment, .. } = node {
                out.push(*fragment);
            }
            for c in node.children() {
                collect(c, out);
            }
        }
        let mut out = Vec::new();
        collect(&self.root, &mut out);
        out
    }

    /// All table scans in this fragment.
    pub fn scans(&self) -> Vec<&PlanNode> {
        fn collect<'a>(node: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
            if matches!(node, PlanNode::TableScan { .. }) {
                out.push(node);
            }
            for c in node.children() {
                collect(c, out);
            }
        }
        let mut out = Vec::new();
        collect(&self.root, &mut out);
        out
    }

    /// Whether the fragment contains a table writer.
    pub fn has_writer(&self) -> bool {
        fn any(node: &PlanNode) -> bool {
            matches!(node, PlanNode::TableWrite { .. }) || node.children().iter().any(|c| any(c))
        }
        any(&self.root)
    }
}

/// A fully fragmented plan: `fragments[root]` streams to the client.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub fragments: Vec<PlanFragment>,
    pub root: u32,
    /// Dynamic-filter channels (inner-join build domain → probe-side scan),
    /// collected by [`crate::dynfilter::collect_dynamic_filters`].
    pub dynamic_filters: Vec<crate::dynfilter::DynamicFilterSpec>,
    /// Leaf scan→filter→project[→partial-agg] chains, collected by
    /// [`crate::fusion::collect_fused_chains`].
    pub fused_chains: Vec<crate::fusion::FusedChainSpec>,
}

impl PhysicalPlan {
    pub fn fragment(&self, id: u32) -> &PlanFragment {
        &self.fragments[id as usize]
    }

    pub fn output_schema(&self) -> Schema {
        self.fragment(self.root).root.output_schema()
    }

    /// Human-readable distributed plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for f in self.fragments.iter().rev() {
            out.push_str(&format!(
                "Fragment {} [{:?}] output={:?}\n{}\n",
                f.id,
                f.partitioning,
                f.output,
                f.root.explain()
            ));
        }
        out.push_str(&crate::dynfilter::explain_dynamic_filters(
            &self.dynamic_filters,
        ));
        out.push_str(&crate::fusion::explain_fused_chains(&self.fused_chains));
        out
    }

    /// Total number of data shuffles (non-root exchanges), the Fig. 3
    /// metric the optimizer minimizes.
    pub fn shuffle_count(&self) -> usize {
        self.fragments.len() - 1
    }
}

/// What a piece of the open (not yet cut) fragment provides.
#[derive(Debug, Clone, PartialEq)]
enum Dist {
    /// Split-driven leaf; `bucketed` carries (output channels, bucket count)
    /// when the chosen layout is bucketed with the engine's hash function.
    Source {
        bucketed: Option<(Vec<usize>, usize)>,
    },
    /// Hash-partitioned across `count` tasks on `channels` (`None` when the
    /// channels were projected away and the mapping is lost).
    Hashed {
        channels: Option<Vec<usize>>,
        count: usize,
    },
    Single,
}

impl Dist {
    /// Whether data partitioned this way already groups all rows sharing
    /// `keys` onto one task (the shuffle-elision test). The partition
    /// channels must be a prefix-free exact sequence match: the engine and
    /// bucketed layouts hash columns in order.
    fn satisfies_hash(&self, keys: &[usize]) -> bool {
        match self {
            Dist::Single => true,
            Dist::Source {
                bucketed: Some((channels, _)),
            } => channels.as_slice() == keys,
            Dist::Hashed {
                channels: Some(channels),
                ..
            } => channels.as_slice() == keys,
            _ => false,
        }
    }

    fn is_single(&self) -> bool {
        matches!(self, Dist::Single)
    }

    fn task_count_hint(&self, default: usize) -> usize {
        match self {
            Dist::Single => 1,
            Dist::Hashed { count, .. } => *count,
            Dist::Source {
                bucketed: Some((_, count)),
            } => *count,
            Dist::Source { bucketed: None } => default,
        }
    }
}

struct Piece {
    node: PlanNode,
    dist: Dist,
}

struct Fragmenter<'a> {
    catalogs: &'a CatalogManager,
    fragments: Vec<PlanFragment>,
    ids: PlanNodeIdAllocator,
}

/// Fragment an optimized plan.
pub fn fragment_plan(
    plan: PlanNode,
    session: &Session,
    catalogs: &CatalogManager,
) -> Result<PhysicalPlan> {
    let mut ids = PlanNodeIdAllocator::new();
    ids.skip_past(plan.max_id());
    let mut f = Fragmenter {
        catalogs,
        fragments: Vec::new(),
        ids,
    };
    let piece = f.visit(plan)?;
    // Root must be a single task streaming to the client.
    let piece = if piece.dist.is_single() {
        piece
    } else {
        f.exchange(piece, ExchangeKind::Gather)?
    };
    let root_partitioning = f.partitioning_of(&piece.dist, &piece.node);
    let root_id = f.fragments.len() as u32;
    f.fragments.push(PlanFragment {
        id: root_id,
        root: piece.node,
        partitioning: root_partitioning,
        output: OutputPartitioning::None,
    });
    let mut plan = PhysicalPlan {
        fragments: f.fragments,
        root: root_id,
        dynamic_filters: Vec::new(),
        fused_chains: Vec::new(),
    };
    plan.dynamic_filters = crate::dynfilter::collect_dynamic_filters(&plan);
    plan.fused_chains = crate::fusion::collect_fused_chains(&plan, session.pipeline_fusion);
    Ok(plan)
}

enum ExchangeKind {
    Gather,
    Hash { channels: Vec<usize>, count: usize },
    Broadcast,
    RoundRobin,
}

impl<'a> Fragmenter<'a> {
    fn partitioning_of(&self, dist: &Dist, node: &PlanNode) -> FragmentPartitioning {
        // A fragment containing a table scan is always source-partitioned.
        let has_scan = {
            fn any_scan(n: &PlanNode) -> bool {
                matches!(n, PlanNode::TableScan { .. }) || n.children().iter().any(|c| any_scan(c))
            }
            any_scan(node)
        };
        match dist {
            Dist::Source { bucketed } if has_scan => FragmentPartitioning::Source {
                bucket_count: bucketed.as_ref().map(|(_, c)| *c),
            },
            Dist::Source { .. } => FragmentPartitioning::Single,
            Dist::Hashed { count, .. } => FragmentPartitioning::Hash { count: *count },
            Dist::Single => FragmentPartitioning::Single,
        }
    }

    /// Close `piece` into a fragment whose output is the given exchange;
    /// return a new piece reading from it.
    fn exchange(&mut self, piece: Piece, kind: ExchangeKind) -> Result<Piece> {
        let schema = piece.node.output_schema();
        let partitioning = self.partitioning_of(&piece.dist, &piece.node);
        let id = self.fragments.len() as u32;
        let (output, dist) = match kind {
            ExchangeKind::Gather => (OutputPartitioning::Gather, Dist::Single),
            ExchangeKind::Hash { channels, count } => (
                OutputPartitioning::Hash {
                    channels: channels.clone(),
                    count,
                },
                Dist::Hashed {
                    channels: Some(channels),
                    count,
                },
            ),
            ExchangeKind::Broadcast => (
                OutputPartitioning::Broadcast,
                // Replicated data satisfies nothing by itself; the consumer
                // side's distribution governs.
                Dist::Single,
            ),
            ExchangeKind::RoundRobin => (
                OutputPartitioning::RoundRobin,
                Dist::Hashed {
                    channels: None,
                    count: 1,
                },
            ),
        };
        self.fragments.push(PlanFragment {
            id,
            root: piece.node,
            partitioning,
            output,
        });
        Ok(Piece {
            node: PlanNode::RemoteSource {
                id: self.ids.next_id(),
                fragment: id,
                schema,
            },
            dist,
        })
    }

    fn visit(&mut self, node: PlanNode) -> Result<Piece> {
        match node {
            PlanNode::TableScan {
                id,
                catalog,
                table,
                layout: _,
                table_schema,
                columns,
                predicate,
            } => {
                // Pick the most useful layout the connector offers
                // (§IV-B3-1); prefer bucketed layouts whose bucket columns
                // survive the scan projection.
                let layouts = self
                    .catalogs
                    .catalog(&catalog)?
                    .metadata()
                    .table_layouts(&table);
                // A predicate that pins every bucket column to one value
                // leaves at most one bucket holding rows: one task reads it
                // and everything above stays in its fragment — the §IV-C3
                // elision applied to a single-shard source. Node-local
                // layouts are excluded: their splits must run where they
                // live, so placement stays with the scheduler.
                let pinned = layouts.iter().find(|l| {
                    !l.node_local
                        && l.partitioning
                            .as_ref()
                            .is_some_and(|p| pins_one_bucket(&predicate, &p.columns))
                });
                if let Some(l) = pinned {
                    return Ok(Piece {
                        node: PlanNode::TableScan {
                            id,
                            catalog,
                            table,
                            layout: l.name.clone(),
                            table_schema,
                            columns,
                            predicate,
                        },
                        dist: Dist::Single,
                    });
                }
                let mut chosen = "default".to_string();
                let mut bucketed = None;
                for l in &layouts {
                    if let Some(p) = &l.partitioning {
                        let channels: Option<Vec<usize>> = p
                            .columns
                            .iter()
                            .map(|tc| columns.iter().position(|c| c == tc))
                            .collect();
                        if let Some(channels) = channels {
                            chosen = l.name.clone();
                            bucketed = Some((channels, p.bucket_count));
                            break;
                        }
                    }
                }
                if bucketed.is_none() {
                    if let Some(l) = layouts.first() {
                        chosen = l.name.clone();
                    }
                }
                Ok(Piece {
                    node: PlanNode::TableScan {
                        id,
                        catalog,
                        table,
                        layout: chosen,
                        table_schema,
                        columns,
                        predicate,
                    },
                    dist: Dist::Source { bucketed },
                })
            }
            PlanNode::Values { id, schema, rows } => Ok(Piece {
                node: PlanNode::Values { id, schema, rows },
                dist: Dist::Single,
            }),
            PlanNode::Filter {
                id,
                input,
                predicate,
            } => {
                let p = self.visit(*input)?;
                Ok(Piece {
                    node: PlanNode::Filter {
                        id,
                        input: Box::new(p.node),
                        predicate,
                    },
                    dist: p.dist,
                })
            }
            PlanNode::Project {
                id,
                input,
                expressions,
                names,
            } => {
                let p = self.visit(*input)?;
                // Translate the provided partitioning through the projection.
                let translate = |channels: &[usize]| -> Option<Vec<usize>> {
                    channels
                        .iter()
                        .map(|&c| {
                            expressions.iter().position(|e| {
                                matches!(e, presto_expr::Expr::Column { index, .. } if *index == c)
                            })
                        })
                        .collect()
                };
                let dist = match &p.dist {
                    Dist::Source {
                        bucketed: Some((ch, n)),
                    } => match translate(ch) {
                        Some(ch) => Dist::Source {
                            bucketed: Some((ch, *n)),
                        },
                        None => Dist::Source { bucketed: None },
                    },
                    Dist::Hashed {
                        channels: Some(ch),
                        count,
                    } => Dist::Hashed {
                        channels: translate(ch),
                        count: *count,
                    },
                    other => other.clone(),
                };
                Ok(Piece {
                    node: PlanNode::Project {
                        id,
                        input: Box::new(p.node),
                        expressions,
                        names,
                    },
                    dist,
                })
            }
            PlanNode::Aggregate {
                id,
                input,
                group_by,
                aggregates,
                step,
            } => {
                debug_assert_eq!(step, AggregateStep::Single, "fragmenter sees Single only");
                let p = self.visit(*input)?;
                let splittable = aggregates
                    .iter()
                    .all(|a| a.function.kind.supports_partial());
                if p.dist.satisfies_hash(&group_by) && !group_by.is_empty() {
                    // Data already partitioned on (exactly) the grouping
                    // keys: aggregate in place — the §IV-C3 elision.
                    let dist = remap_group_dist(&p.dist, &group_by);
                    return Ok(Piece {
                        node: PlanNode::Aggregate {
                            id,
                            input: Box::new(p.node),
                            group_by,
                            aggregates,
                            step: AggregateStep::Single,
                        },
                        dist,
                    });
                }
                if p.dist.is_single() {
                    return Ok(Piece {
                        node: PlanNode::Aggregate {
                            id,
                            input: Box::new(p.node),
                            group_by,
                            aggregates,
                            step: AggregateStep::Single,
                        },
                        dist: Dist::Single,
                    });
                }
                if !splittable {
                    // Single-phase only: shuffle raw rows, aggregate once.
                    let kind = if group_by.is_empty() {
                        ExchangeKind::Gather
                    } else {
                        ExchangeKind::Hash {
                            channels: group_by.clone(),
                            count: HASH_PARTITION_COUNT,
                        }
                    };
                    let p = self.exchange(p, kind)?;
                    let dist = remap_group_dist(&p.dist, &group_by);
                    return Ok(Piece {
                        node: PlanNode::Aggregate {
                            id,
                            input: Box::new(p.node),
                            group_by,
                            aggregates,
                            step: AggregateStep::Single,
                        },
                        dist,
                    });
                }
                // Partial in the producing fragment…
                let partial = PlanNode::Aggregate {
                    id,
                    input: Box::new(p.node),
                    group_by: group_by.clone(),
                    aggregates: aggregates.clone(),
                    step: AggregateStep::Partial,
                };
                let partial_piece = Piece {
                    node: partial,
                    dist: p.dist,
                };
                // …then exchange on the group keys (which occupy channels
                // 0..g of the partial output)…
                let group_count = group_by.len();
                let kind = if group_by.is_empty() {
                    ExchangeKind::Gather
                } else {
                    ExchangeKind::Hash {
                        channels: (0..group_count).collect(),
                        count: HASH_PARTITION_COUNT,
                    }
                };
                let remote = self.exchange(partial_piece, kind)?;
                // …and finalize. Final specs read the intermediate columns,
                // which start right after the group keys.
                let mut final_aggs = Vec::with_capacity(aggregates.len());
                let mut channel = group_count;
                for a in &aggregates {
                    final_aggs.push(AggregateSpec {
                        function: a.function,
                        input: Some(channel),
                        name: a.name.clone(),
                    });
                    channel += a.function.intermediate_types().len();
                }
                let dist = remap_group_dist(&remote.dist, &(0..group_count).collect::<Vec<_>>());
                Ok(Piece {
                    node: PlanNode::Aggregate {
                        id: self.ids.next_id(),
                        input: Box::new(remote.node),
                        group_by: (0..group_count).collect(),
                        aggregates: final_aggs,
                        step: AggregateStep::Final,
                    },
                    dist,
                })
            }
            PlanNode::Join {
                id,
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                filter,
                distribution,
            } => {
                let lp = self.visit(*left)?;
                let rp = self.visit(*right)?;
                let mut distribution = distribution.unwrap_or(JoinDistribution::Partitioned);
                // A single-task side is partitioned on nothing as far as its
                // partner goes: matching it would pin the partner to one
                // task too. Only two single-task sides join in place.
                let both_single = lp.dist.is_single() && rp.dist.is_single();
                let partitioned_on = |dist: &Dist, keys: &[usize]| {
                    !keys.is_empty()
                        && (both_single || !dist.is_single())
                        && dist.satisfies_hash(keys)
                };
                // Co-located beats broadcast: if both sides are already
                // partitioned on the join keys with matching bucket counts,
                // no exchange at all is needed (§IV-C3).
                if distribution == JoinDistribution::Replicated
                    && partitioned_on(&lp.dist, &left_keys)
                    && partitioned_on(&rp.dist, &right_keys)
                    && lp.dist.task_count_hint(HASH_PARTITION_COUNT)
                        == rp.dist.task_count_hint(HASH_PARTITION_COUNT)
                    && !lp.dist.is_single()
                {
                    distribution = JoinDistribution::Partitioned;
                }
                match distribution {
                    JoinDistribution::Replicated => {
                        // Build side broadcast into the probe fragment.
                        let build =
                            if rp.dist.is_single() && matches!(rp.node, PlanNode::Values { .. }) {
                                rp // tiny literal build stays inline
                            } else {
                                self.exchange(rp, ExchangeKind::Broadcast)?
                            };
                        Ok(Piece {
                            dist: lp.dist.clone(),
                            node: PlanNode::Join {
                                id,
                                left: Box::new(lp.node),
                                right: Box::new(build.node),
                                join_type,
                                left_keys,
                                right_keys,
                                filter,
                                distribution: Some(JoinDistribution::Replicated),
                            },
                        })
                    }
                    JoinDistribution::Partitioned => {
                        let l_ok = partitioned_on(&lp.dist, &left_keys);
                        let r_ok = partitioned_on(&rp.dist, &right_keys);
                        let (lfinal, rfinal) = match (l_ok, r_ok) {
                            (true, true) => {
                                // Both sides co-partitioned: no shuffle at
                                // all (co-located join) when bucket counts
                                // align; otherwise repartition the right.
                                let lcount = lp.dist.task_count_hint(HASH_PARTITION_COUNT);
                                let rcount = rp.dist.task_count_hint(HASH_PARTITION_COUNT);
                                if lcount == rcount {
                                    (lp, rp)
                                } else {
                                    let r = self.exchange(
                                        rp,
                                        ExchangeKind::Hash {
                                            channels: right_keys.clone(),
                                            count: lcount,
                                        },
                                    )?;
                                    (lp, r)
                                }
                            }
                            (true, false) => {
                                let count = lp.dist.task_count_hint(HASH_PARTITION_COUNT);
                                let r = self.exchange(
                                    rp,
                                    ExchangeKind::Hash {
                                        channels: right_keys.clone(),
                                        count,
                                    },
                                )?;
                                (lp, r)
                            }
                            (false, true) => {
                                let count = rp.dist.task_count_hint(HASH_PARTITION_COUNT);
                                let l = self.exchange(
                                    lp,
                                    ExchangeKind::Hash {
                                        channels: left_keys.clone(),
                                        count,
                                    },
                                )?;
                                (l, rp)
                            }
                            (false, false) => {
                                let count = HASH_PARTITION_COUNT;
                                let l = self.exchange(
                                    lp,
                                    ExchangeKind::Hash {
                                        channels: left_keys.clone(),
                                        count,
                                    },
                                )?;
                                let r = self.exchange(
                                    rp,
                                    ExchangeKind::Hash {
                                        channels: right_keys.clone(),
                                        count,
                                    },
                                )?;
                                (l, r)
                            }
                        };
                        let dist = lfinal.dist.clone();
                        Ok(Piece {
                            node: PlanNode::Join {
                                id,
                                left: Box::new(lfinal.node),
                                right: Box::new(rfinal.node),
                                join_type,
                                left_keys,
                                right_keys,
                                filter,
                                distribution: Some(JoinDistribution::Partitioned),
                            },
                            dist,
                        })
                    }
                }
            }
            PlanNode::IndexJoin {
                id,
                probe,
                catalog,
                table,
                table_schema,
                probe_keys,
                index_keys,
                output_columns,
            } => {
                let p = self.visit(*probe)?;
                Ok(Piece {
                    dist: p.dist.clone(),
                    node: PlanNode::IndexJoin {
                        id,
                        probe: Box::new(p.node),
                        catalog,
                        table,
                        table_schema,
                        probe_keys,
                        index_keys,
                        output_columns,
                    },
                })
            }
            PlanNode::Sort { id, input, keys } => {
                let p = self.visit(*input)?;
                let p = if p.dist.is_single() {
                    p
                } else {
                    self.exchange(p, ExchangeKind::Gather)?
                };
                Ok(Piece {
                    node: PlanNode::Sort {
                        id,
                        input: Box::new(p.node),
                        keys,
                    },
                    dist: Dist::Single,
                })
            }
            PlanNode::TopN {
                id,
                input,
                keys,
                count,
            } => {
                let p = self.visit(*input)?;
                if p.dist.is_single() {
                    return Ok(Piece {
                        node: PlanNode::TopN {
                            id,
                            input: Box::new(p.node),
                            keys,
                            count,
                        },
                        dist: Dist::Single,
                    });
                }
                // Partial TopN per task, then final TopN after a gather.
                let partial = Piece {
                    node: PlanNode::TopN {
                        id,
                        input: Box::new(p.node),
                        keys: keys.clone(),
                        count,
                    },
                    dist: p.dist,
                };
                let remote = self.exchange(partial, ExchangeKind::Gather)?;
                Ok(Piece {
                    node: PlanNode::TopN {
                        id: self.ids.next_id(),
                        input: Box::new(remote.node),
                        keys,
                        count,
                    },
                    dist: Dist::Single,
                })
            }
            PlanNode::Limit { id, input, count } => {
                let p = self.visit(*input)?;
                if p.dist.is_single() {
                    return Ok(Piece {
                        node: PlanNode::Limit {
                            id,
                            input: Box::new(p.node),
                            count,
                        },
                        dist: Dist::Single,
                    });
                }
                let partial = Piece {
                    node: PlanNode::Limit {
                        id,
                        input: Box::new(p.node),
                        count,
                    },
                    dist: p.dist,
                };
                let remote = self.exchange(partial, ExchangeKind::Gather)?;
                Ok(Piece {
                    node: PlanNode::Limit {
                        id: self.ids.next_id(),
                        input: Box::new(remote.node),
                        count,
                    },
                    dist: Dist::Single,
                })
            }
            PlanNode::Window {
                id,
                input,
                partition_by,
                order_by,
                functions,
            } => {
                let p = self.visit(*input)?;
                let p = if partition_by.is_empty() {
                    if p.dist.is_single() {
                        p
                    } else {
                        self.exchange(p, ExchangeKind::Gather)?
                    }
                } else if p.dist.satisfies_hash(&partition_by) {
                    p
                } else {
                    self.exchange(
                        p,
                        ExchangeKind::Hash {
                            channels: partition_by.clone(),
                            count: HASH_PARTITION_COUNT,
                        },
                    )?
                };
                Ok(Piece {
                    dist: p.dist.clone(),
                    node: PlanNode::Window {
                        id,
                        input: Box::new(p.node),
                        partition_by,
                        order_by,
                        functions,
                    },
                })
            }
            PlanNode::Union { id, inputs } => {
                // Gather every branch into one single-task fragment.
                let mut sources = Vec::new();
                for input in inputs {
                    let p = self.visit(input)?;
                    let p = if p.dist.is_single() {
                        p
                    } else {
                        self.exchange(p, ExchangeKind::Gather)?
                    };
                    sources.push(p.node);
                }
                Ok(Piece {
                    node: PlanNode::Union {
                        id,
                        inputs: sources,
                    },
                    dist: Dist::Single,
                })
            }
            PlanNode::TableWrite {
                id,
                input,
                catalog,
                table,
            } => {
                let p = self.visit(*input)?;
                // Writers get their own fragment so the engine can scale
                // task count with backpressure (§IV-E3).
                let p = if !p.dist.is_single() {
                    self.exchange(p, ExchangeKind::RoundRobin)?
                } else {
                    p
                };
                let write = PlanNode::TableWrite {
                    id,
                    input: Box::new(p.node),
                    catalog,
                    table,
                };
                let write_dist = p.dist.clone();
                if write_dist.is_single() {
                    return Ok(Piece {
                        node: write,
                        dist: Dist::Single,
                    });
                }
                // Sum the per-writer row counts on a single task.
                let remote = self.exchange(
                    Piece {
                        node: write,
                        dist: write_dist,
                    },
                    ExchangeKind::Gather,
                )?;
                let sum = AggregateSpec {
                    function: presto_expr::AggregateFunction::new(
                        presto_expr::AggregateKind::Sum,
                        Some(presto_common::DataType::Bigint),
                    )
                    .expect("sum(bigint)"),
                    input: Some(0),
                    name: "rows".to_string(),
                };
                Ok(Piece {
                    node: PlanNode::Aggregate {
                        id: self.ids.next_id(),
                        input: Box::new(remote.node),
                        group_by: vec![],
                        aggregates: vec![sum],
                        step: AggregateStep::Single,
                    },
                    dist: Dist::Single,
                })
            }
            PlanNode::Output { id, input, names } => {
                let p = self.visit(*input)?;
                let p = if p.dist.is_single() {
                    p
                } else {
                    self.exchange(p, ExchangeKind::Gather)?
                };
                Ok(Piece {
                    node: PlanNode::Output {
                        id,
                        input: Box::new(p.node),
                        names,
                    },
                    dist: Dist::Single,
                })
            }
            PlanNode::RemoteSource { .. } => {
                Err(PrestoError::internal("fragmenter input already fragmented"))
            }
        }
    }
}

/// Whether `predicate` fixes each of the bucket `columns` (table-schema
/// indices) to a single value, so that every matching row hashes to the
/// same bucket.
fn pins_one_bucket(predicate: &TupleDomain, columns: &[usize]) -> bool {
    !columns.is_empty()
        && columns
            .iter()
            .all(|&c| matches!(predicate.domain(c), Some(Domain::Set(values)) if values.len() == 1))
}

/// Distribution of an Aggregate output: group keys move to channels 0..g.
fn remap_group_dist(input: &Dist, group_by: &[usize]) -> Dist {
    match input {
        Dist::Single => Dist::Single,
        Dist::Source {
            bucketed: Some((ch, n)),
        } if ch.as_slice() == group_by => Dist::Source {
            bucketed: Some(((0..group_by.len()).collect(), *n)),
        },
        Dist::Hashed {
            channels: Some(ch),
            count,
        } if ch.as_slice() == group_by => Dist::Hashed {
            channels: Some((0..group_by.len()).collect()),
            count: *count,
        },
        Dist::Source { .. } => Dist::Source { bucketed: None },
        Dist::Hashed { count, .. } => Dist::Hashed {
            channels: None,
            count: *count,
        },
    }
}
