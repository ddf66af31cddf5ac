//! Task construction: compiling one plan fragment into executable
//! pipelines wired to splits, exchanges, and the output buffer.

use parking_lot::Mutex;
use presto_common::chaos::FaultPlane;
use presto_common::{DataType, PlanNodeId, PrestoError, Result, Schema, Session, TaskId};
use presto_connector::{CatalogManager, TupleDomain};
use presto_expr::Expr;
use presto_page::Page;
use presto_planner::fusion::{peel_leaf_chain, LeafChain};
use presto_planner::plan::{AggregateStep, JoinType, PlanNode};
use presto_planner::{OutputPartitioning, PlanFragment};
use presto_shuffle::{ExchangeClient, OutputBuffer};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::Duration;

use crate::agg::{specs_from_planner, AggPhase, HashAggregationOperator};
use crate::driver::Driver;
use crate::exchange::{ExchangeSourceOperator, OutputRouting, PartitionedOutputOperator};
use crate::filter::{FilterProjectOperator, LimitOperator, ValuesOperator};
use crate::join::{HashBuilderOperator, JoinBridge, LookupJoinOperator, ProbeJoinType};
use crate::memory::{MemoryPool, TaskMemoryContext};
use crate::pipeline::{LocalQueue, LocalQueueSink, LocalQueueSource, OpFactory, Pipeline};
use crate::scan::{FusedAggStage, ScanOperator, SplitQueue};
use crate::sort::{SortOperator, TopNOperator};
use crate::spill::SpillManager;
use crate::stats::{PipelineMeta, TaskStats, TaskStatsCollector};
use crate::window::WindowOperator;
use crate::writer::TableWriterOperator;

/// Capacity of each task's output buffer: wire bytes of frames plus
/// in-memory bytes of handed-over pages.
const OUTPUT_BUFFER_BYTES: usize = 32 << 20;
/// Capacity of each exchange client's input buffer, counted the same way.
const EXCHANGE_BUFFER_BYTES: usize = 32 << 20;
/// Upper bound on concurrent exchange polls per fetch round (the paper's
/// target HTTP request concurrency cap, §IV-E2).
const EXCHANGE_CONCURRENCY: usize = 8;
/// Build-side keys with at most this many distinct values publish an exact
/// value set; larger domains degrade to min/max + Bloom.
const DYNAMIC_FILTER_MAX_VALUES: usize = 10_000;

/// Everything a task needs from its environment.
#[derive(Clone)]
pub struct TaskContext {
    pub task_id: TaskId,
    pub session: Session,
    pub catalogs: CatalogManager,
    pub memory_pool: Arc<dyn MemoryPool>,
    /// One entry per task of the consumer stage (output buffer
    /// partitions): true where that consumer runs on this task's worker, so
    /// its pages are handed over instead of framed.
    pub local_consumers: Vec<bool>,
    /// Parallel drivers for split-driven leaf pipelines (§IV-C4).
    pub leaf_parallelism: usize,
    /// Optional shared timeline: split and page events from this task's
    /// operators land here (pid = query id, tid = fragment id).
    pub trace: Option<Arc<presto_common::TraceBuffer>>,
    /// Dynamic-filter registry + specs for this query (`None` disables
    /// dynamic filtering for the task).
    pub dynamic_filters: Option<Arc<crate::dynfilter::TaskDynamicFilters>>,
    /// The cluster's fault plane, handed to every scan, spill manager and
    /// exchange client of the task.
    pub faults: Option<Arc<FaultPlane>>,
    /// The worker's live spill-file gauge: the task's spill manager counts
    /// its run files here too.
    pub spill_files: Arc<AtomicUsize>,
}

/// A scan inside a task: the coordinator feeds its split queue.
pub struct ScanSource {
    pub node_id: PlanNodeId,
    pub catalog: String,
    pub table: String,
    pub layout: String,
    pub predicate: TupleDomain,
    pub queue: Arc<SplitQueue>,
}

/// An exchange input of a task: the coordinator attaches upstream buffers.
/// The client is internally synchronized (all methods take `&self`).
pub struct ExchangeInput {
    pub source_fragment: u32,
    pub client: Arc<ExchangeClient>,
    pub no_more_sources: Arc<AtomicBool>,
}

/// One executable task. Drivers sit behind a mutex so the task itself can
/// be shared (`Arc<Task>`) while the worker takes ownership of the drivers
/// for scheduling.
pub struct Task {
    pub id: TaskId,
    pub output: Arc<OutputBuffer>,
    pub scans: Vec<ScanSource>,
    pub exchanges: Vec<ExchangeInput>,
    pub drivers: Mutex<Vec<Driver>>,
    /// Task-owned spill coordinator shared by every spilling operator
    /// (§IV-F2). It counts the task's run files; each run deletes its own
    /// file when the operator holding it drops, so none outlives the
    /// task's drivers.
    pub spill: Arc<SpillManager>,
    /// Per-driver statistics recorded by the worker as drivers retire.
    pub stats: TaskStatsCollector,
}

impl Task {
    /// Snapshot this task's statistics: everything drivers have reported
    /// so far plus the task-level data-plane counters (output buffer and
    /// exchange clients are shared across the task's drivers, so they are
    /// read here exactly once rather than summed per driver).
    pub fn stats_snapshot(&self) -> TaskStats {
        let pipelines = self.stats.pipelines();
        let cpu_time = pipelines.iter().map(|p| p.cpu_time).sum();
        TaskStats {
            task: self.id,
            cpu_time,
            pipelines,
            output: self.output.totals(),
            exchange_bytes_received: self
                .exchanges
                .iter()
                .map(|e| e.client.received().wire_bytes)
                .sum(),
        }
    }
}

/// Compile `fragment` into a [`Task`].
pub fn create_task(fragment: &PlanFragment, ctx: &TaskContext) -> Result<Task> {
    let output = OutputBuffer::with_placement(
        ctx.local_consumers.clone(),
        OUTPUT_BUFFER_BYTES,
        ctx.session.shuffle_compression_min_bytes,
    );
    let spill = SpillManager::for_session(
        &ctx.session,
        ctx.faults.clone(),
        Arc::clone(&ctx.spill_files),
    );
    let mut compiler = Compiler {
        ctx,
        spill: ctx.session.spill_enabled.then(|| Arc::clone(&spill)),
        scans: Vec::new(),
        exchanges: Vec::new(),
        pipelines: Vec::new(),
    };
    let chain = compiler.compile(&fragment.root)?;
    // Append the output sink.
    let routing = match &fragment.output {
        OutputPartitioning::Gather | OutputPartitioning::None => OutputRouting::Gather,
        OutputPartitioning::Hash { channels, .. } => OutputRouting::Hash {
            channels: channels.clone(),
        },
        OutputPartitioning::Broadcast => OutputRouting::Broadcast,
        OutputPartitioning::RoundRobin => OutputRouting::RoundRobin,
    };
    let driver_count = chain.driver_count(ctx.leaf_parallelism);
    let close_group = Arc::new(AtomicUsize::new(driver_count));
    let buffer = Arc::clone(&output);
    let mut factories = chain.factories;
    let routing_for_factory = routing.clone();
    let trace = ctx.trace.clone();
    let trace_pid = ctx.task_id.stage.query.0 as u32;
    let trace_tid = ctx.task_id.stage.stage;
    factories.push(Arc::new(move || {
        let mut op =
            PartitionedOutputOperator::new(Arc::clone(&buffer), routing_for_factory.clone())
                .with_close_group(Arc::clone(&close_group));
        if let Some(trace) = &trace {
            op = op.with_trace(Arc::clone(trace), trace_pid, trace_tid);
        }
        Ok(Box::new(op) as Box<dyn crate::operator::Operator>)
    }));
    compiler.pipelines.push(Pipeline {
        factories,
        driver_count,
        description: format!("{} -> Output", chain.description),
    });

    // Instantiate drivers for every pipeline. Each driver gets its OWN
    // memory context: contexts reconcile retained-size deltas, and a
    // context shared across concurrently-running drivers would interleave
    // reads and writes of the stored totals, drifting the pool accounting.
    // All contexts charge the same query on the same pool.
    let mut drivers = Vec::new();
    for (pipeline_index, pipeline) in compiler.pipelines.iter().enumerate() {
        for _ in 0..pipeline.driver_count {
            let operators = pipeline.instantiate()?;
            let ctx = TaskMemoryContext::new(ctx.task_id.stage.query, Arc::clone(&ctx.memory_pool));
            drivers.push(Driver::new(operators, ctx).with_pipeline(pipeline_index));
        }
    }
    let stats = TaskStatsCollector::new(
        compiler
            .pipelines
            .iter()
            .map(|p| PipelineMeta {
                description: p.description.clone(),
                driver_count: p.driver_count,
            })
            .collect(),
    );
    Ok(Task {
        id: ctx.task_id,
        output,
        scans: compiler.scans,
        exchanges: compiler.exchanges,
        drivers: Mutex::new(drivers),
        spill,
        stats,
    })
}

/// A partially-built pipeline chain.
struct Chain {
    factories: Vec<OpFactory>,
    /// Split-driven and safe to instantiate in parallel.
    parallel: bool,
    description: String,
}

impl Chain {
    fn driver_count(&self, leaf_parallelism: usize) -> usize {
        if self.parallel {
            leaf_parallelism.max(1)
        } else {
            1
        }
    }

    fn push(&mut self, name: &str, factory: OpFactory) {
        self.factories.push(factory);
        self.description.push_str(" -> ");
        self.description.push_str(name);
    }

    /// Operators that must see the whole input serialize the pipeline.
    fn force_single_driver(&mut self) {
        self.parallel = false;
    }
}

struct Compiler<'a> {
    ctx: &'a TaskContext,
    /// The task's spill coordinator when the session enables spill: every
    /// spilling operator spills through it, and only if it is set.
    spill: Option<Arc<SpillManager>>,
    scans: Vec<ScanSource>,
    exchanges: Vec<ExchangeInput>,
    pipelines: Vec<Pipeline>,
}

impl<'a> Compiler<'a> {
    fn compile(&mut self, node: &PlanNode) -> Result<Chain> {
        if let Some(leaf) = peel_leaf_chain(node, self.ctx.session.pipeline_fusion) {
            return self.compile_leaf(&leaf);
        }
        match node {
            PlanNode::Output { input, .. } => self.compile(input),
            PlanNode::TableScan { .. } => unreachable!("every table scan tops a leaf chain"),
            PlanNode::Filter {
                input, predicate, ..
            } => {
                let mut chain = self.compile(input)?;
                let input_schema = input.output_schema();
                let projections = identity_projections(&input_schema);
                let predicate = predicate.clone();
                let session = self.ctx.session.clone();
                chain.push(
                    "FilterProject",
                    Arc::new(move || {
                        Ok(Box::new(FilterProjectOperator::new(
                            Some(&predicate),
                            &projections,
                            &session,
                        )))
                    }),
                );
                Ok(chain)
            }
            PlanNode::Project {
                input, expressions, ..
            } => {
                let mut chain = self.compile(input)?;
                let expressions = expressions.clone();
                let session = self.ctx.session.clone();
                chain.push(
                    "Project",
                    Arc::new(move || {
                        Ok(Box::new(FilterProjectOperator::new(
                            None,
                            &expressions,
                            &session,
                        )))
                    }),
                );
                Ok(chain)
            }
            PlanNode::Aggregate {
                input,
                group_by,
                aggregates,
                step,
                ..
            } => {
                let mut chain = self.compile(input)?;
                let input_schema = input.output_schema();
                let phase = match step {
                    AggregateStep::Single => AggPhase::Single,
                    AggregateStep::Partial => AggPhase::Partial,
                    AggregateStep::Final => AggPhase::Final,
                };
                // Partial aggregation is per-driver-safe; Single/Final must
                // see all rows of their partition in one instance.
                if phase != AggPhase::Partial {
                    chain.force_single_driver();
                }
                let group_channels = group_by.clone();
                let group_types: Vec<DataType> = group_by
                    .iter()
                    .map(|&c| input_schema.data_type(c))
                    .collect();
                let specs = specs_from_planner(aggregates)?;
                let spill = self.spill.clone();
                chain.push(
                    "Aggregate",
                    Arc::new(move || {
                        Ok(Box::new(HashAggregationOperator::new(
                            phase,
                            group_channels.clone(),
                            group_types.clone(),
                            specs.clone(),
                            spill.clone(),
                        )))
                    }),
                );
                Ok(chain)
            }
            PlanNode::Join {
                id,
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                filter,
                ..
            } => {
                let probe_chain = self.compile(left)?;
                // Build side becomes its own pipeline.
                let mut build_chain = self.compile(right)?;
                let build_drivers = build_chain.driver_count(self.ctx.leaf_parallelism);
                let bridge = JoinBridge::new(right_keys.clone(), build_drivers);
                // The one arming point: probes divert through the manager
                // the spilled build partitions carry. Cross joins ignore it.
                if let Some(spill) = &self.spill {
                    bridge.enable_spill(Arc::clone(spill));
                }
                if let Some(df) = &self.ctx.dynamic_filters {
                    if df.produces_for_join(*id) {
                        let build_schema = right.output_schema();
                        bridge.enable_dynamic_filter(crate::dynfilter::DynamicFilterSource {
                            join: *id,
                            registry: Arc::clone(&df.registry),
                            key_types: right_keys
                                .iter()
                                .map(|&c| build_schema.data_type(c))
                                .collect(),
                            max_values: DYNAMIC_FILTER_MAX_VALUES,
                        });
                    }
                }
                {
                    let bridge = Arc::clone(&bridge);
                    build_chain.push(
                        "HashBuilder",
                        Arc::new(move || {
                            Ok(Box::new(HashBuilderOperator::new(Arc::clone(&bridge))))
                        }),
                    );
                }
                let desc = format!("{} (build)", build_chain.description);
                self.pipelines.push(Pipeline {
                    factories: build_chain.factories,
                    driver_count: build_drivers,
                    description: desc,
                });
                // Probe continues in the current pipeline.
                let mut chain = probe_chain;
                let probe_type = match join_type {
                    // An inner join with no equi keys (a cross join whose
                    // predicate became a residual filter) must take the
                    // full-pairing probe path: the keyed path hashes zero
                    // columns and would match nothing.
                    JoinType::Inner if left_keys.is_empty() => ProbeJoinType::Cross,
                    JoinType::Inner => ProbeJoinType::Inner,
                    JoinType::Left => ProbeJoinType::Left,
                    JoinType::Cross => ProbeJoinType::Cross,
                };
                let probe_keys = left_keys.clone();
                let probe_schema = left.output_schema();
                let build_schema = right.output_schema();
                let filter = filter.clone();
                chain.push(
                    "LookupJoin",
                    Arc::new(move || {
                        Ok(Box::new(LookupJoinOperator::new(
                            Arc::clone(&bridge),
                            probe_type,
                            probe_keys.clone(),
                            probe_schema.clone(),
                            build_schema.clone(),
                            filter.as_ref(),
                        )))
                    }),
                );
                Ok(chain)
            }
            PlanNode::IndexJoin {
                probe,
                catalog,
                table,
                probe_keys,
                index_keys,
                output_columns,
                ..
            } => {
                let mut chain = self.compile(probe)?;
                let connector = self.ctx.catalogs.catalog(catalog)?;
                let probe_keys = probe_keys.clone();
                let index_keys = index_keys.clone();
                let output_columns = output_columns.clone();
                let table = table.clone();
                let probe_schema = probe.output_schema();
                chain.push(
                    "IndexJoin",
                    Arc::new(move || {
                        let index = connector
                            .index_source(&table, &index_keys, &output_columns)?
                            .ok_or_else(|| {
                                PrestoError::internal(format!(
                                    "planner chose an index join but '{table}' has no index"
                                ))
                            })?;
                        Ok(Box::new(crate::join::IndexJoinOperator::new(
                            index,
                            probe_keys.clone(),
                            probe_schema.clone(),
                        )))
                    }),
                );
                Ok(chain)
            }
            PlanNode::Sort { input, keys, .. } => {
                let mut chain = self.compile(input)?;
                chain.force_single_driver();
                let keys = keys.clone();
                let spill = self.spill.clone();
                chain.push(
                    "Sort",
                    Arc::new(move || Ok(Box::new(SortOperator::new(keys.clone(), spill.clone())))),
                );
                Ok(chain)
            }
            PlanNode::TopN {
                input, keys, count, ..
            } => {
                // Per-driver TopN is safe: the final fragment re-ranks.
                let mut chain = self.compile(input)?;
                let keys = keys.clone();
                let count = *count;
                chain.push(
                    "TopN",
                    Arc::new(move || Ok(Box::new(TopNOperator::new(keys.clone(), count)))),
                );
                Ok(chain)
            }
            PlanNode::Limit { input, count, .. } => {
                let mut chain = self.compile(input)?;
                let count = *count;
                chain.push(
                    "Limit",
                    Arc::new(move || Ok(Box::new(LimitOperator::new(count)))),
                );
                Ok(chain)
            }
            PlanNode::Window {
                input,
                partition_by,
                order_by,
                functions,
                ..
            } => {
                let mut chain = self.compile(input)?;
                chain.force_single_driver();
                let partition_by = partition_by.clone();
                let order_by = order_by.clone();
                let functions = functions.clone();
                let spill = self.spill.clone();
                chain.push(
                    "Window",
                    Arc::new(move || {
                        let window = WindowOperator::new(
                            partition_by.clone(),
                            order_by.clone(),
                            functions.clone(),
                        );
                        Ok(Box::new(window.with_spill(spill.clone())))
                    }),
                );
                Ok(chain)
            }
            PlanNode::Union { inputs, .. } => {
                // Children run as independent pipelines into a local queue.
                let queue = LocalQueue::new(inputs.len(), 4 << 20);
                // Register producers up-front with exact count.
                for input in inputs {
                    let mut child = self.compile(input)?;
                    let q = Arc::clone(&queue);
                    child.push(
                        "LocalQueueSink",
                        Arc::new(move || Ok(Box::new(LocalQueueSink::new(Arc::clone(&q))))),
                    );
                    // A multi-driver union branch would register too many
                    // producers; serialize branches.
                    child.force_single_driver();
                    let desc = format!("{} (union branch)", child.description);
                    self.pipelines.push(Pipeline {
                        factories: child.factories,
                        driver_count: 1,
                        description: desc,
                    });
                }
                let q = Arc::clone(&queue);
                Ok(Chain {
                    factories: vec![Arc::new(move || {
                        Ok(Box::new(LocalQueueSource::new(Arc::clone(&q))))
                    })],
                    parallel: false,
                    description: "Union".to_string(),
                })
            }
            PlanNode::TableWrite {
                input,
                catalog,
                table,
                ..
            } => {
                let mut chain = self.compile(input)?;
                let connector = self.ctx.catalogs.catalog(catalog)?;
                let table = table.clone();
                chain.push(
                    "TableWriter",
                    Arc::new(move || {
                        let sink = connector
                            .page_sink_factory()
                            .ok_or_else(|| PrestoError::user("target catalog is read-only"))?
                            .create_sink(&table)?;
                        Ok(Box::new(TableWriterOperator::new(sink)))
                    }),
                );
                Ok(chain)
            }
            PlanNode::Values { schema, rows, .. } => {
                let page = if schema.is_empty() {
                    Page::zero_column(rows.len())
                } else {
                    Page::from_rows(schema, rows)
                };
                Ok(Chain {
                    factories: vec![Arc::new(move || {
                        Ok(Box::new(ValuesOperator::new(vec![page.clone()])))
                    })],
                    parallel: false,
                    description: "Values".to_string(),
                })
            }
            PlanNode::RemoteSource { fragment, .. } => {
                let mut client = ExchangeClient::with_config(
                    EXCHANGE_BUFFER_BYTES,
                    Duration::ZERO,
                    EXCHANGE_CONCURRENCY,
                    self.ctx.session.max_transient_retries,
                );
                client.set_faults(self.ctx.faults.clone());
                let client = Arc::new(client);
                let no_more = Arc::new(AtomicBool::new(false));
                self.exchanges.push(ExchangeInput {
                    source_fragment: *fragment,
                    client: Arc::clone(&client),
                    no_more_sources: Arc::clone(&no_more),
                });
                let trace = self.ctx.trace.clone();
                let trace_pid = self.ctx.task_id.stage.query.0 as u32;
                let trace_tid = self.ctx.task_id.stage.stage;
                Ok(Chain {
                    factories: vec![Arc::new(move || {
                        let mut op =
                            ExchangeSourceOperator::new(Arc::clone(&client), Arc::clone(&no_more));
                        if let Some(trace) = &trace {
                            op = op.with_trace(Arc::clone(trace), trace_pid, trace_tid);
                        }
                        Ok(Box::new(op) as Box<dyn crate::operator::Operator>)
                    })],
                    parallel: false,
                    description: format!("Exchange({fragment})"),
                })
            }
        }
    }

    /// Lower a leaf chain — `TableScan → [Filter] → [Project] [→ partial
    /// Aggregate]` — into the one leaf operator.
    fn compile_leaf(&mut self, leaf: &LeafChain<'_>) -> Result<Chain> {
        let PlanNode::TableScan {
            id,
            catalog,
            table,
            layout,
            columns,
            predicate,
            ..
        } = leaf.scan
        else {
            return Err(PrestoError::internal("leaf chain without a table scan"));
        };
        let connector = self.ctx.catalogs.catalog(catalog)?;
        let queue = SplitQueue::new();
        self.scans.push(ScanSource {
            node_id: *id,
            catalog: catalog.clone(),
            table: table.clone(),
            layout: layout.clone(),
            predicate: predicate.clone(),
            queue: Arc::clone(&queue),
        });
        let projections = match leaf.projections {
            Some(p) => p.to_vec(),
            None => identity_projections(&leaf.scan.output_schema()),
        };
        let agg = leaf
            .partial_agg
            .map(|(group_by, aggregates)| -> Result<_> {
                Ok(FusedAggStage {
                    group_channels: group_by.to_vec(),
                    group_types: group_by
                        .iter()
                        .map(|&c| projections[c].data_type())
                        .collect(),
                    specs: specs_from_planner(aggregates)?,
                })
            })
            .transpose()?;
        let filter = leaf.filter.cloned();
        let columns = columns.clone();
        let predicate = predicate.clone();
        let session = self.ctx.session.clone();
        let faults = self.ctx.faults.clone();
        let trace = self.ctx.trace.clone();
        let trace_pid = self.ctx.task_id.stage.query.0 as u32;
        let trace_tid = self.ctx.task_id.stage.stage;
        // Dynamic filters targeting this scan (one consumer handle per
        // operator instance: counters stay per-driver, the deadline starts
        // at instantiation).
        let dyn_filters = self.ctx.dynamic_filters.as_ref().and_then(|df| {
            let specs = df.specs_for_scan(*id);
            if specs.is_empty() {
                None
            } else {
                Some((Arc::clone(&df.registry), specs))
            }
        });
        let factory: OpFactory = Arc::new(move || {
            let mut op = ScanOperator::new(
                Arc::clone(&connector),
                Arc::clone(&queue),
                columns.clone(),
                predicate.clone(),
                filter.as_ref(),
                &projections,
                &session,
            );
            op.set_faults(faults.clone());
            if let Some(agg) = &agg {
                op = op.with_partial_aggregation(agg);
            }
            if let Some(trace) = &trace {
                op = op.with_trace(Arc::clone(trace), trace_pid, trace_tid);
            }
            if let Some((registry, specs)) = &dyn_filters {
                op = op.with_dynamic_filter(crate::dynfilter::ScanDynamicFilter::new(
                    Arc::clone(registry),
                    specs.clone(),
                    session.dynamic_filter_wait,
                ));
            }
            Ok(Box::new(op) as Box<dyn crate::operator::Operator>)
        });
        Ok(Chain {
            factories: vec![factory],
            parallel: true,
            description: "FusedPipeline".to_string(),
        })
    }
}

fn identity_projections(schema: &Schema) -> Vec<Expr> {
    schema
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| Expr::column(i, f.data_type))
        .collect()
}
