//! The query engine: executes a compiled trigger program against a stream of updates.
//!
//! The engine owns the [`Database`] of views, stored base relations and static tables.
//! Its native unit of work is the [`DeltaBatch`]: per-relation GMR deltas built from a
//! slice of the update stream (insert = `+1`, delete = `−1`, same-key events collapsed
//! by ring addition — see [`dbtoaster_agca::batch`]). [`Engine::process`] is the
//! degenerate batch of one event; [`Engine::process_batch`] is the real entry point the
//! serving writer and WAL replay use.
//!
//! Per single-tuple firing the execution order is the paper's (Section 7.2):
//!
//! 1. all incremental (`+=`) statements of the matching trigger, which by construction
//!    read the *old* versions of the views they use;
//! 2. the update itself is applied to the stored base relation (if it is stored at all —
//!    full Higher-Order IVM usually does not need the base relations);
//! 3. all re-evaluation (`:=`) statements, which read the *new* versions.
//!
//! ## Batch execution
//!
//! How a multi-entry delta drives that sequence is chosen statically per relation by
//! [`TriggerProgram::batch_dispatch`]:
//!
//! * **Batch-delta** (the preferred path; chosen whenever the compiler derived a
//!   second-order batch program — see the derivation in the compiler's
//!   `batch_delta` module): every incremental statement of both sign triggers is
//!   evaluated against the *pre-run* state with its writes buffered, then the
//!   compiled correction statements — which join the run's delta with itself
//!   through the `@delta:R` / `@delta_abs:R` pseudo-relations — run once per run
//!   to account for intra-batch interaction, and only then do all buffered
//!   statement writes and the base update land. One target resolution, one
//!   change-log entry and one version bump per statement per run. Any evaluation
//!   error discards the (still unapplied) buffers and replays the whole run
//!   entry-major, reproducing per-event poison semantics exactly.
//! * **Statement-major** (legacy fallback — triggers whose statements never read
//!   anything the same run writes, when no batch program was derived): each
//!   incremental statement is dispatched *once* per batch and driven over all
//!   delta entries back-to-back — the kernel prelude and loop-invariant fused
//!   scans run once, rows are buffered with entry boundaries, and the target map
//!   is written in one pass (one change-log entry resolution and one
//!   snapshot-cache bump per statement). Base updates follow in one pass, and
//!   `:=` statements fire once, bound to the run's last event — exactly the
//!   firing whose output survives event-at-a-time processing.
//! * **Entry-major** (the oracle and last-resort fallback — `:=` replace
//!   semantics, increment chains that read their own targets such as the
//!   brokerspread query's self-referencing `m_bsv` map, or shapes whose
//!   second-order correction the compiler could not derive): each surviving
//!   entry fires the full per-event sequence `|mult|` times. Always exact;
//!   amortizes only the per-batch dispatch.
//!
//! All paths are driven by the same loops for compiled kernels and the AST
//! interpreter, so the interpreter remains the differential-testing oracle for batch
//! execution too. See the ring-linearity argument in [`dbtoaster_agca::batch`] for
//! why statement-major reproduces per-event processing, and the compiler's
//! `batch_delta` module for the Taylor-style first-plus-second-order argument
//! behind batch-delta (both bit-exactly on integer-weighted streams; to summation
//! order on float aggregates).
//!
//! When a program is increment-only, [`Engine::process_batch`] additionally
//! *merges* same-relation runs of a batch before processing (ring addition of
//! their entries): each run's processing is a pure state difference, so the
//! telescoping sum over merged runs is exact, and interleaved streams (e.g.
//! alternating bids/asks) collapse from many short runs into one per relation.

use crate::store::{CachedSource, Database};
use dbtoaster_agca::batch::{
    delta_abs_relation_name, delta_relation_name, DeltaBatch, RelationDelta,
};
use dbtoaster_agca::eval::{
    eval_with, eval_with_scratch, matches_pattern, Bindings, EvalError, EvalScratch, KeyRange,
    RelationSource,
};
use dbtoaster_agca::plan::{CompiledStmt, KernelState};
use dbtoaster_agca::{UpdateEvent, UpdateSign};
use dbtoaster_compiler::{
    BatchCorrection, BatchStrategy, Catalog, ResultAccess, Statement, StmtOp, Trigger,
    TriggerProgram,
};
use dbtoaster_gmr::{FastMap, Gmr, Tuple, Value};
use dbtoaster_telemetry::{
    LocalHistogram, RunSpan, SlowBatchTrace, Stage, StmtSpan, Telemetry, ViewCounters,
};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable forcing the engine onto the AST-interpreter path even
/// when compiled kernels are available (`1`/`true`/`yes`; any other value or
/// absence leaves kernels enabled). The programmatic equivalent is
/// [`Engine::set_force_interpreter`].
///
/// **Durability caveat:** the two paths agree bit-for-bit on integer data but
/// may differ in the last ulp on floating-point aggregates (different
/// summation orders). A durable deployment should therefore keep the same
/// execution path across restarts: recovering a crashed compiled-path server
/// with the interpreter forced (or vice versa) reproduces float view state to
/// relative ~1e-15, not bit-exactly.
pub const FORCE_INTERPRETER_ENV: &str = "DBTOASTER_FORCE_INTERPRETER";

fn env_forces_interpreter() -> bool {
    std::env::var(FORCE_INTERPRETER_ENV)
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            !v.is_empty() && v != "0" && v != "false" && v != "no"
        })
        .unwrap_or(false)
}

/// Environment variable forcing a particular [`BatchStrategy`] for every
/// relation, overriding the compiler's dispatch analysis at engine
/// construction. The programmatic equivalent is
/// [`Engine::set_force_batch_strategy`].
///
/// * `entry` / `entry-major` — the per-event oracle: every run fires the full
///   single-tuple sequence per surviving entry.
/// * `statement` / `statement-major` — the legacy analysis without batch-delta
///   programs (relations the analysis deems unsafe still run entry-major).
/// * `auto` / `batch-delta` / unset — the default dispatch: batch-delta where
///   derived, legacy strategies elsewhere.
///
/// Useful for differential testing (all strategies must agree bit-exactly on
/// integer-weighted streams) and as an escape hatch. Like
/// [`FORCE_INTERPRETER_ENV`], a durable deployment should keep the same
/// setting across restarts so float view state replays identically.
pub const FORCE_BATCH_STRATEGY_ENV: &str = "DBTOASTER_FORCE_BATCH_STRATEGY";

fn env_forced_batch_strategy() -> Option<BatchStrategy> {
    let v = std::env::var(FORCE_BATCH_STRATEGY_ENV).unwrap_or_default();
    parse_batch_strategy(&v)
}

/// Parse a strategy override name (see [`FORCE_BATCH_STRATEGY_ENV`]);
/// unrecognised values mean "automatic".
pub fn parse_batch_strategy(name: &str) -> Option<BatchStrategy> {
    match name.trim().to_ascii_lowercase().as_str() {
        "entry" | "entry-major" | "entry_major" => Some(BatchStrategy::EntryMajor),
        "statement" | "statement-major" | "statement_major" => Some(BatchStrategy::StatementMajor),
        _ => None,
    }
}

/// Kernel for statement `j`, when the trigger has one.
fn flat_get(kernels: &[Option<CompiledStmt>], j: usize) -> Option<&CompiledStmt> {
    kernels.get(j).and_then(|k| k.as_ref())
}

/// The keys of one view that were touched since the last [`Engine::take_changes`].
///
/// `cleared` is set when a `:=` statement wiped the view, in which case `keys`
/// only covers writes *after* the clear and a consumer should diff the view
/// against its previous snapshot wholesale.
#[derive(Clone, Debug, Default)]
pub struct ViewChange {
    /// The view was cleared by a re-evaluation statement.
    pub cleared: bool,
    /// Distinct keys written since the last drain (post-clear writes only when
    /// `cleared` is set). The unit value map is used as a cheap hash set.
    pub keys: FastMap<Tuple, ()>,
}

/// Changed-key log across all views, drained by [`Engine::take_changes`].
///
/// This is the hook the serving layer uses to turn statement-level writes into
/// per-query output deltas: after a batch, each changed key's old multiplicity
/// (previous snapshot) and new multiplicity (current snapshot) are compared.
#[derive(Clone, Debug, Default)]
pub struct ChangeSet {
    /// Per-view change records, keyed by view name.
    pub views: FastMap<String, ViewChange>,
}

impl ChangeSet {
    /// The change record for one view, created on first touch. Resolved once
    /// per (statement, batch) on the batch path — the per-write cost is then
    /// one key clone into the set, no name hashing.
    fn entry(&mut self, view: &str) -> &mut ViewChange {
        if !self.views.contains_key(view) {
            self.views.insert(view.to_string(), ViewChange::default());
        }
        self.views.get_mut(view).expect("inserted above")
    }

    fn record_key(&mut self, view: &str, key: Tuple) {
        // Single hash on the hit path (this runs once per write on the
        // per-firing paths while change tracking is on).
        if let Some(c) = self.views.get_mut(view) {
            c.keys.insert(key, ());
        } else {
            let mut c = ViewChange::default();
            c.keys.insert(key, ());
            self.views.insert(view.to_string(), c);
        }
    }

    fn record_clear(&mut self, view: &str) {
        let c = self.entry(view);
        c.cleared = true;
        c.keys.clear();
    }

    /// Are there no recorded changes?
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Fold a newer change set into this one (`self` happened first). A newer
    /// clear supersedes older keys; otherwise key sets union.
    pub fn merge(&mut self, newer: ChangeSet) {
        for (view, change) in newer.views {
            match self.views.get_mut(&view) {
                None => {
                    self.views.insert(view, change);
                }
                Some(existing) => {
                    if change.cleared {
                        *existing = change;
                    } else {
                        existing.keys.extend(change.keys);
                    }
                }
            }
        }
    }
}

/// Errors raised while processing events.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// Statement evaluation failed.
    Eval(EvalError),
    /// A statement targets a view that was never declared.
    UnknownView(String),
    /// A statement's key variable is neither bound by the trigger nor produced by the
    /// right-hand side.
    MissingKeyVariable { statement: String, variable: String },
    /// An event's tuple arity does not match the trigger's variables.
    EventArityMismatch {
        relation: String,
        expected: usize,
        actual: usize,
    },
    /// The named query is not part of the compiled program.
    UnknownQuery(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Eval(e) => write!(f, "evaluation error: {e}"),
            RuntimeError::UnknownView(v) => write!(f, "unknown view {v}"),
            RuntimeError::MissingKeyVariable {
                statement,
                variable,
            } => {
                write!(
                    f,
                    "key variable {variable} not available in statement {statement}"
                )
            }
            RuntimeError::EventArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "event for {relation} has {actual} values, trigger expects {expected}"
            ),
            RuntimeError::UnknownQuery(q) => write!(f, "unknown query {q}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<EvalError> for RuntimeError {
    fn from(e: EvalError) -> Self {
        RuntimeError::Eval(e)
    }
}

/// The outcome of one [`Engine::process_batch`] call. Processing never stops
/// at the first failure — a poison event inside a batch keeps its slot in the
/// stream (and, under durability, its WAL sequence number) while the rest of
/// the batch is applied; the caller learns how many events failed and what
/// went wrong first.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Stream events the batch covered (successful + failed).
    pub events: u64,
    /// Events whose trigger work failed (counted by the delta entries or
    /// firings they were folded into; such events may be *partially* applied —
    /// there is no statement rollback).
    pub failed_events: u64,
    /// The first error encountered, if any.
    pub first_error: Option<RuntimeError>,
    /// Which strategy actually executed each relation run, in processing
    /// order (after any run merging and after any runtime fallback from
    /// batch-delta to entry-major). Runs with no trigger under either sign —
    /// base-relation-only updates — are not recorded. Deterministic for a
    /// given program, override setting and batch boundaries, so a WAL replay
    /// produces the same sequence as live processing. Empty unless
    /// [`Engine::set_run_recording`] is on (recording costs one small
    /// allocation per run, which the zero-allocation steady-state contract
    /// of the batch-of-1 path cannot afford by default).
    pub runs: Vec<RunRecord>,
}

/// One relation run's execution record inside a [`BatchReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// The run's relation name.
    pub relation: String,
    /// The strategy that actually executed (the dispatch choice, or
    /// [`BatchStrategy::EntryMajor`] when a batch-delta run fell back at
    /// runtime).
    pub strategy: BatchStrategy,
    /// Stream events the run covered.
    pub events: u64,
}

/// Runtime statistics: event counts, processing time and memory footprint.
///
/// The serving-level counters (`batches`, `snapshots_published`,
/// `subscriber_deltas`) stay zero on a plain single-threaded engine; the
/// serving layer fills them in and surfaces the merged view through
/// `ViewServer::stats()`.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Events processed so far. On a plain engine only successfully applied
    /// events count; a *durable* serving writer also counts failed events,
    /// because each logged event owns a WAL sequence slot and the watermark
    /// must advance past a poison event for recovery to line up.
    pub events: u64,
    /// Statements executed so far.
    pub statements: u64,
    /// Total time spent inside `process` / `process_batch`.
    pub busy: Duration,
    /// Wall-clock time of engine creation.
    pub started: Instant,
    /// Micro-batches drained by a serving writer loop (queue drains; see
    /// [`EngineStats::delta_batches`] for the processing-side unit).
    pub batches: u64,
    /// Delta batches processed through [`Engine::process_batch`] (a plain
    /// [`Engine::process`] call counts as a batch of one).
    pub delta_batches: u64,
    /// Events whose work vanished before any kernel ran because a same-key
    /// opposite-sign event in the same batch cancelled them (ring addition
    /// inside the [`DeltaBatch`]).
    pub batch_events_collapsed: u64,
    /// Snapshots published for concurrent readers.
    pub snapshots_published: u64,
    /// Output-delta records fanned out to subscribers (sum over subscribers).
    pub subscriber_deltas: u64,
    /// Bytes appended to the write-ahead log by a durable serving writer.
    pub wal_bytes_written: u64,
    /// Checkpoints written by a durable serving writer.
    pub checkpoints_taken: u64,
    /// Events replayed from the WAL when this engine was recovered from disk
    /// (0 for engines built fresh or restored purely from a checkpoint).
    pub recovery_replayed_events: u64,
    /// Number of trigger statements executing through compiled kernels
    /// (slot-addressed plans) rather than the AST interpreter. 0 when the
    /// program carries no kernels or the engine was forced onto the
    /// interpreter path (see [`FORCE_INTERPRETER_ENV`]).
    pub compiled_triggers: u64,
    /// Relation runs executed on the batch-delta path (pre-state evaluation
    /// plus second-order corrections; see the module docs).
    pub batch_delta_runs: u64,
    /// Relation runs executed statement-major (the legacy buffered path).
    pub statement_major_runs: u64,
    /// Relation runs executed entry-major — per-event firing, either by
    /// dispatch (replace semantics / self-referencing triggers) or as the
    /// runtime fallback of a failed batch-delta run.
    pub entry_major_runs: u64,
}

impl EngineStats {
    fn new() -> Self {
        EngineStats {
            events: 0,
            statements: 0,
            busy: Duration::ZERO,
            started: Instant::now(),
            batches: 0,
            delta_batches: 0,
            batch_events_collapsed: 0,
            snapshots_published: 0,
            subscriber_deltas: 0,
            wal_bytes_written: 0,
            checkpoints_taken: 0,
            recovery_replayed_events: 0,
            compiled_triggers: 0,
            batch_delta_runs: 0,
            statement_major_runs: 0,
            entry_major_runs: 0,
        }
    }

    /// Average events per processed delta batch (0.0 before the first batch).
    /// Since the batch-first refactor this reflects the size of the
    /// [`DeltaBatch`]es actually driven through the engine, not raw serving
    /// queue drains.
    pub fn events_per_batch(&self) -> f64 {
        if self.delta_batches > 0 {
            self.events as f64 / self.delta_batches as f64
        } else {
            0.0
        }
    }

    /// Average view refresh rate (events per second of processing time), the metric of
    /// Figures 6 and 7.
    pub fn refresh_rate(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// A point-in-time sample used by the trace experiments (Figures 8–10 and 13–18).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSample {
    /// Fraction of the stream processed when the sample was taken.
    pub fraction: f64,
    /// Cumulative processing time in seconds.
    pub elapsed_secs: f64,
    /// Average refresh rate since the start (events / second).
    pub refresh_rate: f64,
    /// Approximate memory footprint of all views, in megabytes.
    pub memory_mb: f64,
}

/// Engine-internal copy of one relation's batch dispatch decision (trigger
/// indexes fit in `u16`; the strategy is `Copy`), so run processing never
/// clones strings out of the dispatch table.
#[derive(Clone, Copy, Debug)]
struct DispatchEntry {
    insert: Option<u16>,
    delete: Option<u16>,
    strategy: BatchStrategy,
    /// Index into [`TriggerProgram::batch_corrections`] when the strategy is
    /// batch-delta (resolved once at dispatch-build time).
    correction: Option<u16>,
}

/// One entry's emitted row range within the shared row buffer, plus how many
/// times it is applied (`|net multiplicity|` single-tuple firings).
#[derive(Clone, Copy, Debug)]
struct Seg {
    start: usize,
    end: usize,
    reps: u32,
}

/// Reusable buffers for statement-major batch execution.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Per-entry failure flags for the current run (a failed entry is skipped
    /// by later statements, the base-update pass and the `:=` phase).
    failed: Vec<bool>,
    /// Entry boundaries into the row buffer for the statement being applied.
    segs: Vec<Seg>,
    /// Interpreter-path row buffer (the compiled path uses `KernelState::out`).
    rows: Vec<(Tuple, f64)>,
    /// Interpreter-path bindings, re-seeded per entry (cleared per statement).
    bindings: Bindings,
}

/// One statement's deferred (buffered but not yet applied) rows on the
/// batch-delta path: the evaluate phase fills one of these per executed
/// statement, the apply phase walks them in order.
#[derive(Debug, Default)]
struct DeferredStmt {
    /// Trigger index, or `u16::MAX` for a second-order correction statement.
    tidx: u16,
    /// Statement index within the trigger (or correction list).
    stmt: u16,
    /// Entry boundaries into `rows` with per-entry repetition counts.
    segs: Vec<Seg>,
    /// Buffered `(key, multiplicity)` rows.
    rows: Vec<(Tuple, f64)>,
}

/// Pooled [`DeferredStmt`] buffers for batch-delta execution. `live` marks
/// how many slots the current run has filled; discarding a run's work is just
/// `live = 0` (buffers keep their capacity for the next run).
#[derive(Debug, Default)]
struct BdScratch {
    stmts: Vec<DeferredStmt>,
    live: usize,
}

impl BdScratch {
    /// Acquire the next pooled buffer, cleared and tagged.
    fn acquire(&mut self, tidx: u16, stmt: u16) -> &mut DeferredStmt {
        if self.live == self.stmts.len() {
            self.stmts.push(DeferredStmt::default());
        }
        let slot = &mut self.stmts[self.live];
        self.live += 1;
        slot.tidx = tidx;
        slot.stmt = stmt;
        slot.segs.clear();
        slot.rows.clear();
        slot
    }
}

/// A [`RelationSource`] overlay resolving the compiler's `@delta:R` /
/// `@delta_abs:R` pseudo-relations (see
/// [`dbtoaster_agca::batch::delta_relation_name`]) against the in-flight
/// [`RelationDelta`], delegating every real name to the wrapped source. The
/// signed view streams each distinct surviving key with its net multiplicity;
/// the absolute view streams `|net|` — exactly the Δ and |Δ| factors of the
/// second-order correction statements.
///
/// The pair correction joins the delta with *itself*, so inner-side probes
/// arrive with some columns bound (the join's equality constraints). A lazy
/// per-bound-column-mask hash index keeps each probe proportional to its
/// matches instead of the whole delta — the total correction cost is then the
/// number of *real* interacting pairs, not `|Δ|²`.
struct DeltaOverlay<'a, S: RelationSource + ?Sized> {
    inner: &'a S,
    run: &'a RelationDelta,
    signed: &'a str,
    absolute: &'a str,
    /// mask of bound pattern columns → (bound values → entry indexes); built
    /// on first probe with that mask.
    index: std::cell::RefCell<FastMap<u32, FastMap<Tuple, Vec<u32>>>>,
}

impl<'a, S: RelationSource + ?Sized> DeltaOverlay<'a, S> {
    fn new(inner: &'a S, run: &'a RelationDelta, signed: &'a str, absolute: &'a str) -> Self {
        DeltaOverlay {
            inner,
            run,
            signed,
            absolute,
            index: std::cell::RefCell::new(FastMap::default()),
        }
    }
}

impl<S: RelationSource + ?Sized> RelationSource for DeltaOverlay<'_, S> {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        if name == self.signed || name == self.absolute {
            Some(self.run.arity())
        } else {
            self.inner.relation_arity(name)
        }
    }

    fn for_each_matching(
        &self,
        name: &str,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&[Value], f64),
    ) -> Result<(), EvalError> {
        let absolute = name == self.absolute;
        if !absolute && name != self.signed {
            return self.inner.for_each_matching(name, pattern, visit);
        }
        let entries = self.run.entries();
        let mask: u32 =
            pattern
                .iter()
                .enumerate()
                .fold(0, |m, (i, p)| if p.is_some() { m | (1 << i) } else { m });
        if mask == 0 || pattern.len() > 32 {
            // Full scan (the outer side of the pair join, and the whole
            // diagonal term); wide tuples also land here and filter inline.
            for entry in entries {
                let key = entry.key.as_slice();
                if entry.mult != 0.0 && (mask == 0 || matches_pattern(key, pattern)) {
                    visit(
                        key,
                        if absolute {
                            entry.mult.abs()
                        } else {
                            entry.mult
                        },
                    );
                }
            }
            return Ok(());
        }
        let mut index = self.index.borrow_mut();
        let by_key = index.entry(mask).or_insert_with(|| {
            let mut by_key: FastMap<Tuple, Vec<u32>> = FastMap::default();
            for (i, entry) in entries.iter().enumerate() {
                if entry.mult == 0.0 {
                    continue;
                }
                let bound: Tuple = entry
                    .key
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| mask & (1 << c) != 0)
                    .map(|(_, v)| v.clone())
                    .collect();
                by_key.entry(bound).or_default().push(i as u32);
            }
            by_key
        });
        let probe: Tuple = pattern.iter().flatten().cloned().collect();
        if let Some(hits) = by_key.get(&probe) {
            for &i in hits {
                let entry = &entries[i as usize];
                visit(
                    entry.key.as_slice(),
                    if absolute {
                        entry.mult.abs()
                    } else {
                        entry.mult
                    },
                );
            }
        }
        Ok(())
    }

    fn range_sum(
        &self,
        name: &str,
        prefix: &[Option<Value>],
        col: usize,
        range: &KeyRange,
    ) -> Option<f64> {
        if name == self.signed || name == self.absolute {
            return None;
        }
        self.inner.range_sum(name, prefix, col, range)
    }
}

/// The DBToaster runtime engine.
pub struct Engine {
    program: Arc<TriggerProgram>,
    db: Database,
    stats: EngineStats,
    /// Changed-key log, present only while change tracking is enabled.
    changes: Option<ChangeSet>,
    /// Reusable kernel execution state (frame, pattern buffers, scratch maps,
    /// row buffer) for the compiled trigger path — zero per-event allocation
    /// in steady state.
    kernel: KernelState,
    /// Interpreter scratch: memoized product orders + recycled pattern buffer
    /// for statements without compiled kernels (and the interpreter-forced
    /// mode).
    scratch: EvalScratch,
    /// Statement-major batch execution buffers.
    batch: BatchScratch,
    /// Batch-delta deferred-statement buffers (pooled across runs).
    bd: BdScratch,
    /// Recycled batch-of-1 for [`Engine::process`] (zero-allocation wrapper).
    single: DeltaBatch,
    /// Recycled merged-run batch for [`Engine::process_batch`]'s run merging.
    merged: DeltaBatch,
    /// May same-relation runs of one batch be merged before processing? True
    /// when every statement of the program is an increment (`+=`): each run's
    /// processing is then a pure state difference, so the telescoping sum
    /// over merged runs is exact. `:=` statements bind to a run's *last*
    /// event, which merging could change, so replace-bearing programs keep
    /// their original run boundaries.
    merge_runs: bool,
    /// Per-relation batch dispatch, resolved from
    /// [`TriggerProgram::batch_dispatch_forced`] at construction (and on
    /// [`Engine::set_force_batch_strategy`]).
    dispatch: FastMap<String, DispatchEntry>,
    /// Per-correction (index-aligned with `program.batch_corrections`) view
    /// names read by the relation's first-order trigger statements — the maps
    /// entry-major processing scans once per firing. Precomputed so the
    /// batch-delta cost gate reads map sizes without allocating.
    corr_read_maps: Vec<Vec<String>>,
    /// Ignore compiled kernels and interpret every statement (differential
    /// testing / escape hatch; see [`FORCE_INTERPRETER_ENV`]).
    force_interpreter: bool,
    /// Strategy override in effect (`None` = the compiler's dispatch).
    forced_strategy: Option<BatchStrategy>,
    /// Fill [`BatchReport::runs`] with per-run strategy records (off by
    /// default; see [`Engine::set_run_recording`]).
    record_runs: bool,
    /// Telemetry buffers, present only after [`Engine::set_telemetry`] with
    /// an enabled handle. `None` keeps the hot path at one predictable
    /// branch per batch.
    tel: Option<Box<TelemetryState>>,
}

/// How many delta batches between automatic telemetry flushes (local
/// histogram buffers and per-view pendings folded into the shared atomics).
const TELEMETRY_FLUSH_BATCHES: u64 = 64;

/// Reused scratch for one statement span of an armed batch (strings and
/// vectors recycled — assembling an owned [`SlowBatchTrace`] only happens on
/// the slow path).
#[derive(Debug, Default)]
struct StmtScratch {
    target: String,
    nanos: u64,
    rows: u64,
}

/// Reused scratch for one relation run of an armed batch.
#[derive(Debug, Default)]
struct RunScratch {
    relation: String,
    strategy: &'static str,
    events: u64,
    entries: u64,
    nanos: u64,
    corrections: u64,
    stmts: Vec<StmtScratch>,
    stmts_live: usize,
}

/// Engine-side telemetry buffers. Everything recorded per event or per batch
/// lands in plain-integer locals (no atomics, no extra clock reads on the
/// batch-of-1 path beyond the pre-existing busy-time pair); the shared
/// [`Telemetry`] atomics are touched only by [`Engine::flush_telemetry`],
/// which runs automatically every [`TELEMETRY_FLUSH_BATCHES`] batches.
struct TelemetryState {
    tel: Telemetry,
    /// Whole-batch latency (the existing busy-time `Instant` pair re-used).
    batch_hist: LocalHistogram,
    /// Kernel-execute latency split by executed strategy:
    /// `[batch-delta, statement-major, entry-major]`.
    stage_hists: [LocalHistogram; 3],
    /// Shared per-view counter blocks, index-aligned with `map_names` and
    /// with the kernel's [`dbtoaster_agca::KernelCounters`] slots.
    views: Vec<Arc<ViewCounters>>,
    map_names: Vec<String>,
    /// Un-flushed per-view deltas (plain adds on the hot path).
    pending_rows: Vec<u64>,
    pending_corrections: Vec<u64>,
    /// `[tidx][stmt]` → view slot of the trigger statement's target.
    stmt_slot: Vec<Vec<u32>>,
    /// `[correction idx][stmt]` → view slot of the correction's target.
    corr_slot: Vec<Vec<u32>>,
    /// Events/batches already folded into the telemetry counters.
    flushed_events: u64,
    flushed_batches: u64,
    slow_threshold_nanos: u64,
    arm_min_events: u64,
    /// Span timing armed for the current batch (big enough to amortize the
    /// per-run/per-statement clock reads; never the batch-of-1 path).
    armed: bool,
    runs: Vec<RunScratch>,
    runs_live: usize,
}

impl TelemetryState {
    fn stage_index(strategy: BatchStrategy) -> usize {
        match strategy {
            BatchStrategy::BatchDelta => 0,
            BatchStrategy::StatementMajor => 1,
            BatchStrategy::EntryMajor => 2,
        }
    }

    fn stage_of(idx: usize) -> Stage {
        match idx {
            0 => Stage::KernelBatchDelta,
            1 => Stage::KernelStatementMajor,
            _ => Stage::KernelEntryMajor,
        }
    }

    /// Start a run span (armed batches only). Strings are recycled.
    fn begin_run(&mut self, relation: &str, events: u64, entries: usize) {
        if self.runs_live == self.runs.len() {
            self.runs.push(RunScratch::default());
        }
        let r = &mut self.runs[self.runs_live];
        r.relation.clear();
        r.relation.push_str(relation);
        r.strategy = "";
        r.events = events;
        r.entries = entries as u64;
        r.nanos = 0;
        r.corrections = 0;
        r.stmts_live = 0;
        self.runs_live += 1;
    }

    /// Close the current run span.
    fn end_run(&mut self, strategy: Option<BatchStrategy>, nanos: u64) {
        let r = &mut self.runs[self.runs_live - 1];
        r.strategy = strategy.map_or("base-only", |s| s.as_str());
        r.nanos = nanos;
        if let Some(s) = strategy {
            self.stage_hists[Self::stage_index(s)].record(nanos);
        }
    }

    /// Record one statement span under the current run.
    fn stmt_span(&mut self, target: &str, nanos: u64, rows: u64) {
        if self.runs_live == 0 {
            return;
        }
        let r = &mut self.runs[self.runs_live - 1];
        if r.stmts_live == r.stmts.len() {
            r.stmts.push(StmtScratch::default());
        }
        let s = &mut r.stmts[r.stmts_live];
        s.target.clear();
        s.target.push_str(target);
        s.nanos = nanos;
        s.rows = rows;
        r.stmts_live += 1;
    }

    /// Build an owned trace from the scratch spans (slow path; allocates).
    fn assemble_trace(&self, elapsed_nanos: u64, events: u64) -> SlowBatchTrace {
        SlowBatchTrace {
            seq: 0, // assigned by the ring
            elapsed_nanos,
            threshold_nanos: self.slow_threshold_nanos,
            events,
            runs: self.runs[..self.runs_live]
                .iter()
                .map(|r| RunSpan {
                    relation: r.relation.clone(),
                    strategy: r.strategy.to_string(),
                    events: r.events,
                    entries: r.entries,
                    nanos: r.nanos,
                    correction_firings: r.corrections,
                    statements: r.stmts[..r.stmts_live]
                        .iter()
                        .map(|s| StmtSpan {
                            target: s.target.clone(),
                            nanos: s.nanos,
                            rows: s.rows,
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Total rows one buffered statement will apply: emitted rows times the
/// per-entry repetition count.
fn segs_rows(segs: &[Seg]) -> u64 {
    segs.iter()
        .map(|s| (s.end - s.start) as u64 * s.reps as u64)
        .sum()
}

impl Engine {
    /// Build an engine for a compiled program. `catalog` supplies the column names of
    /// stored base relations and static tables.
    pub fn new(program: TriggerProgram, catalog: &Catalog) -> Self {
        let mut db = Database::new();
        for m in &program.maps {
            db.declare(m.name.clone(), m.out_vars.iter().cloned());
        }
        for rel in program
            .stored_relations
            .iter()
            .chain(program.static_tables.iter())
        {
            if db.contains(rel) {
                continue;
            }
            let columns: Vec<String> = catalog
                .get(rel)
                .map(|r| r.columns.clone())
                .unwrap_or_default();
            db.declare(rel.clone(), columns);
        }
        let merge_runs = program
            .triggers
            .iter()
            .all(|t| t.statements.iter().all(|s| s.op == StmtOp::Increment));
        let mut engine = Engine {
            program: Arc::new(program),
            db,
            stats: EngineStats::new(),
            changes: None,
            kernel: KernelState::new(),
            scratch: EvalScratch::default(),
            batch: BatchScratch::default(),
            bd: BdScratch::default(),
            single: DeltaBatch::new(),
            merged: DeltaBatch::new(),
            merge_runs,
            dispatch: FastMap::default(),
            corr_read_maps: Vec::new(),
            force_interpreter: false,
            forced_strategy: None,
            record_runs: false,
            tel: None,
        };
        engine.set_force_batch_strategy(env_forced_batch_strategy());
        engine.set_force_interpreter(env_forces_interpreter());
        engine
    }

    /// Force (or with `None` un-force) one [`BatchStrategy`] for every
    /// relation, rebuilding the dispatch table through
    /// [`TriggerProgram::batch_dispatch_forced`]. Used by differential tests
    /// and as an escape hatch; also settable via the
    /// [`FORCE_BATCH_STRATEGY_ENV`] environment variable at construction.
    pub fn set_force_batch_strategy(&mut self, force: Option<BatchStrategy>) {
        self.forced_strategy = force;
        self.dispatch = self
            .program
            .batch_dispatch_forced(force)
            .into_iter()
            .map(|d| {
                let correction = self
                    .program
                    .batch_corrections
                    .iter()
                    .position(|c| c.relation == d.relation)
                    .map(|i| i as u16);
                (
                    d.relation,
                    DispatchEntry {
                        insert: d.insert.map(|i| i as u16),
                        delete: d.delete.map(|i| i as u16),
                        strategy: d.strategy,
                        correction,
                    },
                )
            })
            .collect();
        // Precompute, per correction set, the views the relation's first-order
        // statements read: the batch-delta cost gate compares the correction's
        // O(firings²) pair join against entry-major's O(firings × read-map
        // size) scans, and must not allocate per run.
        self.corr_read_maps = self
            .program
            .batch_corrections
            .iter()
            .map(|c| {
                let mut names = std::collections::BTreeSet::new();
                for t in self
                    .program
                    .triggers
                    .iter()
                    .filter(|t| t.relation == c.relation)
                {
                    for s in &t.statements {
                        names.extend(s.reads());
                    }
                }
                names.into_iter().collect()
            })
            .collect();
    }

    /// The strategy override in effect (`None` = automatic dispatch).
    pub fn forced_batch_strategy(&self) -> Option<BatchStrategy> {
        self.forced_strategy
    }

    /// Enable or disable per-run strategy records in [`BatchReport::runs`]
    /// (off by default — recording allocates per run, which the batch-of-1
    /// hot path keeps at zero). The strategy-run *counters* in
    /// [`EngineStats`] are always maintained.
    pub fn set_run_recording(&mut self, enabled: bool) {
        self.record_runs = enabled;
    }

    /// Force (or un-force) the AST-interpreter path for every statement,
    /// ignoring compiled kernels. Used by differential tests and as an escape
    /// hatch; also settable via the [`FORCE_INTERPRETER_ENV`] environment
    /// variable at engine construction.
    pub fn set_force_interpreter(&mut self, force: bool) {
        self.force_interpreter = force;
        // Count only kernels the dispatcher will actually use: a trigger whose
        // kernel list is misaligned with its statement list falls back to the
        // interpreter wholesale (see `process`), and the stat must agree.
        self.stats.compiled_triggers = if force {
            0
        } else {
            self.program
                .triggers
                .iter()
                .zip(self.program.compiled.iter())
                .filter(|(t, c)| c.stmts.len() == t.statements.len())
                .map(|(_, c)| c.compiled_count() as u64)
                .sum()
        };
    }

    /// Is the engine on the interpreter-only path?
    pub fn force_interpreter(&self) -> bool {
        self.force_interpreter
    }

    /// Rebuild an engine from a checkpointed snapshot: every map is restored
    /// wholesale and the event counter resumes at `events_applied`, **without**
    /// re-running [`Engine::init_static_views`] — the snapshot already contains
    /// static tables and the views derived from them. This is the restore half
    /// of the durability layer's checkpoint/recovery protocol; replaying logged
    /// events `events_applied+1..` through [`Engine::process_batch`] afterwards
    /// reproduces a never-restarted engine bit-for-bit.
    pub fn from_snapshot(
        program: TriggerProgram,
        catalog: &Catalog,
        maps: impl IntoIterator<Item = (String, Gmr)>,
        events_applied: u64,
    ) -> Self {
        let mut engine = Engine::new(program, catalog);
        for (name, gmr) in maps {
            if !engine.db.contains(&name) {
                // Present in the snapshot but not declared by the program: a
                // table that was declared on the fly by `load_table`.
                engine
                    .db
                    .declare(name.clone(), gmr.schema().columns().iter().cloned());
            }
            engine
                .db
                .view_mut(&name)
                .expect("declared above")
                .load_gmr(&gmr);
        }
        engine.stats.events = events_applied;
        engine
    }

    /// Enable or disable the changed-key log consumed by [`Engine::take_changes`].
    /// Off by default; costs one cheap key clone per view write when on.
    pub fn set_change_tracking(&mut self, enabled: bool) {
        if enabled {
            self.changes.get_or_insert_with(ChangeSet::default);
        } else {
            self.changes = None;
        }
    }

    /// Drain the changed-key log accumulated since the last call (empty when
    /// change tracking is disabled).
    pub fn take_changes(&mut self) -> ChangeSet {
        match self.changes.as_mut() {
            Some(c) => std::mem::take(c),
            None => ChangeSet::default(),
        }
    }

    /// A consistent point-in-time snapshot of every view and stored relation:
    /// name → GMR sharing the view's copy-on-write map. O(number of views).
    pub fn snapshot(&self) -> FastMap<String, Gmr> {
        self.db.snapshot()
    }

    /// Mutable access to the statistics (the serving layer records batch-level
    /// counters here).
    pub fn stats_mut(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// The compiled program this engine executes.
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// A shared handle to the compiled program (for callers that outlive the
    /// engine borrow, e.g. the serving layer's subscription resolver).
    pub fn program_shared(&self) -> Arc<TriggerProgram> {
        self.program.clone()
    }

    /// Load the contents of a static table (each row with multiplicity 1). Call
    /// [`Engine::init_static_views`] after all tables are loaded.
    pub fn load_table(&mut self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        let mut rows = rows.into_iter();
        if !self.db.contains(name) {
            // Declare on the fly for tables that only appear in view definitions,
            // taking the arity from the first row.
            match rows.next() {
                Some(first) => {
                    self.db
                        .declare(name.to_string(), (0..first.len()).map(|i| format!("c{i}")));
                    self.db.view_mut(name).unwrap().add(first, 1.0);
                }
                None => return,
            }
        }
        let view = self.db.view_mut(name).expect("declared above");
        for r in rows {
            view.add(r, 1.0);
        }
    }

    /// Evaluate the definitions of views that depend only on static tables and load the
    /// results (the paper's handling of `Nation`, `Region` and the MDDB metadata).
    pub fn init_static_views(&mut self) -> Result<(), RuntimeError> {
        let program = self.program.clone();
        for m in &program.maps {
            if !m.init_from_tables {
                continue;
            }
            let result = eval_with(&m.definition, &self.db, &mut Bindings::new())?;
            if let Some(view) = self.db.view_mut(&m.name) {
                view.load_gmr(&result);
            }
        }
        Ok(())
    }

    /// Process a single update event: the degenerate batch of one. Exactly
    /// equivalent to the historical per-event path — one run, one entry, one
    /// firing — and still allocation-free in steady state (the batch-of-1 is
    /// recycled and its single key stays inline for typical arities).
    pub fn process(&mut self, event: &UpdateEvent) -> Result<(), RuntimeError> {
        let mut single = std::mem::take(&mut self.single);
        single.clear();
        single.push(event);
        let report = self.process_batch(&single);
        self.single = single;
        match report.first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Process a delta batch, firing each relation run's triggers under the
    /// statically chosen [`BatchStrategy`] (see the module docs). Never stops
    /// early: failed events are skipped past (keeping their stream slot) and
    /// reported, so a durable writer's WAL watermark and a replay stay lined
    /// up with live processing.
    pub fn process_batch(&mut self, batch: &DeltaBatch) -> BatchReport {
        if batch.is_empty() {
            return BatchReport::default();
        }
        let t0 = Instant::now();
        let program = self.program.clone();
        let mut report = BatchReport {
            events: batch.events(),
            ..BatchReport::default()
        };
        // Increment-only programs: fold same-relation runs together first so
        // interleaved streams process one run per relation (ring addition may
        // also cancel entries across runs; see the module docs for legality).
        let mut merged: Option<DeltaBatch> = None;
        if self.merge_runs && batch.has_repeated_relation() {
            let mut scratch = std::mem::take(&mut self.merged);
            batch.merge_runs_into(&mut scratch);
            merged = Some(scratch);
        }
        let source: &DeltaBatch = merged.as_ref().unwrap_or(batch);
        // Arm per-run/per-statement span timing only for batches big enough
        // to amortize the extra clock reads — never the batch-of-1 path.
        let armed = match self.tel.as_deref_mut() {
            Some(ts) => {
                ts.runs_live = 0;
                ts.armed = report.events >= ts.arm_min_events;
                ts.armed
            }
            None => false,
        };
        let mut run_count = 0u32;
        let mut last_strategy: Option<BatchStrategy> = None;
        for run in source.runs() {
            let rt0 = if armed {
                self.tel
                    .as_deref_mut()
                    .expect("armed implies tel")
                    .begin_run(run.relation(), run.events(), run.entries().len());
                Some(Instant::now())
            } else {
                None
            };
            let strat = self.process_run(&program, run, &mut report);
            run_count += 1;
            last_strategy = strat;
            if let Some(rt0) = rt0 {
                let nanos = rt0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.tel
                    .as_deref_mut()
                    .expect("armed implies tel")
                    .end_run(strat, nanos);
            }
        }
        self.stats.batch_events_collapsed += source.collapsed_events();
        if let Some(m) = merged {
            self.merged = m;
        }
        self.stats.events += report.events - report.failed_events;
        self.stats.delta_batches += 1;
        let elapsed = t0.elapsed();
        self.stats.busy += elapsed;
        if let Some(ts) = self.tel.as_deref_mut() {
            let nanos = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            ts.batch_hist.record(nanos);
            // Strategy attribution without extra clock reads: a single-run
            // batch (the overwhelmingly common case, and always the
            // batch-of-1 path) is its one run, so the whole batch
            // measurement is the run's kernel-execute time. Multi-run
            // batches were attributed per run above when armed.
            if run_count == 1 && !armed {
                if let Some(s) = last_strategy {
                    ts.stage_hists[TelemetryState::stage_index(s)].record(nanos);
                }
            }
            if ts.slow_threshold_nanos > 0 && nanos >= ts.slow_threshold_nanos {
                let trace = ts.assemble_trace(nanos, report.events);
                ts.tel.push_trace(trace);
            }
            ts.armed = false;
            if self
                .stats
                .delta_batches
                .is_multiple_of(TELEMETRY_FLUSH_BATCHES)
            {
                self.flush_telemetry();
            }
        }
        report
    }

    /// Process a sequence of events one at a time, stopping at the first error
    /// (the historical strict API; batching callers use
    /// [`Engine::process_batch`]).
    pub fn process_all<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a UpdateEvent>,
    ) -> Result<(), RuntimeError> {
        for e in events {
            self.process(e)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Batch execution
    // -----------------------------------------------------------------------

    /// Dispatch one relation run. Returns the strategy that actually
    /// executed (`None` when the run applied only a base update or failed
    /// its arity gate).
    fn process_run(
        &mut self,
        program: &TriggerProgram,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) -> Option<BatchStrategy> {
        let Some(&disp) = self.dispatch.get(run.relation()) else {
            // No trigger for this relation under either sign (e.g. an update
            // to a relation no query depends on): still keep the stored base
            // relation consistent.
            self.apply_base_run(run, false);
            return None;
        };
        // Arity gate, per run (runs are arity-uniform by construction): a
        // mismatched event applies nothing — not even the base update — just
        // like the per-event path.
        for idx in [disp.insert, disp.delete].into_iter().flatten() {
            let trigger = &program.triggers[idx as usize];
            if trigger.trigger_vars.len() != run.arity() {
                report.failed_events += run.events();
                report
                    .first_error
                    .get_or_insert(RuntimeError::EventArityMismatch {
                        relation: run.relation().to_string(),
                        expected: trigger.trigger_vars.len(),
                        actual: run.arity(),
                    });
                return None;
            }
        }
        let executed = match disp.strategy {
            BatchStrategy::StatementMajor => {
                self.run_statement_major(program, disp, run, report);
                BatchStrategy::StatementMajor
            }
            BatchStrategy::EntryMajor => {
                self.run_entry_major(program, disp, run, report);
                BatchStrategy::EntryMajor
            }
            BatchStrategy::BatchDelta => self.run_batch_delta(program, disp, run, report),
        };
        match executed {
            BatchStrategy::BatchDelta => self.stats.batch_delta_runs += 1,
            BatchStrategy::StatementMajor => self.stats.statement_major_runs += 1,
            BatchStrategy::EntryMajor => self.stats.entry_major_runs += 1,
        }
        if self.record_runs {
            report.runs.push(RunRecord {
                relation: run.relation().to_string(),
                strategy: executed,
                events: run.events(),
            });
        }
        Some(executed)
    }

    /// Route the kernel's work counters at the view slot of a trigger
    /// statement's target (no-op without telemetry).
    #[inline]
    fn set_counter_slot(&mut self, tidx: u16, j: usize) {
        if let Some(ts) = self.tel.as_deref() {
            if let Some(&slot) = ts.stmt_slot.get(tidx as usize).and_then(|v| v.get(j)) {
                if slot != u32::MAX {
                    self.kernel.counter_slot = slot as usize;
                }
            }
        }
    }

    /// A statement-span start time, taken only when the current batch armed
    /// span timing (see [`TelemetryState::armed`]).
    #[inline]
    fn armed_instant(&self) -> Option<Instant> {
        match self.tel.as_deref() {
            Some(ts) if ts.armed => Some(Instant::now()),
            _ => None,
        }
    }

    /// Close a statement span opened by [`Engine::armed_instant`].
    fn note_stmt(&mut self, st0: Option<Instant>, target: &str, rows: u64) {
        if let Some(t0) = st0 {
            let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if let Some(ts) = self.tel.as_deref_mut() {
                ts.stmt_span(target, nanos, rows);
            }
        }
    }

    /// Credit rows written to the current counter slot's view (no-op without
    /// telemetry).
    #[inline]
    fn note_rows(&mut self, rows: u64) {
        if rows == 0 {
            return;
        }
        if let Some(ts) = self.tel.as_deref_mut() {
            if let Some(r) = ts.pending_rows.get_mut(self.kernel.counter_slot) {
                *r += rows;
            }
        }
    }

    /// Entry-major fallback: every surviving entry fires the full per-event
    /// trigger sequence `|mult|` times — identical to event-at-a-time
    /// processing of the net stream.
    fn run_entry_major(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) {
        for entry in run.entries() {
            let Some(sign) = entry.sign() else { continue };
            let tidx = match sign {
                UpdateSign::Insert => disp.insert,
                UpdateSign::Delete => disp.delete,
            };
            for _ in 0..entry.firings() {
                if let Err(e) = self.fire_single(program, run.relation(), tidx, sign, &entry.key) {
                    report.failed_events += 1;
                    report.first_error.get_or_insert(e);
                }
            }
        }
    }

    /// One complete single-tuple firing: increments, base update, replaces.
    fn fire_single(
        &mut self,
        program: &TriggerProgram,
        relation: &str,
        tidx: Option<u16>,
        sign: UpdateSign,
        key: &Tuple,
    ) -> Result<(), RuntimeError> {
        let Some(tidx) = tidx else {
            // This sign has no trigger: only the stored base relation moves.
            self.apply_base_raw(relation, key, sign.multiplier());
            return Ok(());
        };
        let trigger = &program.triggers[tidx as usize];
        let kernels = self.kernels_for(program, tidx);
        // Interpreter context, built lazily: a fully compiled trigger
        // never allocates the per-event name bindings.
        let mut bindings: Option<Bindings> = None;

        // Phase 1: incremental statements read the old state.
        for (j, stmt) in trigger.statements.iter().enumerate() {
            if stmt.op == StmtOp::Increment {
                self.set_counter_slot(tidx, j);
                self.exec_dispatch(
                    stmt,
                    flat_get(kernels, j),
                    key.as_slice(),
                    trigger,
                    &mut bindings,
                )?;
            }
        }
        // Phase 2: reflect the update in the stored base relation (if stored).
        self.apply_base_raw(relation, key, sign.multiplier());
        // Phase 3: re-evaluation statements read the new state.
        for (j, stmt) in trigger.statements.iter().enumerate() {
            if stmt.op == StmtOp::Replace {
                self.set_counter_slot(tidx, j);
                self.exec_dispatch(
                    stmt,
                    flat_get(kernels, j),
                    key.as_slice(),
                    trigger,
                    &mut bindings,
                )?;
            }
        }
        Ok(())
    }

    /// Statement-major execution of one run (see the module docs): increments
    /// driven over all entries per statement, one base-update pass, replaces
    /// once for the run's last event. Legal by the dispatch analysis.
    fn run_statement_major(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) {
        self.batch.failed.clear();
        self.batch.failed.resize(run.entries().len(), false);

        // Phase 1: incremental statements, insert entries then delete entries.
        for (sign, tidx) in [
            (UpdateSign::Insert, disp.insert),
            (UpdateSign::Delete, disp.delete),
        ] {
            let Some(tidx) = tidx else { continue };
            if !run.entries().iter().any(|e| e.sign() == Some(sign)) {
                continue;
            }
            let trigger = &program.triggers[tidx as usize];
            let kernels = self.kernels_for(program, tidx);
            for (j, stmt) in trigger.statements.iter().enumerate() {
                if stmt.op != StmtOp::Increment {
                    continue;
                }
                self.set_counter_slot(tidx, j);
                let st0 = self.armed_instant();
                let res = match flat_get(kernels, j) {
                    Some(k) => self.increment_compiled_over(stmt, k, run, sign, report),
                    None => self.increment_interp_over(stmt, trigger, run, sign, report),
                };
                if self.tel.is_some() && res.is_ok() {
                    // `batch.segs` still holds this statement's entry
                    // boundaries after the buffered apply.
                    let rows = segs_rows(&self.batch.segs);
                    self.note_rows(rows);
                    self.note_stmt(st0, &stmt.target, rows);
                }
                if let Err(e) = res {
                    // Statement-level failure (missing target view): program
                    // corruption rather than a poison event. The buffered
                    // rows were discarded; fail the sign's remaining entries
                    // so the base-update and `:=` phases skip them — the
                    // per-event path would likewise die before its base
                    // update.
                    for (ei, entry) in run.entries().iter().enumerate() {
                        if !self.batch.failed[ei] && entry.sign() == Some(sign) {
                            self.batch.failed[ei] = true;
                            report.failed_events += entry.events as u64;
                        }
                    }
                    report.first_error.get_or_insert(e);
                }
            }
        }

        // Phase 2: one base-update pass over the surviving entries.
        self.apply_base_run(run, true);

        // Phase 3: re-evaluation statements fire once, bound to the run's
        // last event — the firing whose output survives per-event processing.
        let Some((sign, last_idx)) = run.last_event_index() else {
            return;
        };
        if self.batch.failed[last_idx] {
            // The binding event failed its increments; per-event it would not
            // have reached its `:=` phase either.
            return;
        }
        let tidx = match sign {
            UpdateSign::Insert => disp.insert,
            UpdateSign::Delete => disp.delete,
        };
        let Some(tidx) = tidx else { return };
        let trigger = &program.triggers[tidx as usize];
        if !trigger.statements.iter().any(|s| s.op == StmtOp::Replace) {
            return;
        }
        let key = run.entries()[last_idx].key.clone();
        let kernels = self.kernels_for(program, tidx);
        let mut bindings: Option<Bindings> = None;
        for (j, stmt) in trigger.statements.iter().enumerate() {
            if stmt.op != StmtOp::Replace {
                continue;
            }
            self.set_counter_slot(tidx, j);
            if let Err(e) = self.exec_dispatch(
                stmt,
                flat_get(kernels, j),
                key.as_slice(),
                trigger,
                &mut bindings,
            ) {
                // Mirror the single-event contract: the binding event counts
                // as failed and its remaining statements are skipped.
                report.failed_events += 1;
                report.first_error.get_or_insert(e);
                break;
            }
        }
    }

    /// Batch-delta execution of one run (see the module docs): phase one
    /// evaluates every incremental statement over the run's entries against
    /// the pre-run state and the second-order correction statements once
    /// against the run's delta, buffering all rows; phase two applies the
    /// buffers in statement order followed by the base update. Returns the
    /// strategy that actually executed: any phase-one error discards the
    /// (still unapplied) buffers — the database is untouched at that point —
    /// and replays the whole run entry-major, which reproduces per-event
    /// poison semantics exactly and does its own failure accounting.
    fn run_batch_delta(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        run: &RelationDelta,
        report: &mut BatchReport,
    ) -> BatchStrategy {
        let corr = disp
            .correction
            .map(|i| &program.batch_corrections[i as usize]);
        // Cost gate for quadratic queries: the pair correction joins the run's
        // delta with itself, so its work grows as O(firings²), while firing
        // the run entry-major pays O(firings × |read maps|) scanning the
        // maintained maps once per event. The break-even is therefore
        // firings ≈ observed read-map entries: below it the correction can no
        // longer win against cheap per-event statements; above it (large
        // maintained state, as in bsv's long runs) per-event scans dominate
        // and batch-delta stays on. Every input — the firing count and the
        // map sizes — is engine state reproduced bit-for-bit by WAL replay,
        // so recovery picks the identical strategy sequence. Relations whose
        // maps are all linear in the relation (empty correction set) never
        // hit the gate.
        const MIN_CORRECTION_FIRINGS: u64 = 3;
        if corr.is_some_and(|c| !c.statements.is_empty()) {
            let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
            let observed_entries: u64 = disp
                .correction
                .and_then(|ci| self.corr_read_maps.get(ci as usize))
                .map(|maps| {
                    maps.iter()
                        .map(|n| self.db.view(n).map_or(0, |v| v.len() as u64))
                        .sum()
                })
                .unwrap_or(0);
            if firings > MIN_CORRECTION_FIRINGS.max(observed_entries) {
                self.run_entry_major(program, disp, run, report);
                return BatchStrategy::EntryMajor;
            }
        }
        if self.collect_batch_delta(program, disp, corr, run).is_err() {
            self.bd.live = 0;
            self.run_entry_major(program, disp, run, report);
            return BatchStrategy::EntryMajor;
        }
        // Apply phase. Targets were verified during collection, so these
        // applies cannot fail; surface a defensive error anyway.
        let mut first_err: Option<RuntimeError> = None;
        {
            let Engine {
                db,
                changes,
                bd,
                tel,
                ..
            } = self;
            for ds in &bd.stmts[..bd.live] {
                let target = if ds.tidx == u16::MAX {
                    let corr = corr.expect("correction rows imply a correction set");
                    &corr.statements[ds.stmt as usize].target
                } else {
                    &program.triggers[ds.tidx as usize].statements[ds.stmt as usize].target
                };
                if let Err(e) = apply_buffered_statement(db, changes, target, &ds.segs, &ds.rows) {
                    first_err.get_or_insert(e);
                } else if let Some(ts) = tel.as_deref_mut() {
                    // Rows are credited at apply time (not collection), so a
                    // run that falls back entry-major never double-counts.
                    let slot = if ds.tidx == u16::MAX {
                        disp.correction.and_then(|ci| {
                            ts.corr_slot
                                .get(ci as usize)
                                .and_then(|v| v.get(ds.stmt as usize))
                                .copied()
                        })
                    } else {
                        ts.stmt_slot
                            .get(ds.tidx as usize)
                            .and_then(|v| v.get(ds.stmt as usize))
                            .copied()
                    };
                    if let Some(slot) = slot {
                        if let Some(r) = ts.pending_rows.get_mut(slot as usize) {
                            *r += segs_rows(&ds.segs);
                        }
                    }
                }
            }
        }
        self.bd.live = 0;
        self.apply_base_run(run, false);
        if let Some(e) = first_err {
            report.failed_events += run.events();
            report.first_error.get_or_insert(e);
        }
        BatchStrategy::BatchDelta
    }

    /// Phase one of [`Engine::run_batch_delta`]: buffer every incremental
    /// statement's rows (evaluated against the pre-run state) and then the
    /// correction statements' rows (evaluated once against the run's delta
    /// through a [`DeltaOverlay`]), touching no view. On `Err` the database
    /// is guaranteed untouched so the caller can fall back wholesale.
    fn collect_batch_delta(
        &mut self,
        program: &TriggerProgram,
        disp: DispatchEntry,
        corr: Option<&BatchCorrection>,
        run: &RelationDelta,
    ) -> Result<(), RuntimeError> {
        self.bd.live = 0;
        for (sign, tidx) in [
            (UpdateSign::Insert, disp.insert),
            (UpdateSign::Delete, disp.delete),
        ] {
            let Some(tidx) = tidx else { continue };
            if !run.entries().iter().any(|e| e.sign() == Some(sign)) {
                continue;
            }
            let trigger = &program.triggers[tidx as usize];
            let kernels = self.kernels_for(program, tidx);
            for (j, stmt) in trigger.statements.iter().enumerate() {
                debug_assert_eq!(
                    stmt.op,
                    StmtOp::Increment,
                    "batch-delta dispatch requires increment-only triggers"
                );
                if !self.db.contains(&stmt.target) {
                    return Err(RuntimeError::UnknownView(stmt.target.clone()));
                }
                self.set_counter_slot(tidx, j);
                let st0 = self.armed_instant();
                match flat_get(kernels, j) {
                    Some(k) => self.collect_compiled_over(k, run, sign, tidx, j as u16)?,
                    None => self.collect_interp_over(stmt, trigger, run, sign, tidx, j as u16)?,
                }
                if st0.is_some() {
                    let rows = self
                        .bd
                        .stmts
                        .get(self.bd.live.wrapping_sub(1))
                        .map_or(0, |ds| segs_rows(&ds.segs));
                    self.note_stmt(st0, &stmt.target, rows);
                }
            }
        }
        let Some(corr) = corr else { return Ok(()) };
        if corr.statements.is_empty() {
            return Ok(());
        }
        // With at most one total firing there is no intra-batch interaction:
        // the second-order term is exactly zero (its pair and diagonal parts
        // cancel), so it is skipped — this also keeps the batch-of-1 path
        // free of overlay setup.
        let firings: u64 = run.entries().iter().map(|e| e.firings() as u64).sum();
        if firings <= 1 {
            return Ok(());
        }
        let signed = delta_relation_name(run.relation());
        let absolute = delta_abs_relation_name(run.relation());
        let aligned = corr.compiled.len() == corr.statements.len();
        for (j, stmt) in corr.statements.iter().enumerate() {
            if !self.db.contains(&stmt.target) {
                return Err(RuntimeError::UnknownView(stmt.target.clone()));
            }
            let kernel = if self.force_interpreter || !aligned {
                None
            } else {
                flat_get(&corr.compiled, j)
            };
            if let (Some(ts), Some(ci)) = (self.tel.as_deref(), disp.correction) {
                if let Some(&slot) = ts.corr_slot.get(ci as usize).and_then(|v| v.get(j)) {
                    if slot != u32::MAX {
                        self.kernel.counter_slot = slot as usize;
                    }
                }
            }
            let st0 = self.armed_instant();
            match kernel {
                Some(k) => {
                    self.collect_correction_compiled(k, run, &signed, &absolute, j as u16)?
                }
                None => self.collect_correction_interp(stmt, run, &signed, &absolute, j as u16)?,
            }
            if let Some(ts) = self.tel.as_deref_mut() {
                if ts.armed && ts.runs_live > 0 {
                    ts.runs[ts.runs_live - 1].corrections += 1;
                }
                if let Some(ci) = disp.correction {
                    if let Some(&slot) = ts.corr_slot.get(ci as usize).and_then(|v| v.get(j)) {
                        if let Some(c) = ts.pending_corrections.get_mut(slot as usize) {
                            *c += 1;
                        }
                    }
                }
            }
            if st0.is_some() {
                let rows = self
                    .bd
                    .stmts
                    .get(self.bd.live.wrapping_sub(1))
                    .map_or(0, |ds| segs_rows(&ds.segs));
                self.note_stmt(st0, &stmt.target, rows);
            }
        }
        Ok(())
    }

    /// Buffer one compiled incremental statement's rows over all of a run's
    /// entries of one sign without applying them — the batch-delta twin of
    /// [`Engine::increment_compiled_over`]. Any kernel error aborts the whole
    /// collection (the caller falls back entry-major).
    fn collect_compiled_over(
        &mut self,
        kernel: &CompiledStmt,
        run: &RelationDelta,
        sign: UpdateSign,
        tidx: u16,
        stmt_j: u16,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            kernel: state,
            bd,
            stats,
            ..
        } = self;
        let slot = bd.acquire(tidx, stmt_j);
        state.prepare(kernel);
        let src = CachedSource::new(db);
        let mut first = true;
        for entry in run.entries() {
            if entry.sign() != Some(sign) {
                continue;
            }
            stats.statements += 1;
            let start = state.out.len();
            for &s in &kernel.used_trigger_slots {
                state.frame[s as usize] = entry.key[s as usize].clone();
            }
            match kernel.execute_batch_entry(&src, state, first) {
                Ok(()) => {
                    first = false;
                    slot.segs.push(Seg {
                        start,
                        end: state.out.len(),
                        reps: entry.firings(),
                    });
                }
                Err(e) => {
                    state.out.clear();
                    return Err(RuntimeError::Eval(e));
                }
            }
        }
        // Hand the collected rows to the deferred slot; the (cleared) old
        // slot buffer becomes the kernel's next row buffer.
        std::mem::swap(&mut slot.rows, &mut state.out);
        Ok(())
    }

    /// The interpreter twin of [`Engine::collect_compiled_over`].
    fn collect_interp_over(
        &mut self,
        stmt: &Statement,
        trigger: &Trigger,
        run: &RelationDelta,
        sign: UpdateSign,
        tidx: u16,
        stmt_j: u16,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            scratch,
            batch,
            bd,
            stats,
            ..
        } = self;
        let slot = bd.acquire(tidx, stmt_j);
        batch.bindings.clear();
        for entry in run.entries() {
            if entry.sign() != Some(sign) {
                continue;
            }
            stats.statements += 1;
            for (var, value) in trigger.trigger_vars.iter().zip(entry.key.iter()) {
                batch.bindings.set(var, value.clone());
            }
            let start = slot.rows.len();
            interp_statement_rows(&*db, scratch, &mut batch.bindings, stmt, &mut slot.rows)?;
            slot.segs.push(Seg {
                start,
                end: slot.rows.len(),
                reps: entry.firings(),
            });
        }
        Ok(())
    }

    /// Buffer one compiled second-order correction statement's rows: the
    /// kernel runs once per run (corrections carry no trigger variables) with
    /// the delta pseudo-relations resolved by a [`DeltaOverlay`] over the
    /// same snapshot-cached source the first-order pass reads.
    fn collect_correction_compiled(
        &mut self,
        kernel: &CompiledStmt,
        run: &RelationDelta,
        signed: &str,
        absolute: &str,
        stmt_j: u16,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            kernel: state,
            bd,
            stats,
            ..
        } = self;
        let slot = bd.acquire(u16::MAX, stmt_j);
        stats.statements += 1;
        state.prepare(kernel);
        let cached = CachedSource::new(db);
        let overlay = DeltaOverlay::new(&cached, run, signed, absolute);
        if let Err(e) = kernel.execute(&overlay, state) {
            state.out.clear();
            return Err(RuntimeError::Eval(e));
        }
        slot.segs.push(Seg {
            start: 0,
            end: state.out.len(),
            reps: 1,
        });
        std::mem::swap(&mut slot.rows, &mut state.out);
        Ok(())
    }

    /// The interpreter twin of [`Engine::collect_correction_compiled`].
    fn collect_correction_interp(
        &mut self,
        stmt: &Statement,
        run: &RelationDelta,
        signed: &str,
        absolute: &str,
        stmt_j: u16,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            scratch,
            batch,
            bd,
            stats,
            ..
        } = self;
        let slot = bd.acquire(u16::MAX, stmt_j);
        stats.statements += 1;
        batch.bindings.clear();
        let overlay = DeltaOverlay::new(&*db, run, signed, absolute);
        interp_statement_rows(&overlay, scratch, &mut batch.bindings, stmt, &mut slot.rows)?;
        slot.segs.push(Seg {
            start: 0,
            end: slot.rows.len(),
            reps: 1,
        });
        Ok(())
    }

    /// The compiled kernels for a trigger, when present, aligned with its
    /// statement list and not overridden by the interpreter escape hatch.
    fn kernels_for<'p>(
        &self,
        program: &'p TriggerProgram,
        tidx: u16,
    ) -> &'p [Option<CompiledStmt>] {
        if self.force_interpreter {
            return &[];
        }
        let trigger = &program.triggers[tidx as usize];
        program
            .compiled
            .get(tidx as usize)
            .map(|c| c.stmts.as_slice())
            .filter(|s| s.len() == trigger.statements.len())
            .unwrap_or(&[])
    }

    /// Drive one compiled incremental statement over all of a run's entries of
    /// one sign: prelude + loop-invariant fused scans once, rows buffered with
    /// entry boundaries, then one buffered apply (single target resolution,
    /// change-log entry and snapshot-cache bump).
    fn increment_compiled_over(
        &mut self,
        stmt: &Statement,
        kernel: &CompiledStmt,
        run: &RelationDelta,
        sign: UpdateSign,
        report: &mut BatchReport,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            kernel: state,
            batch,
            stats,
            changes,
            ..
        } = self;
        batch.segs.clear();
        state.prepare(kernel);
        // The whole entries pass is read-only (rows are buffered), so probe
        // and scan targets can be resolved once per name for the batch.
        let src = CachedSource::new(db);
        let mut first = true;
        for (ei, entry) in run.entries().iter().enumerate() {
            if batch.failed[ei] || entry.sign() != Some(sign) {
                continue;
            }
            stats.statements += 1;
            let start = state.out.len();
            for &slot in &kernel.used_trigger_slots {
                state.frame[slot as usize] = entry.key[slot as usize].clone();
            }
            match kernel.execute_batch_entry(&src, state, first) {
                Ok(()) => {
                    first = false;
                    batch.segs.push(Seg {
                        start,
                        end: state.out.len(),
                        reps: entry.firings(),
                    });
                }
                Err(e) => {
                    // Nothing of this entry's statement is applied (rows are
                    // dropped), matching the per-event all-or-nothing apply.
                    state.out.truncate(start);
                    batch.failed[ei] = true;
                    report.failed_events += entry.events as u64;
                    report.first_error.get_or_insert(RuntimeError::Eval(e));
                }
            }
        }
        // `src` (immutable borrow of `db`) ends here; the apply needs `&mut`.
        let _ = src;
        let res = apply_buffered_statement(db, changes, &stmt.target, &batch.segs, &state.out);
        state.out.clear();
        res
    }

    /// The interpreter twin of [`Engine::increment_compiled_over`]: same entry
    /// loop, same buffered apply, with the right-hand side evaluated by the
    /// AST evaluator — keeping the two paths oracles of each other on the
    /// batch path too.
    fn increment_interp_over(
        &mut self,
        stmt: &Statement,
        trigger: &Trigger,
        run: &RelationDelta,
        sign: UpdateSign,
        report: &mut BatchReport,
    ) -> Result<(), RuntimeError> {
        let Engine {
            db,
            scratch,
            batch,
            stats,
            changes,
            ..
        } = self;
        batch.segs.clear();
        batch.rows.clear();
        batch.bindings.clear();
        for (ei, entry) in run.entries().iter().enumerate() {
            if batch.failed[ei] || entry.sign() != Some(sign) {
                continue;
            }
            stats.statements += 1;
            for (var, value) in trigger.trigger_vars.iter().zip(entry.key.iter()) {
                batch.bindings.set(var, value.clone());
            }
            let start = batch.rows.len();
            let res =
                interp_statement_rows(&*db, scratch, &mut batch.bindings, stmt, &mut batch.rows);
            match res {
                Ok(()) => batch.segs.push(Seg {
                    start,
                    end: batch.rows.len(),
                    reps: entry.firings(),
                }),
                Err(e) => {
                    batch.rows.truncate(start);
                    batch.failed[ei] = true;
                    report.failed_events += entry.events as u64;
                    report.first_error.get_or_insert(e);
                }
            }
        }
        let res = apply_buffered_statement(db, changes, &stmt.target, &batch.segs, &batch.rows);
        batch.rows.clear();
        res
    }

    /// One base-update pass for a whole run: each surviving entry's net
    /// multiplicity is applied in one write (exact — net multiplicities are
    /// integers). `respect_failed` skips entries whose trigger work failed,
    /// mirroring the per-event path where a poison event never reaches its
    /// base update.
    fn apply_base_run(&mut self, run: &RelationDelta, respect_failed: bool) {
        let Engine {
            db, changes, batch, ..
        } = self;
        let Some(view) = db.view_mut(run.relation()) else {
            return;
        };
        let mut change = changes.as_mut().map(|c| c.entry(run.relation()));
        let failed: &[bool] = &batch.failed;
        let rows = run.entries().iter().enumerate().filter_map(|(ei, e)| {
            if e.mult == 0.0 || (respect_failed && failed[ei]) {
                None
            } else {
                Some((&e.key, e.mult))
            }
        });
        view.add_rows(rows, &mut |k| {
            if let Some(c) = change.as_mut() {
                c.keys.insert(k.clone(), ());
            }
        });
    }

    /// Apply one single-tuple base update (the entry-major / no-trigger path).
    fn apply_base_raw(&mut self, relation: &str, key: &Tuple, mult: f64) {
        if let Some(view) = self.db.view_mut(relation) {
            view.add(key.clone(), mult);
            if let Some(log) = self.changes.as_mut() {
                log.record_key(relation, key.clone());
            }
        }
    }

    /// Route one statement to its compiled kernel or the interpreter
    /// (single-firing path).
    fn exec_dispatch(
        &mut self,
        stmt: &Statement,
        kernel: Option<&CompiledStmt>,
        tuple: &[Value],
        trigger: &Trigger,
        bindings: &mut Option<Bindings>,
    ) -> Result<(), RuntimeError> {
        match kernel {
            Some(k) => self.exec_compiled(stmt, k, tuple),
            None => {
                let ctx = bindings.get_or_insert_with(|| {
                    let mut b = Bindings::with_capacity(trigger.trigger_vars.len());
                    for (var, value) in trigger.trigger_vars.iter().zip(tuple.iter()) {
                        b.insert(var.clone(), value.clone());
                    }
                    b
                });
                self.exec_statement(stmt, ctx)
            }
        }
    }

    /// Execute a statement through its compiled kernel: seed the frame from
    /// the event tuple, run the plan into the reusable row buffer, then apply
    /// the buffered rows to the target map.
    fn exec_compiled(
        &mut self,
        stmt: &Statement,
        kernel: &CompiledStmt,
        tuple: &[Value],
    ) -> Result<(), RuntimeError> {
        self.stats.statements += 1;
        {
            let Engine {
                db, kernel: state, ..
            } = self;
            state.prepare(kernel);
            for &slot in &kernel.used_trigger_slots {
                state.frame[slot as usize] = tuple[slot as usize].clone();
            }
            kernel.execute(db, state).map_err(RuntimeError::Eval)?;
        }
        let Engine {
            db,
            kernel: state,
            changes,
            tel,
            ..
        } = self;
        if let Some(ts) = tel.as_deref_mut() {
            if let Some(r) = ts.pending_rows.get_mut(state.counter_slot) {
                *r += state.out.len() as u64;
            }
        }
        let target = db
            .view_mut(&stmt.target)
            .ok_or_else(|| RuntimeError::UnknownView(stmt.target.clone()))?;
        if stmt.op == StmtOp::Replace {
            target.clear();
            if let Some(log) = changes.as_mut() {
                log.record_clear(&stmt.target);
            }
        }
        for (key, mult) in state.out.drain(..) {
            if mult == 0.0 {
                // A collapsed row that cancelled to zero: the interpreter's
                // result GMR drops such entries, so neither the change log
                // nor the target should see the key.
                continue;
            }
            if let Some(log) = changes.as_mut() {
                log.record_key(&stmt.target, key.clone());
            }
            target.add(key, mult);
        }
        Ok(())
    }

    fn exec_statement(
        &mut self,
        stmt: &Statement,
        bindings: &mut Bindings,
    ) -> Result<(), RuntimeError> {
        self.stats.statements += 1;
        let result = {
            let Engine { db, scratch, .. } = self;
            eval_with_scratch(&stmt.rhs, &*db, bindings, scratch)?
        };
        let target = self
            .db
            .view_mut(&stmt.target)
            .ok_or_else(|| RuntimeError::UnknownView(stmt.target.clone()))?;
        if stmt.op == StmtOp::Replace {
            target.clear();
            if let Some(log) = self.changes.as_mut() {
                log.record_clear(&stmt.target);
            }
        }
        if result.is_empty() {
            return Ok(());
        }
        if let Some(ts) = self.tel.as_deref_mut() {
            if let Some(r) = ts.pending_rows.get_mut(self.kernel.counter_slot) {
                *r += result.len() as u64;
            }
        }
        let key_sources = resolve_key_sources(stmt, bindings, result.schema())?;
        for (row, mult) in result.iter() {
            let key: Tuple = key_sources
                .iter()
                .map(|s| match s {
                    Ok(v) => v.clone(),
                    Err(i) => row[*i].clone(),
                })
                .collect();
            if let Some(log) = self.changes.as_mut() {
                log.record_key(&stmt.target, key.clone());
            }
            target.add(key, mult);
        }
        Ok(())
    }

    /// Snapshot a query result as a GMR over its output columns.
    pub fn result(&self, query: &str) -> Result<Gmr, RuntimeError> {
        let qr = self
            .program
            .results
            .iter()
            .find(|r| r.name == query)
            .ok_or_else(|| RuntimeError::UnknownQuery(query.to_string()))?;
        match &qr.access {
            ResultAccess::Map(name) => self
                .db
                .view(name)
                .map(|v| v.to_gmr())
                .ok_or_else(|| RuntimeError::UnknownView(name.clone())),
            ResultAccess::Computed { expr, .. } => {
                eval_with(expr, &self.db, &mut Bindings::new()).map_err(RuntimeError::from)
            }
        }
    }

    /// Direct access to a view's contents (for tests and debugging).
    pub fn view(&self, name: &str) -> Option<Gmr> {
        self.db.view(name).map(|v| v.to_gmr())
    }

    /// Approximate memory footprint of all views and stored relations, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.db.approx_bytes()
    }

    /// Total number of entries across all views and stored relations.
    pub fn total_entries(&self) -> usize {
        self.db
            .names()
            .filter_map(|n| self.db.view(n).map(|v| v.len()))
            .sum()
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Structured EXPLAIN of the compiled trigger program: one operator tree
    /// per statement plus the batch-dispatch decision (and its reason) per
    /// relation. With telemetry attached the tree carries live per-view
    /// counters — EXPLAIN ANALYZE — after an implicit
    /// [`Engine::flush_telemetry`]; without telemetry the `analyze` blocks
    /// are absent. Render with [`ProgramExplain::render_text`] or
    /// [`ProgramExplain::render_json`].
    ///
    /// [`ProgramExplain::render_text`]: dbtoaster_compiler::ProgramExplain::render_text
    /// [`ProgramExplain::render_json`]: dbtoaster_compiler::ProgramExplain::render_json
    pub fn explain(&mut self) -> dbtoaster_compiler::ProgramExplain {
        self.flush_telemetry();
        let mut ex = dbtoaster_compiler::explain(&self.program, self.forced_strategy);
        if let Some(ts) = self.tel.as_deref() {
            use std::sync::atomic::Ordering::Relaxed;
            ex.attach_stats(|name| {
                let i = ts.map_names.iter().position(|n| n == name)?;
                let v = &ts.views[i];
                Some(dbtoaster_compiler::ViewStats {
                    rows_written: v.rows_written.load(Relaxed),
                    probes: v.probes.load(Relaxed),
                    scans: v.scans.load(Relaxed),
                    entries_scanned: v.entries_scanned.load(Relaxed),
                    fused_scans: v.fused_scans.load(Relaxed),
                    range_sum_hits: v.range_sum_hits.load(Relaxed),
                    range_sum_bails: v.range_sum_bails.load(Relaxed),
                    correction_firings: v.correction_firings.load(Relaxed),
                    map_size: v.map_size.load(Relaxed),
                })
            });
        }
        ex
    }

    /// Attach a [`Telemetry`] handle. With an enabled handle the engine
    /// records whole-batch latency, per-strategy kernel timings, per-view
    /// work counters and slow-batch traces into it — all buffered in plain
    /// integers and folded into the shared atomics every
    /// `TELEMETRY_FLUSH_BATCHES` (64) batches (or on
    /// [`Engine::flush_telemetry`]).
    /// A disabled handle detaches: the hot path goes back to one predictable
    /// branch per batch, allocation-free as before.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        if !tel.is_enabled() {
            self.tel = None;
            self.kernel.counter_slot = 0;
            return;
        }
        let map_names: Vec<String> = self.db.names().map(|n| n.to_string()).collect();
        let views: Vec<Arc<ViewCounters>> = map_names
            .iter()
            .map(|n| tel.view(n).expect("enabled handle"))
            .collect();
        let slot_of = |name: &str| -> u32 {
            map_names
                .iter()
                .position(|n| n == name)
                .map_or(u32::MAX, |i| i as u32)
        };
        let stmt_slot: Vec<Vec<u32>> = self
            .program
            .triggers
            .iter()
            .map(|t| t.statements.iter().map(|s| slot_of(&s.target)).collect())
            .collect();
        let corr_slot: Vec<Vec<u32>> = self
            .program
            .batch_corrections
            .iter()
            .map(|c| c.statements.iter().map(|s| slot_of(&s.target)).collect())
            .collect();
        let (slow_threshold_nanos, arm_min_events) = {
            let c = tel.config().expect("enabled handle");
            (
                c.slow_batch_threshold.as_nanos().min(u64::MAX as u128) as u64,
                c.trace_arm_min_events,
            )
        };
        // One kernel counter block per view; reset anything a previous
        // attachment left behind so counts start from zero.
        self.kernel.ensure_counter_slots(map_names.len());
        for c in &self.kernel.counter_slots {
            let _ = c.take();
        }
        self.kernel.counter_slot = 0;
        let n = map_names.len();
        self.tel = Some(Box::new(TelemetryState {
            tel,
            batch_hist: LocalHistogram::new(),
            stage_hists: [
                LocalHistogram::new(),
                LocalHistogram::new(),
                LocalHistogram::new(),
            ],
            views,
            map_names,
            pending_rows: vec![0; n],
            pending_corrections: vec![0; n],
            stmt_slot,
            corr_slot,
            flushed_events: self.stats.events,
            flushed_batches: self.stats.delta_batches,
            slow_threshold_nanos,
            arm_min_events,
            armed: false,
            runs: Vec::new(),
            runs_live: 0,
        }));
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.tel.as_ref().map(|t| &t.tel)
    }

    /// Fold all locally buffered telemetry (latency histograms, per-view
    /// counters, kernel work counters, observed map sizes, event totals)
    /// into the shared [`Telemetry`] atomics. Allocation-free; runs
    /// automatically every `TELEMETRY_FLUSH_BATCHES` (64) batches, and callers
    /// (the serving writer, the bench harness) invoke it before reading a
    /// snapshot.
    pub fn flush_telemetry(&mut self) {
        let Some(ts) = self.tel.as_deref_mut() else {
            return;
        };
        use std::sync::atomic::Ordering::Relaxed;
        ts.batch_hist
            .flush_into(ts.tel.batch_hist().expect("enabled handle"));
        for (i, h) in ts.stage_hists.iter_mut().enumerate() {
            h.flush_into(
                ts.tel
                    .stage_hist(TelemetryState::stage_of(i))
                    .expect("enabled handle"),
            );
        }
        for (i, view) in ts.views.iter().enumerate() {
            if let Some(c) = self.kernel.counter_slots.get(i) {
                let w = c.take();
                if w.probes
                    | w.scans
                    | w.entries_scanned
                    | w.fused_scans
                    | w.range_sum_hits
                    | w.range_sum_bails
                    != 0
                {
                    view.probes.fetch_add(w.probes, Relaxed);
                    view.scans.fetch_add(w.scans, Relaxed);
                    view.entries_scanned.fetch_add(w.entries_scanned, Relaxed);
                    view.fused_scans.fetch_add(w.fused_scans, Relaxed);
                    view.range_sum_hits.fetch_add(w.range_sum_hits, Relaxed);
                    view.range_sum_bails.fetch_add(w.range_sum_bails, Relaxed);
                }
            }
            let rows = std::mem::take(&mut ts.pending_rows[i]);
            if rows != 0 {
                view.rows_written.fetch_add(rows, Relaxed);
            }
            let corr = std::mem::take(&mut ts.pending_corrections[i]);
            if corr != 0 {
                view.correction_firings.fetch_add(corr, Relaxed);
            }
            if let Some(v) = self.db.view(&ts.map_names[i]) {
                view.map_size.store(v.len() as u64, Relaxed);
            }
        }
        ts.tel.add_events(
            self.stats.events - ts.flushed_events,
            self.stats.delta_batches - ts.flushed_batches,
        );
        ts.flushed_events = self.stats.events;
        ts.flushed_batches = self.stats.delta_batches;
    }

    /// Build a trace sample at the given stream fraction.
    pub fn sample(&self, fraction: f64) -> TraceSample {
        TraceSample {
            fraction,
            elapsed_secs: self.stats.busy.as_secs_f64(),
            refresh_rate: self.stats.refresh_rate(),
            memory_mb: self.memory_bytes() as f64 / (1024.0 * 1024.0),
        }
    }

    /// The sign multiplier helper re-exported for callers building events by hand.
    pub fn sign_multiplier(sign: UpdateSign) -> f64 {
        sign.multiplier()
    }
}

/// Apply one statement's buffered rows to its target map: a single target
/// resolution, change-log entry and snapshot-cache bump per (statement,
/// batch), shared by the compiled and interpreter batch twins. A missing
/// target view (program corruption — compiled programs always declare their
/// targets) applies nothing; the caller discards the buffers and fails the
/// affected entries.
fn apply_buffered_statement(
    db: &mut Database,
    changes: &mut Option<ChangeSet>,
    target_name: &str,
    segs: &[Seg],
    rows: &[(Tuple, f64)],
) -> Result<(), RuntimeError> {
    let target = db
        .view_mut(target_name)
        .ok_or_else(|| RuntimeError::UnknownView(target_name.to_string()))?;
    let mut change = changes.as_mut().map(|c| c.entry(target_name));
    let it = segs.iter().flat_map(|s| {
        let slice = &rows[s.start..s.end];
        (0..s.reps).flat_map(move |_| slice.iter().map(|(k, m)| (k, *m)))
    });
    target.add_rows(Coalesce::new(it), &mut |k| {
        if let Some(c) = change.as_mut() {
            c.keys.insert(k.clone(), ());
        }
    });
    Ok(())
}

/// Resolve each of a statement's key variables to its source — a trigger
/// binding (range restriction, `Ok`) or a result-column position (`Err`) —
/// once per evaluation, outside the row loop. Shared by the strict
/// interpreter path and its batch twin so the two cannot drift.
fn resolve_key_sources(
    stmt: &Statement,
    bindings: &Bindings,
    schema: &dbtoaster_gmr::Schema,
) -> Result<Vec<Result<Value, usize>>, RuntimeError> {
    stmt.key_vars
        .iter()
        .map(|kv| {
            if let Some(v) = bindings.get(kv) {
                Ok(Ok(v.clone()))
            } else if let Some(i) = schema.index_of(kv) {
                Ok(Err(i))
            } else {
                Err(RuntimeError::MissingKeyVariable {
                    statement: stmt.to_string(),
                    variable: kv.clone(),
                })
            }
        })
        .collect()
}

/// Coalesce consecutive same-key rows of a buffered application stream into
/// one write each. Driven over a whole batch, the entries of a run often hit
/// the same group keys (every entry, for a scalar aggregate), so this turns
/// O(entries) target-map writes per statement into O(distinct consecutive
/// keys). Summation is reassociated relative to per-event processing — exact
/// on integer weights, last-ulp on floats (the documented batch caveat); a
/// batch of one entry coalesces nothing beyond what the kernel sink already
/// did, keeping the batch-of-1 path bit-exact.
struct Coalesce<'a, I: Iterator<Item = (&'a Tuple, f64)>> {
    inner: std::iter::Peekable<I>,
}

impl<'a, I: Iterator<Item = (&'a Tuple, f64)>> Coalesce<'a, I> {
    fn new(inner: I) -> Self {
        Coalesce {
            inner: inner.peekable(),
        }
    }
}

impl<'a, I: Iterator<Item = (&'a Tuple, f64)>> Iterator for Coalesce<'a, I> {
    type Item = (&'a Tuple, f64);

    fn next(&mut self) -> Option<(&'a Tuple, f64)> {
        let (key, mut mult) = self.inner.next()?;
        while let Some(&(next_key, next_mult)) = self.inner.peek() {
            if next_key != key {
                break;
            }
            mult += next_mult;
            self.inner.next();
        }
        Some((key, mult))
    }
}

/// Evaluate one incremental statement for the interpreter batch paths,
/// appending `(key, multiplicity)` rows to `out` instead of touching the
/// target map (the caller applies them buffered). Generic over the relation
/// source so the batch-delta correction path can substitute a
/// [`DeltaOverlay`] for the plain database.
fn interp_statement_rows(
    src: &dyn RelationSource,
    scratch: &mut EvalScratch,
    bindings: &mut Bindings,
    stmt: &Statement,
    out: &mut Vec<(Tuple, f64)>,
) -> Result<(), RuntimeError> {
    let result = eval_with_scratch(&stmt.rhs, src, bindings, scratch)?;
    if result.is_empty() {
        return Ok(());
    }
    let key_sources = resolve_key_sources(stmt, bindings, result.schema())?;
    for (row, mult) in result.iter() {
        let key: Tuple = key_sources
            .iter()
            .map(|s| match s {
                Ok(v) => v.clone(),
                Err(i) => row[*i].clone(),
            })
            .collect();
        out.push((key, mult));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_agca::Expr;
    use dbtoaster_compiler::{compile, CompileMode, CompileOptions, QuerySpec, RelationMeta};

    fn catalog() -> Catalog {
        [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect()
    }

    fn example1_query() -> QuerySpec {
        // Q = Sum[]( R(a,b) * S(c,d) ): count of the cross product (Example 1).
        QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([Expr::rel("R", ["a", "b"]), Expr::rel("S", ["c", "d"])]),
            ),
        }
    }

    fn long_tuple(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::long(v)).collect()
    }

    fn run_example1(mode: CompileMode) -> f64 {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(mode),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        engine.init_static_views().unwrap();
        // ||R|| = 2, ||S|| = 3 as in the paper's example table, then the insert sequence
        // S, R, S, S.
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[2, 2])),
            UpdateEvent::insert("S", long_tuple(&[1, 10])),
            UpdateEvent::insert("S", long_tuple(&[2, 20])),
            UpdateEvent::insert("S", long_tuple(&[3, 30])),
            UpdateEvent::insert("S", long_tuple(&[4, 40])),
            UpdateEvent::insert("R", long_tuple(&[3, 3])),
            UpdateEvent::insert("S", long_tuple(&[5, 50])),
            UpdateEvent::insert("S", long_tuple(&[6, 60])),
        ];
        engine.process_all(&events).unwrap();
        engine.result("Q").unwrap().scalar_value()
    }

    #[test]
    fn example1_sequence_matches_paper_table() {
        // After the full sequence: ||R|| = 3, ||S|| = 6, so Q = 18 (paper, time point 4).
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            assert_eq!(run_example1(mode), 18.0, "mode {mode}");
        }
    }

    #[test]
    fn deletions_are_handled() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        engine
            .process_all(&[
                UpdateEvent::insert("R", long_tuple(&[1, 1])),
                UpdateEvent::insert("S", long_tuple(&[7, 7])),
                UpdateEvent::insert("S", long_tuple(&[8, 8])),
                UpdateEvent::delete("S", long_tuple(&[7, 7])),
            ])
            .unwrap();
        assert_eq!(engine.result("Q").unwrap().scalar_value(), 1.0);
        assert_eq!(engine.stats().events, 4);
    }

    #[test]
    fn unknown_query_errors() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let engine = Engine::new(program, &catalog());
        assert!(matches!(
            engine.result("Nope"),
            Err(RuntimeError::UnknownQuery(_))
        ));
    }

    #[test]
    fn event_arity_mismatch_detected() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let err = engine
            .process(&UpdateEvent::insert("R", long_tuple(&[1])))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::EventArityMismatch { .. }));
        // A failed single event is not counted as applied.
        assert_eq!(engine.stats().events, 0);
    }

    #[test]
    fn stats_and_memory_accumulate() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let before = engine.memory_bytes();
        engine
            .process(&UpdateEvent::insert("R", long_tuple(&[1, 2])))
            .unwrap();
        assert!(engine.memory_bytes() >= before);
        let sample = engine.sample(0.5);
        assert_eq!(sample.fraction, 0.5);
        assert_eq!(engine.stats().events, 1);
        assert_eq!(engine.stats().delta_batches, 1);
        assert!(engine.total_entries() >= 1);
    }

    #[test]
    fn batch_processing_matches_per_event() {
        // The same stream (with a cancelling pair and a duplicate key) through
        // the per-event path and one big batch must land on identical views.
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[1, 1])), // duplicate key
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
            UpdateEvent::insert("S", long_tuple(&[8, 8])),
            UpdateEvent::delete("S", long_tuple(&[7, 7])), // cancels within batch
            UpdateEvent::insert("R", long_tuple(&[2, 5])),
        ];
        for mode in [
            CompileMode::HigherOrder,
            CompileMode::FirstOrder,
            CompileMode::NaiveViewlet,
            CompileMode::Reevaluate,
        ] {
            let program = compile(
                &[example1_query()],
                &catalog(),
                &CompileOptions::for_mode(mode),
            )
            .unwrap();
            let mut per_event = Engine::new(program.clone(), &catalog());
            per_event.process_all(&events).unwrap();

            let mut batched = Engine::new(program, &catalog());
            let batch = DeltaBatch::from_events(&events);
            let report = batched.process_batch(&batch);
            assert!(report.first_error.is_none(), "mode {mode}");
            assert_eq!(report.events, 6);
            assert_eq!(batched.stats().events, 6, "mode {mode}");
            assert!(
                batched.stats().batch_events_collapsed >= 2,
                "cancelling pair must be collapsed (mode {mode})"
            );
            assert_eq!(
                per_event.result("Q").unwrap().scalar_value(),
                batched.result("Q").unwrap().scalar_value(),
                "mode {mode}"
            );
            for name in per_event.db.names() {
                let a = per_event.view(name).unwrap();
                let b = batched.view(name).expect("same view set");
                assert!(a.equivalent(&b, 0.0), "view {name} differs in {mode}");
            }
        }
    }

    #[test]
    fn poison_event_mid_batch_keeps_its_slot_and_the_rest_applies() {
        let program = compile(
            &[example1_query()],
            &catalog(),
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap();
        let mut engine = Engine::new(program, &catalog());
        let events = vec![
            UpdateEvent::insert("R", long_tuple(&[1, 1])),
            UpdateEvent::insert("R", long_tuple(&[9])), // arity mismatch: its own run
            UpdateEvent::insert("S", long_tuple(&[7, 7])),
        ];
        let batch = DeltaBatch::from_events(&events);
        let report = engine.process_batch(&batch);
        assert_eq!(report.events, 3);
        assert_eq!(report.failed_events, 1);
        assert!(matches!(
            report.first_error,
            Some(RuntimeError::EventArityMismatch { .. })
        ));
        // The good events around the poison one are fully applied.
        assert_eq!(engine.stats().events, 2);
        assert_eq!(engine.result("Q").unwrap().scalar_value(), 1.0);
    }
}
