//! EXPLAIN golden tests over the full workload suite.
//!
//! For every workload query the rendered EXPLAIN must tell the truth about
//! execution: each live [`BatchReport`] run record's strategy must agree with
//! the strategy EXPLAIN printed for that relation. One legitimate divergence
//! is allowed — a relation explained as `batch-delta` may execute a specific
//! run entry-major, because the runtime cost gate (correction-firing count vs
//! observed map sizes) decides per batch; the reverse (EXPLAIN claiming a
//! cheaper strategy than what ran) is a bug.
//!
//! vwap's inner `Sum(m_vwap_2(p2) * (p2 > p1))` must render as an
//! ordered-index `range-sum`. The JSON form must round-trip through
//! [`ProgramExplain::parse_json`], and the explained strategy must follow
//! `DBTOASTER_FORCE_BATCH_STRATEGY`
//! overrides exactly as the live dispatch does — all in one test function
//! because the override is process-global state.

use dbtoaster::prelude::*;
use dbtoaster::workloads;
use dbtoaster_bench::{build_engine, dataset_for};

const EVENTS: usize = 400;
const SEED: u64 = 7;
const CHUNK: usize = 32;

/// Replay a query's stream in multi-event delta batches, returning every run
/// record plus the engine for explaining.
fn run_batched(q: &workloads::WorkloadQuery) -> (QueryEngine, Vec<(String, BatchStrategy)>) {
    let data = dataset_for(q.family, EVENTS, SEED);
    let mut engine = build_engine(q, CompileMode::HigherOrder, &data);
    engine.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
    engine.set_run_recording(true);
    let mut runs = Vec::new();
    for chunk in data.events.chunks(CHUNK) {
        let batch = DeltaBatch::from_events(chunk);
        let report = engine.process_batch(&batch);
        assert_eq!(
            report.failed_events, 0,
            "{}: {:?}",
            q.name, report.first_error
        );
        runs.extend(report.runs.iter().map(|r| (r.relation.clone(), r.strategy)));
    }
    (engine, runs)
}

fn check_query(q: &workloads::WorkloadQuery, forced: Option<BatchStrategy>) {
    let (mut engine, runs) = run_batched(q);
    assert!(!runs.is_empty(), "{}: no batch runs recorded", q.name);
    let ex = engine.explain();
    assert_eq!(
        ex.forced.as_deref(),
        forced.map(|f| f.as_str()),
        "{}: explained override disagrees with the environment",
        q.name
    );
    for (relation, live) in &runs {
        let rel = ex
            .relations
            .iter()
            .find(|r| &r.relation == relation)
            .unwrap_or_else(|| panic!("{}: relation {relation} ran but is not explained", q.name));
        assert!(
            !rel.reason.is_empty(),
            "{}: {relation} has no strategy reason",
            q.name
        );
        let explained = rel.strategy.as_str();
        let agrees = match live {
            BatchStrategy::BatchDelta => explained == "batch-delta",
            BatchStrategy::StatementMajor => explained == "statement-major",
            // A batch-delta relation may fall back to entry-major per batch
            // (the runtime cost gate); entry-major dispatch always runs so.
            BatchStrategy::EntryMajor => explained == "entry-major" || explained == "batch-delta",
        };
        assert!(
            agrees,
            "{}: relation {relation} explained as {explained} but ran {}",
            q.name,
            live.as_str()
        );
    }
    // Inequality-correlated sub-aggregates render as ordered-index range
    // sums, and ANALYZE reports their hits and bails.
    let text = ex.render_text();
    assert!(
        text.contains("range_sum="),
        "{}: no range_sum counters",
        q.name
    );
    if q.name == "vwap" {
        assert!(
            text.contains("range-sum m_vwap_2[>$5]"),
            "vwap: inner sum is not a range sum:\n{text}"
        );
    }
    // The JSON form round-trips structurally.
    let json = ex.render_json();
    let parsed = ProgramExplain::parse_json(&json)
        .unwrap_or_else(|| panic!("{}: unparseable explain JSON", q.name));
    assert_eq!(
        parsed, ex,
        "{}: explain JSON round-trip changed the tree",
        q.name
    );
}

/// One test function on purpose: `DBTOASTER_FORCE_BATCH_STRATEGY` is process
/// state, and tests within a binary run concurrently.
#[test]
fn explained_strategies_match_live_batch_runs_across_overrides() {
    let queries = workloads::all_queries();
    assert!(queries.len() >= 15, "workload suite shrank?");

    // Default dispatch: batch-delta where derived.
    std::env::remove_var(dbtoaster::runtime::FORCE_BATCH_STRATEGY_ENV);
    for q in &queries {
        check_query(q, None);
    }

    // Forced overrides must show up identically in EXPLAIN and in the runs.
    // (A spot-check subset keeps the test inside a reasonable budget.)
    for (name, forced) in [
        ("entry", BatchStrategy::EntryMajor),
        ("statement", BatchStrategy::StatementMajor),
    ] {
        std::env::set_var(dbtoaster::runtime::FORCE_BATCH_STRATEGY_ENV, name);
        for q in queries
            .iter()
            .filter(|q| ["q1", "q3", "axf", "bsv", "vwap", "mddb1"].contains(&q.name))
        {
            check_query(q, Some(forced));
        }
    }
    std::env::remove_var(dbtoaster::runtime::FORCE_BATCH_STRATEGY_ENV);
}
