//! Range sums over ordered aggregate indexes must never show in a result.
//!
//! vwap, psp, axf and mst nest aggregates under inequality predicates; their
//! compiled kernels answer those sub-aggregates with `range-sum` operators,
//! which the runtime store serves from persistent ordered aggregate indexes.
//! The index answers only when its sum is bit-identical to the traversal it
//! replaces, so these tests compare with `f64::to_bits`, not a tolerance:
//!
//! * a proptest over random finance-like insert/delete streams with
//!   integer-valued prices and volumes drawn from small domains (so price
//!   levels fill, cancel to zero and are removed), processed per event and in
//!   random batches, against a from-scratch recompute oracle;
//! * a stream of dyadic fractions (exact in any summation order, but not
//!   integers), which the indexes must refuse — every query records range-sum
//!   bails — while the results still match the oracle bit for bit;
//! * work counts read through EXPLAIN ANALYZE on 1,000 seeded finance events,
//!   pinning the asymptotic win (vwap's `:=` scans, psp's zero scans, axf's
//!   range-sum hits on one-event batches), and a check that the dashboard
//!   queries never reach an ordered index.

use dbtoaster::compiler::ViewStats;
use dbtoaster::prelude::*;
use dbtoaster::workloads;
use proptest::prelude::*;

const QUERIES: [&str; 4] = ["vwap", "psp", "axf", "mst"];

fn engine(name: &str, mode: CompileMode) -> QueryEngine {
    let q = workloads::query(name).unwrap_or_else(|| panic!("unknown query {name}"));
    QueryEngineBuilder::new(workloads::full_catalog())
        .add_query(q.name, q.sql)
        .mode(mode)
        .build()
        .unwrap_or_else(|e| panic!("{name} [{mode}]: build failed: {e}"))
}

/// Ground truth independent of the incremental machinery: re-evaluation on
/// the interpreter over the whole stream as one batch recomputes the query
/// from the final relation state.
fn recompute(name: &str, events: &[UpdateEvent]) -> Gmr {
    let mut oracle = engine(name, CompileMode::Reevaluate);
    oracle.set_force_interpreter(true);
    let report = oracle.process_batch(&DeltaBatch::from_events(events));
    assert!(report.first_error.is_none(), "{:?}", report.first_error);
    oracle.view(name).unwrap()
}

/// Every key of either view must carry the same bits (absent reads as `0.0`).
fn assert_bits_equal(context: &str, got: &Gmr, want: &Gmr) {
    for (key, _) in got.iter().chain(want.iter()) {
        let (g, w) = (got.get(key), want.get(key));
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}: key {key:?}: {g} vs recompute {w}"
        );
    }
}

/// Tiny deterministic LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// A finance-like order stream over `Bids`/`Asks`. Prices come from 13
/// levels 250 apart (so axf's 1000-wide bands split them), volumes from a
/// skewed set (so psp's `volume > 0.0001 * total` threshold splits them);
/// `scale` multiplies both, and a third of the events delete a live order.
fn stream(seed: u64, len: usize, scale: f64) -> Vec<UpdateEvent> {
    const VOLUMES: [f64; 7] = [1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 5000.0];
    let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let mut live: Vec<(&'static str, Vec<Value>)> = Vec::new();
    let mut out = Vec::with_capacity(len);
    for t in 0..len as i64 {
        if !live.is_empty() && rng.next(3) == 0 {
            let (rel, tuple) = live.swap_remove(rng.next(live.len() as u64) as usize);
            out.push(UpdateEvent::delete(rel, tuple));
            continue;
        }
        let rel = if rng.next(2) == 0 { "Bids" } else { "Asks" };
        let price = (10_000.0 + 250.0 * (rng.next(13) as f64 - 6.0)) * scale;
        let volume = VOLUMES[rng.next(VOLUMES.len() as u64) as usize] * scale;
        let tuple = vec![
            Value::long(t),
            Value::long(t),
            Value::long(rng.next(3) as i64),
            Value::double(price),
            Value::double(volume),
        ];
        live.push((rel, tuple.clone()));
        out.push(UpdateEvent::insert(rel, tuple));
    }
    out
}

/// Total range-sum hits and bails across every view, read from telemetry.
fn range_sum_counts(engine: &mut QueryEngine) -> (u64, u64) {
    engine.flush_telemetry();
    let snap = engine.telemetry().expect("telemetry attached").snapshot();
    snap.views.iter().fold((0, 0), |(h, b), v| {
        (h + v.range_sum_hits, b + v.range_sum_bails)
    })
}

/// Run `name` over `events` per event and in random batches; both must equal
/// the recompute oracle bit for bit. Returns the per-event run's range-sum
/// `(hits, bails)`.
fn check(name: &str, seed: u64, events: &[UpdateEvent]) -> (u64, u64) {
    let truth = recompute(name, events);
    let mut per_event = engine(name, CompileMode::HigherOrder);
    per_event.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
    per_event
        .process_all(events)
        .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
    assert_bits_equal(
        &format!("{name} seed {seed} per-event"),
        &per_event.view(name).unwrap(),
        &truth,
    );

    let mut batched = engine(name, CompileMode::HigherOrder);
    let mut rng = Lcg(seed ^ 0x5151);
    let mut rest = events;
    while !rest.is_empty() {
        let n = (1 + rng.next(40) as usize).min(rest.len());
        let report = batched.process_batch(&DeltaBatch::from_events(&rest[..n]));
        assert!(report.first_error.is_none(), "{:?}", report.first_error);
        rest = &rest[n..];
    }
    assert_bits_equal(
        &format!("{name} seed {seed} batched"),
        &batched.view(name).unwrap(),
        &truth,
    );
    range_sum_counts(&mut per_event)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Integer-valued streams: the indexes answer, and results stay exact.
    #[test]
    fn integer_streams_match_recompute_bit_for_bit(seed in 0u32..1_000_000) {
        let events = stream(seed as u64, 160, 1.0);
        for name in QUERIES {
            let (hits, bails) = check(name, seed as u64, &events);
            prop_assert!(hits > 0, "{} seed {}: no range sum was answered", name, seed);
            prop_assert_eq!(bails, 0, "{} seed {}: integral state bailed", name, seed);
        }
    }
}

/// Dyadic fractions sum exactly in any order, so the oracle comparison stays
/// bit-exact, but they are not integers: every query's indexes must refuse
/// and fall back to the traversal.
#[test]
fn fractional_streams_fall_back_and_still_match() {
    for seed in [3u64, 17] {
        let events = stream(seed, 160, 0.25);
        for name in QUERIES {
            let (_, bails) = check(name, seed, &events);
            assert!(
                bails > 0,
                "{name} seed {seed}: fractional state never bailed"
            );
        }
    }
}

/// EXPLAIN ANALYZE after `events` seeded finance events, one event per batch.
fn explain_after(name: &str, events: usize) -> ProgramExplain {
    let data = workloads::finance::generate(&workloads::FinanceConfig {
        events,
        seed: 42,
        ..Default::default()
    });
    let mut engine = engine(name, CompileMode::HigherOrder);
    engine.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
    for e in &data.events {
        engine.process(e).unwrap();
    }
    engine.explain()
}

/// The analyzed counters of the `:=` statements of a query's result view.
fn replace_stats(ex: &ProgramExplain, target: &str) -> ViewStats {
    ex.relations
        .iter()
        .flat_map(|r| r.triggers.iter())
        .flat_map(|t| t.statements.iter())
        .find(|s| s.target == target && s.op == ":=")
        .and_then(|s| s.analyze)
        .unwrap_or_else(|| panic!("{target}: no analyzed := statement"))
}

fn plan_lines(ex: &ProgramExplain) -> impl Iterator<Item = &String> {
    ex.relations
        .iter()
        .flat_map(|r| r.triggers.iter())
        .flat_map(|t| t.statements.iter())
        .flat_map(|s| s.plan.iter().chain(s.prelude.iter()))
}

#[test]
fn explain_analyze_work_counts_on_seeded_finance_events() {
    // Before ordered indexes vwap's `:=` statement scanned 9,667,668 entries
    // over these events: every outer price level rescanned m_vwap_2.
    let vwap = explain_after("vwap", 1000);
    let stats = replace_stats(&vwap, "vwap");
    assert!(
        stats.entries_scanned * 20 <= 9_667_668,
        "vwap := scanned {} entries",
        stats.entries_scanned
    );
    assert!(stats.range_sum_hits > 0 && stats.range_sum_bails == 0);
    assert!(plan_lines(&vwap).any(|l| l.contains("range-sum m_vwap_2[>$5]")));

    // psp's four threshold sums are range sums behind hoisted lifts.
    let psp = replace_stats(&explain_after("psp", 1000), "psp");
    assert_eq!(psp.scans, 0, "psp := scanned {psp:?}");
    assert_eq!(psp.entries_scanned, 0);

    // axf's price bands hit the index with one-event batches.
    let axf = explain_after("axf", 1000);
    let hits: u64 = axf
        .relations
        .iter()
        .flat_map(|r| r.triggers.iter())
        .flat_map(|t| t.statements.iter())
        .filter(|s| s.target == "axf")
        .filter_map(|s| s.analyze)
        .map(|a| a.range_sum_hits)
        .max()
        .unwrap_or(0);
    assert!(hits > 0, "axf recorded no range-sum hits");
}

#[test]
fn dashboard_queries_never_build_an_ordered_index() {
    // No q1/q3/q6/q10 statement filters a scanned key, so none lowers to a
    // range sum — and the store builds an ordered index only when asked one.
    for name in ["q1", "q3", "q6", "q10"] {
        let q = workloads::query(name).unwrap();
        let mut e = engine(name, CompileMode::HigherOrder);
        e.set_telemetry(Telemetry::with_config(TelemetryConfig::default()));
        let data = workloads::tpch::generate(&workloads::TpchConfig::scaled(0.002, 7));
        for (table, rows) in &data.tables {
            e.load_table(table, rows.clone()).unwrap();
        }
        e.init().unwrap();
        e.process_all(&data.events[..data.events.len().min(2000)])
            .unwrap();
        let ex = e.explain();
        assert!(
            !plan_lines(&ex).any(|l| l.contains("range-sum")),
            "{}: unexpected range-sum plan",
            q.name
        );
        assert_eq!(range_sum_counts(&mut e), (0, 0), "{}", q.name);
    }
}
