//! Structural tests of the compiled programs for the worked examples of Section 6.
//!
//! These tests pin the *shape* of the generated trigger programs (which maps exist, how
//! they are keyed, which statements are constant-time) rather than their runtime
//! behaviour, mirroring the discussion of Figures 3 and 4 in the paper — plus one
//! behavioural check of the SQL-translated q18a program, event by event, against
//! re-evaluation.

use dbtoaster_agca::{AtomKind, Expr, UpdateSign};
use dbtoaster_compiler::*;
use dbtoaster_sql::{parse_query, translate, SqlCatalog, TableDef};

fn catalog() -> Catalog {
    [
        RelationMeta::stream("C", ["CK"]),
        RelationMeta::stream("O", ["CK", "OK"]),
        RelationMeta::stream("LI", ["OK", "QTY"]),
        RelationMeta::stream("R", ["A", "B"]),
        RelationMeta::stream("S", ["B", "C"]),
        RelationMeta::stream("T", ["C", "D"]),
    ]
    .into_iter()
    .collect()
}

/// Example 10: Q = Sum[](R(A,B) * S(B,C) * T(C,D)). The insertion trigger for S must
/// use two decomposed maps M1[b] and M2[c] rather than materializing R x T.
#[test]
fn example10_insert_trigger_uses_decomposed_maps() {
    let q = QuerySpec {
        name: "Q".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([
                Expr::rel("R", ["A", "B"]),
                Expr::rel("S", ["B", "C"]),
                Expr::rel("T", ["C", "D"]),
            ]),
        ),
    };
    let prog = compile(&[q], &catalog(), &CompileOptions::default()).unwrap();
    let s_trigger = prog.trigger("S", UpdateSign::Insert).unwrap();
    let q_stmt = s_trigger
        .statements
        .iter()
        .find(|s| s.target == "Q")
        .expect("Q must be updated on S insertions");
    // The statement reads two distinct single-column views (count of R grouped by B and
    // count of T grouped by C), not one big two-column view.
    let views: Vec<String> = q_stmt.reads().into_iter().collect();
    assert_eq!(views.len(), 2, "{q_stmt}");
    for v in &views {
        let decl = prog.map(v).unwrap();
        assert_eq!(
            decl.out_vars.len(),
            1,
            "decomposed map {v} must have one key column"
        );
    }
    assert!(prog.report.used_decomposition);
}

/// Section 6.1 (simplified Q18): the nested aggregate over Lineitem is equality
/// correlated, so the compiled program maintains a per-order quantity sum and never
/// re-evaluates the top-level query.
#[test]
fn q18a_style_program_shape() {
    // Q[CK] = Sum[CK]( C(CK) * O(CK,OK) * LI(OK,QTY) * QTY * (x := Sum[OK](LI(OK,Q2)*Q2)) * (100 < x) )
    let nested = Expr::agg_sum(
        ["OK"],
        Expr::product_of([Expr::rel("LI", ["OK", "Q2"]), Expr::var("Q2")]),
    );
    let q = QuerySpec {
        name: "Q18".into(),
        out_vars: vec!["CK".into()],
        expr: Expr::agg_sum(
            ["CK"],
            Expr::product_of([
                Expr::rel("C", ["CK"]),
                Expr::rel("O", ["CK", "OK"]),
                Expr::rel("LI", ["OK", "QTY"]),
                Expr::var("QTY"),
                Expr::lift("x", nested),
                Expr::cmp(dbtoaster_agca::CmpOp::Lt, Expr::val(100), Expr::var("x")),
            ]),
        ),
    };
    let prog = compile(&[q], &catalog(), &CompileOptions::default()).unwrap();
    assert!(!prog.report.used_reevaluation, "{prog}");
    assert!(prog.report.used_incremental_nested);
    // A per-order quantity aggregate (the paper's Q_O2 map) must exist: a single-key map
    // over LI whose definition aggregates the quantity column.
    assert!(
        prog.maps.iter().any(|m| {
            m.out_vars.len() == 1
                && m.definition.references_relation("LI")
                && !m.definition.references_relation("O")
                && !m.definition.references_relation("C")
        }),
        "expected a per-order Lineitem aggregate map:\n{prog}"
    );
    // Every map definition is closed: no unbound input variables.
    for m in &prog.maps {
        let inputs = dbtoaster_agca::input_vars(&m.definition);
        let foreign: Vec<_> = inputs.iter().filter(|v| !m.out_vars.contains(v)).collect();
        assert!(
            foreign.is_empty(),
            "map {} has unbound input variables {foreign:?}: {}",
            m.name,
            m.definition
        );
    }
}

/// Statements never read views that do not exist, and every key variable of a statement
/// is either a trigger variable or produced by its right-hand side — the static
/// well-formedness invariants the runtime relies on.
#[test]
fn compiled_programs_are_well_formed() {
    let queries = [
        QuerySpec {
            name: "QA".into(),
            out_vars: vec!["B".into()],
            expr: Expr::agg_sum(
                ["B"],
                Expr::product_of([Expr::rel("R", ["A", "B"]), Expr::var("A")]),
            ),
        },
        QuerySpec {
            name: "QB".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["A", "B"]),
                    Expr::rel("S", ["B", "C"]),
                    Expr::cmp(dbtoaster_agca::CmpOp::Lt, Expr::var("A"), Expr::var("C")),
                ]),
            ),
        },
    ];
    for mode in [
        CompileMode::HigherOrder,
        CompileMode::FirstOrder,
        CompileMode::NaiveViewlet,
        CompileMode::Reevaluate,
    ] {
        let prog = compile(&queries, &catalog(), &CompileOptions::for_mode(mode)).unwrap();
        let map_names: Vec<&str> = prog.maps.iter().map(|m| m.name.as_str()).collect();
        for t in &prog.triggers {
            for s in &t.statements {
                assert!(
                    map_names.contains(&s.target.as_str()),
                    "unknown target in {s}"
                );
                for read in s.reads() {
                    assert!(
                        map_names.contains(&read.as_str()),
                        "unknown view {read} in {s}"
                    );
                }
                for kv in &s.key_vars {
                    let bound = t.trigger_vars.contains(kv);
                    let looped = s.loop_vars.contains(kv);
                    assert!(
                        bound || looped,
                        "[{mode}] key variable {kv} of {s} is neither bound nor looped"
                    );
                }
            }
        }
        // View atoms never appear in map definitions (definitions are over base tables).
        for m in &prog.maps {
            assert!(
                !m.definition.contains_atom_kind(AtomKind::View),
                "map {} definition references another view: {}",
                m.name,
                m.definition
            );
        }
    }
}

/// The TPC-H tables q18a reads, as the SQL front end sees them.
fn tpch_sql_catalog() -> SqlCatalog {
    [
        TableDef::stream(
            "Customer",
            ["custkey", "nationkey", "mktsegment", "acctbal"],
        ),
        TableDef::stream(
            "Orders",
            [
                "orderkey",
                "custkey",
                "orderdate",
                "orderpriority",
                "totalprice",
            ],
        ),
        TableDef::stream(
            "Lineitem",
            [
                "orderkey",
                "partkey",
                "suppkey",
                "quantity",
                "extendedprice",
                "discount",
                "shipdate",
                "returnflag",
            ],
        ),
    ]
    .into_iter()
    .collect()
}

/// The compiler-side catalog of a SQL catalog.
fn compiler_catalog(c: &SqlCatalog) -> Catalog {
    c.tables()
        .iter()
        .map(|t| RelationMeta {
            name: t.name.clone(),
            columns: t.columns.clone(),
            kind: if t.is_stream {
                dbtoaster_agca::AtomKind::Stream
            } else {
                dbtoaster_agca::AtomKind::Table
            },
        })
        .collect()
}

/// q18a's nested `SUM(l3.quantity)` threshold crosses and re-crosses 100 as
/// line items arrive and leave; Higher-Order IVM must agree with re-evaluation
/// after every event.
#[test]
fn q18a_step_by_step_against_reevaluation() {
    use dbtoaster_agca::UpdateEvent;
    use dbtoaster_gmr::Value;
    use dbtoaster_runtime::Engine;

    let sqlcat = tpch_sql_catalog();
    let sql = "SELECT c.custkey, SUM(l1.quantity) AS query18a \
               FROM Customer c, Orders o, Lineitem l1 \
               WHERE 100 < (SELECT SUM(l3.quantity) FROM Lineitem l3 WHERE l1.orderkey = l3.orderkey) \
               AND c.custkey = o.custkey AND o.orderkey = l1.orderkey \
               GROUP BY c.custkey";
    let parsed = parse_query(sql).unwrap();
    let plan = translate("q18a", &parsed, &sqlcat).unwrap();
    let specs: Vec<QuerySpec> = plan
        .views
        .iter()
        .map(|v| QuerySpec {
            name: v.name.clone(),
            out_vars: v.out_vars.clone(),
            expr: v.expr.clone(),
        })
        .collect();
    let cat = compiler_catalog(&sqlcat);
    let ho = compile(
        &specs,
        &cat,
        &CompileOptions::for_mode(CompileMode::HigherOrder),
    )
    .unwrap();
    let rep = compile(
        &specs,
        &cat,
        &CompileOptions::for_mode(CompileMode::Reevaluate),
    )
    .unwrap();
    let mut e_ho = Engine::new(ho, &cat);
    let mut e_rep = Engine::new(rep, &cat);

    let cust = |ck: i64| {
        UpdateEvent::insert(
            "Customer",
            vec![
                Value::long(ck),
                Value::long(0),
                Value::str("B"),
                Value::double(1.0),
            ],
        )
    };
    let ord = |ok: i64, ck: i64| {
        UpdateEvent::insert(
            "Orders",
            vec![
                Value::long(ok),
                Value::long(ck),
                Value::long(19950101),
                Value::str("1-URGENT"),
                Value::double(1.0),
            ],
        )
    };
    let li = |ok: i64, qty: i64| {
        UpdateEvent::insert(
            "Lineitem",
            vec![
                Value::long(ok),
                Value::long(1),
                Value::long(1),
                Value::long(qty),
                Value::double(1.0),
                Value::double(0.0),
                Value::long(19950101),
                Value::str("N"),
            ],
        )
    };
    let li_del = |ok: i64, qty: i64| {
        UpdateEvent::delete(
            "Lineitem",
            vec![
                Value::long(ok),
                Value::long(1),
                Value::long(1),
                Value::long(qty),
                Value::double(1.0),
                Value::double(0.0),
                Value::long(19950101),
                Value::str("N"),
            ],
        )
    };

    let events = vec![
        cust(1),
        cust(2),
        ord(10, 1),
        ord(20, 2),
        li(10, 60),
        li(10, 30),     // order 10 total 90 (below threshold)
        li(20, 150),    // order 20 total 150 (above)
        li(10, 50),     // order 10 now 140 (crosses threshold)
        li_del(10, 60), // order 10 back to 80 (drops below)
        li(20, 10),     // order 20 total 160
    ];
    for (i, ev) in events.iter().enumerate() {
        e_ho.process(ev).unwrap();
        e_rep.process(ev).unwrap();
        let a = e_ho.result("q18a").unwrap();
        let b = e_rep.result("q18a").unwrap();
        assert!(
            a.equivalent(&b, 1e-6),
            "divergence after event {i} ({ev:?}):\nHO:\n{a}\nREP:\n{b}"
        );
    }
}
