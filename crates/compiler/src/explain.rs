//! EXPLAIN / EXPLAIN ANALYZE for compiled trigger programs.
//!
//! Higher-order delta compilation turns a query into opaque flat trigger
//! kernels; this module renders them back into an operator tree an operator
//! can read. Per relation it reports the [`BatchStrategy`] a multi-entry
//! delta batch will use **and why** — whether second-order batch-delta
//! derivation succeeded or which eligibility gate bailed
//! ([`BatchDeltaBail`](crate::program::BatchDeltaBail)), and which
//! statement-major rule failed
//! ([`StatementMajorBlock`](crate::program::StatementMajorBlock)) — and per
//! statement the compiled plan: probes
//! vs scans vs range sums, product order, fused-prelude signatures and slot
//! assignments, straight from [`dbtoaster_agca::plan`].
//!
//! The same tree doubles as **EXPLAIN ANALYZE**: callers with a live engine
//! attach per-target-view counters ([`ViewStats`] — rows written, probes,
//! scans, entries scanned, fused prelude scans, range-sum hits/bails,
//! correction firings, current map size) via
//! [`ProgramExplain::attach_stats`]. Both a text rendering and a
//! dependency-free JSON form (round-trippable through
//! [`ProgramExplain::parse_json`]) are provided; the server's `/explain`
//! endpoint serves both.

use crate::program::{BatchStrategy, StmtOp, Trigger, TriggerProgram};
use dbtoaster_agca::plan::{FastOp, FusedScan, NumExpr, Op, RangeBound, Scalar};
use dbtoaster_agca::UpdateSign;
use std::fmt::Write as _;

/// Live per-view kernel counters joined into the tree for EXPLAIN ANALYZE.
/// All counts are cumulative since engine start; `map_size` is the current
/// entry count of the target map.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Rows written to the view by trigger statements.
    pub rows_written: u64,
    /// Fully bound index probes executed by kernels targeting the view.
    pub probes: u64,
    /// Full scans executed (plan scans plus fused-prelude traversals).
    pub scans: u64,
    /// Entries visited by those scans.
    pub entries_scanned: u64,
    /// Fused prelude traversals.
    pub fused_scans: u64,
    /// Range sums answered by an ordered aggregate index.
    pub range_sum_hits: u64,
    /// Range sums that fell back to a traversal.
    pub range_sum_bails: u64,
    /// Second-order batch-correction statement firings.
    pub correction_firings: u64,
    /// Current number of entries in the map.
    pub map_size: u64,
}

/// One explained trigger statement: its source text, compilation status,
/// fused-prelude signatures, rendered plan tree, and (after
/// [`ProgramExplain::attach_stats`]) the live counters of its target view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StmtExplain {
    /// The statement, as the trigger program prints it.
    pub statement: String,
    /// Target map name (the ANALYZE attribution key).
    pub target: String,
    /// `+=` or `:=`.
    pub op: String,
    /// Did the statement lower to a compiled kernel (`false` = interpreted)?
    pub compiled: bool,
    /// One line per hoisted fused-prelude scan.
    pub prelude: Vec<String>,
    /// The plan tree, one indented line per operator.
    pub plan: Vec<String>,
    /// Live counters of the target view (EXPLAIN ANALYZE only).
    pub analyze: Option<ViewStats>,
}

/// The explained statements of one `(relation, sign)` trigger.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriggerExplain {
    /// `"insert"` or `"delete"`.
    pub sign: String,
    /// Statements in execution order.
    pub statements: Vec<StmtExplain>,
}

/// The batch execution story of one stream relation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RelationExplain {
    /// The stream relation.
    pub relation: String,
    /// The chosen [`BatchStrategy`], as its stable lowercase name.
    pub strategy: String,
    /// Why that strategy was chosen (derivation success, the exact bail gate,
    /// the failed statement-major rule, or the forced override).
    pub reason: String,
    /// The shardability verdict for the relation (see
    /// [`crate::shard::analyze_sharding`]): `shard-local (...)` or
    /// `exchanges deltas: ...`, in the same stable style as `reason`.
    pub shard: String,
    /// Sign triggers present for the relation.
    pub triggers: Vec<TriggerExplain>,
    /// Second-order batch-correction statements, when batch-delta eligible.
    pub corrections: Vec<StmtExplain>,
}

/// A full EXPLAIN (or, with stats attached, EXPLAIN ANALYZE) of a compiled
/// trigger program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramExplain {
    /// The forced strategy override in effect, if any (the stable name).
    pub forced: Option<String>,
    /// Per-relation strategy, reason and plans.
    pub relations: Vec<RelationExplain>,
}

/// Explain `program` under an optional forced strategy override (the
/// `DBTOASTER_FORCE_BATCH_STRATEGY` resolution — pass the engine's forced
/// strategy so EXPLAIN reports exactly what the dispatch table holds).
pub fn explain(program: &TriggerProgram, force: Option<BatchStrategy>) -> ProgramExplain {
    let shard_plan = crate::shard::analyze_sharding(program);
    let relations = program
        .batch_dispatch_forced(force)
        .into_iter()
        .map(|d| {
            let triggers = [d.insert, d.delete]
                .into_iter()
                .flatten()
                .map(|i| explain_trigger(program, i))
                .collect();
            let corrections = program
                .batch_correction(&d.relation)
                .map(|c| {
                    c.statements
                        .iter()
                        .enumerate()
                        .map(|(j, s)| {
                            explain_statement(s, c.compiled.get(j).and_then(|k| k.as_ref()))
                        })
                        .collect()
                })
                .unwrap_or_default();
            RelationExplain {
                reason: strategy_reason(program, &d.relation, d.strategy, force),
                shard: shard_plan
                    .relation_plan(&d.relation)
                    .map(|r| r.reason.clone())
                    .unwrap_or_default(),
                relation: d.relation,
                strategy: d.strategy.as_str().to_string(),
                triggers,
                corrections,
            }
        })
        .collect();
    ProgramExplain {
        forced: force.map(|f| f.as_str().to_string()),
        relations,
    }
}

fn strategy_reason(
    program: &TriggerProgram,
    relation: &str,
    strategy: BatchStrategy,
    force: Option<BatchStrategy>,
) -> String {
    if force == Some(BatchStrategy::EntryMajor) {
        return "forced entry-major override".to_string();
    }
    let derivation = || match program.batch_correction(relation) {
        Some(c) if c.statements.is_empty() => {
            "second-order correction derived (all affected maps linear; no interaction terms)"
                .to_string()
        }
        Some(c) => format!(
            "second-order correction derived ({} interaction statements)",
            c.statements.len()
        ),
        None => match program
            .batch_delta_reason(relation)
            .and_then(|o| o.bail.as_ref())
        {
            Some(bail) => format!("batch-delta ineligible: {}", bail.describe()),
            None => "batch-delta correction not derived".to_string(),
        },
    };
    let rules = || match program.statement_major_block(relation) {
        None => "read-before-write analysis passed".to_string(),
        Some(block) => format!("statement-major illegal: {}", block.describe()),
    };
    match strategy {
        BatchStrategy::BatchDelta => derivation(),
        BatchStrategy::StatementMajor if force == Some(BatchStrategy::StatementMajor) => {
            format!("batch-delta disabled by forced override; {}", rules())
        }
        BatchStrategy::StatementMajor => format!("{}; {}", derivation(), rules()),
        BatchStrategy::EntryMajor => format!("{}; {}", derivation(), rules()),
    }
}

fn explain_trigger(program: &TriggerProgram, idx: usize) -> TriggerExplain {
    let t: &Trigger = &program.triggers[idx];
    let statements = t
        .statements
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let kernel = program
                .compiled
                .get(idx)
                .and_then(|c| c.stmts.get(j))
                .and_then(|k| k.as_ref());
            explain_statement(s, kernel)
        })
        .collect();
    TriggerExplain {
        sign: match t.sign {
            UpdateSign::Insert => "insert".to_string(),
            UpdateSign::Delete => "delete".to_string(),
        },
        statements,
    }
}

fn explain_statement(
    s: &crate::program::Statement,
    kernel: Option<&dbtoaster_agca::CompiledStmt>,
) -> StmtExplain {
    let (prelude, plan) = match kernel {
        Some(k) => {
            let prelude = k.prelude.iter().map(fused_scan_line).collect();
            let mut plan = Vec::new();
            push_op(&mut plan, 0, &k.plan);
            (prelude, plan)
        }
        None => (Vec::new(), vec!["<interpreted: AST evaluator>".to_string()]),
    };
    StmtExplain {
        statement: s.to_string(),
        target: s.target.clone(),
        op: match s.op {
            StmtOp::Increment => "+=".to_string(),
            StmtOp::Replace => ":=".to_string(),
        },
        compiled: kernel.is_some(),
        prelude,
        plan,
        analyze: None,
    }
}

// --- plan rendering --------------------------------------------------------

fn pattern_str(template: &[Option<u16>], binds: &[(u16, u16)]) -> String {
    let cells: Vec<String> = template
        .iter()
        .enumerate()
        .map(|(pos, cell)| match cell {
            Some(slot) => format!("=${slot}"),
            None => match binds.iter().find(|(p, _)| *p as usize == pos) {
                Some((_, slot)) => format!(">${slot}"),
                None => "_".to_string(),
            },
        })
        .collect();
    cells.join(", ")
}

fn num_str(n: &NumExpr) -> String {
    match n {
        NumExpr::Const(c) => format!("{c}"),
        NumExpr::Slot(s) => format!("${s}"),
        NumExpr::Neg(i) => format!("-({})", num_str(i)),
        NumExpr::Add(ts) => ts.iter().map(num_str).collect::<Vec<_>>().join(" + "),
        NumExpr::Mul(ts) => ts.iter().map(num_str).collect::<Vec<_>>().join(" * "),
    }
}

fn scalar_str(s: &Scalar) -> String {
    match s {
        Scalar::Const(v) => format!("{v}"),
        Scalar::Slot(slot) => format!("${slot}"),
        Scalar::Neg(i) => format!("-({})", scalar_str(i)),
        Scalar::Add(ts) => ts.iter().map(scalar_str).collect::<Vec<_>>().join(" + "),
        Scalar::Mul(ts) => ts.iter().map(scalar_str).collect::<Vec<_>>().join(" * "),
        Scalar::Apply(f, args) => format!(
            "{f}({})",
            args.iter().map(scalar_str).collect::<Vec<_>>().join(", ")
        ),
        Scalar::Cmp(op, l, r) => format!("({} {op} {})", scalar_str(l), scalar_str(r)),
        Scalar::SubSum(op) => format!("subsum({})", op_summary(op)),
    }
}

/// One-line summary of an op (used inside scalar positions).
fn op_summary(op: &Op) -> String {
    match op {
        Op::ConstMult(c) => format!("const ×{c}"),
        Op::SlotMult(s) => format!("slot ×${s}"),
        Op::ScalarMult(s) => format!("scalar ×{}", scalar_str(s)),
        Op::Probe { rel, template, .. } => format!(
            "probe {rel}[{}]",
            template
                .iter()
                .map(|s| format!("${s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Op::Scan {
            rel,
            template,
            binds,
            ..
        } => {
            format!("scan {rel}[{}]", pattern_str(template, binds))
        }
        Op::Product(ops) => format!("product({})", ops.len()),
        Op::Sum(ts) => format!("sum({})", ts.len()),
        Op::Neg(_) => "neg".to_string(),
        Op::AggSum(_) => "agg-sum".to_string(),
        Op::LiftBind { slot, value } => format!("lift ${slot} := {}", scalar_str(value)),
        Op::LiftEq { slot, value } => format!("lift-eq ${slot} == {}", scalar_str(value)),
        Op::CmpFilter { cmp, left, right } => {
            format!("filter {} {cmp} {}", scalar_str(left), scalar_str(right))
        }
        Op::RangeSum {
            rel,
            template,
            col,
            ranges,
            ..
        } => {
            let cells: Vec<String> = template
                .iter()
                .enumerate()
                .map(|(pos, cell)| match cell {
                    Some(slot) => format!("=${slot}"),
                    None if pos == *col as usize => ranges
                        .iter()
                        .map(|(cmp, b)| match b {
                            RangeBound::Value(s) => format!("{cmp}{}", scalar_str(s)),
                            RangeBound::Linear(n) => format!("{cmp}{}", num_str(n)),
                        })
                        .collect::<Vec<_>>()
                        .join(" & "),
                    None => "_".to_string(),
                })
                .collect();
            format!("range-sum {rel}[{}]", cells.join(", "))
        }
        Op::Exists { slots, .. } => format!(
            "exists key=[{}]",
            slots
                .iter()
                .map(|s| format!("${s}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Append the tree rendering of `op` (children indented two spaces per level).
fn push_op(lines: &mut Vec<String>, depth: usize, op: &Op) {
    let indent = "  ".repeat(depth);
    match op {
        Op::Product(ops) => {
            lines.push(format!("{indent}product"));
            for o in ops {
                push_op(lines, depth + 1, o);
            }
        }
        Op::Sum(ts) => {
            lines.push(format!("{indent}sum"));
            for t in ts {
                push_op(lines, depth + 1, t);
            }
        }
        Op::Neg(inner) => {
            lines.push(format!("{indent}neg"));
            push_op(lines, depth + 1, inner);
        }
        Op::AggSum(inner) => {
            lines.push(format!("{indent}agg-sum"));
            push_op(lines, depth + 1, inner);
        }
        Op::Exists { inner, .. } => {
            lines.push(format!("{indent}{}", op_summary(op)));
            push_op(lines, depth + 1, inner);
        }
        Op::Scan {
            rel,
            template,
            binds,
            eqs,
            ..
        } => {
            let eq_note = if eqs.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> = eqs.iter().map(|(a, b)| format!("t{a}==t{b}")).collect();
                format!(" where {}", pairs.join(", "))
            };
            lines.push(format!(
                "{indent}scan {rel}[{}]{eq_note}",
                pattern_str(template, binds)
            ));
        }
        other => {
            lines.push(format!("{indent}{}", op_summary(other)));
            // Sub-plans hidden inside scalar positions (decorrelated nested
            // aggregates) still deserve a subtree.
            for sub in scalar_subplans(other) {
                lines.push(format!("{indent}  subsum:"));
                push_op(lines, depth + 2, sub);
            }
        }
    }
}

/// The `SubSum` sub-plans reachable from an op's scalar positions.
fn scalar_subplans(op: &Op) -> Vec<&Op> {
    fn walk<'a>(s: &'a Scalar, out: &mut Vec<&'a Op>) {
        match s {
            Scalar::SubSum(op) => out.push(op),
            Scalar::Neg(i) => walk(i, out),
            Scalar::Add(ts) | Scalar::Mul(ts) | Scalar::Apply(_, ts) => {
                ts.iter().for_each(|t| walk(t, out))
            }
            Scalar::Cmp(_, l, r) => {
                walk(l, out);
                walk(r, out);
            }
            Scalar::Const(_) | Scalar::Slot(_) => {}
        }
    }
    let mut out = Vec::new();
    match op {
        Op::ScalarMult(s) | Op::LiftBind { value: s, .. } | Op::LiftEq { value: s, .. } => {
            walk(s, &mut out)
        }
        Op::CmpFilter { left, right, .. } => {
            walk(left, &mut out);
            walk(right, &mut out);
        }
        Op::RangeSum { ranges, .. } => {
            for (_, bound) in ranges {
                if let RangeBound::Value(s) = bound {
                    walk(s, &mut out);
                }
            }
        }
        _ => {}
    }
    out
}

fn fused_scan_line(fs: &FusedScan) -> String {
    let mut line = format!(
        "fused scan {}[{}] members={}",
        fs.rel,
        pattern_str(&fs.template, &fs.binds),
        fs.members.len()
    );
    if fs.entry_invariant {
        line.push_str(" entry-invariant");
    }
    for m in &fs.members {
        let _ = write!(line, "; →${}", m.dest);
        if let Some(fast) = &m.fast {
            let steps: Vec<String> = fast
                .iter()
                .map(|f| match f {
                    FastOp::Pred(cmp, l, r) => format!("{} {cmp} {}", num_str(l), num_str(r)),
                    FastOp::Weight(w) => format!("×{}", num_str(w)),
                })
                .collect();
            let _ = write!(line, " fast[{}]", steps.join(", "));
        }
    }
    line
}

// --- ANALYZE join ----------------------------------------------------------

impl ProgramExplain {
    /// Attach live per-view counters: `lookup` maps a target view name to its
    /// [`ViewStats`]. Statements whose target the lookup cannot resolve keep
    /// `analyze: None`.
    pub fn attach_stats<F>(&mut self, lookup: F)
    where
        F: Fn(&str) -> Option<ViewStats>,
    {
        for rel in &mut self.relations {
            for stmt in rel
                .triggers
                .iter_mut()
                .flat_map(|t| t.statements.iter_mut())
                .chain(rel.corrections.iter_mut())
            {
                stmt.analyze = lookup(&stmt.target);
            }
        }
    }

    /// Render the tree as indented text (the `harness --explain` / `/explain`
    /// default).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if let Some(f) = &self.forced {
            let _ = writeln!(out, "forced strategy override: {f}");
        }
        for rel in &self.relations {
            let _ = writeln!(out, "== relation {} ==", rel.relation);
            let _ = writeln!(out, "strategy: {}", rel.strategy);
            let _ = writeln!(out, "reason: {}", rel.reason);
            if !rel.shard.is_empty() {
                let _ = writeln!(out, "shard: {}", rel.shard);
            }
            for t in &rel.triggers {
                let _ = writeln!(out, "on {}:", t.sign);
                for s in &t.statements {
                    render_stmt(&mut out, s);
                }
            }
            if !rel.corrections.is_empty() {
                let _ = writeln!(out, "batch corrections:");
                for s in &rel.corrections {
                    render_stmt(&mut out, s);
                }
            }
        }
        out
    }

    /// Render the tree as a self-contained JSON document (no dependencies;
    /// parseable back via [`ProgramExplain::parse_json`]).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"forced\":");
        match &self.forced {
            Some(f) => {
                let _ = write!(out, "\"{}\"", json_escape(f));
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"relations\":[");
        for (i, rel) in self.relations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"relation\":\"{}\",\"strategy\":\"{}\",\"reason\":\"{}\",\"shard\":\"{}\",\"triggers\":[",
                json_escape(&rel.relation),
                json_escape(&rel.strategy),
                json_escape(&rel.reason),
                json_escape(&rel.shard)
            );
            for (j, t) in rel.triggers.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"sign\":\"{}\",\"statements\":[",
                    json_escape(&t.sign)
                );
                for (k, s) in t.statements.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    stmt_json(&mut out, s);
                }
                out.push_str("]}");
            }
            out.push_str("],\"corrections\":[");
            for (k, s) in rel.corrections.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                stmt_json(&mut out, s);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parse a [`ProgramExplain::render_json`] document back. Returns `None`
    /// on any structural mismatch.
    pub fn parse_json(s: &str) -> Option<ProgramExplain> {
        let v = json::parse(s)?;
        let obj = v.as_object()?;
        let forced = match obj.get("forced")? {
            json::Json::Null => None,
            json::Json::Str(f) => Some(f.clone()),
            _ => return None,
        };
        let mut relations = Vec::new();
        for rv in obj.get("relations")?.as_array()? {
            let r = rv.as_object()?;
            let mut triggers = Vec::new();
            for tv in r.get("triggers")?.as_array()? {
                let t = tv.as_object()?;
                let mut statements = Vec::new();
                for sv in t.get("statements")?.as_array()? {
                    statements.push(stmt_from_json(sv)?);
                }
                triggers.push(TriggerExplain {
                    sign: t.get("sign")?.as_str()?.to_string(),
                    statements,
                });
            }
            let mut corrections = Vec::new();
            for sv in r.get("corrections")?.as_array()? {
                corrections.push(stmt_from_json(sv)?);
            }
            relations.push(RelationExplain {
                relation: r.get("relation")?.as_str()?.to_string(),
                strategy: r.get("strategy")?.as_str()?.to_string(),
                reason: r.get("reason")?.as_str()?.to_string(),
                // Absent in pre-shard documents: tolerate for forward compat.
                shard: r
                    .get("shard")
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string(),
                triggers,
                corrections,
            });
        }
        Some(ProgramExplain { forced, relations })
    }
}

fn render_stmt(out: &mut String, s: &StmtExplain) {
    let _ = writeln!(out, "  {}", s.statement);
    let _ = writeln!(
        out,
        "    kernel: {}",
        if s.compiled {
            "compiled"
        } else {
            "interpreted"
        }
    );
    for p in &s.prelude {
        let _ = writeln!(out, "    prelude: {p}");
    }
    for line in &s.plan {
        let _ = writeln!(out, "    | {line}");
    }
    if let Some(a) = &s.analyze {
        let _ = writeln!(
            out,
            "    analyze: rows={} probes={} scans={} entries={} fused={} range_sum={}/{} \
             corrections={} map_size={}",
            a.rows_written,
            a.probes,
            a.scans,
            a.entries_scanned,
            a.fused_scans,
            a.range_sum_hits,
            a.range_sum_bails,
            a.correction_firings,
            a.map_size
        );
    }
}

fn stmt_json(out: &mut String, s: &StmtExplain) {
    let _ = write!(
        out,
        "{{\"statement\":\"{}\",\"target\":\"{}\",\"op\":\"{}\",\"compiled\":{}",
        json_escape(&s.statement),
        json_escape(&s.target),
        json_escape(&s.op),
        s.compiled
    );
    out.push_str(",\"prelude\":[");
    for (i, p) in s.prelude.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(p));
    }
    out.push_str("],\"plan\":[");
    for (i, p) in s.plan.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(p));
    }
    out.push_str("],\"analyze\":");
    match &s.analyze {
        Some(a) => {
            let _ = write!(
                out,
                "{{\"rows_written\":{},\"probes\":{},\"scans\":{},\"entries_scanned\":{},\
                 \"fused_scans\":{},\"range_sum_hits\":{},\"range_sum_bails\":{},\
                 \"correction_firings\":{},\"map_size\":{}}}",
                a.rows_written,
                a.probes,
                a.scans,
                a.entries_scanned,
                a.fused_scans,
                a.range_sum_hits,
                a.range_sum_bails,
                a.correction_firings,
                a.map_size
            );
        }
        None => out.push_str("null"),
    }
    out.push('}');
}

fn stmt_from_json(v: &json::Json) -> Option<StmtExplain> {
    let o = v.as_object()?;
    let strings = |key: &str| -> Option<Vec<String>> {
        o.get(key)?
            .as_array()?
            .iter()
            .map(|e| e.as_str().map(str::to_string))
            .collect()
    };
    let analyze = match o.get("analyze")? {
        json::Json::Null => None,
        a => {
            let a = a.as_object()?;
            let field = |k: &str| a.get(k).and_then(json::Json::as_u64);
            Some(ViewStats {
                rows_written: field("rows_written")?,
                probes: field("probes")?,
                scans: field("scans")?,
                entries_scanned: field("entries_scanned")?,
                fused_scans: field("fused_scans")?,
                range_sum_hits: field("range_sum_hits")?,
                range_sum_bails: field("range_sum_bails")?,
                correction_firings: field("correction_firings")?,
                map_size: field("map_size")?,
            })
        }
    };
    Some(StmtExplain {
        statement: o.get("statement")?.as_str()?.to_string(),
        target: o.get("target")?.as_str()?.to_string(),
        op: o.get("op")?.as_str()?.to_string(),
        compiled: o.get("compiled")?.as_bool()?,
        prelude: strings("prelude")?,
        plan: strings("plan")?,
        analyze,
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal JSON reader — just enough to round-trip
/// [`ProgramExplain::render_json`] documents and to assert on the server's
/// JSON endpoints in tests. Std-only by policy (the build environment has no
/// registry access, and the real `serde_json` would be the only consumer).
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as f64; integers up to 2^53 are exact).
        Num(f64),
        /// A string (escapes decoded).
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object.
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        /// The string value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The boolean value, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The number as a `u64`, if this is a non-negative integer number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        /// The number, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }

        /// The fields, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
            match self {
                Json::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed, trailing content
    /// rejected). Returns `None` on any syntax error.
    pub fn parse(s: &str) -> Option<Json> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b'{' => {
                *pos += 1;
                let mut obj = BTreeMap::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Some(Json::Obj(obj));
                }
                loop {
                    skip_ws(b, pos);
                    let key = match parse_value(b, pos)? {
                        Json::Str(s) => s,
                        _ => return None,
                    };
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return None;
                    }
                    *pos += 1;
                    let val = parse_value(b, pos)?;
                    obj.insert(key, val);
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b'}' => {
                            *pos += 1;
                            return Some(Json::Obj(obj));
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut arr = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Some(Json::Arr(arr));
                }
                loop {
                    arr.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos)? {
                        b',' => *pos += 1,
                        b']' => {
                            *pos += 1;
                            return Some(Json::Arr(arr));
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => {
                *pos += 1;
                let mut out = String::new();
                loop {
                    match *b.get(*pos)? {
                        b'"' => {
                            *pos += 1;
                            return Some(Json::Str(out));
                        }
                        b'\\' => {
                            *pos += 1;
                            match *b.get(*pos)? {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'b' => out.push('\u{8}'),
                                b'f' => out.push('\u{c}'),
                                b'u' => {
                                    let hex = b.get(*pos + 1..*pos + 5)?;
                                    let code =
                                        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16)
                                            .ok()?;
                                    // Surrogate pairs are not produced by any
                                    // in-tree writer; reject rather than
                                    // mis-decode.
                                    out.push(char::from_u32(code)?);
                                    *pos += 4;
                                }
                                _ => return None,
                            }
                            *pos += 1;
                        }
                        _ => {
                            // Consume one UTF-8 scalar (multi-byte safe).
                            let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                            let c = rest.chars().next()?;
                            out.push(c);
                            *pos += c.len_utf8();
                        }
                    }
                }
            }
            b't' => {
                if b.get(*pos..*pos + 4)? == b"true" {
                    *pos += 4;
                    Some(Json::Bool(true))
                } else {
                    None
                }
            }
            b'f' => {
                if b.get(*pos..*pos + 5)? == b"false" {
                    *pos += 5;
                    Some(Json::Bool(false))
                } else {
                    None
                }
            }
            b'n' => {
                if b.get(*pos..*pos + 4)? == b"null" {
                    *pos += 4;
                    Some(Json::Null)
                } else {
                    None
                }
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()?
                    .parse::<f64>()
                    .ok()
                    .map(Json::Num)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::program::{Catalog, CompileMode, CompileOptions, QuerySpec, RelationMeta};
    use dbtoaster_agca::Expr;

    fn program() -> TriggerProgram {
        let catalog: Catalog = [
            RelationMeta::stream("R", ["A", "B"]),
            RelationMeta::stream("S", ["B", "C"]),
        ]
        .into_iter()
        .collect();
        let q = QuerySpec {
            name: "Q".into(),
            out_vars: vec![],
            expr: Expr::agg_sum(
                Vec::<String>::new(),
                Expr::product_of([
                    Expr::rel("R", ["a", "b"]),
                    Expr::rel("S", ["b", "c"]),
                    Expr::var("c"),
                ]),
            ),
        };
        compile(
            &[q],
            &catalog,
            &CompileOptions::for_mode(CompileMode::HigherOrder),
        )
        .unwrap()
    }

    #[test]
    fn explain_reports_strategy_and_reason_per_relation() {
        let p = program();
        let ex = explain(&p, None);
        assert_eq!(ex.relations.len(), 2);
        for rel in &ex.relations {
            assert_eq!(rel.strategy, "batch-delta");
            assert!(
                rel.reason.contains("second-order correction derived"),
                "{}",
                rel.reason
            );
            assert!(!rel.triggers.is_empty());
            for t in &rel.triggers {
                for s in &t.statements {
                    assert!(s.compiled, "workload statements lower: {}", s.statement);
                    assert!(!s.plan.is_empty());
                }
            }
        }
    }

    #[test]
    fn forced_overrides_are_reflected() {
        let p = program();
        let entry = explain(&p, Some(BatchStrategy::EntryMajor));
        assert_eq!(entry.forced.as_deref(), Some("entry-major"));
        for rel in &entry.relations {
            assert_eq!(rel.strategy, "entry-major");
            assert_eq!(rel.reason, "forced entry-major override");
        }
        let stmt = explain(&p, Some(BatchStrategy::StatementMajor));
        for rel in &stmt.relations {
            assert_ne!(rel.strategy, "batch-delta");
            assert!(rel.reason.contains("disabled by forced override"));
        }
    }

    #[test]
    fn json_round_trips_with_and_without_stats() {
        let p = program();
        let mut ex = explain(&p, None);
        let parsed = ProgramExplain::parse_json(&ex.render_json()).expect("parses");
        assert_eq!(parsed, ex);
        ex.attach_stats(|_| {
            Some(ViewStats {
                rows_written: 7,
                probes: 3,
                entries_scanned: 11,
                map_size: 5,
                ..ViewStats::default()
            })
        });
        let parsed = ProgramExplain::parse_json(&ex.render_json()).expect("parses");
        assert_eq!(parsed, ex);
    }

    #[test]
    fn text_rendering_contains_the_load_bearing_lines() {
        let p = program();
        let text = explain(&p, None).render_text();
        assert!(text.contains("== relation R =="));
        assert!(text.contains("strategy: batch-delta"));
        assert!(text.contains("reason: "));
        assert!(text.contains("shard: "));
        assert!(text.contains("kernel: compiled"));
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let v = json::parse(r#"{"a":"x\"\\\né","b":[1,2.5,-3],"c":null}"#).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("a").unwrap().as_str().unwrap(), "x\"\\\né");
        assert_eq!(
            o.get("b").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-3.0)
        );
        assert!(json::parse("{\"a\":}").is_none());
        assert!(json::parse("[1,2,]").is_none());
        assert!(json::parse("{} trailing").is_none());
    }
}
