//! Serving benchmark for the `dbtoaster` crate: how fresh, how fast and how
//! recoverable served views are under a stream. See `README.md` in this
//! directory for the workloads, the metrics and how to run it.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A readable report goes to standard error.

mod pin;
mod serve;
mod stats;
mod trace;
mod vfs;

use dbtoaster::telemetry::Stage;
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics: name, unit. Measured with tracing off, and steady
/// enough across runs to gate a change (see README.md).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_eps", "ev/s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end figures a user sees that follow the host too closely, or are
/// not defined on every workload, to gate a change: printed with every
/// untraced run, reported as per-layer metrics by the traced run.
const UNGATED: [(&str, &str); 8] = [
    ("fresh_p50_ms", "ms"),
    ("fresh_p99_ms", "ms"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("recover_s", "s"),
    ("host.steal_frac", "frac"),
    ("gen.late_ms.p99", "ms"),
    ("probe.period_us", "us"),
];

/// Per-layer metrics: name, unit. Measured by the traced run; a layer a
/// workload does not use reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 34] = [
        ("compile.build_ms", "ms"),
        ("compile.maps", "count"),
        ("compile.statements", "count"),
        ("core.load_ms", "ms"),
        ("runtime.kernel_eps", "ev/s"),
        ("runtime.batch_us.p50", "us"),
        ("runtime.batch_us.p99", "us"),
        ("runtime.stmts_per_event", "stmt/ev"),
        ("runtime.runs.batch_delta", "count"),
        ("runtime.runs.statement_major", "count"),
        ("runtime.runs.entry_major", "count"),
        ("runtime.state_mb", "MiB"),
        ("runtime.state_entries", "count"),
        ("server.send_us.p50", "us"),
        ("server.send_us.p99", "us"),
        ("server.queue_depth.max", "ev"),
        ("server.events_per_publish", "ev"),
        ("server.flush_us.p50", "us"),
        ("server.flush_us.p99", "us"),
        ("server.snapshot_ns.p50", "ns"),
        ("server.writer_busy_frac", "frac"),
        ("ratio.served_to_kernel", "ratio"),
        ("vfs.syncs", "count"),
        ("vfs.sync_us.p50", "us"),
        ("vfs.sync_us.p99", "us"),
        ("vfs.sync_busy_frac", "frac"),
        ("vfs.bytes_written_per_event", "B/ev"),
        ("vfs.checkpoint_write_ms", "ms"),
        ("vfs.bytes_read_recover", "B"),
        ("durability.wal_bytes_per_event", "B/ev"),
        ("durability.checkpoints", "count"),
        ("durability.recover_replay_eps", "ev/s"),
        ("gen.late_ms.max", "ms"),
        ("trace.overhead_frac", "frac"),
    ];
    let mut out: Vec<(String, &str)> = fixed
        .iter()
        .chain(&UNGATED)
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for v in serve::ALL_VIEWS {
        out.push((format!("server.query_us.{v}.p50"), "us"));
        out.push((format!("server.query_us.{v}.p99"), "us"));
    }
    for s in Stage::ALL {
        out.push((format!("stage.{}.sum_ms", s.name()), "ms"));
        out.push((format!("stage.{}.p99_us", s.name()), "us"));
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = serve::WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = serve::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "servebench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let outcome = serve::run(spec, args.seed, args.seconds, args.trace, &work);
    let _ = std::fs::remove_dir_all(&work);

    if let Some(why) = &outcome.behind {
        eprintln!("servebench: {}: {why}; no freshness reported", spec.name);
        return ExitCode::from(3);
    }
    for p in &outcome.tally.problems {
        eprintln!("servebench: FAILED: {p}");
    }
    let (attempted, failed) = (outcome.tally.attempted, outcome.tally.failed);
    let values = outcome.values;

    let chosen: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    eprintln!(
        "{} seed {} ({} run, {} s)",
        spec.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    let figure = |name: &str| {
        let v = values.get(name).copied().unwrap_or(0.0);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    };
    let show = |name: &str, unit: &str| {
        let note = outcome
            .notes
            .get(name)
            .map_or(String::new(), |n| format!("  ({n})"));
        eprintln!("  {name:<36} {:>16.4} {unit}{note}", figure(name));
    };
    let mut json = Vec::new();
    for (name, unit) in &chosen {
        assert!(stats::valid_name(name), "invalid metric name {name}");
        show(name, unit);
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            figure(name)
        ));
    }
    eprintln!(
        "  error_rate {:.6} ({failed} failed of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    if !args.trace {
        eprintln!("  not gated:");
        for (name, unit) in UNGATED {
            show(name, unit);
        }
    } else {
        let path = out_dir.join(format!("{}-seed{}.spans.jsonl", spec.name, args.seed));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|_| std::fs::write(&path, trace::render_jsonl(&outcome.log.spans)));
        match written {
            Ok(()) => eprintln!("  spans: {}", path.display()),
            Err(e) => eprintln!("servebench: writing spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics and
    /// workloads this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let ours: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        let names: std::collections::BTreeSet<&String> = ours.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), ours.len(), "metric names repeat");
        assert_eq!(spec.matches("\"unit\": ").count(), ours.len());
        for (name, unit) in &ours {
            assert!(stats::valid_name(name), "{name}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(spec.matches("\"why\": ").count(), serve::WORKLOADS.len());
        for w in &serve::WORKLOADS {
            assert!(spec.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name)));
        }
    }
}
