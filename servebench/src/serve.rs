//! The three serving workloads, driven through the public `dbtoaster` API
//! from at most two client threads: a feed thread (the caller) and a reader
//! thread that refreshes every served view at a fixed period.

use crate::pin;
use crate::stats::{median, pct_value, tail, window_values};
use crate::trace::SpanLog;
use crate::vfs::{TimingVfs, VfsTotals};
use dbtoaster::durability::{std_vfs, DurabilityConfig, Vfs};
use dbtoaster::prelude::*;
use dbtoaster::workloads::{self, Dataset, Family};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How events reach the server.
pub enum Feed {
    /// The first `open_events` sent on a fixed schedule of `rate_eps`
    /// events/s, then the rest of the stream pushed closed-loop, with a
    /// flush after every `CLOSED_BURST` events and at the end.
    OpenThenClosed { open_events: usize, rate_eps: f64 },
    /// One event at a time, each followed by a flush (the paper's per-event
    /// refresh).
    PerEvent,
}

pub struct Spec {
    pub name: &'static str,
    family: Family,
    pub queries: [&'static str; 4],
    durable: bool,
    /// Stream events per round.
    events: usize,
    /// Most distinct streams a run cycles through, one per round. Where
    /// streams differ in cost more than rounds of one stream do, this
    /// exceeds the rounds a run holds, so that every round serves a stream
    /// of its own.
    streams: u64,
    feed: Feed,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "dashboard",
        family: Family::Tpch,
        queries: ["q1", "q3", "q6", "q10"],
        durable: false,
        events: 60_000,
        streams: 10,
        feed: Feed::OpenThenClosed {
            open_events: 10_000,
            rate_eps: 20_000.0,
        },
    },
    Spec {
        name: "dashboard_durable",
        family: Family::Tpch,
        queries: ["q1", "q3", "q6", "q10"],
        durable: true,
        events: 60_000,
        streams: 10,
        feed: Feed::OpenThenClosed {
            open_events: 10_000,
            rate_eps: 20_000.0,
        },
    },
    Spec {
        name: "orderbook",
        family: Family::Finance,
        queries: ["vwap", "psp", "axf", "bsv"],
        durable: false,
        events: 1_000,
        streams: 64,
        feed: Feed::PerEvent,
    },
];

/// Views a reader may be asked for, in metric order.
pub const ALL_VIEWS: [&str; 8] = ["q1", "q3", "q6", "q10", "vwap", "psp", "axf", "bsv"];

/// Events per window when reducing freshness (a round shorter than this is
/// one window).
const FRESH_WINDOW: usize = 5000;
/// Reads per window when reducing read latencies: each window gives one
/// percentile, and the run reports their median. 1000 reads leave ten
/// beyond p99.
const READ_WINDOW: usize = 1000;
/// Period of the reader thread's whole-dashboard refresh.
const READ_PERIOD: Duration = Duration::from_millis(5);
/// Sleep between two visibility probes of the open-loop feed.
const POLL: Duration = Duration::from_micros(250);
/// Events per `send_batch` call in the closed-loop phase.
const CLOSED_CHUNK: usize = 512;
/// Events the closed-loop phase sends between two flushes. The ingest queue
/// holds 8192 calls, room for the whole phase, so without a flush the
/// backlog, and with it the process's peak memory, would grow with how far
/// the writer happened to lag behind the feed.
const CLOSED_BURST: usize = 8192;
/// Set-ups measured per run, counting those of the measured rounds.
const SETUP_SAMPLES: usize = 5;
/// An open-loop feed whose p99 lateness exceeds this has fallen behind its
/// schedule; the run fails instead of reporting freshness.
const LATE_LIMIT_MS: f64 = 20.0;
/// How long an event may take to become visible before it counts as lost.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Relative tolerance of the batched-serving check, as in the repository's
/// strategy-equivalence suite: micro-batch boundaries depend on timing, and
/// batch-delta kernels sum in a different order than per-event processing.
const EPS: f64 = 1e-6;

/// Attempted and failed operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn ok(&mut self, n: u64) {
        self.attempted += n;
    }
    fn fail(&mut self, n: u64, why: String) {
        self.attempted += n;
        self.failed += n;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }
}

/// Everything one measured round produced.
#[derive(Default)]
struct Round {
    traced: bool,
    /// Events pushed closed-loop and the seconds until all were visible.
    loaded: (f64, f64),
    fresh_ms: Vec<f64>,
    read_us: Vec<Vec<f64>>,
    /// Every read latency (µs) in the order the reads ran.
    read_seq: Vec<f64>,
    snapshot_ns: Vec<f64>,
    late_ms: Vec<f64>,
    probe_period_us: Vec<f64>,
    setup_s: Option<f64>,
    /// Set-up through the final flush: what the round adds to the measured
    /// time. The output checks and the kill and reopen come after it.
    serving: Duration,
    recover_s: Option<f64>,
    /// Per-layer figures of a traced round.
    layer: BTreeMap<String, f64>,
}

/// The result of a whole run: every figure by metric name, the tally and
/// the spans.
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Sample counts behind percentile figures, by metric name.
    pub notes: BTreeMap<String, String>,
    pub tally: Tally,
    pub log: SpanLog,
    /// Why the open-loop feed counts as behind its schedule, if it does.
    pub behind: Option<String>,
}

fn builder(spec: &Spec) -> QueryEngineBuilder {
    spec.queries.iter().fold(
        QueryEngineBuilder::new(workloads::full_catalog()),
        |b, q| b.add_query(*q, workloads::query(q).expect("workload query exists").sql),
    )
}

fn load(engine: &mut QueryEngine, data: &Dataset) -> Result<(), DbToasterError> {
    let mut tables: Vec<_> = data.tables.iter().collect();
    tables.sort_by(|a, b| a.0.cmp(b.0));
    for (name, rows) in tables {
        engine.load_table(name, rows.clone())?;
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What the single-threaded reference replay measured and produced.
struct Reference {
    expected: Vec<(String, ResultTable)>,
    layer: BTreeMap<String, f64>,
}

/// Replay the stream through `QueryEngine::process_batch`, outside any
/// server: per-event batches where the served run flushes every event,
/// server-sized batches otherwise.
fn reference(spec: &Spec, data: &Dataset, log: &mut SpanLog) -> Result<Reference, DbToasterError> {
    let mut engine = builder(spec).build()?;
    load(&mut engine, data)?;
    engine.init()?;
    let batch = match spec.feed {
        Feed::PerEvent => 1,
        Feed::OpenThenClosed { .. } => ServerConfig::default().max_batch,
    };
    let mut batch_us = Vec::with_capacity(data.events.len() / batch + 1);
    let mut failed = 0;
    for chunk in data.events.chunks(batch) {
        let delta = DeltaBatch::from_events(chunk);
        let t = Instant::now();
        failed += engine.process_batch(&delta).failed_events;
        let end = Instant::now();
        batch_us.push(us(end - t));
        log.record("runtime.process_batch", 0, 0, t, end);
    }
    // Without a clean reference nothing can be checked.
    assert_eq!(failed, 0, "{}: reference replay failed events", spec.name);
    let stats = engine.stats();
    let kernel_s: f64 = batch_us.iter().sum::<f64>() / 1e6;
    let kernel_eps = data.events.len() as f64 / kernel_s;
    let program = engine.program();
    let entries: usize = program
        .maps
        .iter()
        .filter_map(|m| engine.view(&m.name))
        .map(|g| g.len())
        .sum();
    let mut layer = BTreeMap::new();
    let mut put = |k: &str, v: f64| layer.insert(k.to_string(), v);
    put("compile.maps", program.maps.len() as f64);
    put("compile.statements", program.statement_count() as f64);
    put("runtime.kernel_eps", kernel_eps);
    put("runtime.batch_us.p50", pct_value(&batch_us, 50.0));
    put("runtime.batch_us.p99", pct_value(&batch_us, 99.0));
    put(
        "runtime.stmts_per_event",
        stats.statements as f64 / stats.events.max(1) as f64,
    );
    put("runtime.runs.batch_delta", stats.batch_delta_runs as f64);
    put(
        "runtime.runs.statement_major",
        stats.statement_major_runs as f64,
    );
    put("runtime.runs.entry_major", stats.entry_major_runs as f64);
    put(
        "runtime.state_mb",
        engine.memory_bytes() as f64 / (1 << 20) as f64,
    );
    put("runtime.state_entries", entries as f64);
    let expected = spec
        .queries
        .iter()
        .map(|q| Ok((q.to_string(), engine.result(q)?)))
        .collect::<Result<_, DbToasterError>>()?;
    Ok(Reference { expected, layer })
}

/// Rows keyed by their group-by key.
fn rows(t: &ResultTable) -> BTreeMap<String, Vec<f64>> {
    t.rows
        .iter()
        .map(|r| (format!("{:?}", r.key), r.values.clone()))
        .collect()
}

/// `None` when `got` matches `want`: bit for bit when `exact`, within the
/// relative tolerance otherwise. As in the repository's equivalence suites,
/// a row missing on one side reads as all zeros: whether an emptied group is
/// kept or dropped is a storage detail, not an answer difference.
fn mismatch(want: &ResultTable, got: &ResultTable, exact: bool) -> Option<String> {
    let (want, got) = (rows(want), rows(got));
    let width = want
        .values()
        .chain(got.values())
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    let zeros = vec![0.0; width];
    for key in want.keys().chain(got.keys()) {
        let w = want.get(key).unwrap_or(&zeros);
        let g = got.get(key).unwrap_or(&zeros);
        let same = w.len() == g.len()
            && w.iter().zip(g).all(|(a, b)| {
                if exact {
                    a.to_bits() == b.to_bits()
                } else {
                    (a - b).abs() / a.abs().max(1.0) < EPS
                }
            });
        if !same {
            return Some(format!("row {key}: {g:?}, expected {w:?}"));
        }
    }
    None
}

fn flush(tally: &mut Tally, log: &mut SpanLog, server: &ViewServer, req: u64) {
    let t = Instant::now();
    match server.flush() {
        Ok(_) => tally.ok(1),
        Err(e) => tally.fail(1, format!("flush: {e}")),
    }
    log.record("server.flush", 0, req, t, Instant::now());
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Ctx<'a> {
    spec: &'a Spec,
    data: Dataset,
    work: &'a Path,
    log: SpanLog,
    tally: Tally,
    /// CPUs of the reader thread, when the feed and the writer are pinned.
    reader_cpus: Option<pin::Mask>,
}

/// Durability settings of one server: the defaults, through the timing VFS
/// in a traced round.
fn durability(dir: &Path, vfs: Option<&Arc<TimingVfs>>) -> ServerConfig {
    let mut d = DurabilityConfig::new(dir);
    if let Some(v) = vfs {
        d.vfs = v.clone() as Arc<dyn Vfs>;
    }
    ServerConfig {
        durability: Some(d),
        ..ServerConfig::default()
    }
}

impl Ctx<'_> {
    /// Build, load and start one server. Returns it with its set-up time.
    fn setup(
        &mut self,
        req: u64,
        dir: &Path,
        vfs: Option<&Arc<TimingVfs>>,
    ) -> Result<(ViewServer, Duration), DbToasterError> {
        let root = self.log.reserve();
        let t0 = Instant::now();
        let mut engine = builder(self.spec).build()?;
        let t1 = Instant::now();
        self.log.record("compile.build", root, req, t0, t1);
        load(&mut engine, &self.data)?;
        if !self.spec.durable {
            // A durable open initialises the views itself on a fresh start.
            engine.init()?;
        }
        let t2 = Instant::now();
        self.log.record("core.load", root, req, t1, t2);
        let server = if self.spec.durable {
            engine.open_or_create_with(durability(dir, vfs))?
        } else {
            engine.serve_with(ServerConfig::default())?
        };
        let t3 = Instant::now();
        self.log.record("server.spawn", root, req, t2, t3);
        self.log.record_as(root, "setup", 0, req, t0, t3);
        Ok((server, t3 - t0))
    }

    /// A set-up that serves nothing, to add set-up samples to a run.
    fn setup_trial(&mut self, req: u64) -> Option<f64> {
        let dir = WorkDir(self.work.join(format!("setup-{req}")));
        match self.setup(req, &dir.0, None) {
            Ok((server, took)) => {
                server.kill();
                Some(took.as_secs_f64())
            }
            Err(e) => {
                self.tally.fail(1, format!("setup: {e}"));
                None
            }
        }
    }

    /// The open-loop phase: send each event when it falls due and probe
    /// visibility in between. Freshness runs from an event's due time.
    fn open_loop(&mut self, server: &ViewServer, round: &mut Round, req: u64, n: usize, rate: f64) {
        let ingest = server.handle();
        let probe = server.reader();
        let base = probe.snapshot().events_applied();
        let events = &self.data.events[..n];
        let ns_per_event = 1e9 / rate;
        let start = Instant::now();
        let due = |i: usize| start + Duration::from_nanos((i as f64 * ns_per_event) as u64);
        let (mut sent, mut seen) = (0usize, 0usize);
        let mut last_probe = start;
        let mut depth_max = 0u64;
        round.fresh_ms.reserve(n);
        while seen < n {
            let now = Instant::now();
            let due_count = ((now - start).as_nanos() as f64 / ns_per_event) as usize + 1;
            let due_count = due_count.min(n);
            if due_count > sent {
                round.late_ms.push(ms(now - due(sent)));
                match ingest.send_batch(events[sent..due_count].iter().cloned()) {
                    Ok(k) => self.tally.ok(k as u64),
                    Err(e) => self.tally.fail((due_count - sent) as u64, e.to_string()),
                }
                self.log.record("server.send", 0, req, now, Instant::now());
                sent = due_count;
            }
            if self.log.on() {
                depth_max = depth_max.max(server.queue_depth());
            }
            let applied = (probe.snapshot().events_applied() - base) as usize;
            let now = Instant::now();
            round.probe_period_us.push(us(now - last_probe));
            last_probe = now;
            while seen < applied.min(n) {
                round.fresh_ms.push(ms(now - due(seen)));
                seen += 1;
            }
            if sent == n && now - due(n - 1) > VISIBLE_TIMEOUT {
                self.tally.fail(
                    (n - seen) as u64,
                    format!("{} events never visible", n - seen),
                );
                break;
            }
            std::thread::sleep(POLL);
        }
        round
            .layer
            .insert("server.queue_depth.max".into(), depth_max as f64);
    }

    /// The closed-loop phase: push the rest of the stream as fast as the
    /// server takes it, flushing after every `CLOSED_BURST` events and at the
    /// end. Returns the phase's wall time.
    fn closed_loop(
        &mut self,
        server: &ViewServer,
        round: &mut Round,
        req: u64,
        from: usize,
    ) -> Duration {
        let ingest = server.handle();
        let start = Instant::now();
        let mut depth_max = 0u64;
        for burst in self.data.events[from..].chunks(CLOSED_BURST) {
            for chunk in burst.chunks(CLOSED_CHUNK) {
                let t = Instant::now();
                match ingest.send_batch(chunk.iter().cloned()) {
                    Ok(k) => self.tally.ok(k as u64),
                    Err(e) => self.tally.fail(chunk.len() as u64, e.to_string()),
                }
                self.log.record("server.send", 0, req, t, Instant::now());
                if self.log.on() {
                    depth_max = depth_max.max(server.queue_depth());
                }
            }
            flush(&mut self.tally, &mut self.log, server, req);
        }
        let depth = round
            .layer
            .entry("server.queue_depth.max".into())
            .or_default();
        *depth = depth.max(depth_max as f64);
        start.elapsed()
    }

    /// Per-event closed loop: send one event, wait for the flush that
    /// publishes it. Freshness is the send-to-flush-return time.
    fn per_event(&mut self, server: &ViewServer, round: &mut Round, req: u64) {
        let ingest = server.handle();
        round.fresh_ms.reserve(self.data.events.len());
        for ev in &self.data.events {
            let t = Instant::now();
            match ingest.send(ev.clone()) {
                Ok(()) => self.tally.ok(1),
                Err(e) => self.tally.fail(1, format!("send: {e}")),
            }
            let t1 = Instant::now();
            self.log.record("server.send", 0, req, t, t1);
            flush(&mut self.tally, &mut self.log, server, req);
            round.fresh_ms.push(ms(t.elapsed()));
        }
    }

    /// Compare every served view with the reference replay.
    fn check(&mut self, server: &ViewServer, expected: &[(String, ResultTable)], exact: bool) {
        let reader = server.reader();
        let applied = reader.snapshot().events_applied() as usize;
        let n = self.data.events.len();
        if applied < n {
            self.tally.fail(
                (n - applied) as u64,
                format!("{} events never made visible", n - applied),
            );
        }
        for (q, want) in expected {
            match reader.query(q) {
                Ok(got) => match mismatch(want, &got, exact) {
                    None => self.tally.ok(1),
                    Some(why) => self.tally.fail(1, format!("{q}: {why}")),
                },
                Err(e) => self.tally.fail(1, format!("{q}: {e}")),
            }
        }
    }

    /// Kill the server, reopen its directory and check that the recovered
    /// views equal the last pre-kill snapshot bit for bit and cover every
    /// acknowledged event. Returns the kill-to-ready time.
    fn kill_and_recover(
        &mut self,
        server: ViewServer,
        req: u64,
        dir: &Path,
        vfs: Option<&Arc<TimingVfs>>,
        round: &mut Round,
    ) -> Option<f64> {
        let before = server.current_snapshot();
        let read_before = vfs.map(|v| v.counters.totals().bytes_read);
        let t = Instant::now();
        server.kill();
        let reopened = (|| -> Result<ViewServer, DbToasterError> {
            let mut engine = builder(self.spec).build()?;
            load(&mut engine, &self.data)?;
            engine.open_or_create_with(durability(dir, vfs))
        })();
        let end = Instant::now();
        self.log.record("durability.recover", 0, req, t, end);
        let server = match reopened {
            Ok(s) => s,
            Err(e) => {
                self.tally.fail(1, format!("reopen: {e}"));
                return None;
            }
        };
        let after = server.current_snapshot();
        if after.events_applied() < before.events_applied() {
            self.tally.fail(
                before.events_applied() - after.events_applied(),
                "acknowledged events lost across kill".into(),
            );
        }
        let bits = |s: &Snapshot, name: &str| -> Option<Vec<(String, u64)>> {
            let mut v: Vec<_> = s
                .view(name)?
                .iter()
                .map(|(t, m)| (format!("{t:?}"), m.to_bits()))
                .collect();
            v.sort();
            Some(v)
        };
        for name in before.names() {
            if bits(&before, name) == bits(&after, name) {
                self.tally.ok(1);
            } else {
                self.tally
                    .fail(1, format!("view {name} differs after recovery"));
            }
        }
        // The reopened server's telemetry timed the replay.
        let m = server.metrics();
        let (replay, replay_p99) = m.stage(Stage::RecoveryReplay).map_or((0.0, 0.0), |h| {
            (h.sum_nanos as f64 / 1e9, h.p99_nanos as f64 / 1e3)
        });
        let replayed = server.stats().recovery_replayed_events as f64;
        round
            .layer
            .insert("stage.recovery_replay.sum_ms".into(), replay * 1e3);
        round
            .layer
            .insert("stage.recovery_replay.p99_us".into(), replay_p99);
        round.layer.insert(
            "durability.recover_replay_eps".into(),
            if replay > 0.0 { replayed / replay } else { 0.0 },
        );
        if let (Some(v), Some(r0)) = (vfs, read_before) {
            round.layer.insert(
                "vfs.bytes_read_recover".into(),
                (v.counters.totals().bytes_read - r0) as f64,
            );
        }
        server.kill();
        Some((end - t).as_secs_f64())
    }

    /// One measured round on a fresh server.
    fn round(&mut self, req: u64, traced: bool, reference: &Reference) -> Round {
        let begun = Instant::now();
        let mut round = Round {
            traced,
            ..Round::default()
        };
        let dir = WorkDir(self.work.join(format!("round-{req}")));
        let vfs = (traced && self.spec.durable).then(|| Arc::new(TimingVfs::new(std_vfs())));
        let server = match self.setup(req, &dir.0, vfs.as_ref()) {
            Ok((s, took)) => {
                round.setup_s = Some(took.as_secs_f64());
                s
            }
            Err(e) => {
                self.tally.fail(1, format!("setup: {e}"));
                return round;
            }
        };
        let stop = AtomicBool::new(false);
        let reader = server.reader();
        let read_log = self.log.fork(req * 4 + 2);
        let queries = self.spec.queries;
        let cpus = self.reader_cpus;
        let started = Instant::now();
        let reads = std::thread::scope(|s| {
            let stop = &stop;
            let h = s.spawn(move || read_loop(reader, &queries, stop, read_log, req, cpus));
            let n = self.data.events.len();
            match self.spec.feed {
                Feed::OpenThenClosed {
                    open_events,
                    rate_eps,
                } => {
                    self.open_loop(&server, &mut round, req, open_events, rate_eps);
                    let wall = self.closed_loop(&server, &mut round, req, open_events);
                    round.loaded = ((n - open_events) as f64, wall.as_secs_f64());
                }
                Feed::PerEvent => {
                    let t = Instant::now();
                    self.per_event(&server, &mut round, req);
                    round.loaded = (n as f64, t.elapsed().as_secs_f64());
                }
            }
            stop.store(true, Ordering::Release);
            h.join().expect("reader thread panicked")
        });
        let wall = started.elapsed().as_secs_f64();
        round.serving = begun.elapsed();
        self.log.absorb(reads.log);
        self.tally.attempted += reads.tally.attempted;
        self.tally.failed += reads.tally.failed;
        self.tally.problems.extend(reads.tally.problems);
        round.read_us = reads.lat;
        round.read_seq = reads.seq;
        round.snapshot_ns = reads.snap_ns;
        let exact = matches!(self.spec.feed, Feed::PerEvent);
        self.check(&server, &reference.expected, exact);
        if traced {
            self.layer_figures(&server, &mut round, req, wall, vfs.as_deref());
        }
        if self.spec.durable {
            round.recover_s = self.kill_and_recover(server, req, &dir.0, vfs.as_ref(), &mut round);
        } else {
            server.kill();
        }
        round
    }

    /// Per-layer figures read after a traced round's final flush.
    fn layer_figures(
        &self,
        server: &ViewServer,
        round: &mut Round,
        req: u64,
        wall: f64,
        vfs: Option<&TimingVfs>,
    ) {
        let stats = server.stats();
        let m = server.metrics();
        let n = self.data.events.len() as f64;
        let mut put = |k: String, v: f64| {
            round.layer.insert(k, v);
        };
        let spans = |name: &str| -> Vec<f64> {
            self.log
                .spans
                .iter()
                .filter(|s| s.request == req && s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect()
        };
        put(
            "compile.build_ms".into(),
            spans("compile.build").iter().sum::<f64>() / 1e3,
        );
        put(
            "core.load_ms".into(),
            spans("core.load").iter().sum::<f64>() / 1e3,
        );
        for (name, key) in [
            ("server.send", "server.send_us"),
            ("server.flush", "server.flush_us"),
        ] {
            let v = spans(name);
            put(format!("{key}.p50"), pct_value(&v, 50.0));
            put(format!("{key}.p99"), pct_value(&v, 99.0));
        }
        put(
            "server.events_per_publish".into(),
            stats.events as f64 / stats.snapshots_published.max(1) as f64,
        );
        put(
            "server.snapshot_ns.p50".into(),
            pct_value(&round.snapshot_ns, 50.0),
        );
        for (i, q) in self.spec.queries.iter().enumerate() {
            put(
                format!("server.query_us.{q}.p50"),
                pct_value(&round.read_us[i], 50.0),
            );
            put(
                format!("server.query_us.{q}.p99"),
                pct_value(&round.read_us[i], 99.0),
            );
        }
        put(
            "server.writer_busy_frac".into(),
            stats.busy.as_secs_f64() / wall,
        );
        // Recovery is read from the reopened server (durable rounds only).
        for (stage, h) in m.stages.iter().filter(|(s, _)| *s != Stage::RecoveryReplay) {
            put(
                format!("stage.{}.sum_ms", stage.name()),
                h.sum_nanos as f64 / 1e6,
            );
            put(
                format!("stage.{}.p99_us", stage.name()),
                h.p99_nanos as f64 / 1e3,
            );
        }
        put(
            "durability.wal_bytes_per_event".into(),
            stats.wal_bytes_written as f64 / n,
        );
        put(
            "durability.checkpoints".into(),
            stats.checkpoints_taken as f64,
        );
        if let Some(v) = vfs {
            let VfsTotals {
                bytes_written,
                ckpt_write_ns,
                sync_ns,
                ..
            } = v.counters.totals();
            let sync_us: Vec<f64> = sync_ns.iter().map(|&x| x as f64 / 1e3).collect();
            put("vfs.syncs".into(), sync_us.len() as f64);
            put("vfs.sync_us.p50".into(), pct_value(&sync_us, 50.0));
            put("vfs.sync_us.p99".into(), pct_value(&sync_us, 99.0));
            put(
                "vfs.sync_busy_frac".into(),
                sync_us.iter().sum::<f64>() / 1e6 / wall,
            );
            put(
                "vfs.bytes_written_per_event".into(),
                bytes_written as f64 / n,
            );
            put("vfs.checkpoint_write_ms".into(), ckpt_write_ns as f64 / 1e6);
        }
    }
}

/// What the reader thread measured: latency per view (µs), snapshot
/// acquisition (ns), its operations and its spans.
struct Reads {
    lat: Vec<Vec<f64>>,
    seq: Vec<f64>,
    snap_ns: Vec<f64>,
    tally: Tally,
    log: SpanLog,
}

/// The reader thread: every `READ_PERIOD`, take a snapshot and query every
/// served view. `cpus`, if given, are the CPUs it runs on.
fn read_loop(
    reader: ReaderHandle,
    queries: &[&str],
    stop: &AtomicBool,
    mut log: SpanLog,
    req: u64,
    cpus: Option<pin::Mask>,
) -> Reads {
    if let Some(m) = cpus {
        pin::set(&m);
    }
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let mut seq = Vec::new();
    let mut snap_ns = Vec::new();
    let mut tally = Tally::default();
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let t = Instant::now();
        drop(reader.snapshot());
        snap_ns.push((Instant::now() - t).as_nanos() as f64);
        for (i, q) in queries.iter().enumerate() {
            let t = Instant::now();
            let r = reader.query(q);
            let end = Instant::now();
            lat[i].push(us(end - t));
            seq.push(us(end - t));
            log.record("server.query", 0, req, t, end);
            match r {
                Ok(_) => tally.ok(1),
                Err(e) => tally.fail(1, format!("query {q}: {e}")),
            }
        }
        next += READ_PERIOD;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        } else {
            next = now;
        }
    }
    Reads {
        lat,
        seq,
        snap_ns,
        tally,
        log,
    }
}

/// Steal and total ticks of the host's CPUs (`/proc/stat`): the share of
/// time the hypervisor ran something else, which no change to this program
/// can move but which every timing here feels.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// VmHWM of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seed of a run's `k`-th stream. Rounds cycle through several streams
/// so that one unusual stream does not set a run's figures; runs with
/// different seeds share no stream.
fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(64).wrapping_add(k)
}

/// Run one workload: measured rounds on fresh servers, each over the next
/// of the run's streams, until `seconds` of serving have passed. Generating
/// a stream and its reference replay happen outside that time, before the
/// stream's first round, and a round's output checks and reopen after it. In a traced run
/// the rounds alternate untraced and traced, which is what
/// `trace.overhead_frac` compares.
pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool, work: &Path) -> Outcome {
    let mut ctx = Ctx {
        spec,
        data: Dataset::default(),
        work,
        log: SpanLog::new(trace, Instant::now(), 1),
        tally: Tally::default(),
        reader_cpus: None,
    };
    // A per-event feed and the writer it spawns share the lowest CPU, and
    // the reader runs on the others (see `pin`).
    let all_cpus = matches!(spec.feed, Feed::PerEvent).then(pin::get).flatten();
    if let Some((first, rest)) = all_cpus.as_ref().and_then(pin::split) {
        if pin::set(&first) {
            ctx.reader_cpus = Some(rest);
        }
    }
    let mut refs: Vec<Reference> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = Duration::ZERO;
    let cpu_before = cpu_ticks();
    while measured < Duration::from_secs(seconds) || rounds.len() < 1 + trace as usize {
        // A traced run serves each stream twice, untraced then traced, so
        // the two halves compare like with like.
        let k = (rounds.len() as u64 >> trace as u32) % spec.streams;
        ctx.data = workloads::dataset_for(spec.family, spec.events, stream_seed(seed, k));
        assert_eq!(
            ctx.data.events.len(),
            spec.events,
            "generator produced a short stream"
        );
        // A stream's reference replay runs before its first round.
        if refs.len() <= k as usize {
            ctx.log.set_on(trace);
            let r = reference(spec, &ctx.data, &mut ctx.log)
                .unwrap_or_else(|e| panic!("{}: reference replay failed: {e}", spec.name));
            refs.push(r);
        }
        let traced = trace && rounds.len() % 2 == 1;
        ctx.log.set_on(traced);
        let round = ctx.round(rounds.len() as u64 + 1, traced, &refs[k as usize]);
        measured += round.serving;
        rounds.push(round);
    }
    let steal = match (cpu_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    ctx.log.set_on(false);
    let mut setups: Vec<f64> = rounds.iter().filter_map(|r| r.setup_s).collect();
    let mut req = rounds.len() as u64;
    while setups.len() < SETUP_SAMPLES {
        req += 1;
        match ctx.setup_trial(req) {
            Some(s) => setups.push(s),
            None => break,
        }
    }
    if let Some(m) = &all_cpus {
        pin::set(m);
    }

    let mut values = BTreeMap::new();
    let mut notes = BTreeMap::new();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    // Latencies are reduced by windows: each window of consecutive samples
    // gives one percentile and the run reports the median window, so a
    // disturbance of the host moves a few windows rather than the figure.
    // Freshness windows stay inside a round; reads are pooled over rounds
    // first, as a round holds too few of them.
    for (name, p) in [("fresh_p50_ms", 50.0), ("fresh_p99_ms", 99.0)] {
        let per_window: Vec<f64> = plain
            .iter()
            .flat_map(|r| window_values(&r.fresh_ms, FRESH_WINDOW, p))
            .collect();
        let n: usize = plain.iter().map(|r| r.fresh_ms.len()).sum();
        notes.insert(
            name.to_string(),
            format!(
                "median over {} windows of <= {FRESH_WINDOW} events, n={n}",
                per_window.len()
            ),
        );
        values.insert(name.to_string(), median(&per_window));
    }
    let reads: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.read_seq.iter().copied())
        .collect();
    for (name, p) in [("read_p50_us", 50.0), ("read_p99_us", 99.0)] {
        let per_window = window_values(&reads, READ_WINDOW, p);
        let (value, windows) = (median(&per_window), per_window.len());
        notes.insert(
            name.to_string(),
            format!(
                "median over {windows} windows of {READ_WINDOW} reads, n={}",
                reads.len()
            ),
        );
        values.insert(name.to_string(), value);
    }
    let late: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    if let Some(t) = tail(&late, 99.0) {
        notes.insert("gen.late_ms.p99".into(), format!("p{} of n={}", t.pct, t.n));
        values.insert("gen.late_ms.p99".into(), t.value);
    }
    let late_max = late.iter().copied().fold(0.0, f64::max);
    let periods: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.probe_period_us.iter().copied())
        .collect();
    // On a per-event feed every round serves a stream of its own, and
    // streams differ in cost: the run's rate is its events over its seconds,
    // both summed over rounds. Elsewhere rounds cycle through a few streams
    // of like cost and differ by what the host did meanwhile: the median
    // round's rate is the run's, so a disturbed round moves it less.
    let summed = matches!(spec.feed, Feed::PerEvent);
    let throughput = |rs: &[&Round]| {
        if summed {
            let (events, secs) = rs
                .iter()
                .fold((0.0, 0.0), |(n, s), r| (n + r.loaded.0, s + r.loaded.1));
            events / secs
        } else {
            median(
                &rs.iter()
                    .map(|r| r.loaded.0 / r.loaded.1)
                    .collect::<Vec<_>>(),
            )
        }
    };
    let thr_plain = throughput(&plain);
    values.insert("setup_s".into(), median(&setups));
    notes.insert("setup_s".into(), format!("median of n={}", setups.len()));
    values.insert("throughput_eps".into(), thr_plain);
    let per_round: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.0}", r.loaded.0 / r.loaded.1))
        .collect();
    notes.insert(
        "throughput_eps".into(),
        format!(
            "{} rounds at [{}]",
            if summed { "summed over" } else { "median of" },
            per_round.join(", ")
        ),
    );
    values.insert("peak_rss_mb".into(), peak_rss_mb());
    values.insert("host.steal_frac".into(), steal);
    values.insert("gen.late_ms.max".into(), late_max);
    let mean_period = if periods.is_empty() {
        0.0
    } else {
        periods.iter().sum::<f64>() / periods.len() as f64
    };
    values.insert("probe.period_us".into(), mean_period);
    let recover: Vec<f64> = rounds.iter().filter_map(|r| r.recover_s).collect();
    values.insert("recover_s".into(), median(&recover));
    let keys: std::collections::BTreeSet<&String> =
        refs.iter().flat_map(|r| r.layer.keys()).collect();
    for k in keys {
        let per_stream: Vec<f64> = refs
            .iter()
            .filter_map(|r| r.layer.get(k).copied())
            .collect();
        values.insert(k.clone(), median(&per_stream));
    }
    let kernel_eps = values["runtime.kernel_eps"];
    values.insert("ratio.served_to_kernel".into(), thr_plain / kernel_eps);
    if !traced.is_empty() {
        values.insert(
            "trace.overhead_frac".into(),
            thr_plain / throughput(&traced) - 1.0,
        );
        let keys: std::collections::BTreeSet<&String> =
            traced.iter().flat_map(|r| r.layer.keys()).collect();
        for k in keys {
            let per_round: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layer.get(k).copied())
                .collect();
            values.insert(k.clone(), median(&per_round));
        }
    }
    let late_p99 = values.get("gen.late_ms.p99").copied().unwrap_or(0.0);
    let behind = (late_p99 > LATE_LIMIT_MS).then(|| {
        format!(
            "open-loop feed fell behind its schedule: p99 lateness {late_p99:.3} ms > {LATE_LIMIT_MS} ms"
        )
    });
    Outcome {
        values,
        notes,
        tally: ctx.tally,
        log: ctx.log,
        behind,
    }
}
