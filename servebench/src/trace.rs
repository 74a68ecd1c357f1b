//! In-memory span recording for the traced run. Each client thread owns one
//! [`SpanLog`]; logs are merged and written out once the run has ended, so
//! recording costs an `Instant` pair and a `Vec` push per call.

use crate::stats::{self_times, Span};
use std::fmt::Write as _;
use std::time::Instant;

/// One thread's spans. A disabled log records nothing.
pub struct SpanLog {
    on: bool,
    origin: Instant,
    /// High bits of every id this log hands out, so ids stay unique across
    /// threads without coordination.
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool, origin: Instant, thread: u64) -> Self {
        SpanLog {
            on,
            origin,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A log for another thread of the same run.
    pub fn fork(&self, thread: u64) -> Self {
        SpanLog::new(self.on, self.origin, thread)
    }

    /// Reserve the id of a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Record a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Record a finished leaf span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Take over another thread's spans.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }
}

/// Spans as JSON lines (one object per span, with its self time), followed by
/// one summary line per span name: count, total and self time.
pub fn render_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns, self_ns
        );
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + (s.end_ns - s.start_ns), e.2 + self_ns);
    }
    for (name, (count, total, self_ns)) in by_name {
        let _ = writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_ns}}}"
        );
    }
    out
}
