//! In-memory span recording for the traced benchmark runs.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the workspace's public API — nothing inside the library is
//! instrumented. Every span carries the identifier of the request (or
//! pass, or search cycle) it belongs to; within one identifier spans
//! nest properly, so parents are recovered afterwards by interval
//! containment. That lets a span be recorded *after* the fact (queue and
//! service intervals reconstructed from `ServeTiming`, island steps
//! delimited by campaign observer callbacks) without an enter/exit
//! discipline. A layer's self time is its span's duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.queue` or `nn.conv`.
    pub name: &'static str,
    /// Request / pass / cycle identifier shared by related spans.
    pub req: u64,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, filled in by [`Tracer::link`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer. Disabled recorders ignore every call, so the untraced
/// run executes the same code with no recording.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Aggregated totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty recorder with the same switch and origin, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn lane(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an interval measured elsewhere.
    pub fn span(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                req,
                start_ns,
                end_ns,
                parent: None,
            });
        }
    }

    /// Moves another lane's spans into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Recovers parents by containment within each request identifier.
    pub fn link(&mut self) {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (x, y) = (&self.spans[a], &self.spans[b]);
            (x.req, x.start_ns, std::cmp::Reverse(x.end_ns)).cmp(&(
                y.req,
                y.start_ns,
                std::cmp::Reverse(y.end_ns),
            ))
        });
        let mut stack: Vec<usize> = Vec::new();
        for i in order {
            let (req, start, end) = {
                let s = &self.spans[i];
                (s.req, s.start_ns, s.end_ns)
            };
            while let Some(&top) = stack.last() {
                let t = &self.spans[top];
                if t.req == req && t.start_ns <= start && end <= t.end_ns {
                    break;
                }
                stack.pop();
            }
            self.spans[i].parent = stack.last().copied();
            stack.push(i);
        }
    }

    /// Count, total and self time per span name (call [`Tracer::link`]
    /// first).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Share of the root spans' time that their descendants cover: the
    /// part of the traced end-to-end time attributed to a named layer.
    pub fn coverage(&self) -> f64 {
        let mut root_total = 0u64;
        let mut root_self = 0u64;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                root_total += s.dur_ns();
                root_self += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        if root_total == 0 {
            return 0.0;
        }
        1.0 - root_self as f64 / root_total as f64
    }

    /// The first `limit` spans as one JSON document (`name`, `req`,
    /// `start_ns`, `end_ns`, `parent`), with the total recorded.
    pub fn to_json(&self, limit: usize) -> String {
        let kept = self.spans.len().min(limit);
        let mut out = String::with_capacity(96 * kept + 64);
        let _ = write!(out, "{{\"recorded\":{},\"spans\":[", self.spans.len());
        for (i, s) in self.spans.iter().take(kept).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns, parent
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut t = Tracer::new(true, origin);
        t.span("root", 1, at(0), at(10));
        t.span("child", 1, at(1), at(4));
        t.span("grandchild", 1, at(2), at(3));
        t.span("child", 1, at(5), at(9));
        t.span("other_req", 2, at(2), at(3));
        t.link();
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 3_000_000);
        assert_eq!(totals["child"].self_ns, 6_000_000);
        assert_eq!(totals["grandchild"].self_ns, 1_000_000);
        assert_eq!(totals["other_req"].self_ns, 1_000_000);
        // Root 1 is 70% covered; the lone span of request 2 not at all.
        assert!((t.coverage() - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let origin = Instant::now();
        let mut t = Tracer::new(false, origin);
        t.span("x", 0, origin, Instant::now());
        assert_eq!(t.to_json(10), "{\"recorded\":0,\"spans\":[]}");
    }
}
