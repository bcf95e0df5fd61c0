//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (`lang.lex`, `core.select`, `daemon.read`, ...): name, start, end, the
//! span that caused it and the id of the operation it belongs to. They
//! stay in memory until the run ends. A layer's *self time* is its span's
//! duration minus the part its child spans cover.
//!
//! With tracing off `begin`/`end` are one predictable branch each, so the
//! untraced pass that produces the end-to-end metrics pays nothing.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for an operation's root.
    pub parent: Option<u32>,
    /// Operation id, shared by every span of one operation.
    pub op: u32,
}

/// Handle returned by [`Tracer::begin`]; `NONE` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between passes (the traced pass runs its
    /// main stage once without spans to price them).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. With no span open it starts a new operation.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p as usize].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Position to pass to [`Tracer::self_times_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of each span recorded since `mark`, in recording order:
    /// its duration minus the durations of its direct children.
    fn self_ns_since(&self, mark: usize) -> Vec<u64> {
        let spans = &self.spans[mark..];
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(i) = s.parent.and_then(|p| (p as usize).checked_sub(mark)) {
                own[i] = own[i].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time of every span named `name` since `mark`, in order.
    pub fn self_times_since(&self, mark: usize, name: &str) -> Vec<u64> {
        self.spans[mark..]
            .iter()
            .zip(self.self_ns_since(mark))
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| own)
            .collect()
    }

    /// Chrome trace-event JSON (loads in `chrome://tracing` and Perfetto):
    /// one complete ("X") event per span, microsecond timestamps, with
    /// the operation id and the parent span's index in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"load generator\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                i,
                parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_of_one_operation_share_an_id_and_nest_under_one_root() {
        let mut t = Tracer::new(true);
        let root = t.begin("op");
        let a = t.begin("a");
        t.end(a);
        let b = t.begin("b");
        let c = t.begin("c");
        t.end(c);
        t.end(b);
        t.end(root);
        let next = t.begin("op");
        t.end(next);
        let s = &t.spans;
        assert_eq!(s.len(), 5);
        assert!(s[..4].iter().all(|x| x.op == s[0].op));
        assert_ne!(s[4].op, s[0].op);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(t.self_times_since(0, "op").len(), 2);
        let dur = |i: usize| s[i].end_ns - s[i].start_ns;
        assert_eq!(t.self_times_since(0, "b"), vec![dur(2) - dur(3)]);
        assert_eq!(t.self_times_since(0, "op")[0], dur(0) - dur(1) - dur(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert_eq!(t.span_count(), 0);
    }
}
