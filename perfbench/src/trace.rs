//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions: name, start, end, parent span and request id. They
//! stay in memory while the workload runs and are written as a Chrome
//! trace (`chrome://tracing`, Perfetto) when it ends. The per-layer
//! metrics are computed from the same spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// Recorder; a disabled one records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.t0.elapsed();
        self.spans.push(SpanRec {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open` (and anything opened inside it and left open).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.t0.elapsed();
        if let Some(span) = self.spans.get_mut(idx) {
            span.end = now;
        }
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Time `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> crate::util::Samples {
        let mut s = crate::util::Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(crate::util::us(span.end - span.start));
        }
        s
    }

    /// Total self time in ms of spans called `name`: each span's
    /// duration minus the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child: BTreeMap<usize, Duration> = BTreeMap::new();
        for span in &self.spans {
            if let Some(p) = span.parent {
                *child.entry(p).or_default() += span.end - span.start;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let own = s.end - s.start;
                crate::util::ms(own.saturating_sub(child.get(&i).copied().unwrap_or_default()))
            })
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a Chrome trace-event file.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                crate::util::us(s.start),
                crate::util::us(s.end - s.start),
                s.req
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}
