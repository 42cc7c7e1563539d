//! Outside-in spans: the benchmark times its own calls into each
//! module's public functions. Nothing inside the program is instrumented.
//! Spans stay in memory and are written once, at exit, in the
//! `tpa_obs::perfetto` trace-event format the existing viewer path loads.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tpa_obs::perfetto::{TraceBuilder, PID_RUN};

/// One timed call.
pub struct Span {
    /// Layer-qualified name of the call, e.g. `check.Checker::exhaustive`.
    pub name: String,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the call belongs to (`u64::MAX` outside ops).
    pub op: u64,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: u64::MAX,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags spans opened from now on with op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op = id;
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.t0.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if id == usize::MAX {
            return;
        }
        self.spans[id].end_us = self.t0.elapsed().as_secs_f64() * 1e6;
        if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Total and self time (µs) and count per span name. Self time is the
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, (f64, f64, usize)> {
        let mut child_cover = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            let e = out.entry(s.name.clone()).or_default();
            let dur = s.end_us - s.start_us;
            e.0 += dur;
            e.1 += (dur - cover).max(0.0);
            e.2 += 1;
        }
        out
    }

    /// Writes every span as a Perfetto complete slice on the run timeline.
    pub fn write_perfetto(&self, path: &Path, title: &str) -> std::io::Result<()> {
        let mut tb = TraceBuilder::new();
        tb.name_process(PID_RUN, title);
        tb.name_thread(PID_RUN, 0, "benchmark");
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![("span".to_owned(), i.to_string())];
            if let Some(p) = s.parent {
                args.push(("parent".to_owned(), p.to_string()));
            }
            if s.op != u64::MAX {
                args.push(("op".to_owned(), s.op.to_string()));
            }
            let (ts, dur) = (s.start_us as u64, (s.end_us - s.start_us) as u64);
            tb.slice(&s.name, "perfbench", PID_RUN, 0, ts, dur, args);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, tb.render())
    }
}
