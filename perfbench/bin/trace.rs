//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer's public API, timed from the
//! benchmark's side of the call. Spans nest: the span open when another
//! starts becomes its parent. Spans of one cell (one simulated run)
//! share a cell id. Nothing is written until [`Tracer::write_tsv`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans while enabled; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: calls, summed duration and summed self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` for cell `cell` as a child of the
    /// innermost open span.
    pub fn enter(&mut self, name: &'static str, cell: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else {
            return;
        };
        let end = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, cell: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, cell);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |sum, d| sum + d)
    }

    /// Self time of each span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end - span.start - covered).as_secs_f64()
            })
            .collect()
    }

    /// Calls, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.total_s += span.secs();
            t.self_s += self_s;
        }
        out
    }

    /// Writes every span as one TSV row (times in µs from the start of
    /// the run).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tcell\tname\tstart_us\tend_us\tdur_us\tself_us\n");
        for (id, (span, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
                span.cell,
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                span.secs() * 1e6,
                self_s * 1e6
            );
        }
        std::fs::write(path, out)
    }
}
