//! Outside-in spans: recorded by the benchmark around its own calls into
//! each layer's public API, kept in memory, written out when the run ends.

use crate::json::{obj, Value};
use std::path::Path;
use std::time::Instant;

/// "No parent" / "no query" marker.
pub const NONE: u32 = u32::MAX;

/// Spans beyond this many are counted but not written, so a 100k-query
/// wire run leaves a file one can still open.
const MAX_WRITTEN: usize = 60_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Index of the timed query this span belongs to (spans of one request
    /// share it), or [`NONE`].
    query: u32,
    /// Index of the span that caused this one, or [`NONE`].
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span log of one traced run.  A disabled log (untraced
/// runs) records nothing, so end-to-end numbers never pay for tracing.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// Nanoseconds of `t` since this log's epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one finished span and returns its index (for children to
    /// name as their parent).
    pub fn push(
        &mut self,
        name: &'static str,
        query: u32,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as one top-level span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, NONE, NONE, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Writes `trace-<workload>.json` into `dir`: the spans (name, start,
    /// end, parent, query) plus the per-layer metrics derived from them.
    pub fn write(
        &self,
        dir: &Path,
        workload: &str,
        env: Value,
        metrics: &[(String, f64)],
    ) -> std::io::Result<()> {
        let opt = |v: u32| {
            if v == NONE {
                Value::Null
            } else {
                Value::Num(v as f64)
            }
        };
        let spans = self
            .spans
            .iter()
            .take(MAX_WRITTEN)
            .map(|s| {
                obj([
                    ("name", Value::Str(s.name.to_owned())),
                    ("query", opt(s.query)),
                    ("parent", opt(s.parent)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let doc = obj([
            ("workload", Value::Str(workload.to_owned())),
            ("env", env),
            ("spans_recorded", Value::Num(self.spans.len() as f64)),
            (
                "spans_written",
                Value::Num(self.spans.len().min(MAX_WRITTEN) as f64),
            ),
            (
                "metrics",
                obj(metrics.iter().map(|(k, v)| (k.clone(), Value::Num(*v)))),
            ),
            ("spans", Value::Arr(spans)),
        ]);
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("trace-{workload}.json")),
            doc.render() + "\n",
        )
    }
}
