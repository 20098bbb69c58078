//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, an optional label (the
//! synthesizer or paper it served), the cell or request it belongs to, its
//! parent span and its interval. Spans stay in memory until the run ends and
//! are then written out as JSON lines.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use synrd_store::JsonValue;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub label: &'static str,
    /// The cell or request the span belongs to.
    pub group: u64,
    /// Seconds since the tracer started.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id, for callers that open a span before its children.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        label: &'static str,
        group: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id();
        let start = self.now();
        let out = f(id);
        self.record(Span {
            id,
            parent,
            name,
            label,
            group,
            start,
            end: self.now(),
        });
        out
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = JsonValue::obj(vec![
                ("id", JsonValue::Uint(s.id)),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::Uint)),
                ("name", JsonValue::Str(s.name.to_string())),
                ("label", JsonValue::Str(s.label.to_string())),
                ("group", JsonValue::Uint(s.group)),
                ("start_s", JsonValue::Num(s.start)),
                ("end_s", JsonValue::Num(s.end)),
            ]);
            writeln!(out, "{}", line.to_text())?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`.
fn union_length(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0.0, |kids| {
                union_length(
                    kids.into_iter()
                        .map(|(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect(),
                )
            });
            (s.id, (s.duration() - covered).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            label: "",
            group: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            // Two overlapping children covering [1, 5], one disjoint [7, 8].
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 2.0, 5.0),
            span(4, Some(1), 7.0, 8.0),
            // A grandchild only reduces its own parent.
            span(5, Some(2), 1.5, 2.5),
            // A child running past its parent is clipped to the parent.
            span(6, None, 20.0, 22.0),
            span(7, Some(6), 21.0, 30.0),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 5.0).abs() < 1e-12);
        assert!((st[&2] - 2.0).abs() < 1e-12);
        assert!((st[&3] - 3.0).abs() < 1e-12);
        assert!((st[&5] - 1.0).abs() < 1e-12);
        assert!((st[&6] - 1.0).abs() < 1e-12);
        assert!((st[&7] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn spans_record_parent_and_interval() {
        let tracer = Tracer::new();
        let inner_parent = tracer.span("outer", "", 3, None, |id| {
            tracer.span("inner", "MST", 3, Some(id), |_| ());
            id
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(inner_parent));
        assert_eq!(outer.id, inner_parent);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(inner.label, "MST");
    }
}
