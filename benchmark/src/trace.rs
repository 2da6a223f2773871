//! Span recorder for the traced run. Spans are kept in memory and written
//! out once, at the end; nothing here runs while end-to-end numbers are
//! measured.
//!
//! A span covers one call from the benchmark into a layer's public
//! functions. Spans of one request share its index; a span opened while
//! another is open is its child.

use crate::json::Json;
use std::time::Instant;

/// Request index of a span that covers a whole pass, not one request.
pub const WHOLE_RUN: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, request: usize, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: now,
            end_ns: now,
            counters: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, request: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(request, name);
        let out = f();
        self.end(id);
        out
    }

    /// Attach a count to a span, at the boundary where the work happened.
    pub fn count(&mut self, id: usize, name: &'static str, value: f64) {
        self.spans[id].counters.push((name, value));
    }

    /// The most recently opened span.
    pub fn last_id(&self) -> usize {
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ms).sum()
    }

    /// Every value of counter `counter` on the spans called `name`.
    pub fn counts<'a>(&'a self, name: &'a str, counter: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.named(name)
            .flat_map(|s| s.counters.iter())
            .filter(move |(c, _)| *c == counter)
            .map(|(_, v)| *v)
    }

    /// Sum of counter `counter` over the spans called `name`.
    pub fn total_count(&self, name: &str, counter: &str) -> f64 {
        self.counts(name, counter).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ms)
            .sum();
        self.spans[id].duration_ms() - children
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Int(s.id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::str("none"), |p| Json::Int(p as u64)),
                        ),
                        (
                            "request",
                            match s.request {
                                WHOLE_RUN => Json::str("all"),
                                r => Json::Int(r as u64),
                            },
                        ),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ms", Json::Num(self.self_ms(s.id))),
                        (
                            "counters",
                            Json::obj(s.counters.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut rec = Recorder::new();
        let outer = rec.begin(7, "request");
        let inner = rec.begin(7, "sql.parse");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.count(inner, "statements", 3.0);
        rec.end(inner);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(spans[inner].duration_ms() >= 2.0);
        let expected = spans[outer].duration_ms() - spans[inner].duration_ms();
        assert!((rec.self_ms(outer) - expected).abs() < 1e-9);
        assert_eq!(rec.total_count("sql.parse", "statements"), 3.0);
    }
}
