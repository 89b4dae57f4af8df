//! In-memory span recorder for the traced pass.
//!
//! Coarse calls (set-up, `start`, the event loop, outcome capture) are
//! recorded as individual spans with a parent. Calls made once per
//! simulator event are far too many for that, so each boundary is
//! aggregated per cell as count, sum and max. Everything stays in memory
//! and is written out once, when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `layer.call`, or `cell:<label>` / `pass` for the structural spans.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
}

/// Count, sum and max of one per-event boundary within one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls made.
    pub count: u64,
    /// Total nanoseconds inside the calls.
    pub sum_ns: u64,
    /// Longest single call.
    pub max_ns: u64,
}

impl Agg {
    /// Accounts one call that ran from `from` to `to`.
    #[inline]
    pub fn add(&mut self, from: Instant, to: Instant) {
        let ns = to.duration_since(from).as_nanos() as u64;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total seconds inside the calls.
    pub fn secs(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }
}

/// Collects spans and aggregates for one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `(cell span id, boundary, aggregate)`
    aggregates: Vec<(usize, &'static str, Agg)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the traced loop).
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every span opened inside `keep` that a panic left open.
    pub fn unwind_to(&mut self, keep: usize) {
        while self.open.last().is_some_and(|&id| id != keep) {
            let id = self.open.pop().expect("checked non-empty");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records `f` as a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let value = f();
        self.close(id);
        value
    }

    /// Files a per-event aggregate under the innermost open span.
    pub fn aggregate(&mut self, boundary: &'static str, agg: Agg) {
        let owner = *self.open.last().expect("aggregates belong to an open span");
        self.aggregates.push((owner, boundary, agg));
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name`, summed.
    pub fn span_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The aggregate of `boundary` summed over every cell.
    pub fn total(&self, boundary: &str) -> Agg {
        let mut total = Agg::default();
        for (_, name, agg) in &self.aggregates {
            if *name == boundary {
                total.count += agg.count;
                total.sum_ns += agg.sum_ns;
                total.max_ns = total.max_ns.max(agg.max_ns);
            }
        }
        total
    }

    /// Spans and aggregates as JSON arrays.
    pub fn to_json(&self) -> (Json, Json) {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(&*s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|(owner, boundary, agg)| {
                Json::obj([
                    ("span", Json::Num(*owner as f64)),
                    ("boundary", Json::str(*boundary)),
                    ("count", Json::Num(agg.count as f64)),
                    ("sum_ns", Json::Num(agg.sum_ns as f64)),
                    ("max_ns", Json::Num(agg.max_ns as f64)),
                ])
            })
            .collect();
        (Json::Arr(spans), Json::Arr(aggregates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregates_attach_to_the_open_span() {
        let mut rec = Recorder::default();
        let outer = rec.open("cell:x");
        rec.span("core.start", || ());
        let t = Instant::now();
        let mut agg = Agg::default();
        agg.add(t, t);
        agg.add(t, Instant::now());
        rec.aggregate("simnet.next_event", agg);
        rec.close(outer);
        assert_eq!(rec.spans()[1].parent, Some(outer));
        assert_eq!(rec.total("simnet.next_event").count, 2);
        assert_eq!(rec.span_count("core.start"), 1);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
    }
}
