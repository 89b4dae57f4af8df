//! Structured flow-lifecycle tracing and engine self-profiling.
//!
//! The observability layer the rest of the workspace builds on:
//!
//! - [`TraceSink`] — an opt-in buffer of [`TraceEvent`]s the engine pushes
//!   into as flows are admitted, re-rated, completed, or aborted. Tracing
//!   is **off by default and zero-cost when off**: the engine holds an
//!   `Option<TraceSink>` and every hook is a single `if let Some` guard
//!   around a `Vec::push`; no event is formatted or allocated unless
//!   [`Simulator::set_trace_enabled`](crate::Simulator::set_trace_enabled)
//!   was called.
//! - [`EngineProfile`] — self-profiling counters (events delivered, solver
//!   invocations and progressive-filling rounds, completion-heap rebuilds,
//!   timer churn) maintained unconditionally; they are plain integer
//!   increments on paths that already touch the counted structure.
//!
//! # Determinism
//!
//! The event stream is a pure function of the simulation: hooks fire in
//! the engine's deterministic execution order and never influence it, so
//! two runs of the same spec produce byte-identical traces. Downstream
//! (the bench grid, the CLI) this is preserved by buffering each run's
//! trace with its result slot and rendering in spec order — never from
//! worker threads.
//!
//! # Serialization
//!
//! [`TraceEvent::to_json_line`] renders the canonical JSONL schema used by
//! `--trace out.jsonl` and the `trace` summarize subcommand; keeping the
//! writer next to the event type means there is exactly one copy of the
//! schema in the workspace. [`field`] / [`num`] / [`text`] read a value
//! back out of one such line — of any flat JSON line the workspace writes
//! (trace, span, ledger, `BENCH_*` level lines), with or without a space
//! after the colon.

use crate::node::{NodeId, Traffic};

/// Why a flow ended without delivering all of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// A node the flow traversed failed
    /// ([`Simulator::fail_node`](crate::Simulator::fail_node)), or the flow
    /// was admitted against an already-failed node.
    NodeFailure,
    /// The driver cancelled the flow
    /// ([`Simulator::cancel_flow`](crate::Simulator::cancel_flow)) — e.g. a
    /// repair executor tearing down its siblings after one flow died.
    Cancelled,
}

impl AbortCause {
    /// Stable lowercase label used in the JSONL schema.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::NodeFailure => "node_failure",
            AbortCause::Cancelled => "cancelled",
        }
    }
}

/// What happened to the flow at this point of its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// The flow entered the simulation.
    Admitted {
        /// Total bytes the flow was asked to transfer.
        bytes: f64,
    },
    /// A rate solve assigned the flow a different max–min fair rate.
    RateChanged {
        /// The new rate, in bytes/s.
        rate: f64,
    },
    /// The flow delivered its final byte.
    Completed {
        /// Total bytes delivered (the admitted size).
        bytes: f64,
    },
    /// The flow ended early.
    Aborted {
        /// Why it was killed.
        cause: AbortCause,
        /// Bytes still undelivered when it died (wasted work).
        remaining: f64,
    },
}

impl TraceEventKind {
    /// Stable lowercase label used in the JSONL schema.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Admitted { .. } => "admitted",
            TraceEventKind::RateChanged { .. } => "rate_changed",
            TraceEventKind::Completed { .. } => "completed",
            TraceEventKind::Aborted { .. } => "aborted",
        }
    }
}

/// One structured flow-lifecycle event.
///
/// `src`/`dst` are the first and last constraint nodes of the flow's spec:
/// for a network flow that is the (source, destination) pair; for a
/// single-node disk flow both name the same node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event, in seconds.
    pub at_secs: f64,
    /// The flow's numeric id (unique within one simulation).
    pub flow: u64,
    /// The flow's traffic class.
    pub tag: Traffic,
    /// First constraint node (the source of a network flow).
    pub src: NodeId,
    /// Last constraint node (the destination of a network flow).
    pub dst: NodeId,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Renders the event as one JSON line (no trailing newline).
    ///
    /// Schema — common fields then one event-specific payload field:
    ///
    /// ```json
    /// {"at":1.25,"flow":3,"class":"repair","src":0,"dst":4,"event":"admitted","bytes":67108864}
    /// {"at":1.5,"flow":3,"class":"repair","src":0,"dst":4,"event":"rate_changed","rate":125000000}
    /// {"at":2,"flow":3,"class":"repair","src":0,"dst":4,"event":"completed","bytes":67108864}
    /// {"at":2,"flow":4,"class":"repair","src":1,"dst":4,"event":"aborted","cause":"node_failure","remaining":1024.5}
    /// ```
    ///
    /// Floats use Rust's shortest-roundtrip formatting, which is
    /// deterministic across runs and platforms — part of the trace
    /// determinism contract.
    pub fn to_json_line(&self) -> String {
        let head = format!(
            "{{\"at\":{},\"flow\":{},\"class\":\"{}\",\"src\":{},\"dst\":{},\"event\":\"{}\"",
            self.at_secs,
            self.flow,
            self.tag,
            self.src,
            self.dst,
            self.kind.label()
        );
        match self.kind {
            TraceEventKind::Admitted { bytes } => format!("{head},\"bytes\":{bytes}}}"),
            TraceEventKind::RateChanged { rate } => format!("{head},\"rate\":{rate}}}"),
            TraceEventKind::Completed { bytes } => format!("{head},\"bytes\":{bytes}}}"),
            TraceEventKind::Aborted { cause, remaining } => {
                format!(
                    "{head},\"cause\":\"{}\",\"remaining\":{remaining}}}",
                    cause.label()
                )
            }
        }
    }
}

/// An opt-in, in-memory buffer of flow-lifecycle events.
///
/// Plain data (`Vec` of [`TraceEvent`]): `Send + Sync`, clonable, safe to
/// carry across the bench grid's worker threads inside a run's result slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Appends an event (engine hook).
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// The recorded events, in engine execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Renders the whole sink as JSONL (one event per line, trailing
    /// newline after each).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Engine self-profiling counters.
///
/// Maintained unconditionally (they are integer increments on paths that
/// already exist); read with
/// [`Simulator::profile`](crate::Simulator::profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Events delivered by `next_event` (completions + aborts + timers).
    pub events: u64,
    /// Flows that delivered their final byte.
    pub flow_completions: u64,
    /// Flows killed by node failures or admission against a failed node.
    pub flow_aborts: u64,
    /// Timers that fired.
    pub timer_fires: u64,
    /// Rate solves that re-solved at least one group.
    pub solves: u64,
    /// Solves whose dirty closure covered every live group (including
    /// the first solve over a populated cluster).
    pub full_solves: u64,
    /// Solves that re-solved only a proper subset of the live groups.
    /// `full_solves + incremental_solves == solves`.
    pub incremental_solves: u64,
    /// Stale rate refreshes that re-solved nothing: the mutations since the
    /// last solve had cancelled out, or left only slack behind.
    /// `solves + elided_solves` is the number of stale refreshes.
    pub elided_solves: u64,
    /// Fill attempts discarded and redone because a resource that entered
    /// the closure with slack came out saturated.
    pub solve_retries: u64,
    /// Cumulative flow groups re-solved across all solves (the dirty
    /// closure sizes); `dirty_groups / solves` is the mean re-solve
    /// footprint.
    pub dirty_groups: u64,
    /// Total progressive-filling rounds across all solves.
    pub solver_rounds: u64,
    /// Wholesale completion-heap rebuilds (vs incremental pushes).
    pub heap_rebuilds: u64,
    /// Timers scheduled.
    pub timers_scheduled: u64,
    /// Timers cancelled while still pending.
    pub timers_cancelled: u64,
}

impl EngineProfile {
    /// Renders the profile as one JSON line (no trailing newline) — the
    /// `"event":"profile"` footer record of a `--trace` JSONL file.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"event\":\"profile\",\"events\":{},\"flow_completions\":{},\"flow_aborts\":{},\
             \"timer_fires\":{},\"solves\":{},\"full_solves\":{},\"incremental_solves\":{},\
             \"elided_solves\":{},\"solve_retries\":{},\
             \"dirty_groups\":{},\"solver_rounds\":{},\"heap_rebuilds\":{},\
             \"timers_scheduled\":{},\"timers_cancelled\":{}}}",
            self.events,
            self.flow_completions,
            self.flow_aborts,
            self.timer_fires,
            self.solves,
            self.full_solves,
            self.incremental_solves,
            self.elided_solves,
            self.solve_retries,
            self.dirty_groups,
            self.solver_rounds,
            self.heap_rebuilds,
            self.timers_scheduled,
            self.timers_cancelled
        )
    }
}

/// The raw value token under `key` on one flat JSON line — `1.25`, `true`,
/// or `"repair"` with its quotes — or `None` if the line has no such key.
///
/// A line-oriented scan over the workspace's own one-object-per-line
/// schema, deliberately not a JSON parser: values are numbers, booleans or
/// strings without escaped quotes, and whitespace around the colon is
/// optional. A string *value* that happens to spell `key` is not a match.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let mut from = 0;
    while let Some(at) = line[from..].find(&quoted) {
        from += at + quoted.len();
        let Some(value) = line[from..].trim_start().strip_prefix(':') else {
            continue;
        };
        let value = value.trim_start();
        let end = match value.strip_prefix('"') {
            Some(body) => body.find('"')? + 2,
            None => value.find([',', '}']).unwrap_or(value.len()),
        };
        return Some(value[..end].trim_end());
    }
    None
}

/// The number under `key`; `None` when absent or not a number.
pub fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// The string under `key`, without its quotes; `None` when absent or not
/// a string.
pub fn text<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_back_with_or_without_a_space_after_the_colon() {
        for line in [
            r#"{"at":1.25,"class":"repair","event":"admitted","bytes":67108864}"#,
            r#"    {"at": 1.25, "class" : "repair", "event": "admitted", "bytes": 67108864 }"#,
        ] {
            assert_eq!(field(line, "at"), Some("1.25"));
            assert_eq!(field(line, "class"), Some("\"repair\""));
            assert_eq!(num(line, "at"), Some(1.25));
            assert_eq!(num(line, "bytes"), Some(67108864.0));
            assert_eq!(text(line, "event"), Some("admitted"));
            assert_eq!(num(line, "missing"), None);
            assert_eq!(num(line, "class"), None, "a string is not a number");
            assert_eq!(text(line, "at"), None, "a number is not a string");
        }
        // A value that spells the key is skipped; the real key still reads.
        let line = r#"{"event":"span","span":7,"active": true}"#;
        assert_eq!(num(line, "span"), Some(7.0));
        assert_eq!(field(line, "active"), Some("true"));
        assert_eq!(field(r#"{"event":"span"}"#, "span"), None);
    }

    #[test]
    fn json_lines_match_schema() {
        let ev = TraceEvent {
            at_secs: 1.25,
            flow: 3,
            tag: Traffic::Repair,
            src: 0,
            dst: 4,
            kind: TraceEventKind::Admitted { bytes: 100.0 },
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"at\":1.25,\"flow\":3,\"class\":\"repair\",\"src\":0,\"dst\":4,\
             \"event\":\"admitted\",\"bytes\":100}"
        );
        let ev = TraceEvent {
            kind: TraceEventKind::Aborted {
                cause: AbortCause::NodeFailure,
                remaining: 12.5,
            },
            ..ev
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"at\":1.25,\"flow\":3,\"class\":\"repair\",\"src\":0,\"dst\":4,\
             \"event\":\"aborted\",\"cause\":\"node_failure\",\"remaining\":12.5}"
        );
    }

    #[test]
    fn sink_renders_one_line_per_event() {
        let mut sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.push(TraceEvent {
            at_secs: 0.0,
            flow: 0,
            tag: Traffic::Foreground,
            src: 1,
            dst: 2,
            kind: TraceEventKind::Completed { bytes: 7.0 },
        });
        assert_eq!(sink.len(), 1);
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.ends_with('\n'));
        assert!(jsonl.contains("\"event\":\"completed\""));
    }

    #[test]
    fn profile_footer_is_json() {
        let p = EngineProfile {
            events: 10,
            solves: 3,
            elided_solves: 2,
            solve_retries: 1,
            ..Default::default()
        };
        let line = p.to_json_line();
        assert!(line.starts_with("{\"event\":\"profile\""));
        assert!(line.contains("\"events\":10"));
        assert!(line.contains("\"solves\":3"));
        assert!(line.contains("\"elided_solves\":2,\"solve_retries\":1,"));
        assert!(line.ends_with('}'));
    }
}
