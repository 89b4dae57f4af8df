//! The `trace` subcommand: summarize a `--trace` JSONL file.
//!
//! Reads the flow-lifecycle events, repair-span records, given-up chunk
//! records, and the engine profile footer written by `repair --trace` /
//! `sweep --trace` — plus the repair-ledger, data-loss and budget-starved
//! records written by `orchestrate --ledger` — and prints per-class event
//! counts, delivered bytes, abort causes, span latency percentiles, ledger
//! state tallies, clamped budget negotiations, and the engine counters.
//! Lines are read with the workspace's one flat-JSON field reader
//! ([`chameleon_simnet::trace::field`]).

use std::collections::BTreeMap;

use chameleon_bench::flags::{Command, Flags};
use chameleon_cluster::stats::LatencySummary;
use chameleon_simnet::trace::{num, text};
use chameleon_simnet::EngineProfile;

/// `trace`'s flags.
pub const COMMAND: Command = Command {
    name: "trace",
    about: "Summarize a JSONL trace written by repair/sweep --trace or orchestrate --ledger",
    flags: &[("file", "", "the .jsonl file to summarize")],
};

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<(), String> {
    let path = flags.str("file");
    if path.is_empty() {
        return Err("trace needs --file <trace.jsonl> (write one with `repair --trace`)".into());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let summary = summarize(&text)?;
    print!("{}", summary.render(path));
    Ok(())
}

/// Per-traffic-class event tallies.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct ClassCounts {
    admitted: usize,
    rate_changed: usize,
    completed: usize,
    aborted: usize,
    bytes_completed: f64,
}

/// Everything `render` needs, parsed out of one JSONL trace.
#[derive(Debug, Default)]
struct TraceSummary {
    lines: usize,
    classes: BTreeMap<String, ClassCounts>,
    abort_causes: BTreeMap<String, usize>,
    span_secs: Vec<f64>,
    span_retries: usize,
    given_up: usize,
    /// Terminal-state tallies from `orchestrate` ledger records.
    ledger_states: BTreeMap<String, usize>,
    data_loss_events: usize,
    /// Budget negotiations the orchestrator clamped up to its floor.
    budget_starved: usize,
    campaign_runs: usize,
    first_at: f64,
    last_at: f64,
    /// Engine counters summed over every profile footer (a sweep trace
    /// concatenates several runs, each with its own footer).
    profile: EngineProfile,
    profile_runs: usize,
}

fn summarize(jsonl: &str) -> Result<TraceSummary, String> {
    let mut s = TraceSummary {
        first_at: f64::INFINITY,
        last_at: f64::NEG_INFINITY,
        ..TraceSummary::default()
    };
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        s.lines += 1;
        let event = text(line, "event")
            .ok_or_else(|| format!("line {}: no \"event\" field: {line}", i + 1))?;
        if let Some(at) = num(line, "at") {
            s.first_at = s.first_at.min(at);
            s.last_at = s.last_at.max(at);
        }
        match event {
            "admitted" | "rate_changed" | "completed" | "aborted" => {
                let class = text(line, "class")
                    .ok_or_else(|| format!("line {}: flow event without \"class\"", i + 1))?;
                let c = s.classes.entry(class.to_string()).or_default();
                match event {
                    "admitted" => c.admitted += 1,
                    "rate_changed" => c.rate_changed += 1,
                    "completed" => {
                        c.completed += 1;
                        c.bytes_completed += num(line, "bytes").unwrap_or(0.0);
                    }
                    _ => {
                        c.aborted += 1;
                        let cause = text(line, "cause").unwrap_or("unknown");
                        *s.abort_causes.entry(cause.to_string()).or_default() += 1;
                    }
                }
            }
            "span" => {
                let start = num(line, "start")
                    .ok_or_else(|| format!("line {}: span without \"start\"", i + 1))?;
                let end = num(line, "end")
                    .ok_or_else(|| format!("line {}: span without \"end\"", i + 1))?;
                s.span_secs.push(end - start);
                s.first_at = s.first_at.min(start);
                s.last_at = s.last_at.max(end);
                if num(line, "attempts").unwrap_or(1.0) > 1.0 {
                    s.span_retries += 1;
                }
            }
            "given_up" => s.given_up += 1,
            "ledger" => {
                let state = text(line, "state").unwrap_or("unknown");
                *s.ledger_states.entry(state.to_string()).or_default() += 1;
            }
            "data_loss" => {
                s.data_loss_events += 1;
                if let Some(t) = num(line, "t") {
                    s.first_at = s.first_at.min(t);
                    s.last_at = s.last_at.max(t);
                }
            }
            "budget_starved" => s.budget_starved += 1,
            "run" => s.campaign_runs += 1,
            "profile" => {
                s.profile_runs += 1;
                s.profile.add_json_line(line);
            }
            other => return Err(format!("line {}: unknown event kind `{other}`", i + 1)),
        }
    }
    if s.lines == 0 {
        return Err("trace file is empty".into());
    }
    Ok(s)
}

impl TraceSummary {
    fn render(&self, path: &str) -> String {
        let mut out = format!("trace: {path} ({} records)\n", self.lines);
        if self.first_at.is_finite() {
            out.push_str(&format!(
                "  time span       : {:.3} .. {:.3} s\n",
                self.first_at, self.last_at
            ));
        }
        for (class, c) in &self.classes {
            out.push_str(&format!(
                "  class {class:<9} : {} admitted, {} rate changes, {} completed \
                 ({:.1} MB), {} aborted\n",
                c.admitted,
                c.rate_changed,
                c.completed,
                c.bytes_completed / 1e6,
                c.aborted
            ));
        }
        for (cause, n) in &self.abort_causes {
            out.push_str(&format!("  aborts [{cause}] : {n}\n"));
        }
        if let Some(lat) = LatencySummary::from_samples(&self.span_secs) {
            out.push_str(&format!(
                "  repair spans    : {} chunks, p50/p95/p99 {:.3} / {:.3} / {:.3} s \
                 (max {:.3}), {} retried\n",
                lat.count, lat.p50, lat.p95, lat.p99, lat.max, self.span_retries
            ));
        }
        if self.given_up > 0 {
            out.push_str(&format!("  given up        : {} chunks\n", self.given_up));
        }
        if !self.ledger_states.is_empty() {
            let states = self
                .ledger_states
                .iter()
                .map(|(state, n)| format!("{state}={n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let runs = if self.campaign_runs > 0 {
                format!(" over {} campaign(s)", self.campaign_runs)
            } else {
                String::new()
            };
            out.push_str(&format!("  repair ledger   : {states}{runs}\n"));
        }
        if self.data_loss_events > 0 {
            out.push_str(&format!(
                "  data loss       : {} stripe event(s)\n",
                self.data_loss_events
            ));
        }
        if self.budget_starved > 0 {
            out.push_str(&format!(
                "  budget starved  : {} negotiation(s) clamped\n",
                self.budget_starved
            ));
        }
        if self.profile_runs > 0 {
            out.push_str(&format!(
                "  engine profile  : {} run(s): {}\n",
                self.profile_runs, self.profile
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_a_minimal_trace() {
        let text = "\
{\"at\":0,\"flow\":1,\"class\":\"repair\",\"src\":0,\"dst\":4,\"event\":\"admitted\",\"bytes\":100}\n\
{\"at\":2,\"flow\":1,\"class\":\"repair\",\"src\":0,\"dst\":4,\"event\":\"completed\",\"bytes\":100}\n\
{\"at\":0,\"flow\":2,\"class\":\"client\",\"src\":1,\"dst\":4,\"event\":\"admitted\",\"bytes\":50}\n\
{\"at\":1,\"flow\":2,\"class\":\"client\",\"src\":1,\"dst\":4,\"event\":\"aborted\",\"cause\":\"node_failure\",\"remaining\":25}\n\
{\"event\":\"span\",\"stripe\":0,\"chunk\":1,\"start\":0.5,\"end\":2,\"attempts\":2}\n\
{\"event\":\"given_up\",\"stripe\":3,\"chunk\":0,\"attempts\":5}\n\
{\"event\":\"run\",\"label\":\"priority/CR/seed1\"}\n\
{\"event\":\"data_loss\",\"stripe\":7,\"t\":3.5,\"erasures\":3}\n\
{\"event\":\"ledger\",\"stripe\":0,\"chunk\":1,\"state\":\"repaired\",\"attempts\":1,\"enqueued\":0.5,\"updated\":2,\"requeues\":0}\n\
{\"event\":\"ledger\",\"stripe\":7,\"chunk\":2,\"state\":\"lost\",\"attempts\":0,\"enqueued\":3.5,\"updated\":3.5,\"requeues\":0}\n\
{\"event\":\"profile\",\"events\":10,\"flow_completions\":1,\"flow_aborts\":1,\"timer_fires\":0,\"solves\":4,\"full_solves\":1,\"incremental_solves\":3,\"elided_solves\":2,\"solve_retries\":1,\"dirty_groups\":5,\"solver_rounds\":6,\"heap_rebuilds\":1,\"timers_scheduled\":0,\"timers_cancelled\":0}\n";
        let s = summarize(text).unwrap();
        assert_eq!(s.lines, 11);
        let repair = s.classes["repair"];
        assert_eq!(
            (repair.admitted, repair.completed, repair.aborted),
            (1, 1, 0)
        );
        assert_eq!(repair.bytes_completed, 100.0);
        let client = s.classes["client"];
        assert_eq!(
            (client.admitted, client.completed, client.aborted),
            (1, 0, 1)
        );
        assert_eq!(s.abort_causes["node_failure"], 1);
        assert_eq!(s.span_secs, vec![1.5]);
        assert_eq!(s.span_retries, 1);
        assert_eq!(s.given_up, 1);
        assert_eq!(s.campaign_runs, 1);
        assert_eq!(s.data_loss_events, 1);
        assert_eq!(s.ledger_states["repaired"], 1);
        assert_eq!(s.ledger_states["lost"], 1);
        assert_eq!((s.first_at, s.last_at), (0.0, 3.5));
        assert_eq!(s.profile_runs, 1);
        let p = s.profile;
        assert_eq!(
            (p.solver_rounds, p.full_solves, p.incremental_solves),
            (6, 1, 3)
        );
        assert_eq!(
            (p.elided_solves, p.solve_retries, p.dirty_groups),
            (2, 1, 5)
        );
        let rendered = s.render("t.jsonl");
        assert!(rendered.contains("repair spans"), "{rendered}");
        assert!(rendered.contains("engine profile"), "{rendered}");
        assert!(
            rendered.contains("elided_solves=2 solve_retries=1 dirty_groups=5 pruned_groups=0 "),
            "{rendered}"
        );
        assert!(rendered.contains("given up"), "{rendered}");
        assert!(
            rendered.contains("lost=1, repaired=1") && rendered.contains("over 1 campaign(s)"),
            "{rendered}"
        );
        assert!(rendered.contains("1 stripe event(s)"), "{rendered}");
    }

    /// The footer, the summarizer's sums and both human lines come from
    /// the one field list on `EngineProfile`.
    #[test]
    fn profile_footers_read_back_and_sum_field_by_field() {
        let profile = |base: u64| {
            let mut p = EngineProfile::default();
            p.add_json_line(
                &EngineProfile::FIELDS
                    .iter()
                    .enumerate()
                    .fold(String::from("{\"event\":\"profile\""), |line, (i, key)| {
                        format!("{line},\"{key}\":{}", base + i as u64)
                    }),
            );
            p
        };
        let (a, b) = (profile(100), profile(7_000));
        assert_eq!(EngineProfile::FIELDS.len(), 15);
        let a_values: Vec<u64> = a.values().collect();
        assert_eq!(
            a_values,
            (100..115).collect::<Vec<u64>>(),
            "distinct values"
        );
        let footer = a.to_json_line();
        assert_eq!(text(&footer, "event"), Some("profile"));
        for (key, value) in EngineProfile::FIELDS.iter().zip(a.values()) {
            assert_eq!(num(&footer, key), Some(value as f64), "{key} of {footer}");
        }

        let s = summarize(&format!("{footer}\n{}\n", b.to_json_line())).unwrap();
        assert_eq!(s.profile_runs, 2);
        let sums: Vec<u64> = a.values().zip(b.values()).map(|(x, y)| x + y).collect();
        assert_eq!(s.profile.values().collect::<Vec<_>>(), sums);
        let rendered = s.render("t.jsonl");
        let line = rendered
            .lines()
            .find(|l| l.contains("engine profile"))
            .unwrap();
        let shown = s.profile.to_string();
        assert!(line.ends_with(&format!("2 run(s): {shown}")), "{line}");
        assert_eq!(
            crate::commands::repair::engine_line(&s.profile),
            format!("engine: {shown}")
        );
    }

    /// Every record kind a product writer emits reads back: one line of
    /// each, rendered by the writer itself, not spelled out by hand.
    #[test]
    fn every_record_kind_the_product_writes_summarizes() {
        use chameleon_cluster::ChunkId;
        use chameleon_core::{
            BudgetStarvedEvent, DataLossEvent, GivenUpChunk, LedgerEntry, LedgerState, RepairSpan,
        };
        use chameleon_simnet::trace::{AbortCause, TraceEvent, TraceEventKind};
        use chameleon_simnet::Traffic;

        let flow = |kind| TraceEvent {
            at_secs: 1.0,
            flow: 3,
            tag: Traffic::Repair,
            src: 0,
            dst: 4,
            kind,
        };
        let lines = [
            flow(TraceEventKind::Admitted { bytes: 64.0 }).to_json_line(),
            flow(TraceEventKind::RateChanged { rate: 8.0 }).to_json_line(),
            flow(TraceEventKind::Completed { bytes: 64.0 }).to_json_line(),
            flow(TraceEventKind::Aborted {
                cause: AbortCause::Cancelled,
                remaining: 2.0,
            })
            .to_json_line(),
            RepairSpan {
                stripe: 0,
                index: 1,
                started_secs: 0.5,
                finished_secs: 2.0,
                attempts: 1,
            }
            .to_json_line(),
            GivenUpChunk {
                stripe: 2,
                index: 0,
                attempts: 3,
            }
            .to_json_line(),
            EngineProfile::default().to_json_line(),
            DataLossEvent {
                stripe: 7,
                at_secs: 3.5,
                erasures: 3,
            }
            .to_json_line(),
            BudgetStarvedEvent {
                at_secs: 4.0,
                negotiated_rate: 1.0,
                clamped_rate: 2.0,
            }
            .to_json_line(),
            LedgerEntry {
                state: LedgerState::Repaired,
                attempts: 1,
                enqueued_secs: 0.5,
                updated_secs: 2.0,
                requeues: 0,
            }
            .to_json_line(ChunkId {
                stripe: 0,
                index: 1,
            }),
            chameleon_bench::experiments::exp17::run_line("priority/CR/seed1"),
        ];
        let s = summarize(&(lines.join("\n") + "\n")).unwrap();
        assert_eq!(s.lines, lines.len());
        let c = s.classes["repair"];
        assert_eq!([c.admitted, c.rate_changed, c.completed, c.aborted], [1; 4]);
        assert_eq!(
            (s.abort_causes["cancelled"], &s.span_secs[..]),
            (1, &[1.5][..])
        );
        assert_eq!([s.given_up, s.profile_runs, s.data_loss_events], [1; 3]);
        assert_eq!(
            [
                s.budget_starved,
                s.ledger_states["repaired"],
                s.campaign_runs
            ],
            [1; 3]
        );
        let rendered = s.render("t.jsonl");
        assert!(
            rendered.contains("  budget starved  : 1 negotiation(s) clamped\n"),
            "{rendered}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(summarize("").is_err());
        assert!(summarize("{\"no_event\":1}\n").is_err());
        assert!(summarize("{\"event\":\"martian\"}\n").is_err());
    }
}
