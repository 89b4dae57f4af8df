//! Trace ↔ outcome reconciliation: the JSONL observability records a
//! traced run emits must agree with the `RepairOutcome` the driver
//! reports for the same run.
//!
//! - Every span line covers the same attempt as the matching
//!   `per_chunk_secs` entry, so `end - start` equals it exactly.
//! - Under an injected crash, the repair-class `aborted` events in the
//!   trace are the same flows `RecoveryStats::aborted_flows` books —
//!   the counts must be equal (a static driver never cancels repair
//!   flows outside failure recovery, so there is no other source of
//!   repair aborts).

use std::sync::Arc;

use chameleon_bench::{AlgoKind, FgSpec, RunOutput, RunSpec, Scale};
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_simnet::FaultPlan;

/// PPR (the static Tree driver, seed 7) repairing node 0 of a small
/// RS(4,2) cluster under two clients, traced.
fn traced_ppr_run(faults: Option<FaultPlan>) -> RunOutput {
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let mut scale = Scale::small();
    scale.chunks_per_node = 2;
    scale.clients = 2;
    scale.requests_per_client = 100;
    let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
    let mut spec =
        RunSpec::new("", code, scale.cluster_config(6), AlgoKind::Ppr, Some(fg)).with_trace();
    spec.faults = faults;
    spec.execute()
}

/// Asserts the JSONL is structurally sound and its records agree with
/// the outcome; returns the repair-class aborted-event count.
fn reconcile(out: &RunOutput) -> usize {
    let jsonl = out.trace_jsonl().expect("traced run must carry a trace");

    // Parseable: every line is one flat JSON object with an event kind.
    let mut span_lines = 0usize;
    let mut profile_lines = 0usize;
    let mut repair_aborts = 0usize;
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"event\":\""),
            "malformed trace line: {line}"
        );
        if line.contains("\"event\":\"span\"") {
            span_lines += 1;
        } else if line.contains("\"event\":\"profile\"") {
            profile_lines += 1;
        } else if line.contains("\"event\":\"aborted\"") && line.contains("\"class\":\"repair\"") {
            repair_aborts += 1;
        }
    }
    assert_eq!(profile_lines, 1, "exactly one engine-profile footer");

    // Spans reconcile with the outcome, duration-for-duration.
    let outcome = &out.outcome;
    assert_eq!(span_lines, outcome.spans.len());
    assert_eq!(outcome.spans.len(), outcome.per_chunk_secs.len());
    assert!(
        !outcome.spans.is_empty(),
        "repair must have repaired chunks"
    );
    for (span, &secs) in outcome.spans.iter().zip(&outcome.per_chunk_secs) {
        assert_eq!(
            span.duration_secs(),
            secs,
            "span for stripe {} chunk {} disagrees with per_chunk_secs",
            span.stripe,
            span.index
        );
    }
    repair_aborts
}

#[test]
fn clean_traced_run_reconciles_and_has_no_repair_aborts() {
    let out = traced_ppr_run(None);
    let aborts = reconcile(&out);
    assert_eq!(aborts, 0);
    assert_eq!(out.outcome.recovery.aborted_flows, 0);
}

#[test]
fn faulted_traced_runs_reconcile_abort_counts() {
    // Crash each candidate helper in turn shortly after the campaign
    // starts; whichever crashes land on active helpers must produce
    // trace aborts that match the recovery ledger exactly, and at least
    // one candidate must actually hit in-flight repair flows.
    let mut total_aborts = 0usize;
    for node in 1..=5usize {
        let faults = FaultPlan::parse_list(&format!("crash:{node}@0.05")).unwrap();
        let out = traced_ppr_run(Some(faults));
        let aborts = reconcile(&out);
        assert_eq!(
            aborts, out.outcome.recovery.aborted_flows,
            "crash of node {node}: trace aborts vs RecoveryStats.aborted_flows"
        );
        total_aborts += aborts;
    }
    assert!(
        total_aborts > 0,
        "no candidate crash aborted any repair flow — the scenario tests nothing"
    );
}
