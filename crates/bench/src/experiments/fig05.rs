//! Fig. 5 (§II-D): fluctuation of the bandwidth occupied by the
//! foreground traffic, in consecutive 15-second windows, per node and
//! direction.
//!
//! Paper result: foreground bandwidth fluctuates by ~1.1 Gb/s on average
//! per window and up to 3.6 Gb/s — repair plans that ignore this cannot
//! react to contention.

use chameleon_simnet::{ResourceKind, Traffic};
use chameleon_traces::TraceKind;

use super::rs;
use crate::grid::run_grid;
use crate::runner::{run_foreground_only, FgSpec};
use crate::table::{Report, Table};
use crate::Scale;

/// Runs the study at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let code = rs(10, 4);
    let mut cfg = scale.cluster_config(14);
    // The paper analyses 15 s windows over a multi-minute run; at small
    // scale the trace replay is shorter, so shrink the window to keep a
    // comparable number of windows per run.
    if scale.name() == "small" {
        cfg.monitor_window_secs = 1.0;
    }

    let mut report = Report::default();
    report.note(format!(
        "Fig. 5: foreground bandwidth fluctuation per {}s window (scale '{}')",
        cfg.monitor_window_secs,
        scale.name()
    ));

    let traces: Vec<TraceKind> = TraceKind::ALL.to_vec();
    let per_trace = run_grid(&traces, jobs, |&trace| {
        let (_, sim) = run_foreground_only(
            code.clone(),
            cfg.clone(),
            FgSpec::uniform(trace, scale.clients, scale.requests_per_client),
        );
        let m = sim.monitor();
        let mut trace_rows = Vec::new();
        for (dir, kind) in [
            ("uplink", ResourceKind::Uplink),
            ("downlink", ResourceKind::Downlink),
        ] {
            // Fluctuation per storage node; report avg / max / min in Gb/s.
            let flucts: Vec<f64> = (0..20)
                .map(|node| m.fluctuation(node, kind, Traffic::Foreground) * 8.0 / 1e9)
                .collect();
            let avg = flucts.iter().sum::<f64>() / flucts.len() as f64;
            let max = flucts.iter().cloned().fold(f64::MIN, f64::max);
            let min = flucts.iter().cloned().fold(f64::MAX, f64::min);
            trace_rows.push(vec![
                trace.name().to_string(),
                dir.to_string(),
                format!("{avg:.2}"),
                format!("{max:.2}"),
                format!("{min:.2}"),
            ]);
        }
        trace_rows
    });

    let mut table = Table::new(
        "fig05_fluctuation",
        "foreground bandwidth fluctuation (Gb/s per window)",
        &[
            ("trace", "trace"),
            ("direction", "direction"),
            ("avg", "avg_gbps"),
            ("max", "max_gbps"),
            ("min", "min_gbps"),
        ],
    );
    for row in per_trace.into_iter().flatten() {
        table.push(row);
    }
    report.tables.push(table);
    report.note(
        "shape check: nonzero fluctuation everywhere; bursty traces (IBM-COS) fluctuate most.",
    );
    report
}
