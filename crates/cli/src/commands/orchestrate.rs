//! The `orchestrate` subcommand: a continuous multi-failure repair
//! campaign from the command line.
//!
//! Unlike `repair`, nothing is failed up front: a seeded Poisson stream
//! of node crashes (with optional recovery) plays against the
//! cluster-wide [`chameleon_core::Orchestrator`] of [`run_orchestrated`],
//! which queues every lost chunk, admits repairs under a bandwidth
//! budget, and records the campaign in a persistent ledger — including
//! stripes that cross the data-loss threshold. The final report is the
//! measured reliability of the configuration: repairs, quarantines,
//! losses, and time to first loss.

use chameleon_bench::flags::{Command, Flags};
use chameleon_bench::run_orchestrated;
use chameleon_core::{BudgetPolicy, OrchestratorConfig, QueuePolicy};
use chameleon_simnet::{FaultPlan, FaultSpec};

use super::repair::{self, cluster_line, setup};

/// `orchestrate`'s flags.
pub const COMMAND: Command = Command {
    name: "orchestrate",
    about: "Run a multi-failure repair campaign under the cluster-wide orchestrator",
    flags: &[
        ("code", "rs:4,2", repair::CODE.2),
        repair::ALGO,
        repair::CHUNKS,
        repair::CLIENTS,
        repair::REQUESTS,
        repair::GBPS,
        repair::DISK_MBPS,
        repair::CHUNK_MB,
        repair::SEED,
        repair::TOPOLOGY,
        ("duration", "90", "fault-injection horizon in s"),
        ("mttf", "150", "mean time to failure per node, in s"),
        ("recover", "30", "s until a crashed node returns; 0: never"),
        ("policy", "priority", "fifo | priority"),
        (
            "budget",
            "unlimited",
            "unlimited | MB/s fixed rate | negotiated[:HEADROOM,FLOOR_MBPS]",
        ),
        ("max-in-flight", "8", "concurrent chunk repairs"),
        ("ledger", "", "write the repair ledger as JSONL here"),
    ],
};

/// The most crashes (`nodes × duration / mttf`) a campaign may expect: its
/// fault stream is drawn whole before the run starts.
const MAX_EXPECTED_CRASHES: f64 = 10_000.0;

/// Runs the subcommand.
pub fn run(flags: &Flags) -> Result<String, String> {
    let (spec, _) = setup(flags)?;
    let duration = flags.positive("duration")?;
    let mttf = flags.positive("mttf")?;
    let recover: f64 = flags.num("recover")?;
    let policy = flags.str("policy");
    let budget_spec = flags.str("budget");
    let max_in_flight: usize = flags.num("max-in-flight")?;
    let ledger_path = flags.str("ledger");

    if !recover.is_finite() || recover < 0.0 {
        return Err(format!(
            "--recover must be finite seconds, 0 for no recovery, got `{recover}`"
        ));
    }
    if max_in_flight == 0 {
        return Err("--max-in-flight must be at least 1".into());
    }
    let nodes = spec.cfg.storage_nodes;
    let expected_crashes = nodes as f64 * duration / mttf;
    if expected_crashes > MAX_EXPECTED_CRASHES {
        return Err(format!(
            "--duration {duration} and --mttf {mttf} expect {expected_crashes:.3e} crashes \
             over {nodes} nodes; at most {MAX_EXPECTED_CRASHES} are drawn"
        ));
    }
    let queue = match policy {
        "fifo" => QueuePolicy::Fifo,
        "priority" => QueuePolicy::RedundancyPriority,
        other => return Err(format!("unknown --policy `{other}` (fifo | priority)")),
    };
    let budget = parse_budget(budget_spec)?;

    let candidates: Vec<usize> = (0..nodes).collect();
    let faults = FaultPlan::seeded_poisson(
        spec.seed,
        &candidates,
        mttf,
        (0.0, duration),
        (recover > 0.0).then_some(recover),
    );
    let out = run_orchestrated(
        spec.code.clone(),
        spec.cfg.clone(),
        |ctx| spec.driver.build(ctx, spec.seed),
        OrchestratorConfig {
            queue,
            budget,
            max_in_flight,
            window_secs: 15.0,
        },
        spec.fg.clone(),
        &faults,
        false,
    );

    let crashes = faults
        .specs()
        .iter()
        .filter(|f| matches!(f, FaultSpec::Crash { .. }))
        .count();
    let recovery = if recover > 0.0 {
        format!("recovery after {recover:.0}s")
    } else {
        "no recovery".to_string()
    };
    let report = &out.report;
    let mut text = format!(
        "{}\ncampaign: {crashes} crashes over {duration:.0}s (MTTF {mttf:.0}s/node, {recovery}), \
         {policy} queue, {budget_spec} budget, {max_in_flight} in flight\n\
         \ncampaign: {} / {} queue / {} budget\n",
        cluster_line(flags, &spec)?,
        report.algorithm,
        report.queue_policy,
        report.budget_policy
    );
    let first_loss = report
        .first_loss_secs
        .map_or(String::new(), |t| format!(", first at {t:.2} s"));
    text += &format!(
        "  enqueued        : {}\n  dispatched      : {}\n  repaired        : {}\n  \
         restored        : {}\n  quarantined     : {}\n  lost chunks     : {}\n  \
         resurrected     : {}\n  data loss       : {} stripe event(s){first_loss}\n",
        report.enqueued,
        report.dispatched,
        report.repaired,
        report.restored,
        report.quarantined,
        report.lost_chunks,
        report.resurrected,
        report.data_loss_events
    );
    if report.negotiations > 0 {
        text += &format!(
            "  budget          : {} renegotiations, mean {:.1} MB/s\n",
            report.negotiations,
            report.mean_budget_rate / 1e6
        );
    }
    text += &format!(
        "  repair traffic  : {:.1} MB admitted\n  throughput      : {:.1} MB/s over {:.2} s\n",
        report.tokens_spent / 1e6,
        out.run.repair_mbps(),
        out.run.sim.end_secs()
    );
    if let (Some(fg_report), Some(fg)) = (&out.run.fg_report, &spec.fg) {
        text += &format!(
            "\nforeground ({} YCSB-A clients):\n  requests        : {}\n  \
             P99 latency     : {:.2} ms\n",
            fg.clients,
            fg_report.completed,
            out.run.p99_ms()
        );
    }

    if !ledger_path.is_empty() {
        let lines = out.ledger_jsonl.lines().count();
        std::fs::write(ledger_path, &out.ledger_jsonl)
            .map_err(|e| format!("cannot write --ledger file `{ledger_path}`: {e}"))?;
        text += &format!("ledger: {lines} records -> {ledger_path}\n");
    }
    Ok(text)
}

/// Parses `--budget`: `unlimited`, `negotiated[:HEADROOM,FLOOR_MBPS]`, or
/// a fixed rate in MB/s.
fn parse_budget(spec: &str) -> Result<BudgetPolicy, String> {
    if spec == "unlimited" {
        return Ok(BudgetPolicy::Unlimited);
    }
    if spec == "negotiated" {
        return Ok(BudgetPolicy::Negotiated {
            headroom: 0.02,
            floor: 200e6,
        });
    }
    if let Some(params) = spec.strip_prefix("negotiated:") {
        let (headroom, floor) = params
            .split_once(',')
            .ok_or_else(|| format!("invalid --budget `{spec}` (negotiated:HEADROOM,FLOOR_MBPS)"))?;
        let headroom: f64 = headroom
            .trim()
            .parse()
            .ok()
            .filter(|h: &f64| h.is_finite() && *h > 0.0)
            .ok_or_else(|| format!("--budget `{spec}`: headroom must be positive and finite"))?;
        let floor: f64 = floor
            .trim()
            .parse()
            .ok()
            .filter(|f: &f64| f.is_finite() && *f >= 0.0)
            .ok_or_else(|| format!("--budget `{spec}`: floor must be finite MB/s, 0 or more"))?;
        return Ok(BudgetPolicy::Negotiated {
            headroom,
            floor: floor * 1e6,
        });
    }
    let mbps: f64 = spec
        .parse()
        .map_err(|_| format!("invalid --budget `{spec}` (unlimited | negotiated | MB/s)"))?;
    if !mbps.is_finite() || mbps <= 0.0 {
        return Err("--budget fixed rate must be positive MB/s".into());
    }
    Ok(BudgetPolicy::Fixed(mbps * 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(args: &[&str]) -> Result<String, String> {
        crate::commands::run(
            "orchestrate",
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn flags_that_used_to_panic_are_errors() {
        let err = run_with(&["--max-in-flight", "0"]).unwrap_err();
        assert!(err.contains("--max-in-flight"), "{err}");
        // `inf` panicked inside the fault generator; `-5` and `nan` quietly
        // meant "no recovery".
        for bad in ["inf", "-5", "nan"] {
            let err = run_with(&["--recover", bad]).unwrap_err();
            assert!(err.contains("--recover"), "--recover {bad}: {err}");
        }
        for (flag, bad) in [("--gbps", "0"), ("--gbps", "-1"), ("--disk-mbps", "nan")] {
            let err = run_with(&[flag, bad]).unwrap_err();
            assert!(err.contains("must be positive"), "{flag} {bad}: {err}");
        }
    }

    /// A campaign that never dispatches (no crash, or nothing stored) has
    /// quiesced: it reports, not an error.
    #[test]
    fn a_campaign_that_never_dispatches_quiesces() {
        for args in [&["--duration", "1", "--seed", "1"][..], &["--chunks", "0"]] {
            let text = run_with(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert!(text.contains("  dispatched      : 0\n"), "{args:?}: {text}");
        }
    }

    #[test]
    fn parses_budget_specs() {
        assert_eq!(parse_budget("unlimited").unwrap(), BudgetPolicy::Unlimited);
        assert_eq!(parse_budget("400").unwrap(), BudgetPolicy::Fixed(400e6));
        assert_eq!(
            parse_budget("negotiated:0.5,100").unwrap(),
            BudgetPolicy::Negotiated {
                headroom: 0.5,
                floor: 100e6
            }
        );
        assert!(matches!(
            parse_budget("negotiated").unwrap(),
            BudgetPolicy::Negotiated { .. }
        ));
        assert!(parse_budget("-3").is_err());
        assert!(parse_budget("nonsense").is_err());
        assert!(parse_budget("negotiated:x").is_err());
        for bad in [
            "nan,100", "-1,100", "0,100", "inf,1", "0.5,-5", "0.5,inf", "x,1",
        ] {
            let err = parse_budget(&format!("negotiated:{bad}")).unwrap_err();
            assert!(err.contains("--budget"), "negotiated:{bad}: {err}");
        }
    }
}
