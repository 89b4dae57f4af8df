//! The `orchestrate` subcommand: a continuous multi-failure repair
//! campaign from the command line.
//!
//! Unlike `repair`, nothing is failed up front: a seeded Poisson stream
//! of node crashes (with optional recovery) plays against the
//! cluster-wide [`Orchestrator`], which queues every lost chunk, admits
//! repairs under a bandwidth budget, and records the campaign in a
//! persistent ledger — including stripes that cross the data-loss
//! threshold. The final report is the measured reliability of the
//! configuration: repairs, quarantines, losses, and time to first loss.

use chameleon_bench::flags::{Command, Flags};
use chameleon_bench::runner::stage;
use chameleon_core::{BudgetPolicy, Orchestrator, OrchestratorConfig, QueuePolicy};
use chameleon_simnet::FaultPlan;

use super::repair::{self, drain, setup};
use crate::args::cluster_error;

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
pub fn run(flags: &Flags) -> Result<(), String> {
    let s = setup(flags)?;
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
    let expected_crashes = s.cfg.storage_nodes as f64 * duration / mttf;
    if expected_crashes > MAX_EXPECTED_CRASHES {
        return Err(format!(
            "--duration {duration} and --mttf {mttf} expect {expected_crashes:.3e} crashes \
             over {} nodes; at most {MAX_EXPECTED_CRASHES} are drawn",
            s.cfg.storage_nodes
        ));
    }
    let queue = match policy {
        "fifo" => QueuePolicy::Fifo,
        "priority" => QueuePolicy::RedundancyPriority,
        other => return Err(format!("unknown --policy `{other}` (fifo | priority)")),
    };
    let budget = parse_budget(budget_spec)?;

    let clients = s.fg.as_ref().map_or(0, |fg| fg.clients);
    let candidates: Vec<usize> = (0..s.cfg.storage_nodes).collect();
    let faults = FaultPlan::seeded_poisson(
        s.seed,
        &candidates,
        mttf,
        (0.0, duration),
        (recover > 0.0).then_some(recover),
    );
    let (mut run, _) =
        stage(s.code.clone(), s.cfg, &[], s.fg, Some(&faults), false).map_err(cluster_error)?;
    println!(
        "cluster: {} nodes, {} Gb/s links, {} MB/s disks, code {}",
        run.ctx.cluster.storage_nodes(),
        s.gbps,
        s.disk_mbps,
        s.code.name()
    );
    println!(
        "campaign: {} crashes over {duration:.0}s (MTTF {mttf:.0}s/node, {}), \
         {policy} queue, {budget_spec} budget, {max_in_flight} in flight",
        faults
            .specs()
            .iter()
            .filter(|s| matches!(s, chameleon_simnet::FaultSpec::Crash { .. }))
            .count(),
        if recover > 0.0 {
            format!("recovery after {recover:.0}s")
        } else {
            "no recovery".to_string()
        }
    );

    let driver = s.algo.driver(run.ctx.clone(), s.seed);
    let mut orchestrator = Orchestrator::new(
        run.ctx.clone(),
        driver,
        OrchestratorConfig {
            queue,
            budget,
            max_in_flight,
            window_secs: 15.0,
        },
    );
    drain(&mut run, &mut orchestrator)?;
    let sim = &run.sim;

    let report = orchestrator.report();
    let outcome = orchestrator.outcome(sim);
    println!(
        "\ncampaign: {} / {} queue / {} budget",
        report.algorithm, report.queue_policy, report.budget_policy
    );
    println!("  enqueued        : {}", report.enqueued);
    println!("  dispatched      : {}", report.dispatched);
    println!("  repaired        : {}", report.repaired);
    println!("  restored        : {}", report.restored);
    println!("  quarantined     : {}", report.quarantined);
    println!("  lost chunks     : {}", report.lost_chunks);
    println!("  resurrected     : {}", report.resurrected);
    println!(
        "  data loss       : {} stripe event(s){}",
        report.data_loss_events,
        report
            .first_loss_secs
            .map_or(String::new(), |t| format!(", first at {t:.2} s"))
    );
    if report.negotiations > 0 {
        println!(
            "  budget          : {} renegotiations, mean {:.1} MB/s",
            report.negotiations,
            report.mean_budget_rate / 1e6
        );
    }
    println!(
        "  repair traffic  : {:.1} MB admitted",
        report.tokens_spent / 1e6
    );
    println!(
        "  throughput      : {:.1} MB/s over {:.2} s",
        outcome.throughput() / 1e6,
        sim.now().as_secs()
    );
    if let Some(fgd) = run.foreground.take() {
        let fg_report = fgd.report(sim);
        println!("\nforeground ({clients} YCSB-A clients):");
        println!("  requests        : {}", fg_report.completed);
        println!("  P99 latency     : {:.2} ms", fg_report.p99_latency * 1e3);
    }

    if !ledger_path.is_empty() {
        let jsonl = orchestrator.ledger_jsonl();
        let lines = jsonl.lines().count();
        std::fs::write(ledger_path, &jsonl)
            .map_err(|e| format!("cannot write --ledger file `{ledger_path}`: {e}"))?;
        println!("ledger: {lines} records -> {ledger_path}");
    }
    Ok(())
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

    fn run_with(args: &[&str]) -> Result<(), String> {
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
