//! A pin across commits: `grid_determinism` compares a commit with itself,
//! this compares it with the digests recorded when the test was written
//! (PR 15's parent). Each of the nine algorithms runs one tiny seeded cell
//! in three modes with the flow trace on; the digest covers the trace
//! JSONL (minus the host-time `profile` footer), the per-chunk latencies
//! bit for bit, the recovery counters and — for the campaign — the ledger.
//!
//! A refactor of the drivers must leave every digest alone. A change that
//! moves the simulation on purpose re-records them: run the test, copy the
//! table it prints on mismatch into `PINNED`, and say why in CHANGES.md.

use std::sync::Arc;

use chameleon_bench::{run_orchestrated, AlgoKind, FgSpec, RunOutput, RunSpec, Scale};
use chameleon_codes::{ErasureCode, ReedSolomon};
use chameleon_core::{BudgetPolicy, OrchestratorConfig, QueuePolicy};
use chameleon_simnet::{FaultPlan, FaultSpec};

const ALGOS: [AlgoKind; 9] = [
    AlgoKind::Cr,
    AlgoKind::Ppr,
    AlgoKind::EcPipe,
    AlgoKind::RbCr,
    AlgoKind::RbPpr,
    AlgoKind::RbEcPipe,
    AlgoKind::Chameleon,
    AlgoKind::Etrp,
    AlgoKind::ChameleonIo,
];

/// `[fault-free, crash + slow, campaign]` per algorithm, in `ALGOS` order.
const PINNED: [[u64; 3]; 9] = [
    [0xaef977276dfbd9c5, 0x47c6d42a4899232a, 0x3f2bf728d46ccb40], // CR
    [0x1fc2b6568bae923b, 0xc34959b18002783f, 0x0effe8018e2d6bcf], // PPR
    [0xed2358d015deea6f, 0x4f0f58345fada4d4, 0xa9053219962cbcb9], // ECPipe
    [0x650e809dff256f70, 0xd7e3671a7583f062, 0xdf5a0a43b729d6c0], // RB+CR
    [0xc7255d1415ad45e0, 0x9749c81d67a54a76, 0xc1e62d74a4bcf6d2], // RB+PPR
    [0x21ae27ce0c930167, 0x18ea6e7684a04fe2, 0xdd2fa4c5b4e888b6], // RB+ECPipe
    [0x30dc4602d3edeb6d, 0xc96e8c78f8166ccd, 0xcec87f4c4ac87abf], // ChameleonEC
    [0x30dc4602d3edeb6d, 0x1712f9c4ad0d0776, 0xcec87f4c4ac87abf], // ETRP
    [0xd3739215280ddab3, 0x6619bada10a1635f, 0x70981768f2e9e041], // ChameleonEC-IO
];

/// 20 nodes, RS(4,2), 12 chunks per failed node (more than the in-flight
/// cap of 8, so slots refill), 2 YCSB-A clients.
fn tiny() -> Scale {
    let mut scale = Scale::small();
    scale.chunks_per_node = 12;
    scale.clients = 2;
    scale.requests_per_client = 150;
    scale
}

/// FNV-1a over everything a driver decides that a run exposes: the trace
/// without its host-time footer, then the outcome's counts, latencies and
/// recovery counters (`{:?}` of an `f64` round-trips, so this is bit-exact),
/// then `extra` (the campaign's ledger).
fn digest(out: &RunOutput, extra: &str) -> u64 {
    let trace = out.trace_jsonl().expect("traced run");
    let mut record: String = trace
        .lines()
        .filter(|line| !line.starts_with("{\"event\":\"profile\""))
        .flat_map(|line| [line, "\n"])
        .collect();
    let o = &out.outcome;
    record += &format!(
        "{} {} {:?} {:?} {:?}\n{extra}",
        o.chunks_total, o.chunks_repaired, o.duration, o.per_chunk_secs, o.recovery
    );
    record.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn code() -> Arc<dyn ErasureCode> {
    Arc::new(ReedSolomon::new(4, 2).expect("RS(4,2)"))
}

fn repair_digest(algo: AlgoKind, faults: Option<FaultPlan>) -> u64 {
    let scale = tiny();
    let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
    let mut spec =
        RunSpec::new("pin", code(), scale.cluster_config(6), algo, Some(fg)).with_trace();
    spec.faults = faults;
    digest(&spec.execute(), "")
}

/// A helper crashes while the first wave of attempts is in flight, and a
/// second node's links crawl for long enough that attempts through it fall
/// behind their estimates (the straggler check acts: ChameleonEC and ETRP
/// part ways here and nowhere else).
fn crash_and_slow() -> FaultPlan {
    FaultPlan::new(vec![
        FaultSpec::Slowdown {
            node: 7,
            at_secs: 0.05,
            factor: 0.02,
            duration_secs: 8.0,
        },
        FaultSpec::Crash {
            node: 3,
            at_secs: 0.1,
        },
    ])
}

fn campaign_digest(algo: AlgoKind) -> u64 {
    let scale = tiny();
    let cfg = scale.cluster_config(6);
    let candidates: Vec<usize> = (0..cfg.storage_nodes).collect();
    let faults = FaultPlan::seeded_poisson(0xEC15_0003, &candidates, 30.0, (0.0, 20.0), Some(8.0));
    let out = run_orchestrated(
        code(),
        cfg.clone(),
        |ctx| algo.driver(ctx, 7),
        OrchestratorConfig {
            queue: QueuePolicy::RedundancyPriority,
            budget: BudgetPolicy::Negotiated {
                headroom: 0.02,
                floor: 200e6,
            },
            max_in_flight: 8,
            window_secs: cfg.monitor_window_secs,
        },
        Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
        &faults,
        true,
    );
    digest(&out.run, &out.ledger_jsonl)
}

#[test]
fn every_algorithm_reproduces_the_recorded_digests() {
    let actual: Vec<[u64; 3]> = ALGOS
        .iter()
        .map(|&algo| {
            [
                repair_digest(algo, None),
                repair_digest(algo, Some(crash_and_slow())),
                campaign_digest(algo),
            ]
        })
        .collect();
    let table: String = ALGOS
        .iter()
        .zip(&actual)
        .map(|(algo, d)| {
            format!(
                "    [{:#018x}, {:#018x}, {:#018x}], // {}\n",
                d[0],
                d[1],
                d[2],
                algo.label()
            )
        })
        .collect();
    assert!(
        actual == PINNED,
        "the simulation moved; digests now:\n{table}"
    );
}
