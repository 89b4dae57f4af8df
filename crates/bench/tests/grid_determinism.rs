//! The grid determinism contract, end to end: every experiment of the
//! suite but Exp#5 (host time), run at `--jobs` 1 and 8, must return
//! byte-identical tables (as CSV, each line parsing to its header's width)
//! and artifacts. The sequential pass is also pinned across commits: its
//! bytes must hash to [`PINNED_EXPERIMENTS`].
//!
//! The loop covers the trickiest shapes among the rest — Exp#2's mixed
//! clean/repair cells whose formatting depends on the *clean* cell's
//! result, Exp#8's multi-victim repairs, Exp#15's two-stage fault sweep
//! (the control grid fixes the crash window for the faulted grid), Exp#16's
//! engine counters, Exp#17's campaign ledger JSONL, Exp#18's per-link
//! monitor totals. All run at a tiny scale.

use chameleon_bench::experiments;
use chameleon_bench::table::parse_csv;
use chameleon_bench::{run_grid, AlgoKind, FgSpec, RunSpec, Scale};
use chameleon_codes::{ErasureCode, ReedSolomon};
use std::sync::Arc;

/// A scale small enough for 12–16 full simulations per jobs level.
fn tiny() -> Scale {
    let mut scale = Scale::small();
    scale.chunks_per_node = 2;
    scale.clients = 2;
    scale.requests_per_client = 100;
    scale
}

/// Everything an experiment persists, as `(file name, bytes)`.
fn persisted(e: &experiments::Experiment, scale: &Scale, jobs: usize) -> Vec<(String, String)> {
    let report = (e.run)(scale, jobs);
    assert!(!report.tables.is_empty(), "{} returned no table", e.name);
    let tables = report
        .tables
        .iter()
        .map(|t| (format!("{}.csv", t.stem), t.csv()));
    let artifacts = report
        .artifacts
        .iter()
        .map(|(name, body)| (name.to_string(), body.clone()));
    tables.chain(artifacts).collect()
}

/// Every line of every table's CSV parses to its header's width: a label
/// holding a comma is quoted, not split.
fn assert_csv_widths(persisted: &[(String, String)]) {
    for (file, bytes) in persisted.iter().filter(|(f, _)| f.ends_with(".csv")) {
        let rows = parse_csv(bytes);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), rows[0].len(), "{file} line {}: {row:?}", i + 1);
        }
    }
}

/// FNV-1a of every experiment's sequential [`persisted`] bytes at
/// [`tiny`] scale (file names included), with the host's GF kernel masked
/// ([`masked`]). Exp#5, whose cells are host time, has no pin. A refactor
/// of the experiments must leave every digest alone; a change that moves a
/// table on purpose pastes the table the test prints on mismatch here.
const PINNED_EXPERIMENTS: &[(&str, u64)] = &[
    ("fig02_reliability", 0xcc456da64088e2d6),
    ("fig04_interference", 0x5c1aefd7a11da9af),
    ("fig05_fluctuation", 0x67a6558c54d6b44e),
    ("fig06_imbalance", 0xf7849a4d81eb71a8),
    ("exp01_interference_study", 0x51cccace76e71f43),
    ("exp02_trace_execution", 0x31cb9d373e0f01b2),
    ("exp03_tphase", 0xda096511abbf41f0),
    ("exp04_adaptivity", 0x15702276f1be7206),
    ("exp06_repairboost", 0x499b03c2a4f19924),
    ("exp07_no_foreground", 0x8bef26d3c9b839db),
    ("exp08_multinode", 0x0d5d0b8bb93f6e68),
    ("exp09_generality", 0xd48226b8d83271f8),
    ("exp10_degraded_read", 0xd1e926b60575260d),
    ("exp11_breakdown", 0x409c6a3f893495f7),
    ("exp12_storage_bottleneck", 0x42eac20bec9d23b5),
    ("exp13_bandwidth", 0x9eadefa23b4cf983),
    ("exp14_ablation", 0xc3eacbeebde5eb36),
    ("exp15_fault_tolerance", 0xee1bd06808aab4bc),
    ("exp16_scalability", 0x4bd603af9633c390),
    ("exp17_reliability", 0xfb83158a6105d7ff),
    ("exp18_topology", 0x9dea25dbb4364269),
];

/// `bytes` with every cell of a `gf_kernel` column replaced by `*`: the
/// column names the GF code path of the host, not a simulation result.
fn masked(bytes: &str) -> String {
    let rows = parse_csv(bytes);
    let Some(col) = rows[0].iter().position(|c| c == "gf_kernel") else {
        return bytes.to_string();
    };
    rows.into_iter()
        .enumerate()
        .map(|(i, mut row)| {
            if i > 0 {
                row[col] = "*".into();
            }
            row.join(",") + "\n"
        })
        .collect()
}

fn digest(persisted: &[(String, String)]) -> u64 {
    let record: String = persisted
        .iter()
        .map(|(file, bytes)| format!("{file}\n{}", masked(bytes)))
        .collect();
    record.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_experiment_is_identical_across_job_counts() {
    let scale = tiny();
    let mut digests = Vec::new();
    for e in &experiments::ALL {
        let sequential = persisted(e, &scale, 1);
        assert_csv_widths(&sequential);
        // The one experiment whose cells *are* host time (its doc comment):
        // parallel workers contend for cores, so its numbers move by design.
        if e.name == "exp05_computation" {
            continue;
        }
        digests.push((e.name, digest(&sequential)));
        for (file, bytes) in &sequential {
            assert!(
                bytes.lines().count() > 3,
                "{file}: expected a non-trivial document, got:\n{bytes}"
            );
        }
        let parallel = persisted(e, &scale, 8);
        assert_eq!(sequential.len(), parallel.len(), "{}", e.name);
        for ((file, a), (_, b)) in sequential.iter().zip(&parallel) {
            assert_eq!(a, b, "{file} diverged between --jobs 1 and --jobs 8");
        }
    }
    let table: String = digests
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert!(
        digests == PINNED_EXPERIMENTS,
        "an experiment's persisted bytes moved; digests now:\n{table}"
    );
}

/// The trace extension of the contract: a traced grid renders
/// byte-identical JSONL observability records at any `--jobs` count.
/// Traces are buffered per-run inside each worker and rendered here, in
/// spec order, after the grid returns — completion order must be
/// invisible in the bytes.
#[test]
fn traced_runs_render_identical_jsonl_across_job_counts() {
    let scale = tiny();
    let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
    let specs: Vec<RunSpec> = [
        AlgoKind::Cr,
        AlgoKind::Ppr,
        AlgoKind::EcPipe,
        AlgoKind::Chameleon,
    ]
    .into_iter()
    .map(|algo| {
        RunSpec::new(
            format!("trace/{}", algo.label()),
            code.clone(),
            scale.cluster_config(6),
            algo,
            Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
        )
        .with_trace()
    })
    .collect();

    let render = |jobs: usize| -> String {
        run_grid(&specs, jobs, RunSpec::execute)
            .iter()
            .map(|out| out.trace_jsonl().expect("traced run must carry a trace"))
            .collect()
    };
    let sequential = render(1);
    assert!(
        sequential.lines().count() > 100,
        "expected a dense trace, got {} lines",
        sequential.lines().count()
    );
    assert_eq!(
        sequential,
        render(8),
        "trace JSONL diverged between --jobs 1 and --jobs 8"
    );
}

/// The differential oracle of the topology work: Exp#18's flat rows use
/// exactly Exp#8's one-failure specs, so the repair numbers must
/// reproduce that CSV bit-identically. The racked fabrics are *not*
/// expected to match flat — rack-aware helper selection changes the
/// repair plans as soon as racks > 1 — but their ToR links must observe
/// real cross-rack bytes, which flat rows (no link cells) never carry.
#[test]
fn exp18_flat_rows_reproduce_exp08_bitwise() {
    let scale = tiny();
    let rows_of = |name: &str| -> Vec<Vec<String>> {
        let experiment = experiments::find(name).expect("a suite experiment");
        (experiment.run)(&scale, 4).tables[0].rows().to_vec()
    };
    let e08 = rows_of("exp08_multinode");
    let e18 = rows_of("exp18_topology");
    let one_failure: Vec<&Vec<String>> = e08.iter().filter(|r| r[0] == "1").collect();
    let fabric_rows =
        |name: &str| -> Vec<&Vec<String>> { e18.iter().filter(|r| r[0] == name).collect() };
    let flat = fabric_rows("flat");
    let nonblocking = fabric_rows("1:1");
    assert_eq!(flat.len(), one_failure.len());
    assert_eq!(nonblocking.len(), one_failure.len());
    for ((f, nb), e) in flat.iter().zip(&nonblocking).zip(&one_failure) {
        // algorithm, repair_mbps, chunks / chunk p50 and p99.
        assert_eq!(
            f[1..4],
            e[1..4],
            "flat row diverged from exp08: {f:?} vs {e:?}"
        );
        assert_eq!(f[7], e[4], "flat chunk p50 diverged from exp08");
        assert_eq!(f[8], e[6], "flat chunk p99 diverged from exp08");
        // Flat clusters compile no link cells, so cross-rack is zero...
        assert_eq!(f[5], "0.0", "flat rows must carry no cross-rack bytes");
        assert_eq!(f[6], "0.0", "flat rows must carry no cross-rack fg bytes");
        // ...while the racked fabric observes real bytes on its ToRs.
        let cross: f64 = nb[5].parse().unwrap();
        assert!(
            cross > 0.0,
            "1:1 fabric saw no cross-rack repair bytes: {nb:?}"
        );
    }
}
