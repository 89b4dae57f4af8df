//! The grid determinism contract, end to end: every experiment of the
//! suite, run at `--jobs` 1 and 8, must return byte-identical tables
//! (as CSV, each line parsing to its header's width) and artifacts. (CI's suite-smoke job diffs the whole suite's
//! `results/` at `--jobs` 1 vs 4.)
//!
//! The loop covers the trickiest shapes among the rest — Exp#2's mixed
//! clean/repair cells whose formatting depends on the *clean* cell's
//! result, Exp#8's multi-victim repairs, Exp#15's two-stage fault sweep
//! (the control grid fixes the crash window for the faulted grid), Exp#16's
//! engine counters, Exp#17's campaign ledger JSONL, Exp#18's per-link
//! monitor totals. All run at a tiny scale.

use chameleon_bench::experiments;
use chameleon_bench::table::parse_csv;
use chameleon_bench::{run_specs, AlgoKind, FgSpec, RunSpec, Scale};
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

#[test]
fn every_experiment_is_identical_across_job_counts() {
    let scale = tiny();
    for e in &experiments::ALL {
        let sequential = persisted(e, &scale, 1);
        assert_csv_widths(&sequential);
        // The one experiment whose cells *are* host time (its doc comment):
        // parallel workers contend for cores, so its numbers move by design.
        if e.name == "exp05_computation" {
            continue;
        }
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
        run_specs(&specs, jobs)
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
