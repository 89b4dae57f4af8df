//! Direct calls into single layers, made in the traced run, for the
//! per-layer numbers no workload isolates: the `gf` kernels, the codes the
//! workloads do not use, the request generator, and plan construction.
//!
//! Each probe runs a few batches and reports the median batch, so one
//! descheduled batch does not set the number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use chameleon_cluster::stats::percentile;
use chameleon_cluster::{ChunkId, Cluster, ClusterConfig, PlacementStrategy, TopologySpec};
use chameleon_codes::{Butterfly, ErasureCode, Lrc, ReedSolomon, RepairRequirement};
use chameleon_core::chameleon::{dispatch_chunk, establish_plan, PhaseState};
use chameleon_core::RepairContext;
use chameleon_gf::{mul_slice_with, mul_slice_xor_with, xor_slice, Gf256, Matrix, MulTable};
use chameleon_traces::{Workload, YcsbA};

use crate::codec::fill;

const BATCHES: usize = 5;
const MIB: usize = 1 << 20;

/// Median seconds of one batch of `calls` calls to `f`.
fn batch_secs(calls: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    percentile(&secs, 0.5).expect("BATCHES is positive")
}

fn mbps(bytes: usize, calls: usize, batch_secs: f64) -> f64 {
    (bytes * calls) as f64 / 1e6 / batch_secs
}

/// `(metric, value)` pairs.
pub type Readings = Vec<(&'static str, f64)>;

/// The `gf` kernels on 1 MiB buffers, table construction and a 10x10
/// matrix inversion.
pub fn gf(seed: u64, quick: bool) -> Readings {
    let calls = if quick { 4 } else { 64 };
    let src = fill(MIB, seed);
    let mut dst = fill(MIB, seed ^ 1);
    let table = MulTable::new(Gf256::new(0x53));
    let mul = batch_secs(calls, || mul_slice_with(&table, black_box(&src), &mut dst));
    let mul_xor = batch_secs(calls, || {
        mul_slice_xor_with(&table, black_box(&src), &mut dst)
    });
    let xor = batch_secs(calls, || xor_slice(black_box(&src), &mut dst));
    black_box(&dst);
    let tables = batch_secs(1, || {
        for c in 1..=255u8 {
            black_box(MulTable::new(Gf256::new(black_box(c))));
        }
    });
    let matrix = Matrix::cauchy(10, 10);
    let inversions = if quick { 10 } else { 200 };
    let invert = batch_secs(inversions, || {
        black_box(
            black_box(&matrix)
                .invert()
                .expect("a Cauchy matrix is invertible"),
        );
    });
    vec![
        ("gf.mul_mbps", mbps(MIB, calls, mul)),
        ("gf.mul_xor_mbps", mbps(MIB, calls, mul_xor)),
        ("gf.xor_mbps", mbps(MIB, calls, xor)),
        ("gf.table_build_ns", tables / 255.0 * 1e9),
        ("gf.matrix_invert_us", invert / inversions as f64 * 1e6),
    ]
}

fn stripe_data(code: &dyn ErasureCode, chunk_bytes: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..code.k() as u64)
        .map(|i| fill(chunk_bytes, seed.wrapping_add(i)))
        .collect()
}

/// The codes and entry points the `codec` workload itself does not time:
/// striped RS encode, LRC, Butterfly, and coefficient derivation.
pub fn codes(seed: u64, quick: bool) -> Readings {
    let calls = if quick { 1 } else { 4 };
    let mut out = Readings::new();

    let rs = ReedSolomon::new(10, 4).expect("RS(10,4) is valid");
    let large = if quick { 256 << 10 } else { 8 * MIB };
    let data = stripe_data(&rs, large, seed);
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let striped = batch_secs(calls, || {
        black_box(
            rs.encode_striped(black_box(&refs), 0)
                .expect("striped encode"),
        );
    });
    out.push((
        "codes.rs_encode_striped_mbps",
        mbps(10 * large, calls, striped),
    ));
    let sources: Vec<usize> = (1..=10).collect();
    let coeff_calls = if quick { 100 } else { 2000 };
    let coeff = batch_secs(coeff_calls, || {
        black_box(
            rs.repair_coefficients(0, black_box(&sources))
                .expect("ten sources suffice"),
        );
    });
    out.push(("codes.coeff_us", coeff / coeff_calls as f64 * 1e6));

    // One call pattern for the two remaining codes: encode a 1 MiB-chunk
    // stripe, then rebuild chunk 0 the way the code prefers (LRC: from its
    // local group; Butterfly: from half-chunk reads).
    let lrc = Lrc::new(10, 2, 2).expect("LRC(10,2,2) is valid");
    let butterfly = Butterfly::new();
    let others: [(&dyn ErasureCode, &'static str, &'static str); 2] = [
        (&lrc, "codes.lrc_encode_mbps", "codes.lrc_repair_local_mbps"),
        (
            &butterfly,
            "codes.butterfly_encode_mbps",
            "codes.butterfly_repair_mbps",
        ),
    ];
    let calls = if quick { 2 } else { 16 };
    for (code, encode_metric, repair_metric) in others {
        let data = stripe_data(code, MIB, seed ^ 0xC0DE);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let encode = batch_secs(calls, || {
            black_box(code.encode(black_box(&refs)).expect("encode"));
        });
        out.push((encode_metric, mbps(code.k() * MIB, calls, encode)));
        let stripe = code.encode(&refs).expect("encode");
        let alive: Vec<usize> = (1..code.n()).collect();
        let sources: Vec<usize> = match code
            .repair_requirement(0, &alive)
            .expect("one erasure is repairable")
        {
            RepairRequirement::AnyOf { candidates, count } => {
                candidates.into_iter().take(count).collect()
            }
            RepairRequirement::Exact { sources } => sources,
            RepairRequirement::SubChunk { reads } => reads.iter().map(|r| r.chunk).collect(),
        };
        let inputs: Vec<(usize, &[u8])> =
            sources.iter().map(|&i| (i, stripe[i].as_slice())).collect();
        assert_eq!(
            code.repair(0, &inputs).expect("repair"),
            stripe[0],
            "{} repair is not byte-exact",
            code.name()
        );
        let repair = batch_secs(calls, || {
            black_box(code.repair(0, black_box(&inputs)).expect("repair"));
        });
        out.push((repair_metric, mbps(MIB, calls, repair)));
    }
    out
}

/// The YCSB-A generator: nanoseconds per `next_request`.
pub fn traces(seed: u64, quick: bool) -> Readings {
    let calls = if quick { 10_000 } else { 1_000_000 };
    let mut workload = YcsbA::new(seed);
    let secs = batch_secs(calls, || {
        black_box(workload.next_request());
    });
    vec![("traces.next_request_ns", secs / calls as f64 * 1e9)]
}

/// Plan construction at 1000 nodes, as Exp#5 measures it: microseconds per
/// `dispatch_chunk` + `establish_plan`.
pub fn planning(seed: u64, quick: bool) -> Readings {
    let (nodes, chunks) = if quick { (100, 20) } else { (1000, 200) };
    let code = Arc::new(ReedSolomon::new(10, 4).expect("RS(10,4) is valid"));
    let cluster = Cluster::new(ClusterConfig {
        storage_nodes: nodes,
        clients: 0,
        node_caps: Default::default(),
        chunk_size: 64 << 20,
        slice_size: 1 << 20,
        stripe_width: code.n(),
        stripes: chunks,
        placement: PlacementStrategy::Random(seed),
        monitor_window_secs: 15.0,
        topology: TopologySpec::Flat,
    })
    .expect("valid cluster config");
    let ctx = RepairContext::new(cluster, code);
    let secs = batch_secs(1, || {
        // A varied residual-bandwidth profile, as after monitoring.
        let mut phase = PhaseState::flat(
            (0..nodes).map(|i| 4e8 + (i % 17) as f64 * 5e7).collect(),
            (0..nodes).map(|i| 4e8 + (i % 13) as f64 * 5e7).collect(),
        );
        for stripe in 0..chunks {
            let chunk = ChunkId { stripe, index: 0 };
            let assignment = dispatch_chunk(&ctx, &mut phase, chunk, &[]).expect("dispatchable");
            black_box(establish_plan(&ctx, &assignment).expect("plannable"));
        }
    });
    vec![("core.plan_us", secs / chunks as f64 * 1e6)]
}
