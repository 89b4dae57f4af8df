//! GF(2^8) kernel throughput benchmark: MB/s of `mul_slice` /
//! `mul_slice_xor` / a 10-term `combine` (the RS(10,4) decode shape, in
//! source MB/s so it reads against `mul_slice_xor`) for every rung of the
//! kernel ladder the host can run (`chameleon_gf::available_kernels`: the
//! runtime-detected SIMD kernels and the portable row loop), and the
//! RS(10,4) encode at the paper's geometry.
//!
//! Every repair byte in the evaluation flows through these kernels, so
//! their throughput bounds how aggressively ChameleonEC's tuner can trade
//! bandwidth for computation. The results land in
//! `results/BENCH_gf.json` (one flat JSON level-object per line, like
//! `BENCH_simnet.json`); the `bench_gate` CI job compares the *active*
//! kernel's `mul_slice_xor` and `combine` MB/s at 1 MiB against the row of
//! the same kernel in the committed `results/BENCH_gf.baseline.json`,
//! failing on a >30% regression of either.
//!
//! Modes:
//! - default: 0.4 s budget per measurement.
//! - `CHAMELEON_BENCH_SMOKE=1`: 0.1 s budgets — the CI gate configuration.

use std::time::Instant;

use chameleon_bench::table::{write_result, Table};
use chameleon_codes::ErasureCode;
use chameleon_gf::{active_kernel, available_kernels, Gf256, MulTable};

/// The gate geometry: RS(10,4) with 1 MiB chunks (the workspace default
/// chunk slice), matching the ISSUE acceptance point.
const GATE_LEN: usize = 1 << 20;
const K: usize = 10;
const M: usize = 4;

/// Deterministic pseudo-random bytes (SplitMix64 stream).
fn fill(len: usize, seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for word in out.chunks_mut(8) {
        let mut z = state;
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        word.copy_from_slice(&z.to_ne_bytes()[..word.len()]);
    }
    out
}

/// Repeats `op` (which processes `bytes_per_op` bytes) until the budget
/// elapses; returns sustained MB/s.
fn measure(budget_secs: f64, bytes_per_op: usize, mut op: impl FnMut()) -> f64 {
    // Warm once so table builds and page faults stay out of the window.
    op();
    let start = Instant::now();
    let mut bytes = 0u64;
    loop {
        op();
        bytes += bytes_per_op as u64;
        if start.elapsed().as_secs_f64() > budget_secs {
            break;
        }
    }
    bytes as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// RS(10,4) `encode` at 1 MiB chunks: data MB/s (source bytes per encode
/// over wall time).
fn encode_mbps(budget: f64) -> f64 {
    let data: Vec<Vec<u8>> = (0..K).map(|j| fill(GATE_LEN, 0xABC0 + j as u64)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
    let rs = chameleon_codes::ReedSolomon::new(K, M).expect("RS(10,4)");
    measure(budget, K * GATE_LEN, || {
        std::hint::black_box(rs.encode(&refs).expect("encode"));
    })
}

fn main() {
    let smoke = std::env::var("CHAMELEON_BENCH_SMOKE").as_deref() == Ok("1");
    let budget = if smoke { 0.1 } else { 0.4 };
    println!(
        "gf throughput: kernel and encode-pipeline MB/s{} (active kernel: {})",
        if smoke { " (smoke mode)" } else { "" },
        active_kernel()
    );

    let mut kernels = Table::new(
        "BENCH_gf",
        "GF multiply kernels (MB/s of source)",
        &[
            ("kernel", "kernel"),
            ("active", "active"),
            ("len", "len"),
            ("mul MB/s", "mul_mbps"),
            ("mul_xor MB/s", "mul_xor_mbps"),
            ("combine10 MB/s", "combine10_mbps"),
        ],
    );
    let mut json_levels = Vec::new();
    let table = MulTable::new(Gf256::new(0x53));
    let tables: Vec<MulTable> = (0..K as u8)
        .map(|j| MulTable::new(Gf256::new(0x53 + 7 * j)))
        .collect();
    for len in [64 * 1024usize, GATE_LEN] {
        let src = fill(len, 0xBEEF);
        let mut dst = fill(len, 0xF00D);
        let sources: Vec<Vec<u8>> = (0..K).map(|j| fill(len, 0xABC0 + j as u64)).collect();
        let terms: Vec<(&MulTable, &[u8])> = tables
            .iter()
            .zip(&sources)
            .map(|(t, s)| (t, &s[..]))
            .collect();
        for kernel in available_kernels() {
            let active = kernel.name() == active_kernel();
            let mul = measure(budget, len, || kernel.mul_slice(&table, &src, &mut dst));
            let mul_xor = measure(budget, len, || kernel.mul_slice_xor(&table, &src, &mut dst));
            let combine = measure(budget, K * len, || kernel.combine(&terms, &mut dst));
            kernels.push(vec![
                kernel.name().to_string(),
                if active { "yes" } else { "" }.to_string(),
                format!("{} KiB", len / 1024),
                format!("{mul:.0}"),
                format!("{mul_xor:.0}"),
                format!("{combine:.0}"),
            ]);
            json_levels.push(format!(
                "    {{\"kernel\": \"{}\", \"active\": {active}, \"len\": {len}, \
                 \"mul_mbps\": {mul:.1}, \"mul_xor_mbps\": {mul_xor:.1}, \
                 \"combine10_mbps\": {combine:.1}}}",
                kernel.name()
            ));
        }
    }
    print!("{kernels}");

    let encode = encode_mbps(budget);
    json_levels.push(format!(
        "    {{\"encode\": \"fused\", \"k\": {K}, \"m\": {M}, \"chunk_bytes\": {GATE_LEN}, \
         \"mbps\": {encode:.1}}}"
    ));
    println!("RS(10,4) encode at 1 MiB chunks: {encode:.0} data MB/s");

    let json = format!(
        "{{\n  \"bench\": \"gf_throughput\",\n  \"active_kernel\": \"{}\",\n  \"levels\": [\n{}\n  ]\n}}\n",
        active_kernel(),
        json_levels.join(",\n")
    );
    write_result("BENCH_gf.json", &json);
    println!(
        "gate: the active kernel's mul_xor and combine10 MB/s at 1 MiB must each stay within 30% \
         of its row in results/BENCH_gf.baseline.json (run `bench_gate` to check)."
    );
}
