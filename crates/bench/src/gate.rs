//! Perf-regression gates over the benchmark JSON documents.
//!
//! CI runs `simnet_throughput` and `gf_throughput` (smoke mode), then the
//! `bench_gate` binary compares the fresh `results/BENCH_simnet.json` /
//! `results/BENCH_gf.json` against the committed `*.baseline.json`
//! documents and fails the job on a regression past the tolerance:
//!
//! - simnet: indexed events/sec at the gate point (20 nodes, 10k
//!   concurrent flows) must stay within [`MAX_REGRESSION`].
//! - gf: the *active* GF kernel's `mul_slice_xor` and 10-term `combine`
//!   MB/s at 1 MiB (the latter is the operation `codes` calls) must each
//!   stay within [`GF_MAX_REGRESSION`] of the baseline's row for the kernel
//!   of the same name (looser, because absolute kernel MB/s varies more
//!   across runner microarchitectures than simulator events/sec does).
//!
//! The documents are read with the workspace's one flat-JSON field reader
//! ([`chameleon_simnet::trace::field`]) over the repo's own schema (one
//! level object per line), like the trace summarizer. Speedups over the
//! baseline never fail the gate; they are the point of the trajectory.

use chameleon_simnet::trace::{field, num, text};

/// The gate point: the paper's cluster size at the mid concurrency level.
pub const GATE_NODES: u64 = 20;
/// Concurrent flows at the gate point.
pub const GATE_FLOWS: u64 = 10_000;
/// Largest tolerated drop of indexed events/sec vs the baseline (0.2 =
/// 20%); absorbs runner noise while catching real regressions.
pub const MAX_REGRESSION: f64 = 0.20;
/// The GF gate point: buffer length whose active-kernel MB/s is gated
/// (1 MiB, the ISSUE acceptance length).
pub const GF_GATE_LEN: u64 = 1 << 20;
/// The `BENCH_gf` columns gated there: one term of Equation (1), and the
/// whole sum `codes` encodes, decodes and repairs through.
const GF_GATE_COLUMNS: [&str; 2] = ["mul_xor_mbps", "combine10_mbps"];
/// Largest tolerated drop of the active GF kernel's MB/s vs the baseline.
pub const GF_MAX_REGRESSION: f64 = 0.30;
/// Absolute floor for the oversubscribed-spine 1000-node sweep point
/// (events/sec). Unlike the relative gates, this one needs no committed
/// baseline: it exists to prove the incremental solver's closure conducts
/// only through saturated resources — a conducting spine turns every
/// completion into a cluster-wide solve (tens of ev/s), and node cells
/// that conduct while they have slack drag whole racks into every solve
/// (1.1–1.5k ev/s). The floor is about a quarter of
/// what the smoke run measures on a 2-vCPU 2.1 GHz box (~35k ev/s), so it
/// catches losing either property on any runner.
pub const SPINE_MIN_EVENTS_PER_SEC: f64 = 9_000.0;

/// Extracts the indexed events/sec of one sweep point from a
/// `BENCH_simnet` JSON document.
///
/// Matches the level line carrying `"nodes": nodes` and `"flows": flows`.
/// Documents from before the cluster-size sweep carried no per-level
/// `"nodes"` key (every level was 20 nodes); those lines match on `flows`
/// alone.
pub fn extract_events_per_sec(json: &str, nodes: u64, flows: u64) -> Option<f64> {
    json.lines()
        // Racked levels (the spine gate point) are a different sweep;
        // they share node/flow counts with flat levels but must never
        // satisfy a flat lookup.
        .filter(|line| field(line, "topology").is_none())
        .filter(|line| num(line, "flows") == Some(flows as f64))
        .find(|line| num(line, "nodes").is_none_or(|n| n == nodes as f64))
        .and_then(|line| num(line, "indexed_events_per_sec"))
}

/// Extracts the indexed events/sec of the oversubscribed-spine sweep
/// point — the level line carrying `"topology": "spine"`.
pub fn extract_spine_events_per_sec(json: &str) -> Option<f64> {
    json.lines()
        .find(|line| text(line, "topology") == Some("spine"))
        .and_then(|line| num(line, "indexed_events_per_sec"))
}

/// The kernel named on the level line carrying `"active": true` and
/// `"len": len` in a `BENCH_gf` JSON document: the rung the run that wrote
/// it dispatched to.
pub fn extract_gf_active(json: &str, len: u64) -> Option<&str> {
    json.lines()
        .filter(|line| num(line, "len") == Some(len as f64))
        .find(|line| field(line, "active") == Some("true"))
        .and_then(|line| text(line, "kernel"))
}

/// The MB/s in `column` (`mul_mbps`, `mul_xor_mbps`, `combine10_mbps`) of
/// rung `kernel` at buffer length `len` in a `BENCH_gf` JSON document,
/// active there or not (a document has one row per rung of the host it was
/// taken on).
pub fn extract_gf_kernel_mbps(json: &str, kernel: &str, len: u64, column: &str) -> Option<f64> {
    json.lines()
        .filter(|line| num(line, "len") == Some(len as f64))
        .find(|line| text(line, "kernel") == Some(kernel))
        .and_then(|line| num(line, column))
}

/// The gate's verdict on one (baseline, current) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateReport {
    /// Indexed events/sec recorded in the committed baseline.
    pub baseline: f64,
    /// Indexed events/sec of the fresh benchmark run.
    pub current: f64,
    /// Largest tolerated fractional drop (0.2 = 20%).
    pub max_regression: f64,
}

impl GateReport {
    /// `current / baseline` — above 1.0 is a speedup.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }

    /// `true` when the current number is within the tolerated envelope.
    pub fn pass(&self) -> bool {
        self.current >= self.baseline * (1.0 - self.max_regression)
    }

    /// One-paragraph human verdict for the CI log.
    pub fn render(&self) -> String {
        format!(
            "bench-gate @ {GATE_NODES} nodes / {GATE_FLOWS} flows: \
             current {:.1} ev/s vs baseline {:.1} ev/s ({:.2}x, floor {:.1}) -> {}",
            self.current,
            self.baseline,
            self.ratio(),
            self.baseline * (1.0 - self.max_regression),
            if self.pass() { "PASS" } else { "FAIL" }
        )
    }

    /// Human verdict for the oversubscribed-spine floor gate.
    pub fn render_spine(&self) -> String {
        format!(
            "bench-gate @ 1000 nodes / 25 racks / 1:4 spine / 1.5k flows: \
             current {:.1} ev/s vs absolute floor {:.1} ev/s -> {}",
            self.current,
            self.baseline,
            if self.pass() { "PASS" } else { "FAIL" }
        )
    }

    /// Human verdict for the GF kernel gate on one `BENCH_gf` column.
    pub fn render_gf(&self, column: &str) -> String {
        format!(
            "bench-gate @ gf active kernel `{column}` / {} KiB: \
             current {:.1} MB/s vs baseline {:.1} MB/s ({:.2}x, floor {:.1}) -> {}",
            GF_GATE_LEN / 1024,
            self.current,
            self.baseline,
            self.ratio(),
            self.baseline * (1.0 - self.max_regression),
            if self.pass() { "PASS" } else { "FAIL" }
        )
    }
}

/// Compares a fresh benchmark JSON against the committed baseline at the
/// gate point. `Err` means a document was missing the point entirely —
/// that fails CI too, loudly, instead of silently passing.
pub fn check(current_json: &str, baseline_json: &str) -> Result<GateReport, String> {
    let baseline = extract_events_per_sec(baseline_json, GATE_NODES, GATE_FLOWS)
        .ok_or_else(|| format!("baseline has no {GATE_NODES}-node {GATE_FLOWS}-flow point"))?;
    let current = extract_events_per_sec(current_json, GATE_NODES, GATE_FLOWS)
        .ok_or_else(|| format!("current run has no {GATE_NODES}-node {GATE_FLOWS}-flow point"))?;
    if baseline <= 0.0 {
        return Err(format!("baseline events/sec is not positive: {baseline}"));
    }
    Ok(GateReport {
        baseline,
        current,
        max_regression: MAX_REGRESSION,
    })
}

/// Holds the fresh `BENCH_simnet` JSON's oversubscribed-spine point to
/// the absolute [`SPINE_MIN_EVENTS_PER_SEC`] floor. No baseline document
/// is involved; a missing point is a loud error, not a silent pass.
pub fn check_spine(current_json: &str) -> Result<GateReport, String> {
    let current = extract_spine_events_per_sec(current_json)
        .ok_or("current run has no oversubscribed-spine point")?;
    Ok(GateReport {
        baseline: SPINE_MIN_EVENTS_PER_SEC,
        current,
        max_regression: 0.0,
    })
}

/// Compares a fresh `BENCH_gf` JSON against the committed baseline at the
/// GF gate point, one `(column, report)` per gated column: the rung the
/// fresh run dispatched to, against the baseline's row *of that name* —
/// never "the active row" of each, which would hold an `avx2` runner to a
/// `gfni` host's number and let a slow `gfni` hide behind an `avx2` one.
/// `Err` means a document was missing its line or a column entirely — that
/// fails CI too, loudly, instead of silently passing.
pub fn check_gf(
    current_json: &str,
    baseline_json: &str,
) -> Result<Vec<(&'static str, GateReport)>, String> {
    let kernel = extract_gf_active(current_json, GF_GATE_LEN)
        .ok_or_else(|| format!("gf current run has no active-kernel {GF_GATE_LEN}-byte point"))?;
    let hold = |column: &'static str| {
        let current = extract_gf_kernel_mbps(current_json, kernel, GF_GATE_LEN, column)
            .ok_or_else(|| format!("gf current run's `{kernel}` row has no `{column}`"))?;
        let baseline = extract_gf_kernel_mbps(baseline_json, kernel, GF_GATE_LEN, column)
            .ok_or_else(|| {
                format!(
                    "gf baseline has no `{kernel}` row with `{column}` at {} KiB — re-take it \
                     on a host that has that kernel (recipe in .claude/skills/verify/SKILL.md)",
                    GF_GATE_LEN / 1024
                )
            })?;
        if baseline <= 0.0 {
            return Err(format!("gf baseline MB/s is not positive: {baseline}"));
        }
        let report = GateReport {
            baseline,
            current,
            max_regression: GF_MAX_REGRESSION,
        };
        Ok((column, report))
    };
    GF_GATE_COLUMNS.into_iter().map(hold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(points: &[(u64, u64, f64)]) -> String {
        let levels: Vec<String> = points
            .iter()
            .map(|(n, f, ev)| {
                format!("    {{\"nodes\": {n}, \"flows\": {f}, \"indexed_events_per_sec\": {ev}}}")
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"simnet_throughput\",\n  \"levels\": [\n{}\n  ]\n}}\n",
            levels.join(",\n")
        )
    }

    #[test]
    fn extracts_the_matching_point() {
        let json = doc(&[
            (20, 1_000, 40_000.0),
            (20, 10_000, 5_000.5),
            (1_000, 10_000, 900.0),
        ]);
        assert_eq!(extract_events_per_sec(&json, 20, 10_000), Some(5_000.5));
        assert_eq!(extract_events_per_sec(&json, 1_000, 10_000), Some(900.0));
        assert_eq!(extract_events_per_sec(&json, 20, 1_000), Some(40_000.0));
        assert_eq!(extract_events_per_sec(&json, 500, 10_000), None);
        assert_eq!(extract_events_per_sec(&json, 20, 777), None);
    }

    #[test]
    fn legacy_documents_without_per_level_nodes_match_on_flows() {
        let json = "{\n  \"bench\": \"simnet_throughput\",\n  \"nodes\": 20,\n  \"levels\": [\n\
             {\"flows\": 10000, \"indexed_events_per_sec\": 5012.3}\n  ]\n}\n";
        assert_eq!(extract_events_per_sec(json, 20, 10_000), Some(5012.3));
    }

    #[test]
    fn gate_passes_at_parity_and_on_speedups() {
        let baseline = doc(&[(20, 10_000, 5_000.0)]);
        for current_ev in [5_000.0, 4_100.0, 50_000.0] {
            let current = doc(&[(20, 10_000, current_ev)]);
            let report = check(&current, &baseline).unwrap();
            assert!(report.pass(), "{}", report.render());
        }
    }

    #[test]
    fn gate_fails_on_injected_synthetic_regression() {
        // A synthetic 30% regression: 5000 -> 3500 ev/s must fail a 20%
        // gate, and the verdict must say so.
        let baseline = doc(&[(20, 10_000, 5_000.0)]);
        let regressed = doc(&[(20, 10_000, 3_500.0)]);
        let report = check(&regressed, &baseline).unwrap();
        assert!(!report.pass());
        assert!(report.render().contains("FAIL"), "{}", report.render());
        // Just past the 20% edge fails too; just inside passes.
        let edge_fail = doc(&[(20, 10_000, 3_999.0)]);
        assert!(!check(&edge_fail, &baseline).unwrap().pass());
        let edge_pass = doc(&[(20, 10_000, 4_001.0)]);
        assert!(check(&edge_pass, &baseline).unwrap().pass());
    }

    #[test]
    fn spine_levels_never_satisfy_flat_lookups() {
        // A document carrying both the flat 1000-node point and the
        // racked spine point at the same node/flow counts: the flat
        // lookup must return the flat number, the spine lookup the
        // spine number, regardless of line order.
        let json = "{\n  \"bench\": \"simnet_throughput\",\n  \"levels\": [\n\
             {\"topology\": \"spine\", \"nodes\": 1000, \"flows\": 100000, \
              \"indexed_events_per_sec\": 800.5},\n\
             {\"nodes\": 1000, \"flows\": 100000, \"indexed_events_per_sec\": 1200.0}\n  ]\n}\n";
        assert_eq!(extract_events_per_sec(json, 1_000, 100_000), Some(1200.0));
        assert_eq!(extract_spine_events_per_sec(json), Some(800.5));
        // Smoke documents carry no flat 1000-node point at all.
        let smoke = "{\"levels\": [{\"topology\": \"spine\", \"nodes\": 1000, \
             \"flows\": 100000, \"indexed_events_per_sec\": 777.0}]}";
        assert_eq!(extract_events_per_sec(smoke, 1_000, 100_000), None);
        assert_eq!(extract_spine_events_per_sec(smoke), Some(777.0));
    }

    #[test]
    fn spine_gate_is_an_absolute_floor() {
        let at = |ev: f64| {
            format!(
                "{{\"levels\": [{{\"topology\": \"spine\", \"nodes\": 1000, \
                 \"flows\": 100000, \"indexed_events_per_sec\": {ev}}}]}}"
            )
        };
        let pass = check_spine(&at(SPINE_MIN_EVENTS_PER_SEC)).unwrap();
        assert!(pass.pass(), "{}", pass.render_spine());
        let fast = check_spine(&at(50_000.0)).unwrap();
        assert!(fast.pass());
        let slow = check_spine(&at(SPINE_MIN_EVENTS_PER_SEC - 1.0)).unwrap();
        assert!(!slow.pass());
        // What the point measured while node cells with slack still
        // conducted the closure: the floor must catch going back there.
        let conducting_nodes = check_spine(&at(1_335.4)).unwrap();
        assert!(!conducting_nodes.pass());
        assert!(
            slow.render_spine().contains("FAIL"),
            "{}",
            slow.render_spine()
        );
        // A document with no spine point is a loud error.
        assert!(check_spine("{\"levels\": []}").is_err());
    }

    fn gf_doc(points: &[(&str, bool, u64, f64)]) -> String {
        let levels: Vec<String> = points
            .iter()
            .map(|(kernel, active, len, mbps)| {
                format!(
                    "    {{\"kernel\": \"{kernel}\", \"active\": {active}, \"len\": {len}, \
                     \"mul_mbps\": {mbps}, \"mul_xor_mbps\": {mbps}, \"combine10_mbps\": {mbps}}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"gf_throughput\",\n  \"levels\": [\n{}\n  ]\n}}\n",
            levels.join(",\n")
        )
    }

    /// [`check_gf`]'s `mul_xor_mbps` verdict ([`gf_doc`] fills every column alike).
    fn gf_report(current: &str, baseline: &str) -> GateReport {
        check_gf(current, baseline).unwrap()[0].1
    }

    #[test]
    fn gf_extracts_the_active_line_and_any_rung_by_name() {
        let json = gf_doc(&[
            ("scalar", false, 1 << 20, 900.0),
            ("avx2", true, 64 * 1024, 7_000.0),
            ("avx2", true, 1 << 20, 5_500.5),
        ]);
        let active = |len| extract_gf_active(&json, len);
        assert_eq!(active(1 << 20), Some("avx2"));
        assert_eq!(active(64 * 1024), Some("avx2"));
        assert_eq!(active(32 * 1024), None);
        let mbps = |kernel, len, column| extract_gf_kernel_mbps(&json, kernel, len, column);
        assert_eq!(mbps("avx2", 1 << 20, "mul_xor_mbps"), Some(5_500.5));
        assert_eq!(mbps("avx2", 64 * 1024, "combine10_mbps"), Some(7_000.0));
        assert_eq!(mbps("scalar", 1 << 20, "mul_xor_mbps"), Some(900.0));
        assert_eq!(mbps("scalar", 1 << 20, "xor_mbps"), None);
        assert_eq!(mbps("scalar", 64 * 1024, "mul_xor_mbps"), None);
        assert_eq!(mbps("gfni", 1 << 20, "mul_xor_mbps"), None);
        // A document with no active line at all is a miss, not a fallback.
        let inactive = gf_doc(&[("scalar", false, 1 << 20, 900.0)]);
        assert_eq!(extract_gf_active(&inactive, 1 << 20), None);
    }

    #[test]
    fn gf_gate_compares_the_current_kernel_with_its_namesake() {
        // A baseline taken on a GFNI host: one row per rung, gfni active.
        let baseline = gf_doc(&[
            ("gfni", true, 1 << 20, 20_000.0),
            ("avx2", false, 1 << 20, 5_000.0),
        ]);
        // A healthy AVX2 runner is held to the avx2 row, not to gfni's.
        let runner = gf_doc(&[("avx2", true, 1 << 20, 4_000.0)]);
        let report = gf_report(&runner, &baseline);
        assert_eq!(report.baseline, 5_000.0);
        assert!(report.pass(), "{}", report.render_gf("mul_xor_mbps"));
        // A slow gfni cannot hide behind the avx2 number.
        let slow = gf_doc(&[("gfni", true, 1 << 20, 6_000.0)]);
        let report = gf_report(&slow, &baseline);
        assert_eq!(report.baseline, 20_000.0);
        assert!(!report.pass());
        let verdict = report.render_gf("mul_xor_mbps");
        assert!(verdict.contains("FAIL"), "{verdict}");
        // Edge cases around the 30% floor.
        let edge_fail = gf_doc(&[("avx2", true, 1 << 20, 3_499.0)]);
        assert!(!gf_report(&edge_fail, &baseline).pass());
        let edge_pass = gf_doc(&[("avx2", true, 1 << 20, 3_501.0)]);
        assert!(gf_report(&edge_pass, &baseline).pass());
    }

    #[test]
    fn gf_gate_holds_combine_as_well_as_mul_xor() {
        // `codes` reaches the ladder through `combine` alone: a run whose
        // `mul_xor` holds while its `combine10` halves must fail, by name.
        let baseline = gf_doc(&[("avx2", true, 1 << 20, 5_000.0)]);
        let halved = baseline.replace("\"combine10_mbps\": 5000", "\"combine10_mbps\": 2500");
        assert_ne!(halved, baseline);
        let reports = check_gf(&halved, &baseline).unwrap();
        let failed: Vec<_> = reports.iter().filter(|(_, r)| !r.pass()).collect();
        let [(column, report)] = failed[..] else {
            panic!("one column regressed, {} failed", failed.len());
        };
        assert_eq!(*column, "combine10_mbps");
        let verdict = report.render_gf(column);
        assert!(
            verdict.contains("`combine10_mbps`") && verdict.contains("FAIL"),
            "{verdict}"
        );
        // A document from before the column existed is a loud error.
        let old = baseline.replace("combine10_mbps", "combine_mbps");
        assert!(check_gf(&baseline, &old).is_err());
    }

    #[test]
    fn gf_baseline_without_the_current_kernel_is_a_loud_error() {
        let baseline = gf_doc(&[("avx2", true, 1 << 20, 5_000.0)]);
        let gfni = gf_doc(&[("gfni", true, 1 << 20, 20_000.0)]);
        let err = check_gf(&gfni, &baseline).unwrap_err();
        assert!(
            err.contains("no `gfni` row") && err.contains("re-take"),
            "{err}"
        );
    }

    #[test]
    fn gf_missing_points_are_loud_errors() {
        let good = gf_doc(&[("avx2", true, 1 << 20, 5_000.0)]);
        let wrong_len = gf_doc(&[("avx2", true, 64 * 1024, 5_000.0)]);
        assert!(check_gf(&wrong_len, &good).is_err());
        assert!(check_gf(&good, &wrong_len).is_err());
        let zero = gf_doc(&[("avx2", true, 1 << 20, 0.0)]);
        assert!(check_gf(&good, &zero).is_err());
    }

    #[test]
    fn missing_points_are_loud_errors() {
        let baseline = doc(&[(20, 10_000, 5_000.0)]);
        let wrong = doc(&[(20, 1_000, 5_000.0)]);
        assert!(check(&wrong, &baseline).is_err());
        assert!(check(&baseline, &wrong).is_err());
        let zero = doc(&[(20, 10_000, 0.0)]);
        assert!(check(&baseline, &zero).is_err());
    }
}
