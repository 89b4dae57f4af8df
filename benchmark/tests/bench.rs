//! Package tests: the traced loops against the library loops, the shape
//! of the metric registry, `BENCHMARK.json` against the registry, failed
//! cells, and a `--quick` smoke of the binary itself.

use std::collections::HashSet;
use std::process::Command;

use chameleon_benchmark::json::Json;
use chameleon_benchmark::registry::{
    self, Bound, CAMPAIGN20, CODEC, END_TO_END, FABRIC20, LAYERS, PER_LAYER, REPAIR20, SCALE1000,
    WORKLOADS,
};
use chameleon_benchmark::run::RUN_SECONDS;
use chameleon_benchmark::sim::{self, SimWorkload};
use chameleon_benchmark::spans::Recorder;
use chameleon_benchmark::traced;

const SIM_WORKLOADS: [&str; 4] = [REPAIR20, FABRIC20, SCALE1000, CAMPAIGN20];

/// The contract's rule for a name: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn traced_loops_reproduce_the_library_loops_at_tiny_scale() {
    for name in SIM_WORKLOADS {
        let wl = SimWorkload::build(name, 7, true);
        let (untraced, _) = sim::run_pass(&wl);
        let mut rec = Recorder::default();
        let traced = traced::run_pass(&wl, &mut rec);
        assert_eq!(untraced.len(), traced.len());
        let mut plans = 0;
        for ((cell, u), t) in wl.cells.iter().zip(&untraced).zip(&traced) {
            let u = u.as_ref().expect("untraced cell ran");
            let t = t
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", cell.label));
            assert_eq!(
                u.facts, t.result.facts,
                "{name}/{}: traced facts differ from the library loop's",
                cell.label
            );
            assert_eq!(
                traced::verify_plans(&*wl.code, 99, &t.plans),
                Vec::<String>::new(),
                "{name}/{}",
                cell.label
            );
            plans += t.plans.len();
        }
        assert!(plans > 0, "{name}: no plan completed, nothing was verified");
        let verdict = sim::check_pass(&wl, &untraced);
        assert_eq!(verdict.problems, Vec::<String>::new(), "{name}");
        assert_eq!(verdict.failed, 0, "{name}");
        assert!(verdict.attempted > 0, "{name}");

        // Every span closed, inside its parent.
        for span in rec.spans() {
            assert!(
                span.end_ns >= span.start_ns,
                "{name}: span {} never closed",
                span.name
            );
            if let Some(parent) = span.parent {
                let parent = &rec.spans()[parent];
                assert!(
                    parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                    "{name}: span {} escapes its parent {}",
                    span.name,
                    parent.name
                );
            }
        }
        assert_eq!(rec.span_count("loop"), wl.cells.len());
        assert!(rec.total("simnet.next_event").count > 0);
    }
}

#[test]
fn two_passes_of_one_seed_give_identical_facts_and_seeds_differ() {
    let wl = SimWorkload::build(CAMPAIGN20, 3, true);
    let facts = |wl: &SimWorkload| -> Vec<_> {
        sim::run_pass(wl)
            .0
            .into_iter()
            .map(|r| r.expect("cell ran").facts)
            .collect()
    };
    let first = facts(&wl);
    assert_eq!(first, facts(&wl));
    assert_ne!(first, facts(&SimWorkload::build(CAMPAIGN20, 4, true)));
}

#[test]
fn a_panicking_cell_is_counted_failed_not_fatal() {
    let mut wl = SimWorkload::build(REPAIR20, 1, true);
    // Fewer nodes than the stripe is wide: the library's own entry point
    // panics on the config.
    wl.cfg.storage_nodes = 3;
    let (results, _) = sim::run_pass(&wl);
    assert!(results.iter().all(Result::is_err));
    let verdict = sim::check_pass(&wl, &results);
    assert_eq!(verdict.failed, verdict.attempted);
    assert!(verdict.failed > 0);
    assert_eq!(verdict.problems.len(), wl.cells.len());

    let mut rec = Recorder::default();
    let traced = traced::run_pass(&wl, &mut rec);
    assert!(traced.iter().all(Result::is_err));
    assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn names_and_counts_fit_the_contract() {
    assert!(WORKLOADS.len() <= 8);
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let mut seen = HashSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_valid_name(name), "bad name `{name}`");
        assert!(seen.insert(name), "`{name}` is used twice");
    }
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(is_valid_unit(unit), "bad unit `{unit}`");
    }
    for w in WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why too long",
            w.name
        );
    }
    assert!(is_valid_name("a.b-c_9") && !is_valid_name(".a") && !is_valid_name("a b"));
}

#[test]
fn every_layer_metric_names_what_it_should_move_and_where() {
    for m in PER_LAYER {
        assert!(LAYERS.contains(&m.layer()), "{}: unknown layer", m.name);
        let target = registry::end_to_end(m.moves)
            .unwrap_or_else(|| panic!("{} moves unknown metric `{}`", m.name, m.moves));
        assert!(
            registry::is_workload(m.moves_on),
            "{}: unknown workload",
            m.name
        );
        assert!(
            target.workloads.contains(&m.moves_on),
            "{} should move {} on {}, where that metric does not exist",
            m.name,
            m.moves,
            m.moves_on
        );
        assert!(!m.workloads.is_empty(), "{} is measured nowhere", m.name);
        assert!(
            m.workloads.iter().all(|w| registry::is_workload(w)),
            "{}",
            m.name
        );
    }
    for layer in LAYERS {
        assert!(
            PER_LAYER.iter().any(|m| m.layer() == layer),
            "layer {layer} has no metric"
        );
    }
    for m in END_TO_END {
        assert!(
            m.workloads.iter().all(|w| registry::is_workload(w)),
            "{}",
            m.name
        );
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the package");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {}", v.render()))
}

#[test]
fn benchmark_json_matches_the_registry() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.len() <= 200 && !c.starts_with('/'))
    );

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (got, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(got.as_obj().unwrap().len(), 2);
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "why"), want.why);
    }

    let gated = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    let want = registry::driver_metrics(false);
    assert_eq!(gated.len(), want.len());
    assert!(gated.iter().any(|m| field(m, "name") == "setup_s"));
    for (got, (name, unit, better)) in gated.iter().zip(want) {
        assert_eq!(got.as_obj().unwrap().len(), 4);
        assert_eq!(field(got, "name"), name);
        assert_eq!(field(got, "unit"), unit);
        assert_eq!(field(got, "better"), better.label());
        let bound = got.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        assert_eq!(
            registry::end_to_end(name).unwrap().bound,
            Bound::Share(bound)
        );
    }

    let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    let want = registry::driver_metrics(true);
    assert_eq!(layers.len(), want.len());
    assert!(layers.len() <= 128);
    for (got, (name, unit, better)) in layers.iter().zip(want) {
        assert_eq!(got.as_obj().unwrap().len(), 3);
        assert_eq!(field(got, "name"), name);
        assert_eq!(field(got, "unit"), unit);
        assert_eq!(field(got, "better"), better.label());
    }
}

/// Runs the built binary and returns its report text and parsed last line.
fn run_binary(args: &[&str]) -> (String, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_chameleon-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let (text, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .expect("report then result line");
    (
        text.to_string(),
        Json::parse(line).expect("last line is JSON"),
    )
}

#[test]
fn quick_smoke_of_every_workload_through_the_binary() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (text, line) = run_binary(&[
                "--workload",
                workload.name,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            assert!(
                text.contains("QUICK"),
                "quick runs are marked non-comparable"
            );
            assert!(text.contains("checks: ok"), "{text}");
            for key in ["nproc=", "loadavg=", "gf_kernel=", "rustc=", "commit="] {
                assert!(text.contains(key), "{key} missing from the header");
            }
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));

            // Exactly the metrics BENCHMARK.json lists for this kind of run.
            let listed = doc.get(list).and_then(Json::as_arr).unwrap();
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), listed.len());
            for (want, (name, got)) in listed.iter().zip(metrics) {
                assert_eq!(field(want, "name"), name);
                assert_eq!(field(want, "unit"), field(got, "unit"));
                let value = got.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{name}");
                if trace == "0" {
                    assert!(
                        value > 0.0,
                        "{}: end-to-end {name} must never read 0",
                        workload.name
                    );
                }
            }
            // Every metric the registry places on this workload was measured.
            if trace == "1" {
                let value = |name: &str| {
                    metrics
                        .iter()
                        .find(|(k, _)| k == name)
                        .unwrap()
                        .1
                        .get("value")
                        .unwrap()
                        .as_f64()
                        .unwrap()
                };
                for m in PER_LAYER
                    .iter()
                    .filter(|m| m.workloads.contains(&workload.name))
                {
                    assert!(
                        text.contains(m.name),
                        "{}: {} not reported",
                        workload.name,
                        m.name
                    );
                }
                for m in END_TO_END
                    .iter()
                    .filter(|m| m.workloads.contains(&workload.name))
                {
                    assert!(
                        text.contains(m.name),
                        "{}: {} not reported",
                        workload.name,
                        m.name
                    );
                }
                assert!(value("bench.trace_overhead_pct").is_finite());
                check_trace_file(workload.name);
            }
        }
    }
    let (_, line) = run_binary(&["--workload", CODEC, "--quick", "--report-all"]);
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert!(metrics.iter().any(|(k, _)| k == "encode_mbps"));
}

fn check_trace_file(workload: &str) {
    let path = format!("{}/out/trace_{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("trace file written")).unwrap();
    assert_eq!(field(&doc, "workload"), workload);
    assert_eq!(doc.get("comparable"), Some(&Json::Bool(false)));
    assert!(doc
        .get("environment")
        .and_then(|e| e.get("rustc"))
        .is_some());
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty());
    for span in spans {
        let num = |k: &str| span.get(k).and_then(Json::as_f64).unwrap();
        assert!(num("end_ns") >= num("start_ns"));
        match span.get("parent").unwrap() {
            Json::Null => assert_eq!(field(span, "name"), "pass"),
            parent => assert!(parent.as_f64().unwrap() < num("id")),
        }
    }
    let aggregates = doc.get("aggregates").and_then(Json::as_arr).unwrap();
    assert!(!aggregates.is_empty());
    for agg in aggregates {
        let owner = agg.get("span").and_then(Json::as_f64).unwrap() as usize;
        assert!(owner < spans.len());
        assert!(
            agg.get("sum_ns").and_then(Json::as_f64).unwrap()
                >= agg.get("max_ns").and_then(Json::as_f64).unwrap()
        );
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result_line() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--trace", "2"],
        &["--seconds", "-1"],
        &["--seed"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_chameleon-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
