//! What the host looked like while the numbers were taken: recorded in
//! every output so two result files can be told apart.

use std::process::Command;

use crate::json::Json;

/// The rustc that built this binary (captured by `build.rs`).
pub const RUSTC_VERSION: &str = env!("BENCH_RUSTC_VERSION");

/// The package directory, where `out/` lives and next to which
/// `BENCHMARK.json` sits.
pub const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            let parts: Vec<&str> = s.split_whitespace().take(3).collect();
            (parts.len() == 3).then(|| parts.join(" "))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, or `unknown` outside a git repository (the
/// driver's checkouts are plain directories).
fn commit() -> String {
    Command::new("git")
        .args(["-C", PACKAGE_DIR, "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Host facts as `(key, value)` pairs, in print order.
pub fn environment() -> Vec<(&'static str, String)> {
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("loadavg", load_average()),
        ("gf_kernel", chameleon_gf::active_kernel().to_string()),
        ("rustc", RUSTC_VERSION.to_string()),
        ("commit", commit()),
    ]
}

/// [`environment`] as a JSON object.
pub fn environment_json() -> Json {
    Json::obj(environment().into_iter().map(|(k, v)| (k, Json::Str(v))))
}
