//! `report` — summarizes the CSVs under `results/` into a single
//! `results/REPORT.md`, so a full `cargo bench` run leaves a browsable
//! artifact.
//!
//! Run with: `cargo run -p chameleon-bench --bin report`

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use chameleon_bench::table::{parse_csv, results_dir};

fn main() {
    let dir = results_dir();
    let mut entries: Vec<PathBuf> = match fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .collect(),
        Err(e) => {
            eprintln!("no results directory at {}: {e}", dir.display());
            eprintln!("run `cargo bench -p chameleon-bench` first");
            std::process::exit(1);
        }
    };
    entries.sort();
    if entries.is_empty() {
        eprintln!(
            "no CSVs in {}; run `cargo bench -p chameleon-bench` first",
            dir.display()
        );
        std::process::exit(1);
    }

    let mut md = String::from(
        "# ChameleonEC experiment report\n\nGenerated from the CSVs in this directory \
         (`cargo run -p chameleon-bench --bin report`).\nSee `EXPERIMENTS.md` at the \
         workspace root for the paper-vs-measured analysis.\n",
    );
    for path in &entries {
        match render_csv(path) {
            Ok(section) => md.push_str(&section),
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    let out = dir.join("REPORT.md");
    match fs::write(&out, md) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

/// Renders one CSV as a markdown table section.
fn render_csv(path: &Path) -> Result<String, String> {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unknown");
    let content = fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut lines = parse_csv(&content).into_iter();
    let cols = lines.next().ok_or("empty csv")?;

    let mut md = String::new();
    let _ = writeln!(md, "\n## {name}\n");
    let _ = writeln!(md, "| {} |", cols.join(" | "));
    let _ = writeln!(
        md,
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for (rows, line) in lines.enumerate() {
        let _ = writeln!(md, "| {} |", line.join(" | "));
        if rows + 1 >= 200 {
            let _ = writeln!(md, "\n*(truncated)*");
            break;
        }
    }
    Ok(md)
}
