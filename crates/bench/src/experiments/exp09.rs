//! Exp#9 (Fig. 20): generality across erasure codes — RS(8,3), RS(10,4),
//! LRC(8,2,2), LRC(10,2,2), and Butterfly(4,2), under YCSB foreground
//! traffic.
//!
//! Paper result: ChameleonEC improves repair throughput by 12.2–35.7% /
//! 31.4–54.2% / 65.7–97.0% over CR / PPR / ECPipe for RS and LRC; LRCs
//! repair much faster than RS (local groups read fewer chunks); for
//! Butterfly the gain is only ~4.9% because sub-chunks are shipped
//! directly and no elastic plan exists.

use std::sync::Arc;

use chameleon_codes::{Butterfly, ErasureCode, Lrc};

use super::rs;
use crate::grid::{run_specs, RunSpec};
use crate::runner::FgSpec;
use crate::table::{improvement, pct, Report, Table};
use crate::{AlgoKind, Scale};

/// Runs the experiment at the given scale across `jobs` workers.
pub fn run(scale: &Scale, jobs: usize) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "Exp#9 (Fig. 20): generality across erasure codes (scale '{}')",
        scale.name()
    ));

    let codes: Vec<Arc<dyn ErasureCode>> = vec![
        rs(8, 3),
        rs(10, 4),
        Arc::new(Lrc::new(8, 2, 2).expect("LRC(8,2,2)")),
        Arc::new(Lrc::new(10, 2, 2).expect("LRC(10,2,2)")),
        Arc::new(Butterfly::new()),
    ];

    let mut cells: Vec<(String, AlgoKind)> = Vec::new();
    let mut specs = Vec::new();
    for code in codes {
        let cfg = scale.cluster_config(code.n());
        // The paper only compares CR vs ChameleonEC for Butterfly (its
        // sub-chunk reads cannot be relayed).
        let algos: Vec<AlgoKind> = if code.name().starts_with("Butterfly") {
            vec![AlgoKind::Cr, AlgoKind::Chameleon]
        } else {
            AlgoKind::HEADLINE.to_vec()
        };
        for algo in algos {
            cells.push((code.name(), algo));
            specs.push(RunSpec::new(
                format!("{}/{}", code.name(), algo.label()),
                code.clone(),
                cfg.clone(),
                algo,
                Some(FgSpec::ycsb(scale.clients, scale.requests_per_client)),
            ));
        }
    }
    let outs = run_specs(&specs, jobs);

    let mut table = Table::new(
        "exp09_generality",
        "repair throughput per erasure code",
        &[
            ("code", "code"),
            ("algorithm", "algorithm"),
            ("repair MB/s", "repair_mbps"),
            ("vs CR", "vs_cr"),
        ],
    );
    let mut cr = 0.0f64;
    for ((code_name, algo), out) in cells.iter().zip(&outs) {
        let mbps = out.repair_mbps();
        if *algo == AlgoKind::Cr {
            cr = mbps;
        }
        let vs_cr = if *algo == AlgoKind::Cr {
            "-".to_string()
        } else {
            pct(improvement(mbps, cr))
        };
        table.push(vec![
            code_name.clone(),
            algo.label(),
            format!("{mbps:.1}"),
            vs_cr,
        ]);
    }
    report.tables.push(table);
    report.note(
        "shape checks: LRC >> RS throughput (local repair); Butterfly gain small \
         (paper: ~+4.9%); RS/LRC gains substantial.",
    );
    report
}
