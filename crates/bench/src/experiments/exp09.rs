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
use crate::grid::{sweep, RunSpec};
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

    let code_sweep = |codes: Vec<Arc<dyn ErasureCode>>, algos: &[AlgoKind]| {
        sweep(codes, algos, jobs, |code, algo| {
            let fg = FgSpec::ycsb(scale.clients, scale.requests_per_client);
            let label = format!("{}/{}", code.name(), algo.label());
            let cfg = scale.cluster_config(code.n());
            RunSpec::new(label, code.clone(), cfg, algo, Some(fg)).execute()
        })
    };
    let lrc = |k, l, m| -> Arc<dyn ErasureCode> { Arc::new(Lrc::new(k, l, m).expect("LRC")) };
    let codes = vec![rs(8, 3), rs(10, 4), lrc(8, 2, 2), lrc(10, 2, 2)];
    let mut rows = code_sweep(codes, &AlgoKind::HEADLINE);
    // The paper only compares CR vs ChameleonEC for Butterfly (its
    // sub-chunk reads cannot be relayed). It comes last, as in the figure.
    let butterfly: Arc<dyn ErasureCode> = Arc::new(Butterfly::new());
    let versus_cr = [AlgoKind::Cr, AlgoKind::Chameleon];
    rows.extend(code_sweep(vec![butterfly], &versus_cr));

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
    for (code, algo, out) in &rows {
        let mbps = out.repair_mbps();
        if *algo == AlgoKind::Cr {
            cr = mbps;
        }
        let vs_cr = if *algo == AlgoKind::Cr {
            "-".to_string()
        } else {
            pct(improvement(mbps, cr))
        };
        table.push(vec![code.name(), algo.label(), format!("{mbps:.1}"), vs_cr]);
    }
    report.tables.push(table);
    report.note(
        "shape checks: LRC >> RS throughput (local repair); Butterfly gain small \
         (paper: ~+4.9%); RS/LRC gains substantial.",
    );
    report
}
