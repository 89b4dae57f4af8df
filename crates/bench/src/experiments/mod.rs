//! The paper's experiments and figure studies as library functions.
//!
//! Each module reproduces one artifact of the evaluation (§II-D and §V)
//! and returns it as a [`Report`]: tables, notes, artifacts. No experiment
//! prints or writes.
//!
//! Most are one keys × algorithms grid — traces, failure counts,
//! bandwidths, codes, fabrics or cluster sizes against the repair
//! algorithms — declared as one [`sweep`](crate::grid::sweep). Its rows
//! carry their own key and algorithm; a table is one pass over them, and
//! the gain notes read them through a metric
//! ([`chameleon_gains`](crate::table::chameleon_gains),
//! [`value_of`](crate::table::value_of)). The grids of another shape —
//! Exp#2's and Fig. 4(b)'s interleaved clean and repair runs, Exp#3's
//! per-key algorithm, Exp#5's host timings, Exp#14's driver knobs, Exp#17's
//! policies × seeds, Fig. 2 and Fig. 5 — call
//! [`run_grid`](crate::grid::run_grid) directly.
//!
//! The `suite` binary runs them — all, or the ones named with `--only` —
//! prints each report, persists it under `results/`, and records the perf
//! trajectory in `results/BENCH_experiments.json`.

pub mod exp01;
pub mod exp02;
pub mod exp03;
pub mod exp04;
pub mod exp05;
pub mod exp06;
pub mod exp07;
pub mod exp08;
pub mod exp09;
pub mod exp10;
pub mod exp11;
pub mod exp12;
pub mod exp13;
pub mod exp14;
pub mod exp15;
pub mod exp16;
pub mod exp17;
pub mod exp18;
pub mod fig02;
pub mod fig04;
pub mod fig05;
pub mod fig06;

use std::sync::Arc;

use chameleon_codes::{ErasureCode, ReedSolomon};

use crate::scale::Scale;
use crate::table::Report;

/// `RS(k, m)`, the code of every experiment but Exp#9's LRC and Butterfly
/// rows.
fn rs(k: usize, m: usize) -> Arc<dyn ErasureCode> {
    Arc::new(ReedSolomon::new(k, m).unwrap_or_else(|e| panic!("RS({k},{m}): {e:?}")))
}

/// One experiment of the suite: a name (the CSV stem) and its
/// entry point.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable identifier, e.g. `exp01_interference_study`.
    pub name: &'static str,
    /// One-line description (the paper artifact it reproduces).
    pub title: &'static str,
    /// Runs the experiment at the given scale with the given worker count.
    pub run: fn(&Scale, usize) -> Report,
}

/// Every experiment and figure study, in evaluation order.
pub const ALL: [Experiment; 22] = [
    Experiment {
        name: "fig02_reliability",
        title: "Fig. 2: data-loss probability vs repair throughput",
        run: fig02::run,
    },
    Experiment {
        name: "fig04_interference",
        title: "Fig. 4: repair/foreground interference vs client count",
        run: fig04::run,
    },
    Experiment {
        name: "fig05_fluctuation",
        title: "Fig. 5: foreground bandwidth fluctuation per window",
        run: fig05::run,
    },
    Experiment {
        name: "fig06_imbalance",
        title: "Fig. 6: most/least-loaded link utilization during repair",
        run: fig06::run,
    },
    Experiment {
        name: "exp01_interference_study",
        title: "Exp#1 (Fig. 12): repair throughput and P99 under four traces",
        run: exp01::run,
    },
    Experiment {
        name: "exp02_trace_execution",
        title: "Exp#2 (Fig. 13): interference degree per trace",
        run: exp02::run,
    },
    Experiment {
        name: "exp03_tphase",
        title: "Exp#3 (Fig. 14): repair throughput vs T_phase",
        run: exp03::run,
    },
    Experiment {
        name: "exp04_adaptivity",
        title: "Exp#4 (Fig. 15): adaptivity under trace transitions",
        run: exp04::run,
    },
    Experiment {
        name: "exp05_computation",
        title: "Exp#5 (Fig. 16): coordinator computation time",
        run: exp05::run,
    },
    Experiment {
        name: "exp06_repairboost",
        title: "Exp#6 (Fig. 17): RepairBoost-boosted baselines",
        run: exp06::run,
    },
    Experiment {
        name: "exp07_no_foreground",
        title: "Exp#7 (Fig. 18): no-foreground repair vs link bandwidth",
        run: exp07::run,
    },
    Experiment {
        name: "exp08_multinode",
        title: "Exp#8 (Fig. 19): multi-node repair",
        run: exp08::run,
    },
    Experiment {
        name: "exp09_generality",
        title: "Exp#9 (Fig. 20): generality across erasure codes",
        run: exp09::run,
    },
    Experiment {
        name: "exp10_degraded_read",
        title: "Exp#10 (Fig. 21): degraded-read throughput",
        run: exp10::run,
    },
    Experiment {
        name: "exp11_breakdown",
        title: "Exp#11 (Fig. 22): ETRP/SAR breakdown under stragglers",
        run: exp11::run,
    },
    Experiment {
        name: "exp12_storage_bottleneck",
        title: "Exp#12 (Fig. 23): storage-bottlenecked repair",
        run: exp12::run,
    },
    Experiment {
        name: "exp13_bandwidth",
        title: "Exp#13 (Fig. 24): impact of network bandwidth",
        run: exp13::run,
    },
    Experiment {
        name: "exp14_ablation",
        title: "Ablation: ChameleonEC design-knob sensitivity",
        run: exp14::run,
    },
    Experiment {
        name: "exp15_fault_tolerance",
        title: "Exp#15: repair under mid-campaign node crashes",
        run: exp15::run,
    },
    Experiment {
        name: "exp16_scalability",
        title: "Exp#16: full-node repair at 20-1000 storage nodes",
        run: exp16::run,
    },
    Experiment {
        name: "exp17_reliability",
        title: "Exp#17: measured MTTDL under continuous failure campaigns",
        run: exp17::run,
    },
    Experiment {
        name: "exp18_topology",
        title: "Exp#18: repair vs rack/spine oversubscription ratio",
        run: exp18::run,
    },
];

/// Looks an experiment up by name (exact match on [`Experiment::name`]).
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}
