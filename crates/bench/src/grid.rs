//! Parallel experiment grid: declarative run specifications executed
//! across a scoped-thread worker pool with bit-identical determinism.
//!
//! The paper's evaluation is a wide sweep — traces × algorithms × seeds ×
//! cluster scales — and every cell is an *independent* simulation. The
//! grid exploits that: an experiment describes its cells as a list of
//! specs, [`run_grid`] executes them across `--jobs` workers (a shared
//! atomic work index — idle workers steal the next unclaimed spec), and
//! results come back **in spec order**, so the formatting pass downstream
//! sees exactly what sequential execution would have produced.
//!
//! # Determinism contract
//!
//! Grid output is byte-identical to `--jobs 1` because:
//!
//! 1. every run builds its *own* cluster, simulator, and drivers from the
//!    spec (no shared mutable state between cells);
//! 2. every RNG involved is seeded from the spec, never from time, thread
//!    identity, or a global counter;
//! 3. results are stored by spec index and returned in spec order, so
//!    completion order (which *does* vary with scheduling) is invisible;
//! 4. workers never print to stdout — the live progress line goes to
//!    stderr, and only when it is a terminal (or `CHAMELEON_PROGRESS=1`).
//!
//! Closures passed to [`run_grid`] must uphold (1) and (2): do not write
//! files, mutate captured state, or consult wall-clock time inside a run
//! (wall-clock *measurement* experiments like Exp#5 are the deliberate
//! exception — their numbers are timings, not simulation results).

use std::io::IsTerminal as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use chameleon_cluster::{ChunkId, ClusterConfig};
use chameleon_codes::ErasureCode;
use chameleon_core::chameleon::{ChameleonConfig, ChameleonDriver};
use chameleon_core::run::{stop_if, Routed};
use chameleon_core::{RepairContext, RepairDriver};
use chameleon_simnet::{FaultPlan, Simulator};

use std::sync::Arc;

use crate::algo::AlgoKind;
use crate::flags::Flag;
use crate::runner::{stage, FgSpec, RunOutput};

/// How a [`RunSpec`] builds its repair driver.
#[derive(Debug, Clone)]
pub enum DriverSpec {
    /// One of the named algorithms of the evaluation.
    Algo(AlgoKind),
    /// A ChameleonEC driver with explicit knobs (ablation studies).
    Chameleon(ChameleonConfig),
}

impl DriverSpec {
    /// Builds the driver for a context.
    pub fn build(&self, ctx: RepairContext, seed: u64) -> Box<dyn RepairDriver> {
        match self {
            DriverSpec::Algo(kind) => kind.driver(ctx, seed),
            DriverSpec::Chameleon(cfg) => Box::new(ChameleonDriver::new(ctx, *cfg)),
        }
    }

    /// Display label of the resulting driver.
    pub fn label(&self) -> String {
        match self {
            DriverSpec::Algo(kind) => kind.label(),
            DriverSpec::Chameleon(_) => AlgoKind::Chameleon.label(),
        }
    }
}

impl From<AlgoKind> for DriverSpec {
    fn from(kind: AlgoKind) -> Self {
        DriverSpec::Algo(kind)
    }
}

/// What a [`RunSpec`] simulates.
#[derive(Debug, Clone, Default)]
pub enum RunMode {
    /// Repair every chunk lost on the victims, draining the foreground
    /// (the standard experiment loop).
    #[default]
    Repair,
    /// Restore a single chunk and stop as soon as it is repaired — the
    /// degraded-read measurement (Exp#10). The foreground keeps serving
    /// while the read is restored; no foreground report is produced.
    DegradedRead(ChunkId),
}

/// One cell of an experiment grid: everything needed to run one repair
/// simulation, self-contained and immutable.
#[derive(Clone)]
pub struct RunSpec {
    /// Display label for progress/error reporting (e.g. `YCSB-A/CR`).
    pub label: String,
    /// The erasure code protecting the stripes.
    pub code: Arc<dyn ErasureCode>,
    /// Cluster topology, bandwidths, and placement.
    pub cfg: ClusterConfig,
    /// Nodes to fail before the repair starts.
    pub victims: Vec<usize>,
    /// The repair algorithm under test.
    pub driver: DriverSpec,
    /// Concurrent foreground load (None = repair only).
    pub fg: Option<FgSpec>,
    /// Seed for the driver's RNG (plan randomization in the baselines).
    pub seed: u64,
    /// Repair-campaign shape.
    pub mode: RunMode,
    /// Scheduled faults injected while the repair runs (None = fault-free).
    pub faults: Option<FaultPlan>,
    /// Record the engine's flow trace (off by default; tracing buffers
    /// every flow lifecycle event in memory).
    pub trace: bool,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("label", &self.label)
            .field("code", &self.code.name())
            .field("victims", &self.victims)
            .field("driver", &self.driver)
            .field("seed", &self.seed)
            .finish()
    }
}

impl RunSpec {
    /// A standard single-failure repair spec with the evaluation's default
    /// seed.
    pub fn new(
        label: impl Into<String>,
        code: Arc<dyn ErasureCode>,
        cfg: ClusterConfig,
        driver: impl Into<DriverSpec>,
        fg: Option<FgSpec>,
    ) -> Self {
        RunSpec {
            label: label.into(),
            code,
            cfg,
            victims: vec![0],
            driver: driver.into(),
            fg,
            seed: 7,
            mode: RunMode::Repair,
            faults: None,
            trace: false,
        }
    }

    /// Replaces the victim set.
    pub fn with_victims(mut self, victims: Vec<usize>) -> Self {
        self.victims = victims;
        self
    }

    /// Replaces the driver seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules a fault plan to fire during the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables the engine's flow trace for this run.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Switches to degraded-read mode for the given chunk.
    pub fn degraded_read(mut self, chunk: ChunkId) -> Self {
        self.mode = RunMode::DegradedRead(chunk);
        self
    }

    /// Executes the spec to completion. Pure function of the spec: no
    /// ambient state is read, so any thread may run it.
    ///
    /// A repair run repairs every chunk on the victims, concurrently with
    /// the foreground and under the fault plan, and drains everything; with
    /// [`RunSpec::with_trace`] the returned [`SimSummary`](crate::SimSummary)
    /// carries every flow lifecycle event.
    ///
    /// # Panics
    ///
    /// Panics if the repair or foreground never finishes (simulation bug).
    pub fn execute(&self) -> RunOutput {
        if let RunMode::DegradedRead(chunk) = self.mode {
            return self.execute_degraded_read(chunk);
        }
        let (mut run, lost) = stage(
            self.code.clone(),
            self.cfg.clone(),
            &self.victims,
            self.fg.clone(),
            self.faults.as_ref(),
            self.trace,
        )
        .expect("valid cluster");
        let mut driver = self.driver.build(run.ctx.clone(), self.seed);
        driver.start(&mut run.sim, lost);
        run.drain(&mut *driver).unwrap_or_else(|e| panic!("{e}"));
        RunOutput::collect(driver.outcome(&run.sim), run)
    }

    /// Restores one chunk while the foreground keeps serving; stops as
    /// soon as the chunk is repaired (its restore latency is the result).
    ///
    /// The read owns only that chunk: a crash during it updates the
    /// driver's failure view (the read's flows through the node fail over),
    /// but the crashed node's other chunks are not queued behind it, so the
    /// outcome times exactly the requested chunk.
    fn execute_degraded_read(&self, chunk: ChunkId) -> RunOutput {
        let (mut run, _) = stage(
            self.code.clone(),
            self.cfg.clone(),
            &self.victims,
            self.fg.clone(),
            self.faults.as_ref(),
            self.trace,
        )
        .expect("valid cluster");
        let mut driver = self.driver.build(run.ctx.clone(), self.seed);
        driver.set_external_admission(true);
        driver.start(&mut run.sim, vec![chunk]);
        // Measure the read latency; the foreground trace keeps running.
        run.run(&mut *driver, |_, driver, _, routed| {
            stop_if(routed == Routed::Repair && driver.is_done())
        })
        .unwrap_or_else(|e| panic!("degraded read: {e}"));
        run.foreground = None; // cut short, not drained: no report
        RunOutput::collect(driver.outcome(&run.sim), run)
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunSpec>();
};

/// Executes `specs` across `jobs` worker threads and returns the results
/// **in spec order**. See the [module docs](self) for the determinism
/// contract `run` must uphold.
///
/// Work distribution is a shared atomic index: each worker claims the next
/// unclaimed spec when it finishes its current one, so long runs never
/// leave workers idle while unclaimed work remains. `jobs` is clamped to
/// `1..=specs.len()`; at 1 the specs run inline on the caller's thread
/// with no pool at all.
///
/// # Panics
///
/// If a run panics, every in-flight run finishes, the pool drains, and the
/// panic is re-raised on the caller with the spec index attached (the
/// first panicking spec in spec order wins).
pub fn run_grid<S, R, F>(specs: &[S], jobs: usize, run: F) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(&S) -> R + Sync,
{
    let total = specs.len();
    let jobs = jobs.clamp(1, total.max(1));
    if jobs <= 1 {
        return specs.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let progress = Progress::new(total);
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let result = catch_unwind(AssertUnwindSafe(|| run(&specs[i])));
                *slots[i].lock().unwrap() = Some(result);
                progress.tick(done.fetch_add(1, Ordering::Relaxed) + 1);
            });
        }
    });
    progress.finish();

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            match slot
                .into_inner()
                .unwrap()
                .expect("worker pool drained every claimed spec")
            {
                Ok(r) => r,
                Err(payload) => panic!("grid run #{i} panicked: {}", panic_message(&*payload)),
            }
        })
        .collect()
}

/// Runs `run` on every `keys` × `algos` pair — keys outer, algorithms
/// inner — on [`run_grid`], and returns each result as a row next to its
/// key and algorithm, in that order. The rows are what
/// [`table::value_of`](crate::table::value_of) and
/// [`table::chameleon_gains`](crate::table::chameleon_gains) read.
pub fn sweep<K, R, F>(
    keys: impl IntoIterator<Item = K>,
    algos: &[AlgoKind],
    jobs: usize,
    run: F,
) -> Vec<(K, AlgoKind, R)>
where
    K: Clone + Sync,
    R: Send,
    F: Fn(&K, AlgoKind) -> R + Sync,
{
    let cells: Vec<(K, AlgoKind)> = keys
        .into_iter()
        .flat_map(|key| algos.iter().map(move |&algo| (key.clone(), algo)))
        .collect();
    let results = run_grid(&cells, jobs, |(key, algo)| run(key, *algo));
    cells
        .into_iter()
        .zip(results)
        .map(|((key, algo), r)| (key, algo, r))
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Live `completed/total` progress for a grid, written to stderr so stdout
/// stays byte-identical across job counts. Silent when stderr is not a
/// terminal (CI logs) unless `CHAMELEON_PROGRESS=1`.
struct Progress {
    total: usize,
    enabled: bool,
    started: Instant,
}

impl Progress {
    fn new(total: usize) -> Self {
        let enabled = std::io::stderr().is_terminal()
            || std::env::var("CHAMELEON_PROGRESS").as_deref() == Ok("1");
        Progress {
            total,
            enabled,
            started: Instant::now(),
        }
    }

    fn tick(&self, completed: usize) {
        if self.enabled {
            eprint!(
                "\r[grid] {completed}/{} runs ({:.1}s)",
                self.total,
                self.started.elapsed().as_secs_f64()
            );
        }
    }

    fn finish(&self) {
        if self.enabled {
            eprintln!();
        }
    }
}

/// The `--jobs` flag of every command that runs a grid; [`resolve_jobs`]
/// reads it.
pub const JOBS: Flag = (
    "jobs",
    "0",
    "worker threads; 0 = CHAMELEON_JOBS, else the available parallelism",
);

/// Resolves a requested worker count: a positive request wins; 0 means the
/// `CHAMELEON_JOBS` environment variable, then the machine's available
/// parallelism.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var("CHAMELEON_JOBS").map(|v| v.parse::<usize>()) {
        Ok(Ok(n)) => n.max(1),
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The simulator type is re-exported here so the Send-bound audit below is
/// visibly about what workers move across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>();
    assert_send::<RunOutput>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_grid_returns_empty() {
        let out: Vec<usize> = run_grid(&[] as &[usize], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_spec_runs_inline() {
        let out = run_grid(&[41usize], 8, |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_come_back_in_spec_order() {
        // Uneven work per item: late items finish first under parallelism.
        let specs: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 8] {
            let out = run_grid(&specs, jobs, |&x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * 10
            });
            assert_eq!(out, specs.iter().map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_sweep_is_keys_outer_algorithms_inner_each_row_beside_its_cell() {
        let algos = [AlgoKind::Cr, AlgoKind::Chameleon];
        for jobs in [1, 3] {
            let rows = sweep(["a", "b"], &algos, jobs, |key, algo| {
                format!("{key}/{algo:?}")
            });
            let cells: Vec<_> = rows.iter().map(|(k, a, _)| (*k, *a)).collect();
            assert_eq!(
                cells,
                [
                    ("a", AlgoKind::Cr),
                    ("a", AlgoKind::Chameleon),
                    ("b", AlgoKind::Cr),
                    ("b", AlgoKind::Chameleon)
                ]
            );
            for (key, algo, r) in &rows {
                assert_eq!(*r, format!("{key}/{algo:?}"));
            }
        }
        assert!(sweep(0..0, &algos, 2, |_: &i32, _| ()).is_empty());
    }

    #[test]
    fn every_spec_runs_exactly_once() {
        static COUNTS: [AtomicUsize; 16] = {
            #[allow(clippy::declare_interior_mutable_const)]
            const ZERO: AtomicUsize = AtomicUsize::new(0);
            [ZERO; 16]
        };
        let specs: Vec<usize> = (0..16).collect();
        run_grid(&specs, 4, |&x| COUNTS[x].fetch_add(1, Ordering::Relaxed));
        for (i, c) in COUNTS.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "spec {i}");
        }
    }

    #[test]
    fn panics_propagate_with_spec_index() {
        let specs: Vec<usize> = (0..8).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_grid(&specs, 4, |&x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("grid must re-raise the run panic");
        let msg = panic_message(&*payload);
        assert!(msg.contains("#5"), "message was: {msg}");
        assert!(msg.contains("boom at 5"), "message was: {msg}");
    }

    #[test]
    fn first_panic_in_spec_order_wins() {
        let specs: Vec<usize> = (0..8).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_grid(&specs, 2, |&x| {
                if x >= 6 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("grid must re-raise the run panic");
        let msg = panic_message(&*payload);
        assert!(msg.contains("#6"), "message was: {msg}");
    }

    /// A degraded read runs under its spec's fault plan and times the one
    /// chunk it reads. A crash of a surviving node of the stripe, 0.1 ms in,
    /// aborts the read's flows through that node (CR reads from k = 4 of
    /// the 5 survivors), or else leaves the read as it was. Either way the
    /// crashed node's own chunks are not the read's work: the outcome times
    /// exactly the requested chunk.
    #[test]
    fn a_degraded_read_runs_under_its_fault_plan() {
        use chameleon_cluster::Cluster;
        use chameleon_codes::ReedSolomon;
        use chameleon_simnet::{FaultPlan, FaultSpec};

        let mut scale = crate::Scale::small();
        scale.chunks_per_node = 2;
        let cfg = scale.cluster_config(6);
        let stripe = Cluster::new(cfg.clone())
            .unwrap()
            .placement()
            .stripe_nodes(0)
            .to_vec();
        let code: Arc<dyn ErasureCode> = Arc::new(ReedSolomon::new(4, 2).unwrap());
        let chunk = ChunkId {
            stripe: 0,
            index: 0,
        };
        let spec = RunSpec::new("degraded read", code, cfg, AlgoKind::Cr, None)
            .with_victims(vec![stripe[0]])
            .degraded_read(chunk);
        let clean = spec.execute().outcome;
        let mut seen = 0;
        for &node in &stripe[1..] {
            let crash = FaultPlan::new(vec![FaultSpec::Crash {
                node,
                at_secs: 1e-4,
            }]);
            let faulted = spec.clone().with_faults(crash).execute().outcome;
            assert_eq!(faulted.chunks_total, 1, "crash of node {node}");
            assert_eq!(faulted.per_chunk_secs.len(), 1, "crash of node {node}");
            let span = &faulted.spans[0];
            assert_eq!((span.stripe, span.index), (chunk.stripe, chunk.index));
            if faulted.recovery.aborted_flows > 0 {
                seen += 1;
            } else {
                assert_eq!(faulted.per_chunk_secs, clean.per_chunk_secs, "node {node}");
            }
        }
        assert_eq!(
            seen, 4,
            "a crash of each node the read reads from aborts its flows"
        );
    }

    /// The one test in this binary that reads or writes `CHAMELEON_JOBS`.
    #[test]
    fn a_request_of_zero_falls_back_to_the_environment_then_the_host() {
        let saved = std::env::var("CHAMELEON_JOBS");
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("CHAMELEON_JOBS", "3");
        assert_eq!(resolve_jobs(0), 3);
        assert_eq!(resolve_jobs(5), 5);
        std::env::set_var("CHAMELEON_JOBS", "0");
        assert_eq!(resolve_jobs(0), 1);
        std::env::set_var("CHAMELEON_JOBS", "not a number");
        assert_eq!(resolve_jobs(0), host);
        std::env::remove_var("CHAMELEON_JOBS");
        assert_eq!(resolve_jobs(0), host);
        assert_eq!(resolve_jobs(5), 5);
        if let Ok(v) = saved {
            std::env::set_var("CHAMELEON_JOBS", v);
        }
    }
}
