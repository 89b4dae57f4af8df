//! The traced pass: the benchmark's own copy of the library's event loops
//! (`run_repair_traced`, `run_orchestrated`, `run_foreground_only`), built
//! from the same public calls, with a span or an aggregate around every
//! call that crosses into a layer.
//!
//! The copy must stay equivalent to the library loops: the run fails
//! unless each traced cell reproduces the untraced cell's facts exactly.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chameleon_bench::{RunOutput, SimSummary};
use chameleon_cluster::{ChunkId, Cluster, ForegroundDriver};
use chameleon_codes::ErasureCode;
use chameleon_core::{
    Orchestrator, RepairContext, RepairDriver, RepairError, RepairOutcome, RepairPlan, RepairSpan,
};
use chameleon_gf::mul_add_slice;
use chameleon_simnet::{Event, FaultEvent, Simulator};

use crate::sim::{catch_cell, Cell, CellKind, CellResult, SimWorkload};
use crate::spans::{Agg, Recorder};

/// A traced cell: the comparable result plus the plans it completed.
pub struct TracedCell {
    /// Facts and coding cost, as for an untraced cell.
    pub result: CellResult,
    /// The plan of every completed chunk repair.
    pub plans: Vec<RepairPlan>,
}

/// Runs every cell of `wl` through the traced loops under one `pass` span.
pub fn run_pass(wl: &SimWorkload, rec: &mut Recorder) -> Vec<Result<TracedCell, String>> {
    let pass = rec.open("pass");
    let mut cells = Vec::new();
    for cell in &wl.cells {
        let result = catch_cell(|| trace_cell(wl, cell, rec));
        if result.is_err() {
            // The panic unwound past its open spans; close them so the
            // remaining cells still nest under the pass.
            rec.unwind_to(pass);
        }
        cells.push(result);
    }
    rec.close(pass);
    cells
}

fn trace_cell(wl: &SimWorkload, cell: &Cell, rec: &mut Recorder) -> TracedCell {
    let span = rec.open(format!("cell:{}", cell.label));
    let traced = match &cell.kind {
        CellKind::FgOnly => trace_fg_only(wl, rec),
        CellKind::Repair { algo, victims } => {
            let spec = wl.run_spec(cell, *algo, victims);
            trace_repair(wl, rec, victims, |ctx| spec.driver.build(ctx, spec.seed))
        }
        CellKind::Campaign { algo, faults } => {
            trace_campaign(wl, rec, faults, |ctx| algo.driver(ctx, wl.driver_seed))
        }
    };
    rec.close(span);
    traced
}

/// Set-up shared by the three loops, in the library's order: cluster,
/// victims, context, simulator, foreground generators.
struct Stage {
    ctx: RepairContext,
    sim: Simulator,
    fg: ForegroundDriver,
    lost: Vec<ChunkId>,
}

fn stage(wl: &SimWorkload, rec: &mut Recorder, victims: &[usize]) -> Stage {
    let setup = rec.open("setup");
    let mut cluster = rec.span("cluster.new", || {
        Cluster::new(wl.cfg.clone()).expect("valid cluster config")
    });
    for &v in victims {
        cluster.fail_node(v).expect("valid victim");
    }
    let lost = rec.span("cluster.lost_chunks", || cluster.lost_chunks(victims));
    let ctx = RepairContext::new(cluster, wl.code.clone());
    let mut sim = rec.span("simnet.build", || ctx.cluster.build_simulator());
    sim.set_trace_enabled(false);
    let workloads = rec.span("traces.build", || wl.fg.workloads());
    let fg = ForegroundDriver::new(workloads, wl.fg.requests_per_client);
    rec.close(setup);
    Stage { ctx, sim, fg, lost }
}

fn finish(
    wl: &SimWorkload,
    rec: &mut Recorder,
    sim: Simulator,
    fg: ForegroundDriver,
    outcome: Option<RepairOutcome>,
    campaign: Option<(chameleon_core::OrchestratorReport, String)>,
) -> CellResult {
    assert!(fg.is_done(), "foreground did not finish");
    let capture = rec.open("outcome");
    let report = rec.span("cluster.fg_report", || fg.report(&sim));
    let summary = rec.span("bench.summary_capture", || SimSummary::capture(sim));
    let result = match outcome {
        Some(outcome) => CellResult::capture(
            &wl.cfg,
            RunOutput {
                outcome,
                fg_report: Some(report),
                sim: summary,
            },
            campaign,
        ),
        None => CellResult::capture_fg_only(&wl.cfg, report, &summary),
    };
    rec.close(capture);
    result
}

fn trace_fg_only(wl: &SimWorkload, rec: &mut Recorder) -> TracedCell {
    let Stage {
        ctx,
        mut sim,
        mut fg,
        ..
    } = stage(wl, rec, &[]);
    rec.span("cluster.fg_start", || fg.start(&ctx.cluster, &mut sim));

    let event_loop = rec.open("loop");
    let (mut next_event, mut fg_on_event) = (Agg::default(), Agg::default());
    let mut t0 = Instant::now();
    loop {
        let ev = sim.next_event();
        let t1 = Instant::now();
        next_event.add(t0, t1);
        let Some(ev) = ev else { break };
        fg.on_event(&ctx.cluster, &mut sim, &ev);
        t0 = Instant::now();
        fg_on_event.add(t1, t0);
    }
    rec.aggregate("simnet.next_event", next_event);
    rec.aggregate("cluster.fg_on_event", fg_on_event);
    rec.close(event_loop);

    TracedCell {
        result: finish(wl, rec, sim, fg, None, None),
        plans: Vec::new(),
    }
}

fn trace_repair(
    wl: &SimWorkload,
    rec: &mut Recorder,
    victims: &[usize],
    make_driver: impl FnOnce(RepairContext) -> Box<dyn RepairDriver>,
) -> TracedCell {
    let Stage {
        ctx,
        mut sim,
        mut fg,
        lost,
    } = stage(wl, rec, victims);
    rec.span("cluster.fg_start", || fg.start(&ctx.cluster, &mut sim));
    let mut driver = make_driver(ctx.clone());
    rec.span("core.start", || driver.start(&mut sim, lost));

    let event_loop = rec.open("loop");
    let (mut next_event, mut on_event, mut fg_on_event) =
        (Agg::default(), Agg::default(), Agg::default());
    let mut t0 = Instant::now();
    loop {
        let ev = sim.next_event();
        let t1 = Instant::now();
        next_event.add(t0, t1);
        let Some(ev) = ev else { break };
        let handled = driver.on_event(&mut sim, &ev);
        t0 = Instant::now();
        on_event.add(t1, t0);
        if !handled {
            fg.on_event(&ctx.cluster, &mut sim, &ev);
            let t2 = Instant::now();
            fg_on_event.add(t0, t2);
            t0 = t2;
        }
    }
    rec.aggregate("simnet.next_event", next_event);
    rec.aggregate("core.on_event", on_event);
    rec.aggregate("cluster.fg_on_event", fg_on_event);
    rec.close(event_loop);

    assert!(driver.is_done(), "repair driver did not finish");
    let outcome = rec.span("core.outcome", || driver.outcome(&sim));
    let plans = driver.completed_plans().to_vec();
    TracedCell {
        result: finish(wl, rec, sim, fg, Some(outcome), None),
        plans,
    }
}

/// What the [`Boundary`] wrapper saw of the calls the orchestrator made
/// into the repair driver.
#[derive(Default)]
struct DriverCalls {
    on_event: Agg,
    on_fault: Agg,
    /// `start` calls made while the orchestrator handled an event.
    start_in_event: Agg,
    /// `start` calls made while the orchestrator handled a fault.
    start_in_fault: Agg,
    /// Set by the loop around `Orchestrator::on_fault`, so admissions are
    /// charged to the orchestrator call that made them.
    in_fault: bool,
    plans: Vec<RepairPlan>,
}

/// Sits between the orchestrator and the repair driver it owns, timing
/// each call and copying out completed plans. The orchestrator takes the
/// driver by value and never hands it back, so this is the only place the
/// boundary between the two can be observed from outside the crate. It
/// forwards everything unchanged.
struct Boundary {
    inner: Box<dyn RepairDriver>,
    calls: Arc<Mutex<DriverCalls>>,
}

impl Boundary {
    fn calls(&self) -> std::sync::MutexGuard<'_, DriverCalls> {
        self.calls
            .lock()
            .expect("no traced call panics while holding the lock")
    }

    fn harvest(&self, calls: &mut DriverCalls) {
        let done = self.inner.completed_plans();
        if done.len() > calls.plans.len() {
            let seen = calls.plans.len();
            calls.plans.extend_from_slice(&done[seen..]);
        }
    }
}

impl RepairDriver for Boundary {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn start(&mut self, sim: &mut Simulator, chunks: Vec<ChunkId>) {
        let t0 = Instant::now();
        self.inner.start(sim, chunks);
        let t1 = Instant::now();
        let mut calls = self.calls();
        if calls.in_fault {
            calls.start_in_fault.add(t0, t1);
        } else {
            calls.start_in_event.add(t0, t1);
        }
    }

    fn on_event(&mut self, sim: &mut Simulator, event: &Event) -> bool {
        let t0 = Instant::now();
        let handled = self.inner.on_event(sim, event);
        let t1 = Instant::now();
        let mut calls = self.calls();
        calls.on_event.add(t0, t1);
        if handled {
            self.harvest(&mut calls);
        }
        handled
    }

    fn on_fault(&mut self, sim: &mut Simulator, fault: &FaultEvent) {
        let t0 = Instant::now();
        self.inner.on_fault(sim, fault);
        self.calls().on_fault.add(t0, Instant::now());
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn outcome(&self, sim: &Simulator) -> RepairOutcome {
        self.inner.outcome(sim)
    }

    fn spans(&self) -> &[RepairSpan] {
        self.inner.spans()
    }

    fn errors(&self) -> &[RepairError] {
        self.inner.errors()
    }

    fn completed_plans(&self) -> &[RepairPlan] {
        self.inner.completed_plans()
    }

    fn set_external_admission(&mut self, external: bool) {
        self.inner.set_external_admission(external);
    }
}

fn trace_campaign(
    wl: &SimWorkload,
    rec: &mut Recorder,
    faults: &chameleon_simnet::FaultPlan,
    make_driver: impl FnOnce(RepairContext) -> Box<dyn RepairDriver>,
) -> TracedCell {
    let Stage {
        ctx,
        mut sim,
        mut fg,
        ..
    } = stage(wl, rec, &[]);
    let mut injector = rec.span("simnet.fault_inject.arm", || faults.inject(&mut sim));
    rec.span("cluster.fg_start", || fg.start(&ctx.cluster, &mut sim));
    let calls = Arc::new(Mutex::new(DriverCalls::default()));
    let driver = Box::new(Boundary {
        inner: make_driver(ctx.clone()),
        calls: calls.clone(),
    });
    let mut orchestrator = Orchestrator::new(ctx.clone(), driver, wl.orch);

    let event_loop = rec.open("loop");
    let (mut next_event, mut inject, mut orch_fault, mut orch_event, mut fg_on_event) = (
        Agg::default(),
        Agg::default(),
        Agg::default(),
        Agg::default(),
        Agg::default(),
    );
    let mut t0 = Instant::now();
    loop {
        let ev = sim.next_event();
        let t1 = Instant::now();
        next_event.add(t0, t1);
        let Some(ev) = ev else { break };
        let fault = injector.on_event(&mut sim, &ev);
        let t2 = Instant::now();
        inject.add(t1, t2);
        if let Some(fault) = fault {
            calls.lock().expect("no call in progress").in_fault = true;
            orchestrator.on_fault(&mut sim, &fault);
            calls.lock().expect("no call in progress").in_fault = false;
            t0 = Instant::now();
            orch_fault.add(t2, t0);
            continue;
        }
        let handled = orchestrator.on_event(&mut sim, &ev);
        t0 = Instant::now();
        orch_event.add(t2, t0);
        if !handled {
            fg.on_event(&ctx.cluster, &mut sim, &ev);
            let t3 = Instant::now();
            fg_on_event.add(t0, t3);
            t0 = t3;
        }
    }
    rec.aggregate("simnet.next_event", next_event);
    rec.aggregate("simnet.fault_inject", inject);
    // Orchestrator calls contain the driver calls they make; both are
    // filed, and the orchestrator's own share is the difference.
    rec.aggregate("core.orch_on_fault", orch_fault);
    rec.aggregate("core.orch_on_event", orch_event);
    rec.aggregate("cluster.fg_on_event", fg_on_event);
    let plans = {
        let mut calls = calls.lock().expect("driver calls are done");
        rec.aggregate("core.on_event", calls.on_event);
        rec.aggregate("core.on_fault", calls.on_fault);
        rec.aggregate("core.start_in_event", calls.start_in_event);
        rec.aggregate("core.start_in_fault", calls.start_in_fault);
        std::mem::take(&mut calls.plans)
    };
    rec.close(event_loop);

    assert!(
        orchestrator.is_done(),
        "orchestrated campaign did not quiesce"
    );
    let report = orchestrator.report();
    let ledger = rec.span("core.ledger_render", || orchestrator.ledger_jsonl());
    let outcome = rec.span("core.outcome", || orchestrator.outcome(&sim));
    TracedCell {
        result: finish(wl, rec, sim, fg, Some(outcome), Some((report, ledger))),
        plans,
    }
}

/// Chunk length of the stripes used to verify plans: long enough to cross
/// every kernel's vector width and tail handling, short enough that
/// verifying hundreds of plans stays far outside the time budget.
const VERIFY_CHUNK_BYTES: usize = 4096 + 13;

/// Checks, on real bytes, that each completed plan's coefficients rebuild
/// the chunk it claims to repair. Returns the plans that do not.
pub fn verify_plans(code: &dyn ErasureCode, data_seed: u64, plans: &[RepairPlan]) -> Vec<String> {
    let mut stripes: HashMap<usize, Vec<Vec<u8>>> = HashMap::new();
    let mut wrong = Vec::new();
    for plan in plans {
        let chunk = plan.chunk();
        let stripe = stripes.entry(chunk.stripe).or_insert_with(|| {
            let data: Vec<Vec<u8>> = (0..code.k())
                .map(|i| {
                    crate::codec::fill(
                        VERIFY_CHUNK_BYTES,
                        data_seed ^ ((chunk.stripe as u64) << 16 | i as u64),
                    )
                })
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            code.encode(&refs).expect("k equal-length chunks encode")
        });
        let expected = &stripe[chunk.index];
        let sources: Vec<usize> = plan.participants().iter().map(|p| p.chunk_index).collect();
        let whole_chunk = plan
            .participants()
            .iter()
            .all(|p| (p.read_fraction - 1.0).abs() < 1e-12)
            && code.repair_coefficients(chunk.index, &sources).is_ok();
        let rebuilt = if whole_chunk {
            let mut out = vec![0u8; expected.len()];
            for p in plan.participants() {
                mul_add_slice(p.coeff, &stripe[p.chunk_index], &mut out);
            }
            out
        } else {
            let inputs: Vec<(usize, &[u8])> = plan
                .participants()
                .iter()
                .map(|p| (p.chunk_index, stripe[p.chunk_index].as_slice()))
                .collect();
            match code.repair(chunk.index, &inputs) {
                Ok(out) => out,
                Err(e) => {
                    wrong.push(format!(
                        "plan for {chunk}: sources cannot repair it ({e:?})"
                    ));
                    continue;
                }
            }
        };
        if &rebuilt != expected {
            wrong.push(format!(
                "plan for {chunk}: coefficients do not rebuild the chunk"
            ));
        }
    }
    wrong
}
