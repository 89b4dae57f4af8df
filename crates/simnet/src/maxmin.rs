//! Max–min fair rate allocation by progressive filling.
//!
//! Two solvers, two roles:
//!
//! - [`IncrementalSolver`] — the production solver behind the simulator.
//!   It keeps the group registry, the inverted resource→group index, the
//!   last-solved rates and a per-resource saturation flag *across* solves.
//!   Mutations are only recorded; each solve diffs them against the state
//!   of the last solve, walks the contention closure of the genuine
//!   differences (conducting only through saturated resources) and runs
//!   progressive filling in place over that closure. What a solve costs is
//!   what the mutations can change; what it returns is bit-identical to
//!   the batch solver over the whole registry (see the type docs for why).
//! - [`MaxMinSolver`] — the batch solver over a CSR incidence list, and the
//!   oracle: `Simulator::verify_against_full_solve`, [`allocate_rates`] and
//!   the differential proptests solve the whole flow set with it and
//!   compare bitwise. It builds a resource→flow inverted index once per
//!   solve and keeps per-resource live-load counters, so each freeze round
//!   touches only the flows that cross the bottleneck.
//!
//! Both perform the same floating-point operations in the same order:
//! bottleneck = smallest `remaining / load` (ties to the lowest resource
//! index), its unfrozen residents frozen in ascending group order, each
//! subtracting `share × weight` from every resource it crosses.
//!
//! The original textbook implementation, the second oracle of the
//! differential proptests, lives beside the engine in `simnet::reference`.

/// Computes the max–min fair allocation for a set of flows over shared
/// capacity-limited resources.
///
/// `capacities[r]` is the capacity of resource `r`; `flows[f]` lists the
/// resources flow `f` traverses (each flow is limited by its tightest
/// resource share). Returns the rate of each flow.
///
/// This is the classic *progressive filling* algorithm: repeatedly find the
/// bottleneck resource (smallest equal-share), freeze the flows crossing it
/// at that share, remove their consumption, and continue. The result is the
/// unique max–min fair allocation, which models how TCP-like congestion
/// control divides link bandwidth among competing transfers.
///
/// # Panics
///
/// Panics if a flow references a resource index out of range (debug
/// assertions) or lists no resources.
///
/// # Examples
///
/// ```
/// use chameleon_simnet::allocate_rates;
/// // One 10-unit link shared by two flows, one of which also crosses a
/// // 2-unit link: the constrained flow gets 2, the other picks up 8.
/// let rates = allocate_rates(&[10.0, 2.0], &[vec![0], vec![0, 1]]);
/// assert_eq!(rates, vec![8.0, 2.0]);
/// ```
pub fn allocate_rates(capacities: &[f64], flows: &[Vec<usize>]) -> Vec<f64> {
    let mut solver = MaxMinSolver::new();
    let mut offsets = Vec::with_capacity(flows.len() + 1);
    let mut targets = Vec::new();
    offsets.push(0u32);
    for f in flows {
        assert!(!f.is_empty(), "flow must traverse at least one resource");
        for &r in f {
            debug_assert!(r < capacities.len(), "resource index out of range");
            targets.push(r as u32);
        }
        offsets.push(targets.len() as u32);
    }
    let mut rates = vec![0.0f64; flows.len()];
    solver.solve_into(capacities, &offsets, &targets, &mut rates);
    rates
}

/// Reusable batch progressive-filling solver over a CSR flow→resource
/// incidence list — the oracle the incremental solver is checked against.
///
/// The caller describes the flow set in compressed sparse row form: flow
/// `f` traverses `targets[offsets[f]..offsets[f+1]]`. All working memory
/// (the inverted index, load counters, freeze flags) lives in the solver
/// and is reused by the next call, so repeated solves are allocation-free.
///
/// # Examples
///
/// ```
/// use chameleon_simnet::MaxMinSolver;
/// let mut solver = MaxMinSolver::new();
/// let mut rates = vec![0.0; 2];
/// // Flow 0 crosses resource 0; flow 1 crosses resources 0 and 1.
/// solver.solve_into(&[10.0, 2.0], &[0, 1, 3], &[0, 0, 1], &mut rates);
/// assert_eq!(rates, vec![8.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct MaxMinSolver {
    /// Remaining capacity per resource.
    rem_cap: Vec<f64>,
    /// Total weight of unfrozen flows crossing each resource.
    load: Vec<u32>,
    /// Inverted index: flows crossing each resource, CSR.
    res_offsets: Vec<u32>,
    res_flows: Vec<u32>,
    /// Write cursor per resource while building the inverted index.
    cursor: Vec<u32>,
    frozen: Vec<bool>,
    /// All-ones weight buffer backing the unweighted entry point.
    ones: Vec<u32>,
    /// Cumulative progressive-filling rounds across all solves.
    rounds: u64,
}

impl MaxMinSolver {
    /// Creates an empty solver; buffers grow on first use.
    pub fn new() -> Self {
        MaxMinSolver::default()
    }

    /// Total progressive-filling rounds (bottleneck freezes) performed
    /// across every solve so far. A round freezes at least one group, so
    /// `total_rounds / solves` is the mean bottleneck count per solve.
    pub fn total_rounds(&self) -> u64 {
        self.rounds
    }

    /// Solves the max–min allocation, writing one rate per flow into
    /// `rates`.
    ///
    /// Equivalent to [`MaxMinSolver::solve_weighted_into`] with every
    /// weight 1 (and bit-identical to it: a weight-1 freeze performs the
    /// exact same float operations).
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() + 1 != offsets.len()`, if a flow lists no
    /// resources, or (debug assertions) if a resource index is out of
    /// range.
    pub fn solve_into(
        &mut self,
        capacities: &[f64],
        offsets: &[u32],
        targets: &[u32],
        rates: &mut [f64],
    ) {
        self.ones.resize(rates.len(), 1);
        let ones = core::mem::take(&mut self.ones);
        self.solve_weighted_into(capacities, offsets, targets, &ones, rates);
        self.ones = ones;
    }

    /// Solves the max–min allocation over *flow groups*: row `f` of the
    /// CSR stands for `weights[f]` identical flows, each of which receives
    /// `rates[f]`.
    ///
    /// Flows with the same resource set always freeze in the same round at
    /// the same share, so grouping them is exact (up to float-op
    /// reassociation: a group freeze subtracts `share × weight` once
    /// instead of `share` per member). The simulator exploits this: a
    /// cluster has O(nodes²) distinct flow shapes no matter how many
    /// flows are active, collapsing the per-solve cost from
    /// O(flows × degree) to O(groups × degree + rounds × resources).
    ///
    /// # Panics
    ///
    /// Panics if `rates`, `weights` and `offsets` disagree on the group
    /// count, if a group lists no resources or has zero weight, or (debug
    /// assertions) if a resource index is out of range.
    pub fn solve_weighted_into(
        &mut self,
        capacities: &[f64],
        offsets: &[u32],
        targets: &[u32],
        weights: &[u32],
        rates: &mut [f64],
    ) {
        let nflows = rates.len();
        assert_eq!(offsets.len(), nflows + 1, "offsets must bracket each flow");
        assert_eq!(weights.len(), nflows, "one weight per flow group");
        rates.fill(0.0);
        if nflows == 0 {
            return;
        }
        let nres = capacities.len();

        self.rem_cap.clear();
        self.rem_cap.extend_from_slice(capacities);
        self.load.clear();
        self.load.resize(nres, 0);
        for f in 0..nflows {
            assert!(weights[f] > 0, "flow group must have positive weight");
            for &r in &targets[offsets[f] as usize..offsets[f + 1] as usize] {
                debug_assert!((r as usize) < nres, "resource index out of range");
                self.load[r as usize] += weights[f];
            }
        }

        // Build the resource→flow inverted index by counting sort, which
        // keeps flows in ascending order within each bucket — the same
        // freeze order as the reference solver.
        self.res_offsets.clear();
        self.res_offsets.resize(nres + 1, 0);
        self.cursor.clear();
        self.cursor.resize(nres, 0);
        for &r in targets {
            self.cursor[r as usize] += 1;
        }
        for r in 0..nres {
            self.res_offsets[r + 1] = self.res_offsets[r] + self.cursor[r];
        }
        self.cursor.copy_from_slice(&self.res_offsets[..nres]);
        self.res_flows.clear();
        self.res_flows.resize(targets.len(), 0);
        for f in 0..nflows {
            let (lo, hi) = (offsets[f] as usize, offsets[f + 1] as usize);
            assert!(lo < hi, "flow must traverse at least one resource");
            for &r in &targets[lo..hi] {
                let c = &mut self.cursor[r as usize];
                self.res_flows[*c as usize] = f as u32;
                *c += 1;
            }
        }

        self.frozen.clear();
        self.frozen.resize(nflows, false);
        let mut unfrozen = nflows;

        while unfrozen > 0 {
            self.rounds += 1;
            // Find the bottleneck: the resource with the smallest equal
            // share (ties broken by lowest index, as in the reference).
            let mut best_share = f64::INFINITY;
            let mut best_res = usize::MAX;
            for (r, &l) in self.load.iter().enumerate() {
                if l > 0 {
                    let share = (self.rem_cap[r] / l as f64).max(0.0);
                    if share < best_share {
                        best_share = share;
                        best_res = r;
                    }
                }
            }
            debug_assert_ne!(
                best_res,
                usize::MAX,
                "unfrozen flows but no loaded resource"
            );

            // Freeze every unfrozen group crossing the bottleneck — via
            // the inverted index, so only groups actually on `best_res`
            // are touched.
            let (lo, hi) = (
                self.res_offsets[best_res] as usize,
                self.res_offsets[best_res + 1] as usize,
            );
            for i in lo..hi {
                let f = self.res_flows[i] as usize;
                if self.frozen[f] {
                    continue;
                }
                self.frozen[f] = true;
                unfrozen -= 1;
                rates[f] = best_share;
                let w = weights[f];
                let consumed = best_share * w as f64;
                for &r in &targets[offsets[f] as usize..offsets[f + 1] as usize] {
                    let r = r as usize;
                    self.rem_cap[r] = (self.rem_cap[r] - consumed).max(0.0);
                    self.load[r] -= w;
                }
            }
        }
    }
}

/// Outcome of one [`IncrementalSolver::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOutcome {
    /// Whether every live group was re-solved (a "full" solve): the first
    /// solve over a populated registry, and whenever the dirty closure
    /// happens to cover everything. Never true for an empty closure.
    pub full: bool,
    /// Number of groups re-solved (the dirty closure size). Zero means the
    /// solve was *elided*: the pending mutations had cancelled out, or
    /// touched only resources with slack and no live group, so no
    /// progressive-filling round ran.
    pub dirty_groups: usize,
    /// Number of resources in the re-solved sub-problem.
    pub dirty_resources: usize,
    /// Fill attempts thrown away because a resource that entered the
    /// closure with slack came out saturated while it still had residents
    /// outside the closure (see "What conducts" in the type docs).
    pub retries: u32,
}

/// Maximum constraint degree of a group (mirrors the engine's flow shape:
/// up to 4 node cells plus up to 3 shared link cells plus headroom).
const MAX_DEGREE: usize = 8;

/// Relative slack below which a resource counts as saturated: a resource
/// whose residents leave it less than `cap × SATURATION_MARGIN` of headroom
/// is a real (conductive) constraint. Headroom is what the fill itself
/// leaves in the resource, so the margin only has to absorb the
/// reassociation between summing resident rates and the fill's progressive
/// capacity subtraction — a few ulps; 1e-9 is comfortably conservative.
pub const SATURATION_MARGIN: f64 = 1e-9;

/// Slot flags: the slot was mutated since the last solve (its old state is
/// in `mutated`).
const MUTATED: u8 = 1;
/// The slot was (re-)registered since the last solve: its caller holds a
/// fresh group and believes its rate is 0.
const REINSERTED: u8 = 2;
/// The group is in the current dirty closure.
const IN: u8 = 4;
/// The group's rate is fixed in the current fill.
const FROZEN: u8 = 8;

/// One registry slot.
#[derive(Debug, Clone, Copy, Default)]
struct Group {
    cells: [u32; MAX_DEGREE],
    /// Last solved rate; retained across removal so that a re-registration
    /// of the same group can report it again.
    rate: f64,
    /// The rate the current fill froze the group at.
    new_rate: f64,
    /// Member count; 0 means the slot holds no group.
    weight: u32,
    ncells: u8,
    /// `MUTATED | REINSERTED | IN | FROZEN`.
    flags: u8,
}

impl Group {
    fn cells(&self) -> &[u32] {
        &self.cells[..self.ncells as usize]
    }
}

/// One resource: its capacity, its saturation flag, and the scratch of the
/// solve in flight (valid only under `in_closure`).
#[derive(Debug, Clone, Copy, Default)]
struct Resource {
    cap: f64,
    /// Capacity the current fill has not handed out yet.
    rem_cap: f64,
    /// Total weight of the closure's unfrozen groups on the resource.
    load: u32,
    /// Position in the (sorted) closure resource list, and so in `share`.
    pos: u32,
    /// Whether a freeze of the current round moved `rem_cap` or `load`.
    share_stale: bool,
    in_closure: bool,
    /// Whether the capacity changed since the last solve.
    seeded: bool,
    /// Whether the resource ended its last solve saturated.
    saturated: bool,
}

impl Resource {
    /// Whether the fill left the resource saturated.
    fn headroom_gone(&self) -> bool {
        self.rem_cap <= self.cap * SATURATION_MARGIN
    }

    /// What each unfrozen resident would get if the resource were the
    /// bottleneck; a drained resource never is.
    fn equal_share(&self) -> f64 {
        if self.load == 0 {
            f64::INFINITY
        } else {
            (self.rem_cap / self.load as f64).max(0.0)
        }
    }
}

/// Incremental max–min solver over a persistent registry of weighted flow
/// groups.
///
/// Callers register groups ([`IncrementalSolver::insert_group`]) against
/// slots of their choosing, adjust weights as members come and go
/// ([`IncrementalSolver::set_weight`]; weight 0 removes the group), and
/// update capacities ([`IncrementalSolver::set_capacity`]). Group
/// mutations only *record the slot* (with its state as of the last solve);
/// capacity changes seed their resource. [`IncrementalSolver::solve`] then
/// does work proportional to what those mutations can change:
///
/// 1. **Diff.** Each mutated slot's (cells, weight) is compared with its
///    state at the last solve. A slot that ended up where it started — a
///    member left and another joined, or the group was torn down and
///    re-registered with the same cells and weight — is a net-zero
///    mutation: it seeds nothing, and if it was re-registered its retained
///    rate is simply reported again (the caller's fresh group starts at 0).
///    A genuine difference seeds the old cells, the new cells, and the
///    group itself. With no genuine difference and no capacity seed the
///    solve is over: no closure walk, no rounds.
/// 2. **Closure.** The seeds expand to their *contention closure* — a
///    walk alternating resource → resident groups → their other resources
///    over the persistent inverted index — but only *saturated* resources
///    conduct it (next section).
/// 3. **Fill in place.** Progressive filling runs directly on the registry
///    over the closure lists: per-resource remaining-capacity and load
///    scratch indexed by global resource id, bottleneck ties broken by the
///    lowest resource id, the bottleneck's residents frozen in ascending
///    slot order — the same float operations in the same order as
///    [`MaxMinSolver::solve_weighted_into`] over the whole registry in slot
///    order, hence bit-identical rates.
/// 4. **Report.** Groups whose rate bit-changed are appended to `changed`
///    in ascending slot order; everything else is untouched.
///
/// # Why the closure is exact
///
/// Max–min fair allocation decomposes over connected components of the
/// bipartite group↔resource contention graph: progressive filling never
/// lets one component's freeze affect another's remaining capacity or
/// load. Restricting the round sequence to one component reproduces
/// exactly the sub-sequence of global rounds that touched it — the same
/// divisions in the same order, hence bit-identical rates. A mutation can
/// only perturb components containing a seed, so re-solving the closure
/// and keeping prior rates elsewhere equals a full solve.
///
/// # What conducts
///
/// A resource that ends a solve with slack was never the bottleneck of a
/// progressive-filling round (a bottleneck hands out all it has left), so
/// it influenced no group's rate — it does not join its residents into one
/// component. Every resource therefore carries a *saturation flag*, set at
/// the end of each solve that touches it from the headroom the fill left:
///
/// - a **saturated** resource conducts the walk: all its residents join
///   the closure and it enters the fill with its full capacity;
/// - a resource **with slack** is included — it may bind now — but does
///   not conduct: it enters the fill with its capacity reduced by the
///   allocation of its residents *outside* the closure, which keep their
///   rates;
/// - mutated groups seed themselves, so a new group all of whose cells have
///   slack is still solved.
///
/// After the fill every included resource's flag is recomputed. If a
/// resource that went in with slack comes out saturated it is a real
/// constraint now: when it has residents outside the closure the attempt is
/// discarded and redone with it conducting (flags only flip to saturated
/// inside a solve, so this terminates); when all its residents were in the
/// closure anyway, the fill just done *is* the conductive one (nothing was
/// deducted) and stands. A capacity change seeds its resource like any
/// other: a cut that leaves slack changes nothing, a cut below the current
/// allocation fails the check and retries conductively, a raise on a
/// saturated resource re-solves its residents and clears the flag if slack
/// appears. The differential proptests assert bitwise equality with the
/// batch solver throughout; the invariant proptests check feasibility,
/// bottleneck fairness and the flags directly.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    resources: Vec<Resource>,
    /// The group registry, indexed by caller-chosen slot.
    groups: Vec<Group>,
    live_groups: usize,
    /// Inverted index: groups resident on each resource, ascending by slot
    /// — the order a bottleneck freezes its residents in.
    res_groups: Vec<Vec<u32>>,
    /// Slots mutated since the last solve, with their state as of it.
    mutated: Vec<(u32, Group)>,
    /// Resources whose capacity changed since the last solve.
    seeds: Vec<u32>,
    // Solve scratch, reused across solves.
    /// Genuinely mutated live groups (closure roots).
    roots: Vec<u32>,
    stack: Vec<u32>,
    dirty_groups: Vec<u32>,
    /// The closure's resources; ascending while a fill runs.
    dirty_res: Vec<u32>,
    /// Equal share per closure resource, parallel to `dirty_res` — the
    /// dense array the bottleneck scan runs over.
    share: Vec<f64>,
    /// Positions whose share the current round's freezes made stale.
    touched: Vec<u32>,
    /// Bitmap over slots of the groups this solve reports on (the closure
    /// plus unchanged re-registered groups); walking it yields `changed`
    /// ascending by slot. `report_words` is the touched word range.
    report: Vec<u64>,
    report_words: (usize, usize),
    rounds: u64,
}

impl IncrementalSolver {
    /// Creates an empty solver with no resources; call
    /// [`IncrementalSolver::set_capacities`] before registering groups.
    pub fn new() -> Self {
        IncrementalSolver::default()
    }

    /// Sets (or replaces) the full capacity vector, seeding every resource.
    ///
    /// # Panics
    ///
    /// Panics if shrinking below a resource still referenced by a live
    /// group (debug assertions catch this via out-of-range cells later).
    pub fn set_capacities(&mut self, caps: &[f64]) {
        self.resources.resize(caps.len(), Resource::default());
        self.res_groups.resize(caps.len(), Vec::new());
        for (r, &cap) in caps.iter().enumerate() {
            self.set_capacity(r, cap);
        }
    }

    /// Updates one resource's capacity, seeding it.
    pub fn set_capacity(&mut self, res: usize, cap: f64) {
        self.resources[res].cap = cap;
        self.seed_res(res as u32);
    }

    /// Cumulative progressive-filling rounds across all solves, discarded
    /// attempts included.
    pub fn total_rounds(&self) -> u64 {
        self.rounds
    }

    /// Number of currently registered (live) groups.
    pub fn group_count(&self) -> usize {
        self.live_groups
    }

    /// Last solved rate of a group slot (0 until first solved; stale for
    /// removed groups and for groups mutated since the last solve).
    pub fn rate(&self, slot: u32) -> f64 {
        self.groups[slot as usize].rate
    }

    /// Whether a resource ended the last solve that touched it saturated —
    /// the flag that decides whether it conducts the next closure walk.
    pub fn is_saturated(&self, res: usize) -> bool {
        self.resources[res].saturated
    }

    fn seed_res(&mut self, r: u32) {
        let res = &mut self.resources[r as usize];
        if !res.seeded {
            res.seeded = true;
            self.seeds.push(r);
        }
    }

    /// Records a slot's pre-mutation state on its first mutation since the
    /// last solve.
    fn note_mutation(&mut self, slot: u32) {
        let g = &mut self.groups[slot as usize];
        if g.flags & MUTATED == 0 {
            g.flags |= MUTATED;
            self.mutated.push((slot, *g));
        }
    }

    /// Registers a new group at `slot` with the given resource cells and
    /// weight. The slot must be free (never used, or removed via weight
    /// 0); the caller's view of its rate is 0 until a solve reports one.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or longer than 8, if `weight` is 0, or
    /// (debug assertions) if the slot already holds a live group.
    pub fn insert_group(&mut self, slot: u32, cells: &[u32], weight: u32) {
        assert!(
            !cells.is_empty() && cells.len() <= MAX_DEGREE,
            "1..=8 cells required"
        );
        assert!(weight > 0, "group must have positive weight");
        let s = slot as usize;
        if self.groups.len() <= s {
            self.groups.resize(s + 1, Group::default());
            self.report.resize(s / 64 + 1, 0);
        }
        debug_assert_eq!(self.groups[s].weight, 0, "slot already live");
        self.note_mutation(slot);
        let g = &mut self.groups[s];
        g.flags |= REINSERTED;
        g.cells = [0; MAX_DEGREE];
        g.cells[..cells.len()].copy_from_slice(cells);
        g.ncells = cells.len() as u8;
        g.weight = weight;
        self.live_groups += 1;
        for &c in cells {
            debug_assert!((c as usize) < self.resources.len(), "cell out of range");
            let residents = &mut self.res_groups[c as usize];
            let p = residents.partition_point(|&g| g < slot);
            residents.insert(p, slot);
        }
    }

    /// Changes a live group's weight. Weight 0 removes the group (its slot
    /// becomes reusable).
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the slot holds no live group.
    pub fn set_weight(&mut self, slot: u32, weight: u32) {
        debug_assert!(self.groups[slot as usize].weight > 0, "slot not live");
        self.note_mutation(slot);
        let g = &mut self.groups[slot as usize];
        g.weight = weight;
        if weight == 0 {
            self.live_groups -= 1;
            for &c in g.cells() {
                let residents = &mut self.res_groups[c as usize];
                let p = residents.partition_point(|&g| g < slot);
                debug_assert_eq!(residents.get(p), Some(&slot), "group is resident");
                residents.remove(p);
            }
        }
    }

    /// Brings the registry's rates up to date with the mutations since the
    /// last solve, appending `(slot, new_rate)` — ascending by slot — for
    /// every group whose rate differs bitwise from what its caller last
    /// saw. Untouched groups keep their previous rates (see the type docs
    /// for why that is exact).
    pub fn solve(&mut self, changed: &mut Vec<(u32, f64)>) -> SolveOutcome {
        self.diff_mutations();
        let mut retries = 0;
        if !self.roots.is_empty() || !self.seeds.is_empty() {
            for i in 0..self.roots.len() {
                self.visit_group(self.roots[i]);
            }
            for i in 0..self.seeds.len() {
                self.visit_res(self.seeds[i]);
            }
            loop {
                self.walk_closure();
                self.prepare_fill();
                self.fill_closure();
                // A resource that went in with slack and came out
                // saturated is a real constraint; if any of its residents
                // kept a rate from outside the closure, let it conduct and
                // redo the fill over the grown closure.
                for i in 0..self.dirty_res.len() {
                    let r = self.dirty_res[i] as usize;
                    let res = &mut self.resources[r];
                    if !res.saturated && res.headroom_gone() {
                        res.saturated = true;
                        let groups = &self.groups;
                        if self.res_groups[r]
                            .iter()
                            .any(|&g| groups[g as usize].flags & IN == 0)
                        {
                            self.stack.push(r as u32);
                        }
                    }
                }
                if self.stack.is_empty() {
                    break;
                }
                retries += 1;
            }
            for &r in &self.dirty_res {
                let res = &mut self.resources[r as usize];
                res.in_closure = false;
                res.saturated = res.headroom_gone();
            }
            for &r in &self.seeds {
                self.resources[r as usize].seeded = false;
            }
            self.seeds.clear();
            self.roots.clear();
        }

        let (lo, hi) = self.report_words;
        for w in lo..hi {
            let mut bits = std::mem::take(&mut self.report[w]);
            while bits != 0 {
                let slot = (w * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                let g = &mut self.groups[slot as usize];
                let seen = if g.flags & REINSERTED != 0 {
                    0.0
                } else {
                    g.rate
                };
                if g.flags & IN != 0 {
                    g.rate = g.new_rate;
                }
                g.flags = 0;
                if g.rate.to_bits() != seen.to_bits() {
                    changed.push((slot, g.rate));
                }
            }
        }
        self.report_words = (usize::MAX, 0);

        let outcome = SolveOutcome {
            full: self.live_groups > 0 && self.dirty_groups.len() == self.live_groups,
            dirty_groups: self.dirty_groups.len(),
            dirty_resources: self.dirty_res.len(),
            retries,
        };
        self.dirty_groups.clear();
        self.dirty_res.clear();
        outcome
    }

    /// Adds a slot to the set this solve reports on.
    fn report_on(&mut self, slot: u32) {
        let w = slot as usize / 64;
        self.report[w] |= 1 << (slot % 64);
        self.report_words = (self.report_words.0.min(w), self.report_words.1.max(w + 1));
    }

    /// Compares every mutated slot with its state at the last solve:
    /// genuine differences seed their old cells and become closure roots,
    /// net-zero mutations seed nothing (a re-registered group only has its
    /// retained rate reported again).
    fn diff_mutations(&mut self) {
        for i in 0..self.mutated.len() {
            let (slot, old) = self.mutated[i];
            let g = &mut self.groups[slot as usize];
            g.flags &= !MUTATED;
            let weight = g.weight;
            if old.weight == weight && (weight == 0 || old.cells() == g.cells()) {
                // Net zero: registered and removed between two solves, or
                // back where it was.
                if weight > 0 && g.flags & REINSERTED != 0 {
                    self.report_on(slot);
                } else {
                    g.flags = 0;
                }
                continue;
            }
            if weight > 0 {
                self.roots.push(slot);
            } else {
                g.flags = 0;
            }
            if old.weight > 0 {
                for &c in old.cells() {
                    self.seed_res(c);
                }
            }
        }
        self.mutated.clear();
    }

    /// Includes resource `r` in the closure; only a saturated resource
    /// conducts the walk on to its residents.
    fn visit_res(&mut self, r: u32) {
        let res = &mut self.resources[r as usize];
        if !res.in_closure {
            res.in_closure = true;
            self.dirty_res.push(r);
            if res.saturated {
                self.stack.push(r);
            }
        }
    }

    /// Includes a group in the closure, and with it every resource it
    /// crosses.
    fn visit_group(&mut self, slot: u32) {
        let g = &mut self.groups[slot as usize];
        if g.flags & IN != 0 {
            return;
        }
        g.flags |= IN;
        let (cells, n) = (g.cells, g.ncells as usize);
        self.dirty_groups.push(slot);
        self.report_on(slot);
        for &c in &cells[..n] {
            self.visit_res(c);
        }
    }

    /// Expands the closure from the conducting resources on the stack.
    fn walk_closure(&mut self) {
        while let Some(r) = self.stack.pop() {
            for gi in 0..self.res_groups[r as usize].len() {
                self.visit_group(self.res_groups[r as usize][gi]);
            }
        }
    }

    /// (Re-)initialises the fill's per-resource remaining capacity, load
    /// and equal share over the whole closure.
    fn prepare_fill(&mut self) {
        // Ascending resource ids make the scan's first minimum the
        // tie-break the batch solver applies.
        self.dirty_res.sort_unstable();
        for (pos, &r) in self.dirty_res.iter().enumerate() {
            let res = &mut self.resources[r as usize];
            res.pos = pos as u32;
            res.load = 0;
            res.rem_cap = if res.saturated {
                res.cap
            } else {
                // A resource with slack offers the closure only what its
                // residents outside the closure leave.
                let mut out = 0.0;
                for &g in &self.res_groups[r as usize] {
                    let g = &self.groups[g as usize];
                    if g.flags & IN == 0 {
                        out += g.rate * g.weight as f64;
                    }
                }
                (res.cap - out).max(0.0)
            };
        }
        for &slot in &self.dirty_groups {
            let g = &mut self.groups[slot as usize];
            g.flags &= !FROZEN;
            for &c in g.cells() {
                self.resources[c as usize].load += g.weight;
            }
        }
        self.share.clear();
        let resources = &self.resources;
        self.share.extend(
            self.dirty_res
                .iter()
                .map(|&r| resources[r as usize].equal_share()),
        );
    }

    /// Progressive filling over the closure, in place: the float
    /// operations of [`MaxMinSolver::solve_weighted_into`] in its order.
    fn fill_closure(&mut self) {
        let mut unfrozen = self.dirty_groups.len();
        while unfrozen > 0 {
            self.rounds += 1;
            // Bottleneck: smallest equal share, ties to the lowest
            // resource id.
            let mut best = 0;
            for pos in 1..self.share.len() {
                if self.share[pos] < self.share[best] {
                    best = pos;
                }
            }
            let best_share = self.share[best];
            debug_assert!(
                best_share.is_finite(),
                "unfrozen groups but no loaded resource"
            );

            // Freeze the bottleneck's unfrozen residents, ascending.
            for &slot in &self.res_groups[self.dirty_res[best] as usize] {
                let g = &mut self.groups[slot as usize];
                if g.flags & (IN | FROZEN) != IN {
                    continue;
                }
                g.flags |= FROZEN;
                unfrozen -= 1;
                g.new_rate = best_share;
                let consumed = best_share * g.weight as f64;
                for &c in g.cells() {
                    let res = &mut self.resources[c as usize];
                    res.rem_cap = (res.rem_cap - consumed).max(0.0);
                    res.load -= g.weight;
                    if !res.share_stale {
                        res.share_stale = true;
                        self.touched.push(res.pos);
                    }
                }
            }
            for pos in self.touched.drain(..) {
                let res = &mut self.resources[self.dirty_res[pos as usize] as usize];
                res.share_stale = false;
                self.share[pos as usize] = res.equal_share();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = allocate_rates(&[5.0], &[vec![0]]);
        assert_close(rates[0], 5.0);
    }

    #[test]
    fn equal_split_on_one_resource() {
        let rates = allocate_rates(&[9.0], &[vec![0], vec![0], vec![0]]);
        for r in rates {
            assert_close(r, 3.0);
        }
    }

    #[test]
    fn bottleneck_releases_capacity_to_others() {
        // Flow 0 crosses only the big link; flow 1 crosses both.
        let rates = allocate_rates(&[10.0, 2.0], &[vec![0], vec![0, 1]]);
        assert_close(rates[1], 2.0);
        assert_close(rates[0], 8.0);
    }

    #[test]
    fn parking_lot_topology() {
        // Classic max-min example: three links of capacity 1; flow A crosses
        // all three, flows B, C, D each cross one. Fair share: A = 1/2 on its
        // tightest link; B, C, D = 1/2 each on their links.
        let flows = vec![vec![0, 1, 2], vec![0], vec![1], vec![2]];
        let rates = allocate_rates(&[1.0, 1.0, 1.0], &flows);
        for r in &rates {
            assert_close(*r, 0.5);
        }
    }

    #[test]
    fn zero_capacity_resource_starves_flows() {
        let rates = allocate_rates(&[0.0, 10.0], &[vec![0], vec![1]]);
        assert_close(rates[0], 0.0);
        assert_close(rates[1], 10.0);
    }

    #[test]
    fn allocation_is_feasible_and_pareto_efficient() {
        // Random-ish configuration: verify (1) no resource over capacity,
        // (2) every flow is bottlenecked somewhere (can't be raised alone).
        let caps = [4.0, 7.0, 3.0, 5.0];
        let flows = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![1],
            vec![3],
        ];
        let rates = allocate_rates(&caps, &flows);
        let mut used = [0.0f64; 4];
        for (f, flow) in flows.iter().enumerate() {
            for &r in flow {
                used[r] += rates[f];
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(*u <= c + 1e-9, "over capacity: {u} > {c}");
        }
        // Pareto: each flow crosses at least one saturated resource.
        for flow in &flows {
            assert!(
                flow.iter().any(|&r| used[r] >= caps[r] - 1e-9),
                "flow {flow:?} not bottlenecked"
            );
        }
    }

    #[test]
    fn empty_input() {
        assert!(allocate_rates(&[1.0], &[]).is_empty());
    }

    #[test]
    fn indexed_matches_reference_bit_for_bit() {
        let caps = [4.0, 7.0, 3.0, 5.0, 0.5, 11.0];
        let flows = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![1],
            vec![3],
            vec![4, 5],
            vec![5],
            vec![0, 4],
            vec![2, 5, 1],
        ];
        let a = allocate_rates(&caps, &flows);
        let b = reference::allocate_rates(&caps, &flows);
        assert_eq!(a, b, "indexed and reference solvers diverged");
    }

    #[test]
    fn duplicate_resource_entries_match_reference() {
        // A malformed flow listing a resource twice must at least agree
        // with the reference (the engine dedupes before it gets here).
        let caps = [6.0, 4.0];
        let flows = vec![vec![0, 0], vec![0, 1], vec![1]];
        let a = allocate_rates(&caps, &flows);
        let b = reference::allocate_rates(&caps, &flows);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_groups_match_expanded_flows() {
        // 3 identical flows on link 0 + 2 identical flows on links 0 and 1,
        // expressed as two weighted groups vs five unit flows.
        let caps = [10.0, 3.0];
        let expanded = allocate_rates(&caps, &[vec![0], vec![0], vec![0], vec![0, 1], vec![0, 1]]);
        let mut solver = MaxMinSolver::new();
        let mut grouped = vec![0.0; 2];
        solver.solve_weighted_into(&caps, &[0, 1, 3], &[0, 0, 1], &[3, 2], &mut grouped);
        assert_close(grouped[0], expanded[0]);
        assert_close(grouped[1], expanded[3]);
        // Within a group the expanded flows all agree exactly.
        assert_eq!(expanded[0], expanded[1]);
        assert_eq!(expanded[3], expanded[4]);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_group_rejected() {
        let mut solver = MaxMinSolver::new();
        let mut rates = vec![0.0; 1];
        solver.solve_weighted_into(&[1.0], &[0, 1], &[0], &[0], &mut rates);
    }

    #[test]
    fn rounds_accumulate_across_solves() {
        let mut solver = MaxMinSolver::new();
        let mut rates = vec![0.0; 2];
        solver.solve_into(&[10.0, 2.0], &[0, 1, 3], &[0, 0, 1], &mut rates);
        let first = solver.total_rounds();
        // Two distinct bottlenecks (the 2-unit link, then the 10-unit one).
        assert_eq!(first, 2);
        solver.solve_into(&[10.0, 2.0], &[0, 1, 3], &[0, 0, 1], &mut rates);
        assert_eq!(solver.total_rounds(), 2 * first);
    }

    /// Full batch solve over the incremental solver's live registry — the
    /// oracle the incremental tests compare against bitwise.
    fn full_oracle(caps: &[f64], groups: &[(u32, Vec<u32>, u32)]) -> Vec<f64> {
        let mut solver = MaxMinSolver::new();
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        for (_, cells, w) in groups {
            targets.extend_from_slice(cells);
            offsets.push(targets.len() as u32);
            weights.push(*w);
        }
        let mut rates = vec![0.0; groups.len()];
        solver.solve_weighted_into(caps, &offsets, &targets, &weights, &mut rates);
        rates
    }

    #[test]
    fn incremental_first_solve_is_full_and_matches_batch() {
        let caps = [10.0, 3.0, 8.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 3);
        inc.insert_group(1, &[0, 1], 2);
        inc.insert_group(2, &[2], 1);
        let mut changed = Vec::new();
        let out = inc.solve(&mut changed);
        assert!(out.full);
        assert_eq!(out.dirty_groups, 3);
        let oracle = full_oracle(
            &caps,
            &[(0, vec![0], 3), (1, vec![0, 1], 2), (2, vec![2], 1)],
        );
        for (slot, want) in oracle.iter().enumerate() {
            assert_eq!(inc.rate(slot as u32).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn incremental_resolves_only_the_dirty_component() {
        // Two disjoint components: {res 0,1} and {res 2}.
        let caps = [10.0, 3.0, 8.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 1);
        inc.insert_group(1, &[0, 1], 1);
        inc.insert_group(2, &[2], 1);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        changed.clear();
        // Mutate only the second component.
        inc.insert_group(3, &[2], 1);
        let out = inc.solve(&mut changed);
        assert!(!out.full);
        assert_eq!(out.dirty_groups, 2, "only the res-2 component re-solves");
        assert_eq!(out.dirty_resources, 1);
        // Changed set: both res-2 groups now split the link.
        assert_eq!(changed.len(), 2);
        let oracle = full_oracle(
            &caps,
            &[
                (0, vec![0], 1),
                (1, vec![0, 1], 1),
                (2, vec![2], 1),
                (3, vec![2], 1),
            ],
        );
        for (slot, want) in oracle.iter().enumerate() {
            assert_eq!(
                inc.rate(slot as u32).to_bits(),
                want.to_bits(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn incremental_tracks_removal_weight_and_capacity_changes() {
        let caps = [10.0, 4.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 2);
        inc.insert_group(1, &[0, 1], 1);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        // Weight bump, then removal, then slot reuse, then capacity edit —
        // after each, the registry must match a fresh batch solve bitwise.
        inc.set_weight(0, 5);
        changed.clear();
        inc.solve(&mut changed);
        let oracle = full_oracle(&caps, &[(0, vec![0], 5), (1, vec![0, 1], 1)]);
        assert_eq!(inc.rate(0).to_bits(), oracle[0].to_bits());
        assert_eq!(inc.rate(1).to_bits(), oracle[1].to_bits());

        inc.set_weight(1, 0); // remove
        assert_eq!(inc.group_count(), 1);
        changed.clear();
        inc.solve(&mut changed);
        let oracle = full_oracle(&caps, &[(0, vec![0], 5)]);
        assert_eq!(inc.rate(0).to_bits(), oracle[0].to_bits());

        inc.insert_group(1, &[1], 2); // reuse the freed slot
        inc.set_capacity(0, 6.0);
        changed.clear();
        inc.solve(&mut changed);
        let oracle = full_oracle(&[6.0, 4.0], &[(0, vec![0], 5), (1, vec![1], 2)]);
        assert_eq!(inc.rate(0).to_bits(), oracle[0].to_bits());
        assert_eq!(inc.rate(1).to_bits(), oracle[1].to_bits());
    }

    /// Deterministic LCG-driven schedule of inserts / removals / re-weights
    /// / capacity edits — with plenty of mutations that cancel out before
    /// the next solve (remove then re-register the same group, weight down
    /// then up) — over `narrow` ordinary resources plus `wide` resources
    /// that a third of the groups share and whose capacity straddles
    /// saturation as load comes and goes. After every solve the registry,
    /// *and the rates a caller following `changed` believes*, must match a
    /// from-scratch batch solve bitwise.
    fn check_random_schedule(seed: u64, narrow: usize, wide: usize, steps: usize) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let cap_of = |r: usize, roll: u64| {
            if r < narrow {
                1.0 + (roll % 64) as f64
            } else {
                20.0 + (roll % 40) as f64
            }
        };
        let mut caps: Vec<f64> = (0..narrow + wide).map(|r| cap_of(r, next())).collect();
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        // live[slot] = Some((cells, weight)); last[slot] = the shape the
        // slot held most recently; seen[slot] = the caller's view.
        let mut live: Vec<Option<(Vec<u32>, u32)>> = vec![None; 24];
        let mut last = live.clone();
        let mut seen = vec![0.0f64; live.len()];
        let mut changed = Vec::new();
        for step in 0..steps {
            let slot = (next() % live.len() as u64) as u32;
            let s = slot as usize;
            match live[s].clone() {
                None => {
                    let (cells, w) = match &last[s] {
                        // Half the time the group that left comes back.
                        Some(shape) if next() % 2 == 0 => shape.clone(),
                        _ => {
                            let deg = 1 + (next() % 3) as usize;
                            let mut cells: Vec<u32> = Vec::new();
                            while cells.len() < deg {
                                let c = (next() % narrow as u64) as u32;
                                if !cells.contains(&c) {
                                    cells.push(c);
                                }
                            }
                            if wide > 0 && next() % 3 == 0 {
                                cells.push((narrow as u64 + next() % wide as u64) as u32);
                            }
                            (cells, 1 + (next() % 4) as u32)
                        }
                    };
                    inc.insert_group(slot, &cells, w);
                    seen[s] = 0.0;
                    live[s] = Some((cells, w));
                }
                Some((cells, w)) => match next() % 4 {
                    0 => {
                        inc.set_weight(slot, 0);
                        last[s] = live[s].take();
                    }
                    1 => {
                        let w = 1 + (next() % 6) as u32;
                        inc.set_weight(slot, w);
                        live[s] = Some((cells, w));
                    }
                    2 => {
                        // A member leaves and another joins.
                        inc.set_weight(slot, w - 1);
                        if w == 1 {
                            inc.insert_group(slot, &cells, 1);
                            seen[s] = 0.0;
                        } else {
                            inc.set_weight(slot, w);
                        }
                    }
                    _ => {
                        let r = (next() % caps.len() as u64) as usize;
                        caps[r] = cap_of(r, next());
                        inc.set_capacity(r, caps[r]);
                    }
                },
            }
            if step % 3 == 0 {
                changed.clear();
                let rounds = inc.total_rounds();
                let out = inc.solve(&mut changed);
                assert!(changed.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
                if out.dirty_groups == 0 {
                    assert_eq!(inc.total_rounds(), rounds, "an elided solve runs no round");
                }
                for &(g, rate) in &changed {
                    assert_ne!(seen[g as usize].to_bits(), rate.to_bits(), "no-op report");
                    seen[g as usize] = rate;
                }
                let groups: Vec<(u32, Vec<u32>, u32)> = live
                    .iter()
                    .enumerate()
                    .filter_map(|(s, g)| g.as_ref().map(|(cells, w)| (s as u32, cells.clone(), *w)))
                    .collect();
                let oracle = full_oracle(&caps, &groups);
                for ((slot, _, _), want) in groups.iter().zip(&oracle) {
                    assert_eq!(
                        inc.rate(*slot).to_bits(),
                        want.to_bits(),
                        "step {step} slot {slot}"
                    );
                    assert_eq!(
                        seen[*slot as usize].to_bits(),
                        want.to_bits(),
                        "step {step} slot {slot}: caller's view"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_batch_under_randomized_mutation_schedule() {
        check_random_schedule(0x243F6A8885A308D3, 12, 0, 600);
    }

    #[test]
    fn incremental_matches_batch_with_widely_shared_resources() {
        check_random_schedule(0x9E3779B97F4A7C15, 12, 2, 900);
    }

    /// `inc`'s rates against the batch oracle, bitwise.
    fn assert_matches_oracle(
        inc: &IncrementalSolver,
        caps: &[f64],
        groups: &[(u32, Vec<u32>, u32)],
    ) {
        let oracle = full_oracle(caps, groups);
        for ((slot, _, _), want) in groups.iter().zip(&oracle) {
            assert_eq!(inc.rate(*slot).to_bits(), want.to_bits(), "slot {slot}");
        }
    }

    #[test]
    fn resource_with_slack_does_not_conduct_the_closure() {
        // Two rack components {0,1} and {2,3} joined by a big "spine"
        // (resource 4). With spine slack, mutating one rack must not drag
        // the other into the closure — but rates must still match a full
        // batch solve bitwise.
        let caps = [10.0, 10.0, 10.0, 10.0, 1000.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0, 1, 4], 1); // rack A cross-spine
        inc.insert_group(1, &[2, 3, 4], 1); // rack B cross-spine
        inc.insert_group(2, &[0], 1); // rack A local
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        assert!(!inc.is_saturated(4));
        changed.clear();
        inc.insert_group(3, &[2], 2); // mutate rack B only
        let out = inc.solve(&mut changed);
        assert_eq!(
            out.dirty_groups, 2,
            "rack A stays out of the closure despite the shared spine"
        );
        assert_matches_oracle(
            &inc,
            &caps,
            &[
                (0, vec![0, 1, 4], 1),
                (1, vec![2, 3, 4], 1),
                (2, vec![0], 1),
                (3, vec![2], 2),
            ],
        );
    }

    #[test]
    fn newly_saturated_resource_conducts_and_stays_exact() {
        // A 3-unit spine shared by two otherwise-disjoint racks: the spine
        // binds, so the components must merge and split it fairly.
        let caps = [10.0, 10.0, 3.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0, 2], 1);
        let mut changed = Vec::new();
        let out = inc.solve(&mut changed);
        // The lone group saturates a spine it alone occupies: the fill just
        // done is already the conductive one.
        assert_eq!(out.retries, 0);
        assert!(inc.is_saturated(2));
        changed.clear();
        inc.insert_group(1, &[1, 2], 1);
        let out = inc.solve(&mut changed);
        assert_eq!(out.dirty_groups, 2, "saturated spine merges both racks");
        assert_eq!(changed, vec![(0, 1.5), (1, 1.5)]);
        assert_matches_oracle(&inc, &caps, &[(0, vec![0, 2], 1), (1, vec![1, 2], 1)]);
    }

    #[test]
    fn resource_filled_up_by_a_newcomer_retries_conductively() {
        // Group 0 leaves the 10-unit resource 1 half empty (it is held to 5
        // by resource 0). A newcomer on resource 1 alone would take the
        // other 5 — exactly saturating it while group 0 sits outside the
        // closure — so the attempt is redone with resource 1 conducting.
        let caps = [5.0, 10.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0, 1], 1);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        assert!(inc.is_saturated(0) && !inc.is_saturated(1));
        changed.clear();
        inc.insert_group(1, &[1], 1);
        let out = inc.solve(&mut changed);
        assert_eq!(out.retries, 1);
        assert_eq!(out.dirty_groups, 2);
        assert_eq!(changed, vec![(1, 5.0)]);
        assert!(inc.is_saturated(1));
        assert_matches_oracle(&inc, &caps, &[(0, vec![0, 1], 1), (1, vec![1], 1)]);
    }

    #[test]
    fn resource_desaturates_when_slack_returns() {
        // res 0 = rack A uplink, res 1 = rack B uplink, res 2 = spine.
        let mut caps = [2.0, 4.0, 3.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0, 2], 1); // rack A cross-spine
        inc.insert_group(1, &[1, 2], 1); // rack B cross-spine
        inc.insert_group(2, &[1], 1); // rack B local
        let mut changed = Vec::new();
        inc.solve(&mut changed); // spine binds: groups 0,1 get 1.5 each
        assert_eq!(inc.rate(0), 1.5);
        assert!(inc.is_saturated(2));
        changed.clear();
        // Widen the spine: the (saturated, hence conductive) solve must
        // observe the new slack and clear the flag.
        caps[2] = 30.0;
        inc.set_capacity(2, caps[2]);
        inc.solve(&mut changed);
        assert!(!inc.is_saturated(2));
        changed.clear();
        // A rack-B mutation that touches the spine (new cross-spine group)
        // must now stay rack-local: the slack spine no longer conducts,
        // so rack A's group is untouched.
        inc.insert_group(3, &[1, 2], 1);
        let out = inc.solve(&mut changed);
        assert_eq!(out.dirty_groups, 3, "rack A stays out after de-saturation");
        assert_matches_oracle(
            &inc,
            &caps,
            &[
                (0, vec![0, 2], 1),
                (1, vec![1, 2], 1),
                (2, vec![1], 1),
                (3, vec![1, 2], 1),
            ],
        );
    }

    #[test]
    fn capacity_cut_on_a_resource_with_slack_retries_and_stays_exact() {
        let mut caps = [4.0, 100.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0, 1], 1);
        inc.insert_group(1, &[1], 2);
        let mut changed = Vec::new();
        inc.solve(&mut changed); // group 0 at 4, group 1 at 48 each
        assert!(inc.is_saturated(1));
        caps[1] = 1000.0;
        inc.set_capacity(1, caps[1]);
        caps[0] = 400.0;
        inc.set_capacity(0, caps[0]);
        changed.clear();
        inc.solve(&mut changed);
        assert!(!inc.is_saturated(0) && inc.is_saturated(1));
        // A cut that leaves resource 0 its slack changes nothing...
        caps[0] = 350.0;
        inc.set_capacity(0, caps[0]);
        changed.clear();
        let out = inc.solve(&mut changed);
        assert_eq!((out.dirty_groups, out.retries), (0, 0));
        assert!(changed.is_empty());
        // ...a cut below what its resident already gets fails the
        // saturation check, and the redo re-rates everyone.
        caps[0] = 40.0;
        inc.set_capacity(0, caps[0]);
        let out = inc.solve(&mut changed);
        assert_eq!((out.dirty_groups, out.retries), (2, 1));
        assert_eq!(changed, vec![(0, 40.0), (1, 480.0)]);
        assert_matches_oracle(&inc, &caps, &[(0, vec![0, 1], 1), (1, vec![1], 2)]);
    }

    #[test]
    fn reregistering_the_same_group_is_elided_and_reports_its_rate_again() {
        let caps = [10.0, 6.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 1);
        inc.insert_group(1, &[0, 1], 3);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        assert_eq!(changed, vec![(0, 4.0), (1, 2.0)]);
        let rounds = inc.total_rounds();
        // The group is torn down and re-registered as it was: nothing to
        // solve, but its caller's fresh group has not seen the rate.
        inc.set_weight(1, 0);
        inc.insert_group(1, &[0, 1], 3);
        changed.clear();
        let out = inc.solve(&mut changed);
        assert_eq!(
            (out.dirty_groups, out.dirty_resources, out.full),
            (0, 0, false)
        );
        assert_eq!(inc.total_rounds(), rounds);
        assert_eq!(changed, vec![(1, 2.0)]);
        // A member leaving and another joining before the solve is a no-op
        // the caller never lost track of.
        inc.set_weight(1, 2);
        inc.set_weight(1, 3);
        changed.clear();
        let out = inc.solve(&mut changed);
        assert_eq!(out.dirty_groups, 0);
        assert!(changed.is_empty());
        // Re-registered *and* re-rated in the same solve: one report,
        // against the fresh group's 0.
        inc.set_weight(1, 0);
        inc.insert_group(1, &[0, 1], 3);
        inc.set_weight(0, 0);
        changed.clear();
        let out = inc.solve(&mut changed);
        assert_eq!(out.dirty_groups, 1);
        assert_eq!(changed, vec![(1, 2.0)]);
        // Registered and removed between two solves: never seen.
        inc.insert_group(0, &[1], 1);
        inc.set_weight(0, 0);
        changed.clear();
        assert_eq!(inc.solve(&mut changed).dirty_groups, 0);
        assert!(changed.is_empty());
    }

    #[test]
    fn slot_reused_by_a_different_shape_seeds_old_and_new_cells() {
        let caps = [8.0, 8.0, 8.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 1);
        inc.insert_group(1, &[0], 1);
        inc.insert_group(2, &[1], 1);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        // Slot 1 moves from resource 0 to resource 1 between two solves:
        // the group it left behind speeds up, the one it joins slows down.
        inc.set_weight(1, 0);
        inc.insert_group(1, &[1], 1);
        changed.clear();
        let out = inc.solve(&mut changed);
        assert_eq!(out.dirty_groups, 3);
        assert_eq!(changed, vec![(0, 8.0), (1, 4.0), (2, 4.0)]);
        assert_matches_oracle(
            &inc,
            &caps,
            &[(0, vec![0], 1), (1, vec![1], 1), (2, vec![1], 1)],
        );
    }

    #[test]
    fn empty_closure_is_not_a_full_solve() {
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&[5.0, 5.0]);
        let mut changed = Vec::new();
        // Nothing registered: the seed solve touches every resource but
        // re-solves no group.
        let out = inc.solve(&mut changed);
        assert_eq!(
            (out.full, out.dirty_groups, out.dirty_resources),
            (false, 0, 2)
        );
        inc.insert_group(0, &[0], 1);
        assert!(inc.solve(&mut changed).full);
        // The last group leaves: again nothing to re-solve.
        inc.set_weight(0, 0);
        let out = inc.solve(&mut changed);
        assert_eq!((out.full, out.dirty_groups), (false, 0));
        assert!(!inc.is_saturated(0));
    }

    #[test]
    fn solver_is_reusable_across_solves() {
        let mut solver = MaxMinSolver::new();
        let mut rates = vec![0.0; 2];
        solver.solve_into(&[10.0, 2.0], &[0, 1, 3], &[0, 0, 1], &mut rates);
        assert_eq!(rates, vec![8.0, 2.0]);
        // Smaller follow-up problem: buffers shrink logically, not physically.
        let mut rates = vec![0.0; 1];
        solver.solve_into(&[7.0], &[0, 1], &[0], &mut rates);
        assert_close(rates[0], 7.0);
        // And empty.
        let mut rates: Vec<f64> = Vec::new();
        solver.solve_into(&[1.0], &[0], &[], &mut rates);
        assert!(rates.is_empty());
    }
}
