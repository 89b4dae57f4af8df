//! Max–min fair rate allocation by progressive filling.
//!
//! [`IncrementalSolver`] is the simulator's solver. It keeps the group
//! registry, the inverted resource→group index, the last-solved rates and a
//! per-resource saturation flag *across* solves. Mutations are only
//! recorded; each solve diffs them against the state of the last solve,
//! walks the contention closure of the genuine differences (conducting only
//! through saturated resources) and runs progressive filling in place over
//! that closure. What a solve costs is what the mutations can change; what
//! it returns is bit-identical to a from-scratch solve of the whole
//! registry (see the type docs for why).
//!
//! The from-scratch solve is the textbook filling in `simnet::reference`,
//! the oracle that `Simulator::verify_against_full_solve` and the
//! differential tests compare against bitwise. Both perform the same
//! floating-point operations in the same order: bottleneck = smallest
//! `remaining / load` (ties to the lowest resource index), its unfrozen
//! residents frozen in ascending group order, each subtracting
//! `share × weight` from every resource it crosses.

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
    #[cfg(test)]
    dirty_resources: usize,
    /// Residents that conducting resources skipped because their previous
    /// level lies below the solve's divergence level (see "What a
    /// conducting resource skips" in the [`IncrementalSolver`] docs); a
    /// group skipped by two resources counts twice.
    pub pruned_groups: usize,
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
pub(crate) const SATURATION_MARGIN: f64 = 1e-9;

/// Relative distance below the divergence level θ under which a resident
/// may be skipped. Float rounding lets an equal share fall by a few ulps
/// from one round to the next, so a level a hair below θ can belong to a
/// round that follows θ's; the margin keeps every skipped freeze clear of
/// those ties.
pub(crate) const PRUNE_MARGIN: f64 = 1e-9;

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
/// The group is a closure root: genuinely mutated, its stamp stale.
const ROOT: u8 = 16;

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
    /// `MUTATED | REINSERTED | IN | FROZEN | ROOT`.
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
    /// The level at which the resource was last a bottleneck, `inf` if it
    /// was not one in the last fill that re-solved its residents.
    bind: f64,
    /// The remaining capacity it enters the fill with if it conducts.
    entry: f64,
    /// Total weight of its residents when it was last in a closure (the
    /// pending mutations add `delta` to it).
    weight: u32,
    /// Residents in the closure, and their total weight.
    in_count: u32,
    in_weight: u32,
    /// Net weight the pending mutations add to it (new minus old).
    delta: i32,
    /// Total weight of the closure's unfrozen groups on the resource.
    load: u32,
    /// Position in the closure resource list, and so in `share`.
    pos: u32,
    /// Whether a freeze of the current round moved `rem_cap` or `load`.
    share_stale: bool,
    in_closure: bool,
    /// Whether a mutation or a capacity change seeded it since the last
    /// solve.
    seeded: bool,
    /// Whether its capacity changed since the last solve.
    recapped: bool,
    /// Whether the walk skipped any of its residents.
    skips: bool,
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
///    slot order — the same float operations in the same order as a
///    from-scratch filling of the whole registry in slot order, hence
///    bit-identical rates.
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
/// - a **saturated** resource conducts the walk: its residents join the
///   closure (all but those of the next section);
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
/// appears.
///
/// # What a conducting resource skips
///
/// A resource's equal share never falls as progressive filling freezes
/// residents below it, so a resource first binds no lower than its share
/// before any freeze. The solve's *divergence level* θ is the lowest level
/// at which a seeded saturated resource can bind before the mutations (the
/// level it last bound at) or after them (its new initial share, if it
/// gained weight or changed capacity). Every round below θ replays the
/// previous fill exactly, and so does every group it froze: a conducting
/// resource skips residents whose previous level lies below θ (less
/// `PRUNE_MARGIN`, which keeps ulp-level ties on the conducting side), and
/// a skipped group's other cells stay out of the closure. The resource then
/// enters the fill with the remaining capacity a full filling holds after
/// those freezes — replayed, not re-summed: fills stamp their freezes in
/// order, a saturated resource's residents froze in stamp order, so its
/// capacity less each skipped `level × weight` in stamp order, with the
/// fill's own operations, is that value bit for bit. Checks keep this
/// exact: a resource that keeps a resident stamped before one it skips
/// skips nothing (nor does any other), a seeded resource whose capacity
/// changed skips nothing, and a fill round below θ discards the attempt and
/// lowers θ — to the initial share of a bottleneck with slack, which θ did
/// not see, else to `-inf`. The differential proptests assert bitwise
/// equality with the textbook filling in `simnet::reference` throughout;
/// the invariant proptests check feasibility, bottleneck fairness and the
/// flags directly.
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
    /// Resources a mutation or capacity change seeded since the last solve.
    seeds: Vec<u32>,
    // Solve scratch, reused across solves.
    /// Genuinely mutated live groups (closure roots).
    roots: Vec<u32>,
    stack: Vec<u32>,
    dirty_groups: Vec<u32>,
    /// The closure's resources, in visit order.
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
    /// The divergence level θ of the solve in flight; NaN until the walk
    /// first needs it.
    theta: f64,
    /// θ less [`PRUNE_MARGIN`]: conducting resources skip residents whose
    /// previous level lies below it. `-inf` (or NaN, before θ is worked
    /// out) skips nothing.
    prune_below: f64,
    /// Residents skipped by the walk so far.
    skipped: usize,
    /// Whether some conducting resource kept a resident that froze before
    /// one it skipped.
    unordered: bool,
    /// Per slot, when the fill that set the group's rate froze it:
    /// freezes are stamped in the order they happen, across solves.
    stamps: Vec<u32>,
    /// The groups the current fill froze, in freeze order.
    frozen: Vec<u32>,
    /// The residents a conducting resource skips, as (stamp, level,
    /// weight).
    skipped_freezes: Vec<(u32, f64, u32)>,
    /// Freezes stamped so far.
    stamp: u64,
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
        let fresh = Resource {
            bind: f64::INFINITY,
            ..Resource::default()
        };
        self.resources.resize(caps.len(), fresh);
        self.res_groups.resize(caps.len(), Vec::new());
        for (r, &cap) in caps.iter().enumerate() {
            self.set_capacity(r, cap);
        }
    }

    /// Updates one resource's capacity, seeding it.
    pub fn set_capacity(&mut self, res: usize, cap: f64) {
        self.resources[res].cap = cap;
        self.resources[res].recapped = true;
        self.seed_res(res as u32);
    }

    /// Cumulative progressive-filling rounds across all solves, discarded
    /// attempts included.
    pub fn total_rounds(&self) -> u64 {
        self.rounds
    }

    /// Last solved rate of a group slot (0 until first solved; stale for
    /// removed groups and for groups mutated since the last solve).
    pub fn rate(&self, slot: u32) -> f64 {
        self.groups[slot as usize].rate
    }

    /// Whether a resource ended the last solve that touched it saturated —
    /// the flag that decides whether it conducts the next closure walk.
    #[cfg(test)]
    fn is_saturated(&self, res: usize) -> bool {
        self.resources[res].saturated
    }

    /// The groups registered on a resource, ascending by slot.
    #[cfg(test)]
    pub(crate) fn residents(&self, res: usize) -> &[u32] {
        &self.res_groups[res]
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
            self.stamps.resize(s + 1, 0);
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
            // θ is worked out when the walk first reaches a conducting
            // resource: a closure without one skips nothing.
            self.set_theta(f64::NAN);
            self.skipped = 0;
            self.unordered = false;
            for i in 0..self.roots.len() {
                self.visit_group(self.roots[i]);
            }
            for i in 0..self.seeds.len() {
                self.visit_res(self.seeds[i]);
            }
            self.walk_closure();
            loop {
                if self.unordered {
                    // A conducting resource kept a resident that froze
                    // before one it skipped, so the capacity after its last
                    // skipped freeze is not what a full filling holds.
                    self.lower_theta(f64::NEG_INFINITY);
                    continue;
                }
                self.prepare_fill();
                if let Err(theta) = self.fill_closure() {
                    // Something bound below θ after all: the skipped
                    // residents' freezes no longer come first.
                    retries += 1;
                    self.lower_theta(theta);
                    continue;
                }
                // A resource that went in with slack and came out
                // saturated is a real constraint; if any of its residents
                // kept a rate from outside the closure, let it conduct and
                // redo the fill over the grown closure. It has no stamped
                // history to skip by, so θ falls to its lowest resident
                // outside the closure.
                let mut lowest = f64::INFINITY;
                for i in 0..self.dirty_res.len() {
                    let r = self.dirty_res[i] as usize;
                    let res = &mut self.resources[r];
                    if !res.saturated && res.headroom_gone() {
                        res.saturated = true;
                        res.entry = res.cap;
                        let mut outside = f64::INFINITY;
                        for &g in &self.res_groups[r] {
                            let g = &self.groups[g as usize];
                            if g.flags & IN == 0 {
                                outside = outside.min(g.rate);
                            }
                        }
                        if outside < f64::INFINITY {
                            lowest = lowest.min(outside);
                            self.stack.push(r as u32);
                        }
                    }
                }
                if self.stack.is_empty() {
                    break;
                }
                retries += 1;
                self.lower_theta(lowest);
            }
            for &slot in &self.frozen {
                self.stamp += 1;
                self.stamps[slot as usize] = self.stamp.min(u32::MAX as u64) as u32;
            }
            for &r in &self.dirty_res {
                let res = &mut self.resources[r as usize];
                res.in_closure = false;
                res.saturated = res.headroom_gone();
                res.skips = false;
                res.in_count = 0;
                res.in_weight = 0;
            }
            for &r in &self.seeds {
                let res = &mut self.resources[r as usize];
                res.seeded = false;
                res.recapped = false;
                res.delta = 0;
            }
            self.seeds.clear();
            self.roots.clear();
        } else {
            self.skipped = 0;
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
            #[cfg(test)]
            dirty_resources: self.dirty_res.len(),
            pruned_groups: self.skipped,
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
    /// genuine differences seed their old and new cells (noting the weight
    /// they move there) and become closure roots, net-zero mutations seed
    /// nothing (a re-registered group only has its retained rate reported
    /// again).
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
            let (cells, n) = (g.cells, g.ncells as usize);
            // A re-weighted group moves only the difference on its cells.
            let moved = old.weight > 0 && old.cells() == &cells[..n];
            if weight > 0 {
                g.flags |= ROOT;
                self.roots.push(slot);
                let gained = weight as i32 - if moved { old.weight as i32 } else { 0 };
                for &c in &cells[..n] {
                    self.resources[c as usize].delta += gained;
                    self.seed_res(c);
                }
            } else {
                g.flags = 0;
            }
            if old.weight > 0 && !(moved && weight > 0) {
                for &c in old.cells() {
                    self.resources[c as usize].delta -= old.weight as i32;
                    self.seed_res(c);
                }
            }
        }
        self.mutated.clear();
    }

    /// The solve's divergence level θ: no seeded saturated resource can
    /// bind below it. Before the mutations one bound at the level it last
    /// bound at. After them one that gained weight or changed capacity
    /// binds no lower than its new initial share; one that only lost
    /// weight has a share no lower at any step, so it binds no sooner. A
    /// changed capacity also voids the remaining capacities its residents'
    /// freezes recorded, so θ falls to their lowest level and it skips
    /// nothing.
    fn divergence_level(&self) -> f64 {
        if self.stamp >= u32::MAX as u64 {
            // Stamps no longer order freezes.
            return f64::NEG_INFINITY;
        }
        let mut theta = f64::INFINITY;
        for &r in &self.seeds {
            let res = &self.resources[r as usize];
            if !res.saturated {
                continue;
            }
            theta = theta.min(res.bind);
            if res.delta > 0 || res.recapped {
                let weight = res.weight as i64 + res.delta as i64;
                theta = theta.min(Self::initial_share(res, weight));
            }
            if res.recapped {
                for &g in &self.res_groups[r as usize] {
                    theta = theta.min(self.groups[g as usize].rate);
                }
            }
        }
        theta
    }

    /// A resource's equal share over `weight` before any of it freezes,
    /// the lowest level it can bind at.
    fn initial_share(res: &Resource, weight: i64) -> f64 {
        Resource {
            rem_cap: res.cap,
            load: weight as u32,
            ..*res
        }
        .equal_share()
    }

    fn ensure_theta(&mut self) {
        if self.theta.is_nan() {
            self.set_theta(self.divergence_level());
        }
    }

    fn set_theta(&mut self, theta: f64) {
        self.theta = theta;
        self.prune_below = theta * (1.0 - PRUNE_MARGIN);
    }

    /// Lowers θ to `theta` if that is lower (`-inf`: skip nothing) and
    /// walks on from every conducting resource that skipped residents, and
    /// from those on the stack.
    #[cold]
    fn lower_theta(&mut self, theta: f64) {
        self.ensure_theta();
        if theta < self.theta {
            self.set_theta(theta);
            self.skipped = 0;
            self.unordered = false;
            for &r in &self.dirty_res {
                let res = &mut self.resources[r as usize];
                if res.skips {
                    res.skips = false;
                    self.stack.push(r);
                }
            }
        }
        self.walk_closure();
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
        let (cells, n, g_weight) = (g.cells, g.ncells as usize, g.weight);
        self.dirty_groups.push(slot);
        self.report_on(slot);
        for &c in &cells[..n] {
            self.visit_res(c);
            let res = &mut self.resources[c as usize];
            res.in_count += 1;
            res.in_weight += g_weight;
        }
    }

    /// Expands the closure from the conducting resources on the stack,
    /// skipping (and counting) residents whose previous level lies below
    /// the divergence level. A resource that skips enters the fill with
    /// its capacity less the skipped freezes, replayed in stamp order, and
    /// is `unordered` if it keeps a resident stamped before one it skips.
    fn walk_closure(&mut self) {
        while let Some(r) = self.stack.pop() {
            self.ensure_theta();
            let mut skips = 0;
            for gi in 0..self.res_groups[r as usize].len() {
                let slot = self.res_groups[r as usize][gi];
                let g = &self.groups[slot as usize];
                if g.flags & IN == 0 && g.rate < self.prune_below {
                    skips += 1;
                } else {
                    self.visit_group(slot);
                }
            }
            let res = &mut self.resources[r as usize];
            res.entry = res.cap;
            res.skips = skips > 0;
            if skips > 0 {
                self.skipped += skips;
                self.replay_skipped(r as usize);
            }
        }
    }

    /// Sets a resource's entry capacity to its capacity less its skipped
    /// residents' freezes, replayed in stamp order, and notes whether it
    /// kept a resident stamped before one it skipped.
    #[cold]
    fn replay_skipped(&mut self, r: usize) {
        let mut first_kept = u32::MAX;
        for &slot in &self.res_groups[r] {
            let g = &self.groups[slot as usize];
            let stamp = self.stamps[slot as usize];
            if g.flags & IN == 0 {
                self.skipped_freezes.push((stamp, g.rate, g.weight));
            } else if g.flags & ROOT == 0 {
                first_kept = first_kept.min(stamp);
            }
        }
        self.skipped_freezes.sort_unstable_by_key(|s| s.0);
        let res = &mut self.resources[r];
        for &(_, level, weight) in &self.skipped_freezes {
            res.entry = (res.entry - level * weight as f64).max(0.0);
        }
        self.unordered |= self.skipped_freezes.last().expect("skips").0 > first_kept;
        self.skipped_freezes.clear();
    }

    /// (Re-)initialises the fill's per-resource remaining capacity, load
    /// and equal share over the whole closure. A closure without groups
    /// gets only its remaining capacities: the saturation flags and the
    /// retry rule read them, and there is nothing to fill.
    fn prepare_fill(&mut self) {
        for (pos, &r) in self.dirty_res.iter().enumerate() {
            let res = &mut self.resources[r as usize];
            res.pos = pos as u32;
            res.load = res.in_weight;
            if !(res.saturated && res.bind < self.prune_below) {
                res.bind = f64::INFINITY;
            }
            let (mut out, mut out_weight) = (0.0, 0);
            if (res.in_count as usize) < self.res_groups[r as usize].len() {
                for &g in &self.res_groups[r as usize] {
                    let g = &self.groups[g as usize];
                    if g.flags & IN == 0 {
                        out += g.rate * g.weight as f64;
                        out_weight += g.weight;
                    }
                }
            }
            res.weight = res.in_weight + out_weight;
            // A conducting resource enters with what a full filling holds
            // at θ; one with slack offers the closure only what its
            // residents outside the closure leave.
            res.rem_cap = if res.saturated {
                res.entry
            } else {
                (res.cap - out).max(0.0)
            };
        }
        self.frozen.clear();
        if self.dirty_groups.is_empty() {
            return;
        }
        for &slot in &self.dirty_groups {
            self.groups[slot as usize].flags &= !FROZEN;
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
    /// operations of a from-scratch filling in its order,
    /// each freeze listed in `frozen` (stamped once the fill stands).
    /// If residents were skipped, a round below the divergence level
    /// abandons the fill and returns the θ to redo it under: a bottleneck
    /// with slack (which θ did not see) binds no lower than its initial
    /// share; anything else, or a share no lower than θ, gets `-inf`.
    fn fill_closure(&mut self) -> Result<(), f64> {
        let floor = if self.skipped > 0 {
            self.theta
        } else {
            f64::NEG_INFINITY
        };
        let mut unfrozen = self.dirty_groups.len();
        while unfrozen > 0 {
            self.rounds += 1;
            // Bottleneck: smallest equal share, ties to the lowest
            // resource id (the closure list is in visit order).
            let mut best = 0;
            for pos in 1..self.share.len() {
                let (share, best_share) = (self.share[pos], self.share[best]);
                if share < best_share
                    || (share == best_share && self.dirty_res[pos] < self.dirty_res[best])
                {
                    best = pos;
                }
            }
            let best_share = self.share[best];
            debug_assert!(
                best_share.is_finite(),
                "unfrozen groups but no loaded resource"
            );
            if best_share < floor {
                let res = &self.resources[self.dirty_res[best] as usize];
                let initial = Self::initial_share(res, res.weight as i64);
                let saw_it = res.saturated || initial >= self.theta;
                return Err(if saw_it { f64::NEG_INFINITY } else { initial });
            }
            let bottleneck = self.dirty_res[best] as usize;
            self.resources[bottleneck].bind = best_share;

            // Freeze the bottleneck's unfrozen residents, ascending.
            for &slot in &self.res_groups[bottleneck] {
                let g = &mut self.groups[slot as usize];
                if g.flags & (IN | FROZEN) != IN {
                    continue;
                }
                g.flags |= FROZEN;
                unfrozen -= 1;
                g.new_rate = best_share;
                self.frozen.push(slot);
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::splitmix64;
    use crate::reference;

    /// Full from-scratch solve of the incremental solver's live registry —
    /// the oracle the incremental tests compare against bitwise.
    fn full_oracle(caps: &[f64], groups: &[(u32, Vec<u32>, u32)]) -> Vec<f64> {
        let cells: Vec<Vec<usize>> = groups
            .iter()
            .map(|(_, cells, _)| cells.iter().map(|&r| r as usize).collect())
            .collect();
        let weights: Vec<u32> = groups.iter().map(|&(_, _, w)| w).collect();
        reference::allocate_rates(caps, &cells, &weights)
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

    /// Deterministic seeded schedule of inserts / removals / re-weights
    /// / capacity edits — with plenty of mutations that cancel out before
    /// the next solve (remove then re-register the same group, weight down
    /// then up) — over `narrow` ordinary resources plus `wide` resources
    /// that a third of the groups share and whose capacity straddles
    /// saturation as load comes and goes. After every solve the registry,
    /// *and the rates a caller following `changed` believes*, must match a
    /// from-scratch batch solve bitwise.
    fn check_random_schedule(seed: u64, narrow: usize, wide: usize, steps: usize) {
        let mut state = seed;
        let mut next = move || splitmix64(&mut state) >> 33;
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

    /// `inc`'s rates against the full oracle, bitwise.
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
        // Re-registered while its neighbour leaves: group 1 froze at 2 on
        // resource 1, below the level (4) at which the departure changes
        // resource 0, so resource 0 skips it. One report, against the
        // fresh group's 0.
        inc.set_weight(1, 0);
        inc.insert_group(1, &[0, 1], 3);
        inc.set_weight(0, 0);
        changed.clear();
        let out = inc.solve(&mut changed);
        assert_eq!((out.dirty_groups, out.pruned_groups), (0, 1));
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
    fn residents_frozen_below_the_divergence_level_are_skipped() {
        // A parking lot with two levels: resource 0 (2 units) holds the
        // long group 1 and group 0 to 1 each; group 2 then takes the 9
        // units resource 1 (10) has left. A newcomer on resource 1 cannot
        // make it bind below its new initial share (10/3), so nothing
        // changes below that level: resource 1 skips the long group, and
        // resource 0 stays out.
        let caps = [2.0, 10.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 1);
        inc.insert_group(1, &[0, 1], 1);
        inc.insert_group(2, &[1], 1);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        assert_eq!((inc.rate(1), inc.rate(2)), (1.0, 9.0));
        changed.clear();
        inc.insert_group(3, &[1], 1);
        let out = inc.solve(&mut changed);
        assert_eq!(
            (out.dirty_groups, out.dirty_resources, out.pruned_groups),
            (2, 1, 1)
        );
        assert_eq!(changed, vec![(2, 4.5), (3, 4.5)]);
        assert_matches_oracle(
            &inc,
            &caps,
            &[
                (0, vec![0], 1),
                (1, vec![0, 1], 1),
                (2, vec![1], 1),
                (3, vec![1], 1),
            ],
        );
    }

    #[test]
    fn a_resident_exactly_at_the_divergence_level_conducts() {
        // Groups 0 and 1 split resource 0 at 1 each. Group 0 leaves: θ is
        // resource 0's old binding level, 1, exactly group 1's level, and
        // group 1 must be re-solved (it rises to 2).
        let caps = [2.0, 10.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        inc.insert_group(0, &[0], 1);
        inc.insert_group(1, &[0, 1], 1);
        inc.insert_group(2, &[1], 1);
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        changed.clear();
        inc.set_weight(0, 0);
        let out = inc.solve(&mut changed);
        assert_eq!(out.pruned_groups, 0);
        assert_eq!(changed, vec![(1, 2.0), (2, 8.0)]);
        assert_matches_oracle(&inc, &caps, &[(1, vec![0, 1], 1), (2, vec![1], 1)]);
    }

    #[test]
    fn a_level_an_ulp_below_the_divergence_level_conducts() {
        // Four resources tie at 40/3. Group 0 (weight 2) freezes first, at
        // 13.333333333333334 on resource 2; resource 3's share then rounds
        // an ulp lower, so group 2 freezes at 13.333333333333332 in a later
        // round. A newcomer moves resource 1's binding to that tie: group
        // 2's level lies below θ but its round does not come before θ's,
        // and only the margin keeps it in the closure.
        let caps = [39.2, 40.0, 40.0, 40.0, 40.0];
        let mut inc = IncrementalSolver::new();
        inc.set_capacities(&caps);
        let mut groups = vec![
            (0, vec![3, 2], 2),
            (1, vec![0, 1], 1),
            (2, vec![3, 1], 1),
            (3, vec![4, 2], 1),
        ];
        for (slot, cells, weight) in &groups {
            inc.insert_group(*slot, cells, *weight);
        }
        let mut changed = Vec::new();
        inc.solve(&mut changed);
        assert_eq!(
            (inc.rate(0), inc.rate(2)),
            (13.333333333333334, 13.333333333333332)
        );
        inc.insert_group(4, &[4, 1], 1);
        groups.push((4, vec![4, 1], 1));
        inc.solve(&mut changed);
        assert_matches_oracle(&inc, &caps, &groups);
    }
}

/// The solver's random-schedule properties: max–min invariants checked on
/// the allocation itself, the saturation flags, and bitwise equality with
/// the reference filling under level-colliding capacities.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::allocate_rates;
    use proptest::prelude::*;

    /// One step of a random solver schedule: what to do to `slot` if it is
    /// free (register `cells` × `weight`) or live (`kind` picks remove /
    /// re-weight / remove-and-re-register / a capacity edit on `res`), and
    /// whether to solve afterwards.
    #[derive(Debug, Clone)]
    struct SolverOp {
        kind: u8,
        slot: u32,
        cells: Vec<u32>,
        weight: u32,
        res: usize,
        cap: f64,
        solve: bool,
    }

    const SOLVER_RESOURCES: usize = 8;

    fn solver_op_strategy() -> impl Strategy<Value = SolverOp> {
        (
            (
                0u8..5,
                0u32..12,
                proptest::collection::btree_set(0..SOLVER_RESOURCES as u32, 1..=3),
                1u32..5,
            ),
            // Mostly ordinary capacities, now and then a dead resource; solve
            // after three steps in five.
            (0..SOLVER_RESOURCES, 0u8..10, 0.5f64..100.0, 0u8..5),
        )
            .prop_map(
                |((kind, slot, cells, weight), (res, dead, cap, solve))| SolverOp {
                    kind,
                    slot,
                    cells: cells.into_iter().collect(),
                    weight,
                    res,
                    cap: if dead == 0 { 0.0 } else { cap },
                    solve: solve < 3,
                },
            )
    }

    /// Capacities that make levels collide: equal shares across resources,
    /// exact ties between rounds, dead resources.
    const TIE_CAPS: [f64; 8] = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 12.0, 40.0];

    /// A capacity drawn from [`TIE_CAPS`] three times in four, else uniform.
    fn tie_cap_strategy() -> impl Strategy<Value = f64> {
        (0usize..TIE_CAPS.len() * 4 / 3, 0.5f64..50.0).prop_map(|(i, any)| {
            if i < TIE_CAPS.len() {
                TIE_CAPS[i]
            } else {
                any
            }
        })
    }

    /// The max–min invariants, checked on an allocation directly (no second
    /// implementation involved): (i) no resource is over capacity; (ii) every
    /// group crosses a saturated resource on which no resident has a higher
    /// rate — its bottleneck. Returns each resource's total allocation.
    fn check_maxmin_invariants(
        caps: &[f64],
        groups: &[(&[u32], u32, f64)],
    ) -> Result<Vec<f64>, TestCaseError> {
        let mut alloc = vec![0.0f64; caps.len()];
        let mut top = vec![0.0f64; caps.len()];
        for &(cells, weight, rate) in groups {
            prop_assert!(rate >= 0.0 && rate.is_finite(), "rate {rate}");
            for &c in cells {
                alloc[c as usize] += rate * weight as f64;
                top[c as usize] = top[c as usize].max(rate);
            }
        }
        for (r, (&a, &cap)) in alloc.iter().zip(caps).enumerate() {
            prop_assert!(
                a <= cap * (1.0 + 1e-9),
                "resource {r} over capacity: {a} > {cap}"
            );
        }
        for &(cells, _, rate) in groups {
            let bottlenecked = cells.iter().any(|&c| {
                let c = c as usize;
                alloc[c] >= caps[c] * (1.0 - 1e-9) && rate >= top[c] * (1.0 - 1e-9)
            });
            prop_assert!(
                bottlenecked,
                "group on {cells:?} at {rate} has no bottleneck"
            );
        }
        Ok(alloc)
    }

    /// The live slots of a solver schedule, ascending, as the reference
    /// solver's flows and weights.
    fn registry(live: &[Option<(Vec<u32>, u32)>]) -> (Vec<Vec<usize>>, Vec<u32>) {
        live.iter()
            .flatten()
            .map(|(cells, weight)| (cells.iter().map(|&r| r as usize).collect(), *weight))
            .unzip()
    }

    proptest! {
        #[test]
        fn solvers_keep_maxmin_invariants_under_random_schedules(
            init_caps in proptest::collection::vec(0.5f64..100.0, SOLVER_RESOURCES),
            ops in proptest::collection::vec(solver_op_strategy(), 1..48),
        ) {
            // Invariants, not a comparison: a bug shared by the incremental
            // solver and the reference filling cannot hide here. After every
            // solve of a random insert / re-weight / remove / re-register /
            // `set_capacity` schedule both allocations must be feasible and give
            // every group a bottleneck, and every saturation flag of the
            // incremental solver must equal the flag recomputed from the
            // registry.
            let mut caps = init_caps;
            let mut inc = IncrementalSolver::new();
            inc.set_capacities(&caps);
            let mut live: Vec<Option<(Vec<u32>, u32)>> = vec![None; 12];
            let mut changed = Vec::new();
            for op in &ops {
                let s = op.slot as usize;
                match (live[s].clone(), op.kind) {
                    (None, _) => {
                        inc.insert_group(op.slot, &op.cells, op.weight);
                        live[s] = Some((op.cells.clone(), op.weight));
                    }
                    (Some(_), 0) => {
                        inc.set_weight(op.slot, 0);
                        live[s] = None;
                    }
                    (Some((cells, _)), 1) => {
                        inc.set_weight(op.slot, op.weight);
                        live[s] = Some((cells, op.weight));
                    }
                    (Some((cells, weight)), 2) => {
                        // Torn down and re-registered as it was.
                        inc.set_weight(op.slot, 0);
                        inc.insert_group(op.slot, &cells, weight);
                    }
                    (Some(_), _) => {
                        caps[op.res] = op.cap;
                        inc.set_capacity(op.res, op.cap);
                    }
                }
                if !op.solve {
                    continue;
                }
                changed.clear();
                inc.solve(&mut changed);
                let slots: Vec<usize> = (0..live.len()).filter(|&s| live[s].is_some()).collect();
                let shape = |s: usize| live[s].as_ref().expect("live slot");
                let incremental: Vec<(&[u32], u32, f64)> = slots
                    .iter()
                    .map(|&s| (shape(s).0.as_slice(), shape(s).1, inc.rate(s as u32)))
                    .collect();
                let alloc = check_maxmin_invariants(&caps, &incremental)?;
                for (r, (&a, &cap)) in alloc.iter().zip(&caps).enumerate() {
                    prop_assert_eq!(
                        inc.is_saturated(r),
                        a >= cap * (1.0 - SATURATION_MARGIN),
                        "saturation flag of resource {} (allocated {} of {})", r, a, cap
                    );
                }

                let (cells, weights) = registry(&live);
                let rates = allocate_rates(&caps, &cells, &weights);
                let batched: Vec<(&[u32], u32, f64)> = slots
                    .iter()
                    .zip(&rates)
                    .map(|(&s, &rate)| (shape(s).0.as_slice(), shape(s).1, rate))
                    .collect();
                check_maxmin_invariants(&caps, &batched)?;
            }
        }

        #[test]
        fn incremental_solver_is_the_batch_solver_bit_for_bit(
            init_caps in proptest::collection::vec(tie_cap_strategy(), SOLVER_RESOURCES),
            ops in proptest::collection::vec(
                (solver_op_strategy(), tie_cap_strategy(), 0u8..6),
                1..64,
            ),
        ) {
            // The exactness of level-aware conduction: registries whose groups
            // freeze at several distinct levels, with exact ties (capacities
            // from `TIE_CAPS`), dead resources, capacity cuts and raises,
            // weight-0 removal and same-slot re-registration, as the same shape
            // or another. After every solve each rate, and each rate a caller
            // following `changed` holds, equals the reference filling's bitwise.
            let mut caps = init_caps;
            let mut inc = IncrementalSolver::new();
            inc.set_capacities(&caps);
            let mut live: Vec<Option<(Vec<u32>, u32)>> = vec![None; 12];
            let mut seen = vec![0.0f64; live.len()];
            let mut changed = Vec::new();
            for (op, cap, kind) in &ops {
                let s = op.slot as usize;
                match (live[s].clone(), kind) {
                    (None, _) => {
                        inc.insert_group(op.slot, &op.cells, op.weight);
                        live[s] = Some((op.cells.clone(), op.weight));
                        seen[s] = 0.0;
                    }
                    (Some(_), 0) => {
                        inc.set_weight(op.slot, 0);
                        live[s] = None;
                    }
                    (Some((cells, _)), 1) => {
                        inc.set_weight(op.slot, op.weight);
                        live[s] = Some((cells, op.weight));
                    }
                    (Some((cells, weight)), 2) => {
                        inc.set_weight(op.slot, 0);
                        inc.insert_group(op.slot, &cells, weight);
                        seen[s] = 0.0;
                    }
                    (Some(_), 3) => {
                        inc.set_weight(op.slot, 0);
                        inc.insert_group(op.slot, &op.cells, op.weight);
                        live[s] = Some((op.cells.clone(), op.weight));
                        seen[s] = 0.0;
                    }
                    (Some(_), 4) => {
                        // A cut: halved, or dead.
                        caps[op.res] = if op.cap < 10.0 { 0.0 } else { caps[op.res] / 2.0 };
                        inc.set_capacity(op.res, caps[op.res]);
                    }
                    (Some(_), _) => {
                        // A raise, to a tie-prone value or by half again.
                        caps[op.res] = cap.max(caps[op.res] * 1.5);
                        inc.set_capacity(op.res, caps[op.res]);
                    }
                }
                if !op.solve {
                    continue;
                }
                changed.clear();
                inc.solve(&mut changed);
                for &(g, rate) in &changed {
                    seen[g as usize] = rate;
                }
                let slots: Vec<usize> = (0..live.len()).filter(|&s| live[s].is_some()).collect();
                let (cells, weights) = registry(&live);
                let rates = allocate_rates(&caps, &cells, &weights);
                for (&s, want) in slots.iter().zip(&rates) {
                    prop_assert_eq!(inc.rate(s as u32).to_bits(), want.to_bits(), "slot {}", s);
                    prop_assert_eq!(seen[s].to_bits(), want.to_bits(), "caller's view of slot {}", s);
                }
            }
        }
    }
}
