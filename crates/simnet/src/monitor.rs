//! Windowed bandwidth accounting per node, resource, and traffic class.

use crate::node::{NodeCaps, ResourceKind, Traffic};

/// Bytes observed for one (window, node, resource, class) combination.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageSample {
    /// Bytes transferred in the window.
    pub bytes: f64,
    /// Window length in seconds (the final window may be partial).
    pub seconds: f64,
}

impl UsageSample {
    /// Average rate over the window, in bytes/s (0 for an empty window).
    pub fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds
        } else {
            0.0
        }
    }
}

pub(crate) const KINDS: usize = 4;
const TAGS: usize = 3;

/// Records how many bytes each traffic class moved through each node
/// resource, in consecutive fixed-length time windows (15 s in the paper's
/// §II-D analysis).
///
/// The monitor is filled by the [`Simulator`](crate::Simulator) as flows
/// progress; experiments read it to compute fluctuation (Fig. 5) and
/// most/least-loaded link statistics (Fig. 6).
#[derive(Debug, Clone)]
pub struct Monitor {
    window_secs: f64,
    nodes: usize,
    /// Number of shared link resources (0 without a topology); link cells
    /// are appended after the `nodes × KINDS` node cells.
    links: usize,
    /// `windows[w][idx(node, kind, tag)]` = bytes; link usage lives at
    /// `((nodes × KINDS + link) × TAGS + tag)`.
    windows: Vec<Vec<f64>>,
    /// Total simulated time covered so far.
    horizon: f64,
}

impl Monitor {
    /// Creates a monitor for `nodes` nodes plus `links` shared link
    /// resources with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive.
    pub(crate) fn new(nodes: usize, links: usize, window_secs: f64) -> Self {
        assert!(window_secs > 0.0, "window length must be positive");
        Monitor {
            window_secs,
            nodes,
            links,
            windows: Vec::new(),
            horizon: 0.0,
        }
    }

    fn idx(&self, node: usize, kind: ResourceKind, tag: Traffic) -> usize {
        assert!(node < self.nodes, "node {node} out of range");
        (node * KINDS + kind.index()) * TAGS + tag.index()
    }

    fn link_idx(&self, link: usize, tag: Traffic) -> usize {
        assert!(link < self.links, "link {link} out of range");
        (self.nodes * KINDS + link) * TAGS + tag.index()
    }

    /// Accounts a constant-rate transfer segment `[start, end)` on a node
    /// resource.
    #[cfg(test)]
    pub(crate) fn record(
        &mut self,
        start: f64,
        end: f64,
        rate: f64,
        node: usize,
        kind: ResourceKind,
        tag: Traffic,
    ) {
        let idx = self.idx(node, kind, tag);
        self.record_idx(start, end, rate, idx);
    }

    /// Accounts a constant-rate transfer segment `[start, end)` on a
    /// packed resource cell — a node cell (`node × KINDS + kind`) or a
    /// link cell (`nodes × KINDS + link`).
    pub(crate) fn record_cell(
        &mut self,
        start: f64,
        end: f64,
        rate: f64,
        cell: usize,
        tag: Traffic,
    ) {
        debug_assert!(cell < self.nodes * KINDS + self.links);
        self.record_idx(start, end, rate, cell * TAGS + tag.index());
    }

    fn record_idx(&mut self, start: f64, end: f64, rate: f64, idx: usize) {
        debug_assert!(end >= start);
        self.horizon = self.horizon.max(end);
        if rate <= 0.0 || end <= start {
            return;
        }
        self.for_each_window(start, end, |row, overlap| row[idx] += rate * overlap);
    }

    /// Accounts one constant-rate segment `[start, end)` on many cells at
    /// once: `cells` are flattened `cell × TAGS + tag` indices and
    /// `rates[cell]` their aggregate rates (cells at rate ≤ 0 are skipped).
    /// The segment is split into windows once and each cell receives the
    /// same `rate × overlap` additions, in the same order, as one
    /// `record_cell` call per positive-rate cell would make — every window
    /// sum, the horizon and the window count are bit-identical, at one
    /// window split per engine advance instead of one per active cell.
    pub(crate) fn record_cells(&mut self, start: f64, end: f64, cells: &[u32], rates: &[f64]) {
        debug_assert!(end >= start);
        if !cells.iter().any(|&c| rates[c as usize] > 0.0) {
            return;
        }
        self.horizon = self.horizon.max(end);
        self.for_each_window(start, end, |row, overlap| {
            for &c in cells {
                let rate = rates[c as usize];
                if rate > 0.0 {
                    row[c as usize] += rate * overlap;
                }
            }
        });
    }

    /// Calls `credit(window row, overlap seconds)` for every window the
    /// segment `[start, end)` overlaps (none when it is empty), growing
    /// the window list as needed.
    fn for_each_window(&mut self, start: f64, end: f64, mut credit: impl FnMut(&mut [f64], f64)) {
        let win = self.window_secs;
        // Iterate over *integer* window indices. The previous float-stepping
        // loop (`t = seg_end` with `seg_end = (w+1)*win`) could truncate
        // `(t / win) as usize` back to the same window when the boundary is
        // not exactly representable (e.g. win = 0.1 at large indices),
        // producing zero-length segments — a livelock — or crediting
        // boundary bytes to the wrong window. Incrementing `w` guarantees
        // forward progress and attributes each overlap exactly once.
        let mut w = (start / win).floor() as usize;
        loop {
            let w_start = w as f64 * win;
            if w_start >= end {
                break;
            }
            let overlap = end.min(w_start + win) - start.max(w_start);
            if overlap > 0.0 {
                while self.windows.len() <= w {
                    self.windows
                        .push(vec![0.0; (self.nodes * KINDS + self.links) * TAGS]);
                }
                credit(&mut self.windows[w], overlap);
            }
            w += 1;
        }
    }

    /// The configured window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Number of windows with any recorded time so far.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Usage of one (window, node, resource, class) cell.
    ///
    /// Returns an empty sample for windows beyond the recorded horizon.
    pub fn usage(
        &self,
        window: usize,
        node: usize,
        kind: ResourceKind,
        tag: Traffic,
    ) -> UsageSample {
        let Some(w) = self.windows.get(window) else {
            return UsageSample::default();
        };
        let start = window as f64 * self.window_secs;
        let seconds = (self.horizon - start).clamp(0.0, self.window_secs);
        UsageSample {
            bytes: w[self.idx(node, kind, tag)],
            seconds,
        }
    }

    /// Per-window average rates for one (node, resource, class), in bytes/s.
    fn rate_series(&self, node: usize, kind: ResourceKind, tag: Traffic) -> Vec<f64> {
        (0..self.window_count())
            .map(|w| self.usage(w, node, kind, tag).rate())
            .collect()
    }

    /// Total bytes a traffic class moved through a node resource.
    pub fn total_bytes(&self, node: usize, kind: ResourceKind, tag: Traffic) -> f64 {
        let idx = self.idx(node, kind, tag);
        self.windows.iter().map(|w| w[idx]).sum()
    }

    /// Number of shared link resources the monitor tracks (0 without a
    /// topology).
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// Usage of one (window, link, class) cell on a shared fabric link.
    ///
    /// Returns an empty sample for windows beyond the recorded horizon.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_usage(&self, window: usize, link: usize, tag: Traffic) -> UsageSample {
        let idx = self.link_idx(link, tag);
        let Some(w) = self.windows.get(window) else {
            return UsageSample::default();
        };
        let start = window as f64 * self.window_secs;
        let seconds = (self.horizon - start).clamp(0.0, self.window_secs);
        UsageSample {
            bytes: w[idx],
            seconds,
        }
    }

    /// Total bytes a traffic class moved through a shared fabric link —
    /// summing a rack's ToR uplink gives its cross-rack egress, the
    /// quantity the oversubscription experiments plot.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_total_bytes(&self, link: usize, tag: Traffic) -> f64 {
        let idx = self.link_idx(link, tag);
        self.windows.iter().map(|w| w[idx]).sum()
    }

    /// The fluctuation (max rate − min rate across windows) of a class on a
    /// node resource — the paper's Fig. 5 metric.
    ///
    /// The series is restricted to the class's *active interval*: the span
    /// from its first to its last nonzero window on this cell. The monitor's
    /// global horizon is extended by every class on every node, so without
    /// the restriction, leading/trailing windows created by *other* traffic
    /// would drag a quiet class's min rate to 0 and inflate the metric. The
    /// paper's §II-D measurement likewise samples only while the workload
    /// under study is running; idle windows *inside* the active interval
    /// still count — a class that stalls mid-run genuinely fluctuates.
    pub fn fluctuation(&self, node: usize, kind: ResourceKind, tag: Traffic) -> f64 {
        let series = self.rate_series(node, kind, tag);
        let Some(first) = series.iter().position(|&r| r > 0.0) else {
            return 0.0;
        };
        let last = series
            .iter()
            .rposition(|&r| r > 0.0)
            .expect("nonzero entry exists");
        let active = &series[first..=last];
        let max = active.iter().cloned().fold(f64::MIN, f64::max);
        let min = active.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    /// Average rate over the whole recorded horizon for a class on a node
    /// resource.
    ///
    /// Unlike [`fluctuation`](Self::fluctuation), this deliberately keeps
    /// the *global* horizon as the divisor: the Fig. 6 link-load comparison
    /// ranks nodes against each other, which needs a common denominator —
    /// dividing each node by its own active interval would make a briefly
    /// busy link look as loaded as a continuously busy one.
    pub fn mean_rate(&self, node: usize, kind: ResourceKind, tag: Traffic) -> f64 {
        if self.horizon > 0.0 {
            self.total_bytes(node, kind, tag) / self.horizon
        } else {
            0.0
        }
    }

    /// Convenience: verifies no cell ever exceeded its capacity (sanity
    /// check used by tests; returns the worst relative overshoot).
    ///
    /// # Panics
    ///
    /// Panics if `caps` has fewer entries than the monitor tracks nodes.
    pub fn worst_overshoot(&self, caps: &[NodeCaps]) -> f64 {
        assert!(
            caps.len() >= self.nodes,
            "worst_overshoot: caps slice has {} entries but the monitor tracks {} nodes",
            caps.len(),
            self.nodes
        );
        let mut worst: f64 = 0.0;
        for (w, win) in self.windows.iter().enumerate() {
            let start = w as f64 * self.window_secs;
            let seconds = (self.horizon - start).clamp(0.0, self.window_secs);
            if seconds <= 0.0 {
                continue;
            }
            for node in 0..self.nodes {
                for kind in ResourceKind::ALL {
                    let total: f64 = Traffic::ALL
                        .iter()
                        .map(|&t| win[self.idx(node, kind, t)])
                        .sum();
                    let cap = caps[node].capacity(kind) * seconds;
                    if cap > 0.0 {
                        worst = worst.max(total / cap - 1.0);
                    }
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn batched_recording_is_bitwise_equal_to_per_cell(
            seed in any::<u64>(),
            window_decis in 1u32..40,
            far in any::<bool>(),
        ) {
            // `record_cells` against the loop it replaced in the engine:
            // one `record_cell` per active cell with a positive rate.
            // Segments are empty, inside one window, end exactly on a
            // (float-computed) boundary, or span several windows; with
            // `far` they sit thousands of windows out, where a window of
            // 0.1 s is not representable and the old float-stepping loop
            // livelocked.
            let (nodes, links) = (3usize, 2usize);
            let flat_cells = (nodes * KINDS + links) * TAGS;
            let win = window_decis as f64 * 0.1;
            let mut per_cell = Monitor::new(nodes, links, win);
            let mut batched = Monitor::new(nodes, links, win);
            let mut state = seed | 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let mut w = if far { 4321 } else { 0 };
            let mut start = w as f64 * win;
            for _ in 0..40 {
                let end = match next() % 5 {
                    0 => start,
                    1 => start + win * (next() % 1000) as f64 / 1000.0,
                    2 => {
                        w += 1 + (next() % 3) as usize;
                        w as f64 * win
                    }
                    _ => start + win * (next() % 4000) as f64 / 1000.0,
                }
                .max(start);
                let mut rates = vec![0.0f64; flat_cells];
                let mut active: Vec<u32> = Vec::new();
                // Now and then nothing moves: neither path may then extend
                // the horizon or grow the window list.
                let all_starved = next() % 6 == 0;
                for (c, rate) in rates.iter_mut().enumerate() {
                    match (next() % 4, all_starved) {
                        // Active at a positive rate.
                        (0 | 1, false) => {
                            *rate = 1.0 + (next() % 100_000) as f64 / 7.0;
                            active.push(c as u32);
                        }
                        // Active but starved, or drifted just below zero.
                        (0..=2, _) => {
                            *rate = if next() % 2 == 0 { 0.0 } else { -1e-9 };
                            active.push(c as u32);
                        }
                        // Idle: holds a stale rate the list must mask.
                        _ => *rate = 5.0,
                    }
                }
                // The engine's active list is in no particular order.
                for i in (1..active.len()).rev() {
                    active.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                for &c in &active {
                    let c = c as usize;
                    if rates[c] > 0.0 {
                        per_cell.record_cell(start, end, rates[c], c / TAGS, Traffic::ALL[c % TAGS]);
                    }
                }
                batched.record_cells(start, end, &active, &rates);
                prop_assert_eq!(batched.horizon.to_bits(), per_cell.horizon.to_bits());
                prop_assert_eq!(batched.window_count(), per_cell.window_count());
                start = end;
                w = w.max((start / win).floor() as usize);
            }
            for (wi, (b, p)) in batched.windows.iter().zip(&per_cell.windows).enumerate() {
                for c in 0..flat_cells {
                    prop_assert_eq!(
                        b[c].to_bits(),
                        p[c].to_bits(),
                        "window {} cell {}: batched {} vs per-cell {}",
                        wi, c, b[c], p[c]
                    );
                }
            }
        }
    }

    #[test]
    fn records_split_across_windows() {
        let mut m = Monitor::new(1, 0, 10.0);
        // 4 bytes/s from t=5 to t=15: 20 bytes in window 0, 20 in window 1.
        m.record(5.0, 15.0, 4.0, 0, ResourceKind::Uplink, Traffic::Repair);
        assert_eq!(m.window_count(), 2);
        let w0 = m.usage(0, 0, ResourceKind::Uplink, Traffic::Repair);
        let w1 = m.usage(1, 0, ResourceKind::Uplink, Traffic::Repair);
        assert!((w0.bytes - 20.0).abs() < 1e-9);
        assert!((w1.bytes - 20.0).abs() < 1e-9);
        // Window 1 only covers 5 seconds of horizon so far.
        assert!((w1.seconds - 5.0).abs() < 1e-9);
        assert!((w1.rate() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn classes_are_separate() {
        let mut m = Monitor::new(2, 0, 10.0);
        m.record(
            0.0,
            1.0,
            8.0,
            1,
            ResourceKind::Downlink,
            Traffic::Foreground,
        );
        m.record(0.0, 1.0, 2.0, 1, ResourceKind::Downlink, Traffic::Repair);
        assert_eq!(
            m.total_bytes(1, ResourceKind::Downlink, Traffic::Foreground),
            8.0
        );
        assert_eq!(
            m.total_bytes(1, ResourceKind::Downlink, Traffic::Repair),
            2.0
        );
        assert_eq!(
            m.total_bytes(0, ResourceKind::Downlink, Traffic::Repair),
            0.0
        );
    }

    #[test]
    fn fluctuation_is_max_minus_min() {
        let mut m = Monitor::new(1, 0, 1.0);
        m.record(0.0, 1.0, 10.0, 0, ResourceKind::Uplink, Traffic::Foreground);
        m.record(1.0, 2.0, 4.0, 0, ResourceKind::Uplink, Traffic::Foreground);
        m.record(2.0, 3.0, 7.0, 0, ResourceKind::Uplink, Traffic::Foreground);
        assert!((m.fluctuation(0, ResourceKind::Uplink, Traffic::Foreground) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_window_is_empty() {
        let m = Monitor::new(1, 0, 1.0);
        let s = m.usage(7, 0, ResourceKind::Uplink, Traffic::Repair);
        assert_eq!(s.bytes, 0.0);
        assert_eq!(s.rate(), 0.0);
    }

    #[test]
    fn non_representable_window_lengths_conserve_bytes_over_long_horizons() {
        // window_secs = 0.1 is not exactly representable; the old float
        // stepping loop could produce zero-length segments at boundaries
        // far from zero. Record many short segments deep into the horizon
        // and check conservation and termination.
        let mut m = Monitor::new(1, 0, 0.1);
        let mut expected = 0.0;
        for k in 0..5000u32 {
            // Segments that start exactly on (float-computed) boundaries.
            let start = k as f64 * 0.1;
            let end = (k + 1) as f64 * 0.1;
            m.record(start, end, 3.0, 0, ResourceKind::Uplink, Traffic::Repair);
            expected += 3.0 * (end - start);
        }
        let total = m.total_bytes(0, ResourceKind::Uplink, Traffic::Repair);
        assert!(
            (total - expected).abs() < 1e-6,
            "conservation broke: {total} vs {expected}"
        );
        // One long segment spanning thousands of windows must also
        // terminate and conserve.
        let mut m = Monitor::new(1, 0, 0.1);
        m.record(0.0, 1000.0, 2.0, 0, ResourceKind::Downlink, Traffic::Repair);
        let total = m.total_bytes(0, ResourceKind::Downlink, Traffic::Repair);
        assert!((total - 2000.0).abs() < 1e-6, "long segment lost bytes");
        assert!(m.window_count() >= 9999);
    }

    #[test]
    fn boundary_segment_lands_in_one_window() {
        // A segment exactly filling window w must not leak into w+1.
        let mut m = Monitor::new(1, 0, 0.1);
        let w = 4321usize;
        m.record(
            w as f64 * 0.1,
            (w + 1) as f64 * 0.1,
            10.0,
            0,
            ResourceKind::Uplink,
            Traffic::Foreground,
        );
        let inside = m.usage(w, 0, ResourceKind::Uplink, Traffic::Foreground);
        let after = m.usage(w + 1, 0, ResourceKind::Uplink, Traffic::Foreground);
        assert!((inside.bytes - 1.0).abs() < 1e-9);
        assert_eq!(after.bytes, 0.0);
    }

    #[test]
    fn fluctuation_ignores_other_traffic_horizon() {
        // Repair runs at a steady 10 B/s in windows 0-1; foreground traffic
        // then extends the horizon to window 9. The quiet windows belong to
        // foreground's lifetime, not repair's, and must not drag repair's
        // min rate to 0.
        let mut m = Monitor::new(1, 0, 1.0);
        m.record(0.0, 2.0, 10.0, 0, ResourceKind::Uplink, Traffic::Repair);
        m.record(0.0, 10.0, 3.0, 0, ResourceKind::Uplink, Traffic::Foreground);
        assert!(
            m.fluctuation(0, ResourceKind::Uplink, Traffic::Repair)
                .abs()
                < 1e-9,
            "steady repair traffic should have zero fluctuation"
        );
        // An idle window *inside* the active interval still counts.
        m.record(4.0, 5.0, 10.0, 0, ResourceKind::Uplink, Traffic::Repair);
        assert!((m.fluctuation(0, ResourceKind::Uplink, Traffic::Repair) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fluctuation_of_silent_class_is_zero() {
        let mut m = Monitor::new(1, 0, 1.0);
        m.record(0.0, 5.0, 3.0, 0, ResourceKind::Uplink, Traffic::Foreground);
        assert_eq!(m.fluctuation(0, ResourceKind::Uplink, Traffic::Repair), 0.0);
    }

    #[test]
    #[should_panic(expected = "caps slice has 1 entries but the monitor tracks 2 nodes")]
    fn worst_overshoot_rejects_short_caps_slice() {
        let mut m = Monitor::new(2, 0, 1.0);
        m.record(0.0, 1.0, 1.0, 1, ResourceKind::Uplink, Traffic::Repair);
        let caps = vec![NodeCaps::symmetric(10.0, 10.0)];
        m.worst_overshoot(&caps);
    }

    #[test]
    fn worst_overshoot_accepts_full_caps_slice() {
        let mut m = Monitor::new(2, 0, 1.0);
        m.record(0.0, 1.0, 5.0, 1, ResourceKind::Uplink, Traffic::Repair);
        let caps = vec![NodeCaps::symmetric(10.0, 10.0); 2];
        assert!(m.worst_overshoot(&caps) <= 0.0);
    }

    #[test]
    fn link_cells_accumulate_independently_of_node_cells() {
        // 2 nodes (8 node cells) + 3 links; link 1 is cell 9.
        let mut m = Monitor::new(2, 3, 1.0);
        m.record_cell(0.0, 2.0, 4.0, 2 * KINDS + 1, Traffic::Repair);
        m.record_cell(0.0, 1.0, 6.0, 0, Traffic::Repair); // node 0 uplink
        assert_eq!(m.link_count(), 3);
        assert!((m.link_total_bytes(1, Traffic::Repair) - 8.0).abs() < 1e-9);
        assert_eq!(m.link_total_bytes(0, Traffic::Repair), 0.0);
        assert_eq!(m.link_total_bytes(1, Traffic::Foreground), 0.0);
        // Node accounting is untouched by link cells.
        assert!((m.total_bytes(0, ResourceKind::Uplink, Traffic::Repair) - 6.0).abs() < 1e-9);
        let s = m.link_usage(0, 1, Traffic::Repair);
        assert!((s.bytes - 4.0).abs() < 1e-9);
        assert!((s.rate() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn node_query_out_of_range_panics_instead_of_reading_a_link() {
        // Past the last node cell come the link cells: node 4 of a 4-node
        // monitor would read link 0.
        let mut m = Monitor::new(4, 4, 1.0);
        m.record_cell(0.0, 1.0, 1e6, 4 * KINDS, Traffic::Foreground);
        let _ = m.usage(0, 4, ResourceKind::Uplink, Traffic::Foreground);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_query_out_of_range_panics() {
        let m = Monitor::new(2, 1, 1.0);
        let _ = m.link_total_bytes(1, Traffic::Repair);
    }
}
