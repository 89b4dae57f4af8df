//! The chunk repairs a driver has in flight, addressable by owner key.
//!
//! A driver sees every simulator event first, and most of them are not
//! its own (each foreground request completes a flow and fires a timer).
//! Offering an event to every in-flight [`PlanExecutor`] in turn costs a
//! lookup per executor per event. Instead each attempt is assigned a small
//! integer key when it joins the roster, its executor stamps the key on
//! every flow it starts ([`FlowSpec::with_owner`]), the engine echoes it
//! on the completion, and [`Roster::position`] turns it back into the
//! attempt's index with two array reads.
//!
//! [`PlanExecutor`]: crate::PlanExecutor
//! [`FlowSpec::with_owner`]: chameleon_simnet::FlowSpec::with_owner

use std::ops::{Index, IndexMut};

/// In-flight attempts in a `Vec` with `swap_remove` semantics — the order
/// the stall sweep and the straggler check visit them in, which the
/// simulation's results depend on — plus a key → index table.
///
/// Keys are recycled, so a late event of a removed attempt (an abort
/// notification still queued when its attempt was torn down) can carry the
/// key of a newer attempt. That is harmless: the key only routes, and the
/// executor it reaches still checks the flow id against its own table.
#[derive(Debug)]
pub struct Roster<T> {
    /// `(key, attempt)` in visiting order.
    items: Vec<(u32, T)>,
    /// Key → index into `items` (stale for keys on the free list).
    index_of: Vec<u32>,
    /// Released keys, reused LIFO.
    free: Vec<u32>,
}

impl<T> Roster<T> {
    pub(crate) fn new() -> Self {
        Roster {
            items: Vec::new(),
            index_of: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The key the next [`Roster::push`] will assign — known up front
    /// because an executor starts flows before its attempt is pushed.
    pub(crate) fn next_key(&self) -> u64 {
        u64::from(
            self.free
                .last()
                .copied()
                .unwrap_or(self.index_of.len() as u32),
        )
    }

    /// Appends an attempt under [`Roster::next_key`].
    pub(crate) fn push(&mut self, item: T) {
        let index = self.items.len() as u32;
        let key = match self.free.pop() {
            Some(key) => {
                self.index_of[key as usize] = index;
                key
            }
            None => {
                self.index_of.push(index);
                self.index_of.len() as u32 - 1
            }
        };
        self.items.push((key, item));
    }

    /// Index of the attempt holding `key`, if one does.
    pub(crate) fn position(&self, key: u64) -> Option<usize> {
        let index = *self.index_of.get(usize::try_from(key).ok()?)? as usize;
        // A freed key's entry is stale: it may point past the end or at an
        // attempt holding another key.
        (u64::from(self.items.get(index)?.0) == key).then_some(index)
    }

    /// Removes the attempt at `index`, moving the last one into its place
    /// (`Vec::swap_remove`), and releases its key.
    pub(crate) fn swap_remove(&mut self, index: usize) -> T {
        let (key, item) = self.items.swap_remove(index);
        self.free.push(key);
        if let Some(&(moved, _)) = self.items.get(index) {
            self.index_of[moved as usize] = index as u32;
        }
        item
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, item)| item)
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut().map(|(_, item)| item)
    }
}

impl<T> Index<usize> for Roster<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.items[index].1
    }
}

impl<T> IndexMut<usize> for Roster<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.items[index].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mirrors the roster with a plain `Vec<(key, value)>` and checks
    /// order, key → index resolution and key recycling after every step.
    #[test]
    fn matches_a_vec_with_swap_remove_under_churn() {
        let mut roster: Roster<u32> = Roster::new();
        let mut model: Vec<(u64, u32)> = Vec::new();
        let mut retired: Vec<u64> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..2000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = (state >> 33) as usize;
            if model.is_empty() || (model.len() < 12 && !roll.is_multiple_of(3)) {
                let key = roster.next_key();
                assert!(
                    model.iter().all(|&(k, _)| k != key),
                    "key {key} handed out twice"
                );
                roster.push(step);
                model.push((key, step));
                retired.retain(|&k| k != key);
            } else {
                let at = roll % model.len();
                let (key, value) = model.swap_remove(at);
                assert_eq!(roster.swap_remove(at), value);
                retired.push(key);
            }
            assert_eq!(roster.len(), model.len());
            assert_eq!(roster.is_empty(), model.is_empty());
            assert!(roster.iter().eq(model.iter().map(|(_, v)| v)));
            for (i, &(key, value)) in model.iter().enumerate() {
                assert_eq!(roster.position(key), Some(i));
                assert_eq!(roster[i], value);
            }
            for &key in &retired {
                assert_eq!(roster.position(key), None, "retired key {key} resolves");
            }
        }
        // Keys stay dense: never more than the peak population.
        assert!(roster.index_of.len() <= 12);
        assert_eq!(roster.position(u64::MAX), None);
    }
}
