//! The runnable queue: a calendar-style bucket queue over the engine's
//! `(virtual time, pid, generation)` order key.
//!
//! The engine grants the commit token strictly in order-key order, and a
//! conservative discrete-event simulation has the *monotone frontier*
//! property: the minimum key never moves backwards (every new entry is
//! derived from the current token holder's clock or later). A calendar
//! queue (Brown, CACM 1988) exploits exactly that access pattern: keys
//! hash into time buckets of width `w`, the dequeue cursor sweeps the
//! buckets like the pages of a desk calendar, and both `push` and
//! `pop_min` are O(1) amortized — against O(log n) for the binary heap
//! this module replaces.
//!
//! Two deviations from the textbook structure matter here:
//!
//! * **Total order, not just time order.** Entries are ordered by the
//!   full `(time, pid, gen)` key, and ties in `time` are common (ring
//!   exchanges synchronize whole communicators to one instant). Buckets
//!   are kept sorted by the full key, so `pop_min` yields *exactly* the
//!   sequence the reference heap would — the property the run-to-run
//!   bit-determinism argument needs, and the one the proptest suite at
//!   the bottom of this file checks against a `BinaryHeap` model.
//! * **Defensive non-monotonicity.** Correctness does not assume the
//!   frontier property: a push earlier than the last popped key simply
//!   rewinds the cursor. Only performance relies on monotone use.
//!
//! The bucket count doubles/halves when the population leaves the
//! `[nbuckets/2, 2*nbuckets]` band, and the bucket width is re-estimated
//! from the average gap between adjacent queued keys — all deterministic
//! (no sampling randomness), so the queue itself can never perturb a
//! simulation schedule.

use crate::engine::Pid;
use crate::time::SimTime;

/// The engine's dispatch order key. Ordered by `(time, pid, gen)` — a key
/// that does NOT depend on push order, so the pop sequence is identical
/// whether entries arrive in sequential baton order or out of order from
/// concurrently released processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderKey {
    /// Virtual time the process becomes runnable.
    pub time: SimTime,
    /// Process id (first tie-break).
    pub pid: Pid,
    /// Entry generation (second tie-break; invalidates stale entries).
    pub gen: u64,
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.pid, self.gen).cmp(&(other.time, other.pid, other.gen))
    }
}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Smallest bucket count; also the population below which shrinking stops.
const MIN_BUCKETS: usize = 16;

/// A calendar (bucket) priority queue popping [`OrderKey`]s in ascending
/// order. Amortized O(1) `push`/`pop_min` under the engine's monotone
/// access pattern; never worse than O(n) on a degenerate distribution.
pub struct CalendarQueue {
    /// Ring of buckets; each bucket is sorted *descending* by key so its
    /// minimum is `bucket.last()` and removal of the minimum is `pop()`.
    buckets: Vec<Vec<OrderKey>>,
    /// Bucket width in nanoseconds of virtual time (>= 1).
    width: u64,
    /// Lower bound on the next key to pop (the last popped key's time).
    last: u64,
    /// Total queued entries.
    count: usize,
    /// Cached position of the current minimum: `(bucket index, key)`.
    /// `None` means "unknown, scan on next peek/pop".
    cached_min: Option<(usize, OrderKey)>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// Fresh empty queue. The initial width is a placeholder; the first
    /// resize replaces it with an estimate from the observed key gaps.
    pub fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            width: 1 << 10,
            last: 0,
            count: 0,
            cached_min: None,
        }
    }

    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn bucket_of(&self, time: SimTime) -> usize {
        // nbuckets is a power of two.
        ((time.nanos() / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// Insert a key. O(1) amortized; O(bucket len) worst case for the
    /// in-bucket ordered insertion.
    pub fn push(&mut self, k: OrderKey) {
        let idx = self.bucket_of(k.time);
        let b = &mut self.buckets[idx];
        // Keep the bucket sorted descending: find the first position
        // whose key is NOT greater than `k` and insert before it.
        let pos = b.partition_point(|e| *e > k);
        b.insert(pos, k);
        self.count += 1;
        // A key earlier than the cursor rewinds it (defensive; the
        // engine's monotone frontier never does this).
        if k.time.nanos() < self.last {
            self.last = k.time.nanos();
        }
        match self.cached_min {
            // The cache only improves: a valid cached minimum stays valid
            // unless the new key orders before it; an unknown minimum
            // (None) stays unknown unless the queue was empty.
            Some((_, m)) if m < k => {}
            Some(_) => self.cached_min = Some((idx, k)),
            None if self.count == 1 => self.cached_min = Some((idx, k)),
            None => {}
        }
        if self.count > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// The minimum key, without removing it.
    pub fn peek_min(&mut self) -> Option<OrderKey> {
        if self.count == 0 {
            return None;
        }
        if self.cached_min.is_none() {
            self.locate_min();
        }
        self.cached_min.map(|(_, k)| k)
    }

    /// Remove and return the minimum key.
    pub fn pop_min(&mut self) -> Option<OrderKey> {
        if self.count == 0 {
            return None;
        }
        if self.cached_min.is_none() {
            self.locate_min();
        }
        let (idx, k) = self.cached_min.take().expect("non-empty queue has a min");
        let popped = self.buckets[idx].pop().expect("cached bucket non-empty");
        debug_assert_eq!(popped, k);
        self.count -= 1;
        self.last = k.time.nanos();
        if self.count < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        Some(k)
    }

    /// Find the minimum and cache its position. Classic calendar dequeue:
    /// sweep at most one "year" of buckets starting at the cursor, taking
    /// the first entry that falls inside its bucket's current-year window;
    /// fall back to a direct full scan when the sweep comes up empty
    /// (sparse queue whose next event is more than a year ahead).
    fn locate_min(&mut self) {
        debug_assert!(self.count > 0);
        let nb = self.buckets.len();
        let mut idx = ((self.last / self.width) as usize) & (nb - 1);
        // Upper time bound (exclusive) of `idx`'s window in this year.
        // u128: `last / width + 1` can overflow u64 when deadlines sit at
        // the far end of the clock (e.g. recv deadlines near u64::MAX).
        let mut top: u128 = (self.last as u128 / self.width as u128 + 1) * self.width as u128;
        for _ in 0..nb {
            if let Some(&k) = self.buckets[idx].last() {
                if (k.time.nanos() as u128) < top {
                    self.cached_min = Some((idx, k));
                    return;
                }
            }
            idx = (idx + 1) & (nb - 1);
            top += self.width as u128;
        }
        // Direct search: global minimum across all buckets.
        let (best_idx, best) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.last().map(|&k| (i, k)))
            .min_by_key(|&(_, k)| k)
            .expect("non-empty queue has a minimum");
        // Jump the cursor to the found key so the next sweep starts there.
        self.last = best.time.nanos();
        self.cached_min = Some((best_idx, best));
    }

    /// Rebuild with `nbuckets` buckets and a width re-estimated from the
    /// average gap between adjacent queued keys. Deterministic: uses the
    /// full queued population, no sampling.
    fn resize(&mut self, nbuckets: usize) {
        let mut all: Vec<OrderKey> = self.buckets.iter().flatten().copied().collect();
        all.sort_unstable();
        // Mean inter-key time gap; 3x it so a bucket holds a few entries.
        let width = if all.len() >= 2 {
            let span = all[all.len() - 1]
                .time
                .nanos()
                .saturating_sub(all[0].time.nanos());
            ((span / (all.len() as u64 - 1)).saturating_mul(3)).max(1)
        } else {
            self.width
        };
        self.width = width;
        self.buckets = vec![Vec::new(); nbuckets.max(MIN_BUCKETS)];
        self.cached_min = None;
        // Re-insert in descending order so each bucket ends up sorted
        // descending with a single push per key.
        let count = all.len();
        for k in all.into_iter().rev() {
            let idx = self.bucket_of(k.time);
            self.buckets[idx].push(k);
        }
        self.count = count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn k(time: u64, pid: u32, gen: u64) -> OrderKey {
        OrderKey {
            time: SimTime(time),
            pid: Pid(pid),
            gen,
        }
    }

    #[test]
    fn pops_in_full_key_order() {
        let mut q = CalendarQueue::new();
        for key in [
            k(50, 1, 3),
            k(50, 0, 9),
            k(10, 7, 1),
            k(50, 1, 2),
            k(10, 7, 0),
            k(0, 0, 0),
        ] {
            q.push(key);
        }
        let mut out = Vec::new();
        while let Some(x) = q.pop_min() {
            out.push(x);
        }
        let mut expect = [
            k(50, 1, 3),
            k(50, 0, 9),
            k(10, 7, 1),
            k(50, 1, 2),
            k(10, 7, 0),
            k(0, 0, 0),
        ];
        expect.sort();
        assert_eq!(out, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop_and_interleaves_with_push() {
        let mut q = CalendarQueue::new();
        q.push(k(100, 0, 0));
        assert_eq!(q.peek_min(), Some(k(100, 0, 0)));
        q.push(k(5, 2, 0));
        assert_eq!(q.peek_min(), Some(k(5, 2, 0)));
        assert_eq!(q.pop_min(), Some(k(5, 2, 0)));
        q.push(k(7, 1, 0));
        assert_eq!(q.pop_min(), Some(k(7, 1, 0)));
        assert_eq!(q.pop_min(), Some(k(100, 0, 0)));
        assert_eq!(q.pop_min(), None);
        assert_eq!(q.peek_min(), None);
    }

    #[test]
    fn survives_far_future_deadlines() {
        // Deadline entries can sit near the end of the clock; the year
        // arithmetic must not overflow.
        let mut q = CalendarQueue::new();
        q.push(k(u64::MAX, 0, 0));
        q.push(k(u64::MAX - 1, 1, 0));
        q.push(k(3, 2, 0));
        assert_eq!(q.pop_min(), Some(k(3, 2, 0)));
        assert_eq!(q.pop_min(), Some(k(u64::MAX - 1, 1, 0)));
        assert_eq!(q.pop_min(), Some(k(u64::MAX, 0, 0)));
    }

    #[test]
    fn resize_preserves_order_across_growth_and_shrink() {
        let mut q = CalendarQueue::new();
        // Push far more than 2*MIN_BUCKETS to force several doublings,
        // with clustered ties to stress in-bucket ordering.
        let mut keys = Vec::new();
        for i in 0..500u64 {
            let key = k((i * 37) % 90, (i % 11) as u32, i);
            keys.push(key);
            q.push(key);
        }
        keys.sort();
        for expect in keys {
            assert_eq!(q.pop_min(), Some(expect)); // shrinks on the way down
        }
    }

    #[test]
    fn defensive_rewind_on_earlier_push() {
        let mut q = CalendarQueue::new();
        q.push(k(1000, 0, 0));
        assert_eq!(q.pop_min(), Some(k(1000, 0, 0)));
        // Earlier than the last pop: the engine never does this, but the
        // queue must still return it.
        q.push(k(10, 1, 0));
        q.push(k(2000, 2, 0));
        assert_eq!(q.pop_min(), Some(k(10, 1, 0)));
        assert_eq!(q.pop_min(), Some(k(2000, 2, 0)));
    }

    /// The ISSUE-mandated equivalence suite: under randomized insert/pop
    /// interleavings the calendar queue pops in exactly the reference
    /// heap's `(time, pid, gen)` order.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn matches_binary_heap_reference(
                // Op encoding: sel 0..3 = push (3:2 push:pop ratio),
                // sel 3..5 = pop; (time, pid, gen) feed the pushed key.
                ops in collection::vec((0u8..5, 0u64..5000, 0u32..16, 0u64..64), 1..400),
                // A monotone time offset stream mimicking the engine's
                // advancing frontier (mixed with the raw times above to
                // also cover non-monotone pushes).
                drift in 0u64..1000,
            ) {
                let mut cal = CalendarQueue::new();
                let mut heap: BinaryHeap<Reverse<OrderKey>> = BinaryHeap::new();
                let mut base = 0u64;
                for &(sel, time, pid, gen) in &ops {
                    if sel < 3 {
                        base += drift;
                        let key = OrderKey {
                            time: SimTime(base.saturating_add(time)),
                            pid: Pid(pid),
                            gen,
                        };
                        cal.push(key);
                        heap.push(Reverse(key));
                    } else {
                        prop_assert_eq!(cal.peek_min(), heap.peek().map(|r| r.0));
                        prop_assert_eq!(cal.pop_min(), heap.pop().map(|r| r.0));
                        prop_assert_eq!(cal.len(), heap.len());
                    }
                }
                // Drain: the tail must agree too.
                while let Some(expect) = heap.pop() {
                    prop_assert_eq!(cal.pop_min(), Some(expect.0));
                }
                prop_assert!(cal.is_empty());
            }

            /// Bucket-index and year-window arithmetic near the end of
            /// the clock. Recv deadlines sit at `u64::MAX - delta`, so
            /// `locate_min`'s `last / width + 1` year bound is one step
            /// from overflowing u64 (hence the u128 there) and
            /// `bucket_of`'s division lands in the last "year" of the
            /// calendar. Mix far-end keys with small ones and check the
            /// pop order against the heap oracle — including pops taken
            /// *between* pushes, which move the cursor (`last`) to the
            /// far end and exercise the overflow-prone sweep directly.
            #[test]
            fn survives_deadlines_near_u64_max(
                // sel < 4: push near u64::MAX; sel == 4: push small;
                // sel > 4: pop. Heavier far-end weighting on purpose.
                ops in collection::vec((0u8..7, 0u64..5000, 0u32..16, 0u64..8), 1..200),
            ) {
                let mut cal = CalendarQueue::new();
                let mut heap: BinaryHeap<Reverse<OrderKey>> = BinaryHeap::new();
                for &(sel, delta, pid, gen) in &ops {
                    if sel < 5 {
                        let time = if sel < 4 { u64::MAX - delta } else { delta };
                        let key = OrderKey {
                            time: SimTime(time),
                            pid: Pid(pid),
                            gen,
                        };
                        cal.push(key);
                        heap.push(Reverse(key));
                    } else {
                        prop_assert_eq!(cal.peek_min(), heap.peek().map(|r| r.0));
                        prop_assert_eq!(cal.pop_min(), heap.pop().map(|r| r.0));
                    }
                }
                while let Some(expect) = heap.pop() {
                    prop_assert_eq!(cal.pop_min(), Some(expect.0));
                }
                prop_assert!(cal.is_empty());
            }
        }
    }
}
