//! A shard's pending completions: at most one per node, in an indexed
//! binary min-heap ordered by `(time, seq)`.
//!
//! A node's queue re-predicts its next completion after every state
//! change. An event heap that only ever pushes keeps every superseded
//! prediction until it surfaces and is thrown away; here the node's one
//! entry moves in place instead. Per node the only fixed cost is its
//! heap position (one `u32`). Keys and payloads live inline in the
//! entries, so the heap's size follows the number of busy nodes, not the
//! node count.

use simcore::SimTime;

/// A node's position when it has no entry.
const ABSENT: u32 = u32::MAX;

/// One node's pending event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Pending<T> {
    pub(super) time: SimTime,
    /// The shard's insertion-stable tie-breaker: the order is total.
    pub(super) seq: u64,
    /// Shard-local node index.
    pub(super) node: u32,
    pub(super) payload: T,
}

impl<T> Pending<T> {
    /// The heap order.
    pub(super) fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// At most one [`Pending`] entry per node, earliest `(time, seq)` first.
#[derive(Debug)]
pub(super) struct PerNodeHeap<T> {
    heap: Vec<Pending<T>>,
    /// Per node: its entry's index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl<T: Copy> PerNodeHeap<T> {
    /// An empty heap over `nodes` nodes.
    pub(super) fn new(nodes: usize) -> Self {
        assert!(nodes < ABSENT as usize, "node indices are u32");
        PerNodeHeap {
            heap: Vec::new(),
            pos: vec![ABSENT; nodes],
        }
    }

    /// The earliest entry.
    pub(super) fn peek(&self) -> Option<&Pending<T>> {
        self.heap.first()
    }

    /// `node`'s entry, if it has one.
    pub(super) fn get(&self, node: usize) -> Option<&Pending<T>> {
        match self.pos[node] {
            ABSENT => None,
            i => Some(&self.heap[i as usize]),
        }
    }

    /// Give `entry.node` this entry, moving any it had in place.
    pub(super) fn set(&mut self, entry: Pending<T>) {
        match self.pos[entry.node as usize] {
            ABSENT => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let i = i as usize;
                let earlier = entry.key() < self.heap[i].key();
                self.heap[i] = entry;
                if earlier {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Remove and return `node`'s entry.
    pub(super) fn remove(&mut self, node: usize) -> Option<Pending<T>> {
        let i = match self.pos[node] {
            ABSENT => return None,
            i => i as usize,
        };
        self.pos[node] = ABSENT;
        let last = self.heap.pop().expect("a present node has an entry");
        if i == self.heap.len() {
            return Some(last);
        }
        let gone = std::mem::replace(&mut self.heap[i], last);
        if last.key() < gone.key() {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        Some(gone)
    }

    /// Remove and return the earliest entry.
    #[cfg(test)]
    pub(super) fn pop(&mut self) -> Option<Pending<T>> {
        let node = self.heap.first()?.node as usize;
        self.remove(node)
    }

    /// Drop every entry.
    pub(super) fn clear(&mut self) {
        for e in self.heap.drain(..) {
            self.pos[e.node as usize] = ABSENT;
        }
    }

    /// Entries held.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Write `entry` at index `i` and record its position.
    #[inline]
    fn place(&mut self, i: usize, entry: Pending<T>) {
        self.pos[entry.node as usize] = i as u32;
        self.heap[i] = entry;
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].key() < self.heap[left].key() {
                right
            } else {
                left
            };
            if self.heap[child].key() >= entry.key() {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    /// Check the heap order, and that positions and entries match one to
    /// one — so no node holds two entries.
    #[cfg(test)]
    pub(super) fn assert_consistent(&self) {
        for (i, e) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[e.node as usize], i as u32, "entry {i} misplaced");
            if i > 0 {
                assert!(self.heap[(i - 1) / 2].key() <= e.key(), "heap order broken at {i}");
            }
        }
        let present = self.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(present, self.heap.len(), "a node holds more than one entry");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The discipline the indexed heap replaces: push every prediction,
    /// remember each node's latest, and discard superseded entries as
    /// they surface.
    struct LazyHeap {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32, u64)>>,
        live: Vec<Option<(SimTime, u64)>>,
    }

    impl LazyHeap {
        fn set(&mut self, e: Pending<u64>) {
            self.heap.push(Reverse((e.time, e.seq, e.node, e.payload)));
            self.live[e.node as usize] = Some(e.key());
        }

        fn remove(&mut self, node: usize) {
            self.live[node] = None;
        }

        fn pop(&mut self) -> Option<Pending<u64>> {
            while let Some(Reverse((time, seq, node, payload))) = self.heap.pop() {
                if self.live[node as usize] == Some((time, seq)) {
                    self.live[node as usize] = None;
                    return Some(Pending { time, seq, node, payload });
                }
            }
            None
        }

        fn clear(&mut self) {
            self.heap.clear();
            self.live.fill(None);
        }

        fn len(&self) -> usize {
            self.live.iter().filter(|l| l.is_some()).count()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Predict `node`'s completion at `time` (a re-prediction when it
        /// already has one).
        Set { node: usize, time: u64 },
        Remove { node: usize },
        Pop,
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => (0usize..12, 0u64..40).prop_map(|(node, time)| Op::Set { node, time }),
            2 => (0usize..12).prop_map(|node| Op::Remove { node }),
            5 => (0u8..1).prop_map(|_| Op::Pop),
            1 => (0u8..1).prop_map(|_| Op::Clear),
        ]
    }

    proptest! {
        /// Against the lazy-deletion reference, over random set /
        /// re-predict / remove / pop / clear sequences: the same entries
        /// pop in the same `(time, seq)` order, and no node ever holds
        /// more than one entry. Times are drawn from a narrow range so
        /// ties, broken by seq, are common.
        #[test]
        fn prop_matches_lazy_deletion_heap(ops in proptest::collection::vec(op(), 1..300)) {
            let mut heap = PerNodeHeap::new(12);
            let mut lazy = LazyHeap { heap: BinaryHeap::new(), live: vec![None; 12] };
            let mut seq = 0u64;
            for op in &ops {
                match *op {
                    Op::Set { node, time } => {
                        seq += 1;
                        let e = Pending {
                            time: SimTime::from_micros(time),
                            seq,
                            node: node as u32,
                            payload: seq * 7,
                        };
                        heap.set(e);
                        lazy.set(e);
                        prop_assert_eq!(heap.get(node), Some(&e));
                    }
                    Op::Remove { node } => {
                        heap.remove(node);
                        lazy.remove(node);
                        prop_assert_eq!(heap.get(node), None);
                    }
                    Op::Pop => prop_assert_eq!(heap.pop(), lazy.pop()),
                    Op::Clear => {
                        heap.clear();
                        lazy.clear();
                    }
                }
                heap.assert_consistent();
                prop_assert_eq!(heap.len(), lazy.len());
                prop_assert!(heap.len() <= 12);
            }
            while let Some(e) = lazy.pop() {
                prop_assert_eq!(heap.pop(), Some(e));
            }
            prop_assert_eq!(heap.pop(), None);
        }
    }

    #[test]
    fn repredicting_moves_the_entry_in_place() {
        let mut heap = PerNodeHeap::new(3);
        let at = |us, seq, node| Pending {
            time: SimTime::from_micros(us),
            seq,
            node,
            payload: (),
        };
        heap.set(at(10, 1, 0));
        heap.set(at(20, 2, 1));
        heap.set(at(30, 3, 2));
        // Node 2 is re-predicted earlier, node 0 later.
        heap.set(at(5, 4, 2));
        heap.set(at(25, 5, 0));
        assert_eq!(heap.len(), 3);
        heap.assert_consistent();
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.node)).collect();
        assert_eq!(order, vec![2, 1, 0]);
        assert!(heap.peek().is_none());
    }
}
