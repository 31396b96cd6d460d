//! Per-node in-flight request mix, maintained in O(1) per request.
//!
//! The cluster bumps a counter on every dispatch and completion (or
//! drain); at each monitor tick the profiler reads a node's mix as the
//! feature vector of its attribution observation. Counts use the
//! deterministic [`FxHashMap`] and snapshots are sorted by URL id, so a
//! replay under a fixed seed reproduces observations bit-identically.

use netsim::request::UrlId;
use simcore::FxHashMap;

/// Per-node counters of in-flight requests by URL.
#[derive(Debug, Clone)]
pub struct MixTracker {
    nodes: Vec<FxHashMap<UrlId, u32>>,
}

impl MixTracker {
    /// Tracker over `nodes` servers, all initially empty.
    pub fn new(nodes: usize) -> Self {
        MixTracker {
            nodes: vec![FxHashMap::default(); nodes],
        }
    }

    /// A request for `url` was accepted by `node`.
    pub fn add(&mut self, node: usize, url: UrlId) {
        *self.nodes[node].entry(url).or_insert(0) += 1;
    }

    /// A request for `url` left `node` (completion, crash drain, or
    /// breaker-outage drain). Removing an untracked URL is a no-op so
    /// drains that race a reset stay safe.
    pub fn remove(&mut self, node: usize, url: UrlId) {
        if let Some(c) = self.nodes[node].get_mut(&url) {
            *c -= 1;
            if *c == 0 {
                self.nodes[node].remove(&url);
            }
        }
    }

    /// Forget everything resident on `node` (node replaced on reboot).
    pub fn clear_node(&mut self, node: usize) {
        self.nodes[node].clear();
    }

    /// Total in-flight requests tracked on `node`.
    #[cfg(test)]
    pub(crate) fn inflight(&self, node: usize) -> u32 {
        self.nodes[node].values().sum()
    }

    /// Snapshot of `node`'s mix as `(url, count)` into `out` (replacing
    /// its contents), sorted by URL id for deterministic downstream
    /// iteration.
    pub fn mix_into(&self, node: usize, out: &mut Vec<(UrlId, u32)>) {
        out.clear();
        out.extend(self.nodes[node].iter().map(|(&u, &c)| (u, c)));
        out.sort_unstable_by_key(|&(u, _)| u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MixTracker {
        fn mix_of(&self, node: usize) -> Vec<(UrlId, u32)> {
            let mut v = Vec::new();
            self.mix_into(node, &mut v);
            v
        }
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut m = MixTracker::new(2);
        m.add(0, UrlId(3));
        m.add(0, UrlId(3));
        m.add(0, UrlId(7));
        m.add(1, UrlId(3));
        assert_eq!(m.inflight(0), 3);
        assert_eq!(m.mix_of(0), vec![(UrlId(3), 2), (UrlId(7), 1)]);
        m.remove(0, UrlId(3));
        assert_eq!(m.mix_of(0), vec![(UrlId(3), 1), (UrlId(7), 1)]);
        m.remove(0, UrlId(3));
        m.remove(0, UrlId(7));
        assert!(m.mix_of(0).is_empty());
        // Node 1 untouched.
        assert_eq!(m.inflight(1), 1);
    }

    #[test]
    fn remove_of_untracked_url_is_a_noop() {
        let mut m = MixTracker::new(1);
        m.remove(0, UrlId(9));
        assert_eq!(m.inflight(0), 0);
    }

    #[test]
    fn clear_node_forgets_residents() {
        let mut m = MixTracker::new(1);
        m.add(0, UrlId(1));
        m.add(0, UrlId(2));
        m.clear_node(0);
        assert!(m.mix_of(0).is_empty());
    }

    #[test]
    fn snapshot_is_sorted() {
        let mut m = MixTracker::new(1);
        for u in [9u16, 1, 5, 3] {
            m.add(0, UrlId(u));
        }
        let urls: Vec<u16> = m.mix_of(0).iter().map(|&(u, _)| u.0).collect();
        assert_eq!(urls, vec![1, 3, 5, 9]);
    }
}
