//! Channel dependency graph (CDG) and virtual-lane layering.
//!
//! Dally & Seitz: a set of routes is deadlock-free iff the channel
//! dependency graph — nodes are directed channels, an edge `c1 -> c2` exists
//! when some packet may hold `c1` while requesting `c2` — is acyclic.
//! DFSSSP (and PARX on top of it) achieves deadlock freedom by partitioning
//! the source-destination paths into virtual lanes such that each lane's CDG
//! stays acyclic (paper Algorithm 1, last loop).
//!
//! The layering asks one question per (path, lane): does the lane's CDG
//! stay acyclic with this path's dependency chain added? [`Cdg`] answers it
//! online with the Pearce–Kelly dynamic topological order (DESIGN.md §16):
//! it keeps every channel at a position `ord[c]` such that each edge points
//! forward, so an edge that already points forward is free and only a
//! back-edge searches — and then only the channels whose positions lie
//! between its endpoints.

use crate::lft::DirLink;

/// One virtual lane's channel dependency graph over the directed channels of
/// a topology. Channels are identified by [`DirLink::index`].
#[derive(Debug, Clone)]
pub struct Cdg {
    /// `adj[c]`: the channels `c` depends on. Its length is bounded by the
    /// radix of `c`'s head switch, so edge dedup scans it.
    adj: Vec<Vec<u32>>,
    /// `radj[c]`: the channels depending on `c` (reverse adjacency).
    radj: Vec<Vec<u32>>,
    /// `ord[c]`: the position of `c` in a topological order of the graph —
    /// a permutation of `0..n` with `ord[a] < ord[b]` for every edge.
    ord: Vec<u32>,
    /// Whether `ord` is still a topological order; [`Cdg::add_chain`] adds
    /// edges without maintaining it.
    ordered: bool,
    edges: usize,
    /// Visit marks: `seen[c] == stamp` means visited by the current search.
    seen: Vec<u32>,
    stamp: u32,
    /// Search scratch: DFS stack, the forward set (reachable from the new
    /// edge's head), the backward set (reaching its tail), freed positions.
    stack: Vec<u32>,
    fwd: Vec<u32>,
    bwd: Vec<u32>,
    slots: Vec<u32>,
    /// Edges inserted by the running [`Cdg::try_add_chain`], for rollback.
    added: Vec<(u32, u32)>,
}

impl Cdg {
    /// Empty CDG over `num_channels` directed channels.
    pub fn new(num_channels: usize) -> Cdg {
        Cdg {
            adj: vec![Vec::new(); num_channels],
            radj: vec![Vec::new(); num_channels],
            ord: (0..num_channels as u32).collect(),
            ordered: true,
            edges: 0,
            seen: vec![0; num_channels],
            stamp: 0,
            stack: Vec::new(),
            fwd: Vec::new(),
            bwd: Vec::new(),
            slots: Vec::new(),
            added: Vec::new(),
        }
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Whether the dependency edge already exists.
    #[inline]
    pub fn has_edge(&self, a: DirLink, b: DirLink) -> bool {
        self.adj[a.index()].contains(&(b.index() as u32))
    }

    /// Adds a path's dependency chain if the CDG stays acyclic with all of
    /// its new edges, and reports whether it did. On `false` the CDG is
    /// exactly as before the call.
    ///
    /// `chain` is the path's consecutive channel pairs. The new edges go in
    /// one at a time; when one would close a cycle, the ones already
    /// inserted are removed again. The order needs no undo: a topological
    /// order of the larger graph is one of the smaller graph too.
    pub fn try_add_chain(&mut self, chain: &[(DirLink, DirLink)]) -> bool {
        assert!(
            self.ordered,
            "try_add_chain on a CDG built with the unchecked add_chain"
        );
        self.added.clear();
        for &(a, b) in chain {
            let (a, b) = (a.index() as u32, b.index() as u32);
            if self.adj[a as usize].contains(&b) {
                continue;
            }
            if !self.insert_ordered(a, b) {
                // Every edge this call inserted sits at the end of its two
                // lists, so popping in reverse order removes exactly them.
                while let Some((a, b)) = self.added.pop() {
                    let head = self.adj[a as usize].pop();
                    let tail = self.radj[b as usize].pop();
                    debug_assert_eq!((head, tail), (Some(b), Some(a)));
                    self.edges -= 1;
                }
                return false;
            }
            self.added.push((a, b));
        }
        true
    }

    /// Inserts the new edge `a -> b` and restores the topological order, or
    /// returns `false` (graph untouched) when `b` already reaches `a`.
    fn insert_ordered(&mut self, a: u32, b: u32) -> bool {
        let (lb, ub) = (self.ord[b as usize], self.ord[a as usize]);
        if lb == ub {
            return false; // self-loop
        }
        if lb < ub {
            // A back-edge: any path b ~> a lies inside the window [lb, ub].
            self.next_stamp();
            if !self.search_forward(b, ub) {
                return false;
            }
            self.search_backward(a, lb);
            self.reorder();
        }
        self.adj[a as usize].push(b);
        self.radj[b as usize].push(a);
        self.edges += 1;
        true
    }

    fn next_stamp(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
    }

    /// Collects into `fwd` the channels reachable from `from` at positions
    /// below `ub`; `false` when the channel at `ub` itself is reachable.
    fn search_forward(&mut self, from: u32, ub: u32) -> bool {
        self.fwd.clear();
        self.stack.clear();
        self.seen[from as usize] = self.stamp;
        self.stack.push(from);
        while let Some(c) = self.stack.pop() {
            self.fwd.push(c);
            for &n in &self.adj[c as usize] {
                let o = self.ord[n as usize];
                if o == ub {
                    return false;
                }
                if o < ub && self.seen[n as usize] != self.stamp {
                    self.seen[n as usize] = self.stamp;
                    self.stack.push(n);
                }
            }
        }
        true
    }

    /// Collects into `bwd` the channels reaching `from` at positions above
    /// `lb`. Disjoint from `fwd` when no cycle was found.
    fn search_backward(&mut self, from: u32, lb: u32) {
        self.bwd.clear();
        self.stack.clear();
        self.seen[from as usize] = self.stamp;
        self.stack.push(from);
        while let Some(c) = self.stack.pop() {
            self.bwd.push(c);
            for &n in &self.radj[c as usize] {
                if self.ord[n as usize] > lb && self.seen[n as usize] != self.stamp {
                    self.seen[n as usize] = self.stamp;
                    self.stack.push(n);
                }
            }
        }
    }

    /// Pearce–Kelly reorder: the backward set, then the forward set, each in
    /// its old relative order, take over the union of their positions.
    fn reorder(&mut self) {
        let ord = &mut self.ord;
        self.bwd.sort_unstable_by_key(|&c| ord[c as usize]);
        self.fwd.sort_unstable_by_key(|&c| ord[c as usize]);
        self.slots.clear();
        self.slots
            .extend(self.bwd.iter().chain(&self.fwd).map(|&c| ord[c as usize]));
        self.slots.sort_unstable();
        for (&c, &slot) in self.bwd.iter().chain(&self.fwd).zip(&self.slots) {
            ord[c as usize] = slot;
        }
    }

    /// Adds a path's dependency chain with no cycle check — the
    /// verification side, which rebuilds a CDG from forwarding state and
    /// then asks [`Cdg::is_acyclic`]. A CDG filled this way no longer
    /// accepts [`Cdg::try_add_chain`].
    pub fn add_chain(&mut self, chain: &[(DirLink, DirLink)]) {
        self.ordered = false;
        for &(a, b) in chain {
            let (a, b) = (a.index() as u32, b.index() as u32);
            if !self.adj[a as usize].contains(&b) {
                self.adj[a as usize].push(b);
                self.radj[b as usize].push(a);
                self.edges += 1;
            }
        }
    }

    /// Kahn's algorithm acyclicity check over the whole CDG — independent
    /// of the order [`Cdg::try_add_chain`] maintains.
    pub fn is_acyclic(&self) -> bool {
        let n = self.adj.len();
        let mut indeg = vec![0u32; n];
        for outs in &self.adj {
            for &b in outs {
                indeg[b as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&c| indeg[c as usize] == 0).collect();
        let mut removed = 0usize;
        while let Some(c) = queue.pop() {
            removed += 1;
            for &b in &self.adj[c as usize] {
                indeg[b as usize] -= 1;
                if indeg[b as usize] == 0 {
                    queue.push(b);
                }
            }
        }
        removed == n
    }
}

/// Converts a sequence of directed ISL hops into its dependency chain.
pub fn chain_of(hops: &[DirLink]) -> Vec<(DirLink, DirLink)> {
    hops.windows(2).map(|w| (w[0], w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg_oracle::DfsCdg;
    use hxtopo::LinkId;
    use proptest::prelude::*;

    fn dl(i: u32) -> DirLink {
        DirLink::new(LinkId(i), true)
    }

    impl Cdg {
        fn edge_list(&self) -> Vec<(u32, u32)> {
            let mut e: Vec<(u32, u32)> = (0..self.adj.len() as u32)
                .flat_map(|a| self.adj[a as usize].iter().map(move |&b| (a, b)))
                .collect();
            e.sort_unstable();
            e
        }

        /// Every edge points forward in `ord`, `ord` is a permutation, and
        /// the reverse adjacency mirrors the forward one.
        fn order_is_topological(&self) -> bool {
            let mut pos = self.ord.clone();
            pos.sort_unstable();
            let radj_edges = {
                let mut e: Vec<(u32, u32)> = (0..self.radj.len() as u32)
                    .flat_map(|b| self.radj[b as usize].iter().map(move |&a| (a, b)))
                    .collect();
                e.sort_unstable();
                e
            };
            pos.iter().enumerate().all(|(i, &p)| p == i as u32)
                && radj_edges == self.edge_list()
                && self
                    .edge_list()
                    .iter()
                    .all(|&(a, b)| self.ord[a as usize] < self.ord[b as usize])
        }
    }

    #[test]
    fn empty_cdg_is_acyclic() {
        let c = Cdg::new(10);
        assert!(c.is_acyclic());
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn chain_addition_and_dedup() {
        let mut c = Cdg::new(20);
        let chain = chain_of(&[dl(0), dl(1), dl(2)]);
        assert_eq!(chain.len(), 2);
        assert!(c.try_add_chain(&chain));
        assert_eq!(c.num_edges(), 2);
        assert!(c.try_add_chain(&chain)); // idempotent
        assert_eq!(c.num_edges(), 2);
        assert!(c.has_edge(dl(0), dl(1)));
        assert!(c.is_acyclic());
    }

    #[test]
    fn cycle_detected() {
        let mut c = Cdg::new(20);
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(1)])));
        assert!(c.try_add_chain(&chain_of(&[dl(1), dl(2)])));
        // 2 -> 0 closes the cycle.
        assert!(!c.try_add_chain(&chain_of(&[dl(2), dl(0)])));
        // 0 -> 2 already implied transitively: no cycle.
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(2)])));
        assert_eq!(c.num_edges(), 3);
    }

    #[test]
    fn back_edge_reorders_instead_of_rejecting() {
        // Channel 5 starts after 1 in the initial order; 5 -> 1 is a
        // back-edge that closes no cycle and must be accepted.
        let mut c = Cdg::new(12);
        assert!(c.try_add_chain(&chain_of(&[dl(0), dl(1)])));
        assert!(c.try_add_chain(&[(dl(5), dl(0))]));
        assert!(c.order_is_topological());
        assert!(!c.try_add_chain(&[(dl(1), dl(5))]));
    }

    #[test]
    fn self_cycle_within_one_chain() {
        let mut c = Cdg::new(20);
        // A chain that revisits a channel: a -> b -> a is a cycle by itself.
        assert!(!c.try_add_chain(&[(dl(0), dl(1)), (dl(1), dl(0))]));
        assert_eq!(c.num_edges(), 0, "rejected chain rolled back");
        assert!(!c.try_add_chain(&[(dl(3), dl(3))]));
    }

    #[test]
    fn rejected_chain_leaves_no_edges_behind() {
        let mut c = Cdg::new(10);
        assert!(c.try_add_chain(&[(dl(0), dl(1))]));
        // The first two edges are fine alone; the third closes 1 -> 2 -> 0 -> 1.
        let chain = [(dl(1), dl(2)), (dl(3), dl(4)), (dl(2), dl(0))];
        assert!(!c.try_add_chain(&chain));
        assert_eq!(c.edge_list(), vec![(0, 2)]);
        assert!(c.order_is_topological());
    }

    #[test]
    fn triangle_credit_loop() {
        // The paper's Section 3.2 triangle example: routing A->C via B while
        // B->C via A creates the dependency cycle the paper warns about.
        let mut c = Cdg::new(10);
        assert!(c.try_add_chain(&[(dl(0), dl(1))])); // A->B->C
        assert!(!c.try_add_chain(&[(dl(1), dl(0))]));
        assert!(c.is_acyclic());
    }

    #[test]
    fn kahn_detects_added_cycle() {
        let mut c = Cdg::new(5);
        // The unchecked insert lets the cycle in.
        c.add_chain(&[(dl(0), dl(1))]);
        c.add_chain(&[(dl(1), dl(0))]);
        assert!(!c.is_acyclic());
    }

    #[test]
    #[should_panic(expected = "unchecked add_chain")]
    fn checked_insert_refused_after_unchecked_one() {
        let mut c = Cdg::new(5);
        c.add_chain(&[(dl(0), dl(1))]);
        c.try_add_chain(&[(dl(1), dl(2))]);
    }

    #[test]
    fn chain_of_short_paths() {
        assert!(chain_of(&[dl(0)]).is_empty());
        assert!(chain_of(&[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The online order makes the DFS oracle's decision on every chain
        /// — random channel counts, chains with repeated edges and
        /// self-loops — and both end with the same edge set.
        #[test]
        fn online_order_matches_dfs_oracle(
            n in 1u32..40,
            chains in proptest::collection::vec(
                proptest::collection::vec((0u32..40, 0u32..40), 1..7),
                1..120,
            ),
        ) {
            let mut fast = Cdg::new(n as usize);
            let mut slow = DfsCdg::new(n as usize);
            for (step, raw) in chains.iter().enumerate() {
                let chain: Vec<(DirLink, DirLink)> = raw
                    .iter()
                    .map(|&(a, b)| (DirLink::from_index((a % n) as usize), DirLink::from_index((b % n) as usize)))
                    .collect();
                let accept = !slow.would_cycle(&chain);
                if accept {
                    slow.add_chain(&chain);
                }
                prop_assert_eq!(fast.try_add_chain(&chain), accept, "step {}: {:?}", step, chain);
                prop_assert!(fast.order_is_topological(), "step {}", step);
            }
            prop_assert_eq!(fast.edge_list(), slow.edge_list());
            prop_assert_eq!(fast.num_edges(), slow.edge_list().len());
            prop_assert!(fast.is_acyclic());
        }
    }
}
