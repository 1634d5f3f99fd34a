//! PARX — Pattern-Aware Routing for HyperX (the paper's Algorithm 1 and
//! central contribution), on HyperX of any even-extent dimension.
//!
//! PARX exploits InfiniBand's LMC multi-LID feature: when routing towards a
//! node's virtual LID index `x`, it *temporarily removes* the links inside
//! one half of the HyperX. Each of the `L` dimensions gives two such
//! [`HalfRule`]s (lower or upper half), so a node owns `2L` LIDs. The
//! paper's 2-D plane is `L = 2` with rules R1–R4 of Section 3.2.1: LID0
//! removes the left half, LID1 the right, LID2 the top, LID3 the bottom.
//! Depending on the destination's quadrant, some of its LIDs therefore get
//! minimal paths and others forced detours (Figure 3), and the modified bfo
//! PML chooses among them by message size via Table 1 (the tests audit its
//! n-D generalization, which Section 3.2.1 says the scheme allows).
//!
//! Path calculation is DFSSSP's modified Dijkstra; the edge-weight updates
//! are demand-driven: for destinations listed in the ingested communication
//! profile, each source's weight contribution is its normalized demand
//! `w in 1..=255` rather than the oblivious `+1`, separating high-traffic
//! paths as much as possible (Section 3.2.3). Deadlock freedom comes from
//! the same VL layering as DFSSSP; the paper measured 5–8 VLs for its runs.
//! LIDs follow the paper's quadrant blocks where they fit (footnote 9),
//! sequential numbering otherwise.

use super::{assign_vls, install_masked_tree, walk_lft, RoutingEngine};
use crate::demand::Demand;
use crate::dijkstra::EdgeWeights;
use crate::lft::{RouteError, Routes};
use crate::lid::{LidMap, LidPolicy};
use hxtopo::{NodeId, SwitchId, Topology};

/// A half-removal rule: drop links internal to one half of one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfRule {
    /// Dimension index.
    pub dim: usize,
    /// `false` = lower half (`coord < extent/2`), `true` = upper half.
    pub upper: bool,
}

impl HalfRule {
    /// Rule encoded by LID index `x = 2*dim + upper` on a `dims`-dimensional
    /// HyperX; `None` past the `2*dims` rules (such an index carries no
    /// removal rule, and asking never aborts).
    pub fn of_lid(x: u8, dims: usize) -> Option<HalfRule> {
        ((x as usize) < 2 * dims).then_some(HalfRule {
            dim: (x / 2) as usize,
            upper: x % 2 == 1,
        })
    }

    /// LID index of this rule.
    pub fn lid(&self) -> u8 {
        (self.dim * 2) as u8 + u8::from(self.upper)
    }

    /// Whether a coordinate lies inside the removed half.
    pub fn contains(&self, coord: &[u32], shape: &[u32]) -> bool {
        let half = shape[self.dim] / 2;
        if self.upper {
            coord[self.dim] >= half
        } else {
            coord[self.dim] < half
        }
    }
}

/// PARX configuration.
#[derive(Debug, Clone, Default)]
pub struct Parx {
    /// Ingested communication profile (node-level, see [`Demand`]); `None`
    /// degrades PARX to oblivious `+1` balancing for all destinations.
    pub demand: Option<Demand>,
    /// Hardware virtual-lane limit; 0 means the QDR default of 8.
    pub max_vls: u8,
}

impl Parx {
    /// PARX with a communication profile.
    pub fn with_demand(demand: Demand) -> Parx {
        Parx {
            demand: Some(demand),
            max_vls: 8,
        }
    }

    /// Builds one link mask per half rule: `masks[x][link]` is false when
    /// routing towards LID index `x` must ignore the cable.
    fn build_masks(topo: &Topology) -> Result<Vec<Vec<bool>>, RouteError> {
        let hx = topo
            .meta
            .as_hyperx()
            .ok_or(RouteError::UnsupportedTopology(
                "PARX requires a HyperX topology",
            ))?;
        if hx.shape.iter().any(|&s| s % 2 != 0) {
            return Err(RouteError::UnsupportedTopology(
                "PARX requires even extents in every dimension",
            ));
        }
        let rules: Vec<HalfRule> = (0..2 * hx.dims() as u8)
            .filter_map(|x| HalfRule::of_lid(x, hx.dims()))
            .collect();
        let mut masks = vec![vec![true; topo.num_links()]; rules.len()];
        for (id, link) in topo.links() {
            let (Some(a), Some(b)) = (link.a.switch(), link.b.switch()) else {
                continue; // terminal cables are never removed
            };
            let (ca, cb) = (hx.coord(a), hx.coord(b));
            for (mask, r) in masks.iter_mut().zip(&rules) {
                if r.contains(&ca, &hx.shape) && r.contains(&cb, &hx.shape) {
                    mask[id.idx()] = false;
                }
            }
        }
        Ok(masks)
    }
}

impl RoutingEngine for Parx {
    fn name(&self) -> &'static str {
        "parx"
    }

    fn with_demand(&self, demand: Demand) -> Option<Box<dyn RoutingEngine>> {
        Some(Box::new(Parx {
            demand: Some(demand),
            ..self.clone()
        }))
    }

    fn route(&self, topo: &Topology) -> Result<Routes, RouteError> {
        let masks = Self::build_masks(topo)?;
        let rules = masks.len() as u32;
        // LMC large enough for 2L virtual LIDs per node (2 on the paper's
        // plane).
        let lmc = (usize::BITS - (masks.len() - 1).leading_zeros()) as u8;
        let policy = if LidMap::quadrant_blocks_fit(topo, lmc) {
            LidPolicy::QuadrantBlocks
        } else {
            LidPolicy::Sequential
        };
        let mut routes = Routes::new(topo, LidMap::new(topo, lmc, policy), "parx");
        let mut weights = EdgeWeights::new(topo);
        let norm = self.demand.as_ref().map(|d| d.normalized());

        // Destination order: demand-listed nodes first (profile order), then
        // every other node — Algorithm 1's two outer loops.
        let listed: Vec<NodeId> = self
            .demand
            .as_ref()
            .map(|d| d.listed_destinations())
            .unwrap_or_default();
        let mut is_listed = vec![false; topo.num_nodes()];
        for &n in &listed {
            is_listed[n.idx()] = true;
        }
        let rest: Vec<NodeId> = topo.nodes().filter(|n| !is_listed[n.idx()]).collect();

        for &nd in listed.iter().chain(&rest) {
            let (dsw, _) = topo.node_switch(nd);
            // Who adds weight to this destination's paths: the senders of a
            // listed destination their normalized demand, everyone else +1.
            let senders: Box<dyn Iterator<Item = (NodeId, u64)>> = match &norm {
                Some(norm) if is_listed[nd.idx()] => {
                    Box::new(norm.senders_to(nd).map(|(n, w)| (n, w as u64)))
                }
                _ => Box::new(topo.nodes().map(|n| (n, 1))),
            };
            let senders: Vec<(SwitchId, u64)> = senders
                .map(|(n, w)| (topo.node_switch(n).0, w))
                .filter(|&(ssw, _)| ssw != dsw)
                .collect();
            for x in 0..rules {
                let lid = routes.lid_map.lid(nd, x);
                // Temporary graph I* with rule-x links removed.
                install_masked_tree(topo, &mut routes, &weights, &masks[x as usize], lid, nd);

                // Edge-weight update before the next round.
                for &(ssw, w) in &senders {
                    walk_lft(topo, &routes, ssw, lid, |dl| weights.add(dl, w))?;
                }
            }
            // Unused LID slots (2^lmc may exceed 2L): mirror LID0 so
            // round-robin PMLs stay functional.
            for x in rules..routes.lid_map.lids_per_node() {
                let lid0 = routes.lid_map.lid(nd, 0);
                let lid = routes.lid_map.lid(nd, x);
                for s in topo.switches() {
                    if let Some(out) = routes.get(s, lid0) {
                        routes.set(s, lid, out);
                    }
                }
            }
        }

        // Deadlock-free VL layering over all paths, including virtual LIDs.
        let max_vls = if self.max_vls == 0 { 8 } else { self.max_vls };
        assign_vls(topo, &mut routes, max_vls)?;
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::{lid_choices, SizeClass};
    use crate::verify::{verify_deadlock_free, verify_paths};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::props::bfs_dist;

    /// Valid LID indices for a source/destination coordinate pair and size
    /// class on an L-dimensional even HyperX (generalized Table 1):
    ///
    /// * **small** messages may use any LID whose rule does not confine both
    ///   endpoints (a minimal path survives: cross the rule's dimension first,
    ///   then stay outside the removed half),
    /// * **large** messages prefer LIDs whose removed half contains *both*
    ///   endpoints, forcing the Figure-3b detour; when source and destination
    ///   sit in opposite halves of every dimension no such rule exists and the
    ///   selection degrades to a minimal LID — exactly like the off-diagonal
    ///   minimal entries of Table 1b.
    fn lid_choices_nd(shape: &[u32], src: &[u32], dst: &[u32], size: SizeClass) -> Vec<u8> {
        let (detours, minimal): (Vec<u8>, Vec<u8>) = (0..2 * shape.len() as u8).partition(|&x| {
            HalfRule::of_lid(x, shape.len())
                .is_some_and(|r| r.contains(src, shape) && r.contains(dst, shape))
        });
        match size {
            SizeClass::Large if !detours.is_empty() => detours,
            _ => minimal,
        }
    }

    fn small_hx() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    #[test]
    fn parx_rejects_non_hyperx() {
        let t = hxtopo::fattree::FatTreeConfig::k_ary_n_tree(4, 2);
        assert!(matches!(
            Parx::default().route(&t),
            Err(RouteError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn parx_rejects_odd_dimensions() {
        for shape in [vec![3, 4], vec![4, 4, 3]] {
            let t = HyperXConfig::new(shape, 1).build();
            assert!(matches!(
                Parx::default().route(&t),
                Err(RouteError::UnsupportedTopology(_))
            ));
        }
    }

    #[test]
    fn half_rules_encode_r1_to_r4_and_stop_at_2l() {
        // L = 2: LID0 left, LID1 right, LID2 top, LID3 bottom.
        let r = |x| HalfRule::of_lid(x, 2).unwrap();
        assert_eq!(
            r(0),
            HalfRule {
                dim: 0,
                upper: false
            }
        );
        assert_eq!(
            r(1),
            HalfRule {
                dim: 0,
                upper: true
            }
        );
        assert_eq!(
            r(2),
            HalfRule {
                dim: 1,
                upper: false
            }
        );
        assert_eq!(
            r(3),
            HalfRule {
                dim: 1,
                upper: true
            }
        );
        for dims in 1..=3 {
            for x in 0..2 * dims as u8 {
                assert_eq!(HalfRule::of_lid(x, dims).unwrap().lid(), x);
            }
            // Indices past the rule set carry no removal and never abort.
            for x in 2 * dims as u8..=u8::MAX {
                assert_eq!(HalfRule::of_lid(x, dims), None);
            }
        }
    }

    #[test]
    fn parx_all_lids_reachable_and_deadlock_free() {
        let t = small_hx();
        let r = Parx::default().route(&t).unwrap();
        let stats = verify_paths(&t, &r).unwrap();
        // 32 nodes x 31 peers x 4 LIDs each.
        assert_eq!(stats.pairs, 32 * 31 * 4);
        let vls = verify_deadlock_free(&t, &r).unwrap();
        assert!(vls <= 8, "paper: PARX needs 5-8 VLs, got {vls}");
    }

    #[test]
    fn small_lids_give_minimal_paths_large_forced_detours() {
        // The structural heart of PARX (Figure 3 / Table 1): for every node
        // pair, the Table-1a LID yields a hop-minimal route, and for
        // same-quadrant remote pairs the Table-1b LID is strictly longer.
        let t = small_hx();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        let mut detours = 0usize;
        for src in t.nodes() {
            let (ssw, _) = t.node_switch(src);
            let min_dist = bfs_dist(&t, ssw);
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                let (dsw, _) = t.node_switch(dst);
                if ssw == dsw {
                    continue;
                }
                let (sq, dq) = (hx.quadrant(ssw).unwrap(), hx.quadrant(dsw).unwrap());
                let minimal = min_dist[dsw.idx()];
                for &x in lid_choices(sq, dq, SizeClass::Small) {
                    let p = r.path_to(&t, src, dst, x as u32).unwrap();
                    assert_eq!(
                        p.isl_hops(),
                        minimal,
                        "small {src}->{dst} via LID{x}: {sq:?}->{dq:?}"
                    );
                }
                if sq == dq {
                    for &x in lid_choices(sq, dq, SizeClass::Large) {
                        let p = r.path_to(&t, src, dst, x as u32).unwrap();
                        assert!(p.isl_hops() >= minimal, "large path shorter than minimal?");
                        if p.isl_hops() > minimal {
                            detours += 1;
                        }
                    }
                }
            }
        }
        assert!(detours > 0, "large same-quadrant traffic must detour");
    }

    #[test]
    fn parx_increases_path_diversity_between_adjacent_switches() {
        // Paper Section 3.2.1: between two switches in one half, the four
        // LIDs' paths use more distinct first cables than the single
        // minimal route.
        let t = HyperXConfig::new(vec![8, 4], 2).build();
        let hx = t.meta.as_hyperx().unwrap().clone();
        let r = Parx::default().route(&t).unwrap();
        // Nodes on switches (0,0) and (1,0): same row, both left-top (Q0).
        let s0 = hx.switch_at(&[0, 0]);
        let s1 = hx.switch_at(&[1, 0]);
        let n0 = t.attached_nodes(s0).next().unwrap().0;
        let n1 = t.attached_nodes(s1).next().unwrap().0;
        let mut first_isl = std::collections::HashSet::new();
        for x in 0..4 {
            let p = r.path_to(&t, n0, n1, x).unwrap();
            if p.isl_hops() > 0 {
                first_isl.insert(p.hops[1]);
            }
        }
        assert!(
            first_isl.len() >= 2,
            "PARX should provide disjoint alternatives, got {first_isl:?}"
        );
    }

    #[test]
    fn parx_with_demand_shifts_weights() {
        // A demand profile concentrates weight, so the resulting tables must
        // differ from the oblivious run somewhere.
        let t = small_hx();
        let oblivious = Parx::default().route(&t).unwrap();
        let mut d = Demand::new(t.num_nodes());
        // Heavy all-to-all among the first 8 nodes.
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i != j {
                    d.add(hxtopo::NodeId(i), hxtopo::NodeId(j), 1 << 20);
                }
            }
        }
        let aware = Parx::with_demand(d).route(&t).unwrap();
        verify_paths(&t, &aware).unwrap();
        verify_deadlock_free(&t, &aware).unwrap();
        let mut differs = false;
        'outer: for src in t.nodes() {
            for (lid, dst) in oblivious.lid_map.lids() {
                if dst == src {
                    continue;
                }
                // Note: LID layouts coincide (same policy), so compare paths.
                if oblivious.path(&t, src, lid).unwrap().hops
                    != aware.path(&t, src, lid).unwrap().hops
                {
                    differs = true;
                    break 'outer;
                }
            }
        }
        assert!(differs, "demand must influence routing");
    }

    #[test]
    fn parx_fault_tolerant_fallback() {
        use hxtopo::faults::{FaultCount, FaultPlan};
        let mut t = HyperXConfig::t2_hyperx(56).build();
        // Aggressive but survivable damage.
        FaultPlan {
            count: FaultCount::Absolute(40),
            class: None,
            seed: 7,
        }
        .apply(&mut t);
        let r = Parx::default().route(&t).unwrap();
        verify_paths(&t, &r).unwrap();
        verify_deadlock_free(&t, &r).unwrap();
    }

    #[test]
    fn parx_uses_quadrant_lid_blocks() {
        let t = small_hx();
        let r = Parx::default().route(&t).unwrap();
        let hx = t.meta.as_hyperx().unwrap().clone();
        for n in t.nodes() {
            let q = hx.quadrant(t.node_switch(n).0).unwrap();
            assert_eq!(r.lid_map.quadrant_of_lid(r.lid_map.base(n)), Some(q));
        }
    }

    #[test]
    fn crowded_quadrants_fall_back_to_sequential_lids() {
        // 250 nodes per quadrant need 1000 LIDs each, one too many for
        // quadrant 0's block: PARX routes with sequential LIDs instead of
        // aborting in the LID layout.
        let t = HyperXConfig::new(vec![2, 2], 250).build();
        let r = Parx::default().route(&t).unwrap();
        assert_eq!(r.lid_map.policy(), LidPolicy::Sequential);
        assert_eq!(r.lid_map.lids_per_node(), 4);
    }

    #[test]
    fn two_d_selection_supersets_table1() {
        // On a 2-D HyperX the generalized valid set must contain every
        // Table-1 choice (the paper picks a balanced subset).
        let topo = HyperXConfig::new(vec![4, 4], 1).build();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        for a in topo.switches() {
            for b in topo.switches() {
                let (ca, cb) = (hx.coord(a), hx.coord(b));
                let (qa, qb) = (hx.quadrant(a).unwrap(), hx.quadrant(b).unwrap());
                for size in [SizeClass::Small, SizeClass::Large] {
                    let nd = lid_choices_nd(&hx.shape, &ca, &cb, size);
                    for &x in lid_choices(qa, qb, size) {
                        assert!(
                            nd.contains(&x),
                            "{qa:?}->{qb:?} {size:?}: Table1 {x} not in nd {nd:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_d_routes_verify() {
        let topo = HyperXConfig::new(vec![4, 4, 2], 1).build();
        let routes = Parx::default().route(&topo).unwrap();
        // 6 rules => LMC 3 => 8 LIDs per node, all must route; the 3-D
        // fabric has no quadrants, so the LIDs are sequential.
        assert_eq!(routes.lid_map.lids_per_node(), 8);
        assert_eq!(routes.lid_map.policy(), LidPolicy::Sequential);
        verify_paths(&topo, &routes).unwrap();
        let vls = verify_deadlock_free(&topo, &routes).unwrap();
        assert!(vls <= 8, "{vls} VLs");
    }

    #[test]
    fn three_d_small_lids_minimal_large_detour() {
        let topo = HyperXConfig::new(vec![4, 4, 2], 1).build();
        let hx = topo.meta.as_hyperx().unwrap().clone();
        let routes = Parx::default().route(&topo).unwrap();
        let mut detours = 0usize;
        for src in topo.nodes() {
            let (ssw, _) = topo.node_switch(src);
            let dist = bfs_dist(&topo, ssw);
            let cs = hx.coord(ssw);
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                let (dsw, _) = topo.node_switch(dst);
                if dsw == ssw {
                    continue;
                }
                let cd = hx.coord(dsw);
                let minimal = dist[dsw.idx()];
                for &x in &lid_choices_nd(&hx.shape, &cs, &cd, SizeClass::Small) {
                    let p = routes.path_to(&topo, src, dst, x as u32).unwrap();
                    assert_eq!(p.isl_hops(), minimal, "small {src}->{dst} LID{x}");
                }
                for &x in &lid_choices_nd(&hx.shape, &cs, &cd, SizeClass::Large) {
                    let p = routes.path_to(&topo, src, dst, x as u32).unwrap();
                    assert!(p.isl_hops() >= minimal);
                    if p.isl_hops() > minimal {
                        detours += 1;
                    }
                }
            }
        }
        assert!(detours > 0, "3-D detours must exist");
    }

    #[test]
    fn one_d_hyperx_works() {
        // 1-D even HyperX: two rules, LMC 1.
        let topo = HyperXConfig::new(vec![6], 2).build();
        let routes = Parx::default().route(&topo).unwrap();
        assert_eq!(routes.lid_map.lids_per_node(), 2);
        verify_paths(&topo, &routes).unwrap();
        verify_deadlock_free(&topo, &routes).unwrap();
    }
}
