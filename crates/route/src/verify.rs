//! Routing verification: the paper's Section 3.2 criteria (4) — loop
//! freedom, fault tolerance (reachability) and deadlock freedom — checked
//! explicitly on any [`Routes`].

use crate::cdg::{chain_of, Cdg};
use crate::engines::walk_lft;
use crate::lft::{DirLink, RouteError, Routes};
use crate::pathdb::PathDb;
use hxtopo::Topology;

/// Aggregate path statistics from a full verification sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Verified (source node, destination LID) pairs (excluding self-sends).
    pub pairs: usize,
    /// Maximum inter-switch hops over all pairs.
    pub max_isl_hops: usize,
    /// Mean inter-switch hops.
    pub avg_isl_hops: f64,
    /// Histogram of ISL hop counts (index = hops).
    pub hist: Vec<usize>,
}

/// Walks every (source node, destination LID) pair through the LFTs,
/// verifying reachability and loop freedom, and collecting hop statistics.
///
/// Implemented as a [`PathDb`] build-and-discard: the extraction walk *is*
/// the verification pass, so this can never disagree with what consumers
/// resolve from the shared store.
pub fn verify_paths(topo: &Topology, routes: &Routes) -> Result<PathStats, RouteError> {
    Ok(PathDb::build(topo, routes, 0, 1)?.stats())
}

/// Rebuilds the channel dependency graph of every virtual lane from the
/// actual forwarding state and SL table, and checks each for acyclicity
/// (Dally & Seitz). Returns the number of VLs populated.
///
/// The edges go in unchecked ([`Cdg::add_chain`]) and Kahn's algorithm
/// ([`Cdg::is_acyclic`]) decides, so this check shares no cycle logic with
/// the online order the layering ([`Cdg::try_add_chain`]) relies on.
pub fn verify_deadlock_free(topo: &Topology, routes: &Routes) -> Result<u8, RouteError> {
    let channels = topo.num_links() * 2;
    let mut cdgs: Vec<Cdg> = (0..routes.num_vls.max(1))
        .map(|_| Cdg::new(channels))
        .collect();
    let mut hops: Vec<DirLink> = Vec::new();
    for src_sw in topo.switches() {
        if topo.attached_nodes(src_sw).next().is_none() {
            continue;
        }
        for (lid, owner) in routes.lid_map.lids() {
            let (dsw, _) = topo.node_switch(owner);
            if dsw == src_sw {
                continue;
            }
            hops.clear();
            walk_lft(topo, routes, src_sw, lid, |dl| hops.push(dl))?;
            let vl = routes.sl(src_sw, lid) as usize;
            if vl >= cdgs.len() {
                cdgs.resize_with(vl + 1, || Cdg::new(channels));
            }
            cdgs[vl].add_chain(&chain_of(&hops));
        }
    }
    for (vl, cdg) in cdgs.iter().enumerate() {
        if !cdg.is_acyclic() {
            // Reuse VlOverflow to signal the failing layer in a typed way.
            return Err(RouteError::VlOverflow {
                required: vl as u8 + 1,
                available: 0,
            });
        }
    }
    Ok(cdgs
        .iter()
        .enumerate()
        .rev()
        .find(|(_, c)| c.num_edges() > 0)
        .map(|(i, _)| i as u8 + 1)
        .unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{MinHop, RoutingEngine};
    use crate::lid::{LidMap, LidPolicy};
    use hxtopo::hyperx::HyperXConfig;
    use hxtopo::{LinkClass, NodeId, SwitchId, TopologyBuilder};

    #[test]
    fn stats_on_small_hyperx() {
        let t = HyperXConfig::new(vec![3, 3], 2).build();
        let r = MinHop::default().route(&t).unwrap();
        let s = verify_paths(&t, &r).unwrap();
        assert_eq!(s.pairs, 18 * 17);
        assert!(s.max_isl_hops <= 2);
        assert_eq!(s.hist.iter().sum::<usize>(), s.pairs);
        assert!(s.avg_isl_hops > 0.0);
    }

    #[test]
    fn deadlock_check_flags_cyclic_triangle() {
        // Hand-build the paper's Section 3.2 triangle counter-example:
        // A sends to C via B, and B sends to A via C, and C sends to B via A
        // => three-way dependency cycle on one VL.
        let mut b = TopologyBuilder::new("tri", 3);
        for i in 0..3u32 {
            b.attach_node(SwitchId(i));
        }
        let ab = b.link_switches(SwitchId(0), SwitchId(1), LinkClass::Aoc);
        let bc = b.link_switches(SwitchId(1), SwitchId(2), LinkClass::Aoc);
        let ca = b.link_switches(SwitchId(2), SwitchId(0), LinkClass::Aoc);
        let t = b.build();
        let m = LidMap::new(&t, 0, LidPolicy::Sequential);
        let mut r = crate::lft::Routes::new(&t, m, "manual");
        let term = |n: u32| t.node_switch(NodeId(n)).1;
        // lid of node i = i+1. Route every destination the "long way round".
        // dest n2 (lid 3): A -> B -> C.
        r.set(SwitchId(0), 3, ab);
        r.set(SwitchId(1), 3, bc);
        r.set(SwitchId(2), 3, term(2));
        // dest n0 (lid 1): B -> C -> A.
        r.set(SwitchId(1), 1, bc);
        r.set(SwitchId(2), 1, ca);
        r.set(SwitchId(0), 1, term(0));
        // dest n1 (lid 2): C -> A -> B.
        r.set(SwitchId(2), 2, ca);
        r.set(SwitchId(0), 2, ab);
        r.set(SwitchId(1), 2, term(1));
        assert!(verify_paths(&t, &r).is_ok(), "paths are loop-free");
        assert!(
            verify_deadlock_free(&t, &r).is_err(),
            "cyclic credit dependency must be detected"
        );
    }

    #[test]
    fn verify_reports_missing_routes() {
        let t = HyperXConfig::new(vec![2, 2], 1).build();
        let m = LidMap::new(&t, 0, LidPolicy::Sequential);
        let r = crate::lft::Routes::new(&t, m, "empty");
        assert!(matches!(
            verify_paths(&t, &r),
            Err(RouteError::NoRoute { .. })
        ));
    }
}
