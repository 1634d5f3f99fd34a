//! The pre-order-maintenance VL layering, kept as the test oracle that
//! [`crate::cdg::Cdg`]'s online topological order is pinned against: a
//! `HashSet`-deduplicated CDG whose cycle check runs one DFS per new edge
//! over the whole graph, and the layering loop as it ran on it.

use crate::cdg::chain_of;
use crate::engines::walk_lft;
use crate::lft::{DirLink, RouteError, Routes};
use crate::lid::Lid;
use hxtopo::{NodeId, SwitchId, Topology};
use std::collections::HashSet;

/// DFS-checked CDG.
#[derive(Debug, Clone)]
pub(crate) struct DfsCdg {
    adj: Vec<Vec<u32>>,
    edges: HashSet<(u32, u32)>,
}

impl DfsCdg {
    pub(crate) fn new(num_channels: usize) -> DfsCdg {
        DfsCdg {
            adj: vec![Vec::new(); num_channels],
            edges: HashSet::new(),
        }
    }

    fn has_edge(&self, a: u32, b: u32) -> bool {
        self.edges.contains(&(a, b))
    }

    /// Is `target` reachable from `from` over existing edges plus the
    /// overlay edges?
    fn reaches(&self, from: u32, target: u32, overlay: &[(u32, u32)]) -> bool {
        if from == target {
            return true;
        }
        let mut seen = HashSet::from([from]);
        let mut stack = vec![from];
        while let Some(c) = stack.pop() {
            let overlay_next = overlay.iter().filter(|&&(a, _)| a == c).map(|&(_, b)| b);
            for nxt in self.adj[c as usize].iter().copied().chain(overlay_next) {
                if nxt == target {
                    return true;
                }
                if seen.insert(nxt) {
                    stack.push(nxt);
                }
            }
        }
        false
    }

    /// Would adding the chain's new edges close a cycle? Adding edge
    /// `(a, b)` does iff `a` is reachable from `b` over the existing
    /// edges plus all of the chain's other new edges.
    pub(crate) fn would_cycle(&self, chain: &[(DirLink, DirLink)]) -> bool {
        let new_edges: Vec<(u32, u32)> = chain
            .iter()
            .map(|&(a, b)| (a.index() as u32, b.index() as u32))
            .filter(|&(a, b)| !self.has_edge(a, b))
            .collect();
        new_edges
            .iter()
            .any(|&(a, b)| self.reaches(b, a, &new_edges))
    }

    pub(crate) fn add_chain(&mut self, chain: &[(DirLink, DirLink)]) {
        for &(a, b) in chain {
            let (a, b) = (a.index() as u32, b.index() as u32);
            if self.edges.insert((a, b)) {
                self.adj[a as usize].push(b);
            }
        }
    }

    /// Sorted edge list.
    pub(crate) fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut e: Vec<_> = self.edges.iter().copied().collect();
        e.sort_unstable();
        e
    }
}

/// The VL layering as it ran on [`DfsCdg`]: every `(source switch,
/// destination LID)` path goes to the lowest lane whose CDG stays
/// acyclic, opening a new lane when none does.
pub(crate) fn assign_vls(
    topo: &Topology,
    routes: &mut Routes,
    max_vls: u8,
) -> Result<u8, RouteError> {
    let channels = topo.num_links() * 2;
    let mut cdgs = vec![DfsCdg::new(channels)];
    let src_switches: Vec<SwitchId> = topo
        .switches()
        .filter(|&s| topo.attached_nodes(s).next().is_some())
        .collect();
    let dests: Vec<(Lid, NodeId)> = routes.lid_map.lids().collect();
    let mut hops: Vec<DirLink> = Vec::new();
    for &(lid, dst) in &dests {
        let (dsw, _) = topo.node_switch(dst);
        for &ssw in &src_switches {
            if ssw == dsw {
                continue;
            }
            hops.clear();
            walk_lft(topo, routes, ssw, lid, |dl| hops.push(dl))?;
            let chain = chain_of(&hops);
            if chain.is_empty() {
                continue;
            }
            let vl = match cdgs.iter().position(|c| !c.would_cycle(&chain)) {
                Some(vl) => vl,
                None if cdgs.len() < max_vls as usize => {
                    cdgs.push(DfsCdg::new(channels));
                    cdgs.len() - 1
                }
                None => {
                    return Err(RouteError::VlOverflow {
                        required: cdgs.len() as u8 + 1,
                        available: max_vls,
                    })
                }
            };
            cdgs[vl].add_chain(&chain);
            *routes.sl_entry_mut(ssw, lid) = vl as u8;
        }
    }
    routes.num_vls = cdgs.len() as u8;
    Ok(routes.num_vls)
}
