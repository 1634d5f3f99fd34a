//! Property-based multi-plane store tests: resolving through the sharded
//! [`PlaneSet`] handle must be bit-identical to resolving against each
//! plane's own monolithic [`PathDb`], over any random per-plane fault
//! sequence.

use hxroute::engines::{Dfsssp, MinHop, Parx, RoutingEngine, Sssp};
use hxroute::{Lid, PathDb, PlaneSet, SubnetManager};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{LinkClass, LinkId, Topology};
use proptest::prelude::*;
use std::sync::Arc;

fn plane_engines(k: usize) -> Vec<Box<dyn RoutingEngine>> {
    // Distinct engines per plane so shard contents genuinely differ.
    let mut v: Vec<Box<dyn RoutingEngine>> = vec![
        Box::new(Dfsssp::default()),
        Box::new(MinHop::default()),
        Box::new(Sssp::default()),
        Box::new(Parx::default()),
    ];
    v.truncate(k);
    v
}

fn active_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

/// Every `(plane, src, lid)` resolution through the shared handle equals
/// the per-plane monolithic store's answer, bitwise.
fn assert_planes_equal(set: &PlaneSet, sms: &[SubnetManager]) {
    let mut via_set = Vec::new();
    let mut via_db = Vec::new();
    for (plane, sm) in sms.iter().enumerate() {
        let topo = sm.topo();
        let routes = sm.routes().unwrap();
        let mono = PathDb::build(topo, routes, set.epoch(plane), 1).unwrap();
        for src in topo.nodes() {
            for lid in 0..routes.lid_space() as Lid {
                let a = set.node_path_into(plane, src, lid, &mut via_set);
                let b = mono.node_path_into(src, lid, &mut via_db);
                assert_eq!(a, b, "plane {plane} {src} lid {lid}: set vs mono");
                assert_eq!(via_set, via_db, "plane {plane} {src} lid {lid}");
            }
        }
    }
}

/// Drives interleaved per-plane fail/recover events, propagating each
/// plane's patched store into its shard, and checks full bitwise
/// equivalence after every event.
fn check_multi_plane_churn(k: usize, ops: &[(u8, usize)]) -> Result<(), TestCaseError> {
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let mut sms: Vec<SubnetManager> = plane_engines(k)
        .into_iter()
        .map(|engine| {
            let mut sm = SubnetManager::new(topo.clone(), engine);
            sm.verify = false;
            sm.sweep().unwrap();
            sm
        })
        .collect();
    let set = PlaneSet::new(sms.iter().map(|sm| sm.pathdb().unwrap().clone()).collect());
    prop_assert_eq!(set.num_planes(), k);

    for &(sel, idx) in ops {
        let plane = (sel as usize) % k;
        let sm = &mut sms[plane];
        let down: Vec<LinkId> = sm
            .topo()
            .links()
            .filter(|&(id, l)| l.class != LinkClass::Terminal && !sm.topo().is_active(id))
            .map(|(id, _)| id)
            .collect();
        let recover = (sel / 16) % 2 == 1 && !down.is_empty();
        if recover {
            let _ = sm.recover_link(down[idx % down.len()]);
        } else {
            let up = active_isls(sm.topo());
            if up.is_empty() {
                continue;
            }
            let _ = sm.fail_link(up[idx % up.len()]);
        }
        // Live epoch propagation: only this plane's shard moves.
        let before = set.epochs();
        set.install(plane, sm.pathdb().unwrap().clone());
        for (p, (&eb, &ea)) in before.iter().zip(set.epochs().iter()).enumerate() {
            if p != plane {
                prop_assert_eq!(eb, ea, "plane {} shard moved spuriously", p);
            }
        }
        assert_planes_equal(&set, &sms);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded resolution == per-plane monolithic resolution over random
    /// per-plane fault/recover interleavings, for 2- and 3-plane systems.
    #[test]
    fn planeset_matches_monolithic_under_churn(
        k in 2usize..4,
        ops in proptest::collection::vec((0u8..=255, 0usize..10_000), 1..5),
    ) {
        check_multi_plane_churn(k, &ops)?;
    }
}

/// A 4-plane set built in one call resolves like four independent builds.
#[test]
fn four_plane_build_matches_independent_builds() {
    let topo = HyperXConfig::new(vec![4, 4], 1).build();
    let routes: Vec<_> = plane_engines(4)
        .into_iter()
        .map(|e| e.route(&topo).unwrap())
        .collect();
    let planes: Vec<(&Topology, &hxroute::Routes)> = routes.iter().map(|r| (&topo, r)).collect();
    let set = PlaneSet::build(&planes, 7, 0).unwrap();
    assert_eq!(set.num_planes(), 4);
    assert_eq!(set.epochs(), vec![7, 7, 7, 7]);
    for (p, r) in routes.iter().enumerate() {
        let solo = Arc::new(PathDb::build(&topo, r, 7, 1).unwrap());
        assert!(set.shard(p).content_eq(&solo));
    }
}
