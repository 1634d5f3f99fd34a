//! Fail-in-place repair with deadlock verification on.
//!
//! A repaired destination tree keeps its old service levels, which can
//! close a cycle in a lane's channel dependency graph. The subnet manager
//! then re-layers the patched forwarding tables within the lanes the last
//! full sweep used, instead of re-sweeping. On the paper's degraded 12x8
//! plane every event of a seeded churn sequence must stay incremental and
//! deadlock-free.

use hxroute::engines::Dfsssp;
use hxroute::{verify_deadlock_free, Routes, SubnetManager};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, LinkClass, LinkId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn active_isls(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

fn sl_table(topo: &Topology, routes: &Routes) -> Vec<u8> {
    topo.switches()
        .flat_map(|s| (0..routes.lid_space() as u32).map(move |lid| routes.sl(s, lid as _)))
        .collect()
}

#[test]
fn verified_dfsssp_churn_on_degraded_12x8_stays_incremental() {
    let mut topo = HyperXConfig::t2_hyperx(672).build();
    FaultPlan::t2_hyperx().apply(&mut topo);
    let mut sm = SubnetManager::new(topo, Box::new(Dfsssp::default()));
    assert!(sm.verify, "verification is the default");
    let budget = sm.sweep().unwrap().vls;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let mut failed: Vec<LinkId> = Vec::new();
    let mut sls = sl_table(sm.topo(), sm.routes().unwrap());
    let mut relayered = 0;
    for event in 0..10 {
        let recover = !failed.is_empty() && (failed.len() >= 3 || rng.gen_bool(0.4));
        let (what, report) = if recover {
            let l = failed.swap_remove(rng.gen_range(0..failed.len()));
            ("recover", sm.recover_link(l))
        } else {
            let isls = active_isls(sm.topo());
            let l = isls[rng.gen_range(0..isls.len())];
            failed.push(l);
            ("fail", sm.fail_link(l))
        };
        let r = report.unwrap_or_else(|e| panic!("event {event} ({what}): {e:?}"));
        assert!(
            r.incremental,
            "event {event} ({what}) fell back to a resweep"
        );
        assert!(r.vls <= budget, "event {event} ({what}) grew the lanes");
        let routes = sm.routes().unwrap();
        verify_deadlock_free(sm.topo(), routes)
            .unwrap_or_else(|e| panic!("event {event} ({what}): {e:?}"));
        // The generic repair keeps every SL; only a re-layering moves them.
        let next = sl_table(sm.topo(), routes);
        relayered += usize::from(next != sls);
        sls = next;
    }
    assert!(relayered > 0, "no event needed a re-layering");
}
