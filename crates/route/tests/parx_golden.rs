//! Golden digests of PARX's complete routing state: FNV-1a over every
//! `(switch, LID) -> (out link, SL)` entry plus the VL count and the LID
//! space, on the paper's 2-D plane (oblivious and demand-aware, healthy
//! and faulted) and on 3-D and 1-D HyperX. Any drift in the LFTs, the SL
//! table or the LID layout changes a digest. The 2-D digests were recorded
//! from the former 2-D-only engine and the 3-D/1-D ones from the former
//! n-D engine, before the two were merged into [`Parx`].

use hxroute::engines::{Parx, RoutingEngine};
use hxroute::{Demand, Lid, Routes};
use hxtopo::faults::{FaultCount, FaultPlan};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{NodeId, Topology};

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(digest, num_vls, lid_space)` of a routing state.
fn digest(topo: &Topology, routes: &Routes) -> (u64, u8, usize) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for s in topo.switches() {
        for lid in 0..routes.lid_space() as Lid {
            fnv(&mut h, routes.get(s, lid).map_or(u64::MAX, |l| l.0 as u64));
            fnv(&mut h, routes.sl(s, lid) as u64);
        }
    }
    fnv(&mut h, routes.num_vls as u64);
    fnv(&mut h, routes.lid_space() as u64);
    (h, routes.num_vls, routes.lid_space())
}

/// A seeded demand profile: each node sends to four SplitMix64-drawn peers
/// with drawn byte counts spanning three orders of magnitude.
fn seeded_demand(topo: &Topology, seed: u64) -> Demand {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = topo.num_nodes() as u64;
    let mut d = Demand::new(topo.num_nodes());
    for src in 0..n {
        for _ in 0..4 {
            let dst = next() % n;
            let bytes = 1 + next() % 1_000_000;
            d.add(NodeId(src as u32), NodeId(dst as u32), bytes);
        }
    }
    d
}

fn faulted_6x4() -> Topology {
    let mut t = HyperXConfig::new(vec![6, 4], 2).build();
    FaultPlan {
        count: FaultCount::Absolute(4),
        class: None,
        seed: 7,
    }
    .apply(&mut t);
    t
}

fn degraded_12x8() -> Topology {
    let mut t = HyperXConfig::t2_hyperx(672).build();
    FaultPlan::t2_hyperx().apply(&mut t);
    t
}

fn check(case: &str, topo: &Topology, engine: &dyn RoutingEngine, want: (u64, u8, usize)) {
    let routes = engine.route(topo).unwrap();
    let got = digest(topo, &routes);
    assert_eq!(
        got, want,
        "{case}: routing state drifted from the golden digest"
    );
}

#[test]
fn two_d_parx_tables_are_pinned() {
    let hx44 = HyperXConfig::new(vec![4, 4], 2).build();
    let faulted = faulted_6x4();
    check(
        "4x4 T=2 oblivious",
        &hx44,
        &Parx::default(),
        (0xc1ae_c301_90bd_cc78, 2, 3032),
    );
    check(
        "4x4 T=2 demand",
        &hx44,
        &Parx::with_demand(seeded_demand(&hx44, 0x5eed)),
        (0xd886_91df_0df7_eecd, 2, 3032),
    );
    check(
        "6x4 T=2 -4 oblivious",
        &faulted,
        &Parx::default(),
        (0x0f0f_4cdd_c2ba_0f5e, 3, 3048),
    );
    check(
        "6x4 T=2 -4 demand",
        &faulted,
        &Parx::with_demand(seeded_demand(&faulted, 0x5eed)),
        (0x5fd2_a490_55a1_a070, 3, 3048),
    );
    check(
        "12x8 T=7 -15",
        &degraded_12x8(),
        &Parx::default(),
        (0x8b81_4674_1e86_15d2, 3, 3672),
    );
}

#[test]
fn n_d_parx_tables_are_pinned() {
    let hx442 = HyperXConfig::new(vec![4, 4, 2], 1).build();
    let hx6 = HyperXConfig::new(vec![6], 2).build();
    check(
        "4x4x2 T=1",
        &hx442,
        &Parx::default(),
        (0x3cf0_4738_fa19_d143, 4, 257),
    );
    check(
        "[6] T=2",
        &hx6,
        &Parx::default(),
        (0xe318_99e5_e233_833b, 2, 25),
    );
}
