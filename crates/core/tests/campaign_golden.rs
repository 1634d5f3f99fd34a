//! Golden values for the paper-facing churn numbers: every numeric field
//! of [`run_campaign`] on a 4x4 T=2 HyperX for four seeds and five engines,
//! pinned so a refactor of the churn engine cannot drift silently. Rates
//! and latencies are compared as raw `f64` bits.

use hxcore::{run_campaign, CampaignConfig};
use hxmpi::Pml;
use hxsim::SolverKind;
use hxtopo::hyperx::HyperXConfig;

/// (seed, engine, [healthy/faulted throughput, healthy/faulted latency]
/// as bits, [healthy completions, faulted completions, failures,
/// recoveries, skipped, incremental events, trees patched, max links down,
/// links down at end]).
type Golden = (u64, &'static str, [u64; 4], [u64; 9]);

#[rustfmt::skip]
const GOLDEN: [Golden; 20] = [
    (0x2a, "dfsssp", [0x42117d958eca0000, 0x42115cec19fa0000, 0x3f3d466a56f9c10c, 0x3f3d7a5b6d5e1c8e], [1430, 1419, 24, 24, 4, 48, 341, 4, 1]),
    (0x2a, "sssp", [0x42117d958eca0000, 0x42115cec19fa0000, 0x3f3d466a56f9c10c, 0x3f3d7a5b6d5e1c8e], [1430, 1419, 24, 24, 4, 48, 341, 4, 1]),
    (0x2a, "ft-hyperx", [0x421163944eee0000, 0x4211519fe9000000, 0x3f3d69ebe1195c31, 0x3f3d8d36975d9c51], [1420, 1416, 24, 24, 4, 48, 514, 4, 1]),
    (0x2a, "minhop", [0x421163944eee0000, 0x421183ab9ce60000, 0x3f3d69ebe1195c31, 0x3f3d3a7a61ace97c], [1420, 1430, 24, 24, 4, 48, 326, 4, 1]),
    (0x2a, "fatpaths", [0x42117fa6c5800000, 0x4211860b1bd80000, 0x3f3d3eb3b65604e3, 0x3f3d36741c3cb3d0], [1431, 1431, 24, 24, 4, 48, 1368, 4, 1]),
    (0x7, "dfsssp", [0x421176f3ac960000, 0x42116038b3f20000, 0x3f3d4ee31dd26614, 0x3f3d78002a968702], [1427, 1420, 28, 28, 1, 56, 435, 4, 2]),
    (0x7, "sssp", [0x421176f3ac960000, 0x42116038b3f20000, 0x3f3d4ee31dd26614, 0x3f3d78002a968702], [1427, 1420, 28, 28, 1, 56, 435, 4, 2]),
    (0x7, "ft-hyperx", [0x421138c9c11c0000, 0x421140526dbc0000, 0x3f3db981c67e3b15, 0x3f3dac4ee39ff34c], [1407, 1409, 28, 28, 1, 56, 568, 4, 2]),
    (0x7, "minhop", [0x421138c9c11c0000, 0x42114f87bc740000, 0x3f3db981c67e3b15, 0x3f3d95e9a092c2b4], [1407, 1414, 28, 28, 1, 56, 420, 4, 2]),
    (0x7, "fatpaths", [0x42111b82426e0000, 0x42114c4a8e560000, 0x3f3dedeac86c0f69, 0x3f3d9b74896afe1d], [1397, 1413, 28, 28, 1, 56, 1661, 4, 2]),
    (0x7258, "dfsssp", [0x4211e4ed08280000, 0x42117fc520fc0000, 0x3f3c99f7eab939f0, 0x3f3d3bc65f62dd89], [1463, 1428, 29, 29, 8, 58, 436, 4, 2]),
    (0x7258, "sssp", [0x4211e4ed08280000, 0x42117fc520fc0000, 0x3f3c99f7eab939f0, 0x3f3d3bc65f62dd89], [1463, 1428, 29, 29, 8, 58, 436, 4, 2]),
    (0x7258, "ft-hyperx", [0x42118a9ae39a0000, 0x4211974731980000, 0x3f3d30b3801594e0, 0x3f3d117ac382ae51], [1433, 1436, 29, 29, 8, 58, 578, 4, 2]),
    (0x7258, "minhop", [0x42118a9ae39a0000, 0x4211c58f2c9a0000, 0x3f3d30b3801594e0, 0x3f3cc9c04cca2ffc], [1433, 1452, 29, 29, 8, 58, 454, 4, 2]),
    (0x7258, "fatpaths", [0x4211744bb4840000, 0x421167d1ddaa0000, 0x3f3d52a23b85a333, 0x3f3d64e63b8f5bd8], [1426, 1421, 29, 29, 8, 58, 1771, 4, 2]),
    (0x63, "dfsssp", [0x4211e0ebcf520000, 0x4211f097c2e40000, 0x3f3c98a50b48b5a1, 0x3f3c80cd100497ab], [1460, 1466, 20, 20, 2, 40, 301, 4, 3]),
    (0x63, "sssp", [0x4211e0ebcf520000, 0x4211f097c2e40000, 0x3f3c98a50b48b5a1, 0x3f3c80cd100497ab], [1460, 1466, 20, 20, 2, 40, 301, 4, 3]),
    (0x63, "ft-hyperx", [0x4211a4ec5df00000, 0x4211b04d55aa0000, 0x3f3d04fd37167ae1, 0x3f3cf33716bed346], [1442, 1445, 20, 20, 2, 40, 444, 4, 3]),
    (0x63, "minhop", [0x4211a4ec5df00000, 0x4211bfaf88920000, 0x3f3d04fd37167ae1, 0x3f3cd90707ac466d], [1442, 1450, 20, 20, 2, 40, 320, 4, 3]),
    (0x63, "fatpaths", [0x4211bebb29c80000, 0x4211cd607e7e0000, 0x3f3cdb5085bd3cbb, 0x3f3cb90d25cacc06], [1449, 1454, 20, 20, 2, 40, 1220, 4, 3]),
];

#[test]
fn single_plane_campaign_numbers_are_pinned() {
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    for (seed, engine, rates, counts) in GOLDEN {
        let cfg = CampaignConfig {
            seed,
            mtbf: 0.003,
            mttr: 0.006,
            duration: 0.08,
            flows: 8,
            bytes: 1 << 20,
            max_down: 4,
            solver: SolverKind::Exact,
            // The multipath entrant spreads flows across its LID layers.
            pml: if engine == "fatpaths" {
                Pml::FlowHash
            } else {
                Pml::Ob1
            },
            demand: None,
        };
        let r = run_campaign(&topo, hxroute::engine_by_name(engine).unwrap(), &cfg).unwrap();
        let got_rates = [
            r.healthy_throughput,
            r.faulted_throughput,
            r.healthy_latency,
            r.faulted_latency,
        ]
        .map(f64::to_bits);
        let got_counts = [
            r.healthy_completions,
            r.faulted_completions,
            r.failures,
            r.recoveries,
            r.skipped,
            r.incremental_events,
            r.trees_patched,
            r.max_links_down as u64,
            r.links_down_at_end as u64,
        ];
        assert_eq!(got_rates, rates, "seed {seed:#x} {engine}: rates");
        assert_eq!(got_counts, counts, "seed {seed:#x} {engine}: counts");
    }
}
