//! `paper_figs`: what every figure harness does. Set-up builds the
//! paper's degraded dual-plane system (four engine sweeps, four path
//! stores); the measured part evaluates a seeded slate of figure points
//! across all five combos, one point per operation, as a batch.
//!
//! The slate interleaves four families in fixed proportions, so any
//! stretch of it has the same mix: round-model IMB points (Figs 4/5b),
//! eBB and mpiGraph bandwidth samples (Figs 5c/1), proxy-app
//! `Runner::run` points (Fig 6), and `ScheduleBuilder` collectives run
//! through the discrete-event `Simulator`.

use super::{closed_loop, stream};
use crate::{Args, Digest, Outcome};
use hxcore::{Combo, Runner, T2hx};
use hxload::ebb::{effective_bisection_bandwidth, EBB_BYTES};
use hxload::imb::ImbCollective;
use hxload::mpigraph::{average_bandwidth, mpigraph};
use hxload::Workload;
use hxmpi::ScheduleBuilder;
use hxroute::engines::{Dfsssp, Ftree, Parx, RoutingEngine, Sssp};
use hxsim::Simulator;
use hxtopo::{FatTreeConfig, FaultPlan};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Points folded into the digest (all runs complete at least these).
const DIGEST_POINTS: usize = 400;
/// Placement seed of every fabric (the figure harnesses' default).
const PLACEMENT_SEED: u64 = 0x7258;
/// Points of each family per slate round, sized so each family takes a
/// tenth or more of the measured time on the reference host.
const ROUND: [Family; 12] = [
    Family::Imb,
    Family::Imb,
    Family::Imb,
    Family::Bandwidth,
    Family::Bandwidth,
    Family::Bandwidth,
    Family::Proxy,
    Family::Des,
    Family::Des,
    Family::Des,
    Family::Des,
    Family::Des,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Imb,
    Bandwidth,
    Proxy,
    Des,
}

/// A collective the DES family compiles with `ScheduleBuilder`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesColl {
    Barrier,
    Bcast,
    AllreduceRing,
    AllgatherRing,
    AlltoallPairwise,
}

const DES_COLLS: [DesColl; 5] = [
    DesColl::Barrier,
    DesColl::Bcast,
    DesColl::AllreduceRing,
    DesColl::AllgatherRing,
    DesColl::AlltoallPairwise,
];

/// One figure point.
#[derive(Debug, Clone, PartialEq)]
pub enum Point {
    /// Round-model IMB latency.
    Imb {
        combo: Combo,
        coll: ImbCollective,
        n: usize,
        bytes: u64,
    },
    /// Netgauge eBB samples.
    Ebb {
        combo: Combo,
        n: usize,
        samples: usize,
        seed: u64,
    },
    /// mpiGraph all-pairs bandwidth.
    MpiGraph { combo: Combo, n: usize, bytes: u64 },
    /// Proxy application (index into `all_proxies`) through the runner.
    Proxy { combo: Combo, app: usize, n: usize },
    /// DES-evaluated collective.
    Des {
        combo: Combo,
        coll: DesColl,
        n: usize,
        bytes: u64,
    },
}

/// The seeded, endless slate of figure points.
pub struct Slate {
    rng: ChaCha8Rng,
    k: usize,
    bandwidth: usize,
    proxy_counts: Vec<Vec<usize>>,
}

impl Slate {
    /// The slate for `seed`.
    pub fn new(seed: u64) -> Slate {
        Slate {
            rng: ChaCha8Rng::seed_from_u64(stream(seed, 0x51a7e)),
            k: 0,
            bandwidth: 0,
            proxy_counts: hxload::proxy::all_proxies()
                .iter()
                .map(|w| {
                    w.node_counts(672)
                        .into_iter()
                        .filter(|&n| n <= 256)
                        .collect()
                })
                .collect(),
        }
    }
}

impl Iterator for Slate {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let rng = &mut self.rng;
        let family = ROUND[self.k % ROUND.len()];
        self.k += 1;
        if family == Family::Bandwidth {
            self.bandwidth += 1;
        }
        let combo = *Combo::all().choose(rng).expect("five combos");
        Some(match family {
            Family::Imb => {
                let colls = [
                    ImbCollective::Bcast,
                    ImbCollective::Gather,
                    ImbCollective::Scatter,
                    ImbCollective::Reduce,
                    ImbCollective::Allreduce,
                    ImbCollective::Alltoall,
                    ImbCollective::Barrier,
                ];
                let coll = *colls.choose(rng).expect("seven collectives");
                let n = *[14usize, 28, 56, 112, 224].choose(rng).expect("sizes");
                let bytes = *coll.message_sizes().choose(rng).expect("message sizes");
                Point::Imb {
                    combo,
                    coll,
                    n,
                    bytes,
                }
            }
            Family::Bandwidth if self.bandwidth % 2 == 1 => Point::Ebb {
                combo,
                n: *[28usize, 56, 112, 224].choose(rng).expect("sizes"),
                samples: 16,
                seed: rng.gen(),
            },
            Family::Bandwidth => Point::MpiGraph {
                combo,
                n: *[14usize, 28].choose(rng).expect("sizes"),
                bytes: 1 << 20,
            },
            Family::Proxy => {
                let app = rng.gen_range(0..self.proxy_counts.len());
                let n = *self.proxy_counts[app].choose(rng).expect("node counts");
                Point::Proxy { combo, app, n }
            }
            Family::Des => Point::Des {
                combo,
                coll: *DES_COLLS.choose(rng).expect("collectives"),
                n: *[8usize, 16, 32].choose(rng).expect("sizes"),
                bytes: 1u64 << rng.gen_range(6..=16),
            },
        })
    }
}

/// Evaluates one point; `Err` describes a wrong output.
fn eval(
    sys: &T2hx,
    runner: &Runner,
    apps: &[Box<dyn Workload>],
    p: &Point,
    out: &mut Outcome,
) -> Result<f64, String> {
    let positive = |v: f64, what: &str| {
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("{what} = {v} at {p:?}"))
        }
    };
    let tr = &mut out.tracer;
    match *p {
        Point::Imb {
            combo,
            coll,
            n,
            bytes,
        } => {
            let fabric = tr.span("hxmpi.fabric", || sys.fabric(combo, n, PLACEMENT_SEED));
            let v = tr.span("hxmpi.round_estimate", || {
                coll.latency_us(&fabric, n, bytes)
            });
            positive(v, "IMB latency")
        }
        Point::Ebb {
            combo,
            n,
            samples,
            seed,
        } => {
            let fabric = tr.span("hxmpi.fabric", || sys.fabric(combo, n, PLACEMENT_SEED));
            let s = tr.span("hxload.ebb", || {
                effective_bisection_bandwidth(&fabric, n, EBB_BYTES, samples, seed)
            });
            if s.len() != samples {
                return Err(format!("{} of {samples} eBB samples", s.len()));
            }
            positive(s.iter().sum::<f64>() / samples as f64, "eBB")
        }
        Point::MpiGraph { combo, n, bytes } => {
            let fabric = tr.span("hxmpi.fabric", || sys.fabric(combo, n, PLACEMENT_SEED));
            let m = tr.span("hxload.mpigraph", || mpigraph(&fabric, n, bytes));
            positive(average_bandwidth(&m), "mpiGraph bandwidth")
        }
        Point::Proxy { combo, app, n } => {
            let w = apps[app].as_ref();
            let s = tr.span("hxcore.runner", || runner.run(sys, combo, w, n));
            if s.attempted != runner.reps || s.values.len() > s.attempted as usize {
                return Err(format!(
                    "runner accounting {}/{}",
                    s.values.len(),
                    s.attempted
                ));
            }
            // Runs past the walltime are the paper's missing points, not
            // errors; the digest records how many completed.
            let best = s.best(w.metric().higher_is_better()).unwrap_or(0.0);
            Ok(best + s.values.len() as f64)
        }
        Point::Des {
            combo,
            coll,
            n,
            bytes,
        } => {
            let fabric = tr.span("hxmpi.fabric", || sys.fabric(combo, n, PLACEMENT_SEED));
            let mut sb = ScheduleBuilder::new(n);
            match coll {
                DesColl::Barrier => sb.barrier(),
                DesColl::Bcast => sb.bcast_binomial(0, bytes),
                DesColl::AllreduceRing => sb.allreduce_ring(bytes),
                DesColl::AllgatherRing => sb.allgather_ring(bytes),
                DesColl::AlltoallPairwise => sb.alltoall_pairwise(bytes),
            }
            let program = sb.build();
            let sim = Simulator::new(fabric.topo, &fabric, sys.params());
            let r = tr.span("hxsim.des", || sim.run(&program));
            if r.messages != program.num_messages() {
                return Err(format!(
                    "DES delivered {} of {} messages at {p:?}",
                    r.messages,
                    program.num_messages()
                ));
            }
            if tr.is_on() {
                out.layers
                    .entry("hxsim.des_messages")
                    .and_modify(|m| *m += r.messages as f64)
                    .or_insert(r.messages as f64);
            }
            positive(r.makespan, "DES makespan")
        }
    }
}

/// Times the topology builds and each engine's sweep and path store on
/// their own, so the traced run can attribute the set-up to layers.
fn attribute_setup(out: &mut Outcome) {
    let (ft, hx) = out.tracer.span("hxtopo.build", || {
        let mut ft = FatTreeConfig::tsubame2(672);
        FaultPlan::t2_fattree().apply(&mut ft);
        (ft, super::degraded_12x8())
    });
    let planes: [(&hxtopo::Topology, Box<dyn RoutingEngine>, &'static str); 4] = [
        (&ft, Box::new(Ftree), "hxroute.sweep.ftree"),
        (&ft, Box::<Sssp>::default(), "hxroute.sweep.sssp"),
        (&hx, Box::<Dfsssp>::default(), "hxroute.sweep.dfsssp"),
        (&hx, Box::<Parx>::default(), "hxroute.sweep.parx"),
    ];
    for (topo, engine, span) in planes {
        let r = out.tracer.span(span, || engine.route(topo));
        if let Some(routes) = out.op(span, r) {
            let db = out.tracer.span("hxroute.pathdb_build", || {
                hxroute::PathDb::build(topo, &routes, 1, 0)
            });
            out.op("hxroute.pathdb_build", db);
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: crate::trace::Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    out.params = vec![
        (
            "system",
            "T2hx::build(672, true): degraded fat-tree + 12x8 HyperX".into(),
        ),
        ("round", format!("{ROUND:?}")),
        ("setups", SETUPS.to_string()),
        ("digest_points", DIGEST_POINTS.to_string()),
    ];
    out.threads = hxroute::pathdb::auto_threads();
    out.tail_pct = 99.0;

    let mut sys = None;
    for _ in 0..SETUPS {
        drop(sys.take());
        let t = out.setup_start();
        let built = T2hx::build(672, true);
        out.setup_done(t);
        sys = out.op("T2hx::build", built);
    }
    let Some(sys) = sys else {
        return out;
    };
    if out.tracer.is_on() {
        attribute_setup(&mut out);
    }

    // Output checks on every routed plane, outside the measured part.
    for (p, label) in ["ftree", "sssp", "dfsssp", "parx"].into_iter().enumerate() {
        let plane = sys.system().plane(p);
        let paths = hxroute::verify_paths(plane.topo(), plane.routes());
        out.op(&format!("verify_paths({label})"), paths);
        let vls = hxroute::verify_deadlock_free(plane.topo(), plane.routes());
        if let Some(vls) = out.op(&format!("verify_deadlock_free({label})"), vls) {
            match label {
                "dfsssp" => out.layers.insert("hxroute.vls.dfsssp", vls as f64),
                "parx" => out.layers.insert("hxroute.vls.parx", vls as f64),
                _ => None,
            };
        }
    }

    let runner = Runner::default();
    let apps = hxload::proxy::all_proxies();
    let mut slate = Slate::new(args.seed);
    let mut digest = Digest::new();
    let mut evaluated = 0usize;
    closed_loop(
        args,
        &mut out,
        DIGEST_POINTS,
        "paper_figs.point",
        |out| {
            let p = slate.next().expect("endless slate");
            eval(&sys, &runner, &apps, &p, out)
        },
        |out, r| {
            match r {
                Ok(v) if evaluated < DIGEST_POINTS => digest.eat_f64(*v),
                Ok(_) => {}
                Err(e) => out.failures.push(e.clone()),
            }
            evaluated += 1;
        },
    );
    out.digest = digest.value();

    for (metric, span, scale) in [
        ("hxtopo.build_ms", "hxtopo.build", 1e3),
        ("hxroute.sweep_s.ftree", "hxroute.sweep.ftree", 1.0),
        ("hxroute.sweep_s.sssp", "hxroute.sweep.sssp", 1.0),
        ("hxroute.sweep_s.dfsssp", "hxroute.sweep.dfsssp", 1.0),
        ("hxroute.sweep_s.parx", "hxroute.sweep.parx", 1.0),
        ("hxroute.pathdb_build_ms", "hxroute.pathdb_build", 1e3),
        ("hxmpi.fabric_ms", "hxmpi.fabric", 1e3),
        ("hxmpi.round_estimate_ms", "hxmpi.round_estimate", 1e3),
        ("hxload.ebb_ms", "hxload.ebb", 1e3),
        ("hxload.mpigraph_ms", "hxload.mpigraph", 1e3),
        ("hxcore.runner_ms", "hxcore.runner", 1e3),
        ("hxsim.des_ms", "hxsim.des", 1e3),
    ] {
        out.layer_from_spans(metric, span, scale);
    }
    let des_points = out.tracer.durations("hxsim.des").len();
    if let Some(m) = out.layers.get_mut("hxsim.des_messages") {
        *m /= des_points.max(1) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_slate() {
        let a: Vec<Point> = Slate::new(11).take(200).collect();
        let b: Vec<Point> = Slate::new(11).take(200).collect();
        let c: Vec<Point> = Slate::new(12).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every family appears in every round.
        assert!(matches!(a[0], Point::Imb { .. }));
        assert!(matches!(a[3], Point::Ebb { .. }));
        assert!(matches!(a[4], Point::MpiGraph { .. }));
        assert!(matches!(a[6], Point::Proxy { .. }));
        assert!(matches!(a[11], Point::Des { .. }));
    }
}
