//! `rails_3d`: the scale point beyond the 12x8, as a closed loop. Two
//! rails of a 6x6x6 T=4 HyperX (216 switches and 864 nodes per rail) are
//! routed by FT-HyperX and carry 48 live 8 MiB flows; each operation is a
//! round of one `MultiPlaneStepper::step` per rail (fail, fail the
//! affected flows over to the other rail, propagate, recover, propagate).
//! It is the only workload on the multi-plane stepper, rail failover,
//! `PlaneSet` and FT-HyperX's own repair, and FT-HyperX assigns a single
//! VL, so VL-assignment work barely touches it.

use super::{closed_loop, replay_victim, route_and_verify, shadow_manager, stream};
use crate::{Args, Digest, Outcome};
use hxcore::{with_multi_stepper, CampaignConfig, MultiPlaneConfig, MultiStepReport};
use hxmpi::RailPolicy;
use hxroute::engines::{FtHyperX, RoutingEngine};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{LinkClass, Topology};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps folded into the digest (every run completes at least these).
/// One operation is a round of one step per rail.
const DIGEST_STEPS: usize = 100;
/// Live closed-loop flows across both rails.
const FLOWS: usize = 48;
/// Rails (planes).
const RAILS: usize = 2;

fn rail_topology() -> Topology {
    HyperXConfig::new(vec![6, 6, 6], 4).build()
}

/// The multi-plane configuration for `seed`.
pub fn config(seed: u64) -> MultiPlaneConfig {
    MultiPlaneConfig {
        planes: RAILS,
        rail: RailPolicy::RoundRobin,
        failover: true,
        force_failover: false,
        base: CampaignConfig {
            seed: stream(seed, 0x3ad5),
            flows: FLOWS,
            bytes: 8 << 20,
            ..CampaignConfig::default()
        },
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: crate::trace::Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    let cfg = config(args.seed);
    out.params = vec![
        ("plane", "6x6x6 T=4 HyperX, 216 switches, 864 nodes".into()),
        (
            "rails",
            format!("{RAILS}, round-robin, failover on (not forced)"),
        ),
        ("engine", "ft-hyperx".into()),
        ("flows", format!("{FLOWS} x 8 MiB")),
        ("campaign_seed", cfg.base.seed.to_string()),
        ("setups", SETUPS.to_string()),
        ("digest_steps", DIGEST_STEPS.to_string()),
    ];
    out.threads = hxroute::pathdb::auto_threads();
    out.tail_pct = 95.0;

    let topo = out.tracer.span("hxtopo.build", rail_topology);
    let Some((routes, db, _)) = route_and_verify(
        &mut out,
        &topo,
        &FtHyperX::default(),
        "hxroute.sweep.ft-hyperx",
    ) else {
        return out;
    };
    if out.tracer.is_on() {
        // The sweep takes well under a second here, so the traced run
        // times it a few more times and reports the median.
        for _ in 0..4 {
            let again = out.tracer.span("hxroute.sweep.ft-hyperx", || {
                FtHyperX::default().route(&topo)
            });
            out.op("hxroute.sweep.ft-hyperx", again);
        }
    }
    let db = std::sync::Arc::new(db);
    let mut shadows: Vec<_> = (0..RAILS)
        .map(|_| {
            shadow_manager(
                &topo,
                Box::<FtHyperX>::default(),
                routes.clone(),
                db.clone(),
            )
        })
        .collect();

    let traced = out.tracer.is_on();
    let mut reports: Vec<MultiStepReport> = Vec::new();
    for k in 0..SETUPS {
        let t = out.setup_start();
        let topo = rail_topology();
        let last = k + 1 == SETUPS;
        let r = with_multi_stepper(
            &topo,
            |_| Box::<FtHyperX>::default(),
            &cfg,
            |s| {
                out.setup_done(t);
                if !last {
                    return;
                }
                out.check(s.active_flows() == FLOWS, || {
                    format!("{} of {FLOWS} flows live after set-up", s.active_flows())
                });
                let rounds = closed_loop(
                    args,
                    &mut out,
                    DIGEST_STEPS / RAILS,
                    "multiplane.round",
                    |_| [(); RAILS].map(|_| s.step()),
                    |out, round| {
                        if out.tracer.is_on() {
                            for r in round {
                                replay_victim(out, &mut shadows[r.plane], r.victim);
                            }
                        }
                    },
                );
                reports = rounds.into_iter().flatten().collect();
                out.check(s.active_flows() == FLOWS, || {
                    format!("{} of {FLOWS} flows live after churn", s.active_flows())
                });
            },
        );
        out.op("with_multi_stepper", r);
    }

    let mut digest = Digest::new();
    let mut epochs = [1u64; RAILS];
    let mut failovers = 0u64;
    for (i, r) in reports.iter().enumerate() {
        let isl = topo.link(r.victim).class != LinkClass::Terminal;
        out.check(
            isl && r.plane == i % RAILS && r.epoch >= epochs[r.plane] + 2,
            || {
                format!(
                    "step {i}: plane {} victim {:?} epoch {}",
                    r.plane, r.victim, r.epoch
                )
            },
        );
        epochs[r.plane] = r.epoch;
        failovers += r.failovers;
        if i < DIGEST_STEPS {
            digest.eat(r.plane as u64);
            digest.eat(r.victim.0 as u64);
            digest.eat(r.failovers);
            digest.eat(r.epoch);
        }
    }
    out.digest = digest.value();

    if traced {
        for (metric, span, scale) in [
            ("hxtopo.build_ms", "hxtopo.build", 1e3),
            ("hxroute.sweep_s.ft-hyperx", "hxroute.sweep.ft-hyperx", 1.0),
            ("hxroute.pathdb_build_ms", "hxroute.pathdb_build", 1e3),
            ("hxroute.fail_ms", "hxroute.fail", 1e3),
            ("hxroute.recover_ms", "hxroute.recover", 1e3),
        ] {
            out.layer_from_spans(metric, span, scale);
        }
        out.layers.insert("hxmpi.failovers", failovers as f64);
        super::repath_layer(&mut out, "multiplane.round");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_victim_stream() {
        let topo = HyperXConfig::new(vec![3, 3, 3], 1).build();
        let mut cfg = config(5);
        cfg.base.flows = 4;
        let victims = |cfg: &MultiPlaneConfig| {
            with_multi_stepper(
                &topo,
                |_| Box::<FtHyperX>::default(),
                cfg,
                |s| {
                    (0..6)
                        .map(|_| s.step())
                        .map(|r| (r.plane, r.victim))
                        .collect::<Vec<_>>()
                },
            )
            .unwrap()
        };
        assert_eq!(victims(&cfg), victims(&cfg));
        let mut other = cfg.clone();
        other.base.seed = config(6).base.seed;
        assert_ne!(victims(&cfg), victims(&other));
    }
}
