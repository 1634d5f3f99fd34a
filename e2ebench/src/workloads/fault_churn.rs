//! `fault_churn`: the paper plane under cable failures, as a closed loop
//! of one cable event at a time. The degraded 12x8 is routed by DFSSSP
//! and carries 48 live 8 MiB flows; each operation is one
//! `CampaignStepper::step` (fail, propagate, recover, propagate), which
//! exercises incremental repair, path-store patching and the incremental
//! re-solve of the live flows.

use super::{closed_loop, degraded_12x8, replay_victim, route_and_verify, shadow_manager, stream};
use crate::{Args, Digest, Outcome};
use hxcore::{with_stepper, CampaignConfig, StepReport};
use hxroute::engines::Dfsssp;
use hxtopo::LinkClass;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Steps folded into the digest (every run completes at least these).
pub const DIGEST_STEPS: usize = 200;
/// Live closed-loop flows.
const FLOWS: usize = 48;

/// The campaign configuration for `seed`: the stepper draws its victims
/// and flow endpoints from streams of `cfg.seed`.
pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed: stream(seed, 0xc4a2),
        flows: FLOWS,
        bytes: 8 << 20,
        ..CampaignConfig::default()
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: crate::trace::Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    let cfg = config(args.seed);
    out.params = vec![
        ("plane", "12x8 T=7 HyperX, 15 faulty AOCs".into()),
        ("engine", "dfsssp".into()),
        ("flows", format!("{FLOWS} x 8 MiB")),
        ("campaign_seed", cfg.seed.to_string()),
        ("setups", SETUPS.to_string()),
        ("digest_steps", DIGEST_STEPS.to_string()),
    ];
    out.threads = hxroute::pathdb::auto_threads();
    out.tail_pct = 95.0;

    let topo = out.tracer.span("hxtopo.build", degraded_12x8);
    let Some((routes, db, vls)) =
        route_and_verify(&mut out, &topo, &Dfsssp::default(), "hxroute.sweep.dfsssp")
    else {
        return out;
    };
    out.layers.insert("hxroute.vls.dfsssp", vls as f64);
    let mut shadow = shadow_manager(&topo, Box::<Dfsssp>::default(), routes, db.into());

    let traced = out.tracer.is_on();
    let mut reports: Vec<StepReport> = Vec::new();
    for k in 0..SETUPS {
        let t = out.setup_start();
        let topo = degraded_12x8();
        let last = k + 1 == SETUPS;
        let r = with_stepper(&topo, Box::<Dfsssp>::default(), &cfg, |s| {
            out.setup_done(t);
            if !last {
                return;
            }
            out.check(s.active_flows() == FLOWS, || {
                format!("{} of {FLOWS} flows live after set-up", s.active_flows())
            });
            reports = closed_loop(
                args,
                &mut out,
                DIGEST_STEPS,
                "campaign.step",
                |_| s.step(),
                |out, r| {
                    if out.tracer.is_on() {
                        replay_victim(out, &mut shadow, r.victim);
                    }
                },
            );
            out.check(s.active_flows() == FLOWS, || {
                format!("{} of {FLOWS} flows live after churn", s.active_flows())
            });
        });
        out.op("with_stepper", r);
    }

    let mut digest = Digest::new();
    let mut last_epoch = 0;
    for (i, r) in reports.iter().enumerate() {
        let isl = topo.link(r.victim).class != LinkClass::Terminal;
        out.check(isl && r.epoch >= last_epoch + 2, || {
            format!(
                "step {i}: victim {:?} epoch {} after {last_epoch}",
                r.victim, r.epoch
            )
        });
        last_epoch = r.epoch;
        if i < DIGEST_STEPS {
            digest.eat(r.victim.0 as u64);
            digest.eat(r.trees_patched as u64);
            digest.eat(r.fail_incremental as u64 | (r.recover_incremental as u64) << 1);
            digest.eat(r.epoch);
        }
    }
    out.digest = digest.value();

    if traced {
        step_layers(&mut out, &reports);
    }
    out
}

/// Per-layer values: span medians, repair counts from the step reports,
/// and the re-pathing share of a step.
fn step_layers(out: &mut Outcome, reports: &[StepReport]) {
    for (metric, span, scale) in [
        ("hxtopo.build_ms", "hxtopo.build", 1e3),
        ("hxroute.sweep_s.dfsssp", "hxroute.sweep.dfsssp", 1.0),
        ("hxroute.pathdb_build_ms", "hxroute.pathdb_build", 1e3),
        ("hxroute.fail_ms", "hxroute.fail", 1e3),
        ("hxroute.recover_ms", "hxroute.recover", 1e3),
    ] {
        out.layer_from_spans(metric, span, scale);
    }
    let n = reports.len().max(1) as f64;
    let trees: usize = reports.iter().map(|r| r.trees_patched).sum();
    let incremental: usize = reports
        .iter()
        .map(|r| r.fail_incremental as usize + r.recover_incremental as usize)
        .sum();
    out.layers.insert("hxroute.trees_patched", trees as f64 / n);
    out.layers
        .insert("hxroute.incremental_ratio", incremental as f64 / (2.0 * n));
    super::repath_layer(out, "campaign.step");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn same_seed_same_victim_stream() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let mut cfg = config(5);
        cfg.flows = 4;
        let victims = |cfg: &CampaignConfig| {
            with_stepper(&topo, Box::<Dfsssp>::default(), cfg, |s| {
                (0..6).map(|_| s.step().victim).collect::<Vec<_>>()
            })
            .unwrap()
        };
        assert_eq!(victims(&cfg), victims(&cfg));
        let mut other = cfg.clone();
        other.seed = config(6).seed;
        assert_ne!(victims(&cfg), victims(&other));
    }
}
