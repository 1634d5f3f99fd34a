//! The four workloads and what they share.
//!
//! | workload      | loop                       | stresses                                   |
//! |---------------|----------------------------|--------------------------------------------|
//! | `paper_figs`  | batch                      | routing + VLs in set-up; rounds, solver, DES |
//! | `fault_churn` | closed, one step at a time | incremental repair, PathDb patch, re-solve |
//! | `hxd_serve`   | open, fixed rates + ladder | service reads beside a churning writer     |
//! | `rails_3d`    | closed, one round per rail | multi-plane stepper, failover, FT-HyperX   |

pub mod fault_churn;
pub mod hxd_serve;
pub mod paper_figs;
pub mod rails_3d;

use crate::{stats, Args, Digest, Outcome};
use hxroute::engines::RoutingEngine;
use hxroute::{verify_deadlock_free, verify_paths, PathDb, Routes, SubnetManager};
use hxtopo::hyperx::HyperXConfig;
use hxtopo::{FaultPlan, LinkId, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Independent input streams derived from the one `--seed`.
pub fn stream(seed: u64, salt: u64) -> u64 {
    let mut d = Digest::new();
    d.eat(seed);
    d.eat(salt);
    d.value()
}

/// The paper's HyperX plane: 12x8, T=7, 672 nodes, minus its 15 faulty
/// AOCs.
pub fn degraded_12x8() -> Topology {
    let mut topo = HyperXConfig::t2_hyperx(672).build();
    FaultPlan::t2_hyperx().apply(&mut topo);
    topo
}

/// Routes `topo` with `engine` and builds its path store inside the
/// layer spans (`sweep` names the engine's span), then runs the routing
/// checks on the result: every path resolves without loops, and every
/// VL's channel dependency graph is acyclic. Returns the routes, the
/// store and the number of VLs populated.
pub fn route_and_verify(
    out: &mut Outcome,
    topo: &Topology,
    engine: &dyn RoutingEngine,
    sweep: &'static str,
) -> Option<(Routes, PathDb, u8)> {
    let routes = out.tracer.span(sweep, || engine.route(topo));
    let routes = out.op(sweep, routes)?;
    let db = out.tracer.span("hxroute.pathdb_build", || {
        PathDb::build(topo, &routes, 1, 0)
    });
    let db = out.op("hxroute.pathdb_build", db)?;
    let paths = verify_paths(topo, &routes);
    out.op(&format!("verify_paths({sweep})"), paths)?;
    let vls = verify_deadlock_free(topo, &routes);
    let vls = out.op(&format!("verify_deadlock_free({sweep})"), vls)?;
    out.check(vls <= routes.num_vls.max(1), || {
        format!("{sweep}: {vls} VLs populated, {} assigned", routes.num_vls)
    });
    Some((routes, db, vls))
}

/// A manager holding already-computed routes, used to replay a stepper's
/// victims in the traced run and time each `fail_link`/`recover_link`.
pub fn shadow_manager(
    topo: &Topology,
    engine: Box<dyn RoutingEngine>,
    routes: Routes,
    db: Arc<PathDb>,
) -> SubnetManager {
    let mut sm = SubnetManager::with_state(topo.clone(), engine, routes, db);
    sm.verify = false;
    sm
}

/// Times `sm.fail_link(v)` then `sm.recover_link(v)` inside the
/// `hxroute.fail` / `hxroute.recover` spans.
pub fn replay_victim(out: &mut Outcome, sm: &mut SubnetManager, v: LinkId) {
    let f = out.tracer.span("hxroute.fail", || sm.fail_link(v));
    if out.op("shadow fail_link", f).is_some() {
        let r = out.tracer.span("hxroute.recover", || sm.recover_link(v));
        out.op("shadow recover_link", r);
    }
}

/// Times `step` until the window has passed and at least `min_ops` steps
/// ran, inside one `span` per step, then calls `after` outside the timing.
/// Returns the per-step reports.
///
/// In the traced run the first quarter of the window runs untraced, and
/// the mean step time of the rest against it gives `hxobs.trace_overhead`.
pub fn closed_loop<R>(
    args: &Args,
    out: &mut Outcome,
    min_ops: usize,
    span: &'static str,
    mut step: impl FnMut(&mut Outcome) -> R,
    mut after: impl FnMut(&mut Outcome, &R),
) -> Vec<R> {
    let window = args.window();
    let traced = out.tracer.is_on();
    out.tracer.set_on(false);
    let mut split = 0;
    let start = Instant::now();
    let mut reports = Vec::new();
    while start.elapsed() < window || reports.len() < min_ops {
        if traced && !out.tracer.is_on() && start.elapsed() >= window / 4 {
            out.tracer.set_on(true);
            split = reports.len();
        }
        out.tracer.begin(span);
        let t = Instant::now();
        let r = step(out);
        let dt = t.elapsed().as_secs_f64();
        out.tracer.end();
        out.ops.push((t, dt));
        out.attempted += 1;
        after(out, &r);
        out.calib.tick();
        reports.push(r);
    }
    if traced {
        out.tracer.set_on(true);
        let secs: Vec<f64> = out.ops.iter().map(|&(_, s)| s).collect();
        let (untraced, traced) = secs.split_at(split);
        out.layers
            .insert("hxobs.trace_overhead", trace_overhead(untraced, traced));
    }
    reports
}

/// Trace overhead from per-operation times of an untraced and a traced
/// stretch of the same operation stream: ratio of means minus one.
pub fn trace_overhead(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    stats::mean(traced_s) / stats::mean(untraced_s) - 1.0
}

/// `hxsim.repath_ms`: per cable event (one replayed fail and recover),
/// the operation time left after those calls, i.e. the part spent
/// propagating epochs and re-pathing live flows.
pub fn repath_layer(out: &mut Outcome, op_span: &str) {
    let sum = |name| out.tracer.durations(name).iter().sum::<f64>();
    let events = out.tracer.durations("hxroute.fail").len().max(1) as f64;
    let repath = (sum(op_span) - sum("hxroute.fail") - sum("hxroute.recover")) / events;
    out.layers.insert("hxsim.repath_ms", repath.max(0.0) * 1e3);
}
