//! `hxd_serve`: reads beside writes on one routing layer.
//!
//! The degraded 12x8 routed by DFSSSP is served through a
//! `FabricService`. First one client sends batches of 60 queries of the
//! `hxd` mix (70% resolve, 15% place over the three policies, 10% stats,
//! 5% what-if) back to back (a closed loop); that phase gives the
//! end-to-end metrics, one batch per operation. Then a generator sends the
//! mix to one reader as an open loop at fixed rates — 500 q/s, then 1000
//! q/s — and climbs a rate ladder to the highest rate whose p99 latency
//! stays within 20 ms without a growing backlog; open-loop latency counts
//! from each request's due time. Throughout, one writer fails or recovers
//! a cable every 25 ms and publishes each epoch, so a change that slows
//! the writer or delays publication shows here as well as one that slows
//! reads.

use super::{degraded_12x8, route_and_verify, stream};
use crate::calib::{Calibrator, Work};
use crate::openloop::{self, Served};
use crate::trace::Tracer;
use crate::{stats, Args, Digest, Outcome};
use hxcore::{FabricService, Query};
use hxroute::engines::Dfsssp;
use hxroute::SubnetManager;
use hxtopo::{LinkClass, LinkId, Topology};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The fixed offered rates, q/s.
const RATES: [f64; 2] = [500.0, 1000.0];
/// Share of the window each fixed-rate phase runs.
const RATE_SHARE: [f64; 2] = [0.15, 0.1];
/// Share of the window the closed-loop phase runs.
const CLOSED_SHARE: f64 = 0.5;
/// Blocks of the mix per closed-loop batch.
const BATCH_BLOCKS: usize = 3;
/// The latency limit on p99, s.
const LIMIT_S: f64 = 0.020;
/// Rate ladder: multiplicative steps up from the highest fixed rate that
/// met the limit, then geometric bisection.
const LADDER_STEP: f64 = 1.25;
const LADDER_UP: usize = 6;
const LADDER_BISECT: usize = 3;
/// Share of the window after which no further ladder probe starts.
const LADDER_SHARE: f64 = 0.15;
/// Samples per ladder probe (a p99 needs 1000 for ten beyond it).
const PROBE_SAMPLES: f64 = 1500.0;
/// The writer's period between cable events.
const WRITER_PERIOD: Duration = Duration::from_millis(25);
/// Cables in the writer's cycle.
const WRITER_CABLES: usize = 6;
/// Queries replayed single-threaded for the digest.
const REPLAY_QUERIES: usize = 1000;

/// What one request of a block asks.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Resolve,
    Place(hxcap::PolicyKind),
    Stats,
    WhatIf,
}

/// One block of 20 requests: the `hxd` mix (70% resolve, 15% place, 10%
/// stats, 5% what-if) held exact per block, one place per policy, so every
/// block costs about the same and only the order and arguments are random.
const MIX_BLOCK: [Kind; 20] = [
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Resolve,
    Kind::Place(hxcap::PolicyKind::Contiguous),
    Kind::Place(hxcap::PolicyKind::Scattered),
    Kind::Place(hxcap::PolicyKind::NetworkAware),
    Kind::Stats,
    Kind::Stats,
    Kind::WhatIf,
];

/// Draws the arguments of one request of kind `kind` as the `hxd`
/// harness does, except that a what-if names the next inter-switch cable
/// of `what_ifs`: a terminal cable's answer is a trivial "disconnects",
/// and mixing the two would make the cost of a block bimodal.
fn draw_query(
    rng: &mut ChaCha8Rng,
    kind: Kind,
    num_nodes: u32,
    what_ifs: &mut impl Iterator<Item = LinkId>,
) -> Query {
    match kind {
        Kind::Resolve => {
            let src = rng.gen_range(0..num_nodes);
            let mut dst = rng.gen_range(0..num_nodes - 1);
            if dst >= src {
                dst += 1;
            }
            Query::Resolve { src, dst }
        }
        Kind::Place(policy) => Query::Place {
            ranks: rng.gen_range(2..=num_nodes / 4),
            policy,
        },
        Kind::Stats => Query::Stats,
        Kind::WhatIf => Query::WhatIfFail {
            link: what_ifs.next().expect("cycled cable list").0,
        },
    }
}

/// The requests of one phase: evenly spaced at `rate` for `secs`, with
/// queries from stream `phase` of `seed`. What-ifs walk a seeded
/// permutation of every inter-switch cable, so a phase as long as the
/// closed loop asks about each cable about once and the cost of its
/// slowest blocks does not hinge on which cables a seed happened to draw.
pub fn query_schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    secs: f64,
    topo: &Topology,
) -> Vec<(Duration, Query)> {
    let mut rng = ChaCha8Rng::seed_from_u64(stream(seed, 0x9e00 + phase));
    let n = topo.num_nodes() as u32;
    let mut isl = inter_switch_cables(topo);
    isl.shuffle(&mut rng);
    let mut what_ifs = isl.iter().copied().cycle();
    let mut block = MIX_BLOCK;
    openloop::fixed_rate(rate, secs)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            if i % block.len() == 0 {
                block.shuffle(&mut rng);
            }
            let q = draw_query(&mut rng, block[i % block.len()], n, &mut what_ifs);
            (t, q)
        })
        .collect()
}

/// The active inter-switch cables of `topo`.
fn inter_switch_cables(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
        .map(|(id, _)| id)
        .collect()
}

/// The cables the writer cycles through, failing then recovering each in
/// turn: the first [`WRITER_CABLES`] active inter-switch cables, as in the
/// `hxd` harness. A short fixed cycle keeps the served routing state from
/// drifting with the run: repair without `verify` does not restore the
/// original routes, so a long random victim stream would leave every seed
/// serving a different plane.
pub fn writer_cycle(topo: &Topology) -> Vec<LinkId> {
    inter_switch_cables(topo)
        .into_iter()
        .take(WRITER_CABLES)
        .collect()
}

/// The span a query is recorded under: its layer.
fn span_name(q: &Query) -> &'static str {
    match q {
        Query::Resolve { .. } => "hxcore.query.resolve",
        Query::Stats => "hxcore.query.stats",
        Query::WhatIfFail { .. } => "hxroute.what_if",
        Query::Place { policy, .. } => match policy {
            hxcap::PolicyKind::Contiguous => "hxcap.place.contiguous",
            hxcap::PolicyKind::Scattered => "hxcap.place.scattered",
            hxcap::PolicyKind::NetworkAware => "hxcap.place.network-aware",
        },
    }
}

/// What the writer did while the readers ran.
struct WriterLog {
    /// From each `fail_link`/`recover_link` call to its epoch's
    /// publication, s.
    publish_s: Vec<f64>,
    errors: Vec<String>,
    tracer: Tracer,
    calib: Calibrator,
}

/// Fails, then recovers, each victim in turn, one event per period,
/// publishing every epoch, until `stop`; then heals what is still down.
fn writer(
    sm: &mut SubnetManager,
    svc: &FabricService,
    victims: &[LinkId],
    stop: &AtomicBool,
    mut tracer: Tracer,
) -> WriterLog {
    let mut log = WriterLog {
        publish_s: Vec::new(),
        errors: Vec::new(),
        tracer: Tracer::new(false, Instant::now(), 0),
        calib: Calibrator::new(Work::Searches),
    };
    let start = Instant::now();
    let mut down: Option<LinkId> = None;
    let mut next = 0usize;
    for k in 0u32.. {
        let due = start + WRITER_PERIOD * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let t0 = Instant::now();
        let r = match down.take() {
            Some(v) => tracer.span("hxroute.recover", || sm.recover_link(v)),
            None => {
                let v = victims[next % victims.len()];
                next += 1;
                let r = tracer.span("hxroute.fail", || sm.fail_link(v));
                if r.is_ok() {
                    down = Some(v);
                }
                r
            }
        };
        if let Err(e) = r {
            log.errors.push(format!("writer event {k}: {e}"));
            continue;
        }
        match tracer.span("hxcore.publish", || svc.publish_from(sm)) {
            Ok(_) => log.publish_s.push(t0.elapsed().as_secs_f64()),
            Err(e) => log.errors.push(format!("publish after event {k}: {e}")),
        }
        log.calib.tick();
    }
    if let Some(v) = down {
        if let Err(e) = sm.recover_link(v).and_then(|_| svc.publish_from(sm)) {
            log.errors.push(format!("final heal: {e}"));
        }
    }
    log.tracer = tracer;
    log
}

/// Whether one query was answered.
type Reply = Result<(), String>;

/// Whether a phase met the limit: p99 within [`LIMIT_S`], no failures,
/// and a backlog at its end smaller than one limit's worth of arrivals.
fn meets_limit(served: &[Served<Reply>], rate: f64) -> bool {
    let lat: Vec<f64> = served.iter().map(|s| s.latency_s).collect();
    let p99_ok = stats::percentile(&lat, 99.0).is_ok_and(|p| p <= LIMIT_S);
    let backlog_ok = openloop::backlog_at_end(served) as f64 <= rate * LIMIT_S;
    p99_ok && backlog_ok && served.iter().all(|s| s.result.is_ok())
}

/// Runs the workload.
pub fn run(args: &Args, tracer: Tracer) -> Outcome {
    let mut out = Outcome::new(tracer);
    // See `calib`: the batches slow with the host by about as much as
    // graph searches do.
    out.calib = Calibrator::new(Work::Searches);
    out.params = vec![
        ("plane", "12x8 T=7 HyperX, 15 faulty AOCs".into()),
        ("engine", "dfsssp".into()),
        (
            "mix",
            "per 20: 14 resolve, 1 place per policy, 2 stats, 1 inter-switch what-if".into(),
        ),
        ("loop", "open (latency from due time), then closed".into()),
        (
            "rates_qps",
            format!("{RATES:?} for {RATE_SHARE:?} of the window"),
        ),
        (
            "closed_loop",
            format!(
                "1 client, batches of {} queries, {CLOSED_SHARE} of the window",
                BATCH_BLOCKS * MIX_BLOCK.len()
            ),
        ),
        (
            "limit",
            format!(
                "p99 <= {} ms, backlog < one limit of arrivals",
                LIMIT_S * 1e3
            ),
        ),
        ("writer_period_ms", WRITER_PERIOD.as_millis().to_string()),
        (
            "writer_cycle",
            format!("first {WRITER_CABLES} inter-switch cables"),
        ),
        ("setups", SETUPS.to_string()),
        ("replay_queries", REPLAY_QUERIES.to_string()),
    ];
    out.threads = 3;
    out.tail_pct = 95.0;
    let traced = out.tracer.is_on();

    let topo = out.tracer.span("hxtopo.build", degraded_12x8);
    let Some((_, _, vls)) =
        route_and_verify(&mut out, &topo, &Dfsssp::default(), "hxroute.sweep.dfsssp")
    else {
        return out;
    };
    out.layers.insert("hxroute.vls.dfsssp", vls as f64);

    let mut served_state = None;
    for _ in 0..SETUPS {
        drop(served_state.take());
        let t = out.setup_start();
        // Like the `hxd` harness and the campaign steppers, the writer
        // repairs without the per-patch deadlock check (`verify`): with it,
        // nearly every DFSSSP patch on this plane falls back to a full
        // sweep, and the workload would measure sweeps, not repair.
        let mut sm = SubnetManager::new(degraded_12x8(), Box::<Dfsssp>::default());
        sm.verify = false;
        let svc = sm.sweep().and_then(|_| FabricService::from_manager(&sm));
        out.setup_done(t);
        served_state = out.op("bring-up", svc).map(|svc| (sm, svc));
    }
    let Some((mut sm, svc)) = served_state else {
        return out;
    };

    let victims = writer_cycle(&topo);
    let stop = AtomicBool::new(false);
    let mut reader = svc.reader();
    let mut rtr = out.tracer.sibling(1);
    let mut counter = 0u64;
    let mut resolve_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut serve = |q: &Query| -> Reply {
        // Trace every other query; untraced ones time the same call bare,
        // so the two halves give the tracing overhead.
        let on = traced && counter.is_multiple_of(2);
        counter += 1;
        rtr.set_on(on);
        let t = Instant::now();
        rtr.begin(span_name(q));
        let r = reader.query(q);
        rtr.end();
        if matches!(q, Query::Resolve { .. }) {
            resolve_s[on as usize].push(t.elapsed().as_secs_f64());
        }
        r.map(|_| ())
            .map_err(|e| format!("{} query: {e}", q.kind()))
    };

    let mut phases: Vec<Vec<Served<Reply>>> = Vec::new();
    let mut probes: Vec<(f64, bool)> = Vec::new();
    // The manager stays on this thread (routing engines are not `Send`):
    // it runs the writer, while a client thread drives the reader.
    let wtr = out.tracer.sibling(2);
    let mut batches: Vec<(Instant, f64, Vec<Reply>)> = Vec::new();
    let mut calib = Calibrator::new(Work::Searches);
    let (wlog, max_qps) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            // Closed loop: one client sends a batch of three blocks of the
            // mix (60 queries) as soon as the last batch is answered. The
            // batch rate is the service's capacity beside the writer and
            // the batch times are the end-to-end latencies; every batch
            // has the same mix, and sums over three what-ifs, so their
            // percentiles are steady where single query latencies are not.
            // It runs first, so every run measures it at the same distance
            // from the bring-up sweep: repair without `verify` moves the
            // routes with every writer event, and the open-loop phases
            // before it would take a different time in every run.
            let window = CLOSED_SHARE * args.seconds;
            let stream = query_schedule(args.seed, 50, 2e4, window, &topo);
            let mut busy = 0.0;
            for batch in stream.chunks_exact(BATCH_BLOCKS * MIX_BLOCK.len()) {
                if busy >= window {
                    break;
                }
                let t = Instant::now();
                let replies: Vec<Reply> = batch.iter().map(|(_, q)| serve(q)).collect();
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                batches.push((t, dt, replies));
                calib.tick();
            }
            let mut phase = |rate: f64, secs: f64, id: u64| {
                let schedule = query_schedule(args.seed, id, rate, secs, &topo);
                openloop::run(Instant::now(), &schedule, &mut serve)
            };
            for (i, (&rate, &share)) in RATES.iter().zip(&RATE_SHARE).enumerate() {
                phases.push(phase(rate, share * args.seconds, i as u64));
                calib.sample();
            }
            // Climb from the highest fixed rate that met the limit until a
            // probe misses it, then bisect (geometrically) between the two.
            let met: Vec<bool> = RATES
                .iter()
                .zip(&phases)
                .map(|(&r, p)| meets_limit(p, r))
                .collect();
            let probe_secs = |rate: f64| (0.04 * args.seconds).max(PROBE_SAMPLES / rate);
            let mut probe = |rate: f64, id: u64| {
                let served = phase(rate, probe_secs(rate), id);
                let ok = meets_limit(&served, rate);
                probes.push((rate, ok));
                phases.push(served);
                calib.sample();
                ok
            };
            // Below the lowest fixed rate a probe needs too long for a
            // p99; the ladder then reports 0.
            let (mut lo, mut hi) = match met[..] {
                [_, true] => (RATES[1], None),
                [true, false] => (RATES[0], Some(RATES[1])),
                _ => (0.0, Some(0.0)),
            };
            let ladder = Instant::now();
            let climb = lo > 0.0;
            let in_budget =
                || climb && ladder.elapsed().as_secs_f64() < LADDER_SHARE * args.seconds;
            let mut id = 100;
            while hi.is_none() && id < 100 + LADDER_UP as u64 && in_budget() {
                let rate = lo * LADDER_STEP;
                if probe(rate, id) {
                    lo = rate;
                } else {
                    hi = Some(rate);
                }
                id += 1;
            }
            if let Some(mut h) = hi {
                for _ in 0..LADDER_BISECT {
                    if !in_budget() {
                        break;
                    }
                    let mid = (lo * h).sqrt();
                    if probe(mid, id) {
                        lo = mid;
                    } else {
                        h = mid;
                    }
                    id += 1;
                }
            }
            stop.store(true, Ordering::Release);
            lo
        });
        let wlog = writer(&mut sm, &svc, &victims, &stop, wtr);
        (wlog, client.join().expect("client thread panicked"))
    });
    out.layers.insert("hxcore.max_qps", max_qps);
    out.calib.absorb(calib);
    out.calib.absorb(wlog.calib);
    drop(reader);

    // Accounting: every query and every writer event is an operation.
    for p in &phases {
        for s in p {
            out.attempted += 1;
            if let Err(e) = &s.result {
                out.failures.push(e.clone());
            }
        }
    }
    for (t, dt, replies) in &batches {
        out.ops.push((*t, *dt));
        for r in replies {
            out.attempted += 1;
            if let Err(e) = r {
                out.failures.push(e.clone());
            }
        }
    }
    out.attempted += (wlog.publish_s.len() + wlog.errors.len()) as u64;
    out.failures.extend(wlog.errors.iter().cloned());

    // Output checks: the writer healed everything it failed, the service
    // serves the manager's final epoch, and its paths all resolve without
    // loops. Deadlock freedom of that churned epoch is recorded, not
    // required: repair without `verify` does not promise it.
    out.check(svc.epoch() == sm.epoch(), || {
        format!(
            "service at epoch {}, manager at {}",
            svc.epoch(),
            sm.epoch()
        )
    });
    out.check(
        topo.links()
            .all(|(id, _)| sm.topo().is_active(id) == topo.is_active(id)),
        || "writer left cables down".into(),
    );
    if let Some(routes) = sm.routes() {
        let paths = hxroute::verify_paths(sm.topo(), routes);
        out.op("verify_paths(final epoch)", paths);
        let dl = hxroute::verify_deadlock_free(sm.topo(), routes);
        out.params
            .push(("final_epoch_deadlock_free", format!("{:?}", dl.map(|_| ()))));
    }
    out.digest = replay_digest(args.seed, &topo, &victims, &mut out);

    let (hits, misses) = svc.cache_stats();
    let layers = &mut out.layers;
    layers.insert(
        "hxcore.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let pick = |p: &[Served<Reply>], f: fn(&Served<Reply>) -> f64| -> Vec<f64> {
        p.iter().map(f).collect()
    };
    for (metric, phase, pct) in [
        ("hxcore.query_p50_us.r500", 0, 50.0),
        ("hxcore.query_p99_us.r500", 0, 99.0),
        ("hxcore.query_p50_us.r1000", 1, 50.0),
        ("hxcore.query_p99_us.r1000", 1, 99.0),
    ] {
        if let Ok(v) = stats::percentile(&pick(&phases[phase], |s| s.latency_s), pct) {
            layers.insert(metric, v * 1e6);
        }
    }
    let wait = pick(&phases[1], |s| s.wait_s);
    layers.insert("hxcore.query_wait_us", stats::median(&wait) * 1e6);
    let lag: Vec<f64> = phases[..2]
        .iter()
        .flat_map(|p| pick(p, |s| s.lag_s))
        .collect();
    if let Ok(v) = stats::percentile(&lag, 99.0) {
        layers.insert("gen.lag_ms", v * 1e3);
    }
    if let Ok(v) = stats::percentile(&wlog.publish_s, 95.0) {
        layers.insert("hxcore.publish_p95_ms", v * 1e3);
    }
    if traced {
        layers.insert(
            "hxobs.trace_overhead",
            super::trace_overhead(&resolve_s[0], &resolve_s[1]),
        );
        out.tracer.absorb(rtr);
        out.tracer.absorb(wlog.tracer);
        for (metric, span, scale) in [
            ("hxtopo.build_ms", "hxtopo.build", 1e3),
            ("hxroute.sweep_s.dfsssp", "hxroute.sweep.dfsssp", 1.0),
            ("hxroute.pathdb_build_ms", "hxroute.pathdb_build", 1e3),
            ("hxroute.fail_ms", "hxroute.fail", 1e3),
            ("hxroute.recover_ms", "hxroute.recover", 1e3),
            ("hxcore.publish_ms", "hxcore.publish", 1e3),
            ("hxroute.what_if_ms", "hxroute.what_if", 1e3),
            ("hxcore.query_us.resolve", "hxcore.query.resolve", 1e6),
            ("hxcore.query_us.stats", "hxcore.query.stats", 1e6),
            ("hxcap.place_us.contiguous", "hxcap.place.contiguous", 1e6),
            ("hxcap.place_us.scattered", "hxcap.place.scattered", 1e6),
            (
                "hxcap.place_us.network-aware",
                "hxcap.place.network-aware",
                1e6,
            ),
        ] {
            out.layer_from_spans(metric, span, scale);
        }
    }
    out.params.push((
        "ladder",
        probes
            .iter()
            .map(|(r, ok)| format!("{r:.0}{}", if *ok { "+" } else { "-" }))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    out
}

/// Replays the first [`REPLAY_QUERIES`] of the 500 q/s schedule on one
/// thread against a freshly swept plane, folding every answer, plus the
/// writer's victim list. Equal for every run of one commit and seed.
fn replay_digest(seed: u64, topo: &Topology, victims: &[LinkId], out: &mut Outcome) -> u64 {
    let mut d = Digest::new();
    for v in victims {
        d.eat(v.0 as u64);
    }
    let mut sm = SubnetManager::new(topo.clone(), Box::<Dfsssp>::default());
    sm.verify = false;
    let svc = sm.sweep().and_then(|_| FabricService::from_manager(&sm));
    let Some(svc) = out.op("replay bring-up", svc) else {
        return d.value();
    };
    let mut reader = svc.reader();
    let secs = REPLAY_QUERIES as f64 / RATES[0];
    for (_, q) in query_schedule(seed, 0, RATES[0], secs, topo) {
        let a = reader.query(&q);
        if let Some(a) = out.op("replay query", a) {
            d.eat(a.fingerprint());
        }
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxtopo::hyperx::HyperXConfig;

    #[test]
    fn same_seed_same_query_schedule_and_fixed_writer_cycle() {
        let topo = HyperXConfig::new(vec![4, 4], 2).build();
        let a = query_schedule(3, 1, 1500.0, 0.5, &topo);
        assert_eq!(a.len(), 750);
        let what_ifs = a[..740]
            .iter()
            .filter(|(_, q)| matches!(q, Query::WhatIfFail { .. }))
            .count();
        assert_eq!(what_ifs, 37, "the mix is exact per block of 20");
        assert_eq!(a, query_schedule(3, 1, 1500.0, 0.5, &topo));
        assert_ne!(a, query_schedule(4, 1, 1500.0, 0.5, &topo));
        assert_ne!(a, query_schedule(3, 2, 1500.0, 0.5, &topo));
        let w = writer_cycle(&topo);
        assert_eq!(w.len(), WRITER_CABLES);
        assert!(w.iter().all(|&l| topo.link(l).class != LinkClass::Terminal));
    }
}
