//! Fault-churn campaign engine: a deterministic MTBF/MTTR event stream of
//! cable failures and recoveries driven against a live workload on a
//! K-plane fabric. A single-plane campaign is the K = 1 case.
//!
//! The paper's fail-in-place argument (Section 4.4.3, citing Domke et al.
//! \[15\]) is about *sustained operation under churn*, not a single snapshot:
//! cables die, get swapped, and the subnet manager must keep the fabric
//! routed the whole time. A K-plane system (one NIC rail per plane) adds
//! the question the rail layer exists for: when one plane degrades, the
//! traffic riding it has somewhere else to go *right now*. This module
//! closes both loops with one engine:
//!
//! * K [`SubnetManager`]s (one per plane) absorb a seeded exponential fault
//!   process over the non-terminal cables; every event carries a plane id
//!   and runs through [`SubnetManager::fail_link`] /
//!   [`SubnetManager::recover_link`] (incremental patch where possible),
//! * the patched store is installed into that plane's [`PlaneSet`] shard
//!   and fabric rail ([`Fabric::install_pathdb`]) — sibling shards' epochs
//!   never move — and every in-flight flow on the plane is re-pathed
//!   through [`FluidNet::repath`], so the congestion engine's dirty-set
//!   machinery re-solves only what the reroute touched,
//! * flows are plane-tagged: each rides the [`FluidNet`] of the rail a
//!   [`RailPolicy`] picked at launch. With K >= 2, the flows whose paths
//!   crossed a dying cable *fail over* to a surviving plane instead of
//!   waiting out the in-place patch,
//! * a closed-loop workload (every completion immediately starts a
//!   replacement flow between a fresh random pair) measures throughput and
//!   latency degradation against the same workload on the healthy fabric.
//!
//! K = 1 draws no plane from the fault stream, builds its rail with the
//! configured messaging layer like every other K, recomputes rates once
//! per completion event, and carries no plane tags in traces or sketches.
//! A recovery the engine cannot route is rolled back by the manager and
//! counted as a skip (the stepper redraws instead), never a panic.
//!
//! Determinism: the fault schedule and the workload consume two independent
//! `ChaCha8Rng` streams, and both congestion backends solve bit-identical
//! rates, so a campaign's [`CampaignReport::fingerprint`] is byte-stable
//! per seed across `SolverKind::Exact` and `SolverKind::Incremental`.
//! Wall-clock reroute latencies are reported but excluded from the
//! fingerprint.

use hxmpi::{Fabric, MultiFabric, Placement, Pml, RailPolicy};
use hxobs::{Span, SpanCtx};
use hxroute::engines::RoutingEngine;
use hxroute::{DirLink, PlaneSet, RouteError, Routes, SubnetManager, SweepReport};
use hxsim::{FluidNet, NetParams, PathResolver, SolverKind};
use hxtopo::{LinkClass, LinkId, NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of one fault-churn campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; fault schedule and workload derive independent streams.
    pub seed: u64,
    /// Mean time between cable failures (simulated seconds, exponential).
    pub mtbf: f64,
    /// Mean time to repair a downed cable (simulated seconds, exponential).
    pub mttr: f64,
    /// Campaign length in simulated seconds.
    pub duration: f64,
    /// Concurrent closed-loop flows.
    pub flows: usize,
    /// Bytes per flow.
    pub bytes: u64,
    /// Cap on concurrently-downed cables; failures beyond it are skipped
    /// (the machine-room analogue: spares run out).
    pub max_down: usize,
    /// Congestion engine backing the fluid network.
    pub solver: SolverKind,
    /// Messaging layer selecting the destination LID per flow (`Ob1` for
    /// single-path engines; `FlowHash` spreads flows across a multipath
    /// engine's routing layers).
    pub pml: Pml,
    /// Optional communication profile handed to the SAR/PARX trigger
    /// before the workload starts. Engines without a demand-aware variant
    /// log the [`RouteError::NoDemandVariant`] miss and keep the plain
    /// sweep — the campaign proceeds either way (`None` skips the trigger
    /// entirely, the pre-PR-9 behavior).
    pub demand: Option<hxroute::Demand>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0x7258,
            mtbf: 0.02,
            mttr: 0.05,
            duration: 1.0,
            flows: 16,
            bytes: 8 << 20,
            max_down: 8,
            solver: SolverKind::default(),
            pml: Pml::Ob1,
            demand: None,
        }
    }
}

/// Parameters of one multi-plane fault-churn campaign.
#[derive(Debug, Clone)]
pub struct MultiPlaneConfig {
    /// Number of planes (NIC rails per node).
    pub planes: usize,
    /// Rail-selection policy for launches and failovers.
    pub rail: RailPolicy,
    /// Re-resolve affected in-flight flows onto a surviving plane when a
    /// cable under them dies (the rail-failover path). When off, affected
    /// flows wait for the in-place patch like single-plane campaigns.
    pub failover: bool,
    /// Migrate *every* flow riding a faulted plane, not just those whose
    /// paths crossed the dead cable. Forces failovers deterministically —
    /// the CI smoke knob (`--force-failover`).
    pub force_failover: bool,
    /// The per-plane knobs (seed, MTBF/MTTR, duration, flows, bytes,
    /// down-cable cap, congestion engine, messaging layer, demand profile).
    /// `max_down` caps the whole system's concurrently-downed cables.
    pub base: CampaignConfig,
}

impl Default for MultiPlaneConfig {
    fn default() -> MultiPlaneConfig {
        MultiPlaneConfig {
            planes: 2,
            rail: RailPolicy::RoundRobin,
            failover: true,
            force_failover: false,
            base: CampaignConfig::default(),
        }
    }
}

impl MultiPlaneConfig {
    /// The K = 1 system a single-plane campaign runs on.
    fn single(base: &CampaignConfig) -> MultiPlaneConfig {
        MultiPlaneConfig {
            planes: 1,
            base: base.clone(),
            ..MultiPlaneConfig::default()
        }
    }
}

/// Per-plane slice of a [`CampaignReport`].
#[derive(Debug, Clone, Default)]
pub struct PlaneReport {
    /// Routing engine label.
    pub engine: String,
    /// Cable failures applied on this plane.
    pub failures: u64,
    /// Cable recoveries applied on this plane.
    pub recoveries: u64,
    /// Flows completed on this plane under churn.
    pub completions: u64,
    /// The plane's shard epoch when the campaign ended.
    pub epoch: u64,
}

/// Outcome of a campaign: healthy-baseline vs under-churn workload metrics
/// plus routing-event accounting, system-wide and per plane.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Congestion engine label.
    pub solver: &'static str,
    /// Rail policy label.
    pub rail: &'static str,
    /// Bytes/second drained with no fault events.
    pub healthy_throughput: f64,
    /// Bytes/second drained under churn.
    pub faulted_throughput: f64,
    /// Mean flow completion time with no fault events (seconds).
    pub healthy_latency: f64,
    /// Mean flow completion time under churn (seconds).
    pub faulted_latency: f64,
    /// p50/p95/p99/p999 of simulated flow completion time (µs) with no
    /// fault events; `None` when nothing completed. Sketch-derived and
    /// excluded from [`CampaignReport::fingerprint`].
    pub healthy_tail: Option<[f64; 4]>,
    /// p50/p95/p99/p999 of simulated flow completion time (µs) under
    /// churn — the tournament's tail-latency axis. Excluded from the
    /// fingerprint.
    pub faulted_tail: Option<[f64; 4]>,
    /// Flows completed in the healthy baseline.
    pub healthy_completions: u64,
    /// Flows completed under churn.
    pub faulted_completions: u64,
    /// Cable failures applied.
    pub failures: u64,
    /// Cable recoveries applied.
    pub recoveries: u64,
    /// Failures skipped (would disconnect, or `max_down` reached) plus
    /// recoveries the engine could not route.
    pub skipped: u64,
    /// Fault events absorbed by the incremental patch path.
    pub incremental_events: u64,
    /// Destination trees repaired across all events.
    pub trees_patched: u64,
    /// In-flight flows re-resolved onto a surviving plane.
    pub failovers: u64,
    /// Largest number of concurrently-downed cables (system-wide).
    pub max_links_down: usize,
    /// Cables still down when the campaign ended.
    pub links_down_at_end: usize,
    /// Per-plane engines, event counts and final shard epochs.
    pub planes: Vec<PlaneReport>,
    /// Total wall-clock nanoseconds spent inside fail/recover, failover
    /// and repath (measurement only — excluded from
    /// [`CampaignReport::fingerprint`]).
    pub reroute_ns: u128,
}

impl CampaignReport {
    /// Fractional throughput lost to churn (0 = unharmed, 1 = dead).
    pub fn throughput_drop(&self) -> f64 {
        1.0 - self.faulted_throughput / self.healthy_throughput
    }

    /// Latency inflation factor under churn (1 = unharmed).
    pub fn latency_inflation(&self) -> f64 {
        self.faulted_latency / self.healthy_latency
    }

    /// FNV-1a over every deterministic field (rate bits included, wall
    /// clock and tails excluded): byte-equal across congestion backends
    /// per seed.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.rail.as_bytes());
        for v in [
            self.healthy_throughput,
            self.faulted_throughput,
            self.healthy_latency,
            self.faulted_latency,
        ] {
            eat(&v.to_bits().to_le_bytes());
        }
        for v in [
            self.healthy_completions,
            self.faulted_completions,
            self.failures,
            self.recoveries,
            self.skipped,
            self.incremental_events,
            self.trees_patched,
            self.failovers,
            self.max_links_down as u64,
            self.links_down_at_end as u64,
        ] {
            eat(&v.to_le_bytes());
        }
        for p in &self.planes {
            eat(p.engine.as_bytes());
            for v in [p.failures, p.recoveries, p.completions, p.epoch] {
                eat(&v.to_le_bytes());
            }
        }
        h
    }

    /// Books one applied fail/recover patch on plane `p`.
    fn note(&mut self, p: usize, r: &SweepReport, fail: bool) {
        if fail {
            self.failures += 1;
            self.planes[p].failures += 1;
        } else {
            self.recoveries += 1;
            self.planes[p].recoveries += 1;
        }
        self.trees_patched += r.patched_trees as u64;
        self.incremental_events += r.incremental as u64;
    }
}

/// One in-flight plane-tagged flow: the rank pair, launch metadata, and
/// the resolved hops (kept for the affected-by-victim failover check).
#[derive(Debug, Clone)]
struct FlowCtx {
    src: usize,
    dst: usize,
    seq: u64,
    started: f64,
    hops: Vec<DirLink>,
}

/// Stream-separation constants: the workload and the fault schedule derive
/// independent `ChaCha8Rng` streams from the master seed with these xors.
const WORK_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;
const FAULT_STREAM: u64 = 0x5851_f42d_4c95_7f2d;

/// Exponential inter-arrival sample (inverse CDF; `1 - u` dodges `ln(0)`).
fn exp_sample(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

/// The live K-plane system: K managers, K fluid nets, the sharded store
/// handle, and the rail-selecting fabric bundle.
struct ChurnSystem<'a> {
    sms: Vec<SubnetManager>,
    mf: &'a MultiFabric<'a>,
    set: PlaneSet,
    nets: Vec<FluidNet>,
    /// Per-plane flow contexts, indexed by that plane's net flow id.
    ctx: Vec<Vec<Option<FlowCtx>>>,
    cfg: MultiPlaneConfig,
    seq: u64,
}

impl ChurnSystem<'_> {
    /// A `campaign` span for work on plane `p`: a root when `parent` is
    /// `None`, else its child. Multi-plane systems stamp the plane id.
    fn span(&self, p: usize, parent: Option<SpanCtx>, name: &'static str) -> Span {
        let mut sp = match parent {
            Some(c) => Span::under(c, hxobs::track::RUNNER, 0, name, "campaign"),
            None => Span::root(hxobs::track::RUNNER, 0, name, "campaign"),
        };
        if let Some(tag) = self.sms[p].plane {
            sp.set_plane(tag);
        }
        sp
    }

    /// Rebuilds fresh fluid nets and launches the configured closed-loop
    /// flows — each workload phase (healthy baseline, churn replay) starts
    /// from the same initial population.
    fn reset(&mut self, work_rng: &mut ChaCha8Rng) {
        self.nets = (0..self.cfg.planes)
            .map(|p| {
                let mut net = FluidNet::with_solver(self.mf.rail(p).topo, self.cfg.base.solver);
                if let Some(tag) = self.sms[p].plane {
                    net.set_plane(tag);
                }
                net.set_obs_epoch(self.set.epoch(p));
                net
            })
            .collect();
        self.ctx = vec![Vec::new(); self.cfg.planes];
        self.seq = 0;
        for _ in 0..self.cfg.base.flows {
            self.launch(work_rng, 0.0);
        }
        for net in &mut self.nets {
            net.recompute();
        }
    }

    /// Starts one closed-loop flow between a fresh random distinct-rank
    /// pair on the rail the policy picks.
    fn launch(&mut self, rng: &mut ChaCha8Rng, now: f64) {
        let n = self.mf.rail(0).placement.num_ranks();
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n - 1);
        if dst >= src {
            dst += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        let flow = FlowCtx {
            src,
            dst,
            seq,
            started: now,
            hops: Vec::new(),
        };
        let plane = self.mf.select_rail(src, dst, seq);
        self.add(plane, flow, self.cfg.base.bytes);
    }

    /// Resolves `flow` on `plane` and adds it to that plane's net.
    fn add(&mut self, plane: usize, mut flow: FlowCtx, bytes: u64) {
        let rp = self
            .mf
            .resolve_on(plane, flow.src, flow.dst, bytes, flow.seq);
        flow.hops = rp.hops.clone();
        let id = self.nets[plane].add_flow(rp.hops, bytes);
        let ctx = &mut self.ctx[plane];
        if id == ctx.len() {
            ctx.push(Some(flow));
        } else {
            ctx[id] = Some(flow);
        }
    }

    /// The active non-terminal cables of plane `p` (fault candidates).
    fn candidates(&self, p: usize) -> Vec<LinkId> {
        let topo = self.sms[p].topo();
        topo.links()
            .filter(|&(id, l)| l.class != LinkClass::Terminal && topo.is_active(id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Live epoch propagation: installs plane `p`'s freshly-patched store
    /// into its shard and rail, then re-paths that plane's surviving flows
    /// through it. With observability on, the work emits `repath` and
    /// `resolve` spans under `parent` (the campaign `step`), completing the
    /// causal chain `step → fail_link → pathdb_patch → repath → resolve`.
    fn propagate(&mut self, p: usize, parent: SpanCtx) {
        let Some(db) = self.sms[p].pathdb().cloned() else {
            // Unreachable after the sweep every system starts from, but a
            // daemon embedding the stepper must degrade, not crash.
            debug_assert!(false, "propagate before the first sweep");
            return;
        };
        self.set.install(p, db.clone());
        self.mf.rail(p).install_pathdb(db.clone());
        self.nets[p].set_obs_epoch(db.epoch());
        if let Some(o) = hxobs::sink() {
            use hxobs::Recorder;
            o.gauge_set("pathdb.epoch", db.epoch() as f64);
        }
        let mut sp = self.span(p, Some(parent), "repath");
        sp.set_epoch(db.epoch());
        let mut repathed = 0u64;
        let rail = self.mf.rail(p);
        for (id, flow) in self.ctx[p].iter_mut().enumerate() {
            let Some(flow) = flow else { continue };
            let rp = rail.resolve(flow.src, flow.dst, self.cfg.base.bytes, flow.seq);
            self.nets[p].repath(id, &rp.hops);
            flow.hops = rp.hops;
            repathed += 1;
        }
        sp.arg("flows", hxobs::Json::from(repathed));
        sp.end();
        let mut resolve_sp = self.span(p, Some(parent), "resolve");
        resolve_sp.set_epoch(db.epoch());
        self.nets[p].recompute();
        resolve_sp.end();
    }

    /// Rail failover: moves flows off plane `p` onto a surviving plane,
    /// preserving their remaining bytes. Without `force_failover` only
    /// flows whose current path crosses `victim` move; with it, every flow
    /// on the plane does. Returns how many flows migrated (0 when no other
    /// plane is healthy, e.g. K = 1).
    fn failover(&mut self, p: usize, victim: LinkId, parent: SpanCtx) -> u64 {
        if self.mf.healthy_planes().iter().all(|&q| q == p) {
            return 0; // nowhere to go
        }
        let mut sp = self.span(p, Some(parent), "failover");
        sp.arg("link", hxobs::Json::from(victim.0 as u64));
        // The faulted plane must not win selection for the migrating flows.
        self.mf.fail_plane(p);
        let all = self.cfg.force_failover;
        let mut moved = 0u64;
        for id in 0..self.ctx[p].len() {
            let affected = match &self.ctx[p][id] {
                Some(f) => all || f.hops.iter().any(|h| h.link() == victim),
                None => continue,
            };
            if !affected {
                continue;
            }
            let flow = self.ctx[p][id].take().expect("checked above");
            let remaining = (self.nets[p].flow_remaining(id).unwrap_or(0.0) as u64).max(1);
            self.nets[p].remove(id);
            let q = self.mf.select_rail(flow.src, flow.dst, flow.seq);
            self.add(q, flow, remaining);
            self.nets[q].recompute();
            moved += 1;
        }
        if moved > 0 {
            self.nets[p].recompute();
        }
        self.mf.recover_plane(p);
        hxobs::count("campaign.failovers", moved);
        sp.arg("flows", hxobs::Json::from(moved));
        sp.end();
        moved
    }

    /// Kills `victim` on plane `p`, fails affected flows over, and
    /// propagates the patched shard. Returns the patch and the failover
    /// count; on error (a disconnecting kill) the manager rolled back.
    fn fail(
        &mut self,
        p: usize,
        victim: LinkId,
        step: SpanCtx,
    ) -> Result<(SweepReport, u64), RouteError> {
        let r = self.sms[p].fail_link_spanned(victim, step)?;
        let moved = if self.cfg.failover {
            self.failover(p, victim, step)
        } else {
            0
        };
        self.propagate(p, step);
        Ok((r, moved))
    }

    /// Restores `l` on plane `p` and propagates the patched shard. On
    /// error (the engine failed to re-route the restored fabric) the
    /// manager rolled back to its previous, already-propagated state.
    fn recover(&mut self, p: usize, l: LinkId, step: SpanCtx) -> Result<SweepReport, RouteError> {
        let r = self.sms[p].recover_link_spanned(l, step)?;
        self.propagate(p, step);
        Ok(r)
    }

    /// One scheduled fault-process failure on plane `p`: returns the victim
    /// if a cable actually went down.
    fn fail_event(
        &mut self,
        report: &mut CampaignReport,
        p: usize,
        fault_rng: &mut ChaCha8Rng,
        down: usize,
    ) -> Option<LinkId> {
        let candidates = self.candidates(p);
        if candidates.is_empty() || down >= self.cfg.base.max_down {
            report.skipped += 1;
            return None;
        }
        let victim = candidates[fault_rng.gen_range(0..candidates.len())];
        let t0 = std::time::Instant::now();
        let mut sp = self.step_span(p, "fail", victim);
        let result = self.fail(p, victim, sp.ctx());
        report.reroute_ns += t0.elapsed().as_nanos();
        let downed = match result {
            Ok((r, moved)) => {
                report.note(p, &r, true);
                report.failovers += moved;
                sp.set_epoch(r.epoch);
                Some(victim)
            }
            Err(_) => {
                report.skipped += 1;
                sp.arg("rolled_back", hxobs::Json::from(true));
                None
            }
        };
        sp.end();
        downed
    }

    /// One repair event: restores `l` on plane `p`. A recovery the engine
    /// cannot route is counted as a skip and the campaign carries on.
    fn recover_event(&mut self, report: &mut CampaignReport, p: usize, l: LinkId) {
        let t0 = std::time::Instant::now();
        let mut sp = self.step_span(p, "recover", l);
        let result = self.recover(p, l, sp.ctx());
        report.reroute_ns += t0.elapsed().as_nanos();
        match result {
            Ok(r) => {
                report.note(p, &r, false);
                sp.set_epoch(r.epoch);
            }
            Err(e) => {
                report.skipped += 1;
                sp.arg("recover_failed", hxobs::Json::from(e.to_string()));
            }
        }
        sp.end();
    }

    /// The root `step` span of one scheduled fault-process event.
    fn step_span(&self, p: usize, kind: &str, link: LinkId) -> Span {
        let mut sp = self.span(p, None, "step");
        sp.arg("kind", hxobs::Json::from(kind));
        sp.arg("link", hxobs::Json::from(link.0 as u64));
        sp.arg("engine", hxobs::Json::from(self.sms[p].engine_name()));
        sp
    }

    /// Runs the closed-loop workload over the K nets; `churn` switches the
    /// plane-tagged fault process on. Fills the report's faulted or
    /// healthy side accordingly, then heals every plane so back-to-back
    /// runs see the same starting state.
    fn run(&mut self, report: &mut CampaignReport, churn: bool) {
        let planes = self.cfg.planes;
        let base = self.cfg.base.clone();
        // Independent streams: the workload draw sequence must not shift
        // when the fault schedule consumes differently (and vice versa).
        let mut work_rng = ChaCha8Rng::seed_from_u64(base.seed ^ WORK_STREAM);
        let mut fault_rng = ChaCha8Rng::seed_from_u64(base.seed ^ FAULT_STREAM);
        self.reset(&mut work_rng);
        let mut bytes_done = 0u64;
        let mut completions = 0u64;
        let mut latency_sum = 0.0f64;
        // Local tail sketch: per-run (the global registry keys by epoch,
        // which collides when a tournament replays many engines).
        let mut tail = hxobs::Sketch::new();
        let mut next_fail = churn.then(|| exp_sample(&mut fault_rng, base.mtbf));
        // Downed cables with their scheduled repair times and planes; the
        // earliest repair is scanned out (at most `max_down` entries).
        let mut down: Vec<(f64, usize, LinkId)> = Vec::new();
        let mut drained: Vec<usize> = Vec::new();

        loop {
            let t_complete = self
                .nets
                .iter_mut()
                .filter_map(|net| net.next_completion())
                .fold(f64::INFINITY, f64::min);
            let t_fail = next_fail.unwrap_or(f64::INFINITY);
            let t_repair = down.iter().map(|d| d.0).fold(f64::INFINITY, f64::min);
            let t = t_complete.min(t_fail).min(t_repair);
            let stop = t >= base.duration;
            for net in &mut self.nets {
                net.advance_to(if stop { base.duration } else { t });
            }
            if stop {
                break;
            }
            if t_complete <= t_fail && t_complete <= t_repair {
                let mut finished = 0usize;
                for p in 0..planes {
                    self.nets[p].drained_into(&mut drained);
                    let epoch = self.set.epoch(p);
                    for &id in &drained {
                        let c = self.ctx[p][id].take().expect("drained flow has context");
                        let us = (t - c.started) * 1e6;
                        bytes_done += base.bytes;
                        completions += 1;
                        latency_sum += t - c.started;
                        if churn {
                            report.planes[p].completions += 1;
                        }
                        // Per-epoch tail of simulated flow completion times.
                        match self.sms[p].plane {
                            Some(tag) => {
                                hxobs::sketch_record_plane("flow.completion_us", epoch, tag, us)
                            }
                            None => hxobs::sketch_record("flow.completion_us", epoch, us),
                        }
                        tail.record(us);
                        self.nets[p].remove(id);
                    }
                    finished += drained.len();
                }
                // Closed loop: replacements keep the offered load constant
                // (rail policy re-selects, so a recovered plane wins back
                // traffic here). One re-solve per net per event.
                for _ in 0..finished {
                    self.launch(&mut work_rng, t);
                }
                for net in &mut self.nets {
                    net.recompute();
                }
            } else if t_fail <= t_repair {
                let p = if planes > 1 {
                    fault_rng.gen_range(0..planes)
                } else {
                    0
                };
                if let Some(victim) = self.fail_event(report, p, &mut fault_rng, down.len()) {
                    down.push((t + exp_sample(&mut fault_rng, base.mttr), p, victim));
                    report.max_links_down = report.max_links_down.max(down.len());
                }
                hxobs::gauge("campaign.links_down", down.len() as f64);
                next_fail = Some(t + exp_sample(&mut fault_rng, base.mtbf));
            } else {
                let i = down
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                    .map(|(i, _)| i)
                    .expect("repair event requires a downed cable");
                let (_, p, l) = down.swap_remove(i);
                self.recover_event(report, p, l);
                hxobs::gauge("campaign.links_down", down.len() as f64);
            }
        }
        // Account the tail: bytes moved by still-running flows count toward
        // throughput (the workload is a sustained stream, not a batch).
        for (net, ctx) in self.nets.iter().zip(&self.ctx) {
            for (id, c) in ctx.iter().enumerate() {
                if c.is_some() {
                    let left = net.flow_remaining(id).unwrap_or(0.0);
                    bytes_done += base.bytes.saturating_sub(left as u64);
                }
            }
        }
        report.links_down_at_end = down.len();
        // Heal the fabric so a faulted run leaves the managers as it found
        // them. These are ordinary recovery events and count as such.
        for (_, p, l) in std::mem::take(&mut down) {
            self.recover_event(report, p, l);
        }
        let throughput = bytes_done as f64 / base.duration;
        let latency = if completions > 0 {
            latency_sum / completions as f64
        } else {
            f64::INFINITY
        };
        if churn {
            report.faulted_throughput = throughput;
            report.faulted_latency = latency;
            report.faulted_completions = completions;
            report.faulted_tail = tail.tail();
        } else {
            report.healthy_throughput = throughput;
            report.healthy_latency = latency;
            report.healthy_completions = completions;
            report.healthy_tail = tail.tail();
        }
    }
}

/// Resolves the campaign routing engine from `$T2HX_ENGINE` (see
/// [`hxroute::engines::engine_from_env`]), falling back to `default` when
/// the variable is unset. Harness binaries use this so one environment
/// knob swaps the engine under every campaign, mirroring `$T2HX_SOLVER`.
///
/// # Panics
///
/// Panics when `$T2HX_ENGINE` names an unknown engine — a misspelled
/// selection must not silently run the default.
pub fn engine_from_env_or(
    default: impl FnOnce() -> Box<dyn RoutingEngine>,
) -> Box<dyn RoutingEngine> {
    match std::env::var("T2HX_ENGINE") {
        Ok(name) => hxroute::engine_by_name(&name).unwrap_or_else(|| {
            panic!(
                "unknown T2HX_ENGINE {name:?} (known: {:?})",
                hxroute::ENGINE_NAMES
            )
        }),
        Err(_) => default(),
    }
}

/// Fires the SAR/PARX demand trigger when the campaign carries a profile.
/// An engine without a demand-aware variant is a logged fallback, not a
/// campaign failure: the run keeps the plain sweep, mirroring the paper's
/// toolchain where `OSM0TRIGGER` support is engine-specific.
fn apply_demand_trigger(sm: &mut SubnetManager, cfg: &CampaignConfig) -> Result<(), RouteError> {
    let Some(d) = cfg.demand.clone() else {
        return Ok(());
    };
    match sm.reroute_with_demand(d) {
        Ok(_) => Ok(()),
        Err(RouteError::NoDemandVariant(engine)) => {
            eprintln!(
                "campaign: engine {engine} has no demand-aware variant; \
                 falling back to the non-demand sweep"
            );
            hxobs::count("campaign.demand_fallbacks", 1);
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Builds the K-plane live system (managers swept and demand-triggered,
/// rails bundled with the configured messaging layer) and hands it to `f`
/// — the borrow-friendly shape for the fabric's internal lifetimes.
fn with_system<R>(
    topo: &Topology,
    mut engine_for: impl FnMut(usize) -> Box<dyn RoutingEngine>,
    cfg: &MultiPlaneConfig,
    f: impl FnOnce(ChurnSystem<'_>) -> R,
) -> Result<R, RouteError> {
    assert!(cfg.planes >= 1, "a campaign needs at least one plane");
    let mut sms = Vec::with_capacity(cfg.planes);
    for p in 0..cfg.planes {
        let mut sm = SubnetManager::new(topo.clone(), engine_for(p));
        sm.verify = false; // throughput study; correctness pinned by tests
        sm.plane = (cfg.planes > 1).then_some(p as u32);
        sm.sweep()?;
        apply_demand_trigger(&mut sm, &cfg.base)?;
        sms.push(sm);
    }
    let states: Vec<(Topology, Routes)> = sms
        .iter()
        .map(|sm| (sm.topo().clone(), sm.routes().expect("swept").clone()))
        .collect();
    let nodes: Vec<NodeId> = states[0].0.nodes().collect();
    let placement = Placement::linear(&nodes, nodes.len());
    let dbs: Vec<_> = sms
        .iter()
        .map(|sm| sm.pathdb().expect("swept").clone())
        .collect();
    let rails: Vec<Fabric<'_>> = states
        .iter()
        .zip(&dbs)
        .map(|((t, r), db)| {
            Fabric::with_pathdb(
                t,
                r,
                placement.clone(),
                cfg.base.pml.clone(),
                NetParams::qdr().with_solver(cfg.base.solver),
                db.clone(),
            )
        })
        .collect();
    let mf = MultiFabric::new(rails, cfg.rail);
    Ok(f(ChurnSystem {
        sms,
        mf: &mf,
        set: PlaneSet::new(dbs),
        nets: Vec::new(),
        ctx: Vec::new(),
        cfg: cfg.clone(),
        seq: 0,
    }))
}

/// Runs a full campaign on one plane: sweeps the topology with `engine`
/// (applying the optional demand profile through the SAR trigger),
/// measures the healthy closed-loop baseline, then replays the same
/// workload under the seeded MTBF/MTTR churn process. The K = 1 case of
/// [`run_multiplane_campaign`].
pub fn run_campaign(
    topo: &Topology,
    engine: Box<dyn RoutingEngine>,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, RouteError> {
    let mut engine = Some(engine);
    run_multiplane_campaign(
        topo,
        |_| engine.take().expect("one plane"),
        &MultiPlaneConfig::single(cfg),
    )
}

/// Runs a full multi-plane campaign: K planes of `topo` routed by
/// `engine_for(p)`, a healthy closed-loop baseline, then the same workload
/// under plane-tagged churn with rail failover.
pub fn run_multiplane_campaign(
    topo: &Topology,
    engine_for: impl FnMut(usize) -> Box<dyn RoutingEngine>,
    cfg: &MultiPlaneConfig,
) -> Result<CampaignReport, RouteError> {
    with_system(topo, engine_for, cfg, |mut sys| {
        let mut report = CampaignReport {
            solver: cfg.base.solver.label(),
            rail: cfg.rail.label(),
            planes: sys
                .sms
                .iter()
                .map(|sm| PlaneReport {
                    engine: sm.routes().expect("swept").engine.to_string(),
                    ..PlaneReport::default()
                })
                .collect(),
            ..CampaignReport::default()
        };
        // Healthy baseline first, then the same workload replayed under
        // churn on the healed system.
        sys.run(&mut report, false);
        sys.run(&mut report, true);
        for (p, pr) in report.planes.iter_mut().enumerate() {
            pr.epoch = sys.set.epoch(p);
        }
        if let Some(o) = hxobs::sink() {
            use hxobs::Recorder;
            o.counter_add("campaign.failures", report.failures);
            o.counter_add("campaign.recoveries", report.recoveries);
            o.histogram_record("campaign.reroute_ns", report.reroute_ns as f64);
        }
        report
    })
}

/// Outcome of one [`CampaignStepper::step`]: what the fail → failover →
/// propagate → recover → propagate round-trip did.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// The plane the step degraded and healed.
    pub plane: usize,
    /// The cable the step killed and restored.
    pub victim: LinkId,
    /// Destination trees repaired across the fail and recover patches.
    pub trees_patched: usize,
    /// Whether the failure was absorbed by the incremental patch path.
    pub fail_incremental: bool,
    /// Whether the recovery was absorbed by the incremental patch path.
    pub recover_incremental: bool,
    /// In-flight flows the step re-resolved onto surviving planes.
    pub failovers: u64,
    /// The plane's path-store epoch after the step.
    pub epoch: u64,
}

/// The multi-plane name of [`StepReport`].
pub type MultiStepReport = StepReport;

/// A live campaign system exposing one churn round-trip at a time — the
/// single-step hook behind `hxperf`'s `campaign_step` and `rail_failover`
/// kernels and any driver that wants to interleave churn with its own
/// logic.
///
/// Construction (via [`with_stepper`] or [`with_multi_stepper`]) sweeps
/// every plane, bundles the rails, and launches the configured closed-loop
/// flows. Each [`step`](CampaignStepper::step) then kills one random
/// active non-terminal cable on the next plane (round-robin), fails the
/// affected flows over to surviving rails, propagates the patched epoch,
/// restores the same cable, and propagates again. The system ends every
/// step healthy, so steps repeat indefinitely; victims are drawn from the
/// same seeded fault stream the campaign scheduler uses.
pub struct CampaignStepper<'a> {
    sys: ChurnSystem<'a>,
    fault_rng: ChaCha8Rng,
    round: usize,
}

impl CampaignStepper<'_> {
    /// Applies one fail → failover → propagate → recover → propagate
    /// round-trip. Victims whose removal would disconnect the fabric, or
    /// whose restoration the engine cannot route, are redrawn (the manager
    /// rolls back on error), so a step always completes.
    pub fn step(&mut self) -> StepReport {
        let p = self.round % self.sys.cfg.planes;
        self.round += 1;
        loop {
            let candidates = self.sys.candidates(p);
            let victim = candidates[self.fault_rng.gen_range(0..candidates.len())];
            let mut sp = self.sys.span(p, None, "step");
            sp.arg("link", hxobs::Json::from(victim.0 as u64));
            let Ok((fail, failovers)) = self.sys.fail(p, victim, sp.ctx()) else {
                sp.arg("rolled_back", hxobs::Json::from(true));
                sp.end();
                continue; // disconnecting kill: rolled back, redraw
            };
            let recover = match self.sys.recover(p, victim, sp.ctx()) {
                Ok(r) => r,
                Err(e) => {
                    sp.arg("recover_failed", hxobs::Json::from(e.to_string()));
                    sp.end();
                    continue;
                }
            };
            let epoch = self.sys.set.epoch(p);
            sp.set_epoch(epoch);
            sp.end();
            return StepReport {
                plane: p,
                victim,
                trees_patched: fail.patched_trees + recover.patched_trees,
                fail_incremental: fail.incremental,
                recover_incremental: recover.incremental,
                failovers,
                epoch,
            };
        }
    }

    /// In-flight closed-loop flows across all planes.
    pub fn active_flows(&self) -> usize {
        self.sys.nets.iter().map(FluidNet::active_flows).sum()
    }
}

/// Builds a live single-plane campaign system on `topo` and hands a
/// [`CampaignStepper`] to `f`. The K = 1 case of [`with_multi_stepper`];
/// streams are seeded exactly like [`run_campaign`].
pub fn with_stepper<R>(
    topo: &Topology,
    engine: Box<dyn RoutingEngine>,
    cfg: &CampaignConfig,
    f: impl FnOnce(&mut CampaignStepper<'_>) -> R,
) -> Result<R, RouteError> {
    let mut engine = Some(engine);
    with_multi_stepper(
        topo,
        |_| engine.take().expect("one plane"),
        &MultiPlaneConfig::single(cfg),
        f,
    )
}

/// Builds a live K-plane system on `topo` and hands a [`CampaignStepper`]
/// to `f`. Streams are seeded exactly like [`run_multiplane_campaign`].
pub fn with_multi_stepper<R>(
    topo: &Topology,
    engine_for: impl FnMut(usize) -> Box<dyn RoutingEngine>,
    cfg: &MultiPlaneConfig,
    f: impl FnOnce(&mut CampaignStepper<'_>) -> R,
) -> Result<R, RouteError> {
    with_system(topo, engine_for, cfg, |mut sys| {
        sys.reset(&mut ChaCha8Rng::seed_from_u64(cfg.base.seed ^ WORK_STREAM));
        let mut stepper = CampaignStepper {
            sys,
            fault_rng: ChaCha8Rng::seed_from_u64(cfg.base.seed ^ FAULT_STREAM),
            round: 0,
        };
        f(&mut stepper)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxroute::engines::{Dfsssp, FatPaths, MinHop, Sssp};
    use hxtopo::hyperx::HyperXConfig;

    fn quick_cfg(solver: SolverKind) -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            mtbf: 0.003,
            mttr: 0.006,
            duration: 0.08,
            flows: 8,
            bytes: 1 << 20,
            max_down: 4,
            solver,
            pml: Pml::Ob1,
            demand: None,
        }
    }

    fn quick_multi(planes: usize, rail: RailPolicy) -> MultiPlaneConfig {
        MultiPlaneConfig {
            planes,
            rail,
            failover: true,
            force_failover: false,
            base: quick_cfg(SolverKind::Exact),
        }
    }

    fn engines(p: usize) -> Box<dyn RoutingEngine> {
        match p % 3 {
            0 => Box::<Dfsssp>::default(),
            1 => Box::<MinHop>::default(),
            _ => Box::<Sssp>::default(),
        }
    }

    fn hx4x4() -> Topology {
        HyperXConfig::new(vec![4, 4], 2).build()
    }

    #[test]
    fn campaign_reports_churn_and_heals() {
        let r = run_campaign(
            &hx4x4(),
            Box::new(Sssp::default()),
            &quick_cfg(SolverKind::Exact),
        )
        .unwrap();
        assert!(r.failures > 0, "no churn at mtbf << duration: {r:?}");
        assert_eq!(r.recoveries, r.failures, "heal must recover all: {r:?}");
        assert!(r.links_down_at_end <= r.max_links_down);
        assert!(r.incremental_events > 0, "ISL churn should patch in place");
        assert!(r.healthy_throughput > 0.0);
        assert!(r.faulted_throughput > 0.0);
        assert!(r.faulted_completions > 0);
        assert_eq!(r.failovers, 0, "one plane has nowhere to fail over to");
        assert_eq!(r.planes.len(), 1);
        assert_eq!(r.planes[0].completions, r.faulted_completions);
        // Degradation is physically bounded: churn can't add capacity.
        assert!(
            r.faulted_throughput <= r.healthy_throughput * 1.001,
            "churn increased throughput? {r:?}"
        );
    }

    #[test]
    fn stepper_steps_heal_and_bump_epochs() {
        let topo = hx4x4();
        let cfg = quick_cfg(SolverKind::Incremental);
        let reports = with_stepper(&topo, Box::new(Sssp::default()), &cfg, |s| {
            assert_eq!(s.active_flows(), cfg.flows);
            [s.step(), s.step(), s.step()]
        })
        .unwrap();
        let mut last_epoch = 0;
        for r in reports {
            // fail + recover each bump the epoch at least once.
            assert!(r.epoch >= last_epoch + 2, "{r:?}");
            assert_eq!((r.plane, r.failovers), (0, 0));
            last_epoch = r.epoch;
        }
        // Same seed, fresh stepper: the victim sequence replays.
        let again = with_stepper(&topo, Box::new(Sssp::default()), &cfg, |s| s.step()).unwrap();
        let first = with_stepper(&topo, Box::new(Sssp::default()), &cfg, |s| s.step()).unwrap();
        assert_eq!(again.victim, first.victim);
    }

    #[test]
    fn demand_trigger_falls_back_without_capability() {
        use hxroute::Demand;
        let topo = hx4x4();
        let mut d = Demand::new(topo.num_nodes());
        d.add(NodeId(0), NodeId(31), 16 << 20);
        let mut cfg = quick_cfg(SolverKind::Exact);
        cfg.demand = Some(d);
        // SSSP has no demand variant: the campaign must log-and-fallback,
        // producing exactly the non-demand campaign.
        let with = run_campaign(&topo, Box::new(Sssp::default()), &cfg).unwrap();
        let without = run_campaign(
            &topo,
            Box::new(Sssp::default()),
            &quick_cfg(SolverKind::Exact),
        )
        .unwrap();
        assert_eq!(with.fingerprint(), without.fingerprint());
        // PARX owns the trigger: the demand-aware campaign must run clean.
        use hxroute::engines::Parx;
        let parx = run_campaign(&topo, Box::new(Parx::default()), &cfg).unwrap();
        assert!(parx.failures > 0);
        assert_eq!(parx.recoveries, parx.failures);
        // Every rail of a multi-plane system fires the trigger too.
        let multi = MultiPlaneConfig {
            base: cfg,
            ..quick_multi(2, RailPolicy::RoundRobin)
        };
        let plain = quick_multi(2, RailPolicy::RoundRobin);
        let parx_for = |_| -> Box<dyn RoutingEngine> { Box::new(Parx::default()) };
        let a = run_multiplane_campaign(&topo, parx_for, &multi).unwrap();
        let b = run_multiplane_campaign(&topo, parx_for, &plain).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn campaign_is_deterministic_across_backends() {
        let topo = hx4x4();
        let a = run_campaign(
            &topo,
            Box::new(Dfsssp::default()),
            &quick_cfg(SolverKind::Exact),
        )
        .unwrap();
        let b = run_campaign(
            &topo,
            Box::new(Dfsssp::default()),
            &quick_cfg(SolverKind::Incremental),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "\n{a:?}\nvs\n{b:?}");
        assert_eq!(
            a.healthy_throughput.to_bits(),
            b.healthy_throughput.to_bits()
        );
        assert_eq!(
            a.faulted_throughput.to_bits(),
            b.faulted_throughput.to_bits()
        );
        // Same seed, same backend: exactly reproducible.
        let c = run_campaign(
            &topo,
            Box::new(Dfsssp::default()),
            &quick_cfg(SolverKind::Exact),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), c.fingerprint());
        // Different seed: different campaign.
        let mut cfg = quick_cfg(SolverKind::Exact);
        cfg.seed = 43;
        let d = run_campaign(&topo, Box::new(Dfsssp::default()), &cfg).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn two_plane_campaign_reports_churn_and_failovers() {
        let mut cfg = quick_multi(2, RailPolicy::RoundRobin);
        cfg.force_failover = true;
        let r = run_multiplane_campaign(&hx4x4(), engines, &cfg).unwrap();
        assert_eq!(r.planes.len(), 2);
        assert!(r.failures > 0, "no churn at mtbf << duration: {r:?}");
        assert!(r.failovers > 0, "forced failover must migrate flows: {r:?}");
        assert!(r.healthy_throughput > 0.0);
        assert!(r.faulted_throughput > 0.0);
        assert!(
            r.faulted_throughput <= r.healthy_throughput * 1.001,
            "churn increased throughput? {r:?}"
        );
        for (p, pr) in r.planes.iter().enumerate() {
            assert_eq!(pr.failures, pr.recoveries, "plane {p} heals: {r:?}");
            // Only churned planes' shards moved past the initial epoch 1.
            assert!(
                pr.epoch > pr.failures + pr.recoveries,
                "plane {p} epoch vs events {r:?}"
            );
        }
        let per_plane: u64 = r.planes.iter().map(|p| p.failures).sum();
        assert_eq!(per_plane, r.failures);
    }

    #[test]
    fn campaign_is_deterministic_per_seed_and_policy() {
        let topo = hx4x4();
        for rail in RailPolicy::all() {
            let cfg = quick_multi(2, rail);
            let a = run_multiplane_campaign(&topo, engines, &cfg).unwrap();
            let b = run_multiplane_campaign(&topo, engines, &cfg).unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint(), "{rail:?}");
            let mut c2 = cfg.clone();
            c2.base.solver = SolverKind::Incremental;
            let c = run_multiplane_campaign(&topo, engines, &c2).unwrap();
            assert_eq!(
                a.fingerprint(),
                c.fingerprint(),
                "{rail:?} across backends\n{a:?}\nvs\n{c:?}"
            );
        }
        let mut cfg = quick_multi(2, RailPolicy::RoundRobin);
        cfg.base.seed = 43;
        let d = run_multiplane_campaign(&topo, engines, &cfg).unwrap();
        let a = run_multiplane_campaign(&topo, engines, &quick_multi(2, RailPolicy::RoundRobin))
            .unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    /// Every rail routes with the configured messaging layer: spreading a
    /// multipath engine's flows across its LID layers must change the
    /// campaign.
    #[test]
    fn every_rail_honors_the_pml() {
        let topo = hx4x4();
        let fatpaths = |_| -> Box<dyn RoutingEngine> { Box::<FatPaths>::default() };
        let ob1 = quick_multi(2, RailPolicy::RoundRobin);
        let mut hash = ob1.clone();
        hash.base.pml = Pml::FlowHash;
        let a = run_multiplane_campaign(&topo, fatpaths, &ob1).unwrap();
        let b = run_multiplane_campaign(&topo, fatpaths, &hash).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint(), "\n{a:?}\nvs\n{b:?}");
    }

    /// A K = 1 multi-plane campaign is the single-plane campaign.
    #[test]
    fn one_plane_multi_campaign_is_the_single_plane_campaign() {
        let topo = hx4x4();
        let mut multi = quick_multi(1, RailPolicy::LeastLoaded);
        multi.force_failover = true;
        let a = run_multiplane_campaign(&topo, engines, &multi).unwrap();
        let mut single = run_campaign(&topo, engines(0), &multi.base).unwrap();
        single.rail = a.rail;
        assert_eq!(a.fingerprint(), single.fingerprint());
        assert_eq!(a.failovers, 0);
        let steps = |s: &mut CampaignStepper<'_>| {
            (0..4)
                .map(|_| s.step())
                .map(|r| (r.victim, r.epoch))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            with_multi_stepper(&topo, engines, &multi, steps).unwrap(),
            with_stepper(&topo, engines(0), &multi.base, steps).unwrap()
        );
    }

    #[test]
    fn stepper_heals_and_round_robins_planes() {
        let mut cfg = quick_multi(3, RailPolicy::FlowHash);
        cfg.force_failover = true;
        let reports = with_multi_stepper(&hx4x4(), engines, &cfg, |s| {
            assert_eq!(s.active_flows(), cfg.base.flows);
            let r = [s.step(), s.step(), s.step()];
            assert_eq!(s.active_flows(), cfg.base.flows);
            r
        })
        .unwrap();
        assert_eq!(
            reports.iter().map(|r| r.plane).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        for r in &reports {
            // fail + recover each bump the stepped plane's epoch.
            assert!(r.epoch >= 3, "{r:?}");
        }
        assert!(
            reports.iter().any(|r| r.failovers > 0),
            "forced failover must migrate at least one flow: {reports:?}"
        );
    }
}
