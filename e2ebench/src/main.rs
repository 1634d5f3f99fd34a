//! End-to-end benchmark of the t2hx crates.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --compare <result.json> <result.json>
//! ```
//!
//! One process runs one workload (see `README.md` for why each exists):
//! it sets the system up several times, drives it for `--seconds`, checks
//! the outputs, and prints every metric by name and unit. The last line of
//! standard output is the machine-readable result; with `--trace 0` it
//! carries the end-to-end metrics, with `--trace 1` the per-layer ones
//! from the benchmark's own spans. A full record with provenance is
//! written under `.bench_out/`, and `--compare` refuses to compare two
//! records from different hosts. A failed output check makes the exit
//! status non-zero.

mod calib;
mod host;
mod openloop;
mod stats;
mod trace;
mod workloads;

use hxobs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics: every workload reports each, untraced.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics from the traced run. A layer a workload does not
/// call reads 0.
pub const LAYER_METRICS: [(&str, &str); 39] = [
    ("hxtopo.build_ms", "ms"),
    ("hxroute.sweep_s.ftree", "s"),
    ("hxroute.sweep_s.sssp", "s"),
    ("hxroute.sweep_s.dfsssp", "s"),
    ("hxroute.sweep_s.parx", "s"),
    ("hxroute.sweep_s.ft-hyperx", "s"),
    ("hxroute.vls.dfsssp", "count"),
    ("hxroute.vls.parx", "count"),
    ("hxroute.pathdb_build_ms", "ms"),
    ("hxroute.fail_ms", "ms"),
    ("hxroute.recover_ms", "ms"),
    ("hxroute.trees_patched", "count"),
    ("hxroute.incremental_ratio", "ratio"),
    ("hxroute.what_if_ms", "ms"),
    ("hxsim.repath_ms", "ms"),
    ("hxsim.des_ms", "ms"),
    ("hxsim.des_messages", "count"),
    ("hxmpi.fabric_ms", "ms"),
    ("hxmpi.round_estimate_ms", "ms"),
    ("hxmpi.failovers", "count"),
    ("hxload.ebb_ms", "ms"),
    ("hxload.mpigraph_ms", "ms"),
    ("hxcore.runner_ms", "ms"),
    ("hxcore.publish_ms", "ms"),
    ("hxcore.publish_p95_ms", "ms"),
    ("hxcore.query_us.resolve", "us"),
    ("hxcore.query_us.stats", "us"),
    ("hxcore.query_wait_us", "us"),
    ("hxcore.query_p50_us.r500", "us"),
    ("hxcore.query_p99_us.r500", "us"),
    ("hxcore.query_p50_us.r1000", "us"),
    ("hxcore.query_p99_us.r1000", "us"),
    ("hxcore.cache_hit_ratio", "ratio"),
    ("hxcore.max_qps", "1/s"),
    ("hxcap.place_us.contiguous", "us"),
    ("hxcap.place_us.scattered", "us"),
    ("hxcap.place_us.network-aware", "us"),
    ("gen.lag_ms", "ms"),
    ("hxobs.trace_overhead", "ratio"),
];

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_figs", "fault_churn", "hxd_serve", "rails_3d"];

/// Where result records and span files go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// FNV-1a fold used for every digest and fingerprint.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// A fold at the FNV-1a offset basis.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes.
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a word (little-endian bytes).
    pub fn eat(&mut self, v: u64) {
        self.eat_bytes(&v.to_le_bytes());
    }

    /// Folds a float by its IEEE bits.
    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A validated command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured part, s.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// The measured window as a `Duration`.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Everything one workload run measured and checked.
pub struct Outcome {
    /// Wall time (s) of each set-up.
    pub setups: Vec<f64>,
    /// Start and latency (s) of each operation of the measured part.
    pub ops: Vec<(Instant, f64)>,
    /// Percentile reported as `op_tail_ms` (the highest with at least ten
    /// samples beyond it at this workload's operation rate).
    pub tail_pct: f64,
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Failed operations and failed output checks, described.
    pub failures: Vec<String>,
    /// Digest of the workload's deterministic outputs.
    pub digest: u64,
    /// Workload parameters, for the record.
    pub params: Vec<(&'static str, String)>,
    /// Threads the workload ran at most at once.
    pub threads: usize,
    /// Per-layer values derived from the run (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The spans of the traced run.
    pub tracer: Tracer,
    /// Host-speed samples of this run.
    pub calib: calib::Calibrator,
}

impl Outcome {
    /// An empty outcome recording into `tracer`.
    pub fn new(tracer: Tracer) -> Outcome {
        Outcome {
            setups: Vec::new(),
            ops: Vec::new(),
            tail_pct: 99.0,
            attempted: 0,
            failures: Vec::new(),
            digest: 0,
            params: Vec::new(),
            threads: 1,
            layers: BTreeMap::new(),
            tracer,
            calib: calib::Calibrator::new(calib::Work::Mix),
        }
    }

    /// Samples the host speed and starts timing a set-up.
    pub fn setup_start(&mut self) -> Instant {
        self.calib.sample_setup();
        Instant::now()
    }

    /// Records a set-up that began at `start` and ends now, then samples
    /// the host speed.
    pub fn setup_done(&mut self, start: Instant) {
        self.setups.push(start.elapsed().as_secs_f64());
        self.calib.sample_setup();
    }

    /// Records an output check: counts it as attempted and, when it
    /// failed, as failed with its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records an operation's result the same way as a check.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Sets a per-layer metric to the median duration (in `scale` units
    /// per second) of the spans named `span`, if any were recorded.
    pub fn layer_from_spans(&mut self, metric: &'static str, span: &str, scale: f64) {
        let d = self.tracer.durations(span);
        if !d.is_empty() {
            self.layers.insert(metric, stats::median(&d) * scale);
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            f => return Err(format!("unknown argument {f:?}")),
        };
        let v = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark measures the crates of the checkout it runs in; outside
/// one (no workspace manifest, no crates) there is nothing to measure.
fn check_checkout(root: &Path) -> Result<(), String> {
    for p in [
        "Cargo.toml",
        "crates/core/Cargo.toml",
        "crates/route/Cargo.toml",
    ] {
        if !root.join(p).is_file() {
            return Err(format!("not a t2hx checkout: {p} is missing"));
        }
    }
    Ok(())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn run(args: &Args, root: &Path) -> Result<bool, String> {
    let prov = host::Provenance::collect(root);
    let wall = Instant::now();
    let tracer = Tracer::new(args.trace, wall, 0);
    let mut out = match args.workload.as_str() {
        "paper_figs" => workloads::paper_figs::run(args, tracer),
        "fault_churn" => workloads::fault_churn::run(args, tracer),
        "hxd_serve" => workloads::hxd_serve::run(args, tracer),
        "rails_3d" => workloads::rails_3d::run(args, tracer),
        w => unreachable!("workload {w} passed validation"),
    };
    let wall_s = wall.elapsed().as_secs_f64();

    let mut metrics: BTreeMap<String, Json> = BTreeMap::new();
    let mut raw_metrics: BTreeMap<String, Json> = BTreeMap::new();
    let mut lines = Vec::new();
    if args.trace {
        for (name, unit) in LAYER_METRICS {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            lines.push(format!("layer {name:<30} {v:>14.6} {unit}"));
            metrics.insert(name.to_string(), metric_json(v, unit));
        }
        for extra in out.layers.keys() {
            assert!(
                LAYER_METRICS.iter().any(|(n, _)| n == extra),
                "layer metric {extra} is not declared"
            );
        }
    } else {
        out.calib.sample();
        // Each operation time scaled by the host speed sampled nearest to
        // it, each set-up time by the speed sampled around the set-ups (see
        // `calib`); the unscaled values go to the record beside them.
        let scaled = |v: &[(Instant, f64)], on: bool| -> Vec<f64> {
            v.iter()
                .map(|&(t, s)| if on { s * out.calib.factor_at(t) } else { s })
                .collect()
        };
        let setup = if out.setups.is_empty() {
            Err("no set-up completed".to_string())
        } else {
            Ok((stats::median(&out.setups), out.calib.setup_factor()))
        };
        let rss = host::peak_rss_mb().ok_or_else(|| "no VmHWM in /proc/self/status".to_string());
        for (on, into) in [(true, &mut metrics), (false, &mut raw_metrics)] {
            let ops = scaled(&out.ops, on);
            let tail = |p: f64| {
                stats::percentile(&ops, p)
                    .map(|v| v * 1e3)
                    .map_err(|e| e.to_string())
            };
            let values = [
                (
                    "setup_s",
                    setup.clone().map(|(s, f)| if on { s * f } else { s }),
                ),
                ("peak_rss_mb", rss.clone()),
                ("ops_per_s", Ok(ops.len() as f64 / ops.iter().sum::<f64>())),
                ("op_p50_ms", tail(50.0)),
                ("op_tail_ms", tail(out.tail_pct)),
            ];
            for ((name, v), (decl, unit)) in values.into_iter().zip(E2E_METRICS) {
                assert_eq!(name, decl, "end-to-end metric order");
                match v {
                    Ok(v) if v.is_finite() && v > 0.0 => {
                        into.insert(name.to_string(), metric_json(v, unit));
                    }
                    Ok(v) if on => out.failures.push(format!("{name} measured {v}")),
                    Err(e) if on => out.failures.push(format!("{name}: {e}")),
                    _ => {}
                }
            }
        }
        for (name, unit) in E2E_METRICS {
            let num = |m: &BTreeMap<String, Json>| {
                m.get(name)
                    .and_then(|j| j.get("value"))
                    .and_then(Json::as_num)
            };
            if let (Some(v), Some(raw)) = (num(&metrics), num(&raw_metrics)) {
                lines.push(format!(
                    "metric {name:<12} {v:>14.6} {unit}  (unscaled {raw:.6})"
                ));
            }
        }
        lines.push(format!(
            "op_tail_ms is p{} of {} operations; setup_s is the median of {} set-ups; \
             {} calibration samples",
            out.tail_pct,
            out.ops.len(),
            out.setups.len(),
            out.calib.samples().len()
        ));
    }

    let failed = out.failures.len() as u64;
    let correct = failed == 0;
    let params = Json::Obj(
        out.params
            .iter()
            .map(|(k, v)| (k.to_string(), Json::from(v.as_str())))
            .collect(),
    );
    let provenance = Json::obj([
        ("commit", Json::from(prov.commit.as_str())),
        ("source_digest", Json::from(prov.source_digest.as_str())),
        ("cpu_model", Json::from(prov.cpu_model.as_str())),
        ("nproc", Json::from(prov.nproc)),
        ("threads", Json::from(out.threads)),
    ]);
    println!(
        "# e2ebench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance {provenance}");
    println!("params {params}");
    for l in &lines {
        println!("{l}");
    }
    if args.trace {
        print_rollup(&out);
    }
    println!("digest {:016x}", out.digest);
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "checks {}: {} attempted, {failed} failed; wall {wall_s:.2} s",
        if correct { "ok" } else { "FAILED" },
        out.attempted
    );

    let record = Json::obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("provenance", provenance),
        ("params", params),
        ("digest", Json::from(format!("{:016x}", out.digest))),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics.clone())),
        ("raw_metrics", Json::Obj(raw_metrics)),
        (
            "calibration_s",
            Json::Arr(out.calib.samples().into_iter().map(Json::from).collect()),
        ),
    ]);
    write_out(root, args, &record, &out.tracer)?;

    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(correct)
}

/// Prints inclusive and self time per layer, and each layer's share of
/// the median set-up.
fn print_rollup(out: &Outcome) {
    let setup = if out.setups.is_empty() {
        f64::NAN
    } else {
        stats::median(&out.setups)
    };
    println!(
        "{:<28} {:>7} {:>12} {:>12} {:>13}",
        "span", "count", "incl_s", "self_s", "incl/setup_s"
    );
    for l in trace::rollup(out.tracer.spans()) {
        println!(
            "{:<28} {:>7} {:>12.6} {:>12.6} {:>13.3}",
            l.name,
            l.count,
            l.inclusive_s,
            l.self_s,
            l.inclusive_s / l.count as f64 / setup
        );
    }
}

fn write_out(root: &Path, args: &Args, record: &Json, tracer: &Tracer) -> Result<(), String> {
    let dir = root.join(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let write = |name: String, body: String| {
        let p = dir.join(name);
        std::fs::write(&p, body).map_err(|e| format!("{}: {e}", p.display()))
    };
    write(format!("{stem}.json"), format!("{record}\n"))?;
    if args.trace {
        write(
            format!("{stem}.spans.json"),
            format!("{}\n", tracer.to_json()),
        )?;
    }
    Ok(())
}

/// `--compare a b`: relative change of every metric from `a` to `b`,
/// refused when the records come from different hosts or workloads.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<Json, String> {
        let s = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(s.trim()).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    let host = |r: &Json| {
        let p = r.get("provenance");
        (
            p.and_then(|p| p.get("cpu_model"))
                .and_then(Json::as_str)
                .map(str::to_string),
            p.and_then(|p| p.get("nproc")).and_then(Json::as_num),
        )
    };
    let (ha, hb) = (host(&ra), host(&rb));
    if ha.0.is_none() || ha.1.is_none() || ha != hb {
        return Err(format!(
            "incomparable: measured on different hosts ({ha:?} vs {hb:?})"
        ));
    }
    for key in ["workload", "trace", "seconds"] {
        if ra.get(key) != rb.get(key) {
            return Err(format!("incomparable: {key} differs"));
        }
    }
    let (Some(Json::Obj(ma)), Some(Json::Obj(mb))) = (ra.get("metrics"), rb.get("metrics")) else {
        return Err("a record has no metrics".into());
    };
    for (name, va) in ma {
        let num = |v: &Json| v.get("value").and_then(Json::as_num);
        match (num(va), mb.get(name).and_then(num)) {
            (Some(x), Some(y)) if x != 0.0 => {
                println!(
                    "{name:<30} {x:>14.6} -> {y:>14.6} ({:+.2}%)",
                    (y / x - 1.0) * 100.0
                )
            }
            (Some(x), Some(y)) => println!("{name:<30} {x:>14.6} -> {y:>14.6}"),
            _ => println!("{name:<30} missing in one record"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare(Path::new(a), Path::new(b)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::from(3)
                }
            },
            _ => {
                eprintln!("usage: e2ebench --compare <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    if let Err(e) = check_checkout(root) {
        eprintln!("e2ebench: {e}");
        return ExitCode::from(2);
    }
    match run(&args, root) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a metric name is one the result format accepts.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let names: Vec<&str> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let mut uniq = names.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len(), "duplicate metric names");
        for (_, u) in E2E_METRICS.iter().chain(LAYER_METRICS.iter()) {
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(!valid_name("query p99"));
        assert!(!valid_name(".hidden"));
    }

    /// `BENCHMARK.json` must declare exactly the workloads and metrics the
    /// binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let want = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&E2E_METRICS));
        assert_eq!(names("per_layer"), want(&LAYER_METRICS));
        let wl: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(wl, WORKLOADS);
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let ok = a("--workload rails_3d --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.trace), (7, true));
        assert!(a("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(a("--workload rails_3d --seed x --seconds 10 --trace 1").is_err());
        assert!(a("--workload rails_3d --seed 7 --seconds 10 --trace 2").is_err());
        assert!(a("--workload rails_3d --seed 7 --seconds 10").is_err());
    }
}
