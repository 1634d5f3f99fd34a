//! Pins the hxperf schema and the noise-aware comparator gate.
//!
//! The gate's contract: a genuine 2x cliff is flagged; same-distribution
//! jitter is not; and a `BENCH_*.json` survives a parse → re-emit cycle
//! byte-identically so committed trajectory points never churn.

use hxbench::perf::compare::{compare, find_baseline, has_regression, Gate, Verdict};
use hxbench::perf::{BenchFile, Host, KernelRecord, PR, SCHEMA_VERSION};
use hxobs::Summary;

/// Deterministic same-distribution "timing" samples: a base cost plus a
/// small seeded jitter, the shape real kernels produce on a quiet machine.
fn noisy_samples(base: f64, seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            // splitmix64 — same generator the bootstrap uses.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            // ±2% jitter around the base.
            base * (0.98 + 0.04 * (z >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

fn record(name: &str, samples: &[f64]) -> KernelRecord {
    KernelRecord {
        name: name.to_string(),
        scale: "hx-6x4-t2".to_string(),
        unit: "ns".to_string(),
        warmup: 3,
        stats: Summary::of(samples),
    }
}

/// A synthetic host stamp, so gate tests do not depend on the machine.
fn host(cpu_model: &str) -> Option<Host> {
    Some(Host {
        cpu_model: cpu_model.to_string(),
        cpus: 2,
    })
}

fn file_of(kernels: Vec<KernelRecord>) -> BenchFile {
    BenchFile {
        schema_version: SCHEMA_VERSION,
        pr: PR,
        quick: false,
        kernels,
        host: host("Synthetic CPU @ 2.0GHz"),
    }
}

#[test]
fn injected_2x_slowdown_is_flagged() {
    let old = file_of(vec![record("pathdb_build", &noisy_samples(1e6, 1, 20))]);
    let new = file_of(vec![record("pathdb_build", &noisy_samples(2e6, 2, 20))]);
    let deltas = compare(&old, &new, &Gate::default());
    assert_eq!(deltas.len(), 1);
    assert_eq!(deltas[0].verdict, Verdict::Regression);
    assert!(deltas[0].change_pct.unwrap() > 80.0);
    assert!(has_regression(&deltas));
    // And the mirror image reads as an improvement, not a regression.
    let deltas = compare(&new, &old, &Gate::default());
    assert_eq!(deltas[0].verdict, Verdict::Improvement);
    assert!(!has_regression(&deltas));
}

#[test]
fn same_distribution_noise_is_not_flagged() {
    // Two independent draws from the same ±2% distribution: medians differ
    // slightly, CIs overlap, and the gate must stay quiet.
    let old = file_of(vec![record("des_churn", &noisy_samples(5e8, 11, 20))]);
    let new = file_of(vec![record("des_churn", &noisy_samples(5e8, 12, 20))]);
    let deltas = compare(&old, &new, &Gate::default());
    assert_eq!(deltas[0].verdict, Verdict::Ok);
    assert!(!has_regression(&deltas));
}

#[test]
fn small_real_shift_under_threshold_is_noise() {
    // Tight CIs that separate, but only a 4% median move: below the 10%
    // threshold, so still Ok — this is the second arm of the two-condition
    // gate.
    let old = file_of(vec![record("recover_link", &noisy_samples(1e6, 3, 20))]);
    let new = file_of(vec![record("recover_link", &noisy_samples(1.04e6, 4, 20))]);
    let gate = Gate::default();
    let deltas = compare(&old, &new, &gate);
    assert_eq!(deltas[0].verdict, Verdict::Ok);
    // A tighter threshold turns the same data into a flag iff CIs separate.
    let strict = Gate { threshold_pct: 1.0 };
    let deltas = compare(&old, &new, &strict);
    let d = &deltas[0];
    if d.new.as_ref().unwrap().stats.ci_lo > d.old.as_ref().unwrap().stats.ci_hi {
        assert_eq!(d.verdict, Verdict::Regression);
    } else {
        assert_eq!(d.verdict, Verdict::Ok);
    }
}

#[test]
fn scale_mismatch_is_incomparable() {
    // A quick-plane record must never gate against a full-plane baseline.
    let old = file_of(vec![record("ebb_sample", &noisy_samples(1e6, 5, 20))]);
    let mut new = file_of(vec![record("ebb_sample", &noisy_samples(9e6, 6, 20))]);
    new.kernels[0].scale = "hx-12x8-t7+15aoc".to_string();
    let deltas = compare(&old, &new, &Gate::default());
    assert_eq!(deltas[0].verdict, Verdict::Incomparable);
    assert!(deltas[0].change_pct.is_none());
    assert!(!has_regression(&deltas));
}

#[test]
fn cross_host_points_are_incomparable() {
    // A 2x slower point from another (or an unstamped) host must not read
    // as a regression: the host stamps differ, exactly like a scale label.
    let old = file_of(vec![record("recompute_exact", &noisy_samples(1e6, 13, 20))]);
    let mut new = file_of(vec![
        record("recompute_exact", &noisy_samples(2e6, 14, 20)),
        record("parx_build", &noisy_samples(1e8, 15, 20)),
    ]);
    for new_host in [host("Other CPU @ 1.0GHz"), None] {
        new.host = new_host;
        for (a, b) in [(&old, &new), (&new, &old)] {
            let deltas = compare(a, b, &Gate::default());
            let shared = deltas.iter().find(|d| d.name == "recompute_exact").unwrap();
            assert_eq!(shared.verdict, Verdict::Incomparable);
            assert!(shared.change_pct.is_none());
            assert!(!has_regression(&deltas));
        }
    }
    // Once the stamps match, the same two points gate again.
    new.host = old.host.clone();
    assert!(has_regression(&compare(&old, &new, &Gate::default())));
}

#[test]
fn unstamped_files_still_parse() {
    // BENCH_5..13 predate the host stamp; they parse with `host: None`
    // and re-emit byte-identically, while stamped files round-trip too.
    let mut file = file_of(vec![record("pathdb_build", &noisy_samples(3e5, 16, 5))]);
    for stamp in [None, host("Synthetic \"quoted\" CPU")] {
        file.host = stamp;
        let text = file.to_text();
        assert_eq!(text.contains("\"host\""), file.host.is_some());
        let parsed = BenchFile::parse(&text).expect("parse own output");
        assert_eq!(parsed, file);
        assert_eq!(parsed.to_text(), text);
    }
    let committed = include_str!("../../../BENCH_13.json");
    assert_eq!(BenchFile::parse(committed).unwrap().host, None);
}

#[test]
fn added_and_removed_kernels_are_reported() {
    let old = file_of(vec![record("old_only", &noisy_samples(1e6, 7, 20))]);
    let new = file_of(vec![record("new_only", &noisy_samples(1e6, 8, 20))]);
    let deltas = compare(&old, &new, &Gate::default());
    assert_eq!(deltas.len(), 2);
    assert_eq!(deltas[0].name, "new_only");
    assert_eq!(deltas[0].verdict, Verdict::New);
    assert_eq!(deltas[1].name, "old_only");
    assert_eq!(deltas[1].verdict, Verdict::Removed);
}

#[test]
fn schema_round_trips_byte_identically() {
    let file = file_of(vec![
        record("fail_in_place", &noisy_samples(5.1e5, 9, 20)),
        record("pathdb_build", &noisy_samples(3.3e5, 10, 20)),
    ]);
    let text = file.to_text();
    let parsed = BenchFile::parse(&text).expect("parse own output");
    assert_eq!(parsed, file);
    assert_eq!(parsed.to_text(), text, "emit ∘ parse must be the identity");
}

#[test]
fn parse_rejects_foreign_schema_versions() {
    let mut file = file_of(vec![]);
    file.schema_version = SCHEMA_VERSION + 1;
    let err = BenchFile::parse(&file.to_text()).unwrap_err();
    assert!(err.contains("schema version"), "{err}");
}

#[test]
fn baseline_discovery_picks_highest_prior_pr() {
    let dir = std::env::temp_dir().join(format!("hxperf-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let empty = file_of(vec![]).to_text();
    for k in [3u64, 4, 5] {
        std::fs::write(dir.join(format!("BENCH_{k}.json")), &empty).unwrap();
    }
    std::fs::write(dir.join("README.md"), "not a bench file").unwrap();
    let out = dir.join("BENCH_5.json");
    // Excluding the file this run wrote, the baseline is the PR 4 point.
    let found = find_baseline(&dir, 5, Some(&out)).expect("a baseline");
    assert_eq!(found.file_name().unwrap(), "BENCH_4.json");
    // A fresh trajectory directory has no baseline at all.
    let found = find_baseline(&dir, 2, None);
    assert!(found.is_none());
    std::fs::remove_dir_all(&dir).ok();
}
