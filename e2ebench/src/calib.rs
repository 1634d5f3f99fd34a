//! Host-speed calibration.
//!
//! The reference host's speed drifts by up to 1.8x, within seconds as well
//! as between minutes (other tenants share its cores, caches and memory),
//! which would swamp any change a commit makes. So every run also times a
//! fixed piece of work that belongs to the benchmark, not the program,
//! every 20 ms between operations, and five times in a row before and
//! after each set-up, each time right after an untimed run of the same
//! work that warms the caches. Each reported operation time is scaled by
//! the work's median time on the reference host over the median of the
//! calibration times sampled nearest to it, each set-up time by the same
//! over the median of the samples taken around the set-ups: it reads as a
//! time at the reference host's speed, and a change to the program cannot
//! move the calibration work. Raw times are kept in the result record.
//!
//! The work ([`Work::Mix`]) mixes what the program's operations do: a
//! random walk over a cache-resident table, allocating and filling a 2 MiB
//! buffer, and breadth-first searches over a 2-D HyperX switch graph. A
//! cache-resident walk alone followed the host only partly: over 3-second
//! windows of `fault_churn` on the reference host, the ratio of step time
//! to walk time spread 0.07-0.19 of its median (quartile distance),
//! against 0.03 for the mix (0.12 and 0.06 for `rails_3d` rounds).
//! Sampling every 20 ms catches speed changes that last a fraction of a
//! second.
//!
//! `hxd_serve`'s closed-loop batches slow more than single-threaded
//! operations in the host's slow periods (1.6-1.9x where the mix slows
//! 1.4-1.5x), so their median jumped with the share of slow periods in a
//! run. Graph searches alone slow by about as much as they do (1.7x), so
//! that workload calibrates with [`Work::Searches`]. In `fault_churn` the
//! searches alone over-correct (the step-to-searches ratio spread 0.13
//! across windows).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Minimum spacing of samples taken by [`Calibrator::tick`].
const EVERY: Duration = Duration::from_millis(20);
/// Samples taken in a row by [`Calibrator::sample_setup`].
const SETUP_BURST: usize = 5;
/// Table size of the walk (256 KiB).
const WORDS: usize = 1 << 15;
/// Dependent random accesses per walk.
const STEPS: usize = 50_000;
/// Words allocated and filled per sample (2 MiB).
const FILL: u64 = 1 << 18;
/// Side of the 2-D HyperX graph searched.
const SIDE: usize = 24;
/// Breadth-first searches per sample of [`Work::Mix`].
const SEARCHES: usize = 16;
/// Samples around a time whose median gives its host speed.
const NEAREST: usize = 5;

/// What one calibration sample runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A walk, a fill and 16 searches.
    Mix,
    /// 48 searches.
    Searches,
}

impl Work {
    /// Median time of one sample on the reference host, s.
    pub fn reference_s(self) -> f64 {
        match self {
            Work::Mix => 0.6e-3,
            Work::Searches => 0.8e-3,
        }
    }

    fn run(self, table: &mut [u64]) -> u64 {
        match self {
            Work::Mix => walk(table, STEPS) ^ fill(FILL) ^ search(SIDE, SEARCHES),
            Work::Searches => search(SIDE, 3 * SEARCHES),
        }
    }
}

/// Times the calibration work.
pub struct Calibrator {
    work: Work,
    table: Vec<u64>,
    /// `(start, calibration time in s)` between operations, in time order.
    samples: Vec<(Instant, f64)>,
    /// Calibration times around set-ups, s.
    setup_samples: Vec<f64>,
    last: Instant,
}

impl Calibrator {
    /// A calibrator running `work`, with its table allocated.
    pub fn new(work: Work) -> Calibrator {
        Calibrator {
            work,
            table: (0..WORDS as u64).collect(),
            samples: Vec::new(),
            setup_samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Runs the calibration work twice and records the time of the
    /// second run.
    pub fn sample(&mut self) {
        let (t, k) = self.warm_run();
        self.samples.push((t, k));
        self.last = Instant::now();
    }

    /// Runs the work once to warm the caches, then times a second run:
    /// its start and time in s. Timing a cold run would make the result
    /// depend on how much the workload touched since the last sample, and
    /// so on the workload's pace.
    fn warm_run(&mut self) -> (Instant, f64) {
        std::hint::black_box(self.work.run(&mut self.table));
        let t = Instant::now();
        std::hint::black_box(self.work.run(&mut self.table));
        (t, t.elapsed().as_secs_f64())
    }

    /// Takes five samples in a row and records each as one taken around a
    /// set-up.
    pub fn sample_setup(&mut self) {
        for _ in 0..SETUP_BURST {
            let (_, k) = self.warm_run();
            self.setup_samples.push(k);
        }
    }

    /// Samples when the last sample is older than 20 ms.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// Moves another calibrator's samples into this one.
    pub fn absorb(&mut self, other: Calibrator) {
        assert_eq!(self.work, other.work, "absorbing another work's samples");
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|&(t, _)| t);
    }

    /// Calibration times recorded so far, around set-ups first, s.
    pub fn samples(&self) -> Vec<f64> {
        let between = self.samples.iter().map(|&(_, k)| k);
        self.setup_samples.iter().copied().chain(between).collect()
    }

    /// Scale from a set-up time to the reference host's: the reference
    /// calibration time over the median of the samples taken around the
    /// set-ups. A set-up can last seconds without a sample inside it, and
    /// the host may change speed between it and the operations.
    pub fn setup_factor(&self) -> f64 {
        assert!(!self.setup_samples.is_empty(), "no set-up samples");
        self.work.reference_s() / crate::stats::median(&self.setup_samples)
    }

    /// Scale from a time measured at `at` to the reference host's: the
    /// reference calibration time over the median of the [`NEAREST`] samples
    /// taken nearest to `at` (a single sample can be inflated by a
    /// preemption), above 1 when the host ran faster than the reference.
    pub fn factor_at(&self, at: Instant) -> f64 {
        assert!(!self.samples.is_empty(), "no calibration samples");
        let n = self.samples.len();
        let i = self.samples.partition_point(|&(t, _)| t < at);
        let lo = i.saturating_sub(NEAREST / 2).min(n.saturating_sub(NEAREST));
        let near: Vec<f64> = self.samples[lo..(lo + NEAREST).min(n)]
            .iter()
            .map(|&(_, k)| k)
            .collect();
        self.work.reference_s() / crate::stats::median(&near)
    }
}

/// A xorshift-driven read-modify-write walk over `table`: dependent loads
/// plus integer arithmetic.
fn walk(table: &mut [u64], steps: usize) -> u64 {
    let n = table.len();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % n;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc ^ x;
    }
    acc
}

/// Allocates `words` words, fills them, folds them and frees them.
fn fill(words: u64) -> u64 {
    let v: Vec<u64> = (0..words).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
    v.iter().fold(0, |a, &b| a ^ b)
}

/// Breadth-first searches from `searches` sources over a `side` x `side`
/// 2-D HyperX (each switch linked to every other in its row and column);
/// returns the sum of all distances.
fn search(side: usize, searches: usize) -> u64 {
    let n = side * side;
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    let mut total = 0u64;
    for k in 0..searches {
        dist.fill(u32::MAX);
        let src = k * 7 % n;
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let (x, y) = (u % side, u / side);
            for j in 0..side {
                for v in [y * side + j, j * side + x] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        total += dist.iter().map(|&d| d as u64).sum::<u64>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_the_median_of_the_nearest_samples() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut c = Calibrator::new(Work::Mix);
        // A preempted sample (9 ms) among steady 1 ms ones is ignored.
        c.samples = [1e-3, 1e-3, 9e-3, 1e-3, 1e-3, 2e-3, 2e-3, 2e-3]
            .iter()
            .enumerate()
            .map(|(i, &k)| (ms(100 * i as u64), k))
            .collect();
        assert_eq!(c.factor_at(ms(210)), Work::Mix.reference_s() / 1e-3);
        assert_eq!(c.factor_at(ms(0)), Work::Mix.reference_s() / 1e-3);
        assert_eq!(c.factor_at(ms(5000)), Work::Mix.reference_s() / 2e-3);
        c.samples.truncate(2);
        assert_eq!(c.factor_at(ms(5000)), Work::Mix.reference_s() / 1e-3);
        let mut d = Calibrator::new(Work::Mix);
        d.sample();
        c.absorb(d);
        assert_eq!(c.samples().len(), 3);
        assert!(c.samples.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn set_ups_are_scaled_by_their_own_samples() {
        let t0 = Instant::now();
        let mut c = Calibrator::new(Work::Mix);
        c.samples = vec![(t0, 1e-3)];
        c.setup_samples = vec![2e-3, 2e-3, 9e-3];
        assert_eq!(c.setup_factor(), Work::Mix.reference_s() / 2e-3);
        c.sample_setup();
        assert_eq!(c.setup_samples.len(), 3 + SETUP_BURST);
        assert_eq!(c.samples().len(), 4 + SETUP_BURST);
    }
}
