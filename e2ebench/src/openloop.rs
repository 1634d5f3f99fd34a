//! Open-loop request driving: a generator sends each request when it is
//! due, whether or not the server has caught up, and every latency is
//! charged from the due time. A stall therefore shows in the latency of
//! every request queued behind it, not only in its own.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Served<R> {
    /// When the request was due.
    pub due: Instant,
    /// How late the generator sent it, s.
    pub lag_s: f64,
    /// From due until the server started it, s.
    pub wait_s: f64,
    /// From due until finished, s: the request's latency.
    pub latency_s: f64,
    /// The server's answer.
    pub result: R,
}

/// Sends `schedule[i].1` at `start + schedule[i].0` from the calling
/// thread and serves the requests in order on one server thread running
/// `serve`. Offsets must be non-decreasing. Returns one record per
/// request, in schedule order, once all are served.
pub fn run<Q: Sync, R: Send>(
    start: Instant,
    schedule: &[(Duration, Q)],
    serve: &mut (dyn FnMut(&Q) -> R + Send),
) -> Vec<Served<R>> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            let mut out = Vec::with_capacity(schedule.len());
            for (idx, due, sent) in rx {
                let begin = Instant::now();
                let result = serve(&schedule[idx].1);
                let end = Instant::now();
                out.push(Served {
                    due,
                    lag_s: sent.saturating_duration_since(due).as_secs_f64(),
                    wait_s: begin.saturating_duration_since(due).as_secs_f64(),
                    latency_s: end.saturating_duration_since(due).as_secs_f64(),
                    result,
                });
            }
            out
        });
        for (idx, (offset, _)) in schedule.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            tx.send((idx, due, Instant::now()))
                .expect("server thread ended early");
        }
        drop(tx);
        server.join().expect("server thread panicked")
    })
}

/// Requests due within the schedule but still unfinished at its last due
/// time: the queue the server carries past the end of a phase.
pub fn backlog_at_end<R>(served: &[Served<R>]) -> usize {
    let Some(last) = served.iter().map(|s| s.due).max() else {
        return 0;
    };
    served
        .iter()
        .filter(|s| s.due + Duration::from_secs_f64(s.latency_s) > last)
        .count()
}

/// Evenly spaced arrivals at `rate` per second over `secs` seconds.
pub fn fixed_rate(rate: f64, secs: f64) -> Vec<Duration> {
    let n = (rate * secs).round() as usize;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_predecessor_is_charged_from_due_time() {
        let stall = Duration::from_millis(30);
        let schedule: Vec<(Duration, bool)> = vec![
            (Duration::ZERO, true),
            (Duration::from_millis(1), false),
            (Duration::from_millis(2), false),
        ];
        let mut serve = |stalls: &bool| {
            if *stalls {
                std::thread::sleep(stall);
            }
        };
        let served = run(Instant::now(), &schedule, &mut serve);
        assert_eq!(served.len(), 3);
        // Requests 1 and 2 were due 1 and 2 ms in but could only start
        // after the 30 ms stall: their latency counts that wait.
        for (i, s) in served.iter().enumerate().skip(1) {
            let floor = (stall - Duration::from_millis(i as u64)).as_secs_f64();
            assert!(s.wait_s >= floor, "request {i} waited {}", s.wait_s);
            assert!(s.latency_s >= s.wait_s);
        }
        assert!(served[0].latency_s >= stall.as_secs_f64());
    }

    #[test]
    fn fixed_rate_spacing() {
        let t = fixed_rate(500.0, 2.0);
        assert_eq!(t.len(), 1000);
        assert_eq!(t[1], Duration::from_millis(2));
    }
}
