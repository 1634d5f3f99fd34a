//! The traced run's span recorder: one span per call into a layer, kept
//! in memory and written out once at exit.
//!
//! A span is `(name, start, end, parent, thread)`; times are nanoseconds
//! since an epoch shared by every thread of the run. Each thread owns a
//! [`Tracer`]; [`Tracer::absorb`] merges them when the threads end. With
//! tracing off, `begin`/`end` do nothing and read no clock.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer name, e.g. `hxroute.fail`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Recording thread (0 = main).
    pub thread: u32,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-thread span buffer with an open-span stack.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for `thread`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run, with the same
    /// epoch and switch.
    pub fn sibling(&self, thread: u32) -> Tracer {
        Tracer::new(self.on, self.epoch, thread)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; only between top-level spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            thread: self.thread,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Every closed span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Moves another thread's spans into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (s) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::secs)
            .collect()
    }

    /// The spans as a JSON array (for the file written at exit).
    pub fn to_json(&self) -> hxobs::Json {
        use hxobs::Json;
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("thread", Json::from(s.thread as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Inclusive and self time of one layer, summed over its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Layer (span) name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed span durations, s.
    pub inclusive_s: f64,
    /// Inclusive time minus the time of direct child spans, s.
    pub self_s: f64,
}

/// Folds spans into per-layer inclusive and self time, sorted by name.
pub fn rollup(spans: &[SpanRec]) -> Vec<LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: std::collections::BTreeMap<&'static str, LayerTime> = Default::default();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_insert(LayerTime {
            name: s.name,
            count: 0,
            inclusive_s: 0.0,
            self_s: 0.0,
        });
        e.count += 1;
        e.inclusive_s += dur as f64 * 1e-9;
        e.self_s += dur.saturating_sub(c) as f64 * 1e-9;
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn rollup_subtracts_direct_children_only() {
        let spans = [
            rec("step", 0, 100, None),
            rec("fail", 10, 40, Some(0)),
            rec("inner", 15, 25, Some(1)),
            rec("recover", 50, 70, Some(0)),
        ];
        let r = rollup(&spans);
        let get = |n: &str| r.iter().find(|l| l.name == n).unwrap().clone();
        let ns = |n: u64| n as f64 * 1e-9;
        assert_eq!(get("step").self_s, ns(50));
        assert_eq!(get("fail").inclusive_s, ns(30));
        assert_eq!(get("fail").self_s, ns(20));
        assert_eq!(get("inner").self_s, ns(10));
    }

    #[test]
    fn nested_spans_link_parents_and_absorb_remaps() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        a.span("outer", || ());
        let mut b = a.sibling(1);
        b.begin("x");
        b.span("y", || ());
        b.end();
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].name, "y");
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[2].thread, 1);
        let mut off = Tracer::new(false, epoch, 0);
        off.span("z", || ());
        assert!(off.spans().is_empty());
    }
}
