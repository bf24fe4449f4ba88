//! In-memory spans around the harness's calls into each layer.
//!
//! A span records its name, start and end (on-CPU ns), the span that
//! enclosed it, the repetition (`run`) it belongs to and that run's arm.
//! The layer is the name's prefix before the first `.` (`kernel.run` is
//! in `kernel`); a root span (`rep`) is the harness itself. Spans are
//! written out once, at the end, as Chrome trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::cpu_ns;
use crate::report::{best_s, ratio, Layers};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Repetition id, shared by every span of one repetition.
    pub run: u32,
    /// Which arm of the run (`main`, `interpreter`, ...).
    pub arm: &'static str,
    /// `layer.call`, or `rep` for a repetition's root.
    pub name: String,
    /// On-CPU ns at entry.
    pub start: u64,
    /// On-CPU ns at exit.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "harness",
        }
    }

    /// Inclusive duration.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    run: u32,
    arm: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Starts a new repetition on `arm` and returns its run id.
    pub fn next_run(&mut self, arm: &'static str) -> u32 {
        self.run += 1;
        self.arm = arm;
        self.run
    }

    /// Runs `f` inside a span named `name` (recorded only when on).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            run: self.run,
            arm: self.arm,
            name: name.to_owned(),
            start: cpu_ns(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = cpu_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns();
            }
        }
        own
    }

    /// Inclusive ns of every span named `name` in run `run`.
    pub fn run_total(&self, run: u32, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Self time per layer summed over the runs of `arm`, and the summed
    /// duration of those runs' root spans.
    pub fn layer_self_ns(&self, arm: &str) -> (BTreeMap<String, u64>, u64) {
        let own = self.self_ns();
        let mut layers = BTreeMap::new();
        let mut roots = 0;
        for (s, own) in self.spans.iter().zip(own) {
            if s.arm != arm {
                continue;
            }
            if s.parent.is_none() {
                roots += s.ns();
            }
            *layers.entry(s.layer().to_owned()).or_insert(0) += own;
        }
        (layers, roots)
    }

    /// The spans as Chrome trace-event JSON (`X` events, µs).
    pub fn chrome_trace(&self, process: &str) -> String {
        let t0 = self.spans.first().map_or(0, |s| s.start);
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(process)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"run\":{},\"arm\":\"{}\"}}}}",
                escape(&s.name),
                escape(s.layer()),
                (s.start - t0) as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.run,
                s.arm
            );
        }
        out.push_str("]}");
        out
    }
}

/// Sets `trace.coverage`, the share of the main arm's traced time that
/// layer spans account for, and `trace.overhead`, the fastest traced main
/// repetition over the fastest untraced one.
pub fn trace_ratios(layers: &mut Layers, tracer: &Tracer, main_runs: &[u32], untraced_ns: &[u64]) {
    let (self_ns, roots) = tracer.layer_self_ns("main");
    let harness = self_ns.get("harness").copied().unwrap_or(0);
    layers.set(
        "trace.coverage",
        ratio((roots - harness) as f64, roots as f64),
    );
    let traced: Vec<u64> = main_runs
        .iter()
        .map(|&r| tracer.run_total(r, "rep"))
        .collect();
    layers.set(
        "trace.overhead",
        ratio(best_s(&traced), best_s(untraced_ns)),
    );
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = cpu_ns();
        while cpu_ns() - t < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_trace_validates() {
        let mut t = Tracer::new(true);
        let run = t.next_run("main");
        t.span("rep", |t| {
            t.span("kernel.run", |t| {
                spin(200_000);
                t.span("obs.snapshot", |_| spin(200_000));
            });
            spin(100_000);
        });
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].layer(), "obs");
        assert_eq!(own.iter().sum::<u64>(), spans[0].ns());
        assert_eq!(own[1], spans[1].ns() - spans[2].ns());
        assert_eq!(t.run_total(run, "kernel.run"), spans[1].ns());
        let (layers, roots) = t.layer_self_ns("main");
        assert_eq!(roots, spans[0].ns());
        assert_eq!(layers.values().sum::<u64>(), roots);
        let summary = ras_obs::validate_chrome_trace(&t.chrome_trace("perfbench"))
            .expect("valid Chrome trace");
        assert_eq!(summary.slices, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_run("main");
        assert_eq!(t.span("kernel.run", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
