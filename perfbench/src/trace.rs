//! The traced run's span recorder.
//!
//! A [`Tracer`] keeps one [`Span`] per timed call in memory: its name,
//! start, end, parent span and pass id. A pass is a root span, one unit
//! of a workload's work (a 44-cell simulate pass, one suite pass, one
//! sweep, one `serve` request). Spans are recorded from outside the
//! program, around the benchmark's own calls into each layer's public
//! functions. A disabled tracer costs one branch per call, so untraced
//! passes run the same code.
//!
//! [`Profile`] turns the spans into per-layer self times and checks the
//! conservation law: within each pass, the layers' self times plus the
//! remainder no layer covers (`other`) add up to the pass's wall time,
//! and `other` stays within [`CONSERVATION_BOUND`] of it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Largest share of the traced passes' wall time (per pass kind) that
/// may fall outside every layer span, the `other` remainder, before the
/// traced run counts a failed operation.
pub const CONSERVATION_BOUND: f64 = 0.10;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`"pipeline.sim"`); a pass root carries the
    /// pass kind instead.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a pass root.
    pub parent: Option<usize>,
    /// Pass this span belongs to.
    pub pass: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    passes: u32,
    last: Option<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recording tracer; all tracers of one run share `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            enabled: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            passes: 0,
            last: None,
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a pass: a root span that starts a new pass id.
    pub fn pass<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.stack.is_empty(), "a pass cannot nest inside a span");
        self.passes += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            pass: self.passes,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.last = Some(idx);
        out
    }

    /// Renames the span that closed last, for calls whose layer label
    /// depends on their outcome (a cache load that missed).
    pub fn relabel_last(&mut self, name: &'static str) {
        if let Some(idx) = self.last {
            self.spans[idx].name = name;
        }
    }

    /// Adds `n` to the counter `name` (work done at a layer boundary).
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Sum of self times, in nanoseconds.
    pub self_ns: u64,
    /// Spans recorded under the name.
    pub calls: u64,
}

/// One pass's wall time and its uncovered remainder.
#[derive(Clone, Debug)]
pub struct PassTotal {
    /// Pass kind (the root span's name).
    pub kind: &'static str,
    /// Wall time of the root span, in nanoseconds.
    pub wall_ns: u64,
    /// The root's own self time: wall time no layer span covers.
    pub other_ns: u64,
}

/// Spans of one run, merged from every thread's tracer.
#[derive(Default)]
pub struct Profile {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Profile {
    /// Folds a tracer's spans and counters into the profile, keeping
    /// its passes distinct from those already merged.
    pub fn absorb(&mut self, tracer: Tracer) {
        let offset = self.spans.len();
        let pass_offset = self.spans.iter().map(|s| s.pass).max().unwrap_or(0);
        self.spans.extend(tracer.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            pass: s.pass + pass_offset,
            ..s
        }));
        for (name, n) in tracer.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// A counter's total (0 when never counted).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Self time and calls per span name, pass roots excluded.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() {
                let layer = out.entry(s.name).or_default();
                layer.self_ns += s.dur_ns() - child_ns[i];
                layer.calls += 1;
            }
        }
        out
    }

    /// Mean self time per call of `name`, in milliseconds (0 if never
    /// called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.layers().get(name) {
            Some(l) if l.calls > 0 => l.self_ns as f64 / l.calls as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Every pass with its wall time and `other` remainder.
    pub fn passes(&self) -> Vec<PassTotal> {
        let child_ns = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| PassTotal {
                kind: s.name,
                wall_ns: s.dur_ns(),
                other_ns: s.dur_ns() - child_ns[i],
            })
            .collect()
    }

    /// Checks that spans nest (every child inside its parent, siblings
    /// in sequence), so that in every pass the layers' self times plus
    /// `other` add up to the pass's wall time exactly, and that for every
    /// pass kind the layers cover the passes' wall time within
    /// [`CONSERVATION_BOUND`]. The coverage is summed over the passes of
    /// a kind: a pass of a few milliseconds whose thread the OS preempts
    /// between two spans would otherwise fail on the scheduler's account.
    /// Returns one message per violation.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.start_ns < last_child_end[p] || s.end_ns > parent.end_ns {
                out.push(format!(
                    "span {i} `{}` escapes its parent `{}`",
                    s.name, parent.name
                ));
            }
            last_child_end[p] = s.end_ns;
        }
        let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for pass in self.passes() {
            let (wall, other) = kinds.entry(pass.kind).or_default();
            *wall += pass.wall_ns;
            *other += pass.other_ns;
        }
        for (kind, (wall_ns, other_ns)) in kinds {
            if other_ns as f64 > CONSERVATION_BOUND * wall_ns as f64 {
                out.push(format!(
                    "`{kind}` passes: layers cover {:.3} of {:.3} ms",
                    (wall_ns - other_ns) as f64 / 1e6,
                    wall_ns as f64 / 1e6
                ));
            }
        }
        out
    }

    /// Sum of the direct children's durations, per span.
    fn child_ns(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.dur_ns();
            }
        }
        sums
    }

    /// Writes the spans as a Chrome/Perfetto trace-event JSON file, one
    /// complete event per span with its pass and parent as arguments.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent}}}}}{}",
                s.name,
                s.pass,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_pass() {
        let mut t = Tracer::new(Instant::now());
        t.pass("pass", |t| {
            t.span("a.outer", |t| {
                spin(200);
                t.span("b.inner", |_| spin(300));
            });
            t.span("c.leaf", |_| spin(100));
        });
        let mut p = Profile::default();
        p.absorb(t);
        let layers = p.layers();
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        let pass = &p.passes()[0];
        assert_eq!(total + pass.other_ns, pass.wall_ns);
        assert_eq!(layers["b.inner"].calls, 1);
        assert!(p.violations().is_empty(), "{:?}", p.violations());
    }

    #[test]
    fn uncovered_time_is_a_violation() {
        let mut t = Tracer::new(Instant::now());
        t.pass("pass", |t| {
            spin(2_000);
            t.span("a.tiny", |_| ());
        });
        let mut p = Profile::default();
        p.absorb(t);
        assert_eq!(p.violations().len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.pass("pass", |t| t.span("a.x", |_| 7));
        assert_eq!(v, 7);
        let mut p = Profile::default();
        p.absorb(t);
        assert!(p.passes().is_empty());
    }

    #[test]
    fn merged_tracers_keep_passes_apart() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let mut b = Tracer::new(epoch);
        a.pass("p", |t| t.span("x.y", |_| spin(500)));
        b.pass("p", |t| t.span("x.y", |_| spin(500)));
        let mut p = Profile::default();
        p.absorb(a);
        p.absorb(b);
        assert_eq!(p.passes().len(), 2);
        assert_eq!(p.layers()["x.y"].calls, 2);
        assert!(p.violations().is_empty());
    }
}
