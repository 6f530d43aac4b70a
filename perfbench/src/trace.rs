//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls into
//! each layer's public functions; the program itself carries no tracing.
//! Every span has a name, a start and end on one clock, the id of the span
//! that caused it (0 for a root) and a trace id shared by the spans of one
//! request (for the serve workloads: one frame of one session). Spans stay
//! in memory and are written out once the run has passed its gate.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run. Past this, spans are counted but not stored, so
/// self times cover the stored spans only.
pub const MAX_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open {
    id: u32,
    trace: u64,
    name: &'static str,
    start: Instant,
}

/// Span and counter recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
    unstored: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            unstored: 0,
        }
    }

    /// A tracer for another thread of the same run: same clock, no spans.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn take_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str, trace: u64) -> Open {
        let id = if self.enabled { self.take_id() } else { 0 };
        if self.enabled {
            self.stack.push(id);
        }
        Open {
            id,
            trace,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.enabled {
            self.stack.pop();
            self.store(open.id, open.name, open.trace, open.start, end);
        }
        end.saturating_duration_since(open.start).as_nanos() as f64
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        trace: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let open = self.begin(name, trace);
        let out = f(self);
        self.end(open);
        out
    }

    /// Records a finished leaf span from timestamps the caller already took
    /// (so a loop that times itself does not read the clock twice).
    pub fn record(&mut self, name: &'static str, trace: u64, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.take_id();
            self.store(id, name, trace, start, end);
        }
    }

    fn store(&mut self, id: u32, name: &'static str, trace: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if self.spans.len() >= MAX_SPANS {
            self.unstored += 1;
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.unstored
    }

    /// Moves another thread's spans in under this tracer's innermost open
    /// span, renumbering their ids.
    pub fn adopt(&mut self, other: Tracer) {
        let offset = self.next_id - 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.next_id += other.next_id - 1;
        for mut s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.unstored += 1;
                continue;
            }
            s.id += offset;
            s.parent = if s.parent == 0 {
                parent
            } else {
                s.parent + offset
            };
            self.spans.push(s);
        }
        self.unstored += other.unstored;
    }

    /// Writes `header` (one JSON object), then one line per span, one per
    /// self-time summary and one per counter.
    pub fn write(
        &self,
        path: &Path,
        header: &str,
        counters: &BTreeMap<&str, f64>,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in self_times(&self.spans) {
            writeln!(
                out,
                "{{\"self_time\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        for (name, v) in counters {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{v}}}")?;
        }
        writeln!(out, "{{\"unstored_spans\":{}}}", self.unstored)?;
        out.flush()
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per name: summed duration and summed self time, where a span's self
/// time is its duration minus the part of its interval that its children
/// cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_within(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100] has children [10,30] and [20,50] (overlapping: 40
        // covered) and [90,120] (clipped to 10). child [10,30] has a
        // grandchild [15,25].
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),
            span(4, 1, "b", 90, 120),
            span(5, 2, "leaf", 15, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(t["a"].self_ns, 10);
        assert_eq!(
            t["b"],
            SelfTime {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(t["leaf"].self_ns, 10);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.span("outer", 1, |tr| {
            tr.span("inner", 1, |_| ());
            let now = Instant::now();
            tr.record("leaf", 2, now, now);
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        let outer = s.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(s
            .iter()
            .filter(|s| s.name != "outer")
            .all(|s| s.parent == outer.id));
        let t = self_times(s);
        assert!(t["outer"].self_ns <= t["outer"].total_ns);
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut main = Tracer::new(true, Instant::now());
        let mut worker = main.fork();
        worker.span("w", 3, |tr| tr.span("w.child", 3, |_| ()));
        let open = main.begin("join", 0);
        main.adopt(worker);
        main.end(open);
        let s = main.spans();
        let join = s.iter().find(|s| s.name == "join").unwrap();
        let w = s.iter().find(|s| s.name == "w").unwrap();
        let child = s.iter().find(|s| s.name == "w.child").unwrap();
        assert_eq!(w.parent, join.id);
        assert_eq!(child.parent, w.id);
        let mut ids: Vec<u32> = s.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.span("x", 0, |tr| tr.span("y", 0, |_| ()));
        assert!(tr.spans().is_empty());
        assert_eq!(tr.span_count(), 0);
    }
}
