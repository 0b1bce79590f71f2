//! Spans recorded around every call the benchmark makes into the program,
//! and the per-layer self-time ledger folded from them.
//!
//! Every span has a layer name, a start and an end, the span that caused
//! it, and the id of the row, batch or event it belongs to. A group of
//! spans closes when its root span ends; the group is then folded into
//! the ledger, and the first [`KEEP_SPANS`] spans are kept in memory to be
//! written out when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file; later spans still feed the ledger.
pub const KEEP_SPANS: usize = 200_000;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the call went into.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same list.
    pub parent: Option<usize>,
    /// The row, batch or event this span belongs to.
    pub id: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Every child interval, clipped to its parent, ordered by parent and
    // start; one sweep per parent then merges overlaps.
    let mut children: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|span| {
            let p = span.parent?;
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            Some((p, span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi)))
        })
        .collect();
    children.sort_unstable();
    let mut selves: Vec<u64> = spans.iter().map(Span::duration).collect();
    let mut reach = (usize::MAX, 0);
    for (p, start, end) in children {
        if reach.0 != p {
            reach = (p, spans[p].start_ns);
        }
        let start = start.max(reach.1);
        if end > start {
            selves[p] -= end - start;
            reach.1 = end;
        }
    }
    selves
}

/// Self time and call count of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Spans folded into this layer.
    pub calls: u64,
}

/// A started call; [`Tracer::end`] closes it.
pub struct Timer {
    start: Instant,
    span: Option<usize>,
}

/// Records spans when on; when off, only times calls.
pub struct Tracer {
    on: bool,
    origin: Instant,
    group: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    next_id: Cell<u64>,
    /// Where the next derived child of the innermost open span starts.
    derived_at: Cell<u64>,
    ledger: RefCell<BTreeMap<&'static str, LayerTime>>,
    kept: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            group: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            next_id: Cell::new(0),
            derived_at: Cell::new(0),
            ledger: RefCell::new(BTreeMap::new()),
            kept: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a call into layer `name`, as a child of the innermost open
    /// span (or as the root of a new group).
    pub fn begin(&self, name: &'static str) -> Timer {
        let start = Instant::now();
        if !self.on {
            return Timer { start, span: None };
        }
        let mut group = self.group.borrow_mut();
        let mut open = self.open.borrow_mut();
        let parent = open.last().copied();
        if parent.is_none() {
            self.next_id.set(self.next_id.get() + 1);
        }
        let start_ns = self.now_ns(start);
        group.push(Span { name, start_ns, end_ns: start_ns, parent, id: self.next_id.get() });
        open.push(group.len() - 1);
        self.derived_at.set(start_ns);
        Timer { start, span: Some(group.len() - 1) }
    }

    /// Ends a call and returns how long it took, in nanoseconds.
    pub fn end(&self, timer: Timer) -> u64 {
        self.close(timer, None)
    }

    /// Ends a call whose layer is known only once it returned.
    pub fn end_as(&self, timer: Timer, name: &'static str) -> u64 {
        self.close(timer, Some(name))
    }

    fn close(&self, timer: Timer, rename: Option<&'static str>) -> u64 {
        let end = Instant::now();
        let elapsed = u64::try_from(end.duration_since(timer.start).as_nanos()).unwrap_or(u64::MAX);
        let Some(idx) = timer.span else { return elapsed };
        let root_closed = {
            let mut group = self.group.borrow_mut();
            let mut open = self.open.borrow_mut();
            group[idx].end_ns = self.now_ns(end);
            if let Some(name) = rename {
                group[idx].name = name;
            }
            open.retain(|&i| i != idx);
            open.is_empty()
        };
        if root_closed {
            self.fold_group();
        }
        elapsed
    }

    /// Records `dur_ns` spent in layer `name` inside the innermost open
    /// span, as read from the program's own counters rather than timed
    /// here. Derived children are laid end to end from the span's start.
    pub fn derived(&self, name: &'static str, dur_ns: u64) {
        if !self.on || dur_ns == 0 {
            return;
        }
        let mut group = self.group.borrow_mut();
        let Some(&parent) = self.open.borrow().last() else { return };
        let start_ns = self.derived_at.get();
        let end_ns = start_ns.saturating_add(dur_ns);
        self.derived_at.set(end_ns);
        let id = group[parent].id;
        group.push(Span { name, start_ns, end_ns, parent: Some(parent), id });
    }

    fn fold_group(&self) {
        let mut group = self.group.borrow_mut();
        let selves = self_times(&group);
        let mut ledger = self.ledger.borrow_mut();
        for (span, self_ns) in group.iter().zip(selves) {
            let entry = ledger.entry(span.name).or_default();
            entry.self_ns += self_ns;
            entry.calls += 1;
        }
        let mut kept = self.kept.borrow_mut();
        if kept.len() + group.len() <= KEEP_SPANS {
            let base = kept.len();
            kept.extend(group.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        group.clear();
    }

    /// The per-layer self times folded so far.
    pub fn ledger(&self) -> BTreeMap<&'static str, LayerTime> {
        self.ledger.borrow().clone()
    }

    /// The spans kept for the trace file.
    pub fn into_spans(self) -> Vec<Span> {
        self.kept.into_inner()
    }
}

/// Writes `spans` as JSON lines.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, id: 1 }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        // row [0,100) > predict [10,30) > (nothing); udf [40,90) > io [50,60)
        let spans = vec![
            span("row", 0, 100, None),
            span("predict", 10, 30, Some(0)),
            span("udf", 40, 90, Some(0)),
            span("io", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("step", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            // Reaches past the parent's end: only [190, 200) is covered.
            span("c", 190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 40, 20, 70]);
    }

    #[test]
    fn ledger_folds_groups_and_derived_children() {
        let tracer = Tracer::new(true);
        let root = tracer.begin("serve.step");
        tracer.derived("core.insert", 1);
        let total = tracer.end(root);
        let ledger = tracer.ledger();
        assert_eq!(ledger["serve.step"].calls, 1);
        assert_eq!(ledger["core.insert"].self_ns, 1);
        assert_eq!(ledger["serve.step"].self_ns + 1, total.max(1));
        assert_eq!(tracer.kept.borrow().len(), 2);
        assert_eq!(tracer.kept.borrow()[1].parent, Some(0));
    }

    #[test]
    fn an_untraced_timer_records_nothing() {
        let tracer = Tracer::new(false);
        let t = tracer.begin("udfs");
        tracer.end(t);
        assert!(tracer.ledger().is_empty());
        assert!(tracer.into_spans().is_empty());
    }
}
