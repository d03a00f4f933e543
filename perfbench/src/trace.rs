//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, its parent span, and a trace ID
//! shared by every span of one served request or one attacked image.
//! Spans are kept in memory while the run measures and written out as
//! JSON lines when it ends. When tracing is off (the default), [`span`]
//! returns `None` and [`record`] returns at once, so untraced runs pay one
//! relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Switch span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn ns_since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer lock poisoned by a panicking thread").push(span);
}

/// A fresh span ID, for spans whose children are recorded before the span
/// itself ends (see [`record`]).
pub fn new_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// An open span; records itself when dropped. Spans opened on this thread
/// while it lives become its children.
pub struct Guard {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        push(Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: ns_since_epoch(self.start),
            end_ns: ns_since_epoch(end),
        });
    }
}

/// Open a span named `name` under this thread's innermost open span, or
/// `None` when tracing is off.
pub fn span(name: &'static str, trace: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = new_id();
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Some(Guard { id, parent, trace, name, start: Instant::now() })
}

/// Record a span measured elsewhere, with an explicit ID and parent (for
/// spans that cross threads, like a served request whose send and reply
/// happen on different threads). No-op when tracing is off.
pub fn record(id: u64, parent: u64, trace: u64, name: &'static str, start: Instant, end: Instant) {
    if enabled() {
        push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
        });
    }
}

/// A copy of every span recorded so far, in ID order.
pub fn snapshot() -> Vec<Span> {
    let mut spans = SPANS.lock().expect("span buffer lock poisoned by a panicking thread").clone();
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of each span: its duration minus the time its direct children
/// cover. Children of one span do not overlap (they run on the span's
/// thread, one after another), so the children's durations add up.
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    spans
        .iter()
        .map(|s| (s.id, s.duration_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"trace":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 50, 70), span(4, 2, 15, 35)];
        let st = self_times_ns(&spans);
        assert_eq!(st[&1], 100 - 30 - 20);
        assert_eq!(st[&2], 30 - 20);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 20);
    }
}
