//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent span, op id and
//! thread. Spans are buffered per op; when the op ends they are folded
//! into per-name totals (calls, busy time, self time) and the first few
//! ops are kept verbatim for a Chrome trace-event file that the Perfetto
//! UI opens. A span's self time is its duration minus the union of its
//! children's intervals, so concurrent children on worker threads are
//! not double-subtracted.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Ops whose spans are written to the trace file; later ops only feed
/// the totals, which keeps the file small enough to open.
const KEEP_OPS: u64 = 64;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every finished op.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// The root span of one finished op.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub total_ns: u64,
    /// Part of the op no stage span covers.
    pub unattributed_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    pending: Mutex<Vec<Span>>,
    kept: Mutex<Vec<Span>>,
    totals: Mutex<BTreeMap<&'static str, Totals>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// An open span; closing it (drop) records it.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, for parenting spans opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|stack| stack.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            op: self.op,
            tid: TID.with(|tid| *tid),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut pending) = self.tracer.pending.lock() {
            pending.push(span);
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            pending: Mutex::new(Vec::new()),
            kept: Mutex::new(Vec::new()),
            totals: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str, op: u64) -> Guard<'_> {
        let parent = STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0));
        self.span_under(name, op, parent)
    }

    /// Opens a span under an explicit parent (a span of another thread).
    pub fn span_under(&self, name: &'static str, op: u64, parent: u64) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|stack| stack.borrow_mut().push(id));
        Guard {
            tracer: self,
            id,
            parent,
            name,
            op,
            start_ns: self.now_ns(),
        }
    }

    /// Folds the spans of a finished op (every span closed, the root
    /// last) into the totals and returns the root's numbers.
    pub fn finish_op(&self, op: u64) -> OpSpan {
        let spans = std::mem::take(&mut *self.pending.lock().expect("span buffer poisoned"));
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in &spans {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
        let mut root = OpSpan {
            total_ns: 0,
            unattributed_ns: 0,
        };
        {
            let mut totals = self.totals.lock().expect("totals poisoned");
            for span in &spans {
                let busy = span.end_ns - span.start_ns;
                let covered = children
                    .get(&span.id)
                    .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
                let entry = totals.entry(span.name).or_default();
                entry.calls += 1;
                entry.busy_ns += busy;
                entry.self_ns += busy - covered;
                if span.parent == 0 {
                    root = OpSpan {
                        total_ns: busy,
                        unattributed_ns: busy - covered,
                    };
                }
            }
        }
        if op < KEEP_OPS {
            self.kept.lock().expect("kept spans poisoned").extend(spans);
        }
        root
    }

    /// Totals of one span name (zero when it never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .lock()
            .expect("totals poisoned")
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Writes the kept spans as Chrome trace-event JSON to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> Result<(), String> {
        use pim_report::json::JsonValue;
        let kept = self.kept.lock().expect("kept spans poisoned");
        let events = kept.iter().map(|span| {
            JsonValue::object([
                ("name", JsonValue::from(span.name)),
                (
                    "cat",
                    JsonValue::from(span.name.split('.').next().unwrap_or("")),
                ),
                ("ph", JsonValue::from("X")),
                ("ts", JsonValue::Number(span.start_ns as f64 / 1e3)),
                (
                    "dur",
                    JsonValue::Number((span.end_ns - span.start_ns) as f64 / 1e3),
                ),
                ("pid", 1u64.into()),
                ("tid", span.tid.into()),
                (
                    "args",
                    JsonValue::object([
                        ("op", span.op.into()),
                        ("id", span.id.into()),
                        ("parent", span.parent.into()),
                    ]),
                ),
            ])
        });
        let doc = JsonValue::object([
            ("traceEvents", JsonValue::array(events)),
            ("displayTimeUnit", JsonValue::from("ms")),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("op", 0);
            let _child = tracer.span("stage", 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let root = tracer.finish_op(0);
        assert!(root.total_ns >= 2_000_000);
        assert!(root.unattributed_ns < root.total_ns / 2);
        assert_eq!(tracer.totals("stage").calls, 1);
        assert!(tracer.totals("op").self_ns < tracer.totals("stage").self_ns);
    }
}
