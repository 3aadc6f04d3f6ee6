//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. Spans are
//! kept in memory (one buffer per thread, so worker threads never contend)
//! and collected once at the end of a traced run. Recording is off unless
//! [`enable`] was called; then [`span`] is a plain call.
//!
//! The layer of a span is its name up to the first `.` (`engine.run` →
//! `engine`). Spans opened on a thread with no open span (runner workers)
//! take the innermost open [`fan_out`] span as their parent, so the calls a
//! worker makes nest under the ensemble that spawned it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids grow in open order per process).
    pub id: u32,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Static span name, `layer.call`.
    pub name: &'static str,
    /// Open time.
    pub start: u64,
    /// Close time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
/// Parent for spans opened on a thread with an empty stack.
static FAN_OUT_PARENT: AtomicU32 = AtomicU32::new(NO_PARENT);
static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static BUFFER: Arc<Mutex<Vec<Span>>> = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry poisoned").push(Arc::clone(&buf));
        buf
    };
}

/// Start recording spans.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording spans.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Run `f` with recording off, restoring the previous state after.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::SeqCst);
    let out = f();
    ENABLED.store(was, Ordering::SeqCst);
    out
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take every span recorded so far, sorted by id.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry poisoned").iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    all.sort_unstable_by_key(|s| s.id);
    all
}

fn record<T>(name: &'static str, fan_out: bool, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| FAN_OUT_PARENT.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    let outer = fan_out.then(|| FAN_OUT_PARENT.swap(id, Ordering::SeqCst));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    if let Some(outer) = outer {
        FAN_OUT_PARENT.store(outer, Ordering::SeqCst);
    }
    STACK.with(|s| s.borrow_mut().pop());
    BUFFER.with(|b| {
        b.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name,
            start,
            end,
        })
    });
    out
}

/// Run `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, false, f)
}

/// Run `f` inside a span named `name` that also parents every span opened
/// meanwhile on threads with no open span of their own (the runner's
/// workers).
pub fn fan_out<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    record(name, true, f)
}

/// Total length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// A recorded span tree with its derived times.
pub struct Tree {
    spans: Vec<Span>,
    /// Index into `spans` of each span's children.
    children: Vec<Vec<usize>>,
}

impl Tree {
    /// Build the tree of `spans` (any order).
    pub fn new(mut spans: Vec<Span>) -> Tree {
        spans.sort_unstable_by_key(|s| s.id);
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Ok(p) = spans.binary_search_by_key(&s.parent, |p| p.id) {
                children[p].push(i);
            }
        }
        Tree { spans, children }
    }

    /// Every span, sorted by id.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans whose parent is missing, or that end outside their parent.
    pub fn misnested(&self) -> Vec<Span> {
        let mut bad = Vec::new();
        for s in &self.spans {
            if s.parent == NO_PARENT {
                continue;
            }
            match self.spans.binary_search_by_key(&s.parent, |p| p.id) {
                Ok(p) => {
                    let p = &self.spans[p];
                    if s.start < p.start || s.end > p.end {
                        bad.push(*s);
                    }
                }
                Err(_) => bad.push(*s),
            }
        }
        bad
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children on parallel threads overlap).
    pub fn self_times(&self) -> Vec<u64> {
        (0..self.spans.len())
            .map(|i| {
                let mut iv: Vec<(u64, u64)> = self.children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start, self.spans[c].end))
                    .collect();
                self.spans[i].dur().saturating_sub(union_len(&mut iv))
            })
            .collect()
    }

    /// Share out the wall time of the root span `root` among layers: each
    /// span keeps its self time, and the part its children cover is split
    /// among them in proportion to their durations (two parallel children
    /// each get half of the interval they share). The shares sum to the
    /// root's duration. Returns `(layer, nanoseconds)` pairs, sorted.
    pub fn attribute(&self, root: u32) -> Vec<(&'static str, f64)> {
        let mut acc: std::collections::BTreeMap<&'static str, f64> = Default::default();
        let self_times = self.self_times();
        let Ok(r) = self.spans.binary_search_by_key(&root, |s| s.id) else {
            return Vec::new();
        };
        let mut stack = vec![(r, 1.0f64)];
        while let Some((i, w)) = stack.pop() {
            let s = &self.spans[i];
            *acc.entry(s.layer()).or_default() += w * self_times[i] as f64;
            let covered = s.dur().saturating_sub(self_times[i]) as f64;
            let total: u64 = self.children[i].iter().map(|&c| self.spans[c].dur()).sum();
            if total > 0 {
                let scale = w * covered / total as f64;
                stack.extend(self.children[i].iter().map(|&c| (c, scale)));
            }
        }
        acc.into_iter().collect()
    }

    /// Summed duration (ns) of spans named `name`, and their count.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, c), s| (t + s.dur(), c + 1))
    }

    /// Durations (ns) of spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Write the spans as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "id,parent,name,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(w, "{},{parent},{},{},{}", s.id, s.name, s.start, s.end)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_parallel_children_once() {
        let t = Tree::new(vec![
            sp(0, NO_PARENT, "bench.pass", 0, 100),
            sp(1, 0, "runner.run_folded", 10, 90),
            sp(2, 1, "engine.run", 10, 60),
            sp(3, 1, "engine.run", 20, 80),
        ]);
        assert_eq!(t.self_times(), vec![20, 10, 50, 60]);
        let shares = t.attribute(0);
        let sum: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        let engine = shares.iter().find(|(l, _)| *l == "engine").unwrap().1;
        assert!((engine - 70.0).abs() < 1e-9);
        assert!(t.misnested().is_empty());
    }

    /// The one test that drives the process-wide recorder: spans opened on
    /// scoped worker threads nest under the fan-out span, every span ends
    /// inside its parent, and every self time is non-negative.
    #[test]
    fn recorded_spans_nest_across_threads() {
        enable();
        span("bench.pass", || {
            fan_out("runner.run_folded", || {
                std::thread::scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {
                            for _ in 0..50 {
                                span("bench.run", || {
                                    span("engine.run", || std::hint::black_box(1 + 1))
                                });
                            }
                        });
                    }
                });
            });
            span("sink.write", || ());
        });
        disable();
        let tree = Tree::new(drain());
        assert_eq!(tree.spans().len(), 1 + 1 + 2 * 50 * 2 + 1);
        assert!(tree.misnested().is_empty(), "{:?}", tree.misnested());
        let fan = tree
            .spans()
            .iter()
            .find(|s| s.name == "runner.run_folded")
            .unwrap();
        for s in tree.spans().iter().filter(|s| s.name == "bench.run") {
            assert_eq!(s.parent, fan.id);
        }
        let times = tree.self_times();
        for (s, t) in tree.spans().iter().zip(&times) {
            assert!(*t <= s.dur());
        }
        let root = tree
            .spans()
            .iter()
            .find(|s| s.name == "bench.pass")
            .unwrap();
        let total: f64 = tree.attribute(root.id).iter().map(|(_, ns)| ns).sum();
        assert!((total - root.dur() as f64).abs() <= 1.0);
    }

    #[test]
    fn misnesting_is_reported() {
        let t = Tree::new(vec![sp(0, NO_PARENT, "a.x", 0, 10), sp(1, 0, "b.y", 5, 12)]);
        assert_eq!(t.misnested().len(), 1);
    }
}
