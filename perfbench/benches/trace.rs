//! Outside-in span tracing.
//!
//! Decorators around the program's public traits open a span for every
//! call that crosses a layer boundary. A span records its name, start,
//! end and the span that was open on the same thread when it started
//! (its parent). Spans stay in memory until [`Tracer::profile`] folds
//! them into per-name calls, total time and self time, where self time
//! is a span's duration minus the time its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Ids start at 1; parent 0 is "no parent".
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    id: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A shared, thread-safe span recorder. Cloning shares the recorder.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Pops the thread's open-span stack even if the traced call unwinds
/// (campaign runs are isolated with `catch_unwind`).
struct OpenGuard;

impl Drop for OpenGuard {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU32::new(1),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let guard = OpenGuard;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        drop(guard);
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.inner
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
        out
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.inner.epoch).as_nanos() as u64
    }

    /// Folds the recorded spans into per-name totals.
    pub fn profile(&self) -> Profile {
        let spans = self.inner.spans.lock().unwrap_or_else(|e| e.into_inner());
        let ids = self.inner.next_id.load(Ordering::Relaxed) as usize;
        let mut covered = vec![0u64; ids + 1];
        for s in spans.iter() {
            if let Some(c) = covered.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let self_ns = total.saturating_sub(covered[s.id as usize]);
            let stat = layers.entry(s.name).or_default();
            stat.calls += 1;
            stat.total_ns += total;
            stat.self_ns += self_ns;
        }
        Profile {
            layers,
            durations: spans
                .iter()
                .map(|s| (s.name, s.end_ns - s.start_ns))
                .collect(),
        }
    }
}

/// Calls, total and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerStat {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's, in ns.
    pub self_ns: u64,
}

/// The folded trace of one run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-name totals.
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Every span's `(name, duration in ns)`, in the order spans ended.
    pub durations: Vec<(&'static str, u64)>,
}

impl Profile {
    /// The totals for `name` (zero if no span had that name).
    pub fn get(&self, name: &str) -> LayerStat {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let p = t.profile();
        let outer = p.get("outer");
        let inner = p.get("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(inner.total_ns >= 20_000_000 && outer.self_ns >= 5_000_000);
    }

    #[test]
    fn an_unwinding_span_leaves_no_stale_parent() {
        let t = Tracer::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("boom", || panic!("isolated"))
        }));
        t.span("after", || ());
        let p = t.profile();
        // "boom" never ended, so only "after" is recorded, as a root span.
        assert_eq!(p.get("boom").calls, 0);
        assert_eq!(p.get("after").calls, 1);
        OPEN.with(|open| assert!(open.borrow().is_empty()));
    }
}
