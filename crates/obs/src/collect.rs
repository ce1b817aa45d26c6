//! The [`Tracer`] trait (the pipeline's instrumentation interface), the
//! no-op [`NullTracer`], and the aggregating [`Collector`].
//!
//! Every stage crate takes `&dyn Tracer`, so the untraced path costs one
//! virtual call per probe and allocates nothing. The [`Collector`] is the
//! real implementation: thread-safe (the tuner evaluates candidates in
//! parallel), it records a span tree with wall times, monotonically
//! increasing counters, high-water-mark gauges, last-write-wins labels,
//! and a structured event log.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// A field value attached to events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        match self {
            Value::U64(v) => Json::uint(*v),
            Value::I64(v) => Json::int(*v),
            Value::F64(v) => Json::Num(*v),
            Value::Str(s) => Json::str(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

/// Opaque handle returned by [`Tracer::span_begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(pub(crate) u64);

/// The instrumentation interface threaded through the pipeline.
///
/// `Sync` so a tracer can be shared across the tuner's worker threads.
pub trait Tracer: Sync {
    /// Opens a span; the returned token must be passed to [`span_end`].
    ///
    /// [`span_end`]: Tracer::span_end
    fn span_begin(&self, name: &str) -> SpanToken;
    fn span_end(&self, token: SpanToken);
    /// Closes a span whose wall time was measured elsewhere, so a
    /// replayed span keeps the duration it had when it ran. Tracers that
    /// keep no durations just close it.
    fn span_end_measured(&self, token: SpanToken, _wall_ns: u64) {
        self.span_end(token);
    }
    /// Adds `delta` to a named counter.
    fn add(&self, counter: &str, delta: u64);
    /// Raises a named high-water-mark gauge to at least `value`.
    fn hwm(&self, gauge: &str, value: u64);
    /// Sets a string label (last write wins).
    fn label(&self, key: &str, value: &str);
    /// Records a structured event.
    fn event(&self, name: &str, fields: &[(&str, Value)]);
}

/// RAII guard closing a span on drop. Create with [`span`].
pub struct Span<'a> {
    tracer: &'a dyn Tracer,
    token: SpanToken,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.tracer.span_end(self.token);
    }
}

/// Opens a named span on `tracer`, closed when the guard drops.
pub fn span<'a>(tracer: &'a dyn Tracer, name: &str) -> Span<'a> {
    Span {
        tracer,
        token: tracer.span_begin(name),
    }
}

/// Discards everything. The untraced entry points pass this.
pub struct NullTracer;

impl Tracer for NullTracer {
    fn span_begin(&self, _name: &str) -> SpanToken {
        SpanToken(u64::MAX)
    }
    fn span_end(&self, _token: SpanToken) {}
    fn add(&self, _counter: &str, _delta: u64) {}
    fn hwm(&self, _gauge: &str, _value: u64) {}
    fn label(&self, _key: &str, _value: &str) {}
    fn event(&self, _name: &str, _fields: &[(&str, Value)]) {}
}

/// The shared no-op tracer for untraced pipeline entry points.
pub fn null() -> &'static NullTracer {
    static NULL: NullTracer = NullTracer;
    &NULL
}

/// One recorded span occurrence.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    /// Index of the enclosing span in [`Collector::spans`], if any.
    pub parent: Option<usize>,
    /// Global begin order (0-based).
    pub seq: u64,
    /// Wall time; `None` while the span is still open.
    pub wall_ns: Option<u64>,
    started: Instant,
    thread: ThreadId,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct EventRec {
    pub name: String,
    pub seq: u64,
    pub fields: Vec<(String, Value)>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    /// Open-span stack per thread (spans nest within a thread).
    stacks: HashMap<ThreadId, Vec<usize>>,
    counters: BTreeMap<String, u64>,
    hwm: BTreeMap<String, u64>,
    labels: BTreeMap<String, String>,
    events: Vec<EventRec>,
    seq: u64,
}

/// Aggregated wall time for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAgg {
    pub name: String,
    pub calls: u64,
    pub wall_ns: u64,
}

/// Everything a [`Collector`] gathered, in plain data form.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub spans: Vec<SpanSnapshot>,
    pub counters: BTreeMap<String, u64>,
    pub hwm: BTreeMap<String, u64>,
    pub labels: BTreeMap<String, String>,
    pub events: Vec<EventRec>,
}

/// A completed (or still-open) span in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    pub name: String,
    pub parent: Option<usize>,
    pub seq: u64,
    pub wall_ns: u64,
    /// Nesting depth (root = 0).
    pub depth: usize,
}

impl Snapshot {
    /// Wall time per span name, aggregated over occurrences, in order of
    /// first appearance.
    pub fn stages(&self) -> Vec<StageAgg> {
        let mut order: Vec<String> = Vec::new();
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            if !agg.contains_key(s.name.as_str()) {
                order.push(s.name.clone());
            }
            let e = agg.entry(s.name.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.wall_ns;
        }
        order
            .into_iter()
            .map(|name| {
                let (calls, wall_ns) = agg[name.as_str()];
                StageAgg {
                    name,
                    calls,
                    wall_ns,
                }
            })
            .collect()
    }
}

/// A thread-safe aggregating [`Tracer`].
pub struct Collector {
    inner: Mutex<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means another thread panicked mid-record;
        // the telemetry itself is still usable.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Copies out everything recorded so far. Open spans get their wall
    /// time as of now.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut depth = vec![0usize; inner.spans.len()];
        let spans = inner
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                depth[i] = s.parent.map(|p| depth[p] + 1).unwrap_or(0);
                SpanSnapshot {
                    name: s.name.clone(),
                    parent: s.parent,
                    seq: s.seq,
                    wall_ns: s
                        .wall_ns
                        .unwrap_or_else(|| s.started.elapsed().as_nanos() as u64),
                    depth: depth[i],
                }
            })
            .collect();
        Snapshot {
            spans,
            counters: inner.counters.clone(),
            hwm: inner.hwm.clone(),
            labels: inner.labels.clone(),
            events: inner.events.clone(),
        }
    }

    /// Closes a span with its measured wall time, or the time since it
    /// opened when none is given.
    fn close(&self, token: SpanToken, wall_ns: Option<u64>) {
        if token.0 == u64::MAX {
            return;
        }
        let idx = token.0 as usize;
        let mut inner = self.lock();
        let Some(rec) = inner.spans.get(idx) else {
            return;
        };
        let elapsed = wall_ns.unwrap_or_else(|| rec.started.elapsed().as_nanos() as u64);
        let tid = rec.thread;
        // Clamp to >= 1ns so "this stage ran" is always observable even
        // when Instant's resolution rounds a tiny span to zero.
        inner.spans[idx].wall_ns = Some(elapsed.max(1));
        if let Some(stack) = inner.stacks.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.truncate(pos);
            }
        }
    }
}

impl Tracer for Collector {
    fn span_begin(&self, name: &str) -> SpanToken {
        let tid = std::thread::current().id();
        let mut inner = self.lock();
        let idx = inner.spans.len();
        let seq = inner.seq;
        inner.seq += 1;
        let parent = inner.stacks.get(&tid).and_then(|s| s.last().copied());
        inner.spans.push(SpanRec {
            name: name.to_string(),
            parent,
            seq,
            wall_ns: None,
            started: Instant::now(),
            thread: tid,
        });
        inner.stacks.entry(tid).or_default().push(idx);
        SpanToken(idx as u64)
    }

    fn span_end(&self, token: SpanToken) {
        self.close(token, None);
    }

    fn span_end_measured(&self, token: SpanToken, wall_ns: u64) {
        self.close(token, Some(wall_ns));
    }

    fn add(&self, counter: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(counter) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(counter.to_string(), delta);
            }
        }
    }

    fn hwm(&self, gauge: &str, value: u64) {
        let mut inner = self.lock();
        match inner.hwm.get_mut(gauge) {
            Some(v) => *v = (*v).max(value),
            None => {
                inner.hwm.insert(gauge.to_string(), value);
            }
        }
    }

    fn label(&self, key: &str, value: &str) {
        self.lock()
            .labels
            .insert(key.to_string(), value.to_string());
    }

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(EventRec {
            name: name.to_string(),
            seq,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_order() {
        let c = Collector::new();
        {
            let _outer = span(&c, "outer");
            {
                let _a = span(&c, "inner_a");
            }
            {
                let _b = span(&c, "inner_b");
            }
        }
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), 3);
        let outer = &snap.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        let a = &snap.spans[1];
        let b = &snap.spans[2];
        assert_eq!(
            (a.name.as_str(), a.parent, a.depth),
            ("inner_a", Some(0), 1)
        );
        assert_eq!(
            (b.name.as_str(), b.parent, b.depth),
            ("inner_b", Some(0), 1)
        );
        assert!(a.seq < b.seq, "begin order preserved");
        assert!(snap.spans.iter().all(|s| s.wall_ns > 0));
        // The parent's wall time covers its children.
        assert!(outer.wall_ns >= a.wall_ns);
    }

    #[test]
    fn sibling_spans_after_pop_attach_to_grandparent() {
        let c = Collector::new();
        let root = c.span_begin("root");
        let child = c.span_begin("child");
        c.span_end(child);
        let sibling = c.span_begin("sibling");
        c.span_end(sibling);
        c.span_end(root);
        let snap = c.snapshot();
        assert_eq!(snap.spans[2].parent, Some(0), "sibling parents to root");
    }

    #[test]
    fn counters_aggregate_and_hwm_maxes() {
        let c = Collector::new();
        c.add("ir.stmts", 10);
        c.add("ir.stmts", 5);
        c.hwm("regs", 3);
        c.hwm("regs", 9);
        c.hwm("regs", 4);
        c.label("strategy", "Vdup");
        c.label("strategy", "Shuf");
        let snap = c.snapshot();
        assert_eq!(snap.counters["ir.stmts"], 15);
        assert_eq!(snap.hwm["regs"], 9);
        assert_eq!(snap.labels["strategy"], "Shuf");
    }

    #[test]
    fn stage_aggregation_sums_repeated_names() {
        let c = Collector::new();
        for _ in 0..4 {
            let _s = span(&c, "cgen");
        }
        {
            let _s = span(&c, "identify");
        }
        let stages = c.snapshot().stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "cgen");
        assert_eq!(stages[0].calls, 4);
        assert!(stages[0].wall_ns >= 4);
        assert_eq!(stages[1].calls, 1);
    }

    #[test]
    fn events_record_fields_in_order() {
        let c = Collector::new();
        c.event(
            "candidate",
            &[("tag", "8x4".into()), ("mflops", 123.5.into())],
        );
        c.event("candidate", &[("tag", "4x4".into())]);
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].fields[0].1, Value::Str("8x4".into()));
        assert!(snap.events[0].seq < snap.events[1].seq);
    }

    #[test]
    fn null_tracer_is_inert() {
        let t = null();
        let tok = t.span_begin("x");
        t.span_end(tok);
        t.add("c", 1);
        t.hwm("g", 1);
        t.label("k", "v");
        t.event("e", &[]);
    }

    #[test]
    fn collector_is_thread_safe() {
        let c = Collector::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let _sp = span(&c, "worker");
                        c.add("work", 1);
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.counters["work"], 400);
        let stages = snap.stages();
        assert_eq!(stages[0].calls, 400);
    }
}
