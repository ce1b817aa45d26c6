//! Telemetry forking and replay.
//!
//! Two consumers need telemetry that is recorded once but lands in more
//! than one sink, in a deterministic order:
//!
//! * the tuner's **evaluation cache** records each candidate build's
//!   telemetry into a private [`Collector`] *while* forwarding it to the
//!   live tracer ([`Tee`]), so a later cache hit can re-assert the
//!   winner's labels without re-running the pipeline;
//! * the **parallel resilient sweep** has workers record into
//!   per-candidate collectors and then merges them into the shared
//!   tracer in candidate order ([`replay_into`]), so counters and the
//!   event log are byte-identical to a sequential sweep no matter how
//!   the workers interleaved.
//!
//! Replayed spans preserve names, nesting, counts and the wall times
//! they were recorded with, so a stage breakdown reads the same whether
//! its spans ran inline or on a worker and were replayed.

use crate::collect::{Snapshot, SpanToken, Tracer, Value};
use std::sync::Mutex;

/// Forwards every probe to both sinks. Span tokens from the two sinks
/// are paired internally, so nesting stays consistent on each side.
pub struct Tee<'a> {
    a: &'a dyn Tracer,
    b: &'a dyn Tracer,
    pairs: Mutex<Vec<(SpanToken, SpanToken)>>,
}

impl<'a> Tee<'a> {
    pub fn new(a: &'a dyn Tracer, b: &'a dyn Tracer) -> Self {
        Tee {
            a,
            b,
            pairs: Mutex::new(Vec::new()),
        }
    }

    fn pair(&self, token: SpanToken) -> Option<(SpanToken, SpanToken)> {
        let pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
        pairs.get(token.0 as usize).copied()
    }
}

impl Tracer for Tee<'_> {
    fn span_begin(&self, name: &str) -> SpanToken {
        let ta = self.a.span_begin(name);
        let tb = self.b.span_begin(name);
        let mut pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
        pairs.push((ta, tb));
        SpanToken((pairs.len() - 1) as u64)
    }

    fn span_end(&self, token: SpanToken) {
        if let Some((ta, tb)) = self.pair(token) {
            self.a.span_end(ta);
            self.b.span_end(tb);
        }
    }

    fn span_end_measured(&self, token: SpanToken, wall_ns: u64) {
        if let Some((ta, tb)) = self.pair(token) {
            self.a.span_end_measured(ta, wall_ns);
            self.b.span_end_measured(tb, wall_ns);
        }
    }

    fn add(&self, counter: &str, delta: u64) {
        self.a.add(counter, delta);
        self.b.add(counter, delta);
    }

    fn hwm(&self, gauge: &str, value: u64) {
        self.a.hwm(gauge, value);
        self.b.hwm(gauge, value);
    }

    fn label(&self, key: &str, value: &str) {
        self.a.label(key, value);
        self.b.label(key, value);
    }

    fn event(&self, name: &str, fields: &[(&str, Value)]) {
        self.a.event(name, fields);
        self.b.event(name, fields);
    }
}

/// Replays everything in `snap` into `tracer`: spans (names, nesting,
/// counts and recorded wall times), events interleaved with
/// span begins in original `seq` order, then counters, high-water marks
/// and labels. Calling this from a single thread yields a deterministic
/// target ordering regardless of how `snap` was originally recorded.
pub fn replay_into(tracer: &dyn Tracer, snap: &Snapshot) {
    // Interleave span-begins and events by their shared seq counter.
    enum Item<'s> {
        Span(usize),
        Event(&'s crate::collect::EventRec),
    }
    let mut items: Vec<(u64, Item)> = Vec::with_capacity(snap.spans.len() + snap.events.len());
    for (i, s) in snap.spans.iter().enumerate() {
        items.push((s.seq, Item::Span(i)));
    }
    for e in &snap.events {
        items.push((e.seq, Item::Event(e)));
    }
    items.sort_by_key(|(seq, _)| *seq);

    // Stack of (snapshot index, live token) for open replayed spans.
    let mut open: Vec<(usize, SpanToken)> = Vec::new();
    for (_, item) in items {
        match item {
            Item::Span(i) => {
                let s = &snap.spans[i];
                // Close spans until the top of the stack is our parent.
                while let Some(&(top, tok)) = open.last() {
                    if s.parent == Some(top) {
                        break;
                    }
                    tracer.span_end_measured(tok, snap.spans[top].wall_ns);
                    open.pop();
                }
                let tok = tracer.span_begin(&s.name);
                open.push((i, tok));
            }
            Item::Event(e) => {
                let fields: Vec<(&str, Value)> = e
                    .fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                tracer.event(&e.name, &fields);
            }
        }
    }
    while let Some((top, tok)) = open.pop() {
        tracer.span_end_measured(tok, snap.spans[top].wall_ns);
    }

    for (k, v) in &snap.counters {
        tracer.add(k, *v);
    }
    for (k, v) in &snap.hwm {
        tracer.hwm(k, *v);
    }
    for (k, v) in &snap.labels {
        tracer.label(k, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{span, Collector};

    #[test]
    fn tee_records_into_both_sinks() {
        let a = Collector::new();
        let b = Collector::new();
        {
            let t = Tee::new(&a, &b);
            let outer = t.span_begin("outer");
            t.add("n", 2);
            t.label("k", "v");
            t.event("e", &[("f", 1u64.into())]);
            let inner = t.span_begin("inner");
            t.span_end(inner);
            t.span_end(outer);
        }
        for snap in [a.snapshot(), b.snapshot()] {
            assert_eq!(snap.spans.len(), 2);
            assert_eq!(snap.spans[1].parent, Some(0));
            assert_eq!(snap.counters["n"], 2);
            assert_eq!(snap.labels["k"], "v");
            assert_eq!(snap.events.len(), 1);
        }
    }

    #[test]
    fn replay_preserves_structure_counts_and_order() {
        let src = Collector::new();
        {
            let _outer = span(&src, "outer");
            src.event("before", &[]);
            {
                let _inner = span(&src, "inner");
                src.add("work", 3);
            }
            src.event("after", &[]);
        }
        let dst = Collector::new();
        replay_into(&dst, &src.snapshot());
        let snap = dst.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.counters["work"], 3);
        let ev: Vec<&str> = snap.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(ev, ["before", "after"]);
        // "before" fired between outer's begin and inner's begin.
        assert!(snap.events[0].seq > snap.spans[0].seq);
        assert!(snap.events[0].seq < snap.spans[1].seq);
    }

    #[test]
    fn replay_keeps_recorded_wall_times() {
        let src = Collector::new();
        {
            let _s = span(&src, "slow");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let dst = Collector::new();
        replay_into(&dst, &src.snapshot());
        assert_eq!(
            dst.snapshot().spans[0].wall_ns,
            src.snapshot().spans[0].wall_ns
        );
        assert!(dst.snapshot().spans[0].wall_ns >= 2_000_000);
    }

    #[test]
    fn replay_nests_under_the_callers_open_span() {
        let src = Collector::new();
        {
            let _s = span(&src, "child");
        }
        let dst = Collector::new();
        {
            let _parent = span(&dst, "parent");
            replay_into(&dst, &src.snapshot());
        }
        let snap = dst.snapshot();
        assert_eq!(snap.spans[1].name, "child");
        assert_eq!(snap.spans[1].parent, Some(0));
    }
}
