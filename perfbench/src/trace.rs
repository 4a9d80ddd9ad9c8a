//! In-memory spans and counters for the traced run.
//!
//! A span records a name, a start, an end, its parent span and an id that
//! every span of one trial or session shares. Spans are recorded by the
//! benchmark around its calls into each layer's public functions; nothing
//! inside the program is instrumented. A layer's self time is its spans'
//! duration minus the part their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use doda_core::sequence::{AdversaryView, InteractionSource, StepEvent};
use doda_core::{Interaction, Time};
use doda_graph::NodeId;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function name, e.g. `engine.run`.
    pub name: &'static str,
    /// The trial or session the call served.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time (duration minus child spans).
    pub self_ns: u64,
}

/// Records spans and counters in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every recorded span, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// The outermost ancestor of every span, indexed like
    /// [`Tracer::spans`].
    pub fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::with_capacity(self.spans.len());
        for (index, span) in self.spans.iter().enumerate() {
            let root = span.parent.map_or(index, |p| roots[p]);
            roots.push(root);
        }
        roots
    }

    /// Per-name totals over the spans that `keep` selects (by index).
    pub fn layer_times(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, LayerTime> {
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            if keep(index) {
                let layer = layers.entry(span.name).or_default();
                layer.calls += 1;
                layer.self_ns += self_ns;
            }
        }
        layers
    }

    /// Per-name totals over every span.
    pub fn all_layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        self.layer_times(|_| true)
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\": {index}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.id, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// A tracer shared by the replay and the sources it wraps.
pub type Trace = RefCell<Tracer>;

/// Runs `f` inside a span when tracing, or bare when `trace` is `None`.
pub fn span<R>(trace: Option<&Trace>, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    match trace {
        None => f(),
        Some(trace) => {
            trace.borrow_mut().enter(name, id);
            let result = f();
            trace.borrow_mut().exit();
            result
        }
    }
}

/// Events generated per timed refill of a [`Prefetch`].
const CHUNK: usize = 4_096;

/// A source that generates its inner stream ahead of the consumer, in
/// timed chunks of at most [`CHUNK`] events, so that generation shows as
/// child spans (named after the inner layer) rather than as the
/// consumer's self time.
///
/// It yields exactly `limit` events, the number the untraced run
/// consumed, so the replay generates the same stream prefix.
#[derive(Debug)]
pub struct Prefetch<'t, S> {
    inner: S,
    layer: &'static str,
    id: u64,
    trace: &'t Trace,
    /// Refill with `next_interaction_batch`, as the lane engine pulls;
    /// otherwise one `next_event` per event, as the scalar engine pulls.
    batched: bool,
    owns: Vec<bool>,
    events: Vec<StepEvent>,
    interactions: Vec<Interaction>,
    pos: usize,
    remaining: u64,
    pulled: Time,
}

impl<'t, S: InteractionSource> Prefetch<'t, S> {
    /// Wraps `inner`, to yield its first `limit` events.
    ///
    /// # Panics
    ///
    /// Panics if `batched` is asked of a source that is not oblivious.
    pub fn new(
        inner: S,
        limit: u64,
        layer: &'static str,
        id: u64,
        trace: &'t Trace,
        batched: bool,
    ) -> Self {
        assert!(
            !batched || inner.is_oblivious(),
            "only oblivious sources are pulled in batches"
        );
        let n = inner.node_count();
        Prefetch {
            inner,
            layer,
            id,
            trace,
            batched,
            owns: vec![true; n],
            events: Vec::new(),
            interactions: Vec::new(),
            pos: 0,
            remaining: limit,
            pulled: 0,
        }
    }

    fn buffered(&self) -> usize {
        if self.batched {
            self.interactions.len()
        } else {
            self.events.len()
        }
    }

    /// Generates the next chunk; `false` once the limit is reached.
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let want = usize::try_from(self.remaining).map_or(CHUNK, |r| r.min(CHUNK));
        self.pos = 0;
        self.events.clear();
        self.interactions.clear();
        self.trace.borrow_mut().enter(self.layer, self.id);
        // The inner sources read at most the sink from the view.
        let view = AdversaryView {
            owns_data: &self.owns,
            sink: NodeId(0),
        };
        if self.batched {
            self.inner
                .next_interaction_batch(self.pulled, &view, &mut self.interactions, want);
        } else {
            for offset in 0..want as Time {
                match self.inner.next_event(self.pulled + offset, &view) {
                    Some(event) => self.events.push(event),
                    None => break,
                }
            }
        }
        let got = self.buffered();
        let mut trace = self.trace.borrow_mut();
        trace.exit();
        trace.count(self.layer, got as u64);
        self.pulled += got as Time;
        self.remaining = if got < want {
            0
        } else {
            self.remaining - got as u64
        };
        got > 0
    }

    fn next_buffered_event(&mut self) -> Option<StepEvent> {
        debug_assert!(!self.batched, "batched prefetches serve interactions");
        if self.pos == self.events.len() && !self.refill() {
            return None;
        }
        let event = self.events[self.pos];
        self.pos += 1;
        Some(event)
    }
}

impl<S: InteractionSource> InteractionSource for Prefetch<'_, S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn next_interaction(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<Interaction> {
        match self.next_buffered_event()? {
            StepEvent::Interaction(interaction) => Some(interaction),
            event => panic!("a base stream emitted the fault event {event:?}"),
        }
    }

    fn next_event(&mut self, _t: Time, _view: &AdversaryView<'_>) -> Option<StepEvent> {
        self.next_buffered_event()
    }

    fn is_oblivious(&self) -> bool {
        self.batched
    }

    fn next_interaction_batch(
        &mut self,
        _t0: Time,
        _view: &AdversaryView<'_>,
        out: &mut Vec<Interaction>,
        max: usize,
    ) {
        let target = out.len() + max;
        while out.len() < target {
            if self.pos == self.interactions.len() && !self.refill() {
                return;
            }
            let take = (target - out.len()).min(self.interactions.len() - self.pos);
            out.extend_from_slice(&self.interactions[self.pos..self.pos + take]);
            self.pos += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doda_workloads::{UniformWorkload, Workload};

    #[test]
    fn self_time_subtracts_children() {
        let trace = Trace::default();
        span(Some(&trace), "outer", 1, || {
            span(Some(&trace), "inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let tracer = trace.borrow();
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = tracer.self_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(tracer.roots(), vec![0, 0]);
    }

    #[test]
    fn prefetch_yields_the_same_prefix_in_both_modes() {
        let workload = UniformWorkload::new(9);
        let expected = workload.generate(10_000, 5);
        let trace = Trace::default();
        let owns = vec![true; 9];
        let view = AdversaryView {
            owns_data: &owns,
            sink: NodeId(0),
        };
        let mut stepped = Prefetch::new(workload.source(5), 10_000, "src", 0, &trace, false);
        for t in 0..10_000u64 {
            assert_eq!(stepped.next_interaction(t, &view), expected.get(t));
        }
        assert_eq!(stepped.next_interaction(10_000, &view), None);

        let mut batched = Prefetch::new(workload.source(5), 10_000, "src", 0, &trace, true);
        let mut out = Vec::new();
        while out.len() < 10_000 {
            let before = out.len();
            batched.next_interaction_batch(0, &view, &mut out, 256);
            assert!(out.len() > before);
        }
        let replayed: Vec<_> = expected.iter().map(|ti| ti.interaction).collect();
        assert_eq!(out, replayed);
        assert_eq!(trace.borrow().counter("src"), 20_000);
    }
}
