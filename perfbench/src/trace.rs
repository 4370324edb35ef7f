//! In-memory spans recorded by the benchmark's own code around each
//! call into a layer's public functions. Each generator thread keeps
//! its own buffer; buffers are merged and written when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A traced run records spans in every other period of this length
/// (the even ones, counted from the trace epoch). The periods between
/// run the same rig without spans, so the tracing overhead is read
/// within one rig rather than across two.
pub const ALTERNATE: Duration = Duration::from_millis(250);

/// One span: a named interval, its parent (index into the same
/// buffer, `None` at the root) and the op id shared by every span of
/// one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.batch`.
    pub name: &'static str,
    /// Request id.
    pub op: u64,
    /// Parent span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

/// A per-thread span buffer; disabled buffers record nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// The open root span, parent of every span recorded under it.
    root: Option<usize>,
}

impl Tracer {
    /// A buffer timing against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            root: None,
        }
    }

    /// Opens the root span (a generator thread's loop): the parent of
    /// every span recorded until [`close`](Self::close). The root is
    /// recorded whatever the period.
    pub fn open(&mut self, name: &'static str, op: u64) {
        if self.enabled {
            let now = Instant::now();
            self.root = Some(self.push(name, op, now, now));
        }
    }

    /// Ends the root span now.
    pub fn close(&mut self) {
        if let Some(i) = self.root.take() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether a span starting at `t` is recorded: `None` when tracing
    /// is off, else whether `t` falls in a traced [`ALTERNATE`] period.
    pub fn spans_at(&self, t: Instant) -> Option<bool> {
        self.enabled.then(|| {
            (t.saturating_duration_since(self.epoch).as_nanos() / ALTERNATE.as_nanos())
                .is_multiple_of(2)
        })
    }

    /// Records a finished span under the open root if it starts in a
    /// traced period.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.spans_at(start) == Some(true) {
            self.push(name, op, start, end);
        }
    }

    fn push(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent: self.root,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Mean duration in µs of the spans named `name`, and their count
/// (`None` if none).
pub fn mean_us(spans: &[Span], name: &str) -> Option<(f64, u64)> {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| {
            (n + 1, t + (s.end_ns - s.start_ns))
        });
    (n > 0).then(|| (total as f64 / n as f64 / 1e3, n))
}

/// Tab-separated dump: `name op parent start_ns end_ns`.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("name\top\tparent\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.op, parent, s.start_ns, s.end_ns
        );
    }
    out
}
