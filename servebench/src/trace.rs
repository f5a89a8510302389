//! Spans recorded from outside the program, around calls into each layer,
//! and the self-time attribution computed from them.
//!
//! A traced run sends a sample of a workload's batches through every
//! lower public boundary in turn (the client call, the runtime handle, the
//! readout, ...). Each call becomes one [`Span`]; the spans of one sampled
//! batch share a request id. A layer's self time is its boundary's median
//! minus the medians of the boundaries directly below it, so the self
//! times of a chain add up to the top boundary exactly.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::median_ns;

/// One timed call at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, such as `runtime` or `wire.encode`.
    pub name: &'static str,
    /// The boundary directly above this one, `None` for the top.
    pub parent: Option<&'static str>,
    /// Id shared by every span of one sampled request.
    pub request: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log; one per caller thread, merged at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Runs `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Records a span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Appends another thread's spans.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Median duration of the spans named `name` (`0` if none).
    #[must_use]
    pub fn median(&self, name: &str) -> u64 {
        median_ns(&self.durations(name))
    }

    /// Writes the spans as JSON lines, one object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every boundary of a tree, given each boundary's median
/// duration and its parent: the boundary's median minus the medians of
/// its children. The result keeps the input order.
#[must_use]
pub fn self_times(
    boundaries: &[(&'static str, Option<&'static str>, u64)],
) -> Vec<(&'static str, i64)> {
    boundaries
        .iter()
        .map(|&(name, _, median)| {
            let children: i64 = boundaries
                .iter()
                .filter(|&&(_, parent, _)| parent == Some(name))
                .map(|&(_, _, m)| m as i64)
                .sum();
            (name, median as i64 - children)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_exactly_to_the_top_boundary() {
        // server > {wire.encode, wire.decode, runtime > readout}
        let tree = [
            ("server", None, 1_234_567),
            ("wire.encode", Some("server"), 40_001),
            ("wire.decode", Some("server"), 39_999),
            ("runtime", Some("server"), 800_003),
            ("readout", Some("runtime"), 123_457),
        ];
        let selves = self_times(&tree);
        let total: i64 = selves.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 1_234_567);
        assert_eq!(selves[0], ("server", 1_234_567 - 40_001 - 39_999 - 800_003));
        assert_eq!(selves[3], ("runtime", 800_003 - 123_457));
        assert_eq!(selves[4], ("readout", 123_457));
    }

    #[test]
    fn spans_keep_name_parent_request_and_order() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let value = tracer.span("runtime", None, 7, || 41 + 1);
        assert_eq!(value, 42);
        tracer.record("readout", Some("runtime"), 7, origin, origin);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].request),
            ("runtime", None, 7)
        );
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert_eq!(spans[1].duration_ns(), 0);
        assert_eq!(tracer.durations("readout"), vec![0]);
    }
}
