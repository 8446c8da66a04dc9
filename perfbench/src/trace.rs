//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! each layer's public functions; the program itself is not instrumented.
//! A span's name is `layer.operation`; spans named `op.*` are the
//! benchmark's own glue (one per user-level operation) and belong to no
//! layer. Everything stays in memory until [`Tracer::write_json`].

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A single-threaded span recorder with an explicit open-span stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, u64>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same calls run untraced, which
    /// is what the tracing overhead is measured against.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`] for a closure that does not need the tracer.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Adds `n` to the count `name` (work done, read where it happens).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span recorded since the tracer held `first`
    /// spans: its duration minus the time its direct children cover. Spans
    /// nest in recording order, so those children are among them.
    fn self_times_from(&self, first: usize) -> Vec<u64> {
        let spans = &self.spans[first..];
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= first) {
                child[p - first] += s.dur_ns();
            }
        }
        spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time in seconds of the spans recorded since `first` that
    /// `keep` selects.
    pub fn self_time_since(&self, first: usize, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans[first..]
            .iter()
            .zip(self.self_times_from(first))
            .filter(|(s, _)| keep(s))
            .map(|(_, t)| t as f64 * 1e-9)
            .sum()
    }

    /// Layer self time (glue excluded) in seconds since span `first`.
    pub fn layers_since(&self, first: usize) -> f64 {
        self.self_time_since(first, |s| s.layer() != "op")
    }

    /// Total self time per layer, in seconds (`op` is the benchmark's glue).
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_from(0)) {
            *out.entry(s.layer()).or_insert(0.0) += t as f64 * 1e-9;
        }
        out
    }

    /// Writes every span and count as JSON: spans are
    /// `[name, start_ns, end_ns, parent, request]` rows, `parent` being the
    /// index of the enclosing span or -1.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"header\":{header},\"counts\":{{")?;
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\"{k}\":{v}")?;
        }
        write!(out, "}},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            write!(
                out,
                "{sep}\n[\"{}\",{},{},{parent},{}]",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("op.x", |tr| {
            tr.leaf("a.one", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.leaf("b.two", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        let glue = tr.self_time_since(0, |s| s.layer() == "op");
        assert!(glue < (spans[0].dur_ns() - spans[1].dur_ns()) as f64 * 1e-9);
        let layers = tr.layer_self_s();
        assert!(layers["a"] >= 0.002 && layers["b"] >= 0.002);
        assert!(tr.layers_since(0) < spans[0].dur_ns() as f64 * 1e-9);
        assert!(tr.layers_since(1) >= 0.004);
    }
}
