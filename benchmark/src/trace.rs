//! In-memory spans around the benchmark's calls into each crate.
//!
//! The tracer lives in the benchmark, not in the crates under test: a span
//! opens before the driver calls a public function and closes when the
//! call returns. Spans stay in memory and are written once, at exit. With
//! the tracer off `begin`/`end` read no clock and store nothing, so the
//! timed run records no spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of a span that belongs to no request.
pub const NO_REQ: u64 = u64::MAX;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub req: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name totals over a span buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts at `origin`.
    pub fn on(origin: Instant) -> Tracer {
        Tracer {
            enabled: true,
            origin,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span (spans close innermost first).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let now = self.now_ns();
            self.spans[i as usize].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
    }

    /// Close a span under a name only known once the call has returned
    /// (a scheduler step is an admit step or a decode step in hindsight).
    #[inline]
    pub fn end_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(i) = id.0 {
            self.spans[i as usize].name = name;
        }
        self.end(id);
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Write every span as one JSON document: `{"spans":[{name, start_ns,
    /// end_ns, parent, req}, ...]}` (`parent`/`req` are `null` when absent).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"spans\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = if s.req == NO_REQ {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, req, sep
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Self time of a span = its duration minus the part of that interval its
/// direct children cover (children are clipped to the parent).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: NO_REQ,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100] ── step [10,60] ── admit [20,40]
        //            └─ step [70,90]
        let spans = vec![
            span("run", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("admit", 20, 40, Some(1)),
            span("step", 70, 90, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["run"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["step"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 50
            }
        );
        assert_eq!(
            t["admit"],
            NameTotals {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        // Self times partition the root: 30 + 50 + 20 = 100.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(totals(&spans)["p"].self_ns, 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let a = t.begin("a", 1);
        let b = t.begin("b", 1);
        t.end(b);
        t.end_as(a, "renamed");
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_renames() {
        let mut t = Tracer::on(Instant::now());
        let a = t.begin("a", 7);
        let b = t.begin("b", NO_REQ);
        t.end(b);
        t.end_as(a, "a2");
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].req), ("a2", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("b", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
