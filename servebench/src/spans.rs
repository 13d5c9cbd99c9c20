//! In-memory spans recorded by the benchmark around its calls into each
//! crate's public functions (traced runs only).
//!
//! A span has a name, a start and end relative to the run's epoch, the
//! id of the span that caused it, and the id of the operation it serves.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `strongworm.verify`.
    pub name: &'static str,
    /// Operation the span belongs to; shared by all its spans.
    pub op: u64,
    /// Unique span id (nonzero).
    pub id: u64,
    /// Id of the enclosing span, 0 for an operation's root.
    pub parent: u64,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span buffer. Ids carry the thread index in their high
/// bits, so buffers merge without renumbering.
pub struct Tracer {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A buffer for client thread `thread`, timing against `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Tracer {
            epoch,
            next: (thread + 1) << 40,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose bounds are known only later
    /// (an operation's root, opened before its children).
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span with a fresh id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record_as(id, name, op, parent, start, end);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Checks that every child lies inside its parent and shares its op id.
///
/// # Errors
///
/// A description of the first span that breaks the rule.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".into());
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has no parent {}", s.id, s.name, s.parent))?;
        if p.op != s.op {
            return Err(format!(
                "span {} ({}) is in op {}, parent in {}",
                s.id, s.name, s.op, p.op
            ));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) escapes parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"name":"{}","op":{},"id":{},"parent":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_check_catches_escapes_and_foreign_ops() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 0);
        let root = t.reserve();
        let start = Instant::now();
        t.time("child", 1, root, || ());
        t.record_as(root, "root", 1, 0, start, Instant::now());
        let mut spans = t.into_spans();
        assert!(check_nesting(&spans).is_ok());
        spans[0].op = 2;
        assert!(check_nesting(&spans).is_err());
        spans[0].op = 1;
        spans[0].end_ns = spans[1].end_ns + 1;
        assert!(check_nesting(&spans).is_err());
    }
}
