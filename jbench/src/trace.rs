//! Outside-in layer trace.
//!
//! The traced run wraps every call the benchmark makes into a layer's
//! public functions in a span; nothing inside the program is touched.
//! Spans are kept in memory and written out when the run ends. With
//! tracing off every method is a plain call, so the untraced run times
//! the program alone.

use crate::sys::{usage, Usage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Operation id of set-up work (outside every timed operation).
pub const SETUP_OP: u64 = 0;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, `<layer>.<function>`.
    pub name: &'static str,
    /// Operation the call belongs to ([`SETUP_OP`] for set-up).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// User CPU microseconds spent inside the span.
    pub user_us: u64,
    /// System CPU microseconds spent inside the span.
    pub sys_us: u64,
    /// Minor page faults taken inside the span.
    pub minflt: u64,
    /// A call made only to measure a difference (for example the same
    /// run with a layer switched off). Its time is not operation time.
    pub differential: bool,
    /// A size the call produced (blocks recovered, bytes encoded, ...).
    pub n: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Open {
    idx: usize,
    usage: Usage,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<Open>,
}

impl Tracer {
    /// A recorder; `on == false` makes every method a plain call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: SETUP_OP,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sets the operation id that subsequent spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; returns its handle for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, differential: bool) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let parent = self.open.last().map(|o| o.idx);
        // A differential call inside a differential call stays one.
        let differential = differential || parent.is_some_and(|p| self.spans[p].differential);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: 0,
            end_ns: 0,
            user_us: 0,
            sys_us: 0,
            minflt: 0,
            differential,
            n: 0,
        });
        let usage = usage();
        let start = Instant::now();
        self.spans[idx].start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.open.push(Open { idx, usage });
        idx
    }

    /// Closes the innermost span, which must be `idx`, recording `n`.
    pub fn exit(&mut self, idx: usize, n: u64) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let after = usage();
        let open = self.open.pop().expect("exit matches an enter");
        assert_eq!(open.idx, idx, "spans close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        s.user_us = after.user_us.saturating_sub(open.usage.user_us);
        s.sys_us = after.sys_us.saturating_sub(open.usage.sys_us);
        s.minflt = after.minflt.saturating_sub(open.usage.minflt);
        s.n = n;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, false);
        let r = f();
        self.exit(id, 0);
        r
    }

    /// Runs `f` inside a span and records the size it reports.
    pub fn span_n<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let id = self.enter(name, false);
        let (r, n) = f();
        self.exit(id, n);
        r
    }

    /// Runs `f` only in a traced run, as a differential span.
    pub fn differential<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        let id = self.enter(name, true);
        let r = f();
        self.exit(id, 0);
        Some(r)
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of wall times.
    pub ns: u64,
    /// Sum of self times (wall minus the part child spans cover).
    pub self_ns: u64,
    /// Sum of system CPU microseconds.
    pub sys_us: u64,
    /// Sum of minor faults.
    pub minflt: u64,
    /// Sum of recorded sizes.
    pub n: u64,
    /// Distinct operations the spans belong to.
    pub ops: u64,
}

/// Aggregates spans by name, keeping those `keep` accepts.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut seen: BTreeMap<&'static str, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !keep(s) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.ns += s.ns();
        t.self_ns += s.ns().saturating_sub(child_ns[i]);
        t.sys_us += s.sys_us;
        t.minflt += s.minflt;
        t.n += s.n;
        if seen.entry(s.name).or_default().insert(s.op) {
            t.ops += 1;
        }
    }
    out
}

/// The smallest share of an operation's wall time that its direct child
/// spans cover, over every operation root span named `root`.
pub fn min_coverage(spans: &[Span], root: &str) -> Option<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && s.ns() > 0)
        .map(|(i, s)| child_ns[i] as f64 / s.ns() as f64)
        .reduce(f64::min)
}

/// Serializes the spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
             \"user_us\":{},\"sys_us\":{},\"minflt\":{},\"differential\":{},\"n\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns, s.user_us, s.sys_us, s.minflt, s.differential, s.n
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_sees_gaps() {
        let mut tr = Tracer::new(true);
        tr.set_op(1);
        let op = tr.enter("op", false);
        tr.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        tr.exit(op, 0);
        let t = totals(tr.spans(), |_| true);
        let (root, child) = (t["op"], t["child"]);
        assert!(root.ns >= 40_000_000);
        assert!(root.self_ns >= 20_000_000 && root.self_ns < root.ns - 19_000_000);
        assert_eq!(child.self_ns, child.ns);
        let cov = min_coverage(tr.spans(), "op").expect("one op");
        assert!(cov > 0.3 && cov < 0.7, "{cov}");
    }

    #[test]
    fn untraced_calls_record_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 7), 7);
        assert_eq!(tr.differential("y", || 1), None);
        assert!(tr.spans().is_empty());
    }
}
