//! Outside-in spans: the benchmark wraps each call it makes into a layer's
//! public functions in a named span, and the wrapped strategies
//! ([`crate::timed`]) add the strategy/optimizer layer's time as an
//! aggregate child of whichever span made the calls.
//!
//! A span's *self* time is its duration minus its child spans and minus
//! the strategy time spent inside it but outside those children. The
//! operation's root span is itself named `op.self`, so the self times of
//! every span plus the strategy time partition the operation's wall time
//! exactly; [`Probe::check_partition`] verifies that on every traced
//! operation.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::timed::{CallTotals, STRATEGY_CALLS};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    strategy: CallTotals,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one operation, or nothing at all when off.
#[derive(Debug)]
pub struct Probe {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Probe {
    /// A probe that records nothing: the untraced run.
    pub fn off() -> Self {
        Probe {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording probe: the traced run.
    pub fn on() -> Self {
        Probe {
            on: true,
            ..Probe::off()
        }
    }

    /// Whether spans are being recorded (and strategies wrapped).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: alloc::tally().allocs,
            strategy: STRATEGY_CALLS.totals(),
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = alloc::tally().allocs - span.allocs;
        span.strategy = STRATEGY_CALLS.totals().since(span.strategy);
        out
    }

    fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    fn self_ns_of(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let (child_ns, child_strategy_ns) = self.children(id).fold((0, 0), |(d, s), c| {
            (d + c.duration_ns(), s + c.strategy.nanos)
        });
        span.duration_ns() - child_ns - (span.strategy.nanos - child_strategy_ns)
    }

    /// Self time of every span, summed per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            *out.entry(span.name).or_insert(0) += self.self_ns_of(id);
        }
        out
    }

    /// Duration of the spans named `name`, children included, in
    /// nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Allocations made inside the spans named `name`, children included.
    pub fn allocs(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum()
    }

    /// Strategy calls made inside the spans named `name`.
    pub fn strategy(&self, name: &str) -> CallTotals {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(CallTotals::default(), |acc, s| CallTotals {
                calls: acc.calls + s.strategy.calls,
                nanos: acc.nanos + s.strategy.nanos,
                allocs: acc.allocs + s.strategy.allocs,
            })
    }

    /// Checks that the root span `op.self` is the only root and that the
    /// self times plus the strategy time add up to its duration exactly.
    pub fn check_partition(&self) -> Result<(), String> {
        let roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        let [root] = roots.as_slice() else {
            return Err(format!("expected one root span, found {}", roots.len()));
        };
        if root.name != "op.self" {
            return Err(format!("root span is `{}`, not `op.self`", root.name));
        }
        let parts: u64 = self.self_ns().values().sum::<u64>() + root.strategy.nanos;
        if parts != root.duration_ns() {
            return Err(format!(
                "spans cover {parts} ns of a {} ns operation",
                root.duration_ns()
            ));
        }
        Ok(())
    }

    /// One line per span, indented by depth, for the human-readable log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let depth = std::iter::successors(span.parent, |&p| self.spans[p].parent).count();
            out.push_str(&format!(
                "  {:indent$}{:<24} total {:>10.6} s  self {:>10.6} s  strategy {:>9.6} s ({} calls)  allocs {}\n",
                "",
                span.name,
                span.duration_ns() as f64 * 1e-9,
                self.self_ns_of(id) as f64 * 1e-9,
                span.strategy.nanos as f64 * 1e-9,
                span.strategy.calls,
                span.allocs,
                indent = depth * 2,
            ));
        }
        out
    }
}
