//! Spans and faults around the program's layers, owned by the benchmark.
//!
//! [`Layer`] is one generic forwarding wrapper over the scheme trait
//! family. It can time every call into its inner scheme as a span of a
//! named layer, and it can inject one [`Fault`] so the benchmark can show
//! that each of its correctness checks fires. The `layer(inner[,name=N]
//! [,fault=F])` composite is registered in a copy of the default registry
//! ([`registry`]), so a span can sit at any depth of a spec, including
//! inside the scheme a `LabelServer` hosts.
//!
//! A span's self time is its duration minus the time its child spans
//! (spans opened on the same thread while it was open) took. The span
//! stack is per thread, so server connection threads and the client
//! thread each nest their own spans.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ltree::metrics::Metric;
use ltree::registry::{SpecArg, SpecOptions};
use ltree::{
    BatchLabeling, DynScheme, Instrumented, LTreeError, LeafHandle, OrderedLabeling,
    OrderedLabelingMut, Result, SchemeRegistry, SchemeStats, Splice, SpliceResult,
};

/// Accumulated calls of one `(layer, op)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Calls recorded.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus child spans), ns.
    pub self_ns: u64,
}

static SPANS: Mutex<BTreeMap<(&'static str, &'static str), Acc>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Child-span time accumulated by each open span of this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` as a span of `layer`/`op` and record it. The span's own
/// bookkeeping is charged to neither the span nor its parent's self time.
pub fn span<R>(layer: &'static str, op: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    STACK.with(|s| s.borrow_mut().push(0));
    let out = f();
    let total = start.elapsed().as_nanos() as u64;
    let child = STACK.with(|s| s.borrow_mut().pop().expect("span stack balanced"));
    {
        let mut spans = SPANS.lock().unwrap_or_else(|p| p.into_inner());
        let acc = spans.entry((layer, op)).or_default();
        acc.calls += 1;
        acc.total_ns += total;
        acc.self_ns += total.saturating_sub(child);
    }
    let charged = start.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            *parent += charged;
        }
    });
    out
}

/// [`span`] when `layer` is named, a plain call otherwise.
#[inline]
fn timed<R>(layer: Option<&'static str>, op: &'static str, f: impl FnOnce() -> R) -> R {
    match layer {
        Some(layer) => span(layer, op, f),
        None => f(),
    }
}

/// A copy of every span recorded so far.
pub fn snapshot() -> BTreeMap<(&'static str, &'static str), Acc> {
    SPANS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Calls of `layer`/`op` recorded so far.
pub fn calls(layer: &str, op: &str) -> u64 {
    let spans = SPANS.lock().unwrap_or_else(|p| p.into_inner());
    spans.get(&(layer, op)).map_or(0, |a| a.calls)
}

/// Forget every span recorded so far.
pub fn clear() {
    SPANS.lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// The sum of `ops` of `layer` between two snapshots.
pub fn delta(
    before: &BTreeMap<(&'static str, &'static str), Acc>,
    after: &BTreeMap<(&'static str, &'static str), Acc>,
    layer: &str,
    ops: &[&str],
) -> Acc {
    let mut out = Acc::default();
    for (&(l, op), a) in after {
        if l != layer || !ops.contains(&op) {
            continue;
        }
        let b = before.get(&(l, op)).copied().unwrap_or_default();
        out.calls += a.calls - b.calls;
        out.total_ns += a.total_ns - b.total_ns;
        out.self_ns += a.self_ns - b.self_ns;
    }
    out
}

/// Scheme read methods, as span op names.
pub const READ_OPS: [&str; 8] = [
    "label_of",
    "len",
    "live_len",
    "first_in_order",
    "next_in_order",
    "label_space_bits",
    "memory_bytes",
    "compare",
];

/// Scheme write methods, as span op names.
pub const WRITE_OPS: [&str; 8] = [
    "bulk_build",
    "insert_first",
    "insert_after",
    "insert_before",
    "delete",
    "insert_many_after",
    "delete_run",
    "splice",
];

/// A deliberate defect, injected to prove a correctness check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `label_of` moves about one handle in 61 far past every other label.
    Labels,
    /// `next_in_order` skips about one successor in 97.
    Order,
    /// `bulk_build` hands back its first two handles swapped.
    Recovery,
}

impl Fault {
    const ALL: [Fault; 3] = [Fault::Labels, Fault::Order, Fault::Recovery];

    /// The fault's name on the command line and in specs.
    pub fn name(self) -> &'static str {
        match self {
            Fault::Labels => "labels",
            Fault::Order => "order",
            Fault::Recovery => "recovery",
        }
    }

    /// Parse a fault name.
    pub fn parse(s: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// Layer names a span may carry.
const LAYERS: [&str; 4] = ["ltree", "sharded", "durable", "traced"];

/// The forwarding wrapper; see the [module docs](self).
pub struct Layer<S> {
    inner: S,
    name: Option<&'static str>,
    fault: Option<Fault>,
}

impl<S: DynScheme> OrderedLabeling for Layer<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn label_of(&self, h: LeafHandle) -> Result<u128> {
        let l = timed(self.name, "label_of", || self.inner.label_of(h))?;
        Ok(match self.fault {
            Some(Fault::Labels) if h.0.is_multiple_of(61) => l | (1 << 100),
            _ => l,
        })
    }

    fn len(&self) -> usize {
        timed(self.name, "len", || self.inner.len())
    }

    fn live_len(&self) -> usize {
        timed(self.name, "live_len", || self.inner.live_len())
    }

    fn first_in_order(&self) -> Option<LeafHandle> {
        timed(self.name, "first_in_order", || self.inner.first_in_order())
    }

    fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
        let next = timed(self.name, "next_in_order", || self.inner.next_in_order(h))?;
        match self.fault {
            Some(Fault::Order) if next.0.is_multiple_of(97) => self.inner.next_in_order(next),
            _ => Some(next),
        }
    }

    fn label_space_bits(&self) -> u32 {
        timed(self.name, "label_space_bits", || {
            self.inner.label_space_bits()
        })
    }

    fn memory_bytes(&self) -> usize {
        timed(self.name, "memory_bytes", || self.inner.memory_bytes())
    }

    fn compare(&self, a: LeafHandle, b: LeafHandle) -> Result<Ordering> {
        match self.fault {
            Some(Fault::Labels) => Ok(self.label_of(a)?.cmp(&self.label_of(b)?)),
            _ => timed(self.name, "compare", || self.inner.compare(a, b)),
        }
    }
}

impl<S: DynScheme> OrderedLabelingMut for Layer<S> {
    fn bulk_build(&mut self, n: usize) -> Result<Vec<LeafHandle>> {
        let mut hs = timed(self.name, "bulk_build", || self.inner.bulk_build(n))?;
        if self.fault == Some(Fault::Recovery) && hs.len() >= 2 {
            hs.swap(0, 1);
        }
        Ok(hs)
    }

    fn insert_first(&mut self) -> Result<LeafHandle> {
        timed(self.name, "insert_first", || self.inner.insert_first())
    }

    fn insert_after(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        timed(self.name, "insert_after", || {
            self.inner.insert_after(anchor)
        })
    }

    fn insert_before(&mut self, anchor: LeafHandle) -> Result<LeafHandle> {
        timed(self.name, "insert_before", || {
            self.inner.insert_before(anchor)
        })
    }

    fn delete(&mut self, h: LeafHandle) -> Result<()> {
        timed(self.name, "delete", || self.inner.delete(h))
    }
}

impl<S: DynScheme> BatchLabeling for Layer<S> {
    fn insert_many_after(&mut self, anchor: LeafHandle, k: usize) -> Result<Vec<LeafHandle>> {
        timed(self.name, "insert_many_after", || {
            self.inner.insert_many_after(anchor, k)
        })
    }

    fn delete_run(&mut self, first: LeafHandle, count: usize) -> Result<usize> {
        timed(self.name, "delete_run", || {
            self.inner.delete_run(first, count)
        })
    }

    fn splice(&mut self, op: Splice) -> Result<SpliceResult> {
        timed(self.name, "splice", || self.inner.splice(op))
    }
}

impl<S: DynScheme> Instrumented for Layer<S> {
    fn scheme_stats(&self) -> SchemeStats {
        self.inner.scheme_stats()
    }

    fn reset_scheme_stats(&mut self) {
        self.inner.reset_scheme_stats();
    }

    fn stats_breakdown(&self) -> Vec<(String, SchemeStats)> {
        self.inner.stats_breakdown()
    }

    fn metrics(&self) -> Vec<Metric> {
        self.inner.metrics()
    }
}

/// A copy of `default_registry()` that also resolves the benchmark's
/// `layer(inner[,name=ltree|sharded|durable|traced][,fault=labels|order|recovery])`.
pub fn registry() -> SchemeRegistry {
    let mut reg = ltree::default_registry();
    reg.register_composite(
        "layer",
        "benchmark span/fault wrapper; args: (inner[,name=LAYER,fault=KIND])",
        |reg, cfg, args| {
            let bad = |key: String, reason: &'static str| LTreeError::InvalidOption {
                spec: "layer".into(),
                key,
                reason,
            };
            let Some((SpecArg::Spec(inner), rest)) = args.split_first() else {
                return Err(LTreeError::InvalidSpec {
                    spec: "layer".into(),
                    reason: "expected an inner scheme spec first",
                });
            };
            let mut opts = SpecOptions::parse("layer", rest)?;
            let name = match opts.take_str("name")? {
                None => None,
                Some(n) => Some(
                    *LAYERS
                        .iter()
                        .find(|&&l| l == n)
                        .ok_or_else(|| bad(n, "unknown layer name"))?,
                ),
            };
            let fault = match opts.take_str("fault")? {
                None => None,
                Some(f) => Some(Fault::parse(&f).ok_or_else(|| bad(f, "unknown fault"))?),
            };
            opts.finish()?;
            Ok(Box::new(Layer {
                inner: reg.build_with(inner, cfg)?,
                name,
                fault,
            }))
        },
    );
    reg
}
