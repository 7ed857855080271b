//! Hierarchical per-request span trees.
//!
//! A [`SpanRecorder`] captures one request's work as a tree of spans —
//! request → session op → per-net route → engine search — each span
//! carrying its wall-clock window (offsets from the recorder's epoch,
//! in microseconds) plus attributed counters (expansions, attempts,
//! negotiation rounds, …). Recording is **lock-cheap, not lock-free**:
//! every span operation is one short mutex push on a per-request (never
//! shared across requests) mutex, and the granularity is per *net* and
//! per *search*, never per expansion — a traced warm reroute adds a
//! handful of pushes to a request that performs thousands of
//! expansions.
//!
//! The finished tree ([`SpanTree`]) renders three ways:
//!
//! * [`SpanTree::render`] — the stable line grammar the `TRACE` wire
//!   verb returns (`span <depth> <name> <label> <start_us> <dur_us>
//!   [k=v …]`, preorder), parsed back by [`SpanTree::parse`];
//! * [`SpanTree::render_indented`] — human-readable indented text;
//! * [`SpanTree::render_collapsed`] — Brendan-Gregg collapsed-stack
//!   lines (`frame;frame value`, value = self-time in µs) for
//!   flamegraph tooling.
//!
//! Layers that cannot thread a handle through their signatures (the
//! search core's flush funnel) reach the recorder through a
//! **thread-local active span** ([`set_active_span`] /
//! [`active_span`]), installed by the layer above around each unit of
//! work. Tracing never alters routing results — spans observe, budgets
//! steer nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::TraceId;

/// Index of a span within its [`SpanRecorder`] (the root is always 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Sentinel for a still-open span's duration.
const OPEN: u64 = u64::MAX;

#[derive(Debug)]
struct RawSpan {
    parent: u32,
    name: &'static str,
    label: String,
    start_us: u64,
    dur_us: u64,
    counters: Vec<(&'static str, u64)>,
}

/// Records one request's span tree; see the [module docs](self).
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Mutex<Vec<RawSpan>>,
}

/// Replace whitespace so labels stay single tokens in the grammar.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

impl SpanRecorder {
    /// A recorder whose root span (`SpanId` 0) opens now.
    pub fn new(name: &'static str, label: &str) -> Arc<SpanRecorder> {
        // A traced warm request records a handful of spans (request →
        // op → net → search); pre-size so the hot path never regrows.
        let mut spans = Vec::with_capacity(8);
        spans.push(RawSpan {
            parent: 0,
            name,
            label: sanitize(label),
            start_us: 0,
            dur_us: OPEN,
            counters: Vec::new(),
        });
        Arc::new(SpanRecorder {
            epoch: Instant::now(),
            spans: Mutex::new(spans),
        })
    }

    /// The root span's ID.
    pub fn root(&self) -> SpanId {
        SpanId(0)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<RawSpan>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a child span under `parent`.
    pub fn begin(&self, parent: SpanId, name: &'static str, label: &str) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(RawSpan {
            parent: parent.0,
            name,
            label: sanitize(label),
            start_us,
            dur_us: OPEN,
            counters: Vec::new(),
        });
        SpanId(id)
    }

    /// Close a span (idempotent: the first close wins).
    pub fn end(&self, id: SpanId) {
        let now = self.now_us();
        let mut spans = self.lock();
        if let Some(s) = spans.get_mut(id.0 as usize) {
            if s.dur_us == OPEN {
                s.dur_us = now.saturating_sub(s.start_us);
            }
        }
    }

    /// Accumulate `value` into counter `key` of span `id`.
    pub fn add(&self, id: SpanId, key: &'static str, value: u64) {
        let mut spans = self.lock();
        if let Some(s) = spans.get_mut(id.0 as usize) {
            match s.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += value,
                None => s.counters.push((key, value)),
            }
        }
    }

    /// Accumulate several counters of span `id` under one lock — the
    /// batched form the per-net and rollup attribution sites use so a
    /// traced request pays one mutex round per site, not one per key.
    pub fn add_many(&self, id: SpanId, counters: &[(&'static str, u64)]) {
        let mut spans = self.lock();
        if let Some(s) = spans.get_mut(id.0 as usize) {
            for &(key, value) in counters {
                match s.counters.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => *v += value,
                    None => s.counters.push((key, value)),
                }
            }
        }
    }

    /// Record an already-finished span under `parent` in one push:
    /// `start` is its wall-clock begin (must be after the recorder was
    /// created), the end is *now*. This is the one-shot form the search
    /// flush funnel uses.
    pub fn leaf(
        &self,
        parent: SpanId,
        name: &'static str,
        label: &str,
        start: Instant,
        counters: &[(&'static str, u64)],
    ) -> SpanId {
        let end_us = self.now_us();
        let start_us = start
            .duration_since(self.epoch)
            .as_micros()
            .min(u128::from(end_us)) as u64;
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(RawSpan {
            parent: parent.0,
            name,
            label: sanitize(label),
            start_us,
            dur_us: end_us - start_us,
            counters: counters.to_vec(),
        });
        SpanId(id)
    }

    /// Close the root (and any span left open) and assemble the tree.
    /// The recorder stays usable, but a finished request should drop it.
    pub fn finish(&self) -> SpanTree {
        let now = self.now_us();
        let mut spans = self.lock();
        for s in spans.iter_mut() {
            if s.dur_us == OPEN {
                s.dur_us = now.saturating_sub(s.start_us);
            }
        }
        // Children were always pushed after their parent, so one forward
        // pass attaches every span; index 0 is the root (self-parented).
        let mut nodes: Vec<SpanNode> = spans
            .iter()
            .map(|s| SpanNode {
                name: s.name.to_string(),
                label: s.label.clone(),
                start_us: s.start_us,
                dur_us: s.dur_us,
                counters: s
                    .counters
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect(),
                children: Vec::new(),
            })
            .collect();
        for i in (1..nodes.len()).rev() {
            let parent = spans[i].parent as usize;
            let node = nodes.pop().expect("node list tracks span list");
            nodes[parent].children.push(node);
        }
        // The reverse pass pushed younger siblings first; restore
        // recording order.
        fn reverse_children(n: &mut SpanNode) {
            n.children.reverse();
            for c in &mut n.children {
                reverse_children(c);
            }
        }
        let mut root = nodes.into_iter().next().expect("root span always exists");
        reverse_children(&mut root);
        SpanTree { root }
    }
}

/// One node of a finished [`SpanTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Static span kind (`request`, `op`, `net`, `search`, …).
    pub name: String,
    /// Instance label (verb, net name, …); empty renders as `-`.
    pub label: String,
    /// Start offset from the request epoch, µs.
    pub start_us: u64,
    /// Wall duration, µs.
    pub dur_us: u64,
    /// Attributed counters in recording order.
    pub counters: Vec<(String, u64)>,
    /// Child spans in recording order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A counter of this node by key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// The collapsed-stack frame for this node.
    fn frame(&self) -> String {
        if self.label.is_empty() {
            self.name.clone()
        } else {
            format!("{}:{}", self.name, self.label)
        }
    }

    /// Duration not covered by children (clamped at zero: children run
    /// concurrently under a parallel schedule, so their sum may exceed
    /// the parent's wall time).
    fn self_us(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.dur_us).sum();
        self.dur_us.saturating_sub(children)
    }
}

/// A finished span tree; produced by [`SpanRecorder::finish`] or
/// [`SpanTree::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The request-level root span.
    pub root: SpanNode,
}

impl SpanTree {
    /// Total spans in the tree.
    pub fn span_count(&self) -> usize {
        fn count(n: &SpanNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    /// Sum of counter `key` over every span.
    pub fn total_counter(&self, key: &str) -> u64 {
        fn sum(n: &SpanNode, key: &str) -> u64 {
            n.counter(key).unwrap_or(0) + n.children.iter().map(|c| sum(c, key)).sum::<u64>()
        }
        sum(&self.root, key)
    }

    /// Every node matching `name`, preorder.
    pub fn find_all<'a>(&'a self, name: &str) -> Vec<&'a SpanNode> {
        fn walk<'a>(n: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
            if n.name == name {
                out.push(n);
            }
            for c in &n.children {
                walk(c, name, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, name, &mut out);
        out
    }

    /// The stable wire grammar: one line per span, preorder —
    /// `span <depth> <name> <label|-> <start_us> <dur_us> [k=v …]`.
    /// Whitespace-tokenized throughout (labels were sanitized at
    /// recording time), so [`SpanTree::parse`] reads it back exactly.
    pub fn render(&self) -> String {
        fn line(n: &SpanNode, depth: usize, out: &mut String) {
            let label = if n.label.is_empty() { "-" } else { &n.label };
            let _ = write!(
                out,
                "span {} {} {} {} {}",
                depth, n.name, label, n.start_us, n.dur_us
            );
            for (k, v) in &n.counters {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            for c in &n.children {
                line(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        line(&self.root, 0, &mut out);
        out
    }

    /// Parse the grammar [`SpanTree::render`] emits. `None` on the
    /// first malformed line or an inconsistent depth sequence.
    pub fn parse(text: &str) -> Option<SpanTree> {
        // Stack of (depth, node); children attach to the nearest
        // shallower entry.
        let mut stack: Vec<(usize, SpanNode)> = Vec::new();
        fn fold_to(stack: &mut Vec<(usize, SpanNode)>, depth: usize) -> Option<()> {
            while stack.len() > 1 && stack.last()?.0 >= depth {
                let (_, done) = stack.pop()?;
                stack.last_mut()?.1.children.push(done);
            }
            Some(())
        }
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            if tok.next()? != "span" {
                return None;
            }
            let depth: usize = tok.next()?.parse().ok()?;
            let name = tok.next()?.to_string();
            let label = match tok.next()? {
                "-" => String::new(),
                l => l.to_string(),
            };
            let start_us: u64 = tok.next()?.parse().ok()?;
            let dur_us: u64 = tok.next()?.parse().ok()?;
            let mut counters = Vec::new();
            for kv in tok {
                let (k, v) = kv.split_once('=')?;
                counters.push((k.to_string(), v.parse().ok()?));
            }
            let node = SpanNode {
                name,
                label,
                start_us,
                dur_us,
                counters,
                children: Vec::new(),
            };
            if stack.is_empty() {
                if depth != 0 {
                    return None;
                }
            } else {
                if depth == 0 || depth > stack.last()?.0 + 1 {
                    return None;
                }
                fold_to(&mut stack, depth)?;
            }
            stack.push((depth, node));
        }
        fold_to(&mut stack, 1)?;
        let (depth, root) = stack.pop()?;
        (depth == 0 && stack.is_empty()).then_some(SpanTree { root })
    }

    /// Human-readable indented rendering (`gcrt profile`).
    pub fn render_indented(&self) -> String {
        fn line(n: &SpanNode, depth: usize, out: &mut String) {
            let _ = write!(out, "{:indent$}{}", "", n.frame(), indent = depth * 2);
            let _ = write!(out, " {}us", n.dur_us);
            for (k, v) in &n.counters {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            for c in &n.children {
                line(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        line(&self.root, 0, &mut out);
        out
    }

    /// Brendan-Gregg collapsed stacks: `frame;frame;frame self_us`, one
    /// line per distinct stack in first-seen (preorder) order,
    /// zero-self-time stacks omitted. Feed to any flamegraph tool.
    pub fn render_collapsed(&self) -> String {
        let mut order: Vec<String> = Vec::new();
        let mut totals: HashMap<String, u64> = HashMap::new();
        fn walk(
            n: &SpanNode,
            prefix: &str,
            order: &mut Vec<String>,
            totals: &mut HashMap<String, u64>,
        ) {
            let stack = if prefix.is_empty() {
                n.frame()
            } else {
                format!("{prefix};{}", n.frame())
            };
            let own = n.self_us();
            if own > 0 {
                if !totals.contains_key(&stack) {
                    order.push(stack.clone());
                }
                *totals.entry(stack.clone()).or_insert(0) += own;
            }
            for c in &n.children {
                walk(c, &stack, order, totals);
            }
        }
        walk(&self.root, "", &mut order, &mut totals);
        let mut out = String::new();
        for stack in order {
            let _ = writeln!(out, "{stack} {}", totals[&stack]);
        }
        out
    }
}

/// A recorder plus the span new work should nest under — the unit that
/// crosses layer boundaries (service → core session → search).
#[derive(Debug, Clone)]
pub struct SpanHandle {
    rec: Arc<SpanRecorder>,
    parent: SpanId,
}

impl SpanHandle {
    /// A handle parenting new spans under `parent`.
    pub fn new(rec: Arc<SpanRecorder>, parent: SpanId) -> SpanHandle {
        SpanHandle { rec, parent }
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &SpanRecorder {
        &self.rec
    }

    /// The span new children nest under.
    pub fn parent(&self) -> SpanId {
        self.parent
    }

    /// Open a child span and return a handle parented on it.
    pub fn child(&self, name: &'static str, label: &str) -> SpanHandle {
        let id = self.rec.begin(self.parent, name, label);
        SpanHandle {
            rec: Arc::clone(&self.rec),
            parent: id,
        }
    }

    /// Close this handle's span.
    pub fn end(&self) {
        self.rec.end(self.parent);
    }

    /// Accumulate a counter on this handle's span.
    pub fn add(&self, key: &'static str, value: u64) {
        self.rec.add(self.parent, key, value);
    }

    /// Accumulate several counters on this handle's span in one lock.
    pub fn add_many(&self, counters: &[(&'static str, u64)]) {
        self.rec.add_many(self.parent, counters);
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<SpanHandle>> = const { RefCell::new(None) };
}

/// Install (or clear) this thread's active span, returning the previous
/// one so a scope can restore it. The session layer installs a per-net
/// handle around each routed net; the search funnel attributes through
/// it without signature changes.
pub fn set_active_span(handle: Option<SpanHandle>) -> Option<SpanHandle> {
    ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), handle))
}

/// This thread's active span, if a traced request is in flight here.
pub fn active_span() -> Option<SpanHandle> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Cheap probe: is an active span installed on this thread?
pub fn has_active_span() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Deterministic trace sampling: whether `trace` falls inside `rate`
/// (0.0 = never, 1.0 = always). The ID is avalanche-mixed
/// (splitmix64-style) so consecutive IDs sample independently, and the
/// decision is a pure function of `(trace, rate)` — replays agree.
pub fn sample_trace(trace: TraceId, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mut z = trace.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Top 53 bits -> uniform in [0, 1).
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    unit < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_contain_their_children() {
        let rec = SpanRecorder::new("request", "route t1");
        let op = rec.begin(rec.root(), "op", "route");
        let net = rec.begin(op, "net", "clk");
        rec.add(net, "expanded", 41);
        rec.add(net, "expanded", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(net);
        rec.end(op);
        let tree = rec.finish();

        assert_eq!(tree.span_count(), 3);
        assert_eq!(tree.root.name, "request");
        assert_eq!(tree.root.label, "route_t1", "labels are single tokens");
        let op_node = &tree.root.children[0];
        let net_node = &op_node.children[0];
        assert_eq!(net_node.counter("expanded"), Some(42), "add accumulates");
        // Wall-clock containment: children start no earlier and end no
        // later than their parent.
        for (parent, child) in [(&tree.root, op_node), (op_node, net_node)] {
            assert!(child.start_us >= parent.start_us);
            assert!(child.start_us + child.dur_us <= parent.start_us + parent.dur_us);
        }
        assert!(net_node.dur_us >= 2_000, "sleep is visible in the span");
    }

    #[test]
    fn leaf_spans_record_in_one_push() {
        let rec = SpanRecorder::new("request", "");
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.leaf(rec.root(), "search", "", start, &[("expanded", 7)]);
        let tree = rec.finish();
        let leaf = &tree.root.children[0];
        assert_eq!(leaf.name, "search");
        assert!(leaf.dur_us >= 1_000);
        assert_eq!(leaf.counter("expanded"), Some(7));
        assert_eq!(tree.total_counter("expanded"), 7);
    }

    #[test]
    fn grammar_roundtrips() {
        let rec = SpanRecorder::new("request", "eco t2a");
        let op = rec.begin(rec.root(), "op", "eco");
        let a = rec.begin(op, "net", "n0");
        rec.add(a, "expanded", 10);
        rec.end(a);
        let b = rec.begin(op, "net", "n1");
        rec.add(b, "expanded", 3);
        rec.add(b, "budget-trips", 1);
        rec.end(b);
        rec.end(op);
        let tree = rec.finish();

        let text = tree.render();
        assert!(text.starts_with("span 0 request eco_t2a "), "{text}");
        let parsed = SpanTree::parse(&text).expect("own grammar parses");
        assert_eq!(parsed, tree, "render ∘ parse is the identity");
        // Sibling order survives.
        let nets = parsed.find_all("net");
        assert_eq!(
            nets.iter().map(|n| n.label.as_str()).collect::<Vec<_>>(),
            ["n0", "n1"]
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(SpanTree::parse("").is_none());
        assert!(SpanTree::parse("nope 0 a - 0 1").is_none());
        assert!(SpanTree::parse("span 1 a - 0 1").is_none(), "root depth");
        assert!(
            SpanTree::parse("span 0 a - 0 1\nspan 2 b - 0 1").is_none(),
            "depth jump"
        );
        assert!(SpanTree::parse("span 0 a - 0 1\nspan 0 b - 0 1").is_none());
        assert!(SpanTree::parse("span 0 a - 0 x").is_none(), "bad number");
        assert!(SpanTree::parse("span 0 a - 0 1 k=").is_none());
    }

    #[test]
    fn collapsed_stacks_carry_self_time() {
        let tree = SpanTree {
            root: SpanNode {
                name: "request".into(),
                label: "eco".into(),
                start_us: 0,
                dur_us: 100,
                counters: vec![],
                children: vec![SpanNode {
                    name: "op".into(),
                    label: String::new(),
                    start_us: 10,
                    dur_us: 80,
                    counters: vec![],
                    children: vec![
                        SpanNode {
                            name: "net".into(),
                            label: "clk".into(),
                            start_us: 10,
                            dur_us: 30,
                            counters: vec![],
                            children: vec![],
                        },
                        SpanNode {
                            name: "net".into(),
                            label: "clk".into(),
                            start_us: 40,
                            dur_us: 30,
                            counters: vec![],
                            children: vec![],
                        },
                    ],
                }],
            },
        };
        let collapsed = tree.render_collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(
            lines,
            [
                "request:eco 20",
                "request:eco;op 20",
                "request:eco;op;net:clk 60",
            ],
            "identical stacks merge, self-time = dur - children"
        );
        // Self-times over the whole output sum to the root duration.
        let total: u64 = lines
            .iter()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, tree.root.dur_us);
    }

    #[test]
    fn active_span_is_thread_local_and_restorable() {
        assert!(!has_active_span());
        let rec = SpanRecorder::new("request", "");
        let h = SpanHandle::new(Arc::clone(&rec), rec.root());
        let prev = set_active_span(Some(h));
        assert!(prev.is_none());
        assert!(has_active_span());
        // Another thread sees nothing.
        std::thread::spawn(|| assert!(!has_active_span()))
            .join()
            .unwrap();
        active_span().unwrap().add("touched", 1);
        set_active_span(prev);
        assert!(!has_active_span());
        assert_eq!(rec.finish().total_counter("touched"), 1);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        assert!(!sample_trace(TraceId(7), 0.0));
        assert!(sample_trace(TraceId(7), 1.0));
        let hits = (0..10_000u64)
            .filter(|&i| sample_trace(TraceId(i), 0.25))
            .count();
        assert!(
            (1_500..3_500).contains(&hits),
            "25% of 10k mixed IDs, got {hits}"
        );
        for i in 0..100 {
            assert_eq!(
                sample_trace(TraceId(i), 0.5),
                sample_trace(TraceId(i), 0.5),
                "pure function of (trace, rate)"
            );
        }
    }
}
