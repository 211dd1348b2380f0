//! Hierarchical self-profiler: where the *simulator itself* spends its
//! effort, attributed per component.
//!
//! Two strictly separated planes:
//!
//! * **Work units** — deterministic counts of simulation effort:
//!   component ticks dispatched, route-span folds, ICAP words, storage
//!   bytes, swap steps, samples captured. The profiler keeps none of
//!   them. They are a view of counters the simulated system already
//!   keeps and persists (executor ticks, fabric route work, storage and
//!   ICAP counters), read when a cost model is built, so they are
//!   byte-identical across `--jobs` counts and warm/cold sweep paths and
//!   count from the system's construction whenever the profiler was
//!   armed.
//! * **Host time** — wall-clock nanoseconds per nested scope, measured
//!   with the monotonic clock ([`std::time::Instant`]). The profiler
//!   holds only this plane. It is host plumbing, not simulation state:
//!   never persisted, explicitly outside every determinism contract
//!   (like the live sink).
//!
//! The host plane keeps two structures. An *aggregation tree* accumulates
//! calls/total/child time per `(parent, name)` scope — self time is
//! `total - children`, and the identity is exact by construction (tested).
//! A fixed-capacity allocation-free *ring* (like the flight recorder)
//! keeps the most recent completed scope intervals for the timeline's
//! host-time process ([`crate::timeline`]).
//!
//! Rare scopes (`run`, `sample`, caller-opened phases) are timed exactly
//! with [`Profiler::begin`]/[`Profiler::end`]. Per-dispatch scopes are
//! resolved once to a [`ScopeId`] and entered through
//! [`Profiler::dispatch`], which counts every call but reads the clock
//! for about one call in [`DISPATCH_STRIDE_MEAN`]: each timed duration is
//! scaled by its stride, an unbiased estimate of the stride's total.
//!
//! Joining the planes, [`Profiler::cost_model`] takes the work rows and
//! emits one row per work component — `{work_units, host_ns,
//! ns_per_unit}` — which `vapres sim --profile yes --cost-model` exports
//! and `vapres diff` gates. Per-route rows carry no scope of their own
//! (routes are folded inside the fabric tick), so their host time is
//! apportioned from the `exec/fabric` scope's self time by work-unit
//! share.

use crate::rng::SplitMix64;
use std::io::{self, Write};
use std::time::Instant;

/// Default capacity of the completed-scope ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Mean stride of [`Profiler::dispatch`]: a dispatch scope times about
/// one call in this many. Strides are drawn uniformly from
/// `1..=2 * DISPATCH_STRIDE_MEAN - 1`.
pub const DISPATCH_STRIDE_MEAN: u64 = 16;

/// Seed of the host-side stride generator (host plumbing: never
/// persisted, and nothing observable depends on it).
const STRIDE_SEED: u64 = 0x5EED;

/// Handle to one scope of the host-time tree, resolved once with
/// [`Profiler::resolve`] (a node index; `Copy`, cheap to cache at a
/// dispatch site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(usize);

/// One aggregated scope in the host-time tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    calls: u64,
    total_ns: u64,
    /// Nanoseconds spent in this node's direct children (so self time is
    /// `total_ns - child_ns`, exactly).
    child_ns: u64,
    /// Length of the current [`Profiler::dispatch`] stride.
    stride: u64,
    /// Dispatches left in the current stride; the call that takes it to
    /// zero is timed.
    countdown: u64,
}

/// One open scope on the stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: usize,
    start_ns: u64,
}

/// A completed scope interval in the ring (the timeline's host track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeEvent {
    /// Scope name.
    pub name: &'static str,
    /// Nesting depth at completion (root scopes are 0).
    pub depth: u32,
    /// Start, nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregated view of one scope, as returned by [`Profiler::scopes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeStat {
    /// Scope name (not unique: the same name may appear under several
    /// parents).
    pub name: &'static str,
    /// Depth in the tree (root scopes are 0).
    pub depth: u32,
    /// Completed calls.
    pub calls: u64,
    /// Wall time including children, ns.
    pub total_ns: u64,
    /// Wall time excluding children, ns.
    pub self_ns: u64,
}

/// One row of the cost model: a work component joined with its host cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRow {
    /// Work-plane component name.
    pub component: &'static str,
    /// Deterministic work units, exact.
    pub work_units: u64,
    /// Host nanoseconds attributed to the component (never part of any
    /// determinism contract). For `exec/*` rows, and the `fabric/route*`
    /// rows apportioned from `exec/fabric`, this is the unbiased
    /// estimate of [`Profiler::dispatch`]'s sampled timing.
    pub host_ns: u64,
}

/// The cost model: one row per work component, in work-row order.
/// The work-unit column is deterministic and exact; the host columns are
/// not (and are skipped by structural comparisons), and for dispatch
/// components they are sampled estimates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostModel {
    /// The rows, in work-row order.
    pub rows: Vec<CostRow>,
}

impl CostModel {
    /// Folds another model in: work units and host ns add per component,
    /// unknown components append in `other`'s order. Merging results in
    /// a fixed order (e.g. scenario-index order) keeps the merged
    /// work-unit plane independent of completion order.
    pub fn merge(&mut self, other: &CostModel) {
        for row in &other.rows {
            match self.rows.iter_mut().find(|r| r.component == row.component) {
                Some(r) => {
                    r.work_units += row.work_units;
                    r.host_ns += row.host_ns;
                }
                None => self.rows.push(row.clone()),
            }
        }
    }

    /// Writes the model as JSON: a `"cost_model"` format stamp, then one
    /// line per component — `{component, work_units, host_ns,
    /// ns_per_unit}`. Only `work_units` (and the component set/order) is
    /// deterministic; invariance checks strip the host fields first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"cost_model\": 1,")?;
        writeln!(w, "  \"components\": [")?;
        for (i, r) in self.rows.iter().enumerate() {
            let ns_per_unit = if r.work_units == 0 {
                0.0
            } else {
                r.host_ns as f64 / r.work_units as f64
            };
            writeln!(
                w,
                "    {{\"component\":\"{}\",\"work_units\":{},\"host_ns\":{},\
                 \"ns_per_unit\":{:.6}}}{}",
                r.component,
                r.work_units,
                r.host_ns,
                ns_per_unit,
                if i + 1 < self.rows.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        Ok(())
    }
}

/// The self-profiler's host plane, joined with a caller's work rows in
/// [`cost_model`](Self::cost_model). See the module docs.
#[derive(Debug, Clone)]
pub struct Profiler {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    ring: Vec<ScopeEvent>,
    capacity: usize,
    /// Once the ring is full: index of the oldest event (the slot the
    /// next completion overwrites).
    next: usize,
    /// Completed scopes over the profiler's whole lifetime, timed or not.
    completed: u64,
    epoch: Instant,
    /// Draws [`dispatch`](Self::dispatch) strides.
    strides: SplitMix64,
}

impl Profiler {
    /// Creates a profiler whose ring keeps the last `ring_capacity`
    /// completed scopes.
    ///
    /// # Panics
    ///
    /// If `ring_capacity` is zero.
    pub fn new(ring_capacity: usize) -> Self {
        assert!(ring_capacity > 0, "ring capacity must be >= 1");
        Profiler {
            nodes: Vec::new(),
            stack: Vec::new(),
            ring: Vec::with_capacity(ring_capacity),
            capacity: ring_capacity,
            next: 0,
            completed: 0,
            epoch: Instant::now(),
            strides: SplitMix64::new(STRIDE_SEED),
        }
    }

    fn now_ns(&self) -> u64 {
        #[cfg(test)]
        if let Some(ns) = tests::FAKE_NOW_NS.with(std::cell::Cell::get) {
            return ns;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    fn draw_stride(&mut self) -> u64 {
        self.strides.gen_range(1..2 * DISPATCH_STRIDE_MEAN)
    }

    /// The currently open scope, or `None` at the root.
    pub fn open_scope(&self) -> Option<ScopeId> {
        self.stack.last().map(|f| ScopeId(f.node))
    }

    /// The scope named `name` under the currently open scope, created on
    /// first use. The id stays valid for as long as that parent is the
    /// open scope when it is used.
    pub fn resolve(&mut self, name: &'static str) -> ScopeId {
        let parent = self.stack.last().map(|f| f.node);
        if let Some(i) = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name)
        {
            return ScopeId(i);
        }
        let stride = self.draw_stride();
        self.nodes.push(Node {
            name,
            parent,
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            stride,
            countdown: stride,
        });
        ScopeId(self.nodes.len() - 1)
    }

    /// Opens a scope named `name` under the currently open scope, timed
    /// exactly.
    pub fn begin(&mut self, name: &'static str) {
        let ScopeId(node) = self.resolve(name);
        let start_ns = self.now_ns();
        self.stack.push(Frame { node, start_ns });
    }

    /// Closes the innermost open scope, charging its duration to the
    /// aggregation tree and pushing the interval into the ring.
    ///
    /// # Panics
    ///
    /// If no scope is open (unbalanced `end`).
    pub fn end(&mut self) {
        let frame = self.stack.pop().expect("profiler scope stack underflow");
        let dur_ns = self.now_ns().saturating_sub(frame.start_ns);
        self.complete(frame.node, frame.start_ns, dur_ns, dur_ns);
    }

    /// Runs `f` as one call of the leaf scope `scope`, which must have
    /// been resolved under the currently open scope.
    ///
    /// Every call counts in the scope's `calls` and in
    /// [`completed`](Self::completed). Only the call that ends a stride
    /// (drawn uniformly from `1..=2 * DISPATCH_STRIDE_MEAN - 1`) reads the
    /// clock: its duration times the stride is charged to the scope's
    /// total and to its parent's child time — an unbiased estimate of
    /// the stride's total — and its real, unscaled interval goes to the
    /// ring. The jitter keeps a periodic dispatch pattern (an IOM's
    /// alternating inject and emit ticks) from aliasing with the stride.
    pub fn dispatch<R>(&mut self, scope: ScopeId, f: impl FnOnce() -> R) -> R {
        debug_assert_eq!(
            self.nodes[scope.0].parent,
            self.stack.last().map(|f| f.node),
            "dispatch scope resolved under another parent"
        );
        let node = &mut self.nodes[scope.0];
        node.countdown -= 1;
        if node.countdown > 0 {
            node.calls += 1;
            self.completed += 1;
            return f();
        }
        let stride = node.stride;
        let start_ns = self.now_ns();
        let out = f();
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        let next = self.draw_stride();
        let node = &mut self.nodes[scope.0];
        node.stride = next;
        node.countdown = next;
        self.complete(scope.0, start_ns, dur_ns, dur_ns.saturating_mul(stride));
        out
    }

    /// Charges one completed call of `node`: `charged_ns` to its total
    /// and its parent's child time, the real interval to the ring.
    fn complete(&mut self, node: usize, start_ns: u64, dur_ns: u64, charged_ns: u64) {
        let n = &mut self.nodes[node];
        n.calls += 1;
        n.total_ns += charged_ns;
        let name = n.name;
        if let Some(parent) = self.stack.last() {
            self.nodes[parent.node].child_ns += charged_ns;
        }
        let event = ScopeEvent {
            name,
            depth: self.stack.len() as u32,
            start_ns,
            dur_ns,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            self.ring[self.next] = event;
            self.next = (self.next + 1) % self.capacity;
        }
        self.completed += 1;
    }

    /// Opens a scope and returns an RAII guard that closes it on drop.
    /// Nest via [`Scope::scope`].
    pub fn scope(&mut self, name: &'static str) -> Scope<'_> {
        self.begin(name);
        Scope { prof: self }
    }

    /// Number of open scopes.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Completed scopes over the profiler's lifetime (not capped by the
    /// ring).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Distinct scopes in the aggregation tree.
    pub fn scope_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// The ring's completed intervals, oldest first.
    pub fn ring_events(&self) -> impl Iterator<Item = &ScopeEvent> + '_ {
        let (tail, head) = self.ring.split_at(self.next);
        head.iter().chain(tail.iter())
    }

    /// Aggregated per-scope statistics in depth-first tree order (each
    /// scope directly after its parent).
    pub fn scopes(&self) -> Vec<ScopeStat> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.push_subtree(None, 0, &mut out);
        out
    }

    fn push_subtree(&self, parent: Option<usize>, depth: u32, out: &mut Vec<ScopeStat>) {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.parent != parent {
                continue;
            }
            out.push(ScopeStat {
                name: n.name,
                depth,
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(n.child_ns),
            });
            self.push_subtree(Some(i), depth + 1, out);
        }
    }

    /// Total self time (ns) of every scope with this exact name, summed
    /// across parents.
    pub fn self_ns_named(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.total_ns.saturating_sub(n.child_ns))
            .sum()
    }

    /// The `;`-joined root-to-scope path of node `i`.
    fn path_of(&self, i: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(i);
        while let Some(c) = cur {
            parts.push(self.nodes[c].name);
            cur = self.nodes[c].parent;
        }
        parts.reverse();
        parts.join(";")
    }

    /// Writes the aggregation tree in collapsed-stack form (one
    /// `root;child;leaf <self_ns>` line per scope with nonzero self
    /// time) — the format flamegraph tooling (inferno, flamegraph.pl)
    /// consumes directly.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_collapsed<W: Write>(&self, mut w: W) -> io::Result<()> {
        for i in 0..self.nodes.len() {
            let n = &self.nodes[i];
            let self_ns = n.total_ns.saturating_sub(n.child_ns);
            if self_ns == 0 && n.calls == 0 {
                continue;
            }
            writeln!(w, "{} {}", self.path_of(i), self_ns)?;
        }
        Ok(())
    }

    /// Writes the top-`n` scopes by self time as a fixed-width
    /// self/total table (names aggregated across parents).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_top_table<W: Write>(&self, mut w: W, n: usize) -> io::Result<()> {
        // Aggregate by name: the table answers "which component is
        // expensive", not "along which path".
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for node in &self.nodes {
            let self_ns = node.total_ns.saturating_sub(node.child_ns);
            match rows.iter_mut().find(|r| r.0 == node.name) {
                Some(r) => {
                    r.1 += node.calls;
                    r.2 += self_ns;
                    r.3 += node.total_ns;
                }
                None => rows.push((node.name, node.calls, self_ns, node.total_ns)),
            }
        }
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        let grand: u64 = rows.iter().map(|r| r.2).sum();
        writeln!(
            w,
            "{:<28} {:>10} {:>12} {:>12} {:>6}",
            "scope", "calls", "self ms", "total ms", "self%"
        )?;
        for (name, calls, self_ns, total_ns) in rows.into_iter().take(n) {
            writeln!(
                w,
                "{:<28} {:>10} {:>12.3} {:>12.3} {:>5.1}%",
                name,
                calls,
                self_ns as f64 / 1e6,
                total_ns as f64 / 1e6,
                if grand == 0 {
                    0.0
                } else {
                    self_ns as f64 / grand as f64 * 100.0
                }
            )?;
        }
        Ok(())
    }

    /// Joins the planes: one row per `(component, work units)` pair of
    /// `work`, in its order. Host time comes from the scope with the
    /// component's exact name (summed across parents); `fabric/route*`
    /// components — folded inside the fabric tick, so they own no scope —
    /// split the `exec/fabric` scope's self time by work-unit share. Work
    /// units are exact; for scopes entered through
    /// [`dispatch`](Self::dispatch) (`exec/*`, and so the route rows) host
    /// time is the sampled estimate.
    pub fn cost_model(&self, work: &[(&'static str, u64)]) -> CostModel {
        let route_total: u64 = work
            .iter()
            .filter(|(n, _)| n.starts_with("fabric/route"))
            .map(|(_, u)| u)
            .sum();
        let fabric_self = self.self_ns_named("exec/fabric");
        let rows = work
            .iter()
            .map(|&(component, work_units)| {
                let host_ns = if component.starts_with("fabric/route") {
                    if route_total == 0 {
                        0
                    } else {
                        (fabric_self as u128 * work_units as u128 / route_total as u128) as u64
                    }
                } else {
                    self.self_ns_named(component)
                };
                CostRow {
                    component,
                    work_units,
                    host_ns,
                }
            })
            .collect();
        CostModel { rows }
    }
}

/// RAII guard for an open scope: closes it on drop. Obtain via
/// [`Profiler::scope`]; nest via [`Scope::scope`].
pub struct Scope<'a> {
    prof: &'a mut Profiler,
}

impl Scope<'_> {
    /// Opens a child scope.
    pub fn scope(&mut self, name: &'static str) -> Scope<'_> {
        self.prof.begin(name);
        Scope { prof: self.prof }
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.prof.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// When set, [`Profiler::now_ns`] reads this instead of the host
        /// clock, so estimator tests control every duration exactly.
        pub(super) static FAKE_NOW_NS: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Switches this thread's profilers to the fake clock, at 0.
    fn fake_clock() {
        FAKE_NOW_NS.with(|c| c.set(Some(0)));
    }

    /// Advances the fake clock by `ns`.
    fn advance(ns: u64) {
        FAKE_NOW_NS.with(|c| c.set(Some(c.get().expect("fake clock on") + ns)));
    }

    fn stat(p: &Profiler, name: &str) -> ScopeStat {
        *p.scopes().iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn dispatch_counts_every_call_and_times_about_one_in_the_mean_stride() {
        fake_clock();
        let mut p = Profiler::new(DEFAULT_RING_CAPACITY);
        p.begin("run");
        let fabric = p.resolve("exec/fabric");
        let iom = p.resolve("exec/iom0");
        assert_eq!(p.resolve("exec/fabric"), fabric, "resolve is idempotent");
        assert_eq!(p.open_scope(), Some(ScopeId(0)));
        for i in 0..48_000u64 {
            let scope = if i % 3 == 0 { iom } else { fabric };
            assert_eq!(p.dispatch(scope, || i * 2), i * 2, "passes the result on");
        }
        p.end();
        assert_eq!(stat(&p, "exec/fabric").calls, 32_000);
        assert_eq!(stat(&p, "exec/iom0").calls, 16_000);
        assert_eq!(stat(&p, "run").calls, 1);
        assert_eq!(
            p.completed(),
            48_001,
            "every dispatch completes, timed or not"
        );
        let timed = p.ring_events().count() as u64 - 1;
        let mean = 48_000 / DISPATCH_STRIDE_MEAN;
        assert!(
            timed > mean * 9 / 10 && timed < mean * 11 / 10,
            "{timed} timed dispatches, expected about {mean}"
        );
    }

    /// An IOM alternates an inject tick and an emit tick, so its
    /// dispatch durations have period 2. A fixed even stride would time
    /// calls of one parity only: with stride 16 every timed call is the
    /// 1,000 ns kind and the estimate is 1000 × 16 per 16 calls, 98 % over
    /// the true 505 × 16 (started one call later, 98 % under). The
    /// jittered stride lands on both parities and stays unbiased.
    #[test]
    fn jittered_strides_estimate_a_period_two_pattern() {
        const CALLS: u64 = 160_000;
        let dur = |i: u64| if i.is_multiple_of(2) { 10 } else { 1_000 };
        let truth: u64 = (0..CALLS).map(dur).sum();
        let fixed: u64 = (0..CALLS)
            .filter(|i| i % 16 == 15)
            .map(|i| dur(i) * 16)
            .sum();
        assert!(
            fixed.abs_diff(truth) * 10 > truth * 9,
            "fixed stride aliases"
        );

        fake_clock();
        let mut p = Profiler::new(1 << 16);
        p.begin("run");
        let iom = p.resolve("exec/iom0");
        for i in 0..CALLS {
            p.dispatch(iom, || advance(dur(i)));
        }
        p.end();
        let est = stat(&p, "exec/iom0").total_ns;
        assert!(
            est.abs_diff(truth) * 20 < truth,
            "estimate {est} ns vs true {truth} ns"
        );
        assert_eq!(stat(&p, "exec/iom0").calls, CALLS);
        assert_eq!(p.completed(), CALLS + 1);
    }

    #[test]
    fn ring_holds_only_timed_unscaled_intervals() {
        fake_clock();
        let mut p = Profiler::new(1 << 16);
        p.begin("run");
        let prr = p.resolve("exec/prr0");
        for i in 0..16_000u64 {
            p.dispatch(prr, || {
                advance(if i.is_multiple_of(2) { 10 } else { 1_000 })
            });
        }
        let timed: Vec<_> = p.ring_events().copied().collect();
        assert!(timed.len() < 2_000, "{} ring entries", timed.len());
        let mut last_end = 0;
        for e in &timed {
            assert_eq!(e.name, "exec/prr0");
            assert_eq!(e.depth, 1, "a dispatch nests under the open scope");
            assert!(e.dur_ns == 10 || e.dur_ns == 1_000, "unscaled: {e:?}");
            assert!(e.start_ns >= last_end, "real, ordered intervals: {e:?}");
            last_end = e.start_ns + e.dur_ns;
        }
        let scaled: u64 = stat(&p, "exec/prr0").total_ns;
        let real: u64 = timed.iter().map(|e| e.dur_ns).sum();
        assert!(scaled > real * 8, "the tree gets the scaled estimate");
    }

    #[test]
    fn parent_self_time_saturates_under_an_estimate() {
        // The other seven calls of this stride fell in an earlier `run`
        // that took no time; the eighth takes 1 µs and is charged 8 µs,
        // more than `run` measured in total.
        fake_clock();
        let mut p = Profiler::new(8);
        p.begin("run");
        let fabric = p.resolve("exec/fabric");
        p.nodes[fabric.0].stride = 8;
        p.nodes[fabric.0].countdown = 8;
        for _ in 0..7 {
            p.dispatch(fabric, || {});
        }
        p.end();
        p.begin("run");
        p.dispatch(fabric, || advance(1_000));
        p.end();
        let run = stat(&p, "run");
        assert_eq!(run.total_ns, 1_000);
        assert_eq!(stat(&p, "exec/fabric").total_ns, 8_000);
        assert_eq!(run.self_ns, 0, "saturates, never underflows");
        assert_eq!(p.self_ns_named("run"), 0);
        let mut out = Vec::new();
        p.write_collapsed(&mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("run 0\n"));
    }

    #[test]
    fn rare_scopes_stay_exact_around_dispatches() {
        fake_clock();
        let mut p = Profiler::new(64);
        p.begin("run");
        let iom = p.resolve("exec/iom0");
        for _ in 0..100 {
            p.dispatch(iom, || advance(3));
        }
        p.begin("sample");
        advance(250);
        p.end();
        p.end();
        assert_eq!(stat(&p, "sample").total_ns, 250);
        assert_eq!(stat(&p, "run").total_ns, 550);
    }

    #[test]
    fn nested_scope_accounting_sums_exactly() {
        let mut p = Profiler::new(64);
        p.begin("run");
        p.begin("exec/fabric");
        busy();
        p.end();
        p.begin("exec/iom0");
        busy();
        p.begin("sample");
        busy();
        p.end();
        p.end();
        p.end();
        assert_eq!(p.depth(), 0);
        let stats = p.scopes();
        let get = |name: &str| *stats.iter().find(|s| s.name == name).unwrap();
        let run = get("run");
        let fabric = get("exec/fabric");
        let iom = get("exec/iom0");
        let sample = get("sample");
        // Child totals tile the parent exactly: the sum of the children's
        // total time equals the parent's total minus the parent's self.
        assert_eq!(fabric.total_ns + iom.total_ns, run.total_ns - run.self_ns);
        assert_eq!(sample.total_ns, iom.total_ns - iom.self_ns);
        // Leaves have no children: self == total.
        assert_eq!(fabric.self_ns, fabric.total_ns);
        assert_eq!(sample.self_ns, sample.total_ns);
        assert_eq!(run.calls, 1);
        assert_eq!(p.completed(), 4);
    }

    #[test]
    fn raii_scopes_nest_and_close_on_drop() {
        let mut p = Profiler::new(8);
        {
            let mut outer = p.scope("outer");
            {
                let _inner = outer.scope("inner");
            }
            let _sibling = outer.scope("sibling");
        }
        assert_eq!(p.depth(), 0, "every guard closed its scope");
        let stats = p.scopes();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].name, "outer");
        assert_eq!(stats[0].depth, 0);
        assert!(stats.iter().any(|s| s.name == "inner" && s.depth == 1));
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_scopes() {
        let mut p = Profiler::new(3);
        for name in ["a", "b", "c", "d", "e"] {
            p.begin(name);
            p.end();
        }
        let names: Vec<_> = p.ring_events().map(|e| e.name).collect();
        assert_eq!(names, vec!["c", "d", "e"], "oldest first, oldest evicted");
        assert_eq!(p.completed(), 5, "lifetime count is not capped");
    }

    #[test]
    fn capacity_one_ring_holds_exactly_the_last_scope() {
        let mut p = Profiler::new(1);
        p.begin("first");
        p.end();
        p.begin("second");
        p.end();
        let events: Vec<_> = p.ring_events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "second");
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_capacity_is_rejected() {
        let _ = Profiler::new(0);
    }

    #[test]
    fn collapsed_stacks_carry_full_paths_and_self_values() {
        let mut p = Profiler::new(8);
        p.begin("run");
        p.begin("exec/fabric");
        busy();
        p.end();
        p.end();
        let mut out = Vec::new();
        p.write_collapsed(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let fabric_line = text
            .lines()
            .find(|l| l.starts_with("run;exec/fabric "))
            .expect("nested path present");
        let value: u64 = fabric_line.split(' ').next_back().unwrap().parse().unwrap();
        assert!(value > 0, "leaf self time is nonzero: {text}");
        assert!(text.lines().any(|l| l.starts_with("run ")));
    }

    #[test]
    fn top_table_ranks_by_self_time() {
        let mut p = Profiler::new(8);
        p.begin("cheap");
        p.end();
        p.begin("expensive");
        busy();
        busy();
        p.end();
        let mut out = Vec::new();
        p.write_top_table(&mut out, 10).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("scope"), "{text}");
        assert!(text.contains("self%"), "{text}");
        let exp = text.lines().position(|l| l.starts_with("expensive"));
        let cheap = text.lines().position(|l| l.starts_with("cheap"));
        assert!(exp.unwrap() < cheap.unwrap(), "{text}");
    }

    #[test]
    fn cost_model_joins_planes_and_apportions_route_time() {
        let mut p = Profiler::new(8);
        p.begin("exec/fabric");
        busy();
        p.end();
        let model = p.cost_model(&[
            ("exec/fabric", 10),
            ("fabric/route0", 30),
            ("fabric/route1", 10),
        ]);
        let row = |name: &str| model.rows.iter().find(|r| r.component == name).unwrap();
        let fabric_self = p.self_ns_named("exec/fabric");
        assert!(fabric_self > 0);
        assert_eq!(row("exec/fabric").host_ns, fabric_self);
        assert_eq!(row("fabric/route0").host_ns, fabric_self * 30 / 40);
        assert_eq!(row("fabric/route1").host_ns, fabric_self * 10 / 40);
        assert_eq!(row("fabric/route0").work_units, 30);

        let mut out = Vec::new();
        model.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"cost_model\": 1"), "{text}");
        assert!(
            text.contains("{\"component\":\"exec/fabric\",\"work_units\":10,"),
            "{text}"
        );
        assert!(text.contains("\"ns_per_unit\":"), "{text}");
    }

    #[test]
    fn cost_model_merge_sums_by_component_in_first_seen_order() {
        let a = CostModel {
            rows: vec![
                CostRow {
                    component: "exec/fabric",
                    work_units: 5,
                    host_ns: 100,
                },
                CostRow {
                    component: "cf",
                    work_units: 2,
                    host_ns: 10,
                },
            ],
        };
        let b = CostModel {
            rows: vec![
                CostRow {
                    component: "cf",
                    work_units: 3,
                    host_ns: 20,
                },
                CostRow {
                    component: "sdram",
                    work_units: 1,
                    host_ns: 5,
                },
            ],
        };
        let mut merged = CostModel::default();
        merged.merge(&a);
        merged.merge(&b);
        let names: Vec<_> = merged.rows.iter().map(|r| r.component).collect();
        assert_eq!(names, vec!["exec/fabric", "cf", "sdram"]);
        assert_eq!(merged.rows[1].work_units, 5);
        assert_eq!(merged.rows[1].host_ns, 30);
    }

    #[test]
    fn cost_model_json_has_one_line_per_component() {
        let model = CostModel {
            rows: vec![
                CostRow {
                    component: "exec/fabric",
                    work_units: 120,
                    host_ns: 480,
                },
                CostRow {
                    component: "idle",
                    work_units: 0,
                    host_ns: 7,
                },
            ],
        };
        let mut buf = Vec::new();
        model.write_json(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(
            text,
            "{\n  \"cost_model\": 1,\n  \"components\": [\n    \
             {\"component\":\"exec/fabric\",\"work_units\":120,\"host_ns\":480,\
             \"ns_per_unit\":4.000000},\n    \
             {\"component\":\"idle\",\"work_units\":0,\"host_ns\":7,\
             \"ns_per_unit\":0.000000}\n  ]\n}\n"
        );
    }

    /// Burns a little real time so durations are nonzero on any clock.
    fn busy() {
        let mut x = 0u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }
}
