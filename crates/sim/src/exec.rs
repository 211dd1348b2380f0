//! Activity-tracked component execution.
//!
//! The dense execution model — pull every rising edge from the
//! [`ClockScheduler`] and tick every component on each edge — is
//! O(edges × components) regardless of how much work the system is
//! actually doing. VAPRES systems are mostly *quiet*: FIFOs sit empty,
//! channels are routed but idle between samples, PRRs wait for input. The
//! [`Executor`] replaces the dense loop with event-driven scheduling:
//!
//! * every component registers with the clock domain that ticks it;
//! * after each tick a component reports an [`Activity`]: still `Active`,
//!   `IdleUntil` a known future time (e.g. an IOM waiting out its sample
//!   interval), or `Quiescent` (nothing to do until an external event);
//! * sleeping components are *skipped* when their domain's edge arrives,
//!   and when every component is asleep whole stretches of edges are
//!   elided with [`ClockScheduler::fast_forward`];
//! * `IdleUntil` wake-ups are kept in per-component wake slots, merged
//!   with the edge stream so a component sleeping until `t` is ticked by
//!   the first edge at or after `t`;
//! * external events (a FIFO push from another domain, a DCR write, a
//!   module install) wake components via [`Executor::wake`] or, from
//!   inside a tick, via the [`Waker`] handle.
//!
//! **Exactness contract:** the executor only elides ticks the host has
//! declared provably no-op (that is what `Quiescent`/`IdleUntil` assert),
//! so a run produces bit-for-bit the same component states, edge order,
//! and `Ps` timestamps as the dense loop — just without the wasted work.
//! Spurious wake-ups are therefore always safe: an extra tick of a
//! quiescent component is a no-op by definition.
//!
//! Per-domain counters ([`ExecStats`]) record edges delivered, edges
//! elided by fast-forward, component ticks dispatched, and ticks skipped,
//! so every run can report how much work it actually did. Ticks are kept
//! once, per component; a domain's tick count is the sum over its
//! components. The counters are model state: they are persisted, and
//! nothing resets them.
//!
//! # Examples
//!
//! A component that processes a 3-word burst and then goes quiescent:
//!
//! ```
//! use vapres_sim::clock::ClockScheduler;
//! use vapres_sim::exec::{Activity, Executor};
//! use vapres_sim::time::{Freq, Ps};
//!
//! let mut clocks = ClockScheduler::new();
//! let clk = clocks.add_domain(Freq::mhz(100));
//! let mut exec = Executor::new();
//! let comp = exec.register(clk);
//!
//! let mut backlog = 3u32;
//! exec.run_for(&mut clocks, Ps::from_us(1), |_waker, id, _edge| {
//!     assert_eq!(id, comp);
//!     backlog -= 1;
//!     if backlog == 0 { Activity::Quiescent } else { Activity::Active }
//! });
//!
//! assert_eq!(clocks.now(), Ps::from_us(1));       // time fully advanced
//! assert_eq!(clocks.cycles(clk), 100);            // cycle count exact
//! assert_eq!(exec.stats().total_ticks(), 3);      // but only 3 ticks ran
//! assert_eq!(exec.stats().total_skips(), 97);
//! ```

use crate::clock::{ClockScheduler, DomainId, Edge};
use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::Ps;
use crate::trace::{SignalId, Tracer};

/// What a component reports after a tick: may the executor stop ticking it?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// The component may do work on the very next edge — keep ticking it.
    Active,
    /// Every tick before the given absolute time is provably a no-op; tick
    /// again at the first edge at or after it (or earlier if woken).
    IdleUntil(Ps),
    /// Every further tick is provably a no-op until an external event
    /// wakes the component.
    Quiescent,
}

/// Identifies a component registered with an [`Executor`].
///
/// Ids are dense, starting at 0, in registration order. Components of the
/// same domain are ticked in registration order on each edge — hosts must
/// register them in the same order the dense loop dispatched them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(pub usize);

/// Per-domain work counters. `edges + ff_edges` is the number of rising
/// edges the domain produced; `ticks + skips` is what a dense loop would
/// have dispatched for this domain's components.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DomainStats {
    /// Edges delivered one-by-one (at least one component somewhere awake).
    pub edges: u64,
    /// Edges elided wholesale by fast-forward (everything asleep).
    pub ff_edges: u64,
    /// Component ticks actually dispatched (the sum over the domain's
    /// components).
    pub ticks: u64,
    /// Component ticks skipped because the component was asleep.
    pub skips: u64,
}

/// The counters an executor stores per domain; ticks live with each
/// component.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct DomainCounts {
    edges: u64,
    ff_edges: u64,
    skips: u64,
}

/// Executor work counters, per clock domain and per component, plus
/// aggregates. A view built by [`Executor::stats`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    domains: Vec<DomainStats>,
    components: Vec<u64>,
}

impl ExecStats {
    /// Counters for one domain (zeros if the domain never appeared).
    pub fn domain(&self, id: DomainId) -> DomainStats {
        self.domains.get(id.0).copied().unwrap_or_default()
    }

    /// Iterates `(domain, counters)` over every domain seen.
    pub fn domains(&self) -> impl Iterator<Item = (DomainId, &DomainStats)> {
        self.domains
            .iter()
            .enumerate()
            .map(|(i, s)| (DomainId(i), s))
    }

    /// Ticks dispatched per component, in registration order.
    pub fn component_ticks(&self) -> &[u64] {
        &self.components
    }

    /// Total component ticks dispatched.
    pub fn total_ticks(&self) -> u64 {
        self.components.iter().sum()
    }

    /// Total component ticks skipped (asleep at a delivered or elided edge).
    pub fn total_skips(&self) -> u64 {
        self.domains.iter().map(|d| d.skips).sum()
    }

    /// What the dense tick-everything loop would have dispatched.
    pub fn dense_equivalent_ticks(&self) -> u64 {
        self.total_ticks() + self.total_skips()
    }

    /// How many times fewer ticks ran than the dense loop would have run
    /// (∞ if nothing ticked at all).
    pub fn tick_reduction(&self) -> f64 {
        let ticks = self.total_ticks();
        if ticks == 0 {
            return f64::INFINITY;
        }
        self.dense_equivalent_ticks() as f64 / ticks as f64
    }
}

#[derive(Debug)]
struct Comp {
    domain: DomainId,
    awake: bool,
    /// Pending `IdleUntil` wake-up as `(due, seq)`; `Some` only while
    /// asleep. A component has at most one, so this slot *is* the timer
    /// queue. `seq` numbers every timer ever set, in order; it is only
    /// kept so checkpoints stay in their established encoding.
    timer: Option<(Ps, u64)>,
    /// Ticks dispatched to this component.
    ticks: u64,
}

/// The earliest due over all wake slots.
fn earliest_due(comps: &[Comp]) -> Option<Ps> {
    comps
        .iter()
        .filter_map(|c| c.timer)
        .map(|(due, _)| due)
        .min()
}

/// Handle through which a component tick wakes *other* components (e.g.
/// the fabric delivered a word into some node's FIFO). Wakes are applied
/// as soon as the tick returns, so a component later in the same edge's
/// dispatch order still sees the wake on this edge — exactly matching the
/// dense loop, which would have ticked it anyway.
#[derive(Debug)]
pub struct Waker<'a> {
    pending: &'a mut Vec<ComponentId>,
    scheduled: &'a mut Vec<(ComponentId, Ps)>,
}

impl Waker<'_> {
    /// Marks a component to be woken when the current tick returns.
    pub fn wake(&mut self, id: ComponentId) {
        self.pending.push(id);
    }

    /// Marks a component to be woken at absolute time `at` — the ticked
    /// component computed another component's event horizon (e.g. the
    /// fabric knows the next cycle it can deliver a word). Applied when
    /// the current tick returns; a same-edge [`wake`](Self::wake) for the
    /// same component wins (the timer is only placed on sleeping
    /// components).
    pub fn schedule_at(&mut self, id: ComponentId, at: Ps) {
        self.scheduled.push((id, at));
    }
}

struct ExecTrace {
    tracer: Tracer,
    total: SignalId,
    domains: Vec<SignalId>,
}

/// The activity-tracked component scheduler. See the [module
/// docs](self) for the execution model and exactness contract.
///
/// The executor does not own the [`ClockScheduler`] — the host keeps it
/// (frequency changes and gating stay host business) and lends it to
/// [`run_for`](Self::run_for) / [`step`](Self::step).
#[derive(Default)]
pub struct Executor {
    comps: Vec<Comp>,
    domain_comps: Vec<Vec<ComponentId>>,
    awake_per_domain: Vec<usize>,
    awake_total: usize,
    /// Earliest `due` over all wake slots (`None` when none is set).
    earliest: Option<Ps>,
    /// `seq` of the next timer set.
    next_seq: u64,
    /// Per-domain edge and skip counters.
    counts: Vec<DomainCounts>,
    wake_scratch: Vec<ComponentId>,
    sched_scratch: Vec<(ComponentId, Ps)>,
    ff_scratch: Vec<u64>,
    trace: Option<ExecTrace>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("components", &self.comps.len())
            .field("awake", &self.awake_total)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Executor {
    /// Creates an executor with no components.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component clocked by `domain`, initially awake.
    ///
    /// Components sharing a domain tick in registration order.
    pub fn register(&mut self, domain: DomainId) -> ComponentId {
        let id = ComponentId(self.comps.len());
        self.ensure_domain(domain.0);
        self.comps.push(Comp {
            domain,
            awake: true,
            timer: None,
            ticks: 0,
        });
        self.domain_comps[domain.0].push(id);
        self.awake_per_domain[domain.0] += 1;
        self.awake_total += 1;
        id
    }

    fn ensure_domain(&mut self, idx: usize) {
        if self.domain_comps.len() <= idx {
            self.domain_comps.resize_with(idx + 1, Vec::new);
            self.awake_per_domain.resize(idx + 1, 0);
        }
        self.ensure_counts(idx);
    }

    fn ensure_counts(&mut self, idx: usize) {
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, DomainCounts::default());
        }
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Whether the component is currently awake (would tick on its next
    /// domain edge).
    pub fn is_awake(&self, id: ComponentId) -> bool {
        self.comps[id.0].awake
    }

    /// Wakes a component in response to an external event (FIFO push, DCR
    /// write, module install, …). Cancels a pending `IdleUntil` timer.
    /// Waking an awake component is a no-op; spurious wakes are safe.
    pub fn wake(&mut self, id: ComponentId) {
        self.set_timer(id, None);
        let comp = &mut self.comps[id.0];
        if !comp.awake {
            comp.awake = true;
            self.awake_per_domain[comp.domain.0] += 1;
            self.awake_total += 1;
        }
    }

    /// Puts a component to sleep from outside a tick — the host's
    /// assertion that the component cannot do work right now (e.g. its
    /// clock domain is gated, or its PRR is empty). Cancels a pending
    /// `IdleUntil` timer. The host must [`wake`](Self::wake) it when the
    /// condition changes; sleeping an asleep component is a no-op.
    pub fn sleep_component(&mut self, id: ComponentId) {
        self.set_timer(id, None);
        self.sleep(id);
    }

    /// (Re)schedules a sleeping component to wake at absolute time `at`,
    /// replacing any pending `IdleUntil` timer. A no-op on an awake
    /// component — it will tick on its next edge anyway and report fresh
    /// activity then.
    pub fn schedule_wake_at(&mut self, id: ComponentId, at: Ps) {
        if !self.comps[id.0].awake {
            self.set_timer(id, Some(at));
        }
    }

    /// Replaces `id`'s wake slot with a timer due at `due` (or clears it),
    /// keeping `earliest` exact: a rescan is needed only when the slot
    /// held the earliest due and the new one (if any) is later.
    fn set_timer(&mut self, id: ComponentId, due: Option<Ps>) {
        let new = due.map(|d| {
            self.next_seq += 1;
            (d, self.next_seq - 1)
        });
        let old = std::mem::replace(&mut self.comps[id.0].timer, new);
        if due.is_some_and(|d| self.earliest.is_none_or(|e| d <= e)) {
            self.earliest = due;
        } else if old.is_some_and(|(d, _)| Some(d) == self.earliest) {
            self.earliest = earliest_due(&self.comps);
        }
    }

    fn sleep(&mut self, id: ComponentId) {
        let comp = &mut self.comps[id.0];
        if comp.awake {
            comp.awake = false;
            self.awake_per_domain[comp.domain.0] -= 1;
            self.awake_total -= 1;
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        // Every component's domain has a slot (restore checks it), and
        // fast-forward may count domains that hold no component.
        let mut domains =
            vec![DomainStats::default(); self.counts.len().max(self.domain_comps.len())];
        for (d, c) in domains.iter_mut().zip(&self.counts) {
            d.edges = c.edges;
            d.ff_edges = c.ff_edges;
            d.skips = c.skips;
        }
        for c in &self.comps {
            domains[c.domain.0].ticks += c.ticks;
        }
        ExecStats {
            domains,
            components: self.comps.iter().map(|c| c.ticks).collect(),
        }
    }

    /// Starts recording per-domain awake-component counts into an internal
    /// [`Tracer`] (signals `awake_total` and `clk<N>_awake`), for VCD
    /// inspection of the scheduler itself.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_some() {
            return;
        }
        let mut tracer = Tracer::new("vapres_exec");
        let total = tracer.add_signal("awake_total", 16);
        self.trace = Some(ExecTrace {
            tracer,
            total,
            domains: Vec::new(),
        });
    }

    /// The scheduler-activity tracer, if [`enable_tracing`](Self::enable_tracing)
    /// was called.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.trace.as_ref().map(|t| &t.tracer)
    }

    fn trace_sample(&mut self, at: Ps) {
        let Some(tr) = &mut self.trace else { return };
        tr.tracer.change(at, tr.total, self.awake_total as u64);
        while tr.domains.len() < self.awake_per_domain.len() {
            let name = format!("clk{}_awake", tr.domains.len());
            tr.domains.push(tr.tracer.add_signal(&name, 16));
        }
        for (d, &n) in self.awake_per_domain.iter().enumerate() {
            tr.tracer.change(at, tr.domains[d], n as u64);
        }
    }

    /// Runs the system for `dur`, advancing `clocks` exactly to
    /// `clocks.now() + dur`.
    ///
    /// `host` is called once per awake component per delivered edge of its
    /// domain, in registration order, and must perform the component's
    /// tick and report its [`Activity`].
    pub fn run_for<F>(&mut self, clocks: &mut ClockScheduler, dur: Ps, mut host: F)
    where
        F: FnMut(&mut Waker<'_>, ComponentId, Edge) -> Activity,
    {
        let deadline = clocks.now() + dur;
        while self.step(clocks, deadline, &mut host) {}
    }

    /// Advances the system by one unit of progress toward `deadline`:
    /// either one delivered edge (dispatching that domain's awake
    /// components), or one fast-forward over a fully-asleep stretch.
    ///
    /// Returns `false` once `clocks.now()` has reached `deadline` and
    /// nothing further can happen before it. Hosts with their own outer
    /// loops (e.g. `run_until` predicates, checked between steps) build on
    /// this directly.
    pub fn step<F>(&mut self, clocks: &mut ClockScheduler, deadline: Ps, host: &mut F) -> bool
    where
        F: FnMut(&mut Waker<'_>, ComponentId, Edge) -> Activity,
    {
        self.pop_timers(clocks.now());
        if self.awake_total == 0 {
            return self.fast_forward(clocks, deadline);
        }
        let Some(edge) = clocks.next_edge_before(deadline) else {
            // No edge before the deadline: now == deadline. Wake timers due
            // exactly at the deadline so the next call sees them.
            self.pop_timers(clocks.now());
            return false;
        };
        // Components sleeping until t ≤ edge.at must tick on this edge.
        self.pop_timers(edge.at);
        self.dispatch(clocks, edge, host);
        true
    }

    /// All components asleep: elide edges up to the deadline or the next
    /// `IdleUntil` wake-up, whichever is earlier. Returns whether the
    /// caller should keep stepping.
    fn fast_forward(&mut self, clocks: &mut ClockScheduler, deadline: Ps) -> bool {
        let now = clocks.now();
        if now >= deadline {
            return false;
        }
        match self.earliest {
            Some(t) if t <= deadline => {
                // Elide edges strictly before t; the edge at t (if any)
                // must still be delivered to the newly woken components.
                let stop = Ps::new(t.as_ps().saturating_sub(1));
                if stop > now {
                    self.accounted_fast_forward(clocks, stop);
                }
                self.pop_timers(t);
                true
            }
            _ => {
                self.accounted_fast_forward(clocks, deadline);
                false
            }
        }
    }

    /// `ClockScheduler::fast_forward` plus per-domain skip accounting.
    fn accounted_fast_forward(&mut self, clocks: &mut ClockScheduler, target: Ps) {
        let n = clocks.len();
        self.ff_scratch.clear();
        self.ff_scratch
            .extend((0..n).map(|d| clocks.cycles(DomainId(d))));
        clocks.fast_forward(target);
        for d in 0..n {
            let elided = clocks.cycles(DomainId(d)) - self.ff_scratch[d];
            if elided == 0 {
                continue;
            }
            self.ensure_counts(d);
            let comps = self.domain_comps.get(d).map_or(0, Vec::len) as u64;
            let st = &mut self.counts[d];
            st.ff_edges += elided;
            st.skips += elided * comps;
        }
        self.trace_sample(target);
    }

    fn dispatch<F>(&mut self, clocks: &mut ClockScheduler, edge: Edge, host: &mut F)
    where
        F: FnMut(&mut Waker<'_>, ComponentId, Edge) -> Activity,
    {
        let d = edge.domain.0;
        self.ensure_domain(d);
        self.counts[d].edges += 1;
        for i in 0..self.domain_comps[d].len() {
            let id = self.domain_comps[d][i];
            let comp = &mut self.comps[id.0];
            if !comp.awake {
                self.counts[d].skips += 1;
                continue;
            }
            comp.ticks += 1;
            let mut pending = std::mem::take(&mut self.wake_scratch);
            let mut scheduled = std::mem::take(&mut self.sched_scratch);
            let activity = host(
                &mut Waker {
                    pending: &mut pending,
                    scheduled: &mut scheduled,
                },
                id,
                edge,
            );
            self.apply_activity(id, clocks.now(), activity);
            // Immediate wakes first: schedule_wake_at is a no-op on the
            // components they leave awake.
            for c in pending.drain(..) {
                self.wake(c);
            }
            for (c, at) in scheduled.drain(..) {
                self.schedule_wake_at(c, at);
            }
            self.wake_scratch = pending;
            self.sched_scratch = scheduled;
        }
        self.trace_sample(edge.at);
    }

    fn apply_activity(&mut self, id: ComponentId, now: Ps, activity: Activity) {
        match activity {
            Activity::Active => {}
            Activity::Quiescent => self.sleep(id),
            Activity::IdleUntil(t) if t > now => {
                self.sleep(id);
                self.set_timer(id, Some(t));
            }
            // An idle-until time that is not in the future means "keep
            // ticking me" — equivalent to Active.
            Activity::IdleUntil(_) => {}
        }
    }

    /// Wakes every component whose timer is due at or before `now`.
    ///
    /// Free unless the earliest timer is due; then one pass over the wake
    /// slots wakes the due ones and finds the next earliest. Same-instant
    /// timers wake in component order rather than the order they were set
    /// in, which nothing can observe: a pop only sets an awake flag, and
    /// dispatch order is registration order whoever woke first.
    fn pop_timers(&mut self, now: Ps) {
        if self.earliest.is_none_or(|t| t > now) {
            return;
        }
        let mut earliest = None;
        for comp in &mut self.comps {
            match comp.timer {
                Some((due, _)) if due <= now => {
                    comp.timer = None;
                    if !comp.awake {
                        comp.awake = true;
                        self.awake_per_domain[comp.domain.0] += 1;
                        self.awake_total += 1;
                    }
                }
                Some((due, _)) => earliest = Some(earliest.map_or(due, |e: Ps| e.min(due))),
                None => {}
            }
        }
        self.earliest = earliest;
    }
}

impl Persist for ComponentId {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.0);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ComponentId(r.take_usize()?))
    }
}

crate::persist_fields!(DomainCounts: edges, ff_edges, skips);

impl Persist for Executor {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.comps.len());
        for c in &self.comps {
            w.put_usize(c.domain.0);
            c.awake.persist(w);
            c.timer.map(|(_, seq)| seq).persist(w);
        }
        // `domain_comps` sizing is observable through skip accounting, so
        // the number of domain slots is encoded even though their contents
        // (registration order per domain) are derived from `comps`.
        w.put_usize(self.domain_comps.len());
        // The wake slots, in the timer-queue layout this image has always
        // used: `next_seq`, then every pending timer as (due, seq,
        // component) in (due, seq) order.
        w.put_u64(self.next_seq);
        let mut timers: Vec<(Ps, u64, usize)> = self
            .comps
            .iter()
            .enumerate()
            .filter_map(|(idx, c)| c.timer.map(|(due, seq)| (due, seq, idx)))
            .collect();
        timers.sort_unstable();
        w.put_usize(timers.len());
        for (due, seq, idx) in timers {
            due.persist(w);
            w.put_u64(seq);
            w.put_usize(idx);
        }
        self.counts.persist(w);
        for c in &self.comps {
            w.put_u64(c.ticks);
        }
        self.trace.as_ref().map(|t| &t.tracer).cloned().persist(w);
        // Scratch vectors are empty between steps and never encoded.
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let corrupt = |msg: String| Err(PersistError::Corrupt(msg));
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        let mut comps = Vec::with_capacity(n);
        // The seq each sleeping component's timer must carry; the due
        // comes from the timer list below.
        let mut seqs = Vec::with_capacity(n);
        for _ in 0..n {
            let domain = DomainId(r.take_usize()?);
            let awake = bool::restore(r)?;
            let seq = Option::<u64>::restore(r)?;
            if awake && seq.is_some() {
                return corrupt("awake component with timer".into());
            }
            comps.push(Comp {
                domain,
                awake,
                timer: None,
                ticks: 0,
            });
            seqs.push(seq);
        }
        let n_domains = r.take_usize()?;
        // Domain slots carry no bytes of their own, but every one has a
        // stats row further on: more slots than bytes left is corrupt.
        if n_domains > r.remaining() {
            return corrupt(format!("{n_domains} domain slots in a shorter image"));
        }
        let next_seq = r.take_u64()?;
        let n_timers = r.take_usize()?;
        let mut prev = None;
        for _ in 0..n_timers {
            let due = Ps::restore(r)?;
            let seq = r.take_u64()?;
            let idx = r.take_usize()?;
            if seq >= next_seq {
                return corrupt(format!("timer seq {seq} >= next_seq {next_seq}"));
            }
            if prev.is_some_and(|p| p >= (due, seq)) {
                return corrupt(format!("timer ({}, {seq}) out of order", due.as_ps()));
            }
            prev = Some((due, seq));
            match comps.get_mut(idx) {
                Some(c) if seqs[idx] == Some(seq) && c.timer.is_none() => {
                    c.timer = Some((due, seq));
                }
                _ => return corrupt(format!("timer seq {seq} names no sleeping component {idx}")),
            }
        }
        if let Some(idx) = (0..n).find(|&i| seqs[i].is_some() && comps[i].timer.is_none()) {
            return corrupt(format!("component {idx} has a timer but no timer entry"));
        }
        let counts = Vec::<DomainCounts>::restore(r)?;
        for c in &mut comps {
            c.ticks = r.take_u64()?;
        }
        let trace = Option::<Tracer>::restore(r)?
            .map(|tracer| {
                if tracer.signal_count() == 0 {
                    return Err(PersistError::Corrupt("exec trace without signals".into()));
                }
                Ok(ExecTrace {
                    total: SignalId::from_index(0),
                    domains: (1..tracer.signal_count())
                        .map(SignalId::from_index)
                        .collect(),
                    tracer,
                })
            })
            .transpose()?;

        let max_domain = comps.iter().map(|c| c.domain.0 + 1).max().unwrap_or(0);
        if n_domains < max_domain {
            return Err(PersistError::Corrupt(format!(
                "component domain {} beyond {} domain slots",
                max_domain - 1,
                n_domains
            )));
        }
        let mut exec = Executor {
            earliest: earliest_due(&comps),
            comps,
            domain_comps: vec![Vec::new(); n_domains],
            awake_per_domain: vec![0; n_domains],
            awake_total: 0,
            next_seq,
            counts,
            trace,
            ..Executor::default()
        };
        for (idx, c) in exec.comps.iter().enumerate() {
            exec.domain_comps[c.domain.0].push(ComponentId(idx));
            if c.awake {
                exec.awake_per_domain[c.domain.0] += 1;
                exec.awake_total += 1;
            }
        }
        Ok(exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::Freq;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn quiescent_component_is_skipped_and_time_still_advances() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let c = exec.register(clk);

        let mut ticks = 0u32;
        exec.run_for(&mut clocks, Ps::from_us(1), |_, id, _| {
            assert_eq!(id, c);
            ticks += 1;
            Activity::Quiescent
        });
        assert_eq!(ticks, 1);
        assert_eq!(clocks.now(), Ps::from_us(1));
        assert_eq!(clocks.cycles(clk), 100, "fast-forward keeps cycles exact");
        let st = exec.stats().domain(clk);
        assert_eq!(st.ticks, 1);
        assert_eq!(st.edges + st.ff_edges, 100);
        assert_eq!(st.skips, 99);
    }

    #[test]
    fn idle_until_wakes_at_first_edge_at_or_after_deadline() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100)); // 10 ns period
        let mut exec = Executor::new();
        exec.register(clk);

        let tick_times = Rc::new(RefCell::new(Vec::new()));
        let log = tick_times.clone();
        exec.run_for(&mut clocks, Ps::from_ns(100), move |_, _, edge| {
            log.borrow_mut().push(edge.at.as_ns());
            // Sleep until 55 ns: the next tick must be the 60 ns edge.
            if edge.at == Ps::from_ns(10) {
                Activity::IdleUntil(Ps::from_ns(55))
            } else {
                Activity::Quiescent
            }
        });
        assert_eq!(*tick_times.borrow(), vec![10, 60]);
    }

    #[test]
    fn idle_until_exactly_on_edge_ticks_that_edge() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        exec.register(clk);

        let tick_times = Rc::new(RefCell::new(Vec::new()));
        let log = tick_times.clone();
        exec.run_for(&mut clocks, Ps::from_ns(100), move |_, _, edge| {
            log.borrow_mut().push(edge.at.as_ns());
            if edge.at == Ps::from_ns(10) {
                Activity::IdleUntil(Ps::from_ns(70))
            } else {
                Activity::Quiescent
            }
        });
        assert_eq!(*tick_times.borrow(), vec![10, 70]);
    }

    #[test]
    fn host_wake_applies_within_the_same_edge() {
        // Two components in one domain: the first wakes the second during
        // its own tick, so the second must tick on that same edge — the
        // dense-loop ordering.
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let a = exec.register(clk);
        let b = exec.register(clk);

        let order = Rc::new(RefCell::new(Vec::new()));
        let log = order.clone();
        exec.run_for(&mut clocks, Ps::from_ns(30), move |waker, id, edge| {
            log.borrow_mut().push((id, edge.at.as_ns()));
            if id == a && edge.at == Ps::from_ns(20) {
                waker.wake(b);
                Activity::Quiescent
            } else if id == a {
                Activity::Active
            } else {
                // b goes quiescent immediately on its first tick (10 ns).
                Activity::Quiescent
            }
        });
        assert_eq!(
            *order.borrow(),
            vec![(a, 10), (b, 10), (a, 20), (b, 20)],
            "b skipped nothing at 20 ns: the wake applied mid-edge"
        );
    }

    #[test]
    fn host_schedule_at_wakes_sleeping_peer_and_defers_to_wake() {
        // a stays active and steers b: sleeping b is woken by a timer a
        // placed via schedule_at, and a same-edge wake() overrides a
        // later schedule_at for the same component.
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100)); // 10 ns period
        let mut exec = Executor::new();
        let _a = exec.register(clk);
        let b = exec.register(clk);

        let b_ticks = Rc::new(RefCell::new(Vec::new()));
        let log = b_ticks.clone();
        exec.run_for(&mut clocks, Ps::from_ns(100), move |waker, id, edge| {
            if id == b {
                log.borrow_mut().push(edge.at.as_ns());
                return Activity::Quiescent;
            }
            match edge.at.as_ns() {
                // b slept after its 10 ns tick; aim a timer at 40 ns.
                20 => waker.schedule_at(b, Ps::from_ns(40)),
                // Replace a far-future timer with an immediate wake on
                // the same edge: wake wins, b ticks at 60 ns, and no
                // stale 90 ns timer survives to re-wake it.
                60 => {
                    waker.schedule_at(b, Ps::from_ns(90));
                    waker.wake(b);
                }
                _ => {}
            }
            Activity::Active
        });
        assert_eq!(*b_ticks.borrow(), vec![10, 40, 60]);
    }

    #[test]
    fn schedule_wake_at_replaces_pending_timer() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let c = exec.register(clk);

        exec.run_for(&mut clocks, Ps::from_ns(10), |_, _, _| {
            Activity::IdleUntil(Ps::from_ns(80))
        });
        assert!(!exec.is_awake(c));
        // Pull the horizon in: the 80 ns timer must not fire a second
        // tick after the replacement 30 ns one.
        exec.schedule_wake_at(c, Ps::from_ns(30));
        let mut ticks = Vec::new();
        exec.run_for(&mut clocks, Ps::from_ns(90), |_, _, edge| {
            ticks.push(edge.at.as_ns());
            Activity::Quiescent
        });
        assert_eq!(ticks, vec![30]);

        // On an awake component it is a no-op (no timer placed).
        exec.wake(c);
        exec.schedule_wake_at(c, Ps::from_us(5));
        let mut ticks = 0;
        exec.run_for(&mut clocks, Ps::from_ns(20), |_, _, _| {
            ticks += 1;
            Activity::Quiescent
        });
        assert_eq!(ticks, 1);
    }

    #[test]
    fn external_wake_cancels_idle_timer() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let c = exec.register(clk);

        let mut first = true;
        exec.run_for(&mut clocks, Ps::from_ns(10), |_, _, _| {
            first = false;
            Activity::IdleUntil(Ps::from_us(1))
        });
        assert!(!first);
        assert!(!exec.is_awake(c));
        exec.wake(c);
        assert!(exec.is_awake(c));

        let mut ticks = 0;
        exec.run_for(&mut clocks, Ps::from_ns(50), |_, _, _| {
            ticks += 1;
            Activity::Quiescent
        });
        assert_eq!(ticks, 1, "woken component ticked on the next edge");
    }

    #[test]
    fn multi_domain_skip_accounting() {
        let mut clocks = ClockScheduler::new();
        let fast = clocks.add_domain(Freq::mhz(100));
        let slow = clocks.add_domain(Freq::mhz(10));
        let mut exec = Executor::new();
        exec.register(fast);
        exec.register(slow);

        // The fast component stays active, the slow one quiesces at once.
        exec.run_for(&mut clocks, Ps::from_us(1), |_, id, _| {
            if id.0 == 0 {
                Activity::Active
            } else {
                Activity::Quiescent
            }
        });
        let f = exec.stats().domain(fast);
        let s = exec.stats().domain(slow);
        assert_eq!(f.ticks, 100);
        assert_eq!(f.skips, 0);
        assert_eq!(s.ticks, 1);
        assert_eq!(s.edges + s.ff_edges, 10);
        assert_eq!(s.skips, 9);
        assert_eq!(exec.stats().dense_equivalent_ticks(), 110);
        assert!((exec.stats().tick_reduction() - 110.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn registration_order_is_dispatch_order() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        let ids: Vec<_> = (0..4).map(|_| exec.register(clk)).collect();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        exec.run_for(&mut clocks, Ps::from_ns(10), move |_, id, _| {
            log.borrow_mut().push(id);
            Activity::Quiescent
        });
        assert_eq!(*seen.borrow(), ids);
    }

    #[test]
    fn tracer_records_awake_counts() {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        exec.register(clk);
        exec.enable_tracing();
        exec.run_for(&mut clocks, Ps::from_ns(50), |_, _, edge| {
            if edge.at >= Ps::from_ns(20) {
                Activity::Quiescent
            } else {
                Activity::Active
            }
        });
        let tracer = exec.tracer().expect("tracing enabled");
        assert!(!tracer.is_empty(), "awake-count changes were recorded");
    }

    #[test]
    fn step_reports_completion() {
        let mut clocks = ClockScheduler::new();
        clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        // No components: a single fast-forward step reaches the deadline.
        let deadline = Ps::from_us(1);
        let mut host = |_: &mut Waker<'_>, _: ComponentId, _: Edge| Activity::Active;
        assert!(!exec.step(&mut clocks, deadline, &mut host));
        assert_eq!(clocks.now(), deadline);
        assert!(!exec.step(&mut clocks, deadline, &mut host));
    }

    fn encode(exec: &Executor, clocks: &ClockScheduler) -> Vec<u8> {
        let mut w = Writer::new();
        exec.persist(&mut w);
        clocks.persist(&mut w);
        w.into_bytes()
    }

    /// Runs `segments` of a seeded churn schedule: each segment steps a
    /// random number of times toward a random deadline (so it may stop
    /// mid-run), then applies a random external wake, sleep, timer,
    /// gating or frequency change. Tick results and waker calls are a
    /// pure function of `(seed, component, edge)`, so a restored run
    /// replays exactly what the unbroken one does. Returns the dispatch
    /// log as `(component, domain, at_ps, cycle)`.
    fn churn(
        exec: &mut Executor,
        clocks: &mut ClockScheduler,
        seed: u64,
        segments: std::ops::Range<u64>,
    ) -> Vec<(usize, usize, u64, u64)> {
        let n = exec.component_count();
        let mut log = Vec::new();
        let mut host = |waker: &mut Waker<'_>, id: ComponentId, edge: Edge| {
            log.push((id.0, edge.domain.0, edge.at.as_ps(), edge.cycle));
            let mut rng = SplitMix64::new(seed ^ (id.0 as u64) << 48 ^ edge.at.as_ps());
            let other = ComponentId(rng.gen_usize(0..n));
            let later = edge.at + Ps::from_ns(rng.gen_range(0..120));
            match rng.gen_range(0..8) {
                0 => waker.wake(other),
                1 => waker.schedule_at(other, later),
                2 => {
                    waker.schedule_at(other, later);
                    waker.wake(other);
                }
                _ => {}
            }
            match rng.gen_range(0..3) {
                0 => Activity::Active,
                1 => Activity::IdleUntil(later),
                _ => Activity::Quiescent,
            }
        };
        for seg in segments {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37) ^ seg);
            let deadline = clocks.now() + Ps::from_ns(rng.gen_range(1..400));
            for _ in 0..rng.gen_range(1..24) {
                if !exec.step(clocks, deadline, &mut host) {
                    break;
                }
            }
            let comp = ComponentId(rng.gen_usize(0..n));
            let dom = DomainId(rng.gen_usize(0..clocks.len()));
            match rng.gen_range(0..6) {
                0 => exec.wake(comp),
                1 => exec.sleep_component(comp),
                2 => exec.schedule_wake_at(comp, clocks.now() + Ps::from_ns(rng.gen_range(0..300))),
                3 => clocks.set_enabled(dom, !clocks.is_enabled(dom)),
                4 => clocks.set_frequency(dom, Freq::mhz([25, 33, 50, 100][rng.gen_usize(0..4)])),
                _ => {}
            }
        }
        log
    }

    #[test]
    fn restore_under_timer_churn_matches_never_stopped() {
        for seed in 1..=12u64 {
            let mut clocks = ClockScheduler::new();
            for mhz in [100, 33, 50] {
                clocks.add_domain(Freq::mhz(mhz));
            }
            let mut exec = Executor::new();
            for i in 0..7 {
                exec.register(DomainId(i % 3));
            }
            if seed % 2 == 0 {
                exec.enable_tracing();
            }
            let mut rng = SplitMix64::new(seed);
            let stop = rng.gen_range(5..120);
            let end = stop + rng.gen_range(20..120);
            churn(&mut exec, &mut clocks, seed, 0..stop);
            let image = encode(&exec, &clocks);

            let mut r = Reader::new(&image);
            let mut exec2 = Executor::restore(&mut r).unwrap();
            let mut clocks2 = ClockScheduler::restore(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(encode(&exec2, &clocks2), image, "seed {seed}: re-encode");

            let want = churn(&mut exec, &mut clocks, seed, stop..end);
            let got = churn(&mut exec2, &mut clocks2, seed, stop..end);
            assert!(!want.is_empty(), "seed {seed}: nothing dispatched");
            assert_eq!(got, want, "seed {seed}: dispatch log diverged");
            assert_eq!(exec2.stats(), exec.stats(), "seed {seed}: stats diverged");
            assert_eq!(encode(&exec2, &clocks2), encode(&exec, &clocks));
        }
    }

    /// One component in one domain, asleep on a pending timer: the
    /// smallest image with every section populated. Layout: count (8),
    /// then domain (8), awake (1), timer seq (1 + 8); domain slots (8);
    /// next_seq (8), timer count (8), then (due, seq, component) (24);
    /// domain counts (8 + 24), component ticks (8); trace tag (1).
    fn one_sleeper() -> Vec<u8> {
        let mut clocks = ClockScheduler::new();
        let clk = clocks.add_domain(Freq::mhz(100));
        let mut exec = Executor::new();
        exec.register(clk);
        exec.run_for(&mut clocks, Ps::from_ns(20), |_, _, e| {
            Activity::IdleUntil(e.at + Ps::from_ns(50))
        });
        let mut w = Writer::new();
        exec.persist(&mut w);
        w.into_bytes()
    }

    const SLOTS: usize = 26;
    const ENTRY_SEQ: usize = 58;
    const ENTRY_COMP: usize = 66;

    fn restore_err(bytes: &[u8]) -> PersistError {
        Executor::restore(&mut Reader::new(bytes)).expect_err("corrupt image restored")
    }

    #[test]
    fn one_sleeper_layout_is_as_documented() {
        let bytes = one_sleeper();
        assert_eq!(bytes.len(), 115);
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(word(SLOTS), 1);
        assert_eq!(word(ENTRY_SEQ), word(18), "entry seq is the component's");
        assert_eq!(word(ENTRY_COMP), 0);
        Executor::restore(&mut Reader::new(&bytes)).unwrap();
    }

    #[test]
    fn restore_bounds_domain_slots_by_input_length() {
        let mut bytes = one_sleeper();
        // One flipped high byte: 2^56 slots of a Vec each.
        bytes[SLOTS + 7] = 0x01;
        assert!(matches!(restore_err(&bytes), PersistError::Corrupt(_)));
    }

    #[test]
    fn restore_rejects_timers_that_do_not_match_a_sleeping_component() {
        let base = one_sleeper();
        // Entry names a component outside the table.
        let mut bytes = base.clone();
        bytes[ENTRY_COMP] = 5;
        assert!(matches!(restore_err(&bytes), PersistError::Corrupt(_)));
        // Entry's seq differs from the component's.
        let mut bytes = base.clone();
        bytes[18] ^= 0x01;
        bytes[ENTRY_SEQ] ^= 0x02;
        assert!(matches!(restore_err(&bytes), PersistError::Corrupt(_)));
        // Component awake (its timer slot empty) but an entry names it.
        let mut bytes = base[..17].to_vec();
        bytes[16] = 1;
        bytes.push(0);
        bytes.extend_from_slice(&base[26..]);
        assert!(matches!(restore_err(&bytes), PersistError::Corrupt(_)));
        // Sleeping component with a timer, but no entry for it.
        let mut bytes = base[..SLOTS + 16].to_vec();
        bytes.extend_from_slice(&[0; 8]);
        bytes.extend_from_slice(&base[ENTRY_COMP + 8..]);
        assert!(matches!(restore_err(&bytes), PersistError::Corrupt(_)));
    }

    /// Every single-byte mutant of a one-component image and of a
    /// three-domain churned image is a typed error, or restores,
    /// re-encodes to the bytes it consumed, and runs 2 µs.
    #[test]
    fn single_byte_mutants_are_rejected_or_run() {
        let mut clocks = ClockScheduler::new();
        for mhz in [100, 33, 50] {
            clocks.add_domain(Freq::mhz(mhz));
        }
        let mut exec = Executor::new();
        for i in 0..4 {
            exec.register(DomainId(i % 3));
        }
        churn(&mut exec, &mut clocks, 7, 0..40);
        let mut w = Writer::new();
        exec.persist(&mut w);
        for bytes in [one_sleeper(), w.into_bytes()] {
            for at in 0..bytes.len() {
                for v in [0x00, 0x01, 0x07, 0xFF] {
                    let mut mutant = bytes.clone();
                    mutant[at] = v;
                    let mut r = Reader::new(&mutant);
                    let Ok(mut exec) = Executor::restore(&mut r) else {
                        continue;
                    };
                    let used = mutant.len() - r.remaining();
                    let mut w = Writer::new();
                    exec.persist(&mut w);
                    assert_eq!(w.into_bytes(), &mutant[..used], "byte {at} := {v:#04x}");
                    let mut clocks = ClockScheduler::new();
                    for mhz in [100, 33, 50] {
                        clocks.add_domain(Freq::mhz(mhz));
                    }
                    exec.run_for(&mut clocks, Ps::from_us(2), |_, _, e| {
                        Activity::IdleUntil(e.at + Ps::from_ns(30))
                    });
                }
            }
        }
    }
}
