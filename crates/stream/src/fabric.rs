//! The inter-module communication architecture: a linear array of switch
//! boxes with pipelined streaming channels (Sec. III.B of the paper).
//!
//! # Model
//!
//! Each of the `nodes` attachment points (PRRs and IOMs) pairs with one
//! switch box. Adjacent boxes are joined by `kr` right-flowing and `kl`
//! left-flowing channel *slots*; each slot has a pipeline register (that is
//! what lets the paper run the fabric at 100 MHz) and a paired feedback
//! wire running the opposite way for the consumer's FIFO-full signal.
//!
//! Establishing a streaming channel allocates one slot per hop plus the
//! producer and consumer module-interface ports, exactly as the MicroBlaze
//! would program the `MUX_sel` bits of every switch box on the path. Once
//! established, a word advances one hop per static-clock cycle.
//!
//! # Back-pressure
//!
//! The producer interface sends a word only when the (pipelined, hence
//! stale by `d` cycles) feedback-full signal is deasserted. The consumer
//! asserts feedback-full while its FIFO's remaining space is at most
//! `2·d + 1` words, where `d` is the channel's register depth: after the
//! assertion there can be at most `d` words in flight plus `d` more sent
//! before the producer observes the stall — so no word is ever dropped.
//! (The paper prints this threshold as "2*(N-d)", which asserts almost
//! immediately for realistic N; we implement the physically meaningful
//! round-trip window. See DESIGN.md.)

use crate::fifo::{AsyncFifo, FullError};
use crate::params::FabricParams;
use crate::word::Word;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use vapres_sim::flight::FifoEdgeKind;
use vapres_sim::persist::{Persist, PersistError, Reader, Writer};

/// Identifies one module-interface port: node index plus port index within
/// that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// Attachment point (PRR or IOM) index, left to right.
    pub node: usize,
    /// Port index within the node (`0..ko` for producers, `0..ki` for
    /// consumers).
    pub port: usize,
}

impl PortRef {
    /// Creates a port reference.
    pub const fn new(node: usize, port: usize) -> Self {
        PortRef { node, port }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}.port{}", self.node, self.port)
    }
}

/// Handle to an established streaming channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub usize);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Direction of travel along the switch-box array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward higher node indices.
    Right,
    /// Toward lower node indices.
    Left,
}

/// One allocated channel slot on a segment between adjacent switch boxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// Travel direction of the slot.
    pub dir: Dir,
    /// Segment index: segment `i` joins box `i` and box `i+1`.
    pub segment: usize,
    /// Channel index within the segment (`0..kr` or `0..kl`).
    pub channel: usize,
}

/// An error from establishing, releasing, or addressing channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The port does not exist under the fabric's parameters.
    BadPort(PortRef),
    /// The producer port already drives a channel.
    ProducerBusy(PortRef),
    /// The consumer port is already driven by a channel.
    ConsumerBusy(PortRef),
    /// No free channel slot on a segment of the path — the paper's
    /// `vapres_establish_channel` returns 0 in this case.
    NoFreeChannel {
        /// The congested segment.
        segment: usize,
        /// The direction that was needed.
        dir: Dir,
    },
    /// The module-interface FIFOs are too shallow to absorb the feedback
    /// round-trip window for this distance.
    FifoTooShallow {
        /// Configured FIFO depth.
        depth: usize,
        /// Minimum depth required for this channel.
        need: usize,
    },
    /// The channel id is unknown or already released.
    UnknownChannel(ChannelId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadPort(p) => write!(f, "no such port {p}"),
            RouteError::ProducerBusy(p) => write!(f, "producer {p} already allocated"),
            RouteError::ConsumerBusy(p) => write!(f, "consumer {p} already allocated"),
            RouteError::NoFreeChannel { segment, dir } => {
                write!(f, "no free {dir:?}-going channel on segment {segment}")
            }
            RouteError::FifoTooShallow { depth, need } => {
                write!(f, "fifo depth {depth} below required {need}")
            }
            RouteError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// One side of a module interface: the FIFO plus its enable bit
/// (`FIFO_ren` for producers, `FIFO_wen` for consumers) and drop counters.
#[derive(Debug, Clone)]
struct Interface {
    fifo: AsyncFifo,
    enabled: bool,
    /// Words lost because the FIFO was full on arrival (consumer side).
    overflow_drops: u64,
    /// Words lost because the enable bit was off on arrival (consumer side).
    gated_drops: u64,
    /// Highest FIFO occupancy ever observed (worst-case buffering).
    high_water: usize,
    /// Threshold state as of the last event capture (meaningful only
    /// while event capture is on; resynced when it is enabled).
    was_full: bool,
    was_empty: bool,
}

impl Interface {
    fn new(depth: usize) -> Self {
        Interface {
            fifo: AsyncFifo::new(depth),
            enabled: false,
            overflow_drops: 0,
            gated_drops: 0,
            high_water: 0,
            was_full: false,
            was_empty: true,
        }
    }

    fn note_level(&mut self) {
        let level = self.fifo.len();
        if level > self.high_water {
            self.high_water = level;
        }
    }
}

/// Compares an interface's full/empty state against its last captured
/// state and emits the crossing events. Call after any FIFO mutation
/// while event capture is on; both directions of both thresholds are
/// reported so a dump shows backpressure starting *and* clearing.
fn note_fifo_edges(
    events: &mut Vec<FifoEvent>,
    iface: &mut Interface,
    port: PortRef,
    producer: bool,
    cycle: u64,
) {
    let full = iface.fifo.is_full();
    let empty = iface.fifo.is_empty();
    if full != iface.was_full {
        iface.was_full = full;
        events.push(FifoEvent {
            cycle,
            port,
            producer,
            edge: if full {
                FifoEdgeKind::BecameFull
            } else {
                FifoEdgeKind::NoLongerFull
            },
        });
    }
    if empty != iface.was_empty {
        iface.was_empty = empty;
        events.push(FifoEvent {
            cycle,
            port,
            producer,
            edge: if empty {
                FifoEdgeKind::BecameEmpty
            } else {
                FifoEdgeKind::NoLongerEmpty
            },
        });
    }
}

/// An established channel's live state.
///
/// The forward pipeline and feedback wire are ring buffers, not shift
/// arrays: a word carries its injection cycle (it reaches the consumer
/// exactly `depth` cycles later), and the feedback history is a
/// run-length-encoded queue of the last `depth` feedback-full samples.
/// Both let the event-horizon fold (see [`StreamFabric::advance_to`])
/// advance a route across a multi-cycle span in O(words moved) instead of
/// O(cycles × depth).
#[derive(Debug, Clone)]
struct Route {
    producer: PortRef,
    consumer: PortRef,
    slots: Vec<Slot>,
    /// Register depth: hops + 1 (the final box's internal register).
    depth: usize,
    /// In-flight words as `(inject_cycle, word)`, oldest first. A word
    /// injected at cycle `c` arrives at the consumer at cycle
    /// `c + depth`; injection cycles are strictly increasing.
    pipe: VecDeque<(u64, Word)>,
    /// Feedback pipeline as run-length-encoded `(value, run)` entries,
    /// oldest (producer-visible) first; run lengths always sum to
    /// `depth`. The producer's stalled signal for the *next* cycle is the
    /// front run's value.
    feedback: VecDeque<(bool, u32)>,
    /// Feedback-full asserts when the consumer FIFO's remaining space is
    /// at most this (default: the round-trip window `2·depth + 1`).
    full_threshold: usize,
    delivered: u64,
    /// Cycles where the producer had a word ready but the (delayed)
    /// feedback-full signal blocked injection. Accrued for every static
    /// cycle the route exists, in both engines.
    stall_cycles: u64,
    /// Cycles where the consumer asserted feedback-full. Accrued for
    /// every static cycle the route exists, in both engines.
    backpressure_cycles: u64,
    /// Engine operations spent on this route: one per dispatched dense
    /// tick, one per closed-form fold span. A deterministic measure of
    /// per-route simulation effort (the self-profiler's work plane), not
    /// of simulated traffic.
    work_ops: u64,
}

impl Route {
    /// The producer-visible stalled value for the next cycle.
    fn fb_front(&self) -> (bool, u32) {
        *self.feedback.front().expect("feedback history never empty")
    }

    /// Shifts the feedback pipeline by `n` cycles, each latching `value`:
    /// consume `n` samples from the read end, append `n` at the write
    /// end (merging equal runs). Valid only when every one of the `n`
    /// cycles latches the same value — the fold picks spans so they do.
    fn fb_shift_span(&mut self, value: bool, n: u64) {
        let depth = self.depth as u64;
        if n >= depth {
            // The appended run overwrites the whole history.
            self.feedback.clear();
            self.feedback.push_back((value, self.depth as u32));
            return;
        }
        let mut left = n as u32;
        while left > 0 {
            let front = self.feedback.front_mut().expect("history never empty");
            if front.1 > left {
                front.1 -= left;
                break;
            }
            left -= front.1;
            self.feedback.pop_front();
        }
        match self.feedback.back_mut() {
            Some(back) if back.0 == value => back.1 += n as u32,
            _ => self.feedback.push_back((value, n as u32)),
        }
    }

    /// Whether the feedback history is a single run of `value` — it will
    /// re-latch `value` indefinitely while the consumer occupancy holds.
    fn fb_settled_at(&self, value: bool) -> bool {
        self.feedback.len() == 1 && self.feedback[0].0 == value
    }
}

/// Read-only description of an established channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelInfo {
    /// Driving producer port.
    pub producer: PortRef,
    /// Receiving consumer port.
    pub consumer: PortRef,
    /// Inter-box hops (the paper's `d`).
    pub hops: usize,
    /// Slots allocated along the path.
    pub slots: Vec<Slot>,
    /// Words delivered into the consumer FIFO so far.
    pub delivered: u64,
    /// Cycles where a ready word was held back by the delayed
    /// feedback-full signal. Counted for every static cycle the channel
    /// exists — the event-horizon fold accrues stalls across skipped
    /// stretches in closed form, so this matches the dense engine
    /// bit-for-bit.
    pub stall_cycles: u64,
    /// Cycles where the consumer asserted feedback-full. Accrued the
    /// same way as `stall_cycles` (identical in both engines).
    pub backpressure_cycles: u64,
    /// Engine operations spent advancing this route (dense ticks plus
    /// fold spans) — deterministic per-route simulation effort, the
    /// self-profiler's work-plane measure.
    pub work_ops: u64,
}

/// Minimum FIFO depth for a channel with register depth `depth` (hops + 1):
/// the feedback round-trip window plus one word of slack.
pub fn min_fifo_depth(depth: usize) -> usize {
    2 * depth + 2
}

/// One captured FIFO threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoEvent {
    /// Fabric tick count when the edge occurred.
    pub cycle: u64,
    /// The interface port.
    pub port: PortRef,
    /// True for the producer (module-output) side, false for consumer.
    pub producer: bool,
    /// Which threshold was crossed.
    pub edge: FifoEdgeKind,
}

/// The captured crossings handed back by
/// [`StreamFabric::drain_fifo_events`]: the newest ones still buffered,
/// oldest first, and how many older ones the capture bound discarded
/// since the previous drain.
#[derive(Debug)]
pub struct FifoEventDrain<'a> {
    discarded: u64,
    events: std::vec::Drain<'a, FifoEvent>,
}

impl FifoEventDrain<'_> {
    /// Crossings that happened before the yielded ones but fell out of
    /// the capture bound. A host that records them as skipped keeps its
    /// sequence numbering gap-free.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

impl Iterator for FifoEventDrain<'_> {
    type Item = FifoEvent;

    fn next(&mut self) -> Option<FifoEvent> {
        self.events.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.events.size_hint()
    }
}

/// Accumulated per-stage residency of one tagged word, summed over every
/// fabric traversal (*leg*) the tag completed. All figures are in fabric
/// ticks; a word that crosses two channels (producer IOM → module →
/// consumer IOM) reports `legs == 2` with both crossings summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Ticks spent waiting in producer-interface FIFOs
    /// (enqueue → injection into the switch-box pipeline).
    pub producer_wait_cycles: u64,
    /// Ticks spent traversing switch-box pipeline registers
    /// (injection → delivery into the consumer FIFO).
    pub hop_cycles: u64,
    /// Ticks spent waiting in consumer-interface FIFOs
    /// (delivery → dequeue by the consuming module/IOM).
    pub consumer_wait_cycles: u64,
    /// Pipeline registers traversed (per the paper, one per cycle — so
    /// `hop_cycles == hops` unless a leg is still in flight).
    pub hops: u32,
    /// Completed fabric traversals.
    pub legs: u32,
}

/// In-flight timestamps of a tag's current leg.
#[derive(Debug, Clone, Copy, Default)]
struct TagLeg {
    enqueued: Option<u64>,
    injected: Option<u64>,
    delivered: Option<u64>,
}

/// Tags below this index live in flat vectors indexed by tag — the hot
/// path for the sequentially-issued tags the tracer produces. Anything at
/// or above it (which only a corrupted or hostile word can carry, up to
/// `u32::MAX`) spills into an ordered map instead of forcing a
/// tag-sized — potentially multi-gigabyte — vector resize.
const MAX_DENSE_TAGS: usize = 1 << 16;

/// Per-tag provenance capture: timestamps every tagged word at FIFO
/// enqueue/dequeue and pipeline injection/delivery, folding each
/// completed leg into [`TagStats`]. Enabled via
/// [`StreamFabric::enable_word_tap`]; words without a tag cost one
/// branch.
#[derive(Debug, Clone, Default)]
pub struct WordTap {
    legs: Vec<TagLeg>,
    stats: Vec<TagStats>,
    /// Out-of-range tags (see [`MAX_DENSE_TAGS`]), keyed by tag.
    spill: BTreeMap<u32, (TagLeg, TagStats)>,
}

impl WordTap {
    fn entry(&mut self, tag: u32) -> (&mut TagLeg, &mut TagStats) {
        let idx = tag as usize;
        if idx < MAX_DENSE_TAGS {
            if idx >= self.stats.len() {
                self.legs.resize(idx + 1, TagLeg::default());
                self.stats.resize(idx + 1, TagStats::default());
            }
            (&mut self.legs[idx], &mut self.stats[idx])
        } else {
            let e = self.spill.entry(tag).or_default();
            (&mut e.0, &mut e.1)
        }
    }

    fn note_enqueue(&mut self, tag: u32, cycle: u64) {
        let (leg, _) = self.entry(tag);
        leg.enqueued = Some(cycle);
    }

    fn note_inject(&mut self, tag: u32, cycle: u64, hops: u32) {
        let (leg, stats) = self.entry(tag);
        if let Some(enq) = leg.enqueued.take() {
            stats.producer_wait_cycles += cycle.saturating_sub(enq);
        }
        leg.injected = Some(cycle);
        stats.hops += hops;
    }

    fn note_deliver(&mut self, tag: u32, cycle: u64) {
        let (leg, stats) = self.entry(tag);
        if let Some(inj) = leg.injected.take() {
            stats.hop_cycles += cycle.saturating_sub(inj);
        }
        leg.delivered = Some(cycle);
    }

    fn note_dequeue(&mut self, tag: u32, cycle: u64) {
        let (leg, stats) = self.entry(tag);
        if let Some(dlv) = leg.delivered.take() {
            stats.consumer_wait_cycles += cycle.saturating_sub(dlv);
            stats.legs += 1;
        }
    }

    /// Number of tag slots observed so far (dense slots plus spilled
    /// out-of-range tags).
    pub fn tag_count(&self) -> usize {
        self.stats.len() + self.spill.len()
    }

    /// Accumulated stats for one tag, if it was ever seen.
    pub fn stats(&self, tag: u32) -> Option<TagStats> {
        let idx = tag as usize;
        if idx < MAX_DENSE_TAGS {
            self.stats.get(idx).copied()
        } else {
            self.spill.get(&tag).map(|e| e.1)
        }
    }

    /// Accumulated stats for every observed tag as `(tag, stats)`, in tag
    /// order (dense slots first, then spilled tags — both ascending).
    pub fn all_stats(&self) -> impl Iterator<Item = (u32, TagStats)> + '_ {
        self.stats
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, *s))
            .chain(self.spill.iter().map(|(&t, e)| (t, e.1)))
    }
}

/// The streaming fabric of one reconfigurable streaming block.
///
/// # Examples
///
/// ```
/// use vapres_stream::fabric::{PortRef, StreamFabric};
/// use vapres_stream::params::FabricParams;
/// use vapres_stream::word::Word;
///
/// let mut fabric = StreamFabric::new(FabricParams::prototype())?;
/// // IOM at node 0 streams to the PRR at node 2.
/// let ch = fabric.establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))?;
/// fabric.set_fifo_ren(PortRef::new(0, 0), true)?;
/// fabric.set_fifo_wen(PortRef::new(2, 0), true)?;
///
/// fabric.producer_push(PortRef::new(0, 0), Word::data(42))?;
/// for _ in 0..4 {
///     fabric.tick();
/// }
/// assert_eq!(fabric.consumer_pop(PortRef::new(2, 0))?, Some(Word::data(42)));
/// # fabric.release_channel(ch)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamFabric {
    params: FabricParams,
    producers: Vec<Vec<Interface>>,
    consumers: Vec<Vec<Interface>>,
    /// `right_busy[segment][channel]` — occupancy of right-going slots.
    right_busy: Vec<Vec<bool>>,
    left_busy: Vec<Vec<bool>>,
    prod_busy: Vec<Vec<bool>>,
    cons_busy: Vec<Vec<bool>>,
    /// Every route slot ever issued, indexed by [`ChannelId`]. Ids are
    /// append-only — telemetry labels, profiler units and checkpoint
    /// images name channels by id — so released slots stay `None`.
    routes: Vec<Option<Route>>,
    /// Ids of the established routes, ascending: what every per-route
    /// scan walks, so its cost tracks the live routes rather than the
    /// swap history. Derived from `routes` (rebuilt on restore, never
    /// persisted).
    live: Vec<usize>,
    /// Activity flag per route (parallel to `routes`): set whenever the
    /// route might do state-changing work on the next tick, cleared by
    /// `tick` once the route is provably quiescent. `tick` only visits
    /// active routes.
    active: Vec<bool>,
    active_count: usize,
    /// Consumer ports that received a word during the last `tick`.
    deliveries: Vec<PortRef>,
    /// Producer ports whose FIFO was drained by injection during the last
    /// `tick` (a blocked writer may proceed).
    drains: Vec<PortRef>,
    /// Static-clock cycle the fabric state is materialized to. Both
    /// engines re-anchor this to the true static cycle count: `tick` /
    /// `tick_dense` advance it by one, [`advance_to`](Self::advance_to)
    /// jumps it to the target.
    ticks: u64,
    /// Route-cycles executed by the per-cycle engine (one increment per
    /// active route visited per dense tick). The work metric the
    /// batching benchmarks compare; the fold engine leaves it at zero.
    dispatched_route_ticks: u64,
    /// Calls to [`advance_to`](Self::advance_to) that moved the clock —
    /// the number of times an event-driven host actually dispatched the
    /// fabric.
    advances: u64,
    /// Fold operations (closed-form spans applied plus exact cycles
    /// stepped at event horizons) executed by the batching engine. The
    /// honest work metric to report next to `dispatched_route_ticks`.
    folded_ops: u64,
    /// Bumped by every externally-visible mutation (pushes, pops, enable
    /// toggles, resets, channel changes). Hosts compare generations
    /// around their port operations to decide whether the fabric's event
    /// horizon must be recomputed.
    generation: u64,
    /// Per-tag provenance capture (None = tracing off, zero cost).
    tap: Option<WordTap>,
    /// FIFO threshold-crossing capture for the flight recorder: how
    /// many of the newest crossings to keep (0 = capture off).
    capture_keep: usize,
    /// Buffered crossings, oldest first. Never longer than twice
    /// `capture_keep` between operations (see
    /// [`bound_events`](Self::bound_events)).
    events: Vec<FifoEvent>,
    /// Older crossings dropped from `events` since the last drain.
    events_discarded: u64,
}

impl StreamFabric {
    /// Builds a fabric from validated parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::params::ParamsError`] from validation.
    pub fn new(params: FabricParams) -> Result<Self, crate::params::ParamsError> {
        params.validate()?;
        let segs = params.segments();
        Ok(StreamFabric {
            producers: (0..params.nodes)
                .map(|_| {
                    (0..params.ko)
                        .map(|_| Interface::new(params.fifo_depth))
                        .collect()
                })
                .collect(),
            consumers: (0..params.nodes)
                .map(|_| {
                    (0..params.ki)
                        .map(|_| Interface::new(params.fifo_depth))
                        .collect()
                })
                .collect(),
            right_busy: vec![vec![false; params.kr]; segs],
            left_busy: vec![vec![false; params.kl]; segs],
            prod_busy: vec![vec![false; params.ko]; params.nodes],
            cons_busy: vec![vec![false; params.ki]; params.nodes],
            routes: Vec::new(),
            live: Vec::new(),
            active: Vec::new(),
            active_count: 0,
            deliveries: Vec::new(),
            drains: Vec::new(),
            ticks: 0,
            dispatched_route_ticks: 0,
            advances: 0,
            folded_ops: 0,
            generation: 0,
            tap: None,
            capture_keep: 0,
            events: Vec::new(),
            events_discarded: 0,
            params,
        })
    }

    /// Arms per-tag provenance capture: every tagged [`Word`] passing a
    /// FIFO or pipeline boundary from now on is timestamped into the
    /// [`WordTap`]. Untagged words cost one branch per boundary.
    pub fn enable_word_tap(&mut self) {
        if self.tap.is_none() {
            self.tap = Some(WordTap::default());
        }
    }

    /// The provenance capture, if armed.
    pub fn word_tap(&self) -> Option<&WordTap> {
        self.tap.as_ref()
    }

    /// Arms FIFO threshold-crossing capture, keeping the newest `keep`
    /// crossings between drains (a host feeding a ring of `keep`
    /// entries loses nothing it would have retained); 0 turns capture
    /// off and clears the buffer. Arming from off resyncs every
    /// interface's captured state to its current occupancy, so only
    /// *future* crossings are reported. Lowering the bound trims the
    /// buffer at once, counting the excess as discarded.
    pub fn set_event_capture(&mut self, keep: usize) {
        if keep == 0 {
            self.events.clear();
            self.events_discarded = 0;
        } else if self.capture_keep == 0 {
            for side in [&mut self.producers, &mut self.consumers] {
                for node in side.iter_mut() {
                    for iface in node.iter_mut() {
                        iface.was_full = iface.fifo.is_full();
                        iface.was_empty = iface.fifo.is_empty();
                    }
                }
            }
        }
        self.capture_keep = keep;
        self.trim_events(keep);
    }

    /// Drains the captured FIFO threshold crossings: the newest
    /// `keep` (see [`set_event_capture`](Self::set_event_capture)),
    /// oldest first, plus the count of older ones discarded since the
    /// previous drain. The host forwards them (timestamped) to its
    /// flight recorder whenever it needs the ring current — how often
    /// it drains does not change what the ring ends up holding.
    pub fn drain_fifo_events(&mut self) -> FifoEventDrain<'_> {
        self.trim_events(self.capture_keep);
        FifoEventDrain {
            discarded: std::mem::take(&mut self.events_discarded),
            events: self.events.drain(..),
        }
    }

    /// Drops the oldest buffered crossings beyond `keep`, counting them.
    fn trim_events(&mut self, keep: usize) {
        let excess = self.events.len().saturating_sub(keep);
        if excess > 0 {
            self.events.drain(..excess);
            self.events_discarded += excess as u64;
        }
    }

    /// Keeps the capture buffer bounded: once it holds more than twice
    /// the armed bound, trims it back to the bound (amortized O(1) per
    /// crossing). Called after every operation that can capture, and
    /// only once an operation's crossings are in final order.
    fn bound_events(&mut self) {
        if self.events.len() > self.capture_keep.saturating_mul(2) {
            self.trim_events(self.capture_keep);
        }
    }

    /// The fabric's parameters.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// The static-clock cycle the fabric state is materialized to. In
    /// both engines this is the true static cycle count — the fold
    /// engine advances it across skipped stretches in closed form.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Route-cycles executed by the per-cycle engine: one per active
    /// route visited per dense tick. Dense driving yields
    /// `cycles × routes`; the event-horizon fold leaves this at zero.
    pub fn dispatched_route_ticks(&self) -> u64 {
        self.dispatched_route_ticks
    }

    /// Number of [`advance_to`](Self::advance_to) calls that moved the
    /// clock — how many times an event-driven host dispatched the fabric.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Fold operations (closed-form spans plus exact event-horizon
    /// cycles) the batching engine executed. The batched-path work
    /// metric to weigh against [`dispatched_route_ticks`](Self::dispatched_route_ticks).
    pub fn folded_ops(&self) -> u64 {
        self.folded_ops
    }

    /// Mutation counter: bumped by every externally-visible port or
    /// channel operation. A host that snapshots this around its fabric
    /// calls knows whether the event horizon needs recomputing.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of routes that may do work on the next tick. Zero means a
    /// tick is provably a no-op — an event-driven scheduler can skip the
    /// fabric entirely until a port operation re-activates a route.
    pub fn active_route_count(&self) -> usize {
        self.active_count
    }

    /// Whether the next tick is provably a no-op (no route has in-flight
    /// words, injectable input, or settling feedback).
    pub fn is_quiescent(&self) -> bool {
        self.active_count == 0
    }

    /// Consumer ports that received a word during the last [`tick`]
    /// (words actually pushed into consumer FIFOs, not drops). The host
    /// uses this to wake the components attached to those nodes.
    ///
    /// [`tick`]: Self::tick
    pub fn last_deliveries(&self) -> &[PortRef] {
        &self.deliveries
    }

    /// Producer ports whose *full* FIFO was drained by channel injection
    /// during the last [`tick`]/[`advance_to`](Self::advance_to) — a
    /// writer blocked on FIFO-full may proceed. Pops from a non-full
    /// FIFO are not reported: nothing can be blocked on them.
    ///
    /// [`tick`]: Self::tick
    pub fn last_drains(&self) -> &[PortRef] {
        &self.drains
    }

    fn activate(&mut self, idx: usize) {
        if !self.active[idx] {
            self.active[idx] = true;
            self.active_count += 1;
        }
    }

    fn deactivate(&mut self, idx: usize) {
        if self.active[idx] {
            self.active[idx] = false;
            self.active_count -= 1;
        }
    }

    /// The established route at `idx` (an entry of `live`).
    fn live_route(&self, idx: usize) -> &Route {
        self.routes[idx]
            .as_ref()
            .expect("live ids name established routes")
    }

    /// Activates every live route matching `touches`.
    fn wake_routes(&mut self, touches: impl Fn(&Route) -> bool) {
        for k in 0..self.live.len() {
            let idx = self.live[k];
            if touches(self.live_route(idx)) {
                self.activate(idx);
            }
        }
    }

    fn check_producer(&self, p: PortRef) -> Result<(), RouteError> {
        if p.node >= self.params.nodes || p.port >= self.params.ko {
            return Err(RouteError::BadPort(p));
        }
        Ok(())
    }

    fn check_consumer(&self, p: PortRef) -> Result<(), RouteError> {
        if p.node >= self.params.nodes || p.port >= self.params.ki {
            return Err(RouteError::BadPort(p));
        }
        Ok(())
    }

    /// Establishes a streaming channel from `producer` to `consumer`,
    /// allocating one channel slot per hop (lowest free index per
    /// segment) plus both interface ports.
    ///
    /// # Errors
    ///
    /// See [`RouteError`]; on error nothing is allocated.
    pub fn establish_channel(
        &mut self,
        producer: PortRef,
        consumer: PortRef,
    ) -> Result<ChannelId, RouteError> {
        self.check_producer(producer)?;
        self.check_consumer(consumer)?;
        if self.prod_busy[producer.node][producer.port] {
            return Err(RouteError::ProducerBusy(producer));
        }
        if self.cons_busy[consumer.node][consumer.port] {
            return Err(RouteError::ConsumerBusy(consumer));
        }

        // Plan slot allocation without committing.
        let mut slots = Vec::new();
        if producer.node <= consumer.node {
            for seg in producer.node..consumer.node {
                let chan = self.right_busy[seg].iter().position(|b| !b).ok_or(
                    RouteError::NoFreeChannel {
                        segment: seg,
                        dir: Dir::Right,
                    },
                )?;
                slots.push(Slot {
                    dir: Dir::Right,
                    segment: seg,
                    channel: chan,
                });
            }
        } else {
            for seg in (consumer.node..producer.node).rev() {
                let chan = self.left_busy[seg].iter().position(|b| !b).ok_or(
                    RouteError::NoFreeChannel {
                        segment: seg,
                        dir: Dir::Left,
                    },
                )?;
                slots.push(Slot {
                    dir: Dir::Left,
                    segment: seg,
                    channel: chan,
                });
            }
        }

        let depth = slots.len() + 1;
        let need = min_fifo_depth(depth);
        if self.params.fifo_depth < need {
            return Err(RouteError::FifoTooShallow {
                depth: self.params.fifo_depth,
                need,
            });
        }

        // Commit.
        for s in &slots {
            match s.dir {
                Dir::Right => self.right_busy[s.segment][s.channel] = true,
                Dir::Left => self.left_busy[s.segment][s.channel] = true,
            }
        }
        self.prod_busy[producer.node][producer.port] = true;
        self.cons_busy[consumer.node][consumer.port] = true;

        let route = Route {
            producer,
            consumer,
            depth,
            pipe: VecDeque::new(),
            feedback: VecDeque::from([(false, depth as u32)]),
            full_threshold: 2 * depth + 1,
            slots,
            delivered: 0,
            stall_cycles: 0,
            backpressure_cycles: 0,
            work_ops: 0,
        };
        let id = ChannelId(self.routes.len());
        self.routes.push(Some(route));
        // The newest id is the largest: `live` stays ascending.
        self.live.push(id.0);
        // New routes start active until their feedback settles (the
        // consumer FIFO may already sit past the full threshold).
        self.active.push(true);
        self.active_count += 1;
        self.generation += 1;
        Ok(id)
    }

    /// Releases a channel, freeing its slots and ports. Words still in the
    /// pipeline registers are discarded — callers drain the stream first
    /// (that is what the switching methodology's end-of-stream word is
    /// for).
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownChannel`] if `id` was never issued or was
    /// already released.
    pub fn release_channel(&mut self, id: ChannelId) -> Result<(), RouteError> {
        let route = self
            .routes
            .get_mut(id.0)
            .and_then(Option::take)
            .ok_or(RouteError::UnknownChannel(id))?;
        self.deactivate(id.0);
        if let Ok(k) = self.live.binary_search(&id.0) {
            self.live.remove(k);
        }
        for s in &route.slots {
            match s.dir {
                Dir::Right => self.right_busy[s.segment][s.channel] = false,
                Dir::Left => self.left_busy[s.segment][s.channel] = false,
            }
        }
        self.prod_busy[route.producer.node][route.producer.port] = false;
        self.cons_busy[route.consumer.node][route.consumer.port] = false;
        self.generation += 1;
        Ok(())
    }

    /// Overrides a channel's feedback-full threshold: feedback asserts
    /// when the consumer FIFO's remaining space is at most
    /// `remaining_words`.
    ///
    /// The default (`2·depth + 1`) is the smallest provably lossless
    /// value; this override exists for the E9 ablation experiment, which
    /// demonstrates word loss below the round-trip window. Production
    /// code should never call it.
    ///
    /// # Errors
    ///
    /// [`RouteError::UnknownChannel`] if `id` is not established.
    pub fn set_feedback_threshold(
        &mut self,
        id: ChannelId,
        remaining_words: usize,
    ) -> Result<(), RouteError> {
        let route = self
            .routes
            .get_mut(id.0)
            .and_then(Option::as_mut)
            .ok_or(RouteError::UnknownChannel(id))?;
        route.full_threshold = remaining_words;
        // The feedback decision may change on the next tick.
        self.activate(id.0);
        self.generation += 1;
        Ok(())
    }

    /// Describes an established channel.
    pub fn channel_info(&self, id: ChannelId) -> Option<ChannelInfo> {
        let r = self.routes.get(id.0)?.as_ref()?;
        Some(ChannelInfo {
            producer: r.producer,
            consumer: r.consumer,
            hops: r.slots.len(),
            slots: r.slots.clone(),
            delivered: r.delivered,
            stall_cycles: r.stall_cycles,
            backpressure_cycles: r.backpressure_cycles,
            work_ops: r.work_ops,
        })
    }

    /// Ids of all currently-established channels.
    pub fn active_channels(&self) -> Vec<ChannelId> {
        self.live.iter().map(|&i| ChannelId(i)).collect()
    }

    /// The switch-box multiplexer configuration visible at `node`, packed
    /// the way the PRSocket's `MUX_sel` DCR field reports it: one bit per
    /// channel slot on the segments adjacent to the node's switch box
    /// (right-going then left-going, left segment then right segment),
    /// set when the slot is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mux_sel_bits(&self, node: usize) -> u32 {
        assert!(node < self.params.nodes, "node out of range");
        let mut bits = 0u32;
        let mut pos = 0usize;
        fn pack(bits: &mut u32, pos: &mut usize, busy: &[bool]) {
            for &b in busy {
                if b {
                    *bits |= 1 << *pos;
                }
                *pos += 1;
            }
        }
        // Segment to the left of the box (joins node-1 and node).
        if node > 0 {
            pack(&mut bits, &mut pos, &self.right_busy[node - 1]);
            pack(&mut bits, &mut pos, &self.left_busy[node - 1]);
        } else {
            pos += self.params.kr + self.params.kl;
        }
        // Segment to the right of the box.
        if node < self.params.segments() {
            pack(&mut bits, &mut pos, &self.right_busy[node]);
            pack(&mut bits, &mut pos, &self.left_busy[node]);
        }
        bits
    }

    /// Free right-going slots on `segment`.
    pub fn free_right_slots(&self, segment: usize) -> usize {
        self.right_busy[segment].iter().filter(|b| !**b).count()
    }

    /// Free left-going slots on `segment`.
    pub fn free_left_slots(&self, segment: usize) -> usize {
        self.left_busy[segment].iter().filter(|b| !**b).count()
    }

    /// Sets a producer interface's `FIFO_ren` bit (drives words into the
    /// switch box when set).
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn set_fifo_ren(&mut self, port: PortRef, enabled: bool) -> Result<(), RouteError> {
        self.check_producer(port)?;
        self.producers[port.node][port.port].enabled = enabled;
        self.wake_routes(|r| r.producer == port);
        self.generation += 1;
        Ok(())
    }

    /// Sets a consumer interface's `FIFO_wen` bit (accepts words from the
    /// switch box when set).
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn set_fifo_wen(&mut self, port: PortRef, enabled: bool) -> Result<(), RouteError> {
        self.check_consumer(port)?;
        self.consumers[port.node][port.port].enabled = enabled;
        self.wake_routes(|r| r.consumer == port);
        self.generation += 1;
        Ok(())
    }

    /// Clears every interface FIFO of `node` (the `FIFO_reset` DCR bit).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn reset_node_fifos(&mut self, node: usize) {
        for (port, p) in self.producers[node].iter_mut().enumerate() {
            p.fifo.reset();
            if self.capture_keep > 0 {
                note_fifo_edges(
                    &mut self.events,
                    p,
                    PortRef::new(node, port),
                    true,
                    self.ticks,
                );
            }
        }
        for (port, c) in self.consumers[node].iter_mut().enumerate() {
            c.fifo.reset();
            if self.capture_keep > 0 {
                note_fifo_edges(
                    &mut self.events,
                    c,
                    PortRef::new(node, port),
                    false,
                    self.ticks,
                );
            }
        }
        self.bound_events();
        // Occupancies changed: feedback decisions on routes touching this
        // node must be re-evaluated.
        self.wake_routes(|r| r.producer.node == node || r.consumer.node == node);
        self.generation += 1;
    }

    /// The module writes one word into its producer-interface FIFO.
    ///
    /// # Errors
    ///
    /// [`FullError`] when the FIFO is full — hardware modules block on the
    /// full flag (the KPN blocking-write).
    pub fn producer_push(&mut self, port: PortRef, word: Word) -> Result<(), FullError> {
        self.check_producer(port).map_err(|_| FullError)?;
        let iface = &mut self.producers[port.node][port.port];
        iface.fifo.push(word)?;
        iface.note_level();
        if let (Some(tap), Some(tag)) = (self.tap.as_mut(), word.tag()) {
            tap.note_enqueue(tag, self.ticks);
        }
        if self.capture_keep > 0 {
            note_fifo_edges(&mut self.events, iface, port, true, self.ticks);
            self.bound_events();
        }
        self.wake_routes(|r| r.producer == port);
        self.generation += 1;
        Ok(())
    }

    /// Free space in a producer-interface FIFO (for blocking-write
    /// decisions).
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn producer_space(&self, port: PortRef) -> Result<usize, RouteError> {
        self.check_producer(port)?;
        Ok(self.producers[port.node][port.port].fifo.remaining())
    }

    /// Occupancy of a producer-interface FIFO.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn producer_len(&self, port: PortRef) -> Result<usize, RouteError> {
        self.check_producer(port)?;
        Ok(self.producers[port.node][port.port].fifo.len())
    }

    /// The module reads one word from its consumer-interface FIFO.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn consumer_pop(&mut self, port: PortRef) -> Result<Option<Word>, RouteError> {
        self.check_consumer(port)?;
        let iface = &mut self.consumers[port.node][port.port];
        let word = iface.fifo.pop();
        if let Some(w) = word {
            if let (Some(tap), Some(tag)) = (self.tap.as_mut(), w.tag()) {
                tap.note_dequeue(tag, self.ticks);
            }
            if self.capture_keep > 0 {
                note_fifo_edges(&mut self.events, iface, port, false, self.ticks);
                self.bound_events();
            }
            // Freed space may deassert feedback-full on the next tick.
            self.wake_routes(|r| r.consumer == port);
            self.generation += 1;
        }
        Ok(word)
    }

    /// Occupancy of a consumer-interface FIFO.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn consumer_len(&self, port: PortRef) -> Result<usize, RouteError> {
        self.check_consumer(port)?;
        Ok(self.consumers[port.node][port.port].fifo.len())
    }

    /// Words dropped at a consumer because its FIFO was full.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn consumer_overflow_drops(&self, port: PortRef) -> Result<u64, RouteError> {
        self.check_consumer(port)?;
        Ok(self.consumers[port.node][port.port].overflow_drops)
    }

    /// Words dropped at a consumer because `FIFO_wen` was off.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn consumer_gated_drops(&self, port: PortRef) -> Result<u64, RouteError> {
        self.check_consumer(port)?;
        Ok(self.consumers[port.node][port.port].gated_drops)
    }

    /// Worst-case occupancy ever observed in a producer-interface FIFO.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn producer_high_water(&self, port: PortRef) -> Result<usize, RouteError> {
        self.check_producer(port)?;
        Ok(self.producers[port.node][port.port].high_water)
    }

    /// Worst-case occupancy ever observed in a consumer-interface FIFO.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPort`] for a nonexistent port.
    pub fn consumer_high_water(&self, port: PortRef) -> Result<usize, RouteError> {
        self.check_consumer(port)?;
        Ok(self.consumers[port.node][port.port].high_water)
    }

    /// Advances the fabric by one static-clock cycle. Equivalent to
    /// [`advance_to`](Self::advance_to)`(self.ticks() + 1)` — one fold
    /// step of the event-horizon engine, bit-for-bit identical to the
    /// dense per-cycle oracle ([`tick_dense`](Self::tick_dense)).
    pub fn tick(&mut self) {
        self.advance_to(self.ticks + 1);
    }

    /// Advances the fabric to static cycle `target` in closed form.
    ///
    /// Each established route is folded independently across the
    /// stretch: cycles on which something *discrete* happens — a word
    /// reaching the consumer end of the pipeline (delivery or drop) —
    /// run through the exact per-cycle step, while the regular spans in
    /// between (steady drain, steady stall, steady backpressure, pure
    /// quiescence) are applied arithmetically. The result is bit-for-bit
    /// identical to calling [`tick_dense`](Self::tick_dense) once per
    /// cycle: every FIFO occupancy and high-water mark, every
    /// `delivered`/`stall_cycles`/`backpressure_cycles`/drop counter,
    /// every captured FIFO edge, and every word-tap stage timing.
    ///
    /// A no-op when `target <= self.ticks()`.
    pub fn advance_to(&mut self, target: u64) {
        if target <= self.ticks {
            return;
        }
        self.advances += 1;
        self.deliveries.clear();
        self.drains.clear();
        let from = self.ticks;
        let events_start = self.events.len();
        for k in 0..self.live.len() {
            self.fold_route(self.live[k], from, target);
        }
        self.ticks = target;
        // Routes fold independently; restore the dense engine's global
        // event order (cycle-major, route order within a cycle — the
        // fold visits live routes in ascending id order and the sort is
        // stable).
        // Only then may the capture bound trim: trimming the route-major
        // fold output would drop crossings by route, not by age.
        if self.capture_keep > 0 && self.events.len() > events_start + 1 {
            self.events[events_start..].sort_by_key(|e| e.cycle);
        }
        self.bound_events();
    }

    /// Folds one route from cycle `from` (its current state) up to and
    /// including cycle `target`.
    fn fold_route(&mut self, idx: usize, from: u64, target: u64) {
        let Some(route) = self.routes[idx].as_mut() else {
            return;
        };
        let depth = route.depth as u64;
        let capture = self.capture_keep > 0;
        let mut t = from;
        while t < target {
            // Exact path: a word reaches the consumer end next cycle
            // (delivery or drop) — run the full per-cycle step.
            let next_del = route.pipe.front().map(|&(ic, _)| ic + depth);
            if next_del == Some(t + 1) {
                self.folded_ops += 1;
                route.work_ops += 1;
                step_route_cycle(
                    route,
                    &mut self.producers,
                    &mut self.consumers,
                    self.tap.as_mut(),
                    &mut self.events,
                    capture,
                    &mut self.deliveries,
                    &mut self.drains,
                    t + 1,
                );
                t += 1;
                continue;
            }

            // Closed-form span. No word reaches the consumer before
            // `next_del`, so the consumer occupancy — and with it the
            // feedback-full decision `f` latched each cycle — is
            // constant across the span.
            let cons = &self.consumers[route.consumer.node][route.consumer.port];
            let f = cons.fifo.remaining() <= route.full_threshold;
            let (v, front_len) = route.fb_front();
            // A single-run history at the latched value regenerates
            // itself forever; otherwise the producer-visible stall
            // signal holds `v` for exactly `front_len` more cycles.
            let self_sustain = route.feedback.len() == 1 && v == f;
            let prod = &self.producers[route.producer.node][route.producer.port];
            let prod_enabled = prod.enabled;
            let avail = prod.fifo.len() as u64;
            let injecting = prod_enabled && !v && avail > 0;
            let mut end = target;
            if !self_sustain {
                end = end.min(t + front_len as u64);
            }
            if let Some(d) = next_del {
                end = end.min(d - 1);
            }
            if injecting {
                // Bounded by the producer running dry and by the first
                // injected word's own arrival at the consumer end.
                end = end.min(t + avail).min(t + depth);
            }
            let n = end - t;
            self.folded_ops += 1;
            route.work_ops += 1;
            if f {
                route.backpressure_cycles += n;
            }
            if injecting {
                let prod = &mut self.producers[route.producer.node][route.producer.port];
                for k in 1..=n {
                    let was_full = prod.fifo.is_full();
                    let w = prod.fifo.pop().expect("span bounded by occupancy");
                    if let (Some(tap), Some(tag)) = (self.tap.as_mut(), w.tag()) {
                        tap.note_inject(tag, t + k, route.slots.len() as u32);
                    }
                    if capture {
                        note_fifo_edges(&mut self.events, prod, route.producer, true, t + k);
                    }
                    if was_full {
                        self.drains.push(route.producer);
                    }
                    route.pipe.push_back((t + k, w));
                }
            } else if prod_enabled && v && avail > 0 {
                route.stall_cycles += n;
            }
            route.fb_shift_span(f, n);
            t = end;
        }

        // Activity bookkeeping for the per-cycle engine and host
        // scheduling: settled routes (nothing in flight, feedback
        // self-sustaining, nothing injectable) are exactly the ones the
        // dense quiescence check would deactivate.
        let cons = &self.consumers[route.consumer.node][route.consumer.port];
        let f = cons.fifo.remaining() <= route.full_threshold;
        let prod = &self.producers[route.producer.node][route.producer.port];
        let settled = route.pipe.is_empty()
            && route.fb_settled_at(f)
            && (f || !prod.enabled || prod.fifo.is_empty());
        if settled {
            self.deactivate(idx);
        } else {
            self.activate(idx);
        }
    }

    /// The earliest future static cycle at which the fabric can interact
    /// with an attached component: deliver a word into an accepting
    /// consumer FIFO, or drain a full producer FIFO (unblocking a
    /// writer). `None` means no such interaction is possible without a
    /// prior port operation — an event-driven host need not dispatch the
    /// fabric at all.
    ///
    /// The bound is conservative-early: the fabric may have nothing
    /// component-visible to do at the returned cycle (the host just
    /// re-arms), but it never has something to do *before* it. Port
    /// operations can only move the true horizon earlier; they bump
    /// [`generation`](Self::generation) so the host knows to recompute.
    pub fn next_wake_cycle(&self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let consider = |wake: &mut Option<u64>, w: u64| {
            *wake = Some(wake.map_or(w, |cur| cur.min(w)));
        };
        for &idx in &self.live {
            let route = self.live_route(idx);
            let depth = route.depth as u64;
            let cons = &self.consumers[route.consumer.node][route.consumer.port];
            let deliverable = cons.enabled && !cons.fifo.is_full();
            if deliverable {
                if let Some(&(ic, _)) = route.pipe.front() {
                    consider(&mut wake, ic + depth);
                }
            }
            let prod = &self.producers[route.producer.node][route.producer.port];
            if prod.enabled && !prod.fifo.is_empty() {
                // First cycle strictly after `ticks` whose delayed
                // feedback signal admits a word.
                let mut t_inj = None;
                let mut off = 0u64;
                for &(v, run) in &route.feedback {
                    if !v {
                        t_inj = Some(self.ticks + off + 1);
                        break;
                    }
                    off += run as u64;
                }
                if t_inj.is_none() {
                    // All-stalled history: the value latched now decides
                    // once it crosses the pipeline.
                    let f = cons.fifo.remaining() <= route.full_threshold;
                    if !f {
                        t_inj = Some(self.ticks + depth + 1);
                    }
                }
                if let Some(ti) = t_inj {
                    if prod.fifo.is_full() {
                        // Injection pops a full producer FIFO: a blocked
                        // writer may proceed.
                        consider(&mut wake, ti);
                    }
                    if deliverable {
                        consider(&mut wake, ti + depth);
                    }
                }
            }
        }
        wake
    }

    /// The dense per-cycle oracle: forces every established route active
    /// and executes exactly one cycle of every route's pipeline with the
    /// exact step. Exists so equivalence tests (and the golden E3 trace)
    /// can drive the fabric both ways and assert identical results; not
    /// for production use.
    #[doc(hidden)]
    pub fn tick_dense(&mut self) {
        self.wake_routes(|_| true);
        self.dense_tick();
    }

    /// One cycle of the per-cycle engine over the active routes.
    fn dense_tick(&mut self) {
        self.ticks += 1;
        self.deliveries.clear();
        self.drains.clear();
        if self.active_count == 0 {
            return;
        }
        let cycle = self.ticks;
        for k in 0..self.live.len() {
            let idx = self.live[k];
            if !self.active[idx] {
                continue;
            }
            let route = self.routes[idx]
                .as_mut()
                .expect("live ids name established routes");
            self.dispatched_route_ticks += 1;
            route.work_ops += 1;
            step_route_cycle(
                route,
                &mut self.producers,
                &mut self.consumers,
                self.tap.as_mut(),
                &mut self.events,
                self.capture_keep > 0,
                &mut self.deliveries,
                &mut self.drains,
                cycle,
            );

            // Quiescence: the next cycle is a no-op iff nothing is in
            // flight, the feedback pipe already carries the value it
            // would keep re-latching, and no new word can be injected.
            // Any port operation that could invalidate this re-activates
            // the route.
            let cons = &self.consumers[route.consumer.node][route.consumer.port];
            let full_now = cons.fifo.remaining() <= route.full_threshold;
            let prod = &self.producers[route.producer.node][route.producer.port];
            let quiet = route.pipe.is_empty()
                && route.fb_settled_at(full_now)
                && (full_now || !prod.enabled || prod.fifo.is_empty());
            if quiet {
                self.deactivate(idx);
            }
        }
        self.bound_events();
    }
}

/// The exact one-cycle step of a single route, shared by the dense
/// per-cycle engine and the fold's event-horizon cycles. On entry the
/// route's state is materialized to `cycle - 1`; on return, to `cycle`.
#[allow(clippy::too_many_arguments)]
fn step_route_cycle(
    route: &mut Route,
    producers: &mut [Vec<Interface>],
    consumers: &mut [Vec<Interface>],
    mut tap: Option<&mut WordTap>,
    events: &mut Vec<FifoEvent>,
    capture_events: bool,
    deliveries: &mut Vec<PortRef>,
    drains: &mut Vec<PortRef>,
    cycle: u64,
) {
    let depth = route.depth as u64;

    // 1. Word arriving at the consumer this cycle.
    if route
        .pipe
        .front()
        .is_some_and(|&(ic, _)| ic + depth == cycle)
    {
        let (_, word) = route.pipe.pop_front().expect("front checked above");
        let cons = &mut consumers[route.consumer.node][route.consumer.port];
        if !cons.enabled {
            cons.gated_drops += 1;
        } else if cons.fifo.push(word).is_err() {
            cons.overflow_drops += 1;
        } else {
            cons.note_level();
            route.delivered += 1;
            if let (Some(tap), Some(tag)) = (tap.as_deref_mut(), word.tag()) {
                tap.note_deliver(tag, cycle);
            }
            if capture_events {
                note_fifo_edges(events, cons, route.consumer, false, cycle);
            }
            deliveries.push(route.consumer);
        }
    }

    // 2. Feedback-full decision, post-arrival occupancy.
    let cons = &consumers[route.consumer.node][route.consumer.port];
    let full_now = cons.fifo.remaining() <= route.full_threshold;
    if full_now {
        route.backpressure_cycles += 1;
    }

    // 3. Producer injection, gated by FIFO_ren and the (delayed)
    //    feedback-full signal at the producer end of the history.
    let stalled = route.fb_front().0;
    let prod = &mut producers[route.producer.node][route.producer.port];
    if prod.enabled && !stalled {
        let was_full = prod.fifo.is_full();
        if let Some(w) = prod.fifo.pop() {
            if let (Some(tap), Some(tag)) = (tap, w.tag()) {
                tap.note_inject(tag, cycle, route.slots.len() as u32);
            }
            if capture_events {
                note_fifo_edges(events, prod, route.producer, true, cycle);
            }
            if was_full {
                drains.push(route.producer);
            }
            route.pipe.push_back((cycle, w));
        }
    } else if prod.enabled && stalled && !prod.fifo.is_empty() {
        route.stall_cycles += 1;
    }

    // 4. Shift the feedback pipeline toward the producer, latching the
    //    decision made this cycle at the consumer end.
    route.fb_shift_span(full_now, 1);
}

// ----------------------------------------------------------------------
// Snapshot codec. Everything observable is encoded verbatim — including
// the per-route activity flags and work counters, which a conservative
// "mark everything active" reconstruction would skew — so a checkpoint
// taken immediately after a restore is byte-identical to the original.
// ----------------------------------------------------------------------

vapres_sim::persist_fields!(PortRef: node, port);

vapres_sim::persist_tags!(Dir, "direction": Right = 0, Left = 1);

vapres_sim::persist_fields!(Slot: dir, segment, channel);

vapres_sim::persist_fields!(FifoEvent: cycle, port, producer, edge);

vapres_sim::persist_fields!(
    TagStats: producer_wait_cycles, hop_cycles, consumer_wait_cycles, hops, legs
);

vapres_sim::persist_fields!(TagLeg: enqueued, injected, delivered);

impl Persist for WordTap {
    fn persist(&self, w: &mut Writer) {
        self.legs.persist(w);
        self.stats.persist(w);
        self.spill.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let legs: Vec<TagLeg> = Vec::restore(r)?;
        let stats: Vec<TagStats> = Vec::restore(r)?;
        if legs.len() != stats.len() {
            return Err(PersistError::Corrupt(format!(
                "word tap has {} legs but {} stats",
                legs.len(),
                stats.len()
            )));
        }
        Ok(WordTap {
            legs,
            stats,
            spill: BTreeMap::restore(r)?,
        })
    }
}

vapres_sim::persist_fields!(
    Interface: fifo, enabled, overflow_drops, gated_drops, high_water, was_full, was_empty
);

impl Persist for Route {
    fn persist(&self, w: &mut Writer) {
        self.producer.persist(w);
        self.consumer.persist(w);
        self.slots.persist(w);
        w.put_usize(self.depth);
        self.pipe.persist(w);
        self.feedback.persist(w);
        w.put_usize(self.full_threshold);
        w.put_u64(self.delivered);
        w.put_u64(self.stall_cycles);
        w.put_u64(self.backpressure_cycles);
        w.put_u64(self.work_ops);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let producer = PortRef::restore(r)?;
        let consumer = PortRef::restore(r)?;
        let slots: Vec<Slot> = Vec::restore(r)?;
        let depth = r.take_usize()?;
        let pipe: VecDeque<(u64, Word)> = VecDeque::restore(r)?;
        let feedback: VecDeque<(bool, u32)> = VecDeque::restore(r)?;
        // The fold engine relies on the RLE feedback history spanning
        // exactly `depth` samples (`fb_front` panics on an empty one).
        let span: u64 = feedback.iter().map(|&(_, n)| u64::from(n)).sum();
        if feedback.is_empty() || span != depth as u64 {
            return Err(PersistError::Corrupt(format!(
                "feedback history spans {span} cycles, route depth is {depth}"
            )));
        }
        Ok(Route {
            producer,
            consumer,
            slots,
            depth,
            pipe,
            feedback,
            full_threshold: r.take_usize()?,
            delivered: r.take_u64()?,
            stall_cycles: r.take_u64()?,
            backpressure_cycles: r.take_u64()?,
            work_ops: r.take_u64()?,
        })
    }
}

impl StreamFabric {
    /// Validates a restored fabric's tables against each other and derives
    /// the live-route index from them. Every later scan trusts this index,
    /// so an image is rejected when an interface or occupancy table does
    /// not match the parameters, or when an established route names a port
    /// or slot that is out of range, not marked busy, or claimed by another
    /// route.
    fn restored_live_index(&self) -> Result<Vec<usize>, PersistError> {
        fn check_shape<T>(
            name: &str,
            table: &[Vec<T>],
            rows: usize,
            width: usize,
        ) -> Result<(), PersistError> {
            if table.len() != rows || table.iter().any(|r| r.len() != width) {
                return Err(PersistError::Corrupt(format!(
                    "{name} table is not {rows} x {width} as the parameters say"
                )));
            }
            Ok(())
        }
        let p = &self.params;
        let (nodes, segs) = (p.nodes, p.segments());
        check_shape("producer interface", &self.producers, nodes, p.ko)?;
        check_shape("consumer interface", &self.consumers, nodes, p.ki)?;
        check_shape("right slot", &self.right_busy, segs, p.kr)?;
        check_shape("left slot", &self.left_busy, segs, p.kl)?;
        check_shape("producer port", &self.prod_busy, nodes, p.ko)?;
        check_shape("consumer port", &self.cons_busy, nodes, p.ki)?;

        let corrupt = |msg: String| Err(PersistError::Corrupt(msg));
        let busy = |table: &Vec<Vec<bool>>, row: usize, col: usize| {
            table.get(row).and_then(|r| r.get(col)).copied() == Some(true)
        };
        let mut live = Vec::new();
        let mut claimed_ports = std::collections::HashSet::new();
        let mut claimed_slots = std::collections::HashSet::new();
        for (i, route) in self.routes.iter().enumerate() {
            let Some(route) = route else { continue };
            let (p, c) = (route.producer, route.consumer);
            if !busy(&self.prod_busy, p.node, p.port) || !busy(&self.cons_busy, c.node, c.port) {
                return corrupt(format!(
                    "channel {i} holds ports {p} -> {c} not marked busy"
                ));
            }
            if !claimed_ports.insert((true, p)) || !claimed_ports.insert((false, c)) {
                return corrupt(format!(
                    "channel {i} shares a port of {p} -> {c} with another channel"
                ));
            }
            if route.depth != route.slots.len() + 1 {
                return corrupt(format!(
                    "channel {i} has depth {} over {} hops",
                    route.depth,
                    route.slots.len()
                ));
            }
            for s in &route.slots {
                let table = match s.dir {
                    Dir::Right => &self.right_busy,
                    Dir::Left => &self.left_busy,
                };
                if !busy(table, s.segment, s.channel) || !claimed_slots.insert(*s) {
                    return corrupt(format!(
                        "channel {i} holds slot {s:?} that is not busy or is shared"
                    ));
                }
            }
            live.push(i);
        }
        Ok(live)
    }
}

impl Persist for StreamFabric {
    fn persist(&self, w: &mut Writer) {
        self.params.persist(w);
        self.producers.persist(w);
        self.consumers.persist(w);
        self.right_busy.persist(w);
        self.left_busy.persist(w);
        self.prod_busy.persist(w);
        self.cons_busy.persist(w);
        self.routes.persist(w);
        self.active.persist(w);
        self.deliveries.persist(w);
        self.drains.persist(w);
        w.put_u64(self.ticks);
        w.put_u64(self.dispatched_route_ticks);
        w.put_u64(self.advances);
        w.put_u64(self.folded_ops);
        w.put_u64(self.generation);
        self.tap.persist(w);
        // The capture bound is host policy, not fabric state: only
        // whether capture is armed is encoded, and the host re-arms the
        // bound after a restore. The discard count is not encoded either
        // — a host folds captured crossings into its own state (and
        // drains the count) before it checkpoints.
        w.put_bool(self.capture_keep > 0);
        self.events.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let params = FabricParams::restore(r)?;
        let producers: Vec<Vec<Interface>> = Vec::restore(r)?;
        let consumers: Vec<Vec<Interface>> = Vec::restore(r)?;
        let right_busy: Vec<Vec<bool>> = Vec::restore(r)?;
        let left_busy: Vec<Vec<bool>> = Vec::restore(r)?;
        let prod_busy: Vec<Vec<bool>> = Vec::restore(r)?;
        let cons_busy: Vec<Vec<bool>> = Vec::restore(r)?;
        let routes: Vec<Option<Route>> = Vec::restore(r)?;
        let active: Vec<bool> = Vec::restore(r)?;
        if active.len() != routes.len() {
            return Err(PersistError::Corrupt(format!(
                "{} activity flags for {} route slots",
                active.len(),
                routes.len()
            )));
        }
        if let Some(i) = active
            .iter()
            .zip(&routes)
            .position(|(&a, route)| a && route.is_none())
        {
            return Err(PersistError::Corrupt(format!(
                "released channel {i} marked active"
            )));
        }
        let active_count = active.iter().filter(|&&a| a).count();
        let mut fabric = StreamFabric {
            params,
            producers,
            consumers,
            right_busy,
            left_busy,
            prod_busy,
            cons_busy,
            routes,
            live: Vec::new(),
            active,
            active_count,
            deliveries: Vec::restore(r)?,
            drains: Vec::restore(r)?,
            ticks: r.take_u64()?,
            dispatched_route_ticks: r.take_u64()?,
            advances: r.take_u64()?,
            folded_ops: r.take_u64()?,
            generation: r.take_u64()?,
            tap: Option::restore(r)?,
            // Armed images keep every buffered crossing until the host
            // re-arms its bound.
            capture_keep: if r.take_bool()? { usize::MAX } else { 0 },
            events: Vec::restore(r)?,
            events_discarded: 0,
        };
        fabric.live = fabric.restored_live_index()?;
        Ok(fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> StreamFabric {
        StreamFabric::new(FabricParams::prototype()).unwrap()
    }

    fn open(f: &mut StreamFabric, p: PortRef, c: PortRef) -> ChannelId {
        let ch = f.establish_channel(p, c).unwrap();
        f.set_fifo_ren(p, true).unwrap();
        f.set_fifo_wen(c, true).unwrap();
        ch
    }

    #[test]
    fn word_tap_times_every_stage_of_a_traversal() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        f.enable_word_tap();

        // Tagged word pushed at tick 0, injected on tick 1, delivered
        // after the 3-register pipeline, popped immediately.
        f.producer_push(p, Word::data(7).with_tag(Some(0))).unwrap();
        let mut popped_at = None;
        for _ in 0..10 {
            f.tick();
            if f.consumer_pop(c).unwrap().is_some() {
                popped_at = Some(f.ticks());
                break;
            }
        }
        let tap = f.word_tap().unwrap();
        let s = tap.stats(0).unwrap();
        assert_eq!(s.legs, 1);
        assert_eq!(s.hops, 2, "two segments between node 0 and node 2");
        // One injection wait cycle, depth cycles in the pipeline, popped
        // the tick it landed.
        assert_eq!(s.producer_wait_cycles, 1);
        assert_eq!(s.hop_cycles, 3);
        assert_eq!(s.consumer_wait_cycles, 0);
        assert_eq!(
            s.producer_wait_cycles + s.hop_cycles + s.consumer_wait_cycles,
            popped_at.unwrap()
        );
        // Untagged words are invisible to the tap.
        f.producer_push(p, Word::data(8)).unwrap();
        for _ in 0..10 {
            f.tick();
        }
        assert_eq!(f.word_tap().unwrap().tag_count(), 1);
    }

    #[test]
    fn word_tap_huge_tag_spills_instead_of_allocating() {
        // Regression: a corrupted tag used to drive a `tag + 1`-element
        // vector resize — u32::MAX meant a multi-gigabyte allocation. Now
        // out-of-range tags land in the spill map and still get full
        // per-stage accounting.
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        f.enable_word_tap();

        for tag in [u32::MAX, MAX_DENSE_TAGS as u32, 3] {
            f.producer_push(p, Word::data(1).with_tag(Some(tag)))
                .unwrap();
            for _ in 0..10 {
                f.tick();
                if f.consumer_pop(c).unwrap().is_some() {
                    break;
                }
            }
        }

        let tap = f.word_tap().unwrap();
        // Dense region sized by the largest in-range tag, not the huge one.
        assert_eq!(tap.tag_count(), 4 + 2, "tags 0..=3 dense, two spilled");
        for tag in [u32::MAX, MAX_DENSE_TAGS as u32, 3] {
            let s = tap.stats(tag).unwrap();
            assert_eq!(s.legs, 1, "tag {tag} completed its traversal");
            assert_eq!(s.hop_cycles, 3, "tag {tag}");
        }
        assert_eq!(tap.stats(4), None);
        assert_eq!(tap.stats(u32::MAX - 1), None);
        // all_stats walks dense then spilled, tag-ascending.
        let tags: Vec<u32> = tap.all_stats().map(|(t, _)| t).collect();
        assert_eq!(tags, [0, 1, 2, 3, MAX_DENSE_TAGS as u32, u32::MAX]);
    }

    #[test]
    fn event_capture_reports_empty_and_full_edges() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        f.set_event_capture(1024);

        f.producer_push(p, Word::data(1)).unwrap();
        f.tick(); // injection drains the producer FIFO again
        let evs: Vec<_> = f.drain_fifo_events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].edge, FifoEdgeKind::NoLongerEmpty);
        assert!(evs[0].producer);
        assert_eq!(evs[0].port, p);
        assert_eq!(evs[1].edge, FifoEdgeKind::BecameEmpty);
        assert_eq!(evs[1].cycle, 1);

        // Run the word to the consumer: one NoLongerEmpty on arrival,
        // one BecameEmpty on pop.
        for _ in 0..10 {
            f.tick();
        }
        assert!(f.consumer_pop(c).unwrap().is_some());
        let evs: Vec<_> = f.drain_fifo_events().collect();
        let kinds: Vec<_> = evs.iter().map(|e| e.edge).collect();
        assert_eq!(
            kinds,
            [FifoEdgeKind::NoLongerEmpty, FifoEdgeKind::BecameEmpty]
        );
        assert!(evs.iter().all(|e| !e.producer && e.port == c));

        // Capture off: silence.
        f.set_event_capture(0);
        f.producer_push(p, Word::data(2)).unwrap();
        f.tick();
        assert_eq!(f.drain_fifo_events().count(), 0);
    }

    #[test]
    fn bounded_capture_keeps_the_newest_crossings_in_both_engines() {
        // Bursts through two opposing channels, so one fold interleaves
        // two routes' crossings, under a full-length capture and under
        // tight bounds, driven dense and batched: each bounded drain must
        // be the full capture's tail, with the rest counted.
        let run = |keep: usize, dense: bool| {
            let mut f = fabric();
            let ends = [
                (PortRef::new(0, 0), PortRef::new(2, 0)),
                (PortRef::new(2, 0), PortRef::new(0, 0)),
            ];
            for (p, c) in ends {
                open(&mut f, p, c);
            }
            f.set_event_capture(keep);
            let mut drains = Vec::new();
            for round in 0..3u32 {
                for burst in 0..3 {
                    for (p, _) in ends {
                        for i in 0..5 {
                            f.producer_push(p, Word::data(round * 100 + burst * 10 + i))
                                .unwrap();
                        }
                    }
                    if dense {
                        for _ in 0..60 {
                            f.tick_dense();
                        }
                    } else {
                        // One long fold: the bound may trim only after
                        // the cycle sort.
                        f.advance_to(f.ticks() + 60);
                    }
                    for (_, c) in ends {
                        while f.consumer_pop(c).unwrap().is_some() {}
                    }
                }
                let d = f.drain_fifo_events();
                let discarded = d.discarded();
                drains.push((discarded, d.collect::<Vec<_>>()));
            }
            drains
        };
        for dense in [true, false] {
            let full = run(1 << 20, dense);
            for keep in [1, 2, 3, 7] {
                let bounded = run(keep, dense);
                for ((d_full, all), (discarded, kept)) in full.iter().zip(&bounded) {
                    assert_eq!(*d_full, 0);
                    assert!(all.len() > 2 * keep, "the burst must overflow the bound");
                    assert_eq!(kept[..], all[all.len() - keep..], "keep {keep}");
                    assert_eq!(*discarded as usize, all.len() - keep, "keep {keep}");
                }
            }
        }
        assert_eq!(run(1 << 20, true), run(1 << 20, false));
    }

    #[test]
    fn words_arrive_in_order_after_pipeline_latency() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        for i in 0..10 {
            f.producer_push(p, Word::data(i)).unwrap();
        }
        // depth = 2 hops + 1 = 3 registers; first word needs 3 ticks to
        // traverse plus 1 tick to be injected.
        let mut got = Vec::new();
        for _ in 0..20 {
            f.tick();
            while let Some(w) = f.consumer_pop(c).unwrap() {
                got.push(w.data);
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn latency_is_depth_cycles() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        f.producer_push(p, Word::data(99)).unwrap();
        // Tick until arrival; expect exactly depth (3) ticks after the
        // injection tick = 3 + 1.
        let mut ticks = 0;
        loop {
            f.tick();
            ticks += 1;
            if f.consumer_len(c).unwrap() > 0 {
                break;
            }
            assert!(ticks < 10, "word never arrived");
        }
        assert_eq!(ticks, 4); // inject + 2 hops + consumer-box register
    }

    #[test]
    fn self_node_channel_works() {
        let mut f = fabric();
        let p = PortRef::new(1, 0);
        let c = PortRef::new(1, 0);
        open(&mut f, p, c);
        f.producer_push(p, Word::data(5)).unwrap();
        f.tick();
        f.tick();
        assert_eq!(f.consumer_pop(c).unwrap(), Some(Word::data(5)));
    }

    #[test]
    fn leftward_channel_works() {
        let mut f = fabric();
        let p = PortRef::new(2, 0);
        let c = PortRef::new(0, 0);
        open(&mut f, p, c);
        f.producer_push(p, Word::data(7)).unwrap();
        for _ in 0..4 {
            f.tick();
        }
        assert_eq!(f.consumer_pop(c).unwrap(), Some(Word::data(7)));
    }

    #[test]
    fn ren_gates_injection() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(1, 0);
        let _ = f.establish_channel(p, c).unwrap();
        f.set_fifo_wen(c, true).unwrap();
        // ren left off: nothing moves.
        f.producer_push(p, Word::data(1)).unwrap();
        for _ in 0..10 {
            f.tick();
        }
        assert_eq!(f.consumer_len(c).unwrap(), 0);
        assert_eq!(f.producer_len(p).unwrap(), 1);
        f.set_fifo_ren(p, true).unwrap();
        for _ in 0..4 {
            f.tick();
        }
        assert_eq!(f.consumer_len(c).unwrap(), 1);
    }

    #[test]
    fn wen_off_discards_and_counts() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(1, 0);
        let _ = f.establish_channel(p, c).unwrap();
        f.set_fifo_ren(p, true).unwrap();
        f.producer_push(p, Word::data(1)).unwrap();
        for _ in 0..6 {
            f.tick();
        }
        assert_eq!(f.consumer_len(c).unwrap(), 0);
        assert_eq!(f.consumer_gated_drops(c).unwrap(), 1);
    }

    #[test]
    fn channel_allocation_exhausts_slots() {
        // kr = 2 on the prototype: two rightward channels across segment 0,
        // the third must fail. Use distinct ports: ko=1, so use 3 nodes'
        // producers -> need more ports; instead check segment congestion
        // with a wider config.
        let mut params = FabricParams::prototype();
        params.ko = 3;
        params.ki = 3;
        let mut f = StreamFabric::new(params).unwrap();
        f.establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))
            .unwrap();
        f.establish_channel(PortRef::new(0, 1), PortRef::new(2, 1))
            .unwrap();
        let err = f
            .establish_channel(PortRef::new(0, 2), PortRef::new(2, 2))
            .unwrap_err();
        assert_eq!(
            err,
            RouteError::NoFreeChannel {
                segment: 0,
                dir: Dir::Right
            }
        );
    }

    #[test]
    fn release_frees_slots_and_ports() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        let ch = f.establish_channel(p, c).unwrap();
        assert_eq!(f.free_right_slots(0), 1);
        assert!(matches!(
            f.establish_channel(p, PortRef::new(1, 0)),
            Err(RouteError::ProducerBusy(_))
        ));
        f.release_channel(ch).unwrap();
        assert_eq!(f.free_right_slots(0), 2);
        assert!(f.establish_channel(p, c).is_ok());
        // Double release fails.
        assert!(matches!(
            f.release_channel(ch),
            Err(RouteError::UnknownChannel(_))
        ));
    }

    #[test]
    fn consumer_busy_detected() {
        let mut f = fabric();
        let c = PortRef::new(2, 0);
        f.establish_channel(PortRef::new(0, 0), c).unwrap();
        assert!(matches!(
            f.establish_channel(PortRef::new(1, 0), c),
            Err(RouteError::ConsumerBusy(_))
        ));
    }

    #[test]
    fn bad_ports_rejected() {
        let mut f = fabric();
        assert!(matches!(
            f.establish_channel(PortRef::new(9, 0), PortRef::new(0, 0)),
            Err(RouteError::BadPort(_))
        ));
        assert!(matches!(
            f.establish_channel(PortRef::new(0, 5), PortRef::new(0, 0)),
            Err(RouteError::BadPort(_))
        ));
        assert!(matches!(
            f.set_fifo_ren(PortRef::new(9, 0), true),
            Err(RouteError::BadPort(_))
        ));
    }

    #[test]
    fn shallow_fifo_rejected() {
        let mut params = FabricParams::prototype();
        params.fifo_depth = 6; // depth 3 channel needs 2*3+2 = 8
        let mut f = StreamFabric::new(params).unwrap();
        let err = f
            .establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))
            .unwrap_err();
        assert!(matches!(err, RouteError::FifoTooShallow { need: 8, .. }));
        // A shorter channel still fits: depth 2 needs 6.
        assert!(f
            .establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
            .is_ok());
    }

    #[test]
    fn backpressure_prevents_loss_when_consumer_stalls() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        // Saturate: push whenever space, never pop; FIFO depth 512.
        let mut sent = 0u64;
        for i in 0..5_000u32 {
            if f.producer_space(p).unwrap() > 0 {
                f.producer_push(p, Word::data(i)).unwrap();
                sent += 1;
            }
            f.tick();
        }
        assert_eq!(f.consumer_overflow_drops(c).unwrap(), 0);
        // Now drain and verify the prefix sequence.
        let mut got = Vec::new();
        while let Some(w) = f.consumer_pop(c).unwrap() {
            got.push(w.data);
        }
        assert!(!got.is_empty());
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
        assert!(sent >= got.len() as u64);
    }

    #[test]
    fn eos_word_travels() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(1, 0);
        open(&mut f, p, c);
        f.producer_push(p, Word::data(1)).unwrap();
        f.producer_push(p, Word::end_of_stream()).unwrap();
        for _ in 0..6 {
            f.tick();
        }
        assert_eq!(f.consumer_pop(c).unwrap(), Some(Word::data(1)));
        let eos = f.consumer_pop(c).unwrap().unwrap();
        assert!(eos.end_of_stream);
    }

    #[test]
    fn stall_and_high_water_counters_track_saturation() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        let ch = open(&mut f, p, c);
        // Saturate without ever popping: the consumer FIFO fills, feedback
        // asserts, and the producer spends cycles stalled with words ready.
        for i in 0..2_000u32 {
            if f.producer_space(p).unwrap() > 0 {
                f.producer_push(p, Word::data(i)).unwrap();
            }
            f.tick();
        }
        let info = f.channel_info(ch).unwrap();
        assert!(info.backpressure_cycles > 0, "feedback never asserted");
        assert!(info.stall_cycles > 0, "producer never observed the stall");
        // Stall can only be observed after backpressure propagates back.
        assert!(info.stall_cycles <= info.backpressure_cycles);
        // Consumer FIFO peaked just below the full threshold window;
        // producer FIFO hit its configured depth while stalled.
        let depth = f.params().fifo_depth;
        assert!(f.consumer_high_water(c).unwrap() >= depth - (2 * info.hops + 4));
        assert_eq!(f.producer_high_water(p).unwrap(), depth);
        assert_eq!(f.consumer_overflow_drops(c).unwrap(), 0);
    }

    #[test]
    fn unstalled_stream_reports_zero_stall_cycles() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        let ch = open(&mut f, p, c);
        for i in 0..50u32 {
            f.producer_push(p, Word::data(i)).unwrap();
            f.tick();
            let _ = f.consumer_pop(c).unwrap();
        }
        let info = f.channel_info(ch).unwrap();
        assert_eq!(info.stall_cycles, 0);
        assert_eq!(info.backpressure_cycles, 0);
        assert!(f.consumer_high_water(c).unwrap() >= 1);
    }

    #[test]
    fn channel_info_reports_route() {
        let mut f = fabric();
        let ch = f
            .establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))
            .unwrap();
        let info = f.channel_info(ch).unwrap();
        assert_eq!(info.hops, 2);
        assert_eq!(info.producer, PortRef::new(0, 0));
        assert_eq!(info.consumer, PortRef::new(2, 0));
        assert_eq!(info.delivered, 0);
        assert_eq!(f.active_channels(), vec![ch]);
    }

    #[test]
    fn mux_sel_bits_reflect_allocation() {
        let mut f = fabric(); // 3 nodes, kr=kl=2
        assert_eq!(f.mux_sel_bits(0), 0);
        assert_eq!(f.mux_sel_bits(1), 0);
        // Channel 0 -> 2 takes right slot 0 on segments 0 and 1.
        f.establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))
            .unwrap();
        // Node 0: left segment absent (4 bits skipped), right segment =
        // segment 0: right slots at bits 4..6 -> bit 4 set.
        assert_eq!(f.mux_sel_bits(0), 1 << 4);
        // Node 1: left segment = segment 0 (bit 0), right segment =
        // segment 1 (bit 4).
        assert_eq!(f.mux_sel_bits(1), (1 << 0) | (1 << 4));
        // Node 2: left segment = segment 1 -> bit 0 only.
        assert_eq!(f.mux_sel_bits(2), 1 << 0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn mux_sel_bits_checks_node() {
        let f = fabric();
        let _ = f.mux_sel_bits(9);
    }

    #[test]
    fn reset_node_fifos_clears() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        f.producer_push(p, Word::data(1)).unwrap();
        f.reset_node_fifos(0);
        assert_eq!(f.producer_len(p).unwrap(), 0);
    }

    #[test]
    fn feedback_rle_shift_preserves_depth_and_order() {
        let mut f = fabric();
        let ch = f
            .establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))
            .unwrap();
        let route = f.routes[ch.0].as_mut().unwrap();
        let depth = route.depth as u32;
        assert_eq!(route.feedback, VecDeque::from([(false, depth)]));

        // Latch `true` once: oldest entry shrinks, new run appended.
        route.fb_shift_span(true, 1);
        assert_eq!(
            route.feedback,
            VecDeque::from([(false, depth - 1), (true, 1)])
        );
        assert_eq!(route.fb_front(), (false, depth - 1));

        // Equal-valued latches merge into the trailing run.
        route.fb_shift_span(true, 1);
        assert_eq!(
            route.feedback,
            VecDeque::from([(false, depth - 2), (true, 2)])
        );

        // A span >= depth collapses the whole history.
        route.fb_shift_span(false, depth as u64 + 5);
        assert_eq!(route.feedback, VecDeque::from([(false, depth)]));
        assert!(route.fb_settled_at(false));
        assert!(!route.fb_settled_at(true));

        // Spans that exactly exhaust the front run expose the next one.
        route.fb_shift_span(true, 2);
        route.fb_shift_span(true, (depth - 2) as u64);
        assert_eq!(route.fb_front(), (true, depth));
    }

    #[test]
    fn advance_to_matches_dense_stride_for_stride() {
        // Drive two identical fabrics through the same schedule of pushes
        // and pops — one per-cycle via tick_dense, one in strides via
        // advance_to — and require identical observable state throughout.
        let mut lazy = fabric();
        let mut dense = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut lazy, p, c);
        open(&mut dense, p, c);

        let mut cycle = 0u64;
        for (stride, pushes) in [(1u64, 3u32), (7, 0), (16, 5), (3, 1), (40, 0), (9, 2)] {
            for i in 0..pushes {
                lazy.producer_push(p, Word::data(i)).unwrap();
                dense.producer_push(p, Word::data(i)).unwrap();
            }
            cycle += stride;
            lazy.advance_to(cycle);
            while dense.ticks() < cycle {
                dense.tick_dense();
            }
            assert_eq!(lazy.ticks(), dense.ticks());
            assert_eq!(
                lazy.producer_len(p).unwrap(),
                dense.producer_len(p).unwrap()
            );
            assert_eq!(
                lazy.consumer_len(c).unwrap(),
                dense.consumer_len(c).unwrap()
            );
            assert_eq!(
                lazy.consumer_high_water(c).unwrap(),
                dense.consumer_high_water(c).unwrap()
            );
            let (li, di) = (
                lazy.channel_info(ChannelId(0)).unwrap(),
                dense.channel_info(ChannelId(0)).unwrap(),
            );
            assert_eq!(li.delivered, di.delivered);
            assert_eq!(li.stall_cycles, di.stall_cycles);
            assert_eq!(li.backpressure_cycles, di.backpressure_cycles);
            loop {
                let (lw, dw) = (
                    lazy.consumer_pop(c).unwrap(),
                    dense.consumer_pop(c).unwrap(),
                );
                assert_eq!(lw, dw);
                if lw.is_none() {
                    break;
                }
            }
        }
        // The batched side never dispatched the per-cycle engine outside
        // event-horizon cycles.
        assert_eq!(lazy.dispatched_route_ticks(), 0);
        assert!(lazy.folded_ops() < dense.dispatched_route_ticks());
    }

    #[test]
    fn next_wake_cycle_predicts_delivery_and_drain() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);

        // Nothing in flight, nothing to inject: no wake needed.
        assert_eq!(f.next_wake_cycle(), None);

        // One pushed word: injected next cycle, delivered depth cycles
        // later (depth = 3) — the earliest component-visible event.
        f.producer_push(p, Word::data(1)).unwrap();
        assert_eq!(f.next_wake_cycle(), Some(4));
        f.advance_to(4);
        assert_eq!(f.consumer_len(c).unwrap(), 1);

        // In-flight word: wake at its arrival cycle.
        f.producer_push(p, Word::data(2)).unwrap();
        f.advance_to(6); // injected at cycle 5, arrives at 8
        assert_eq!(f.next_wake_cycle(), Some(8));

        // Disabled consumer cannot be delivered into: the in-flight word
        // will be dropped silently, no wake required.
        f.set_fifo_wen(c, false).unwrap();
        assert_eq!(f.next_wake_cycle(), None);
        f.set_fifo_wen(c, true).unwrap();

        // A full producer FIFO whose route is injectable wakes at the
        // injection cycle (a blocked writer can resume).
        f.advance_to(20);
        let mut i = 0;
        while f.producer_space(p).unwrap() > 0 {
            f.producer_push(p, Word::data(i)).unwrap();
            i += 1;
        }
        assert_eq!(f.next_wake_cycle(), Some(21));
    }

    #[test]
    fn generation_counts_port_and_channel_operations() {
        let mut f = fabric();
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        let g0 = f.generation();
        let ch = f.establish_channel(p, c).unwrap();
        f.set_fifo_ren(p, true).unwrap();
        f.set_fifo_wen(c, true).unwrap();
        f.producer_push(p, Word::data(1)).unwrap();
        let g1 = f.generation();
        assert_eq!(g1, g0 + 4);
        // Advancing time is not a port operation.
        f.advance_to(10);
        assert_eq!(f.generation(), g1);
        assert_eq!(f.consumer_pop(c).unwrap(), Some(Word::data(1)));
        assert_eq!(f.generation(), g1 + 1);
        // An empty pop mutates nothing.
        assert_eq!(f.consumer_pop(c).unwrap(), None);
        assert_eq!(f.generation(), g1 + 1);
        f.release_channel(ch).unwrap();
        assert_eq!(f.generation(), g1 + 2);
    }

    #[test]
    fn persist_roundtrip_mid_flight_is_bit_exact() {
        // Freeze a fabric with words in flight, a part-full consumer FIFO,
        // tagged words under the tap, and buffered capture events; the
        // restored fabric must produce the identical future AND an
        // identical re-encoding.
        let mut f = fabric();
        f.enable_word_tap();
        f.set_event_capture(1024);
        let p = PortRef::new(0, 0);
        let c = PortRef::new(2, 0);
        open(&mut f, p, c);
        for i in 0..6u32 {
            f.producer_push(p, Word::data(i).with_tag(Some(i))).unwrap();
        }
        f.advance_to(4); // some delivered, some still in the pipeline

        let mut w = Writer::new();
        f.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut g = StreamFabric::restore(&mut r).unwrap();
        r.expect_end().unwrap();

        // Identical re-encoding (canonical form).
        let mut w2 = Writer::new();
        g.persist(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Identical futures: run both to quiescence and compare popped
        // words, counters, and tap stats.
        f.advance_to(40);
        g.advance_to(40);
        loop {
            let (a, b) = (f.consumer_pop(c).unwrap(), g.consumer_pop(c).unwrap());
            assert_eq!(a, b);
            assert_eq!(a.map(|w| w.tag()), b.map(|w| w.tag()));
            if a.is_none() {
                break;
            }
        }
        assert_eq!(f.ticks(), g.ticks());
        assert_eq!(f.generation(), g.generation());
        assert_eq!(f.folded_ops(), g.folded_ops());
        let stats = |fab: &StreamFabric| -> Vec<(u32, TagStats)> {
            fab.word_tap().unwrap().all_stats().collect()
        };
        assert_eq!(stats(&f), stats(&g));
        let drain = |fab: &mut StreamFabric| fab.drain_fifo_events().collect::<Vec<_>>();
        assert_eq!(drain(&mut f), drain(&mut g));
    }

    #[test]
    fn persist_rejects_inconsistent_feedback_history() {
        let mut f = fabric();
        open(&mut f, PortRef::new(0, 0), PortRef::new(2, 0));
        let mut w = Writer::new();
        f.persist(&mut w);
        let mut bytes = w.into_bytes();
        // The feedback RLE run length rides near the end of the route
        // record; corrupt the encoded run count by flipping the last
        // RLE entry's length. Rather than byte-surgery, rebuild with a
        // hand-broken route through the public codec: truncate instead.
        bytes.truncate(bytes.len() - 1);
        let mut r = Reader::new(&bytes);
        assert!(StreamFabric::restore(&mut r).is_err());
    }

    /// Encodes `f` after `tamper` breaks one of its tables, then decodes
    /// the resulting image.
    fn restore_tampered(
        f: &StreamFabric,
        tamper: impl FnOnce(&mut StreamFabric),
    ) -> Result<StreamFabric, PersistError> {
        let mut g = f.clone();
        tamper(&mut g);
        let mut w = Writer::new();
        g.persist(&mut w);
        let bytes = w.into_bytes();
        StreamFabric::restore(&mut Reader::new(&bytes))
    }

    #[test]
    fn restore_rejects_routes_that_disagree_with_the_occupancy_tables() {
        // Two live routes (0 -> 2 rightward, 1 -> 0 leftward) behind a
        // released one, so the live index has a gap to rebuild around.
        let mut f = fabric();
        let gone = f
            .establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
            .unwrap();
        f.release_channel(gone).unwrap();
        let a = open(&mut f, PortRef::new(0, 0), PortRef::new(2, 0));
        let b = open(&mut f, PortRef::new(1, 0), PortRef::new(0, 0));
        let g = restore_tampered(&f, |_| {}).expect("untampered image restores");
        assert_eq!(g.active_channels(), vec![a, b]);

        /// The `k`-th live route: 0 is `a`, 1 is `b`.
        fn route(g: &mut StreamFabric, k: usize) -> &mut Route {
            let id = g.live[k];
            g.routes[id].as_mut().unwrap()
        }
        type Tamper = fn(&mut StreamFabric);
        let cases: [(&str, Tamper); 11] = [
            ("shared producer", |g| {
                route(g, 1).producer = PortRef::new(0, 0)
            }),
            ("shared consumer", |g| {
                route(g, 1).consumer = PortRef::new(2, 0)
            }),
            ("producer port not busy", |g| g.prod_busy[0][0] = false),
            ("consumer port not busy", |g| g.cons_busy[2][0] = false),
            ("port out of range", |g| {
                route(g, 0).producer = PortRef::new(9, 0)
            }),
            ("slot not busy", |g| g.right_busy[1].fill(false)),
            ("slot shared", |g| {
                let s = route(g, 0).slots[0];
                route(g, 1).slots[0] = s;
            }),
            ("slot out of range", |g| route(g, 0).slots[0].channel = 7),
            ("depth disagrees with hops", |g| {
                route(g, 0).slots.pop();
            }),
            ("occupancy table shape", |g| g.prod_busy[1].push(false)),
            ("interface table shape", |g| {
                g.consumers[0].pop();
            }),
        ];
        for (what, tamper) in cases {
            match restore_tampered(&f, tamper) {
                Err(PersistError::Corrupt(_)) => {}
                other => panic!("{what}: expected a Corrupt error, got {other:?}"),
            }
        }
    }
}
