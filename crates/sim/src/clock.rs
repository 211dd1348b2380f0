//! Multi-clock-domain scheduler.
//!
//! VAPRES runs its static region and every PRR in an independent *local
//! clock domain* (LCD). The [`ClockScheduler`] owns all domains and hands
//! back rising edges in global time order; the system model dispatches each
//! edge to the components clocked by that domain.
//!
//! Determinism: simultaneous edges are delivered in ascending
//! [`DomainId`] order (i.e. registration order), so a run is a pure
//! function of the inputs.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::time::{Freq, Ps};
use std::fmt;

/// Identifies a clock domain within one [`ClockScheduler`].
///
/// Ids are dense, starting at 0, in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub usize);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clk{}", self.0)
    }
}

/// A rising clock edge delivered by [`ClockScheduler::next_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The domain that ticked.
    pub domain: DomainId,
    /// Absolute time of the edge.
    pub at: Ps,
    /// The domain's cycle counter *after* this edge (first edge is cycle 1).
    pub cycle: u64,
}

#[derive(Debug, Clone)]
struct Domain {
    freq: Freq,
    /// `freq.period()` in ps, cached so no edge pays the division.
    /// Derived from `freq`, never persisted.
    period_ps: u64,
    enabled: bool,
    /// Time of the next rising edge if enabled.
    next_edge: Ps,
    cycles: u64,
}

impl Domain {
    fn new(freq: Freq, enabled: bool, next_edge: Ps, cycles: u64) -> Self {
        Domain {
            freq,
            period_ps: freq.period().as_ps(),
            enabled,
            next_edge,
            cycles,
        }
    }
}

/// Owns every clock domain of a simulated system and produces rising edges
/// in deterministic global order.
///
/// Frequencies can change at runtime (the BUFGMUX/`CLK_sel` path of a
/// PRSocket) and domains can be gated on/off (`CLK_en`). A frequency change
/// or re-enable re-aligns the domain's next edge to one full *new* period
/// after the current time — matching a glitch-free clock mux that completes
/// the switch before the next edge.
///
/// The next edge is found by scanning the domains for the smallest
/// `(next_edge, id)`: a modelled device has one static domain plus one per
/// PRR (at most 13), so the scan touches a few cache lines where a heap
/// would pay pushes, pops and stale entries on every edge.
///
/// # Examples
///
/// ```
/// use vapres_sim::clock::ClockScheduler;
/// use vapres_sim::time::{Freq, Ps};
///
/// let mut clocks = ClockScheduler::new();
/// let fast = clocks.add_domain(Freq::mhz(100));
/// let slow = clocks.add_domain(Freq::mhz(50));
///
/// let e1 = clocks.next_edge().expect("an edge");
/// assert_eq!(e1.domain, fast);
/// assert_eq!(e1.at, Ps::from_ns(10));
///
/// let e2 = clocks.next_edge().expect("an edge");
/// // 20 ns: both domains tick; the earlier-registered one is delivered first.
/// assert_eq!(e2.domain, fast);
/// let e3 = clocks.next_edge().expect("an edge");
/// assert_eq!((e3.domain, e3.at), (slow, Ps::from_ns(20)));
/// ```
#[derive(Debug, Default)]
pub struct ClockScheduler {
    domains: Vec<Domain>,
    now: Ps,
}

impl ClockScheduler {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new always-enabled clock domain.
    pub fn add_domain(&mut self, freq: Freq) -> DomainId {
        let id = DomainId(self.domains.len());
        let next = self.now + freq.period();
        self.domains.push(Domain::new(freq, true, next, 0));
        id
    }

    /// Current simulation time (the time of the last delivered edge).
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Returns the configured frequency of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn frequency(&self, id: DomainId) -> Freq {
        self.domains[id.0].freq
    }

    /// Returns the clock period of `id` (`frequency(id).period()`, cached).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn period(&self, id: DomainId) -> Ps {
        Ps::new(self.domains[id.0].period_ps)
    }

    /// Returns how many rising edges `id` has delivered so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn cycles(&self, id: DomainId) -> u64 {
        self.domains[id.0].cycles
    }

    /// Returns whether the domain is currently enabled (not clock-gated).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn is_enabled(&self, id: DomainId) -> bool {
        self.domains[id.0].enabled
    }

    /// Changes the frequency of a domain at the current time.
    ///
    /// The next edge of the domain occurs one full new period after `now`,
    /// modelling a glitch-free BUFGMUX switch.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn set_frequency(&mut self, id: DomainId, freq: Freq) {
        let dom = &mut self.domains[id.0];
        dom.freq = freq;
        dom.period_ps = freq.period().as_ps();
        if dom.enabled {
            dom.next_edge = self.now + Ps::new(dom.period_ps);
        }
    }

    /// Gates a domain on or off.
    ///
    /// Disabling stops future edges; re-enabling schedules the next edge one
    /// full period after the current time. Enabling an enabled domain or
    /// disabling a disabled one is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a domain of this scheduler.
    pub fn set_enabled(&mut self, id: DomainId, enabled: bool) {
        let dom = &mut self.domains[id.0];
        if dom.enabled == enabled {
            return;
        }
        dom.enabled = enabled;
        if enabled {
            dom.next_edge = self.now + Ps::new(dom.period_ps);
        }
    }

    /// The enabled domain with the smallest `(next_edge, id)`, if any.
    fn earliest(&self) -> Option<usize> {
        let mut best: Option<(Ps, usize)> = None;
        for (idx, dom) in self.domains.iter().enumerate() {
            // Strict `<` keeps the lowest id among simultaneous edges.
            if dom.enabled && best.is_none_or(|(at, _)| dom.next_edge < at) {
                best = Some((dom.next_edge, idx));
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// Delivers the pending edge of domain `idx`, advancing `now` to it.
    fn deliver(&mut self, idx: usize) -> Edge {
        let dom = &mut self.domains[idx];
        let at = dom.next_edge;
        self.now = at;
        dom.cycles += 1;
        dom.next_edge = Ps::new(at.as_ps() + dom.period_ps);
        Edge {
            domain: DomainId(idx),
            at,
            cycle: dom.cycles,
        }
    }

    /// Delivers the next rising edge in global time order, advancing `now`.
    ///
    /// Returns `None` when no domain is enabled (or none are registered).
    pub fn next_edge(&mut self) -> Option<Edge> {
        let idx = self.earliest()?;
        Some(self.deliver(idx))
    }

    /// Advances time to `deadline` without delivering edges, updating every
    /// enabled domain's cycle counter and next-edge time exactly as if the
    /// edges had been delivered.
    ///
    /// Callers use this to skip over intervals they know to be quiescent
    /// (no component would do anything on a tick). Does nothing if
    /// `deadline` is in the past.
    pub fn fast_forward(&mut self, deadline: Ps) {
        if deadline <= self.now {
            return;
        }
        for dom in &mut self.domains {
            if !dom.enabled || dom.next_edge > deadline {
                continue;
            }
            let period = dom.period_ps;
            let skipped = (deadline.as_ps() - dom.next_edge.as_ps()) / period + 1;
            dom.cycles += skipped;
            dom.next_edge = Ps::new(dom.next_edge.as_ps() + skipped * period);
        }
        self.now = deadline;
    }

    /// Delivers the next edge only if it occurs at or before `deadline`.
    ///
    /// If the next edge is later than `deadline`, no edge is consumed and
    /// `now` is advanced to `deadline`.
    pub fn next_edge_before(&mut self, deadline: Ps) -> Option<Edge> {
        match self.earliest() {
            Some(idx) if self.domains[idx].next_edge <= deadline => Some(self.deliver(idx)),
            _ => {
                self.now = deadline.max(self.now);
                None
            }
        }
    }
}

impl Persist for ClockScheduler {
    fn persist(&self, w: &mut Writer) {
        self.now.persist(w);
        w.put_usize(self.domains.len());
        for d in &self.domains {
            d.freq.persist(w);
            d.enabled.persist(w);
            d.next_edge.persist(w);
            d.cycles.persist(w);
        }
        // `period_ps` is derived from `freq` and recomputed on restore.
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let now = Ps::restore(r)?;
        let n = r.take_usize()?;
        let mut domains = Vec::with_capacity(n.min(r.remaining()));
        for idx in 0..n {
            let freq = Freq::restore(r)?;
            let enabled = bool::restore(r)?;
            let next_edge = Ps::restore(r)?;
            let cycles = u64::restore(r)?;
            let dom = Domain::new(freq, enabled, next_edge, cycles);
            if dom.period_ps == 0 {
                return Err(PersistError::Corrupt(format!(
                    "clock domain {idx}: {} Hz has a zero-ps period",
                    freq.as_hz()
                )));
            }
            // Every scheduler keeps an enabled domain's next edge within
            // one period of `now`; anything else would run time backwards
            // or replay an unbounded stretch of edges.
            let horizon = now.saturating_add(Ps::new(dom.period_ps));
            if enabled && (next_edge < now || next_edge > horizon) {
                return Err(PersistError::Corrupt(format!(
                    "clock domain {idx}: next edge {} ps outside [{}, {}] ps",
                    next_edge.as_ps(),
                    now.as_ps(),
                    horizon.as_ps()
                )));
            }
            domains.push(dom);
        }
        Ok(ClockScheduler { domains, now })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_come_in_time_order() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100)); // 10 ns
        let b = s.add_domain(Freq::mhz(40)); // 25 ns
        let mut order = Vec::new();
        for _ in 0..7 {
            let e = s.next_edge().unwrap();
            order.push((e.domain, e.at.as_ns()));
        }
        assert_eq!(
            order,
            vec![
                (a, 10),
                (a, 20),
                (b, 25),
                (a, 30),
                (a, 40),
                (a, 50),
                (b, 50)
            ]
        );
    }

    #[test]
    fn simultaneous_edges_ordered_by_domain_id() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        let b = s.add_domain(Freq::mhz(100));
        let e1 = s.next_edge().unwrap();
        let e2 = s.next_edge().unwrap();
        assert_eq!(e1.domain, a);
        assert_eq!(e2.domain, b);
        assert_eq!(e1.at, e2.at);
    }

    #[test]
    fn cycle_counter_increments() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        assert_eq!(s.cycles(a), 0);
        for want in 1..=5 {
            let e = s.next_edge().unwrap();
            assert_eq!(e.cycle, want);
        }
        assert_eq!(s.cycles(a), 5);
    }

    #[test]
    fn gating_stops_and_restarts_edges() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.next_edge().unwrap(); // 10 ns
        s.set_enabled(a, false);
        assert!(s.next_edge().is_none());
        s.set_enabled(a, true);
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(20)); // one period after re-enable at 10 ns
    }

    #[test]
    fn frequency_change_realigns_next_edge() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.next_edge().unwrap(); // now = 10 ns
        s.set_frequency(a, Freq::mhz(50));
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(30)); // 10 ns + one 20 ns period
        assert_eq!(s.frequency(a), Freq::mhz(50));
    }

    #[test]
    fn next_edge_before_deadline() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        let e = s.next_edge_before(Ps::from_ns(15));
        assert_eq!(e.unwrap().domain, a);
        let e = s.next_edge_before(Ps::from_ns(15));
        assert!(e.is_none());
        assert_eq!(s.now(), Ps::from_ns(15));
        // The 20 ns edge is still there afterwards.
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(20));
    }

    #[test]
    fn empty_scheduler_has_no_edges() {
        let mut s = ClockScheduler::new();
        assert!(s.next_edge().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn disable_then_deadline_advances_time() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.set_enabled(a, false);
        assert!(s.next_edge_before(Ps::from_us(1)).is_none());
        assert_eq!(s.now(), Ps::from_us(1));
    }

    #[test]
    fn fast_forward_matches_delivered_edges() {
        // Run one scheduler by edges, another by fast_forward; the end
        // state must be identical.
        let mut by_edges = ClockScheduler::new();
        let a1 = by_edges.add_domain(Freq::mhz(100));
        let b1 = by_edges.add_domain(Freq::mhz(33));
        while by_edges.next_edge_before(Ps::from_us(3)).is_some() {}

        let mut by_ff = ClockScheduler::new();
        let a2 = by_ff.add_domain(Freq::mhz(100));
        let b2 = by_ff.add_domain(Freq::mhz(33));
        by_ff.fast_forward(Ps::from_us(3));

        assert_eq!(by_edges.cycles(a1), by_ff.cycles(a2));
        assert_eq!(by_edges.cycles(b1), by_ff.cycles(b2));
        assert_eq!(by_edges.now(), by_ff.now());
        // Subsequent edges agree too.
        let e1 = by_edges.next_edge().unwrap();
        let e2 = by_ff.next_edge().unwrap();
        assert_eq!(
            (e1.domain.0, e1.at, e1.cycle),
            (e2.domain.0, e2.at, e2.cycle)
        );
    }

    #[test]
    fn fast_forward_past_deadline_is_noop() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.next_edge().unwrap();
        s.fast_forward(Ps::from_ns(5)); // in the past
        assert_eq!(s.now(), Ps::from_ns(10));
        assert_eq!(s.cycles(a), 1);
    }

    #[test]
    fn fast_forward_skips_disabled_domains() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.set_enabled(a, false);
        s.fast_forward(Ps::from_us(1));
        assert_eq!(s.cycles(a), 0);
        assert_eq!(s.now(), Ps::from_us(1));
    }

    #[test]
    fn redundant_gating_is_noop() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.set_enabled(a, true); // already enabled
        let e = s.next_edge().unwrap();
        assert_eq!(e.at, Ps::from_ns(10));
    }

    #[test]
    fn persist_roundtrip_preserves_future_edges() {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        let b = s.add_domain(Freq::mhz(33));
        let c = s.add_domain(Freq::mhz(50));
        for _ in 0..11 {
            s.next_edge().unwrap();
        }
        s.set_frequency(a, Freq::mhz(40));
        s.set_enabled(c, false);

        let mut w = Writer::new();
        s.persist(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ClockScheduler::restore(&mut Reader::new(&bytes)).unwrap();

        assert_eq!(restored.now(), s.now());
        for id in [a, b, c] {
            assert_eq!(restored.cycles(id), s.cycles(id));
            assert_eq!(restored.frequency(id), s.frequency(id));
            assert_eq!(restored.is_enabled(id), s.is_enabled(id));
        }
        // Future edge streams are identical.
        for _ in 0..32 {
            assert_eq!(restored.next_edge(), s.next_edge());
        }
        // Re-encoding the restored scheduler is byte-identical.
        let mut w1 = Writer::new();
        s.persist(&mut w1);
        let mut w2 = Writer::new();
        restored.persist(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    fn small_image() -> Vec<u8> {
        let mut s = ClockScheduler::new();
        let a = s.add_domain(Freq::mhz(100));
        s.add_domain(Freq::mhz(33));
        let c = s.add_domain(Freq::mhz(50));
        for _ in 0..5 {
            s.next_edge().unwrap();
        }
        s.set_frequency(a, Freq::mhz(40));
        s.set_enabled(c, false);
        let mut w = Writer::new();
        s.persist(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_a_zero_period_domain() {
        let mut s = ClockScheduler::new();
        s.add_domain(Freq::mhz(100));
        let mut w = Writer::new();
        s.persist(&mut w);
        let mut bytes = w.into_bytes();
        // now (8) + count (8), then the frequency: above 2 THz the period
        // rounds to 0 ps, and fast_forward would divide by it.
        bytes[16..24].copy_from_slice(&3_000_000_000_000u64.to_le_bytes());
        assert!(matches!(
            ClockScheduler::restore(&mut Reader::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_rejects_an_enabled_edge_outside_one_period_of_now() {
        let bytes = small_image();
        // Domain 0's next edge sits at offset 8 + 8 + (8 + 1).
        for next in [0u64, u64::MAX] {
            let mut forged = bytes.clone();
            forged[25..33].copy_from_slice(&next.to_le_bytes());
            assert!(matches!(
                ClockScheduler::restore(&mut Reader::new(&forged)),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    /// Every single-byte mutant of a small image is a typed error, or
    /// restores, re-encodes to the bytes it consumed, and runs 2 µs.
    #[test]
    fn single_byte_mutants_are_rejected_or_run() {
        let bytes = small_image();
        for at in 0..bytes.len() {
            for v in [0x00, 0x01, 0x07, 0xFF] {
                let mut mutant = bytes.clone();
                mutant[at] = v;
                let mut r = Reader::new(&mutant);
                let Ok(mut s) = ClockScheduler::restore(&mut r) else {
                    continue;
                };
                let used = mutant.len() - r.remaining();
                let mut w = Writer::new();
                s.persist(&mut w);
                assert_eq!(w.into_bytes(), &mutant[..used], "byte {at} := {v:#04x}");
                let deadline = s.now() + Ps::from_us(2);
                s.fast_forward(s.now() + Ps::from_us(1));
                while s.next_edge_before(deadline).is_some() {}
                assert_eq!(s.now(), deadline);
            }
        }
    }
}
