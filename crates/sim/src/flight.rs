//! Always-on flight recorder: a fixed-capacity ring buffer of recent
//! control-plane and fabric events.
//!
//! The recorder is designed to be armed for the whole run at near-zero
//! cost: recording one event is a bounds-checked store into a
//! pre-allocated ring (no allocation, no formatting), and when nothing
//! happens nothing is paid. Its value shows up on failure — a
//! [`crate::telemetry::Telemetry`] snapshot says *how much* happened,
//! the flight recorder says *what happened last*, in order, with
//! timestamps. Dump it on a swap error, a deadline breach, or a panic
//! and the tail of the ring is the causal trail into the failure.
//!
//! # Examples
//!
//! ```
//! use vapres_sim::flight::{FlightEvent, FlightRecorder};
//! use vapres_sim::time::Ps;
//!
//! let mut fr = FlightRecorder::new(2);
//! fr.record(Ps::from_ns(1), FlightEvent::DcrWrite { node: 0 });
//! fr.record(Ps::from_ns(2), FlightEvent::DcrWrite { node: 1 });
//! fr.record(Ps::from_ns(3), FlightEvent::DcrRead { node: 1 });
//! // Capacity 2: the oldest event was overwritten.
//! let last: Vec<_> = fr.events().map(|e| e.seq).collect();
//! assert_eq!(last, [1, 2]);
//! assert_eq!(fr.overwritten(), 1);
//! ```

use crate::persist::{intern_static, Persist, PersistError, Reader, Writer};
use crate::time::Ps;
use std::io::{self, Write};

/// Default ring capacity used by systems that arm the recorder without
/// an explicit size.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Which side of a streaming interface a FIFO edge occurred on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoSide {
    /// The module-output (producer) interface FIFO.
    Producer,
    /// The module-input (consumer) interface FIFO.
    Consumer,
}

/// A FIFO occupancy threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoEdgeKind {
    /// The FIFO filled to capacity (backpressure starts here).
    BecameFull,
    /// A full FIFO accepted a pop (backpressure released).
    NoLongerFull,
    /// The FIFO drained to empty.
    BecameEmpty,
    /// An empty FIFO accepted a push.
    NoLongerEmpty,
}

crate::persist_tags!(FifoSide, "fifo side": Producer = 0, Consumer = 1);

crate::persist_tags!(
    FifoEdgeKind, "fifo edge": BecameFull = 0, NoLongerFull = 1, BecameEmpty = 2, NoLongerEmpty = 3
);

/// One recorded moment. Every variant is `Copy` and built from statics
/// and integers so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A PRSocket DCR register was written.
    DcrWrite {
        /// Target node.
        node: u32,
    },
    /// A PRSocket DCR register was read.
    DcrRead {
        /// Target node.
        node: u32,
    },
    /// A swap methodology entered a step.
    SwapStep {
        /// `"seamless"` or `"halt"`.
        method: &'static str,
        /// The step label (matches the telemetry span label).
        step: &'static str,
    },
    /// A swap methodology failed; `step` is the step it died in.
    SwapFailed {
        /// `"seamless"` or `"halt"`.
        method: &'static str,
        /// The step that was executing when the error surfaced.
        step: &'static str,
    },
    /// An interface FIFO crossed a full/empty threshold.
    FifoEdge {
        /// Node owning the interface.
        node: u32,
        /// Interface port on the node.
        port: u32,
        /// Producer or consumer side.
        side: FifoSide,
        /// Which threshold was crossed, in which direction.
        edge: FifoEdgeKind,
    },
    /// A streaming channel was routed.
    RouteEstablished {
        /// Channel id.
        channel: u32,
        /// Producer node.
        producer_node: u32,
        /// Consumer node.
        consumer_node: u32,
    },
    /// A streaming channel was torn down.
    RouteReleased {
        /// Channel id.
        channel: u32,
    },
    /// A bitstream finished streaming through the ICAP.
    IcapWrite {
        /// Configuration words written.
        words: u64,
    },
    /// A watchdog monitor observed a value past its limit.
    DeadlineBreach {
        /// Monitor name (static — the watchdog derives it from a policy).
        monitor: &'static str,
    },
    /// A checkpoint image was captured at this point in the run.
    Checkpoint {
        /// Zero-based ordinal of the checkpoint within the run.
        ordinal: u64,
    },
    /// Execution resumed from a restored checkpoint image.
    Restore {
        /// Ordinal of the checkpoint the image was captured at.
        ordinal: u64,
    },
    /// A restored run (`vapres sim --restore`) is finishing the
    /// scenario its checkpoint image recorded.
    Replay {
        /// True when the run re-judges the watchdog monitors at its end
        /// (`--health`), exiting non-zero on a breach.
        until_breach: bool,
    },
    /// The self-profiler's exports were dumped at this point in the run.
    ProfileDump {
        /// Distinct host-time scopes in the aggregation tree at dump time.
        scopes: u64,
    },
    /// A bitstream was rejected by the ICAP (parse or CRC failure) after
    /// its words had already been clocked through the write port.
    IcapWriteFailed {
        /// Configuration words pushed before the stream was rejected.
        words: u64,
    },
    /// A reconfiguration was served from the staged-bitstream cache —
    /// no storage transfer occurred.
    BitstreamCacheHit {
        /// Raw configuration words the hit replayed into the ICAP.
        words: u64,
    },
}

impl FlightEvent {
    /// Short machine-readable event kind (the JSONL `"event"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::DcrWrite { .. } => "dcr_write",
            FlightEvent::DcrRead { .. } => "dcr_read",
            FlightEvent::SwapStep { .. } => "swap_step",
            FlightEvent::SwapFailed { .. } => "swap_failed",
            FlightEvent::FifoEdge { .. } => "fifo_edge",
            FlightEvent::RouteEstablished { .. } => "route_established",
            FlightEvent::RouteReleased { .. } => "route_released",
            FlightEvent::IcapWrite { .. } => "icap_write",
            FlightEvent::DeadlineBreach { .. } => "deadline_breach",
            FlightEvent::Checkpoint { .. } => "checkpoint",
            FlightEvent::Restore { .. } => "restore",
            FlightEvent::Replay { .. } => "replay",
            FlightEvent::ProfileDump { .. } => "profile_dump",
            FlightEvent::IcapWriteFailed { .. } => "icap_write_failed",
            FlightEvent::BitstreamCacheHit { .. } => "bitstream_cache_hit",
        }
    }
}

/// A timestamped, sequence-numbered ring entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEntry {
    /// Simulation time the event was recorded.
    pub at: Ps,
    /// Monotone sequence number over the recorder's whole lifetime
    /// (gaps never occur; wraparound discards low numbers first).
    pub seq: u64,
    /// What happened.
    pub event: FlightEvent,
}

impl FlightEntry {
    /// Writes this entry as one JSON Lines record: `at_ps`, `seq`,
    /// `event` (the kind tag) and the event's own fields, led by an
    /// `"rsb":N` field when `rsb` names the owning RSB of a fleet.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W, rsb: Option<usize>) -> io::Result<()> {
        w.write_all(b"{")?;
        if let Some(rsb) = rsb {
            write!(w, "\"rsb\":{rsb},")?;
        }
        write!(
            w,
            "\"at_ps\":{},\"seq\":{},\"event\":\"{}\"",
            self.at.as_ps(),
            self.seq,
            self.event.kind()
        )?;
        write_event_fields(w, &self.event)?;
        w.write_all(b"}\n")
    }
}

/// The ring buffer itself. See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    buf: Vec<FlightEntry>,
    /// Once the ring is full: index of the oldest entry (= the slot the
    /// next record overwrites).
    next: usize,
    seq: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        FlightRecorder {
            capacity,
            buf: Vec::with_capacity(capacity),
            next: 0,
            seq: 0,
        }
    }

    /// Records one event at simulation time `at`. Never allocates once
    /// the ring has filled.
    pub fn record(&mut self, at: Ps, event: FlightEvent) {
        let entry = FlightEntry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(entry);
        } else {
            self.buf[self.next] = entry;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Accounts for `n` events that were recorded and then overwritten
    /// without ever being stored: their sequence numbers are consumed,
    /// the ring is left as it is. A producer that keeps only the newest
    /// `capacity` of a burst calls this for the rest, then records what
    /// it kept — leaving the ring and the numbering exactly as recording
    /// the whole burst would.
    pub fn skip(&mut self, n: u64) {
        self.seq += n;
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Events lost to wraparound.
    pub fn overwritten(&self) -> u64 {
        self.seq - self.buf.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEntry> {
        let (older, newer) = if self.buf.len() < self.capacity {
            (&self.buf[..], &[][..])
        } else {
            (&self.buf[self.next..], &self.buf[..self.next])
        };
        older.iter().chain(newer.iter())
    }

    /// Dumps the retained events as JSON Lines, oldest first. Each line
    /// carries `at_ps`, `seq`, `event` (the kind tag) and the event's
    /// own fields.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.events().try_for_each(|e| e.write_jsonl(w, None))
    }
}

impl Persist for FlightEvent {
    fn persist(&self, w: &mut Writer) {
        match *self {
            FlightEvent::DcrWrite { node } => {
                w.put_u8(0);
                w.put_u32(node);
            }
            FlightEvent::DcrRead { node } => {
                w.put_u8(1);
                w.put_u32(node);
            }
            FlightEvent::SwapStep { method, step } => {
                w.put_u8(2);
                w.put_str(method);
                w.put_str(step);
            }
            FlightEvent::SwapFailed { method, step } => {
                w.put_u8(3);
                w.put_str(method);
                w.put_str(step);
            }
            FlightEvent::FifoEdge {
                node,
                port,
                side,
                edge,
            } => {
                w.put_u8(4);
                w.put_u32(node);
                w.put_u32(port);
                side.persist(w);
                edge.persist(w);
            }
            FlightEvent::RouteEstablished {
                channel,
                producer_node,
                consumer_node,
            } => {
                w.put_u8(5);
                w.put_u32(channel);
                w.put_u32(producer_node);
                w.put_u32(consumer_node);
            }
            FlightEvent::RouteReleased { channel } => {
                w.put_u8(6);
                w.put_u32(channel);
            }
            FlightEvent::IcapWrite { words } => {
                w.put_u8(7);
                w.put_u64(words);
            }
            FlightEvent::DeadlineBreach { monitor } => {
                w.put_u8(8);
                w.put_str(monitor);
            }
            FlightEvent::Checkpoint { ordinal } => {
                w.put_u8(9);
                w.put_u64(ordinal);
            }
            FlightEvent::Restore { ordinal } => {
                w.put_u8(10);
                w.put_u64(ordinal);
            }
            FlightEvent::Replay { until_breach } => {
                w.put_u8(11);
                w.put_bool(until_breach);
            }
            FlightEvent::ProfileDump { scopes } => {
                w.put_u8(12);
                w.put_u64(scopes);
            }
            FlightEvent::IcapWriteFailed { words } => {
                w.put_u8(13);
                w.put_u64(words);
            }
            FlightEvent::BitstreamCacheHit { words } => {
                w.put_u8(14);
                w.put_u64(words);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        // The `&'static str` fields are interned on decode; for any name
        // the running binary also produces, the intern pool hands back one
        // stable pointer, so restored events re-encode byte-identically.
        Ok(match r.take_u8()? {
            0 => FlightEvent::DcrWrite {
                node: r.take_u32()?,
            },
            1 => FlightEvent::DcrRead {
                node: r.take_u32()?,
            },
            2 => FlightEvent::SwapStep {
                method: intern_static(&r.take_string()?),
                step: intern_static(&r.take_string()?),
            },
            3 => FlightEvent::SwapFailed {
                method: intern_static(&r.take_string()?),
                step: intern_static(&r.take_string()?),
            },
            4 => FlightEvent::FifoEdge {
                node: r.take_u32()?,
                port: r.take_u32()?,
                side: FifoSide::restore(r)?,
                edge: FifoEdgeKind::restore(r)?,
            },
            5 => FlightEvent::RouteEstablished {
                channel: r.take_u32()?,
                producer_node: r.take_u32()?,
                consumer_node: r.take_u32()?,
            },
            6 => FlightEvent::RouteReleased {
                channel: r.take_u32()?,
            },
            7 => FlightEvent::IcapWrite {
                words: r.take_u64()?,
            },
            8 => FlightEvent::DeadlineBreach {
                monitor: intern_static(&r.take_string()?),
            },
            9 => FlightEvent::Checkpoint {
                ordinal: r.take_u64()?,
            },
            10 => FlightEvent::Restore {
                ordinal: r.take_u64()?,
            },
            11 => FlightEvent::Replay {
                until_breach: r.take_bool()?,
            },
            12 => FlightEvent::ProfileDump {
                scopes: r.take_u64()?,
            },
            13 => FlightEvent::IcapWriteFailed {
                words: r.take_u64()?,
            },
            14 => FlightEvent::BitstreamCacheHit {
                words: r.take_u64()?,
            },
            t => return Err(PersistError::Corrupt(format!("flight event tag {t}"))),
        })
    }
}

impl Persist for FlightRecorder {
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.capacity);
        w.put_u64(self.seq);
        // Canonical form: retained entries oldest-first. The rotation of
        // the physical ring (`next`) is a representation detail.
        w.put_usize(self.buf.len());
        for e in self.events() {
            e.at.persist(w);
            w.put_u64(e.seq);
            e.event.persist(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let capacity = r.take_usize()?;
        if capacity == 0 {
            return Err(PersistError::Corrupt("flight ring capacity zero".into()));
        }
        let seq = r.take_u64()?;
        let len = r.take_usize()?;
        if len > capacity {
            return Err(PersistError::Corrupt(format!(
                "flight ring holds {len} > capacity {capacity}"
            )));
        }
        if len > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        let mut buf = Vec::with_capacity(capacity);
        for _ in 0..len {
            let at = Ps::restore(r)?;
            let entry_seq = r.take_u64()?;
            let event = FlightEvent::restore(r)?;
            buf.push(FlightEntry {
                at,
                seq: entry_seq,
                event,
            });
        }
        // Entries are stored oldest-first, so `next` = 0 (the oldest
        // slot) reproduces both iteration order and overwrite order.
        Ok(FlightRecorder {
            capacity,
            buf,
            next: 0,
            seq,
        })
    }
}

/// Writes the variant-specific `,"key":value` fields of one event —
/// the JSONL line's tail and the timeline instant's `args`.
pub(crate) fn write_event_fields<W: Write>(w: &mut W, event: &FlightEvent) -> io::Result<()> {
    match *event {
        FlightEvent::DcrWrite { node } | FlightEvent::DcrRead { node } => {
            write!(w, ",\"node\":{node}")
        }
        FlightEvent::SwapStep { method, step } => {
            write!(w, ",\"method\":\"{method}\",\"step\":\"{step}\"")
        }
        FlightEvent::SwapFailed { method, step } => {
            write!(w, ",\"method\":\"{method}\",\"step\":\"{step}\"")
        }
        FlightEvent::FifoEdge {
            node,
            port,
            side,
            edge,
        } => {
            let side = match side {
                FifoSide::Producer => "producer",
                FifoSide::Consumer => "consumer",
            };
            let edge = match edge {
                FifoEdgeKind::BecameFull => "became_full",
                FifoEdgeKind::NoLongerFull => "no_longer_full",
                FifoEdgeKind::BecameEmpty => "became_empty",
                FifoEdgeKind::NoLongerEmpty => "no_longer_empty",
            };
            write!(
                w,
                ",\"node\":{node},\"port\":{port},\"side\":\"{side}\",\"edge\":\"{edge}\""
            )
        }
        FlightEvent::RouteEstablished {
            channel,
            producer_node,
            consumer_node,
        } => write!(
            w,
            ",\"channel\":{channel},\"producer_node\":{producer_node},\"consumer_node\":{consumer_node}"
        ),
        FlightEvent::RouteReleased { channel } => write!(w, ",\"channel\":{channel}"),
        FlightEvent::IcapWrite { words }
        | FlightEvent::IcapWriteFailed { words }
        | FlightEvent::BitstreamCacheHit { words } => write!(w, ",\"words\":{words}"),
        FlightEvent::DeadlineBreach { monitor } => write!(w, ",\"monitor\":\"{monitor}\""),
        FlightEvent::Checkpoint { ordinal } | FlightEvent::Restore { ordinal } => {
            write!(w, ",\"ordinal\":{ordinal}")
        }
        FlightEvent::Replay { until_breach } => write!(w, ",\"until_breach\":{until_breach}"),
        FlightEvent::ProfileDump { scopes } => write!(w, ",\"scopes\":{scopes}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> FlightEvent {
        FlightEvent::DcrWrite { node: n }
    }

    #[test]
    fn fills_then_wraps_keeping_the_newest() {
        let mut fr = FlightRecorder::new(3);
        for n in 0..5u32 {
            fr.record(Ps::from_ns(n as u64), ev(n));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.total_recorded(), 5);
        assert_eq!(fr.overwritten(), 2);
        let seqs: Vec<_> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        let nodes: Vec<_> = fr
            .events()
            .map(|e| match e.event {
                FlightEvent::DcrWrite { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, [2, 3, 4]);
    }

    #[test]
    fn skipping_the_overwritten_part_of_a_burst_matches_recording_it() {
        // A burst longer than the ring: recording only its newest
        // `capacity` events after skipping the rest leaves the same ring
        // and the same numbering as recording every event.
        for (before, burst) in [(0u32, 9u32), (2, 4), (5, 40)] {
            let mut all = FlightRecorder::new(4);
            let mut kept = FlightRecorder::new(4);
            for n in 0..before {
                all.record(Ps::from_ns(n as u64), ev(n));
                kept.record(Ps::from_ns(n as u64), ev(n));
            }
            for n in before..before + burst {
                all.record(Ps::from_ns(n as u64), ev(n));
            }
            let skipped = burst.saturating_sub(4);
            kept.skip(skipped as u64);
            for n in before + skipped..before + burst {
                kept.record(Ps::from_ns(n as u64), ev(n));
            }
            let dump = |fr: &FlightRecorder| {
                let mut buf = Vec::new();
                fr.write_jsonl(&mut buf).unwrap();
                buf
            };
            assert_eq!(dump(&all), dump(&kept));
            assert_eq!(all.total_recorded(), kept.total_recorded());
            assert_eq!(all.overwritten(), kept.overwritten());
        }
    }

    #[test]
    fn entry_writer_leads_with_the_rsb_stamp() {
        let e = FlightEntry {
            at: Ps::from_ns(5),
            seq: 3,
            event: ev(2),
        };
        let render = |rsb| {
            let mut buf = Vec::new();
            e.write_jsonl(&mut buf, rsb).unwrap();
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(
            render(None),
            "{\"at_ps\":5000,\"seq\":3,\"event\":\"dcr_write\",\"node\":2}\n"
        );
        assert_eq!(
            render(Some(7)),
            "{\"rsb\":7,\"at_ps\":5000,\"seq\":3,\"event\":\"dcr_write\",\"node\":2}\n"
        );
    }

    #[test]
    fn partially_filled_ring_iterates_in_order() {
        let mut fr = FlightRecorder::new(8);
        fr.record(Ps::from_ns(1), ev(1));
        fr.record(Ps::from_ns(2), ev(2));
        let seqs: Vec<_> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1]);
        assert_eq!(fr.overwritten(), 0);
        assert!(!fr.is_empty());
    }

    #[test]
    fn jsonl_dump_is_one_object_per_line() {
        let mut fr = FlightRecorder::new(4);
        fr.record(
            Ps::from_ns(7),
            FlightEvent::SwapStep {
                method: "seamless",
                step: "2_reconfigure_spare",
            },
        );
        fr.record(
            Ps::from_ns(9),
            FlightEvent::FifoEdge {
                node: 1,
                port: 0,
                side: FifoSide::Consumer,
                edge: FifoEdgeKind::BecameFull,
            },
        );
        let mut buf = Vec::new();
        fr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"swap_step\""));
        assert!(lines[0].contains("\"step\":\"2_reconfigure_spare\""));
        assert!(lines[1].contains("\"side\":\"consumer\""));
        assert!(lines[1].contains("\"edge\":\"became_full\""));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn lifecycle_events_render_and_round_trip() {
        let mut fr = FlightRecorder::new(4);
        fr.record(Ps::from_us(1), FlightEvent::Checkpoint { ordinal: 0 });
        fr.record(Ps::from_us(2), FlightEvent::Restore { ordinal: 0 });
        fr.record(Ps::from_us(3), FlightEvent::Replay { until_breach: true });
        fr.record(Ps::from_us(4), FlightEvent::ProfileDump { scopes: 12 });

        let mut buf = Vec::new();
        fr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"event\":\"checkpoint\""));
        assert!(lines[0].contains("\"ordinal\":0"));
        assert!(lines[1].contains("\"event\":\"restore\""));
        assert!(lines[2].contains("\"event\":\"replay\""));
        assert!(lines[2].contains("\"until_breach\":true"));
        assert!(lines[3].contains("\"event\":\"profile_dump\""));
        assert!(lines[3].contains("\"scopes\":12"));

        let mut w = Writer::new();
        fr.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = FlightRecorder::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        let mut buf2 = Vec::new();
        back.write_jsonl(&mut buf2).unwrap();
        assert_eq!(buf2, text.as_bytes());
    }
}
