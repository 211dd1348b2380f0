//! The VAPRES API (paper Table 2), as MicroBlaze software executed by the
//! caller.
//!
//! Every function charges its software cost to the simulation clock while
//! the data plane keeps running, so a long blocking call (a CompactFlash
//! bitstream read, say) overlaps with stream processing exactly as on the
//! real system.

use crate::config::NodeKind;
use crate::costs;
use crate::socket::Dcr;
use crate::system::VapresSystem;
use std::fmt;
use vapres_bitstream::storage::StorageError;
use vapres_bitstream::stream::{
    self, LeWords, ModuleUid, ParseError, PartialBitstream, WordSource,
};
use vapres_bitstream::timing;
use vapres_fabric::geometry::GeometryError;
use vapres_sim::flight::FlightEvent;
use vapres_sim::time::Ps;
use vapres_stream::fabric::{ChannelId, PortRef, RouteError};
use vapres_stream::word::Word;

/// An error from a VAPRES API call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The node index does not exist.
    BadNode(usize),
    /// The operation needs a PRR but the node is an IOM.
    NotAPrr(usize),
    /// The node's FSL FIFO toward it is full.
    FslFull(usize),
    /// A blocking read timed out.
    Timeout,
    /// A storage (CF/SDRAM) failure.
    Storage(StorageError),
    /// The bitstream failed validation at the ICAP.
    Bitstream(ParseError),
    /// A channel-routing failure.
    Route(RouteError),
    /// The bitstream's frames match no floorplanned PRR.
    NoMatchingPrr,
    /// The target PRR still has its slice macros enabled or clock running;
    /// reconfiguring it would corrupt live logic.
    PrrNotIsolated(usize),
    /// The bitstream loaded fine but no module with its UID is registered
    /// in the library.
    UnknownModule(ModuleUid),
    /// The instantiated module needs more slices than its PRR (or span)
    /// provides.
    ModuleTooLarge {
        /// Slices the module requires.
        need: u32,
        /// Slices the targeted PRR(s) provide.
        have: u32,
    },
    /// A spanning bitstream needs PRRs that are not vertically adjacent
    /// with identical columns.
    SpanNotAdjacent,
    /// Floorplan geometry error while generating a bitstream.
    Geometry(GeometryError),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::BadNode(n) => write!(f, "no node {n}"),
            ApiError::NotAPrr(n) => write!(f, "node {n} is not a PRR"),
            ApiError::FslFull(n) => write!(f, "fsl to node {n} is full"),
            ApiError::Timeout => write!(f, "blocking read timed out"),
            ApiError::Storage(e) => write!(f, "storage: {e}"),
            ApiError::Bitstream(e) => write!(f, "bitstream: {e}"),
            ApiError::Route(e) => write!(f, "routing: {e}"),
            ApiError::NoMatchingPrr => write!(f, "bitstream frames match no PRR"),
            ApiError::PrrNotIsolated(n) => write!(f, "prr at node {n} is not isolated"),
            ApiError::UnknownModule(uid) => write!(f, "no module registered for {uid}"),
            ApiError::ModuleTooLarge { need, have } => {
                write!(f, "module needs {need} slices, target provides {have}")
            }
            ApiError::SpanNotAdjacent => {
                write!(f, "spanning bitstream requires vertically adjacent PRRs")
            }
            ApiError::Geometry(e) => write!(f, "geometry: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<StorageError> for ApiError {
    fn from(e: StorageError) -> Self {
        ApiError::Storage(e)
    }
}
impl From<ParseError> for ApiError {
    fn from(e: ParseError) -> Self {
        ApiError::Bitstream(e)
    }
}
impl From<RouteError> for ApiError {
    fn from(e: RouteError) -> Self {
        ApiError::Route(e)
    }
}
impl From<GeometryError> for ApiError {
    fn from(e: GeometryError) -> Self {
        ApiError::Geometry(e)
    }
}

/// Timing breakdown of one PRR reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Head PRR index that was reconfigured.
    pub prr: usize,
    /// Every PRR covered (head first; length 1 for normal bitstreams,
    /// more for multi-PRR spanning modules).
    pub span: Vec<usize>,
    /// Module now instantiated.
    pub uid: ModuleUid,
    /// Time spent fetching the bitstream from storage.
    pub transfer: Ps,
    /// Time spent writing the ICAP.
    pub icap: Ps,
}

impl ReconfigReport {
    /// Total reconfiguration latency.
    pub fn total(&self) -> Ps {
        self.transfer + self.icap
    }

    /// Fraction of the total spent on the storage transfer.
    pub fn transfer_fraction(&self) -> f64 {
        self.transfer.as_secs_f64() / self.total().as_secs_f64()
    }
}

vapres_sim::persist_fields!(ReconfigReport: prr, span, uid, transfer, icap);

impl VapresSystem {
    fn charge_cycles(&mut self, cycles: u64) {
        let dur = Ps::new(cycles * self.cfg.static_clock.period().as_ps());
        self.run_for(dur);
    }

    fn check_node(&self, node: usize) -> Result<(), ApiError> {
        if node >= self.cfg.params.nodes {
            return Err(ApiError::BadNode(node));
        }
        Ok(())
    }

    fn prr_of_node(&self, node: usize) -> Result<usize, ApiError> {
        self.check_node(node)?;
        self.cfg.prr_index(node).ok_or(ApiError::NotAPrr(node))
    }

    // ------------------------------------------------------------------
    // DCR access (the substrate all Table-2 control calls build on).
    // ------------------------------------------------------------------

    /// Writes a node's PRSocket DCR, applying every control bit.
    ///
    /// `FIFO_reset`/`FSL_reset` act as pulses: FIFOs clear when the bit is
    /// written as 1. `FIFO_wen`/`FIFO_ren` apply to all of the node's
    /// interface ports.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadNode`] for an unknown node.
    pub fn write_dcr(&mut self, node: usize, dcr: Dcr) -> Result<(), ApiError> {
        self.check_node(node)?;
        if let Some(t) = self.telemetry.as_mut() {
            let c = t.counter("dcr_write_total", &[("node", node.to_string())]);
            t.inc(c, 1);
        }
        self.flight_note(FlightEvent::DcrWrite { node: node as u32 });
        self.charge_cycles(costs::DCR_WRITE_CYCLES);

        // Control bits below mutate fabric state: apply them at the
        // present static cycle, not the fabric's last event horizon.
        self.sync_fabric();
        if dcr.fifo_reset {
            self.fabric.reset_node_fifos(node);
        }
        if dcr.fsl_reset {
            self.fsl[node].to_mb.reset();
            self.fsl[node].from_mb.reset();
        }
        for port in 0..self.cfg.params.ko {
            self.fabric
                .set_fifo_ren(PortRef::new(node, port), dcr.fifo_ren)?;
        }
        for port in 0..self.cfg.params.ki {
            self.fabric
                .set_fifo_wen(PortRef::new(node, port), dcr.fifo_wen)?;
        }
        if let Some(prr) = self.node_prr[node] {
            let state = &mut self.prrs[prr];
            if state.bufgmux.selected() != dcr.clk_sel {
                state.bufgmux.select(dcr.clk_sel);
                self.clocks
                    .set_frequency(state.domain, state.bufgmux.output());
            }
            if self.clocks.is_enabled(state.domain) != dcr.clk_en {
                self.clocks.set_enabled(state.domain, dcr.clk_en);
            }
        }
        self.sockets[node].dcr = dcr;
        Ok(())
    }

    /// Reads a node's PRSocket DCR (with bus cost).
    ///
    /// # Errors
    ///
    /// [`ApiError::BadNode`] for an unknown node.
    pub fn read_dcr(&mut self, node: usize) -> Result<Dcr, ApiError> {
        self.check_node(node)?;
        if let Some(t) = self.telemetry.as_mut() {
            let c = t.counter("dcr_read_total", &[("node", node.to_string())]);
            t.inc(c, 1);
        }
        self.flight_note(FlightEvent::DcrRead { node: node as u32 });
        self.charge_cycles(costs::DCR_READ_CYCLES);
        Ok(self.sockets[node].dcr)
    }

    // ------------------------------------------------------------------
    // Table-2 control calls.
    // ------------------------------------------------------------------

    /// `vapres_module_clock`: enables/disables the BUFR clock of the PRR at
    /// `node`.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotAPrr`] if the node is an IOM.
    pub fn vapres_module_clock(&mut self, node: usize, enable: bool) -> Result<(), ApiError> {
        self.prr_of_node(node)?;
        let mut dcr = self.sockets[node].dcr;
        dcr.clk_en = enable;
        self.write_dcr(node, dcr)
    }

    /// Selects the BUFGMUX clock source of the PRR at `node` (the
    /// `CLK_sel` DCR bit): `false` = menu entry 0, `true` = entry 1.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotAPrr`] if the node is an IOM.
    pub fn vapres_module_clock_sel(&mut self, node: usize, sel: bool) -> Result<(), ApiError> {
        self.prr_of_node(node)?;
        let mut dcr = self.sockets[node].dcr;
        dcr.clk_sel = sel;
        self.write_dcr(node, dcr)
    }

    /// `vapres_module_reset`: asserts/deasserts the module reset of the PRR
    /// at `node`.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotAPrr`] if the node is an IOM.
    pub fn vapres_module_reset(&mut self, node: usize, assert: bool) -> Result<(), ApiError> {
        self.prr_of_node(node)?;
        let mut dcr = self.sockets[node].dcr;
        dcr.prr_reset = assert;
        self.write_dcr(node, dcr)
    }

    /// `vapres_module_write`: sends one word to the module at `node` over
    /// its FSL slave port.
    ///
    /// # Errors
    ///
    /// [`ApiError::FslFull`] when the FSL FIFO is full.
    pub fn vapres_module_write(&mut self, node: usize, value: u32) -> Result<(), ApiError> {
        self.check_node(node)?;
        self.charge_cycles(costs::FSL_WRITE_CYCLES);
        self.fsl[node]
            .from_mb
            .push(Word::data(value))
            .map_err(|_| ApiError::FslFull(node))
    }

    /// `vapres_module_read`: non-blocking read of the FSL master port of
    /// the module (or IOM) at `node`.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadNode`] for an unknown node.
    pub fn vapres_module_read(&mut self, node: usize) -> Result<Option<u32>, ApiError> {
        self.check_node(node)?;
        self.charge_cycles(costs::FSL_READ_CYCLES);
        Ok(self.fsl[node].to_mb.pop().map(|w| w.data))
    }

    /// Blocking variant of [`Self::vapres_module_read`]: polls (advancing
    /// simulated time) until a word arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`ApiError::Timeout`] when nothing arrives in time.
    pub fn vapres_module_read_blocking(
        &mut self,
        node: usize,
        timeout: Ps,
    ) -> Result<u32, ApiError> {
        self.check_node(node)?;
        let deadline = self.now() + timeout;
        loop {
            if let Some(w) = self.fsl[node].to_mb.pop() {
                self.charge_cycles(costs::FSL_READ_CYCLES);
                return Ok(w.data);
            }
            if self.now() >= deadline {
                return Err(ApiError::Timeout);
            }
            self.charge_cycles(costs::POLL_CYCLES);
        }
    }

    /// `vapres_establish_channel`: routes a streaming channel between two
    /// module-interface ports, programming the `MUX_sel` bits of every
    /// switch box on the path.
    ///
    /// # Errors
    ///
    /// [`ApiError::Route`] when allocation fails (the paper's call returns
    /// 0); on failure nothing is allocated.
    pub fn vapres_establish_channel(
        &mut self,
        producer: PortRef,
        consumer: PortRef,
    ) -> Result<ChannelId, ApiError> {
        // The new route's registers start moving at the present cycle.
        self.sync_fabric();
        let ch = self.fabric.establish_channel(producer, consumer)?;
        let hops = self
            .fabric
            .channel_info(ch)
            .map(|i| i.hops as u64)
            .unwrap_or(0);
        self.flight_note(FlightEvent::RouteEstablished {
            channel: ch.0 as u32,
            producer_node: producer.node as u32,
            consumer_node: consumer.node as u32,
        });
        self.charge_cycles(costs::ESTABLISH_BASE_CYCLES + hops * costs::ESTABLISH_PER_HOP_CYCLES);
        self.refresh_mux_sel();
        Ok(ch)
    }

    /// Mirrors the fabric's multiplexer allocation into every PRSocket's
    /// `MUX_sel` DCR field, so `read_dcr` shows what the switch boxes are
    /// actually doing (Table 1 semantics).
    fn refresh_mux_sel(&mut self) {
        for node in 0..self.cfg.params.nodes {
            self.sockets[node].dcr.mux_sel = self.fabric.mux_sel_bits(node) & 0xFF_FFFF;
        }
    }

    /// Releases a previously established channel.
    ///
    /// # Errors
    ///
    /// [`ApiError::Route`] for an unknown channel.
    pub fn vapres_release_channel(&mut self, channel: ChannelId) -> Result<(), ApiError> {
        // Words still in flight on the route exist up to the present
        // cycle and vanish with it — fold them before tearing it down.
        self.sync_fabric();
        let hops = self
            .fabric
            .channel_info(channel)
            .map(|i| i.hops as u64)
            .unwrap_or(0);
        self.fabric.release_channel(channel)?;
        self.flight_note(FlightEvent::RouteReleased {
            channel: channel.0 as u32,
        });
        self.charge_cycles(
            costs::ESTABLISH_BASE_CYCLES / 2 + hops * costs::ESTABLISH_PER_HOP_CYCLES,
        );
        self.refresh_mux_sel();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reconfiguration calls.
    // ------------------------------------------------------------------

    /// `vapres_cf2array`: copies a bitstream file from CompactFlash into a
    /// named SDRAM array (done once at startup so later swaps use the fast
    /// path).
    ///
    /// # Errors
    ///
    /// [`ApiError::Storage`] on missing file or duplicate array name.
    pub fn vapres_cf2array(&mut self, filename: &str, array: &str) -> Result<(), ApiError> {
        let (bytes, t_read) = self.cf.read(filename)?;
        self.cf_bytes += bytes.len() as u64;
        self.sdram_bytes += bytes.len() as u64;
        self.run_for(t_read);
        let t_stage = self.sdram.stage(array, bytes)?;
        self.run_for(t_stage);
        Ok(())
    }

    /// `vapres_cf2icap`: reconfigures a PRR from a bitstream file on
    /// CompactFlash (the paper's slow path: 1.043 s for the prototype
    /// PRR).
    ///
    /// # Errors
    ///
    /// See [`ApiError`]; on a validation failure the targeted PRR is left
    /// unconfigured.
    pub fn vapres_cf2icap(&mut self, filename: &str) -> Result<ReconfigReport, ApiError> {
        let key = format!("cf:{filename}");
        if let Some(report) = self.reconfig_from_cache(&key)? {
            return Ok(report);
        }
        let (bytes, t_read) = self.cf.read(filename)?;
        self.cf_bytes += bytes.len() as u64;
        self.run_for(t_read);
        self.write_icap_bytes(&bytes, t_read, Some(&key))
    }

    /// `vapres_array2icap`: reconfigures a PRR from a bitstream staged in
    /// SDRAM (the paper's fast path: 71.94 ms).
    ///
    /// # Errors
    ///
    /// See [`ApiError`].
    pub fn vapres_array2icap(&mut self, array: &str) -> Result<ReconfigReport, ApiError> {
        let key = format!("sdram:{array}");
        if let Some(report) = self.reconfig_from_cache(&key)? {
            return Ok(report);
        }
        let (bytes, t_read) = self.sdram.read(array)?;
        self.sdram_bytes += bytes.len() as u64;
        self.run_for(t_read);
        self.write_icap_bytes(&bytes, t_read, Some(&key))
    }

    /// Attempts to serve a reconfiguration from the staged-bitstream
    /// cache. On a hit the storage transfer is skipped entirely: the
    /// charged time is RLE expansion plus the ICAP write. `Ok(None)`
    /// means the cache is off or the stream is not resident — the caller
    /// takes the cold path (the miss is counted).
    fn reconfig_from_cache(&mut self, key: &str) -> Result<Option<ReconfigReport>, ApiError> {
        let Some(cache) = self.bs_cache.as_mut() else {
            return Ok(None);
        };
        let Some(hit) = cache.lookup(key) else {
            return Ok(None);
        };
        self.flight_note(FlightEvent::BitstreamCacheHit {
            words: hit.raw_words,
        });
        let decode = hit.decode_time();
        let t0 = self.now();
        self.run_for(decode);
        if let Some(t) = self.telemetry.as_mut() {
            t.record_span("icap", "cache_decode", t0, t0 + decode);
        }
        let mut report = self.write_icap_source(hit.words.as_slice(), Ps::ZERO, None)?;
        // The expansion is part of the configuration-port cost, not a
        // storage transfer.
        report.icap += decode;
        Ok(Some(report))
    }

    /// Byte-slice entry to the reconfiguration tail: wraps the buffer in
    /// a zero-copy little-endian word view, so the bytes handed back by
    /// storage are parsed and pushed without materializing a word vector.
    fn write_icap_bytes(
        &mut self,
        bytes: &[u8],
        transfer: Ps,
        cache_key: Option<&str>,
    ) -> Result<ReconfigReport, ApiError> {
        let src = LeWords::new(bytes)?;
        self.write_icap_source(&src, transfer, cache_key)
    }

    /// Common tail of both reconfiguration calls: identify the PRR, check
    /// isolation, destroy the outgoing module, stream the words through
    /// the ICAP (charging the driver time while the rest of the system
    /// runs), then instantiate the new module on success. Generic over
    /// [`WordSource`] so storage bytes and cache-hit word vectors share
    /// one path.
    fn write_icap_source<S: WordSource + ?Sized>(
        &mut self,
        src: &S,
        transfer: Ps,
        cache_key: Option<&str>,
    ) -> Result<ReconfigReport, ApiError> {
        let n_words = src.word_len() as u64;
        // The storage transfer already ran (the caller advanced the clock
        // by `transfer` before handing over): span it retroactively.
        let entry = self.now();
        if let Some(t) = self.telemetry.as_mut() {
            if transfer > Ps::ZERO {
                let start = entry.checked_sub(transfer).unwrap_or(Ps::ZERO);
                t.record_span("icap", "transfer", start, entry);
            }
        }
        let parsed = match stream::parse_source(src) {
            Ok(p) => p,
            Err(_) => {
                // The corruption is detected inside the configuration
                // logic: the driver still pushes the whole stream (and
                // pays for it), and the ICAP zeroes whatever frames the
                // broken stream touched. The push charges the ICAP's
                // pushed-word counter too, so the work plane attributes
                // the wasted driver effort.
                let t0 = self.now();
                let push_time = timing::icap_write_time(n_words);
                self.run_for(push_time);
                if let Some(t) = self.telemetry.as_mut() {
                    t.record_span("icap", "write_failed", t0, t0 + push_time);
                }
                let err = self
                    .icap
                    .write_source(src)
                    .expect_err("parse already failed");
                self.flight_note(FlightEvent::IcapWriteFailed { words: n_words });
                return Err(err.into());
            }
        };
        let span = self
            .prrs_for_frames(&parsed.frames)
            .ok_or(ApiError::NoMatchingPrr)?;
        for &prr in &span {
            let node = self.prrs[prr].node;
            let socket = self.sockets[node].dcr;
            if socket.sm_en || self.clocks.is_enabled(self.prrs[prr].domain) {
                return Err(ApiError::PrrNotIsolated(node));
            }
        }

        // The outgoing module(s) — including any spanning module touching
        // these PRRs — cease to exist the moment frames start changing.
        for &prr in &span {
            self.destroy_span_containing(prr);
        }

        let icap_time = timing::icap_write_time(n_words);
        let t0 = self.now();
        self.run_for(icap_time);
        if let Some(t) = self.telemetry.as_mut() {
            t.record_span("icap", "write", t0, t0 + icap_time);
            // Distribution of write lengths in ICAP-clock cycles: one
            // cycle per word at 100 MHz, so 100k-cycle (1 ms) buckets
            // resolve the paper's 640-slice PRR writes (~7.2 ms). The
            // polled driver runs on the 100 MHz MicroBlaze system clock,
            // not the (configurable) static fabric clock.
            let h = t.histogram("icap_write_cycles", &[], 100_000, 16);
            let cycles = icap_time.as_ps() / timing::system_clock().period().as_ps().max(1);
            t.observe(h, cycles);
        }
        // The stream was parsed and CRC-checked above: push it without a
        // second pass.
        let write = self.icap.write_parsed(parsed, n_words)?;
        self.flight_note(FlightEvent::IcapWrite { words: n_words });

        // Stage the validated stream for repeat swaps. This happens before
        // the library checks below: the bitstream itself configured fine,
        // so a retry after registering the module should still hit.
        if let Some(key) = cache_key {
            if self.bs_cache.is_some() {
                let words: Vec<u32> = (0..src.word_len()).map(|i| src.word_at(i)).collect();
                let far = write.frames_written.first().map_or(0, |f| f.encode());
                if let Some(cache) = self.bs_cache.as_mut() {
                    cache.insert(key, far, &words);
                }
            }
        }

        let module = self
            .library
            .instantiate(write.uid)
            .ok_or(ApiError::UnknownModule(write.uid))?;
        // The module must fit the slices the span provides.
        let have: u32 = span
            .iter()
            .map(|&p| {
                self.cfg
                    .device
                    .slices_in(&self.cfg.floorplan.prrs()[p].rect)
            })
            .sum();
        if module.required_slices() > have {
            return Err(ApiError::ModuleTooLarge {
                need: module.required_slices(),
                have,
            });
        }
        let head = span[0];
        self.prrs[head].module = Some(module);
        self.prrs[head].loaded_uid = Some(write.uid);
        if span.len() > 1 {
            for &prr in &span {
                self.prrs[prr].spanned_by = Some(head);
            }
        }
        Ok(ReconfigReport {
            prr: head,
            span,
            uid: write.uid,
            transfer,
            icap: icap_time,
        })
    }

    /// Generates one partial bitstream covering several *vertically
    /// adjacent* PRRs — the paper's Sec. IV.A alternative for "hardware
    /// modules that require more resources than a PRR provides".
    ///
    /// The spanning module attaches to the fabric through the head
    /// (first) PRR's switch box; the other PRRs contribute fabric only.
    ///
    /// # Errors
    ///
    /// [`ApiError::SpanNotAdjacent`] unless the PRRs tile one rectangle;
    /// geometry errors if the union violates the BUFR reach rules.
    pub fn bitstream_for_span(
        &self,
        prrs: &[usize],
        uid: ModuleUid,
    ) -> Result<PartialBitstream, ApiError> {
        if prrs.is_empty() {
            return Err(ApiError::SpanNotAdjacent);
        }
        let placements = self.cfg.floorplan.prrs();
        let mut rects = Vec::with_capacity(prrs.len());
        for &p in prrs {
            rects.push(placements.get(p).ok_or(ApiError::BadNode(p))?.rect);
        }
        // Must share columns and stack contiguously in rows.
        rects.sort_by_key(|r| r.row_lo);
        for pair in rects.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.col_lo != b.col_lo || a.col_hi != b.col_hi || b.row_lo != a.row_hi + 1 {
                return Err(ApiError::SpanNotAdjacent);
            }
        }
        let union = vapres_fabric::geometry::ClbRect::new(
            rects[0].col_lo,
            rects[0].col_hi,
            rects[0].row_lo,
            rects.last().expect("non-empty").row_hi,
        );
        Ok(PartialBitstream::generate(&self.cfg.device, &union, uid)?)
    }

    // ------------------------------------------------------------------
    // Provisioning helpers (host side; no simulated cost).
    // ------------------------------------------------------------------

    /// Generates the partial bitstream loading `uid` into PRR `prr`
    /// (implementation half of the application flow's "synthesis").
    ///
    /// # Errors
    ///
    /// [`ApiError::BadNode`] for an unknown PRR index and geometry errors
    /// for unplaceable rectangles.
    pub fn bitstream_for(&self, prr: usize, uid: ModuleUid) -> Result<PartialBitstream, ApiError> {
        let placement = self
            .cfg
            .floorplan
            .prrs()
            .get(prr)
            .ok_or(ApiError::BadNode(prr))?;
        Ok(PartialBitstream::generate(
            &self.cfg.device,
            &placement.rect,
            uid,
        )?)
    }

    /// Generates a bitstream and stores it as a CompactFlash file — the
    /// application flow's deployment step.
    ///
    /// # Errors
    ///
    /// As [`Self::bitstream_for`].
    pub fn install_bitstream(
        &mut self,
        prr: usize,
        uid: ModuleUid,
        filename: &str,
    ) -> Result<(), ApiError> {
        let bs = self.bitstream_for(prr, uid)?;
        self.invalidate_cached_file(filename);
        self.cf.store(filename, bs.to_bytes());
        Ok(())
    }

    /// Stores raw bytes as a CompactFlash file, bypassing bitstream
    /// generation — the fault-injection hook: sweep scenarios corrupt a
    /// generated bitstream and plant it here, so a later reconfiguration
    /// exercises the ICAP's validation path exactly as flash corruption
    /// on the real card would.
    pub fn cf_store_raw(&mut self, filename: &str, bytes: Vec<u8>) {
        self.invalidate_cached_file(filename);
        self.cf.store(filename, bytes);
    }

    /// Drops any staged-cache entries derived from a CompactFlash file
    /// that is about to be re-provisioned, so a stale hit can never
    /// configure the old module.
    fn invalidate_cached_file(&mut self, filename: &str) {
        if let Some(cache) = self.bs_cache.as_mut() {
            cache.invalidate(&format!("cf:{filename}"));
        }
    }

    /// Brings a node's interfaces up for streaming: slice macros on,
    /// FIFO read/write enables on, resets clear. For PRRs also enables the
    /// clock (menu entry `clk_sel`).
    ///
    /// # Errors
    ///
    /// [`ApiError::BadNode`] for an unknown node.
    pub fn bring_up_node(&mut self, node: usize, clk_sel: bool) -> Result<(), ApiError> {
        self.check_node(node)?;
        let is_prr = self.cfg.node_kinds[node] == NodeKind::Prr;
        let dcr = Dcr {
            sm_en: true,
            prr_reset: false,
            fifo_reset: false,
            fsl_reset: false,
            fifo_wen: true,
            fifo_ren: true,
            clk_en: is_prr,
            clk_sel,
            mux_sel: 0,
        };
        self.write_dcr(node, dcr)
    }

    /// Isolates a node: slice macros off, clock gated, interface enables
    /// off — the state a PRR must be in before reconfiguration.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadNode`] for an unknown node.
    pub fn isolate_node(&mut self, node: usize) -> Result<(), ApiError> {
        self.check_node(node)?;
        let dcr = Dcr::default();
        self.write_dcr(node, dcr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::module::{HardwareModule, ModuleIo, ModuleLibrary};

    /// Pass-through module used by the API tests.
    struct Wire;
    impl HardwareModule for Wire {
        fn name(&self) -> &str {
            "wire"
        }
        fn uid(&self) -> ModuleUid {
            ModuleUid(0x11)
        }
        fn required_slices(&self) -> u32 {
            8
        }
        fn tick(&mut self, io: &mut ModuleIo<'_>) {
            if io.output_space(0) > 0 {
                if let Some(w) = io.read_input(0) {
                    io.write_output(0, w);
                }
            }
        }
        fn save_state(&self) -> Vec<u32> {
            Vec::new()
        }
        fn restore_state(&mut self, _s: &[u32]) {}
        fn reset(&mut self) {}
    }

    fn sys_with_wire() -> VapresSystem {
        let mut lib = ModuleLibrary::new();
        lib.register(ModuleUid(0x11), || Box::new(Wire));
        VapresSystem::new(SystemConfig::prototype(), lib).unwrap()
    }

    #[test]
    fn cf2icap_timing_matches_paper() {
        let mut sys = sys_with_wire();
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        let t0 = sys.now();
        let report = sys.vapres_cf2icap("wire.bit").unwrap();
        let elapsed = (sys.now() - t0).as_secs_f64();
        assert!((elapsed - 1.043).abs() < 0.03, "elapsed {elapsed}");
        assert!((report.transfer_fraction() - 0.953).abs() < 0.01);
        assert_eq!(report.prr, 0);
        assert_eq!(sys.prr_loaded_uid(0), Some(ModuleUid(0x11)));
        assert_eq!(sys.prr_module_name(0), Some("wire"));
    }

    #[test]
    fn array2icap_timing_matches_paper() {
        let mut sys = sys_with_wire();
        sys.install_bitstream(1, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2array("wire.bit", "wire").unwrap();
        let t0 = sys.now();
        sys.vapres_array2icap("wire").unwrap();
        let ms = (sys.now() - t0).as_secs_f64() * 1e3;
        assert!((ms - 71.94).abs() / 71.94 < 0.03, "elapsed {ms} ms");
    }

    #[test]
    fn reconfig_requires_isolation() {
        let mut sys = sys_with_wire();
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.bring_up_node(1, false).unwrap(); // node 1 = PRR 0
        let err = sys.vapres_cf2icap("wire.bit").unwrap_err();
        assert_eq!(err, ApiError::PrrNotIsolated(1));
        sys.isolate_node(1).unwrap();
        assert!(sys.vapres_cf2icap("wire.bit").is_ok());
    }

    #[test]
    fn unknown_module_reported() {
        let mut sys = sys_with_wire();
        sys.install_bitstream(0, ModuleUid(0x99), "mystery.bit")
            .unwrap();
        let err = sys.vapres_cf2icap("mystery.bit").unwrap_err();
        assert_eq!(err, ApiError::UnknownModule(ModuleUid(0x99)));
        // Frames are configured but no module runs.
        assert_eq!(sys.prr_loaded_uid(0), None);
    }

    #[test]
    fn corrupt_bitstream_rejected() {
        let mut sys = sys_with_wire();
        let bs = sys.bitstream_for(0, ModuleUid(0x11)).unwrap();
        let mut bytes = bs.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        sys.compact_flash_mut().store("bad.bit", bytes);
        let err = sys.vapres_cf2icap("bad.bit").unwrap_err();
        assert!(matches!(err, ApiError::Bitstream(_)));
    }

    #[test]
    fn missing_file_reported() {
        let mut sys = sys_with_wire();
        assert!(matches!(
            sys.vapres_cf2icap("nope.bit"),
            Err(ApiError::Storage(_))
        ));
    }

    #[test]
    fn module_streams_data_end_to_end() {
        let mut sys = sys_with_wire();
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2icap("wire.bit").unwrap();
        // Route IOM(0) -> PRR0(node1) -> IOM(0).
        let in_ch = sys
            .vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
            .unwrap();
        let out_ch = sys
            .vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
            .unwrap();
        sys.bring_up_node(0, false).unwrap();
        sys.bring_up_node(1, false).unwrap();
        sys.iom_feed(0, 1..=20);
        let done = sys.run_until(Ps::from_us(10), |s| s.iom_output(0).len() == 20);
        assert!(done, "only {} words", sys.iom_output(0).len());
        let out: Vec<u32> = sys.iom_output(0).iter().map(|(_, w)| w.data).collect();
        assert_eq!(out, (1..=20).collect::<Vec<u32>>());
        sys.vapres_release_channel(in_ch).unwrap();
        sys.vapres_release_channel(out_ch).unwrap();
    }

    #[test]
    fn module_clock_gating_stops_processing() {
        let mut sys = sys_with_wire();
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2icap("wire.bit").unwrap();
        sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
            .unwrap();
        sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
            .unwrap();
        sys.bring_up_node(0, false).unwrap();
        sys.bring_up_node(1, false).unwrap();
        sys.vapres_module_clock(1, false).unwrap(); // gate the PRR clock
        sys.iom_feed(0, 1..=5);
        sys.run_for(Ps::from_us(2));
        assert!(sys.iom_output(0).is_empty());
        sys.vapres_module_clock(1, true).unwrap();
        let done = sys.run_until(Ps::from_us(10), |s| s.iom_output(0).len() == 5);
        assert!(done);
    }

    #[test]
    fn clock_sel_changes_throughput() {
        // At 25 MHz the wire moves one word per 40 ns instead of 10 ns.
        let mut sys = sys_with_wire();
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2icap("wire.bit").unwrap();
        sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
            .unwrap();
        sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
            .unwrap();
        sys.bring_up_node(0, false).unwrap();
        sys.bring_up_node(1, true).unwrap(); // clk_sel = menu[1] = 25 MHz
        sys.iom_feed(0, 1..=10_000);
        sys.run_for(Ps::from_us(10));
        let slow_count = sys.iom_output(0).len();
        // Switch to 100 MHz and run the same wall time.
        sys.vapres_module_clock_sel(1, false).unwrap();
        let before = sys.iom_output(0).len();
        sys.run_for(Ps::from_us(10));
        let fast_count = sys.iom_output(0).len() - before;
        assert!(
            fast_count > slow_count * 2,
            "fast {fast_count} vs slow {slow_count}"
        );
    }

    #[test]
    fn fsl_roundtrip_and_blocking_read() {
        let mut sys = sys_with_wire();
        assert_eq!(sys.vapres_module_read(1).unwrap(), None);
        sys.vapres_module_write(1, 42).unwrap();
        // The wire module ignores FSL; read back our own loopback via the
        // to_mb path is not possible — test blocking timeout instead.
        let err = sys
            .vapres_module_read_blocking(1, Ps::from_us(1))
            .unwrap_err();
        assert_eq!(err, ApiError::Timeout);
    }

    #[test]
    fn bad_node_errors() {
        let mut sys = sys_with_wire();
        assert!(matches!(
            sys.write_dcr(9, Dcr::default()),
            Err(ApiError::BadNode(9))
        ));
        assert!(matches!(
            sys.vapres_module_clock(0, true),
            Err(ApiError::NotAPrr(0))
        ));
        assert!(matches!(
            sys.vapres_module_read(9),
            Err(ApiError::BadNode(9))
        ));
        assert!(matches!(
            sys.bitstream_for(7, ModuleUid(1)),
            Err(ApiError::BadNode(7))
        ));
    }

    #[test]
    fn mux_sel_mirrors_channel_allocation() {
        let mut sys = sys_with_wire();
        assert_eq!(sys.dcr(1).mux_sel, 0);
        let ch = sys
            .vapres_establish_channel(PortRef::new(0, 0), PortRef::new(2, 0))
            .unwrap();
        // Node 1 sits mid-path: both adjacent segments carry the channel.
        assert_ne!(sys.dcr(1).mux_sel, 0);
        sys.vapres_release_channel(ch).unwrap();
        assert_eq!(sys.dcr(1).mux_sel, 0);
    }

    #[test]
    fn dcr_fifo_reset_pulse() {
        let mut sys = sys_with_wire();
        sys.iom_feed(0, 1..=3);
        sys.run_for(Ps::from_ns(100));
        let port = PortRef::new(0, 0);
        assert!(sys.fabric().producer_len(port).unwrap() > 0);
        let mut dcr = sys.dcr(0);
        dcr.fifo_reset = true;
        sys.write_dcr(0, dcr).unwrap();
        assert_eq!(sys.fabric().producer_len(port).unwrap(), 0);
    }

    #[test]
    fn icap_write_cycles_histogram_uses_the_system_clock() {
        // Regression: the polled ICAP driver runs on the 100 MHz
        // MicroBlaze clock regardless of the static fabric clock. The
        // histogram used to divide by the configurable static-clock
        // period, so a 50 MHz fabric halved every recorded cycle count.
        let mut lib = ModuleLibrary::new();
        lib.register(ModuleUid(0x11), || Box::new(Wire));
        let mut cfg = SystemConfig::prototype();
        cfg.static_clock = vapres_sim::time::Freq::mhz(50);
        let mut sys = VapresSystem::new(cfg, lib).unwrap();
        sys.enable_telemetry();
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        let n = sys.bitstream_for(0, ModuleUid(0x11)).unwrap().words().len() as u64;
        sys.vapres_cf2icap("wire.bit").unwrap();
        let expected = timing::icap_write_time(n).as_ps() / timing::system_clock().period().as_ps();
        let h = sys
            .telemetry()
            .unwrap()
            .histogram_named("icap_write_cycles", &[])
            .unwrap();
        assert_eq!(h.max(), Some(expected), "cycles must use the 100 MHz clock");
    }

    #[test]
    fn failed_icap_write_charges_work_and_notes_flight() {
        // Regression: the parse-failure arm advanced the sim clock by the
        // push time but charged no words to the profiler's work plane and
        // emitted no flight event, so failed pushes were invisible to
        // both attribution surfaces.
        let mut sys = sys_with_wire();
        sys.enable_profiling();
        sys.enable_flight_recorder(16);
        let bs = sys.bitstream_for(0, ModuleUid(0x11)).unwrap();
        let n = bs.words().len() as u64;
        let mut bytes = bs.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        sys.cf_store_raw("bad.bit", bytes);
        let err = sys.vapres_cf2icap("bad.bit").unwrap_err();
        assert!(matches!(err, ApiError::Bitstream(_)));
        assert_eq!(sys.icap().words_pushed(), n, "driver clocks every word");
        let charged = sys
            .profile_cost_model()
            .unwrap()
            .rows
            .iter()
            .find(|r| r.component == "icap/words")
            .unwrap()
            .work_units;
        assert_eq!(charged, n, "work plane attributes the failed push");
        let events: Vec<_> = sys.flight().unwrap().events().map(|e| e.event).collect();
        assert!(
            events.contains(&FlightEvent::IcapWriteFailed { words: n }),
            "{events:?}"
        );
    }

    /// The ICAP's counters: writes, words pushed, words written, failed
    /// writes.
    fn icap_counters(sys: &VapresSystem) -> [u64; 4] {
        let icap = sys.icap();
        [
            icap.write_count(),
            icap.words_pushed(),
            icap.words_written(),
            icap.failed_write_count(),
        ]
    }

    /// The ICAP flight events and `icap` telemetry span labels recorded
    /// since the system was built.
    fn icap_trace(sys: &mut VapresSystem) -> (Vec<FlightEvent>, Vec<String>) {
        let events = sys
            .flight()
            .unwrap()
            .events()
            .map(|e| e.event)
            .filter(|e| {
                matches!(
                    e,
                    FlightEvent::IcapWrite { .. } | FlightEvent::IcapWriteFailed { .. }
                )
            })
            .collect();
        let spans = sys
            .telemetry()
            .unwrap()
            .spans_named("icap")
            .map(|s| s.label.clone())
            .collect();
        (events, spans)
    }

    #[test]
    fn each_reconfiguration_validates_and_counts_one_write() {
        // The reconfiguration tail parses a stream once to find its PRR
        // and hands the parse to the ICAP. Whatever the stream, each call
        // is one ICAP write with the counters, frames, flight events and
        // spans of a single push.
        let good = sys_with_wire().bitstream_for(0, ModuleUid(0x11)).unwrap();
        let n = good.words().len() as u64;
        let mut wrong_device = good.words().to_vec();
        let id_at = wrong_device
            .iter()
            .position(|&w| w == stream::IDCODE_XC4VLX25)
            .unwrap();
        wrong_device[id_at] = 0x0123_4567;
        // Re-seal the CRC so only the device check can reject the stream.
        let Err(ParseError::CrcMismatch { computed, .. }) = stream::parse(&wrong_device) else {
            panic!("a changed IDCODE must break the CRC");
        };
        let crc_at = wrong_device.len() - 4;
        wrong_device[crc_at] = computed;
        let mut corrupt = good.words().to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let good_frames = stream::parse(good.words()).unwrap().frames;

        for via_sdram in [false, true] {
            for (what, words) in [
                ("valid", good.words()),
                ("wrong idcode", &wrong_device[..]),
                ("corrupt", &corrupt[..]),
            ] {
                let mut sys = sys_with_wire();
                sys.enable_telemetry();
                sys.enable_flight_recorder(256);
                let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                sys.cf_store_raw("m.bit", bytes);
                let result = if via_sdram {
                    sys.vapres_cf2array("m.bit", "m").unwrap();
                    sys.vapres_array2icap("m")
                } else {
                    sys.vapres_cf2icap("m.bit")
                };
                let ctx = format!("{what} stream, via_sdram={via_sdram}");
                let (events, spans) = icap_trace(&mut sys);
                let memory = sys.icap().memory();
                match what {
                    "valid" => {
                        assert_eq!(result.unwrap().uid, ModuleUid(0x11), "{ctx}");
                        assert_eq!(icap_counters(&sys), [1, n, n, 0], "{ctx}");
                        assert_eq!(memory.written_frames(), good_frames.len(), "{ctx}");
                        for (far, data) in &good_frames {
                            assert_eq!(memory.frame(*far), Some(&data[..]), "{ctx}");
                        }
                        assert_eq!(events, [FlightEvent::IcapWrite { words: n }], "{ctx}");
                        assert_eq!(spans, ["transfer", "write"], "{ctx}");
                    }
                    "wrong idcode" => {
                        assert!(
                            matches!(
                                result,
                                Err(ApiError::Bitstream(ParseError::WrongDevice { .. }))
                            ),
                            "{ctx}"
                        );
                        assert_eq!(icap_counters(&sys), [1, n, 0, 1], "{ctx}");
                        assert_eq!(memory.written_frames(), 0, "{ctx}");
                        assert_eq!(events, [], "{ctx}");
                        assert_eq!(spans, ["transfer", "write"], "{ctx}");
                    }
                    _ => {
                        assert!(
                            matches!(
                                result,
                                Err(ApiError::Bitstream(ParseError::CrcMismatch { .. }))
                            ),
                            "{ctx}"
                        );
                        assert_eq!(icap_counters(&sys), [1, n, 0, 1], "{ctx}");
                        assert!(memory.written_frames() > 0, "{ctx}");
                        assert!(
                            memory.frames().all(|(_, d)| d.iter().all(|&w| w == 0)),
                            "{ctx}: touched frames are zeroed"
                        );
                        assert_eq!(events, [FlightEvent::IcapWriteFailed { words: n }], "{ctx}");
                        assert_eq!(spans, ["transfer", "write_failed"], "{ctx}");
                    }
                }
            }
        }

        // With the cache armed, a hit replays exactly one write.
        let mut sys = sys_with_wire();
        sys.enable_telemetry();
        sys.enable_flight_recorder(256);
        sys.enable_bitstream_cache(2);
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2icap("wire.bit").unwrap();
        assert_eq!(icap_counters(&sys), [1, n, n, 0]);
        assert_eq!(sys.vapres_cf2icap("wire.bit").unwrap().uid, ModuleUid(0x11));
        assert_eq!(icap_counters(&sys), [2, 2 * n, 2 * n, 0]);
        assert_eq!(sys.bitstream_cache().unwrap().stats().hits, 1);
        let (events, spans) = icap_trace(&mut sys);
        assert_eq!(events, [FlightEvent::IcapWrite { words: n }; 2]);
        assert_eq!(spans, ["transfer", "write", "cache_decode", "write"]);
    }

    #[test]
    fn cached_repeat_swap_skips_the_storage_transfer() {
        let mut sys = sys_with_wire();
        sys.enable_bitstream_cache(4);
        sys.enable_flight_recorder(16);
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        let cold = sys.vapres_cf2icap("wire.bit").unwrap();
        assert!(cold.transfer > Ps::ZERO);
        let t0 = sys.now();
        let warm = sys.vapres_cf2icap("wire.bit").unwrap();
        let warm_elapsed = sys.now() - t0;
        assert_eq!(warm.transfer, Ps::ZERO, "hit performs no storage transfer");
        assert_eq!(warm.uid, ModuleUid(0x11));
        assert_eq!(sys.prr_loaded_uid(0), Some(ModuleUid(0x11)));
        // The repeat swap must be at least an order of magnitude faster
        // end to end (the paper's 1.043 s CF path collapses to ~49 ms of
        // ICAP write plus RLE expansion).
        assert!(
            cold.total().as_ps() >= 10 * warm_elapsed.as_ps(),
            "cold {:?} vs warm {:?}",
            cold.total(),
            warm_elapsed
        );
        let s = sys.bitstream_cache().unwrap().stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.bytes_saved > 0);
        let kinds: Vec<&str> = sys
            .flight()
            .unwrap()
            .events()
            .map(|e| e.event.kind())
            .collect();
        assert!(kinds.contains(&"bitstream_cache_hit"), "{kinds:?}");
    }

    #[test]
    fn cached_array_swap_is_icap_write_only() {
        let mut sys = sys_with_wire();
        sys.enable_bitstream_cache(2);
        sys.install_bitstream(1, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2array("wire.bit", "wire").unwrap();
        let n = sys.bitstream_for(1, ModuleUid(0x11)).unwrap().words().len() as u64;
        sys.vapres_array2icap("wire").unwrap();
        let t0 = sys.now();
        let rep = sys.vapres_array2icap("wire").unwrap();
        let elapsed = sys.now() - t0;
        assert_eq!(rep.transfer, Ps::ZERO);
        // Strictly cheaper than the uncached SDRAM fast path, and at
        // least the raw ICAP write (no free lunch).
        assert!(elapsed < timing::sdram_copy_time(n * 4) + timing::icap_write_time(n));
        assert!(elapsed >= timing::icap_write_time(n));
    }

    #[test]
    fn reprovisioning_invalidates_cached_streams() {
        // Two modules alternate behind the same file name: a stale cache
        // hit after re-provisioning would configure the old module.
        let mut lib = ModuleLibrary::new();
        lib.register(ModuleUid(0x11), || Box::new(Wire));
        lib.register(ModuleUid(0x22), || Box::new(Wire));
        let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
        sys.enable_bitstream_cache(4);
        sys.install_bitstream(0, ModuleUid(0x11), "m.bit").unwrap();
        sys.vapres_cf2icap("m.bit").unwrap();
        sys.install_bitstream(0, ModuleUid(0x22), "m.bit").unwrap();
        let rep = sys.vapres_cf2icap("m.bit").unwrap();
        assert_eq!(rep.uid, ModuleUid(0x22), "stale hit configured old module");
        assert!(rep.transfer > Ps::ZERO, "invalidation forces the cold path");
        assert_eq!(sys.prr_loaded_uid(0), Some(ModuleUid(0x22)));
        let s = sys.bitstream_cache().unwrap().stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn cache_hits_are_bit_identical_to_the_cold_configuration() {
        // The frames a hit writes must match the cold write bit for bit.
        let mut sys = sys_with_wire();
        sys.enable_bitstream_cache(2);
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2icap("wire.bit").unwrap();
        let cold_frames: Vec<(u32, Vec<u32>)> = sys
            .icap()
            .memory()
            .frames()
            .map(|(far, data)| (far, data.to_vec()))
            .collect();
        assert!(!cold_frames.is_empty());
        sys.vapres_cf2icap("wire.bit").unwrap();
        let warm_frames: Vec<(u32, Vec<u32>)> = sys
            .icap()
            .memory()
            .frames()
            .map(|(far, data)| (far, data.to_vec()))
            .collect();
        assert_eq!(cold_frames, warm_frames);
    }

    #[test]
    fn cache_rides_checkpoints_bit_exactly() {
        // A restored run must hit, miss, and evict exactly like a run
        // that never stopped — the cache is simulation state.
        let mut sys = sys_with_wire();
        sys.enable_bitstream_cache(2);
        sys.install_bitstream(0, ModuleUid(0x11), "wire.bit")
            .unwrap();
        sys.vapres_cf2icap("wire.bit").unwrap();
        let image = sys.checkpoint();

        let mut lib = ModuleLibrary::new();
        lib.register(ModuleUid(0x11), || Box::new(Wire));
        let mut restored = VapresSystem::restore(SystemConfig::prototype(), lib, &image).unwrap();
        assert_eq!(
            restored.bitstream_cache().unwrap().stats(),
            sys.bitstream_cache().unwrap().stats()
        );

        // Both worlds repeat the swap: same hit, same end time.
        sys.vapres_cf2icap("wire.bit").unwrap();
        restored.vapres_cf2icap("wire.bit").unwrap();
        assert_eq!(sys.now(), restored.now());
        assert_eq!(
            restored.bitstream_cache().unwrap().stats(),
            sys.bitstream_cache().unwrap().stats()
        );
        assert_eq!(restored.checkpoint(), sys.checkpoint());
    }
}
