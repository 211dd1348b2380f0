//! The paper's E3 scenario (Fig. 5, Table 2), written once: FIR A
//! streams on PRR 0 while FIR B is staged from SDRAM, then the nine-step
//! seamless swap (or the halt-and-swap baseline) hands the stream over.
//!
//! The scenario has two parts:
//!
//! * an [`Arrangement`] is data — the CompactFlash file FIR A is
//!   configured into PRR 0 from, and the images staged in SDRAM for later
//!   swaps. [`Arrangement::deploy`] brings it up in one fixed order;
//! * a [`Drive`] is the persisted state machine that steps a run through
//!   its pre-swap window, the swap, the drain and the settle. It rides in
//!   a checkpoint's [`SectionTag::Drive`] section, so a restored run
//!   finishes exactly as one that never stopped.
//!
//! `vapres sim`, the sweep runner ([`crate::sweep`]) and the fleet runner
//! ([`crate::fleet`]) all build through it. Each keeps its own policy
//! around the steps: the CLI dumps its flight ring on a failed swap, the
//! sweep settles 1 ms after a failed swap and probes a repeat swap, and
//! the fleet keeps its rotating visit schedule.
//!
//! # Examples
//!
//! The seamless E3 run, start to finish:
//!
//! ```
//! use vapres_core::config::SystemConfig;
//! use vapres_core::module::ModuleLibrary;
//! use vapres_core::scenario::SwapMethod;
//! use vapres_core::system::VapresSystem;
//! use vapres_kpn::e3::{Arrangement, Drive};
//!
//! let mut lib = ModuleLibrary::new();
//! vapres_modules::register_standard_modules(&mut lib, 0);
//! let mut sys = VapresSystem::new(SystemConfig::prototype(), lib)?;
//! sys.iom_set_input_interval(0, 500);
//! let arrangement = Arrangement::fig5(SwapMethod::Seamless);
//! let channels = arrangement.deploy(&mut sys)?;
//! sys.iom_feed(0, 0..2_000);
//! let mut drive = Drive::e3(SwapMethod::Seamless, channels);
//! drive.run(&mut sys, &arrangement, None)?;
//! // The handoff may replay one boundary word, never lose one.
//! assert!(sys.iom_output(0).len() >= 2_000);
//! assert!(drive.report.is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::io;

use vapres_core::module::ModuleLibrary;
use vapres_core::scenario::SwapMethod;
use vapres_core::sim::flight::FlightEvent;
use vapres_core::sim::persist::{Container, Persist, PersistError, Reader, SectionTag, Writer};
use vapres_core::switching::{halt_and_swap, seamless_swap, BitstreamSource, SwapError, SwapSpec};
use vapres_core::system::VapresSystem;
use vapres_core::{ApiError, ChannelId, ModuleUid, PortRef, Ps, SwapReport, SystemConfig};
use vapres_modules::uids;

/// Every Nth streamed word of a sweep or fleet run carries a provenance
/// tag (enough tags for stable p50/p95/p99 without tracing every word).
pub(crate) const TRACE_EVERY: u32 = 7;

/// How long FIR A streams before the swap.
const PRE_SWAP_WINDOW: Ps = Ps::from_ms(1);
/// Simulated time allowed for draining the input after an E3 swap.
const DRAIN_BUDGET: Ps = Ps::from_ms(300);
/// Simulated time allowed for a pipeline run to drain its input.
const PIPELINE_BUDGET: Ps = Ps::from_ms(100);
/// The fixed window after the drain that lets in-flight words land.
const SETTLE: Ps = Ps::from_us(100);

/// The PRR nodes of the swap: FIR A streams on node 1 (PRR 0), node 2
/// (PRR 1) is the seamless spare.
const ACTIVE_NODE: usize = 1;
const SPARE_NODE: usize = 2;

/// The SDRAM array a swap with no staged image — or a drive with
/// [`Drive::fail_swap`] — is pointed at. Nothing is ever staged under it,
/// so the swap fails reconfiguring.
const MISSING_ARRAY: &str = "nonexistent";

/// One image an [`Arrangement`] stages in SDRAM for a later swap:
/// `(prr, uid, cf_file, sdram_array)` — the PRR it configures, the module
/// it holds, the CompactFlash file it is stored under first and the SDRAM
/// array it is staged into.
pub type Staged<'a> = (usize, ModuleUid, &'a str, &'a str);

/// The E3 arrangement as data: FIR A configured into PRR 0 from
/// CompactFlash, and the images staged in SDRAM for later swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrangement<'a> {
    /// The CompactFlash file FIR A is stored under and configured from.
    pub fir_a: &'a str,
    /// The images staged in SDRAM, in staging order.
    pub staged: &'a [Staged<'a>],
}

impl Arrangement<'static> {
    /// The sweep's arrangement: FIR B staged for both swap targets, PRR 0
    /// (halt-and-swap in place) and PRR 1 (the seamless spare), so one
    /// pre-swap prefix serves either swap method.
    pub const SWEEP: Self = Arrangement {
        fir_a: "fir_a.bit",
        staged: &[
            (0, uids::FIR_B, "fir_b_p0.bit", "fir_b_p0"),
            (1, uids::FIR_B, "fir_b_p1.bit", "fir_b_p1"),
        ],
    };

    /// The fleet's arrangement: FIR B staged for the spare PRR 1 and
    /// FIR A for PRR 0, the way back, so a revisited RSB always has an
    /// image for its current spare.
    pub const FLEET: Self = Arrangement {
        fir_a: "fir_a.bit",
        staged: &[
            (1, uids::FIR_B, "fir_b_p1.bit", "fir_b_p1"),
            (0, uids::FIR_A, "fir_a_p0.bit", "fir_a_p0"),
        ],
    };

    /// The arrangement of `vapres sim` and the paper's Fig. 5: FIR B
    /// staged once, as `fir_b`, for the PRR `method` swaps into — the
    /// spare PRR 1 for a seamless swap, PRR 0 in place for halt-and-swap.
    pub fn fig5(method: SwapMethod) -> Self {
        let staged = if method == SwapMethod::Halt {
            &[(0, uids::FIR_B, "fir_b_prr0.bit", "fir_b")]
        } else {
            &[(1, uids::FIR_B, "fir_b_prr1.bit", "fir_b")]
        };
        Arrangement {
            fir_a: "fir_a_prr0.bit",
            staged,
        }
    }
}

impl<'a> Arrangement<'a> {
    /// Brings the arrangement up on `sys` and returns the (upstream,
    /// downstream) channel ids of the loopback stream IOM → FIR A → IOM.
    ///
    /// # Errors
    ///
    /// The first [`ApiError`] of the bring-up.
    pub fn deploy(&self, sys: &mut VapresSystem) -> Result<(ChannelId, ChannelId), ApiError> {
        self.deploy_mutated(sys, |_| {})
    }

    /// [`deploy`](Self::deploy), with `mutate` applied to the generated
    /// staged images (in [`Arrangement::staged`] order) before they are
    /// stored: the sweep's fault injection. The steps run in one order:
    /// store FIR A, generate every staged image, mutate, store and stage
    /// each image, configure FIR A, establish the loopback channels, and
    /// bring up the IOM and PRR 0.
    ///
    /// # Errors
    ///
    /// The first [`ApiError`] of the bring-up.
    pub fn deploy_mutated(
        &self,
        sys: &mut VapresSystem,
        mutate: impl FnOnce(&mut [Vec<u8>]),
    ) -> Result<(ChannelId, ChannelId), ApiError> {
        sys.install_bitstream(0, uids::FIR_A, self.fir_a)?;
        let mut images = self
            .staged
            .iter()
            .map(|&(prr, uid, ..)| Ok(sys.bitstream_for(prr, uid)?.to_bytes()))
            .collect::<Result<Vec<_>, ApiError>>()?;
        mutate(&mut images);
        for (&(_, _, cf_file, array), bytes) in self.staged.iter().zip(images) {
            sys.cf_store_raw(cf_file, bytes);
            sys.vapres_cf2array(cf_file, array)?;
        }
        sys.vapres_cf2icap(self.fir_a)?;
        let upstream = sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))?;
        let downstream = sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))?;
        sys.bring_up_node(0, false)?;
        sys.bring_up_node(1, false)?;
        Ok((upstream, downstream))
    }

    /// The SDRAM array the arrangement staged for `prr`, if any.
    pub fn array_for(&self, prr: usize) -> Option<&'a str> {
        self.staged
            .iter()
            .find_map(|&(p, _, _, array)| (p == prr).then_some(array))
    }
}

/// The swap of the stream on `active_node` into `spare_node`, configured
/// from the SDRAM array `array`: the spec of every E3 swap.
pub fn swap_spec(
    active_node: usize,
    spare_node: usize,
    array: &str,
    (upstream, downstream): (ChannelId, ChannelId),
) -> SwapSpec {
    SwapSpec {
        active_node,
        spare_node,
        source: BitstreamSource::Sdram(array.into()),
        upstream,
        downstream,
        clk_sel: false,
        timeout: Ps::from_ms(10),
    }
}

/// Where a [`Drive`] stands in its scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A plain pipeline run: nothing left but draining the input.
    NoSwap,
    /// The E3 swap has not happened yet; the drive performs it once the
    /// pre-swap window has run out.
    PendingSeamless,
    /// Like [`Phase::PendingSeamless`] but via halt-and-swap.
    PendingHalt,
    /// The swap already completed (or was never requested); the drive
    /// only drains.
    SwapDone,
}

vapres_core::sim::persist_tags!(
    Phase, "drive phase": NoSwap = 0, PendingSeamless = 1, PendingHalt = 2, SwapDone = 3
);

/// The drive's state: what a run carries from step to step, and what a
/// checkpoint's [`SectionTag::Drive`] section records so a restored run
/// finishes the scenario exactly as one that never stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drive {
    /// Where the run stands.
    pub phase: Phase,
    /// Simulated time left in the current phase: the pre-swap window of
    /// a pending swap, or the drain's stall timeout.
    pub budget: Ps,
    /// The swap is deliberately pointed at an SDRAM array that was never
    /// staged, so it fails reconfiguring.
    pub fail_swap: bool,
    /// Channel ids of the E3 stream (only meaningful for pending swaps).
    pub upstream: u64,
    /// See [`Drive::upstream`].
    pub downstream: u64,
    /// Sequence number of the last checkpoint cut of this drive; a
    /// restored run stamps it into its `restore` flight event.
    pub ordinal: u64,
    /// The swap this run performed, once it has.
    pub report: Option<SwapReport>,
}

vapres_core::sim::persist_fields!(
    Drive: phase, budget, fail_swap, upstream, downstream, ordinal, report
);

/// Why [`Drive::run`] stopped short.
#[derive(Debug)]
pub enum DriveError {
    /// The swap failed; the system stands where it failed.
    Swap(SwapError),
    /// The input was not consumed within the drain budget.
    Stalled,
    /// The checkpoint sink failed.
    Sink(io::Error),
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Swap(e) => write!(f, "swap failed: {e}"),
            DriveError::Stalled => f.write_str("simulation stalled before consuming input"),
            DriveError::Sink(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DriveError {}

/// Periodic checkpoints: the drive pauses every `every` of simulated
/// time and cuts an image of the system and itself, numbered from 0.
pub struct Checkpoints<'a> {
    every: Ps,
    next: u64,
    write: &'a mut dyn FnMut(u64, Vec<u8>, Ps) -> io::Result<()>,
}

impl<'a> Checkpoints<'a> {
    /// A sink cutting an image every `every` of simulated time (which
    /// must be non-zero) and handing it to `write` with its ordinal and
    /// the simulated time of the cut.
    pub fn new(every: Ps, write: &'a mut dyn FnMut(u64, Vec<u8>, Ps) -> io::Result<()>) -> Self {
        assert!(every > Ps::ZERO, "a checkpoint cadence must be non-zero");
        Checkpoints {
            every,
            next: 0,
            write,
        }
    }

    fn take(&mut self, sys: &mut VapresSystem, drive: &mut Drive) -> io::Result<()> {
        let image = drive.checkpoint(sys, self.next);
        (self.write)(self.next, image, sys.now())?;
        self.next += 1;
        Ok(())
    }
}

impl Drive {
    /// A pipeline run, about to drain its input: it ends once the input
    /// is consumed and the output has started.
    pub fn pipeline() -> Self {
        Drive {
            phase: Phase::NoSwap,
            budget: PIPELINE_BUDGET,
            fail_swap: false,
            upstream: 0,
            downstream: 0,
            ordinal: 0,
            report: None,
        }
    }

    /// An E3 run on the loopback `channels` an [`Arrangement`] returned,
    /// poised before its pre-swap window. With [`SwapMethod::None`] the
    /// drive has no window and only drains.
    pub fn e3(method: SwapMethod, (upstream, downstream): (ChannelId, ChannelId)) -> Self {
        let mut drive = Drive {
            phase: Phase::PendingSeamless,
            budget: PRE_SWAP_WINDOW,
            upstream: upstream.0 as u64,
            downstream: downstream.0 as u64,
            ..Drive::pipeline()
        };
        drive.aim(method);
        drive
    }

    /// Whether the swap is still to come.
    pub fn pending(&self) -> bool {
        matches!(self.phase, Phase::PendingSeamless | Phase::PendingHalt)
    }

    /// Points a pending drive at `method`. The sweep shares one pre-swap
    /// prefix across swap methods and aims each restored drive at its
    /// own; [`SwapMethod::None`] skips the swap, so the drive only
    /// drains.
    pub fn aim(&mut self, method: SwapMethod) {
        assert!(self.pending(), "only a pending drive can be aimed");
        match method {
            SwapMethod::Seamless => self.phase = Phase::PendingSeamless,
            SwapMethod::Halt => self.phase = Phase::PendingHalt,
            SwapMethod::None => {
                self.phase = Phase::SwapDone;
                self.budget = DRAIN_BUDGET;
            }
        }
    }

    /// Runs the whole drive from where it stands: the pre-swap window,
    /// the swap, the drain and the 100 µs settle. A fresh run enters at the
    /// start; a restored run where its checkpoint was cut, so it
    /// finishes exactly as the run that wrote it. With a sink the run
    /// also cuts a checkpoint right after the swap: the most useful
    /// restore point, and the drain may already be satisfied then (the
    /// input can finish feeding during the ~72 ms reconfiguration).
    ///
    /// # Errors
    ///
    /// A failed swap (the system stands where it failed), a drain that
    /// stalled (after the settle), or a failing sink.
    pub fn run(
        &mut self,
        sys: &mut VapresSystem,
        arrangement: &Arrangement<'_>,
        mut sink: Option<&mut Checkpoints<'_>>,
    ) -> Result<(), DriveError> {
        if self.pending() {
            self.pre_swap(sys, sink.as_deref_mut())
                .map_err(DriveError::Sink)?;
            self.swap(sys, arrangement).map_err(DriveError::Swap)?;
            if let Some(sink) = sink.as_deref_mut() {
                sink.take(sys, self).map_err(DriveError::Sink)?;
            }
        }
        let drained = self.drain(sys, sink).map_err(DriveError::Sink)?;
        // Let in-flight words land: a variable-rate pipeline may emit
        // fewer or more words than it consumed, so the settle is a fixed
        // window.
        sys.run_for(SETTLE);
        drained.then_some(()).ok_or(DriveError::Stalled)
    }

    /// Streams what is left of a pending drive's pre-swap window.
    ///
    /// # Errors
    ///
    /// A failing sink.
    pub fn pre_swap(
        &mut self,
        sys: &mut VapresSystem,
        sink: Option<&mut Checkpoints<'_>>,
    ) -> io::Result<()> {
        debug_assert!(self.pending(), "only a pending drive has a pre-swap window");
        self.run_phase(sys, None, sink).map(drop)
    }

    /// Performs the pending swap: halt-and-swap reconfigures PRR 0 in
    /// place, a seamless swap configures the spare PRR 1, each from the
    /// SDRAM array `arrangement` staged for that PRR. On success the
    /// drive moves on to its drain and keeps the report.
    ///
    /// # Errors
    ///
    /// The swap's [`SwapError`]; the drive stays pending.
    ///
    /// # Panics
    ///
    /// When the drive is not pending.
    pub fn swap(
        &mut self,
        sys: &mut VapresSystem,
        arrangement: &Arrangement<'_>,
    ) -> Result<&SwapReport, SwapError> {
        assert!(self.pending(), "only a pending drive can swap");
        let halt = self.phase == Phase::PendingHalt;
        let target = (if halt { ACTIVE_NODE } else { SPARE_NODE }) - 1;
        let array = match (self.fail_swap, arrangement.array_for(target)) {
            (false, Some(array)) => array,
            _ => MISSING_ARRAY,
        };
        let channels = (
            ChannelId(self.upstream as usize),
            ChannelId(self.downstream as usize),
        );
        let spec = swap_spec(ACTIVE_NODE, SPARE_NODE, array, channels);
        let report = if halt {
            halt_and_swap(sys, &spec)
        } else {
            seamless_swap(sys, &spec)
        }?;
        self.phase = Phase::SwapDone;
        self.budget = DRAIN_BUDGET;
        Ok(self.report.insert(report))
    }

    /// Runs until the input is consumed (for a pipeline, also until the
    /// output has started) or the phase's budget runs out. Returns
    /// whether the input drained.
    ///
    /// # Errors
    ///
    /// A failing sink.
    pub fn drain(
        &mut self,
        sys: &mut VapresSystem,
        sink: Option<&mut Checkpoints<'_>>,
    ) -> io::Result<bool> {
        let done: fn(&VapresSystem) -> bool = if self.phase == Phase::NoSwap {
            |s| s.iom_pending_input(0) == 0 && !s.iom_output(0).is_empty()
        } else {
            |s| s.iom_pending_input(0) == 0
        };
        self.run_phase(sys, Some(done), sink)
    }

    /// Runs the current phase for what remains of the budget, stopping
    /// where `done` first holds (with no `done`, for the whole budget).
    /// With a sink the run pauses every `sink.every` of simulated time to
    /// cut a checkpoint; the slices stop exactly where one run would, so
    /// a checkpointed run ends where a plain one does. Returns whether
    /// `done` held on exit.
    fn run_phase(
        &mut self,
        sys: &mut VapresSystem,
        done: Option<fn(&VapresSystem) -> bool>,
        mut sink: Option<&mut Checkpoints<'_>>,
    ) -> io::Result<bool> {
        let every = sink.as_ref().map_or(self.budget, |s| s.every);
        let mut fired = false;
        while !fired && self.budget > Ps::ZERO {
            let start = sys.now();
            let slice = every.min(self.budget);
            fired = match done {
                Some(done) => sys.run_until(slice, done),
                None => {
                    sys.run_for(slice);
                    false
                }
            };
            self.budget = self.budget - (sys.now() - start);
            if let (false, Some(sink)) = (fired, sink.as_deref_mut()) {
                sink.take(sys, self)?;
            }
        }
        Ok(fired)
    }

    /// Cuts one checkpoint image: a [`SectionTag::System`] section and a
    /// [`SectionTag::Drive`] section, the drive stamped with `ordinal`.
    /// The `checkpoint` flight event is noted first, so it rides inside
    /// the image and a restored flight ring shows the cut.
    pub fn checkpoint(&mut self, sys: &mut VapresSystem, ordinal: u64) -> Vec<u8> {
        self.ordinal = ordinal;
        sys.note_flight(FlightEvent::Checkpoint { ordinal });
        let mut w = Writer::container(2);
        sys.checkpoint_into(&mut w);
        w.section(SectionTag::Drive, |w| self.persist(w));
        w.into_bytes()
    }

    /// Splits a [`checkpoint`](Self::checkpoint) image into its system
    /// section body and its decoded drive.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] of the container or the drive section, which
    /// must be consumed exactly.
    pub fn read_checkpoint(bytes: &[u8]) -> Result<(&[u8], Drive), PersistError> {
        let [image, drive] =
            Container::parse(bytes)?.expect([SectionTag::System, SectionTag::Drive])?;
        let r = &mut Reader::new(drive);
        let drive = Drive::restore(r)?;
        r.expect_end()?;
        Ok((image, drive))
    }

    /// Restores a [`checkpoint`](Self::checkpoint) image into a system
    /// built from `config` and `library`, noting the `restore` flight
    /// event; [`run`](Self::run) then finishes the scenario exactly as
    /// the run that wrote the image.
    ///
    /// # Errors
    ///
    /// As [`read_checkpoint`](Self::read_checkpoint) and
    /// [`VapresSystem::restore_section`].
    pub fn resume(
        config: SystemConfig,
        library: ModuleLibrary,
        bytes: &[u8],
    ) -> Result<(VapresSystem, Drive), PersistError> {
        let (image, drive) = Drive::read_checkpoint(bytes)?;
        let mut sys = VapresSystem::restore_section(config, library, image)?;
        sys.note_flight(FlightEvent::Restore {
            ordinal: drive.ordinal,
        });
        Ok((sys, drive))
    }
}
