//! Multiple reconfigurable streaming blocks (paper Sec. III.B: "the data
//! processing region contains one or more RSBs").
//!
//! Each RSB has its own switch-box array and local clock domains, but the
//! controlling region — MicroBlaze, ICAP, bitstream storage — is shared:
//! only one reconfiguration can be in flight at a time, and while the
//! processor is busy with one RSB, the *other* RSBs' data planes keep
//! streaming. [`FleetSystem`] composes per-RSB [`VapresSystem`]s in
//! lockstep simulated time to reproduce exactly that: any API call made
//! on one RSB advances every RSB by the same duration.
//!
//! One thread advances every RSB. The shared processor makes the
//! software schedule serial by construction, and that schedule — the
//! swap closures — is most of a fleet run's host time, so splitting the
//! RSBs across threads cannot pay for its coordination (DESIGN.md §4l).
//!
//! A fleet checkpoint is one container with a system section per RSB;
//! see [`FleetSystem::checkpoint`].

use crate::config::{ConfigError, SystemConfig};
use crate::module::ModuleLibrary;
use crate::system::VapresSystem;
use std::fmt;
use std::sync::Arc;
use vapres_sim::persist::{Container, PersistError, SectionTag, Writer};
use vapres_sim::time::Ps;

/// A module-library registration function behind a shared handle, as
/// [`FleetSystem::restore`] takes it.
pub type SharedRegister = Arc<dyn Fn(&mut ModuleLibrary) + Send + Sync>;

/// A configuration error from building a fleet, carrying which RSB's
/// configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRsbConfigError {
    /// Index of the RSB whose configuration failed.
    pub rsb: usize,
    /// The underlying configuration error.
    pub source: ConfigError,
}

impl fmt::Display for MultiRsbConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSB {}: {}", self.rsb, self.source)
    }
}

impl std::error::Error for MultiRsbConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// An assignment of RSB indices to threads: RSB `i` goes to thread
/// `i % jobs`. A fleet runs on one thread, so every fleet run reports
/// `round_robin(rsbs, 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// RSB indices per thread, ascending within each.
    shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// RSB `i` goes to thread `i % jobs`. `jobs` is clamped to
    /// `1..=rsbs.max(1)` so no thread is empty.
    pub fn round_robin(rsbs: usize, jobs: usize) -> ShardPlan {
        let jobs = jobs.clamp(1, rsbs.max(1));
        ShardPlan {
            shards: (0..jobs)
                .map(|j| (j..rsbs).step_by(jobs).collect())
                .collect(),
        }
    }

    /// Number of threads.
    pub fn jobs(&self) -> usize {
        self.shards.len()
    }

    /// Number of RSBs the plan covers.
    pub fn rsb_count(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// The RSB indices of one thread, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn members(&self, shard: usize) -> &[usize] {
        &self.shards[shard]
    }
}

/// A data processing region with several RSBs sharing one controlling
/// region.
///
/// # Examples
///
/// ```
/// use vapres_core::config::SystemConfig;
/// use vapres_core::fleet::FleetSystem;
/// use vapres_core::Ps;
///
/// let mut fleet = FleetSystem::new(
///     vec![SystemConfig::prototype(), SystemConfig::linear(3)?],
///     |_lib| {},
/// )?;
/// assert_eq!(fleet.rsb_count(), 2);
/// fleet.run_for(Ps::from_us(5));
/// assert_eq!(fleet.now(), Ps::from_us(5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FleetSystem {
    rsbs: Vec<VapresSystem>,
}

impl fmt::Debug for FleetSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetSystem")
            .field("rsbs", &self.rsbs.len())
            .field("now", &self.now())
            .finish()
    }
}

impl FleetSystem {
    /// Builds one system per configuration; `register` populates each
    /// RSB's module library (factories cannot be cloned, so registration
    /// runs once per RSB).
    ///
    /// # Errors
    ///
    /// [`MultiRsbConfigError`] naming the first RSB whose configuration
    /// was rejected, with the underlying [`ConfigError`] as the source.
    pub fn new(
        configs: Vec<SystemConfig>,
        register: impl Fn(&mut ModuleLibrary),
    ) -> Result<Self, MultiRsbConfigError> {
        let mut rsbs = Vec::with_capacity(configs.len());
        for (rsb, cfg) in configs.into_iter().enumerate() {
            let mut lib = ModuleLibrary::new();
            register(&mut lib);
            rsbs.push(
                VapresSystem::new(cfg, lib)
                    .map_err(|source| MultiRsbConfigError { rsb, source })?,
            );
        }
        Ok(FleetSystem { rsbs })
    }

    /// Number of RSBs.
    pub fn rsb_count(&self) -> usize {
        self.rsbs.len()
    }

    /// Read access to one RSB.
    ///
    /// # Panics
    ///
    /// Panics if `rsb` is out of range.
    pub fn rsb(&self, rsb: usize) -> &VapresSystem {
        &self.rsbs[rsb]
    }

    /// The common simulated time (all RSBs stay aligned).
    pub fn now(&self) -> Ps {
        self.rsbs
            .iter()
            .map(VapresSystem::now)
            .max()
            .unwrap_or(Ps::ZERO)
    }

    /// Arms every RSB's self-profiler
    /// ([`VapresSystem::enable_profiling`]). The profiler is host
    /// plumbing that no image carries, so a restored fleet that wants
    /// cost models arms it here; no simulated state changes.
    pub fn enable_profiling(&mut self) {
        for s in &mut self.rsbs {
            s.enable_profiling();
        }
    }

    /// Runs every RSB for `dur`.
    pub fn run_for(&mut self, dur: Ps) {
        let deadline = self.now() + dur;
        for s in &mut self.rsbs {
            let delta = deadline
                .checked_sub(s.now())
                .expect("RSBs never run ahead of the fleet");
            s.run_for(delta);
        }
    }

    /// Executes MicroBlaze software against one RSB — any Table-2 calls,
    /// swaps, deployments — then brings every *other* RSB forward to the
    /// same instant. This is the single-processor, single-ICAP semantics:
    /// while RSB `rsb` reconfigures, the others keep streaming through
    /// the elapsed time.
    ///
    /// # Panics
    ///
    /// Panics if `rsb` is out of range.
    pub fn with_rsb<R>(&mut self, rsb: usize, f: impl FnOnce(&mut VapresSystem) -> R) -> R {
        // Align everyone first (idempotent), then run the software.
        let before = self.now();
        for s in &mut self.rsbs {
            let delta = before.checked_sub(s.now()).expect("aligned");
            s.run_for(delta);
        }
        let result = f(&mut self.rsbs[rsb]);
        let after = self.rsbs[rsb].now();
        for (i, s) in self.rsbs.iter_mut().enumerate() {
            if i != rsb {
                let delta = after.checked_sub(s.now()).expect("target ran forward");
                s.run_for(delta);
            }
        }
        result
    }

    /// Serializes the whole fleet: one checkpoint container holding a
    /// [`SectionTag::System`] section per RSB, in index order, each
    /// encoded straight into the one buffer. The §4h contract lifts to
    /// the fleet: restoring the image into structurally equal
    /// configurations continues every RSB bit-exactly.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        let count = u32::try_from(self.rsbs.len()).expect("fewer than 2^32 RSBs");
        let mut w = Writer::container(count);
        for s in &mut self.rsbs {
            s.checkpoint_into(&mut w);
        }
        w.into_bytes()
    }

    /// Reconstructs a fleet from a [`checkpoint`](Self::checkpoint)
    /// image. `configs` must be structurally equal (same count, same
    /// fingerprints) to the ones the image was taken under; `register`
    /// populates each RSB's module library exactly as in
    /// [`new`](Self::new). `plan` selects nothing; it must cover
    /// `configs.len()` RSBs.
    ///
    /// # Errors
    ///
    /// Whatever [`Container::parse`] reports for the header and section
    /// table, [`PersistError::Corrupt`] when the section count disagrees
    /// with `configs`, a section is not a system, or the RSBs disagree on
    /// the simulated time, plus anything
    /// [`VapresSystem::restore_section`] reports for one RSB.
    ///
    /// # Panics
    ///
    /// Panics if `plan.rsb_count() != configs.len()`.
    pub fn restore(
        configs: Vec<SystemConfig>,
        register: SharedRegister,
        plan: ShardPlan,
        bytes: &[u8],
    ) -> Result<Self, PersistError> {
        assert_eq!(
            plan.rsb_count(),
            configs.len(),
            "partition plan covers {} RSBs, {} configurations supplied",
            plan.rsb_count(),
            configs.len()
        );
        let container = Container::parse(bytes)?;
        let count = container.section_count();
        if count != configs.len() {
            return Err(PersistError::Corrupt(format!(
                "fleet snapshot has {count} RSBs, {} configurations supplied",
                configs.len()
            )));
        }
        let mut rsbs: Vec<VapresSystem> = Vec::with_capacity(count);
        for ((rsb, cfg), section) in configs.into_iter().enumerate().zip(container.sections()) {
            if section.tag != SectionTag::System {
                return Err(PersistError::Corrupt(format!(
                    "fleet snapshot RSB {rsb} is a {:?} section",
                    section.tag
                )));
            }
            let mut lib = ModuleLibrary::new();
            register(&mut lib);
            let sys = VapresSystem::restore_section(cfg, lib, section.body)?;
            // Every public call leaves the RSBs at one instant, so a
            // genuine image never holds two different times.
            if let Some(first) = rsbs.first() {
                if sys.now() != first.now() {
                    return Err(PersistError::Corrupt(format!(
                        "fleet snapshot RSB {rsb} is at {}, RSB 0 at {}",
                        sys.now(),
                        first.now()
                    )));
                }
            }
            rsbs.push(sys);
        }
        Ok(FleetSystem { rsbs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{HardwareModule, ModuleIo};
    use vapres_bitstream::stream::ModuleUid;

    const WIRE: ModuleUid = ModuleUid(0x77);

    struct Wire;
    impl HardwareModule for Wire {
        fn name(&self) -> &str {
            "wire"
        }
        fn uid(&self) -> ModuleUid {
            WIRE
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

    fn register(lib: &mut ModuleLibrary) {
        lib.register(WIRE, || Box::new(Wire));
    }

    fn configs(n: usize) -> Vec<SystemConfig> {
        (0..n).map(|_| SystemConfig::prototype()).collect()
    }

    fn fleet(n: usize) -> FleetSystem {
        FleetSystem::new(configs(n), register).expect("valid configs")
    }

    fn restore(n: usize, bytes: &[u8]) -> Result<FleetSystem, PersistError> {
        FleetSystem::restore(
            configs(n),
            Arc::new(register),
            ShardPlan::round_robin(n, 1),
            bytes,
        )
    }

    #[test]
    fn round_robin_covers_all_rsbs() {
        let plan = ShardPlan::round_robin(7, 3);
        assert_eq!(plan.jobs(), 3);
        assert_eq!(plan.members(0), &[0, 3, 6]);
        assert_eq!(plan.members(1), &[1, 4]);
        assert_eq!(plan.members(2), &[2, 5]);
        assert_eq!(plan.rsb_count(), 7);
        // Jobs clamp: never more threads than RSBs, never zero.
        assert_eq!(ShardPlan::round_robin(2, 8).jobs(), 2);
        assert_eq!(ShardPlan::round_robin(3, 0).jobs(), 1);
    }

    #[test]
    fn lockstep_time() {
        let mut m = fleet(2);
        m.run_for(Ps::from_us(3));
        assert_eq!(m.rsb(0).now(), Ps::from_us(3));
        assert_eq!(m.rsb(1).now(), Ps::from_us(3));
        assert_eq!(m.now(), Ps::from_us(3));
    }

    #[test]
    fn with_rsb_advances_the_others() {
        let mut m = fleet(2);
        m.with_rsb(0, |s| s.run_for(Ps::from_us(7)));
        assert_eq!(m.rsb(1).now(), Ps::from_us(7));
    }

    #[test]
    fn new_reports_failing_rsb_index() {
        let mut bad = SystemConfig::prototype();
        bad.fsl_depth = 1;
        let err = FleetSystem::new(vec![SystemConfig::prototype(), bad], register)
            .expect_err("fsl_depth 1 must be rejected");
        assert_eq!(err.rsb, 1);
        let msg = err.to_string();
        assert!(msg.starts_with("RSB 1: "), "unexpected message: {msg}");
        use std::error::Error;
        assert!(err.source().is_some(), "source ConfigError must survive");
    }

    #[test]
    fn with_rsb_aligns_mismatched_clocks() {
        use vapres_sim::time::Freq;
        let mut slow = SystemConfig::prototype();
        slow.static_clock = Freq::mhz(33);
        slow.prr_clock_menu = [Freq::mhz(33), Freq::mhz(11)];
        let mut m = FleetSystem::new(vec![SystemConfig::prototype(), slow], register)
            .expect("valid configs");
        // An odd, non-cycle-multiple duration on the fast RSB: the slow
        // RSB must still land on exactly the same picosecond.
        m.with_rsb(0, |s| s.run_for(Ps(1_234_567)));
        assert_eq!(m.rsb(0).now(), m.rsb(1).now());
        m.with_rsb(1, |s| s.run_for(Ps(777_777)));
        assert_eq!(m.rsb(0).now(), m.rsb(1).now());
        assert_eq!(m.now(), Ps(1_234_567 + 777_777));
    }

    #[test]
    fn fleet_checkpoint_roundtrips() {
        let mut m = fleet(2);
        m.with_rsb(1, |s| {
            let p = crate::PortRef::new(0, 0);
            s.vapres_establish_channel(p, p).expect("loopback");
            s.bring_up_node(0, false).expect("iom up");
            s.iom_set_input_interval(0, 50);
            s.iom_feed(0, 0..64);
        });
        m.run_for(Ps::from_us(40));
        let image = m.checkpoint();
        let mut r = restore(2, &image).expect("restore");
        assert_eq!(r.now(), m.now());
        assert_eq!(r.checkpoint(), image, "restore then checkpoint is identity");
        m.run_for(Ps::from_us(10));
        r.run_for(Ps::from_us(10));
        assert_eq!(r.rsb(1).iom_output(0), m.rsb(1).iom_output(0));
    }

    #[test]
    fn fleet_restore_rejects_count_mismatch() {
        let image = fleet(2).checkpoint();
        let err = restore(1, &image).expect_err("2-RSB image into 1 config must fail");
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
        let err = restore(2, b"not a fleet snapshot").expect_err("garbage must fail");
        assert!(matches!(err, PersistError::BadMagic), "{err:?}");
        // The retired fleet envelope is not read.
        let mut old = image.clone();
        old[..8].copy_from_slice(b"VAPRESFL");
        let err = restore(2, &old).expect_err("a VAPRESFL image must fail");
        assert!(matches!(err, PersistError::BadMagic), "{err:?}");
        // A one-system image is no fleet of one if its section is not a
        // system: the section table is checked, not assumed.
        let mut drive = fleet(1).checkpoint();
        drive[16] = 2; // the Drive tag
        let err = restore(1, &drive).expect_err("a Drive section is no RSB");
        assert!(matches!(err, PersistError::Corrupt(_)), "{err:?}");
    }

    /// Byte offset of RSB 1's entry in a fleet image's section table:
    /// the end of RSB 0's section body.
    fn second_entry(bytes: &[u8]) -> usize {
        let first = Container::parse(bytes).unwrap().sections().next().unwrap();
        first.body.as_ptr_range().end as usize - bytes.as_ptr() as usize
    }

    /// RSB 0 of `a` and RSB 1 of `b` under `a`'s container header.
    fn splice(a: &[u8], b: &[u8]) -> Vec<u8> {
        [&a[..second_entry(a)], &b[second_entry(b)..]].concat()
    }

    #[test]
    fn fleet_restore_rejects_rsbs_at_different_times() {
        let fresh = fleet(2).checkpoint();
        // Splicing two fleets at the same instant restores fine ...
        let twin = fleet(2).checkpoint();
        restore(2, &splice(&fresh, &twin)).expect("RSBs at one instant restore");
        // ... but RSB 0 at 0 ps beside RSB 1 at 5 us is no fleet state.
        let mut later = fleet(2);
        later.run_for(Ps::from_us(5));
        let later = later.checkpoint();
        let err = restore(2, &splice(&fresh, &later))
            .expect_err("RSBs at 0 ps and 5 us must not restore");
        assert!(
            matches!(&err, PersistError::Corrupt(m) if m.contains("RSB 1")),
            "{err:?}"
        );
    }

    #[test]
    fn reconfig_on_one_rsb_does_not_stall_the_other() {
        let mut m = fleet(2);
        // Stage the bitstream in SDRAM while everything is idle (the slow
        // CompactFlash read happens before RSB1 starts streaming).
        m.with_rsb(0, |s| {
            s.install_bitstream(0, WIRE, "w.bit").expect("install");
            s.vapres_cf2array("w.bit", "w").expect("stage");
        });
        // RSB1: a streaming loopback at its IOM, one word per microsecond.
        m.with_rsb(1, |s| {
            let p = crate::PortRef::new(0, 0);
            s.vapres_establish_channel(p, p).expect("loopback");
            s.bring_up_node(0, false).expect("iom up");
            s.iom_set_input_interval(0, 100);
            s.iom_feed(0, 0..200_000);
        });
        // RSB0: reconfigure from SDRAM (71.9 ms) — the shared processor
        // and ICAP are busy, but RSB1's data plane must keep moving.
        m.with_rsb(0, |s| {
            s.vapres_array2icap("w").expect("reconfig");
        });
        // RSB1 streamed through the whole reconfiguration: ~72 ms / 1 us.
        let out = m.rsb(1).iom_output(0).len();
        assert!(out > 60_000, "RSB1 only moved {out} words during reconfig");
        let gap = m.rsb(1).iom_gap(0).max_gap().expect("flowed");
        assert!(gap < Ps::from_us(2), "RSB1 stream hiccuped: {gap}");
    }
}
