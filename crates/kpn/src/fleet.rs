//! The fleet-scale multi-RSB runner behind `vapres fleet`.
//!
//! A fleet is many RSBs streaming concurrently — the paper's Sec. III.B
//! data processing region scaled up — with a rotating swap schedule
//! against the shared ICAP: the controlling region visits one RSB at a
//! time, performing a seamless swap while every other RSB's data plane
//! keeps streaming through the window. Execution goes through
//! [`vapres_core::fleet::FleetSystem`], on one thread.
//!
//! # Determinism
//!
//! The runner is a pure function of its [`FleetSpec`]: per-RSB workload
//! heterogeneity draws from `scenario_seed(seed, rsb)`, nothing reads
//! the wall clock, and every merge folds in ascending RSB index order
//! (telemetry via `Telemetry::merge`, flight events re-sorted
//! sim-time-major with the RSB index as tiebreak, cost models via
//! `CostModel::merge`).
//!
//! # Warm-start interplay
//!
//! [`run_fleet_from`] resumes a fleet from a `FleetSystem::checkpoint`
//! image. Because restore ≡ never-stopped holds per RSB, a fleet
//! checkpointed mid-run finishes bit-identically to one that never
//! stopped — the §4h warm-start contract lifted to fleets.

use std::io::{self, Write};
use std::sync::{Arc, OnceLock};

use vapres_core::fleet::{FleetSystem, ShardPlan};
use vapres_core::module::ModuleLibrary;
use vapres_core::scenario::scenario_seed;
use vapres_core::switching::seamless_swap;
use vapres_core::system::VapresSystem;
use vapres_core::{
    evaluate_health, ChannelId, CostModel, FlightEntry, HealthPolicy, MultiRsbConfigError, Ps,
    SplitMix64, SystemConfig, Telemetry,
};
use vapres_modules::register_standard_modules;

use crate::e3::{swap_spec, Arrangement, TRACE_EVERY};

/// Flight-recorder ring capacity per RSB.
const FLIGHT_CAPACITY: usize = 4_096;

/// Simulated-time stride between controlling-region visits in the
/// rotating swap schedule.
const SWAP_STRIDE: Ps = Ps::from_us(200);

/// Drain phase: settle budget, polled once per slice.
const DRAIN_SLICE: Ps = Ps::from_ms(1);
const DRAIN_SLICES: usize = 300;

/// Parameters of one fleet run. The workload is deliberately
/// heterogeneous: per-RSB sample counts and cadences spread around the
/// base values, seeded from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of RSBs in the data processing region.
    pub rsbs: usize,
    /// Base samples per RSB (each RSB streams 50–100% of this).
    pub samples: u32,
    /// Base input cadence in static-clock cycles (each RSB uses 1–3×).
    pub interval: u64,
    /// Rotating seamless swaps to perform (swap `k` visits RSB
    /// `k % rsbs`).
    pub swaps: usize,
    /// Master seed for the per-RSB workload spread.
    pub seed: u64,
    /// Optional time-series cadence, sampled per RSB.
    pub sample_every: Option<Ps>,
}

impl FleetSpec {
    /// Sanity limits (an empty fleet or a zero cadence is meaningless).
    ///
    /// # Errors
    ///
    /// A description of the first violated limit.
    pub fn validate(&self) -> Result<(), String> {
        if self.rsbs == 0 {
            return Err("fleet needs at least one RSB".into());
        }
        if self.samples == 0 {
            return Err("samples must be >= 1".into());
        }
        if self.interval == 0 {
            return Err("interval must be >= 1 cycle".into());
        }
        Ok(())
    }

    /// The per-RSB workload: `(samples, interval)` for RSB `rsb`,
    /// spread deterministically around the base values.
    pub fn workload(&self, rsb: usize) -> (u32, u64) {
        let mut rng = SplitMix64::new(scenario_seed(self.seed, rsb));
        let lo = (self.samples / 2).max(1);
        let samples = lo + (rng.next_u64() % u64::from(self.samples - lo + 1)) as u32;
        let interval = self.interval * (1 + rng.next_u64() % 3);
        (samples, interval)
    }

    /// Whether RSB `rsb` receives a swap under the rotating schedule,
    /// and how many.
    pub fn swaps_for(&self, rsb: usize) -> u32 {
        if self.rsbs == 0 {
            return 0;
        }
        ((self.swaps / self.rsbs) + usize::from(rsb < self.swaps % self.rsbs)) as u32
    }

    /// Deterministic per-RSB work-unit estimates, by component: the
    /// streaming plane (`exec/fabric` — cycles the executor dispatches
    /// while the stream drains) and the reconfiguration plane
    /// (`icap/words` — words the rotating schedule pushes through this
    /// RSB's ICAP).
    pub fn work_estimate(&self, rsb: usize) -> [(&'static str, u64); 2] {
        let (samples, interval) = self.workload(rsb);
        // One input word per `interval` cycles: the stream occupies
        // samples × interval static-clock cycles of fabric dispatch, and
        // each rotating visit streams one more batch through the swap
        // window.
        let stream_units = u64::from(samples) * interval * u64::from(1 + self.swaps_for(rsb));
        // A seamless swap stages one PRR bitstream through the ICAP;
        // the frame count is device-shaped, not workload-shaped, so a
        // fixed per-swap estimate keeps the hint a pure function of the
        // spec.
        let icap_units = u64::from(self.swaps_for(rsb)) * 2_048;
        [("exec/fabric", stream_units), ("icap/words", icap_units)]
    }
}

/// One RSB's harvested row.
#[derive(Debug, Clone)]
pub struct FleetRsbRow {
    /// RSB index.
    pub index: usize,
    /// Total words fed: the bring-up batch plus one fresh batch per
    /// rotating visit (all batches are the RSB's heterogeneous size).
    pub samples_in: u32,
    /// Input cadence in static-clock cycles.
    pub interval: u64,
    /// Seamless swaps performed against this RSB.
    pub swaps: u32,
    /// `"ok"`, or the first swap/setup error.
    pub outcome: String,
    /// Whether the input fully drained within the budget.
    pub drained: bool,
    /// Words the sink IOM emitted.
    pub samples_out: u64,
    /// Stream-interruption slots (0 = seamless).
    pub missed_slots: u64,
    /// 99th-percentile end-to-end word latency (ps).
    pub p99_e2e_ps: Option<u64>,
    /// Simulated time at harvest (identical across the fleet).
    pub sim_time_ps: u64,
    /// Total deterministic work units of this RSB's cost model, counted
    /// from its bring-up.
    pub work_units: u64,
    /// The sum of [`FleetSpec::work_estimate`] for this RSB.
    pub est_cost: u64,
    /// Health verdict under the fleet budgets: the
    /// [`HealthPolicy::e3_seamless`] fabric limits (FIFO occupancy,
    /// backpressure) with the continuous-stream cadence SLOs waived —
    /// the batched schedule idles between visits by design.
    pub healthy: bool,
}

/// Everything one fleet run produces, a pure function of the
/// [`FleetSpec`].
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-RSB rows, ascending index.
    pub rows: Vec<FleetRsbRow>,
    /// All RSBs' telemetry folded in index order.
    pub merged_telemetry: Telemetry,
    /// All RSBs' flight events merged sim-time-major (`at_ps`, then RSB
    /// index).
    pub merged_flight: MergedFlight,
    /// All RSBs' cost models folded in index order.
    pub merged_work: CostModel,
    /// Per-RSB tagged time-series JSONL, concatenated in index order
    /// (empty when sampling was off).
    pub timeseries: String,
    /// The RSB-to-thread split: always `ShardPlan::round_robin(rsbs, 1)`,
    /// since one thread runs every RSB.
    pub plan: ShardPlan,
    /// Simulated end time.
    pub sim_time: Ps,
}

/// All RSBs' flight-ring entries, merged sim-time-major (`at_ps`, then
/// RSB index; each RSB's own entries keep ring order). Entries are kept
/// as harvested and rendered only on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedFlight {
    entries: Vec<(usize, FlightEntry)>,
}

impl MergedFlight {
    /// Number of merged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no RSB recorded anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes the merge as JSON Lines, one entry per line, each led by
    /// its `"rsb"` stamp.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.entries
            .iter()
            .try_for_each(|(rsb, e)| e.write_jsonl(w, Some(*rsb)))
    }
}

fn register(lib: &mut ModuleLibrary) {
    register_standard_modules(lib, 0);
}

fn fleet_configs(rsbs: usize) -> Vec<SystemConfig> {
    (0..rsbs).map(|_| SystemConfig::prototype()).collect()
}

fn build(spec: &FleetSpec) -> Result<FleetSystem, String> {
    FleetSystem::new(fleet_configs(spec.rsbs), register)
        .map_err(|e: MultiRsbConfigError| e.to_string())
}

/// Runs a fleet from cold. `_jobs` and `_model` are unused: one thread
/// runs every RSB.
///
/// # Errors
///
/// Spec validation errors, or a [`MultiRsbConfigError`] rendered as a
/// string (prototype configurations never fail in practice).
pub fn run_fleet(
    spec: &FleetSpec,
    _jobs: usize,
    _model: Option<&CostModel>,
) -> Result<FleetResult, String> {
    spec.validate()?;
    let mut fleet = build(spec)?;
    let channels = setup(&mut fleet, spec);
    let outcomes = drive(&mut fleet, spec, &channels);
    Ok(harvest(&mut fleet, spec, outcomes))
}

/// Builds a fleet, runs the setup phase only, and checkpoints it — the
/// warm-start seam: [`run_fleet_from`] resumes the image and must
/// finish byte-identically to [`run_fleet`]. `_jobs` is unused.
///
/// # Errors
///
/// As [`run_fleet`].
pub fn checkpoint_after_setup(spec: &FleetSpec, _jobs: usize) -> Result<Vec<u8>, String> {
    spec.validate()?;
    let mut fleet = build(spec)?;
    setup(&mut fleet, spec);
    Ok(fleet.checkpoint())
}

/// Resumes a fleet from a checkpoint image (taken by
/// [`checkpoint_after_setup`] or any `FleetSystem::checkpoint`) and
/// runs the remaining schedule. `_jobs` and `_model` are unused.
///
/// # Errors
///
/// Spec validation errors or restore errors rendered as strings.
pub fn run_fleet_from(
    spec: &FleetSpec,
    _jobs: usize,
    _model: Option<&CostModel>,
    image: &[u8],
) -> Result<FleetResult, String> {
    spec.validate()?;
    let mut fleet = FleetSystem::restore(
        fleet_configs(spec.rsbs),
        Arc::new(register),
        ShardPlan::round_robin(spec.rsbs, 1),
        image,
    )
    .map_err(|e| e.to_string())?;
    fleet.enable_profiling();
    // The setup phase established the loopback routes; their ids are
    // deterministic (first two channels of each RSB), so the resumed
    // schedule reconstructs them rather than carrying them in-band.
    let channels: Vec<(ChannelId, ChannelId)> = (0..spec.rsbs)
        .map(|_| (ChannelId(0), ChannelId(1)))
        .collect();
    let outcomes = drive(&mut fleet, spec, &channels);
    Ok(harvest(&mut fleet, spec, outcomes))
}

/// Phase 1 — bring-up: every RSB gets the fleet's E3 arrangement
/// ([`Arrangement::FLEET`]: FIR A live on PRR 0, FIR B staged in SDRAM
/// for the spare and FIR A for the way back, loopback channels) plus its
/// heterogeneous input stream and observability. Returns each RSB's
/// (upstream, downstream) channel ids for the swap schedule.
fn setup(fleet: &mut FleetSystem, spec: &FleetSpec) -> Vec<(ChannelId, ChannelId)> {
    (0..spec.rsbs)
        .map(|rsb| {
            let (samples, interval) = spec.workload(rsb);
            let sample_every = spec.sample_every;
            fleet.with_rsb(rsb, move |sys| {
                sys.enable_telemetry();
                sys.enable_profiling();
                sys.enable_word_trace(TRACE_EVERY);
                sys.enable_flight_recorder(FLIGHT_CAPACITY);
                if let Some(every) = sample_every {
                    sys.enable_timeseries(every, vapres_core::TimeSeries::DEFAULT_CAPACITY);
                }
                sys.iom_set_input_interval(0, interval);
                let channels = Arrangement::FLEET
                    .deploy(sys)
                    .expect("prototype E3 arrangement deploys");
                // The restore path reconstructs these ids instead of
                // persisting them; keep that assumption honest.
                debug_assert_eq!(channels, (ChannelId(0), ChannelId(1)));
                sys.iom_feed(0, 0..samples);
                channels
            })
        })
        .collect()
}

/// Phase 2 — the rotating swap schedule, then the drain. Returns each
/// RSB's outcome: `"ok"` / `"none"`, or the first swap error.
///
/// Every visit feeds the target a fresh input batch and lets it run
/// briefly before swapping, so the seamless swap always crosses a LIVE
/// stream — the paper's Fig. 5 scenario, not a swap on an idle fabric
/// (the bring-up streams from setup have long drained by the time the
/// schedule starts: CF-based configuration is seconds of simulated time
/// per RSB on the shared controlling-software timeline).
fn drive(
    fleet: &mut FleetSystem,
    spec: &FleetSpec,
    channels: &[(ChannelId, ChannelId)],
) -> Vec<String> {
    let mut outcomes: Vec<Option<String>> = vec![None; spec.rsbs];
    fleet.run_for(Ps::from_ms(1));
    // Visit RSB k % rsbs for swap k; odd visits swap back so a revisited
    // RSB always has a staged image for its current spare.
    let mut visits = vec![0u32; spec.rsbs];
    for k in 0..spec.swaps {
        let rsb = k % spec.rsbs;
        let back = visits[rsb] % 2 == 1;
        visits[rsb] += 1;
        let (samples, _) = spec.workload(rsb);
        fleet.with_rsb(rsb, move |sys| sys.iom_feed(0, 0..samples));
        fleet.run_for(Ps::from_us(20));
        let channels = channels[rsb];
        let swapped: Result<(), String> = fleet.with_rsb(rsb, move |sys| {
            let (active, spare) = if back { (2, 1) } else { (1, 2) };
            // Node n is PRR n - 1; the arrangement staged an image for
            // either spare.
            let array = Arrangement::FLEET
                .array_for(spare - 1)
                .expect("the fleet arrangement stages both PRRs");
            seamless_swap(sys, &swap_spec(active, spare, array, channels))
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
        if let Err(e) = swapped {
            outcomes[rsb].get_or_insert(format!("swap {k}: {e}"));
        }
        fleet.run_for(SWAP_STRIDE);
    }
    // Drain: settle in fixed slices until every RSB's input is empty.
    // The polls are software events with zero time cost, so the slice
    // sequence — and therefore every observable — is identical however
    // long individual RSBs take.
    for _ in 0..DRAIN_SLICES {
        let drained =
            (0..spec.rsbs).all(|rsb| fleet.with_rsb(rsb, |sys| sys.iom_pending_input(0) == 0));
        if drained {
            break;
        }
        fleet.run_for(DRAIN_SLICE);
    }
    fleet.run_for(Ps::from_us(100));
    (0..spec.rsbs)
        .map(|rsb| match outcomes[rsb].take() {
            Some(err) => err,
            None if spec.swaps_for(rsb) == 0 => "none".into(),
            None => "ok".into(),
        })
        .collect()
}

/// The work rows of a fresh prototype RSB that the fleet runs forward,
/// idle, across an earlier RSB's bring-up: each component that starts
/// awake ticks once on its first edge and goes quiescent. Every RSB but
/// the first is brought up after such a stretch. A fleet row counts
/// work from its RSB's bring-up, so harvest takes these units off every
/// row but the first; the RSB's `exec_ticks_total` telemetry still
/// counts them.
fn idle_prelude() -> &'static CostModel {
    static PRELUDE: OnceLock<CostModel> = OnceLock::new();
    PRELUDE.get_or_init(|| {
        let mut lib = ModuleLibrary::new();
        register(&mut lib);
        let mut sys =
            VapresSystem::new(SystemConfig::prototype(), lib).expect("the prototype builds");
        sys.enable_profiling();
        sys.run_for(Ps::from_us(1));
        sys.profile_cost_model().expect("profiler armed above")
    })
}

/// Phase 3 — per-RSB harvest and index-order merge.
fn harvest(fleet: &mut FleetSystem, spec: &FleetSpec, outcomes: Vec<String>) -> FleetResult {
    let mut rows = Vec::with_capacity(spec.rsbs);
    let mut merged_telemetry = Telemetry::new();
    let mut merged_work = CostModel::default();
    let mut flight: Vec<(usize, FlightEntry)> = Vec::new();
    let mut timeseries = String::new();
    let sim_time = fleet.now();
    for (rsb, outcome) in outcomes.into_iter().enumerate() {
        let h = fleet.with_rsb(rsb, move |sys| harvest_rsb(sys, rsb));
        flight.extend(h.flight.iter().map(|&e| (rsb, e)));
        let (batch, interval) = spec.workload(rsb);
        // One bring-up batch plus one fresh batch per rotating visit.
        let samples_in = batch * (1 + spec.swaps_for(rsb));
        merged_telemetry.merge(&h.telemetry);
        merged_work.merge(&h.work);
        timeseries.push_str(&h.timeseries);
        rows.push(FleetRsbRow {
            index: rsb,
            samples_in,
            interval,
            swaps: spec.swaps_for(rsb),
            outcome,
            drained: h.drained,
            samples_out: h.samples_out,
            missed_slots: h.missed_slots,
            p99_e2e_ps: h.p99_e2e_ps,
            sim_time_ps: sim_time.as_ps(),
            work_units: h.work.rows.iter().map(|r| r.work_units).sum(),
            est_cost: spec
                .work_estimate(rsb)
                .iter()
                .map(|&(_, units)| units)
                .sum(),
            healthy: h.healthy,
        });
    }
    // Sim-time-major merge; per-RSB streams are already time-ordered, so
    // a stable sort by (at_ps, rsb) is the canonical interleave.
    flight.sort_by_key(|&(rsb, e)| (e.at.as_ps(), rsb));
    FleetResult {
        rows,
        merged_telemetry,
        merged_flight: MergedFlight { entries: flight },
        merged_work,
        timeseries,
        plan: ShardPlan::round_robin(spec.rsbs, 1),
        sim_time,
    }
}

/// What one RSB's harvest collects.
struct RsbHarvest {
    drained: bool,
    samples_out: u64,
    missed_slots: u64,
    p99_e2e_ps: Option<u64>,
    healthy: bool,
    telemetry: Telemetry,
    work: CostModel,
    flight: Vec<FlightEntry>,
    timeseries: String,
}

fn harvest_rsb(sys: &mut VapresSystem, rsb: usize) -> RsbHarvest {
    let drained = sys.iom_pending_input(0) == 0;
    let samples_out = sys.iom_output(0).len() as u64;
    // Fleet health: the E3 fabric budgets (FIFO occupancy,
    // backpressure), minus the swap-phase monitors (swaps already
    // reported their outcome inline) and minus the per-word cadence
    // SLOs. The gap tracker is cumulative and the fleet schedule is
    // deliberately batched — between an RSB's batches the stream idles
    // for the rest of the rotating schedule (seconds of simulated time
    // under the serialized CF bring-up), which a continuous-stream
    // cadence budget would misread as an interruption. The slot misses
    // still gate determinism: `missed_slots` is reported per row and
    // exact-matched by `vapres diff`.
    let policy = HealthPolicy {
        missed_slots_max: u64::MAX,
        excess_gap_max: Ps(u64::MAX),
        ..HealthPolicy::e3_seamless()
    };
    let health = evaluate_health(sys, &policy, None);
    let telemetry = sys
        .snapshot_metrics()
        .expect("telemetry enabled at setup")
        .clone();
    let summary = vapres_core::ScenarioSummary::harvest(
        &telemetry,
        vapres_core::SwapOutcome::NotRequested,
        drained,
        samples_out,
        sys.now().as_ps(),
    );
    let mut work = sys
        .profile_cost_model()
        .expect("profiler armed by the runner");
    if rsb > 0 {
        for (row, idle) in work.rows.iter_mut().zip(&idle_prelude().rows) {
            debug_assert_eq!(row.component, idle.component);
            row.work_units -= idle.work_units;
        }
    }
    let flight = sys
        .flight()
        .expect("flight recorder enabled at setup")
        .events()
        .copied()
        .collect();
    let mut timeseries = String::new();
    if let Some(ts) = sys.timeseries() {
        let mut buf = Vec::new();
        ts.write_jsonl_tagged(&mut buf, Some(&format!("rsb{rsb}")))
            .expect("writing to a Vec cannot fail");
        timeseries = String::from_utf8(buf).expect("series JSONL is UTF-8");
    }
    RsbHarvest {
        drained,
        samples_out,
        missed_slots: summary.missed_slots,
        p99_e2e_ps: summary.p99_e2e_ps,
        healthy: health.healthy(),
        telemetry,
        work,
        flight,
        timeseries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rsbs: usize, swaps: usize) -> FleetSpec {
        FleetSpec {
            rsbs,
            samples: 250,
            interval: 50,
            swaps,
            seed: 0xF1EE7,
            sample_every: None,
        }
    }

    /// Harvest discounts [`idle_prelude`] from every RSB but the first:
    /// it is exactly the work each later RSB has done when its bring-up
    /// starts, and the first RSB has done none.
    #[test]
    fn idle_prelude_is_the_work_before_each_later_bring_up() {
        let units = |m: CostModel| -> Vec<(&'static str, u64)> {
            m.rows.iter().map(|r| (r.component, r.work_units)).collect()
        };
        let prelude = units(idle_prelude().clone());
        assert!(prelude.iter().any(|&(_, u)| u > 0), "{prelude:?}");
        let mut fleet = build(&spec(3, 3)).unwrap();
        fleet.enable_profiling();
        for rsb in 0..3 {
            let before = fleet.with_rsb(rsb, |sys| {
                let before = sys.profile_cost_model().unwrap();
                Arrangement::FLEET.deploy(sys).unwrap();
                before
            });
            let want: Vec<_> = if rsb == 0 {
                prelude.iter().map(|&(c, _)| (c, 0)).collect()
            } else {
                prelude.clone()
            };
            assert_eq!(units(before), want, "RSB {rsb}");
        }
    }

    /// Renders every deterministic observable of a result into one
    /// comparable string.
    fn render(r: &FleetResult) -> String {
        let mut out = String::new();
        for row in &r.rows {
            out.push_str(&format!(
                "{} in={} iv={} swaps={} outcome={} drained={} out={} missed={} p99={:?} \
                 sim={} work={} est={}\n",
                row.index,
                row.samples_in,
                row.interval,
                row.swaps,
                row.outcome,
                row.drained,
                row.samples_out,
                row.missed_slots,
                row.p99_e2e_ps,
                row.sim_time_ps,
                row.work_units,
                row.est_cost,
            ));
        }
        let mut telemetry = Vec::new();
        r.merged_telemetry.write_jsonl(&mut telemetry).unwrap();
        out.push_str(&String::from_utf8(telemetry).unwrap());
        let mut flight = Vec::new();
        r.merged_flight.write_jsonl(&mut flight).unwrap();
        out.push_str(&String::from_utf8(flight).unwrap());
        out.push_str(&r.timeseries);
        for row in &r.merged_work.rows {
            // Work units only — the host-ns column has no contract.
            out.push_str(&format!("work {} {}\n", row.component, row.work_units));
        }
        out
    }

    /// The harvest as it was before entries were shipped whole: dump
    /// each RSB's ring as JSONL, parse every line's `at_ps` back, stamp
    /// the RSB in, and stable-sort by `(at_ps, rsb)`. Kept as the
    /// reference the entry merge must reproduce byte for byte.
    fn text_merge(fleet: &mut FleetSystem, rsbs: usize) -> String {
        let mut lines: Vec<(u64, usize, String)> = Vec::new();
        for rsb in 0..rsbs {
            let text = fleet.with_rsb(rsb, |sys| {
                let mut buf = Vec::new();
                sys.dump_flight_jsonl(&mut buf).unwrap();
                String::from_utf8(buf).unwrap()
            });
            for line in text.lines() {
                let at_ps = line
                    .strip_prefix("{\"at_ps\":")
                    .and_then(|rest| rest.split([',', '}']).next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("malformed flight line: {line}"));
                lines.push((at_ps, rsb, format!("{{\"rsb\":{rsb},{}\n", &line[1..])));
            }
        }
        lines.sort_by_key(|&(at_ps, rsb, _)| (at_ps, rsb));
        lines.into_iter().map(|(_, _, line)| line).collect()
    }

    #[test]
    fn entry_merge_matches_the_text_round_trip() {
        let spec = FleetSpec {
            sample_every: Some(Ps::from_us(500)),
            ..spec(6, 6)
        };
        let mut fleet = build(&spec).expect("prototype fleet");
        let channels = setup(&mut fleet, &spec);
        let outcomes = drive(&mut fleet, &spec, &channels);
        let result = harvest(&mut fleet, &spec, outcomes);
        let mut merged = Vec::new();
        result.merged_flight.write_jsonl(&mut merged).unwrap();
        let merged = String::from_utf8(merged).unwrap();
        assert_eq!(merged.lines().count(), result.merged_flight.len());
        assert!(!result.timeseries.is_empty(), "sampling was on");
        assert_eq!(merged, text_merge(&mut fleet, spec.rsbs));
    }

    #[test]
    fn warm_start_matches_cold() {
        let spec = spec(3, 3);
        let cold = run_fleet(&spec, 1, None).expect("cold");
        assert_eq!(cold.plan, ShardPlan::round_robin(spec.rsbs, 1));
        for row in &cold.rows {
            assert_eq!(row.outcome, "ok", "RSB {}", row.index);
            assert!(row.drained, "RSB {} failed to drain", row.index);
            // Swap-state replay can emit a boundary word, so the sink
            // sees at least the fed stream.
            assert!(
                row.samples_out >= u64::from(row.samples_in),
                "RSB {}",
                row.index
            );
            assert!(row.work_units > 0, "RSB {} counted no work", row.index);
        }
        // Checkpoint after setup and resume: the §4h restore ≡
        // never-stopped contract lifted to fleets.
        let image = checkpoint_after_setup(&spec, 1).expect("checkpoint");
        let warm = run_fleet_from(&spec, 1, None, &image).expect("warm");
        assert_eq!(render(&warm), render(&cold), "warm start diverged");
    }
}
