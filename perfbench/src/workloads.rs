//! The four workloads, the repetition loop that times them, and the
//! end-to-end metrics.
//!
//! Every repetition starts from empty simulated state (fresh systems,
//! empty bitstream caches, a cleared sweep prefix cache) and times two
//! passes of the same work: one at jobs=1 and one at `jobs_n` workers,
//! in alternating order from one repetition to the next. The loop is
//! closed: each operation starts when the previous one returned.

use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

use vapres_core::scenario::{
    merge_telemetry, run_sweep_with, Scenario, ScenarioResult, SwapMethod, SwapOutcome, SweepGrid,
};
use vapres_core::switching::{seamless_swap, BitstreamSource, SwapReport, SwapSpec};
use vapres_core::{
    ApiError, ChannelId, CostModel, FleetSystem, ModuleLibrary, PortRef, Ps, ShardPlan,
    SharedRegister, SplitMix64, SystemConfig, Telemetry, VapresSystem,
};
use vapres_kpn::{
    checkpoint_after_setup, clear_prefix_cache, run_fleet_from, run_scenario,
    run_scenario_profiled, FleetResult, FleetRsbRow, FleetSpec,
};
use vapres_modules::{register_standard_modules, uids};
use vapres_sim::persist::fnv1a;

use crate::layers::{self, measure_persist, Layer, PersistCost};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["e3_stream", "swap_storm", "sweep", "fleet"];

/// `(name, unit)` of every end-to-end metric, in output order. Must
/// match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("words_per_s", "words/s"),
    ("speedup_jn", "x"),
    ("host_ns_per_sim_cycle", "ns"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every Nth streamed word carries a provenance tag, as in the sweep
/// runner.
const TRACE_EVERY: u32 = 7;
/// The paper's ADC cadence: one sample per 500 static-clock cycles.
pub const E3_INTERVAL: u64 = 500;
/// Swap-storm input cadence, sparse enough that a batch outlives an
/// SDRAM reconfiguration only sometimes.
const STORM_INTERVAL: u64 = 50_000;
/// Simulated time one e3_stream operation advances.
const SLICE: Ps = Ps::from_ms(1);
/// Simulated budget for a storm batch to drain after its swap.
const DRAIN_BUDGET: Ps = Ps::from_s(2);
/// Set-ups timed per repetition (the last one is used): a set-up takes
/// well under a millisecond on the single-RSB workloads, so one sample
/// per repetition would be mostly timer and cache noise.
const SETUP_REPEATS: usize = 5;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Problem sizes. [`Size::FULL`] is the benchmark; tests shrink it.
#[derive(Debug, Clone)]
pub struct Size {
    pub e3_samples: u32,
    pub storm_swaps: usize,
    pub sweep_samples: u32,
    pub fleet_rsbs: usize,
    pub fleet_samples: u32,
}

impl Size {
    pub const FULL: Size = Size {
        e3_samples: 250_000,
        storm_swaps: 500,
        sweep_samples: 2_000,
        fleet_rsbs: 64,
        fleet_samples: 2_000,
    };
}

/// Output checks: one per operation whose result is verified.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Measuring time after the warm-up repetition: no repetition starts
    /// that would end past it, judged by the longest one so far (one
    /// repetition always runs, two when traced).
    pub seconds: f64,
    /// Profile every system and collect the per-layer metrics.
    pub traced: bool,
    pub jobs_n: usize,
    pub size: Size,
    /// The digest every repetition must reproduce (None: repetitions
    /// must only agree with each other).
    pub expected: Option<u64>,
}

/// What a run reports.
#[derive(Debug)]
pub struct RunResult {
    pub checks: Checks,
    pub digest: u64,
    pub reps: usize,
    pub metrics: Vec<Metric>,
    /// The operation-time tail and the number of operations it is taken
    /// over (reported, not gated).
    pub op_ms_p99: f64,
    pub ops: usize,
    pub tracer: Tracer,
}

/// One timed repetition.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    wall1_s: f64,
    words1: u64,
    cycles1: u64,
    ops_ms: Vec<f64>,
    wall_n_s: f64,
    words_n: u64,
    checks: Checks,
    digest: u64,
    layer: Option<Layer>,
}

/// The inputs every repetition shares.
struct Ctx {
    seed: u64,
    size: Size,
    jobs_n: usize,
    /// Simulated time at which a restored fleet image resumes (a pure
    /// function of the spec, found once per run).
    fleet_start: OnceLock<Ps>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    One,
    N,
}

/// Alternates which pass runs first, so drift within a run does not
/// favour one job count.
fn passes(rep: usize) -> [Pass; 2] {
    if rep.is_multiple_of(2) {
        [Pass::One, Pass::N]
    } else {
        [Pass::N, Pass::One]
    }
}

type RepFn = fn(&Ctx, usize, bool, &mut Tracer) -> Result<Rep, String>;

/// Runs `workload`: one untimed warm-up repetition, then repetitions for
/// `cfg.seconds`. A traced run alternates untraced and traced
/// repetitions, so it also measures the tracing overhead.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to measure
/// (a system that cannot be built).
pub fn run(workload: &str, cfg: &RunCfg) -> Result<RunResult, String> {
    let rep_fn: RepFn = match workload {
        "e3_stream" => |c, i, t, tr| single_rep(c, i, t, tr, e3_prepare, e3_run),
        "swap_storm" => |c, i, t, tr| single_rep(c, i, t, tr, storm_prepare, storm_run),
        "sweep" => sweep_rep,
        "fleet" => fleet_rep,
        other => {
            return Err(format!(
                "unknown workload {other:?} ({})",
                WORKLOADS.join(" | ")
            ))
        }
    };
    let ctx = Ctx {
        seed: cfg.seed,
        size: cfg.size.clone(),
        jobs_n: cfg.jobs_n,
        fleet_start: OnceLock::new(),
    };
    let mut tr = Tracer::new(false);
    let mut checks = Checks::default();
    let warm_start = Instant::now();
    let warm = rep_fn(&ctx, 0, false, &mut tr)?;
    checks.add(warm.checks);
    let want = cfg.expected.unwrap_or(warm.digest);
    checks.check(warm.digest == want);

    // Stop before a repetition that would overrun the measuring time
    // (judged by the longest one so far), so a run takes about the
    // warm-up plus `seconds` whatever the repetition length.
    let min_reps = if cfg.traced { 2 } else { 1 };
    let start = Instant::now();
    let mut longest = secs_since(warm_start);
    let mut reps = Vec::new();
    while reps.len() < min_reps || secs_since(start) + longest <= cfg.seconds {
        let traced = cfg.traced && reps.len() % 2 == 1;
        tr.on = traced;
        let t = Instant::now();
        let mut rep = rep_fn(&ctx, reps.len(), traced, &mut tr)?;
        longest = longest.max(secs_since(t));
        let efficiency_pct = speedup(&rep) / cfg.jobs_n as f64 * 100.0;
        if let Some(layer) = rep.layer.as_mut() {
            layer.efficiency_pct = efficiency_pct;
        }
        checks.add(rep.checks);
        checks.check(rep.digest == want);
        reps.push(rep);
    }
    let ops: Vec<f64> = reps.iter().flat_map(|r| r.ops_ms.iter().copied()).collect();
    let metrics = if cfg.traced {
        tr.on = true;
        let probe = layers::probe(&mut tr)?;
        let (traced, plain): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.layer.is_some());
        let wall = |rs: &[&Rep]| median(&rs.iter().map(|r| r.wall1_s).collect::<Vec<_>>());
        let overhead_pct = (wall(&traced) / wall(&plain) - 1.0) * 100.0;
        let traced_layers: Vec<Layer> = reps.iter_mut().filter_map(|r| r.layer.take()).collect();
        layers::metrics(&traced_layers, &probe, overhead_pct)
    } else {
        end_to_end(&reps)
    };
    Ok(RunResult {
        checks,
        digest: warm.digest,
        reps: reps.len(),
        metrics,
        op_ms_p99: percentile(&ops, 0.99),
        ops: ops.len(),
        tracer: tr,
    })
}

fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let ops: Vec<f64> = reps.iter().flat_map(|r| r.ops_ms.iter().copied()).collect();
    let values = [
        med(&|r| r.words1 as f64 / r.wall1_s),
        med(&speedup),
        med(&|r| r.wall1_s * 1e9 / r.cycles1 as f64),
        median(&ops),
        med(&|r| r.setup_s),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Throughput of the jobs_n pass over that of the jobs=1 pass of the
/// same repetition.
fn speedup(rep: &Rep) -> f64 {
    (rep.words_n as f64 / rep.wall_n_s) / (rep.words1 as f64 / rep.wall1_s)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub(crate) fn library() -> ModuleLibrary {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    lib
}

fn static_cycle_ps() -> u64 {
    SystemConfig::prototype().static_clock.period().as_ps()
}

/// 16-bit ADC samples.
fn adc_samples(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    (0..n).map(|_| (rng.next_u64() >> 48) as u32).collect()
}

// ----------------------------------------------------------------------
// Single-RSB workloads: e3_stream and swap_storm.
// ----------------------------------------------------------------------

/// A prototype RSB streaming IOM → FIR A (PRR 0) → IOM.
pub(crate) struct Rsb {
    pub sys: VapresSystem,
    up: ChannelId,
    down: ChannelId,
    setup_s: f64,
}

/// Builds and brings up an [`Rsb`] (the timed set-up): FIR A on
/// CompactFlash (`fir_a.bit`, PRR 0) and configured, FIR B for PRR 1 on
/// CompactFlash (`fir_b_p1.bit`) and staged in SDRAM (`fir_b_p1`).
pub(crate) fn build_rsb(interval: u64, profiled: bool) -> Result<Rsb, String> {
    let lib = library();
    let t = Instant::now();
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).map_err(|e| e.to_string())?;
    sys.enable_telemetry();
    if profiled {
        sys.enable_profiling();
    }
    sys.enable_word_trace(TRACE_EVERY);
    sys.iom_set_input_interval(0, interval);
    let (up, down) = deploy(&mut sys).map_err(|e| format!("setup: {e}"))?;
    Ok(Rsb {
        sys,
        up,
        down,
        setup_s: secs_since(t),
    })
}

fn deploy(sys: &mut VapresSystem) -> Result<(ChannelId, ChannelId), ApiError> {
    sys.install_bitstream(0, uids::FIR_A, "fir_a.bit")?;
    let fir_b = sys.bitstream_for(1, uids::FIR_B)?.to_bytes();
    sys.cf_store_raw("fir_b_p1.bit", fir_b);
    sys.vapres_cf2array("fir_b_p1.bit", "fir_b_p1")?;
    sys.vapres_cf2icap("fir_a.bit")?;
    let up = sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))?;
    let down = sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))?;
    sys.bring_up_node(0, false)?;
    sys.bring_up_node(1, false)?;
    Ok((up, down))
}

fn swap_spec(
    active: usize,
    spare: usize,
    source: BitstreamSource,
    up: ChannelId,
    down: ChannelId,
) -> SwapSpec {
    SwapSpec {
        active_node: active,
        spare_node: spare,
        source,
        upstream: up,
        downstream: down,
        clk_sel: false,
        timeout: Ps::from_ms(10),
    }
}

/// The channels into and out of the IOM after a swap re-established
/// them (ids are never reused, so they must be looked up).
fn io_channels(sys: &VapresSystem) -> Option<(ChannelId, ChannelId)> {
    let iom = PortRef::new(0, 0);
    let f = sys.fabric();
    let find = |producer: bool| {
        f.active_channels().into_iter().find(|&id| {
            f.channel_info(id).is_some_and(|i| {
                if producer {
                    i.producer == iom
                } else {
                    i.consumer == iom
                }
            })
        })
    };
    Some((find(true)?, find(false)?))
}

/// One single-system timed pass.
struct Instance {
    wall_s: f64,
    words: u64,
    cycles: u64,
    ops_ms: Vec<f64>,
    checks: Checks,
    digest: u64,
    layer: Option<Layer>,
}

/// Digest of a system's deterministic observables: IOM output words
/// with timestamps, the telemetry registry as JSONL, and the swap
/// reports.
fn system_digest(sys: &VapresSystem, telemetry: &Telemetry, reports: &[SwapReport]) -> u64 {
    let out = sys.iom_output(0);
    let mut bytes = Vec::with_capacity(out.len() * 13 + 4096);
    for (at, w) in out {
        bytes.extend_from_slice(&at.as_ps().to_le_bytes());
        bytes.extend_from_slice(&w.data.to_le_bytes());
        bytes.push(u8::from(w.end_of_stream));
    }
    telemetry
        .write_jsonl(&mut bytes)
        .expect("writing to a Vec cannot fail");
    for r in reports {
        bytes.extend_from_slice(format!("{r:?}\n").as_bytes());
    }
    fnv1a(&bytes)
}

/// Harvests a finished instance: snapshot (timed), digest and, when
/// traced, the layer record.
fn finish_instance(
    mut sys: VapresSystem,
    wall_s: f64,
    cycles: u64,
    ops_ms: Vec<f64>,
    checks: Checks,
    reports: &[SwapReport],
    traced: Option<(Option<PersistCost>, u64)>,
) -> Instance {
    let t = Instant::now();
    sys.snapshot_metrics();
    let snapshot_s = secs_since(t);
    let telemetry = sys.telemetry().expect("telemetry enabled at build").clone();
    let digest = system_digest(&sys, &telemetry, reports);
    let layer = traced.map(|(persist, missed_slots)| Layer {
        work: sys.profile_cost_model().unwrap_or_default(),
        merge_s: Layer::merge_cost(&telemetry),
        telemetry,
        wall_s,
        persist,
        snapshot_s: Some(snapshot_s),
        missed_slots,
        ..Layer::default()
    });
    Instance {
        wall_s,
        words: sys.iom_output(0).len() as u64,
        cycles,
        ops_ms,
        checks,
        digest,
        layer,
    }
}

/// Runs `jobs` instances on their own threads. Each prepares its system
/// untimed; then all start the timed part together. Returns the wall
/// time of the timed part and every instance's result.
fn concurrent<P, T: Send>(
    jobs: usize,
    prepare: impl Fn() -> Result<P, String> + Sync,
    run: impl Fn(P) -> T + Sync,
) -> Result<(f64, Vec<T>), String> {
    let barrier = Barrier::new(jobs + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let p = prepare();
                    barrier.wait();
                    p.map(&run)
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        let results: Vec<Result<T, String>> = handles
            .into_iter()
            .map(|h| h.join().expect("instance thread panicked"))
            .collect();
        let wall = secs_since(t);
        Ok((wall, results.into_iter().collect::<Result<Vec<_>, _>>()?))
    })
}

type Prepare<P> = fn(&Ctx, bool) -> Result<(Rsb, P), String>;
type RunInstance<P> = fn(Rsb, P, bool, &mut Tracer) -> Instance;

/// One repetition of a single-RSB workload: a jobs=1 pass (its set-up
/// timed) and a pass of `jobs_n` independent instances running
/// concurrently.
fn single_rep<P>(
    ctx: &Ctx,
    ix: usize,
    traced: bool,
    tr: &mut Tracer,
    prepare: Prepare<P>,
    run: RunInstance<P>,
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut one: Option<Instance> = None;
    let mut many: Vec<Instance> = Vec::new();
    for pass in passes(ix) {
        match pass {
            Pass::One => {
                tr.begin("setup", ix as u64);
                let mut setups = Vec::with_capacity(SETUP_REPEATS);
                let mut prepared = prepare(ctx, traced)?;
                setups.push(prepared.0.setup_s);
                for _ in 1..SETUP_REPEATS {
                    prepared = prepare(ctx, traced)?;
                    setups.push(prepared.0.setup_s);
                }
                tr.end();
                rep.setup_s = median(&setups);
                let (rsb, p) = prepared;
                tr.begin("pass_jobs1", ix as u64);
                one = Some(run(rsb, p, traced, tr));
                tr.end();
            }
            Pass::N => {
                tr.begin("pass_jobs_n", ix as u64);
                let (wall, insts) = concurrent(
                    ctx.jobs_n,
                    || prepare(ctx, traced),
                    |(rsb, p)| run(rsb, p, false, &mut Tracer::new(false)),
                )?;
                tr.end();
                rep.wall_n_s = wall;
                many = insts;
            }
        }
    }
    let one = one.expect("the jobs=1 pass ran");
    rep.checks = one.checks;
    for inst in &many {
        rep.checks.add(inst.checks);
        rep.checks.check(inst.digest == one.digest);
        rep.words_n += inst.words;
    }
    rep.layer = one.layer.map(|mut l| {
        l.imbalance = max_over_min(&many.iter().map(|i| i.wall_s).collect::<Vec<_>>());
        l
    });
    rep.wall1_s = one.wall_s;
    rep.words1 = one.words;
    rep.cycles1 = one.cycles;
    rep.ops_ms = one.ops_ms;
    rep.digest = one.digest;
    Ok(rep)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Largest over smallest load; 1.0 is a perfect split.
fn max_over_min(loads: &[f64]) -> f64 {
    let max = loads.iter().copied().fold(0.0, f64::max);
    let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
    max / min
}

/// In traced runs, checkpoints and restores the live system at its
/// (first) swap point; returns the cost and the host seconds it took, to
/// be taken off the pass's clock.
fn persist_at_swap_point(
    sys: &mut VapresSystem,
    traced: bool,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Option<PersistCost>, f64) {
    if !traced {
        return (None, 0.0);
    }
    let t = Instant::now();
    let persist = tr
        .span("checkpoint_restore", 0, || measure_persist(sys))
        .ok();
    checks.check(persist.is_some());
    (persist, secs_since(t))
}

/// e3_stream: the paper's Fig. 5 scenario at scale. FIR A streams the
/// seeded samples at the ADC cadence; after 1 ms a seamless swap brings
/// FIR B in from SDRAM; then the stream drains. One operation is one
/// `run_for` of 1 ms simulated time.
fn e3_prepare(ctx: &Ctx, profiled: bool) -> Result<(Rsb, Vec<u32>), String> {
    let mut rng = SplitMix64::new(ctx.seed);
    let input = adc_samples(&mut rng, ctx.size.e3_samples as usize);
    Ok((build_rsb(E3_INTERVAL, profiled)?, input))
}

fn e3_run(rsb: Rsb, input: Vec<u32>, traced: bool, tr: &mut Tracer) -> Instance {
    let Rsb {
        mut sys, up, down, ..
    } = rsb;
    let mut checks = Checks::default();
    let mut ops_ms = Vec::new();
    // + the old module's end-of-stream word.
    let expected = input.len() + 1;
    // Twice the stream's simulated length, in slices, before giving up.
    let max_slices = 2 * expected as u64 * E3_INTERVAL * static_cycle_ps() / SLICE.as_ps() + 10;
    let sim0 = sys.now();
    let t0 = Instant::now();
    sys.iom_feed(0, input);
    let slice = |sys: &mut VapresSystem, tr: &mut Tracer, ops_ms: &mut Vec<f64>| {
        let t = Instant::now();
        tr.begin("run_for", ops_ms.len() as u64);
        sys.run_for(SLICE);
        tr.end();
        ops_ms.push(ms(t));
    };
    slice(&mut sys, tr, &mut ops_ms);

    let (persist, off_clock) = persist_at_swap_point(&mut sys, traced, tr, &mut checks);
    let missed0 = sys.iom_gap(0).missed_slots();
    let spec = swap_spec(1, 2, BitstreamSource::Sdram("fir_b_p1".into()), up, down);
    let swapped = tr.span("seamless_swap", 0, || seamless_swap(&mut sys, &spec));
    while sys.iom_output(0).len() < expected && (ops_ms.len() as u64) < max_slices {
        slice(&mut sys, tr, &mut ops_ms);
    }
    let wall_s = secs_since(t0) - off_clock;
    let missed = sys.iom_gap(0).missed_slots() - missed0;
    checks.check(swapped.is_ok() && missed == 0);
    let out = sys.iom_output(0);
    checks.check(out.len() == expected && out.iter().filter(|(_, w)| w.end_of_stream).count() == 1);
    let cycles = (sys.now() - sim0).as_ps() / static_cycle_ps();
    let reports: Vec<SwapReport> = swapped.into_iter().collect();
    finish_instance(
        sys,
        wall_s,
        cycles,
        ops_ms,
        checks,
        &reports,
        traced.then_some((persist, missed)),
    )
}

/// swap_storm: one long-lived RSB, back-to-back seamless swaps between
/// PRR 0 and PRR 1 — even swaps load FIR B from SDRAM, odd swaps load
/// FIR A from CompactFlash, no bitstream cache, as in the paper. Each
/// swap crosses a live seeded batch of 100–300 words. One operation is
/// one `seamless_swap` call.
fn storm_prepare(ctx: &Ctx, profiled: bool) -> Result<(Rsb, Vec<Vec<u32>>), String> {
    let mut rng = SplitMix64::new(ctx.seed);
    let batches = (0..ctx.size.storm_swaps)
        .map(|_| {
            let n = 100 + (rng.next_u64() % 201) as usize;
            adc_samples(&mut rng, n)
        })
        .collect();
    Ok((build_rsb(STORM_INTERVAL, profiled)?, batches))
}

fn storm_run(rsb: Rsb, batches: Vec<Vec<u32>>, traced: bool, tr: &mut Tracer) -> Instance {
    let Rsb {
        mut sys,
        mut up,
        mut down,
        ..
    } = rsb;
    let swaps = batches.len();
    let mut checks = Checks::default();
    let mut ops_ms = Vec::with_capacity(swaps);
    let mut reports = Vec::with_capacity(swaps);
    let mut expected = 0usize;
    let mut missed_total = 0u64;
    let (mut persist, mut off_clock) = (None, 0.0);
    let sim0 = sys.now();
    let t0 = Instant::now();
    for (k, batch) in batches.into_iter().enumerate() {
        expected += batch.len() + 1;
        sys.iom_feed(0, batch);
        sys.run_for(Ps::from_ms(1));
        if k == 0 {
            (persist, off_clock) = persist_at_swap_point(&mut sys, traced, tr, &mut checks);
        }
        let spec = if k % 2 == 0 {
            swap_spec(1, 2, BitstreamSource::Sdram("fir_b_p1".into()), up, down)
        } else {
            swap_spec(
                2,
                1,
                BitstreamSource::CompactFlash("fir_a.bit".into()),
                up,
                down,
            )
        };
        let missed0 = sys.iom_gap(0).missed_slots();
        let t = Instant::now();
        tr.begin("seamless_swap", k as u64);
        let swapped = seamless_swap(&mut sys, &spec);
        tr.end();
        ops_ms.push(ms(t));
        let channels = swapped.as_ref().ok().and_then(|_| io_channels(&sys));
        tr.span("drain", k as u64, || {
            sys.run_until(DRAIN_BUDGET, |s| s.iom_output(0).len() >= expected)
        });
        let missed = sys.iom_gap(0).missed_slots() - missed0;
        missed_total += missed;
        let ok = channels.is_some() && missed == 0 && sys.iom_output(0).len() == expected;
        match (swapped, channels) {
            (Ok(report), Some((u, d))) => {
                checks.check(ok);
                reports.push(report);
                (up, down) = (u, d);
            }
            _ => {
                // The stream is broken: every remaining swap fails too.
                checks.attempted += (swaps - k) as u64;
                checks.failed += (swaps - k) as u64;
                break;
            }
        }
    }
    let wall_s = secs_since(t0) - off_clock;
    checks.check(sys.iom_output(0).len() == expected);
    let cycles = (sys.now() - sim0).as_ps() / static_cycle_ps();
    finish_instance(
        sys,
        wall_s,
        cycles,
        ops_ms,
        checks,
        &reports,
        traced.then_some((persist, missed_total)),
    )
}

// ----------------------------------------------------------------------
// sweep
// ----------------------------------------------------------------------

/// The 48-scenario grid: kr × kl × FIFO depth × swap method × staged
/// bitstream cache. No fault axis, so every failure is a real one.
fn sweep_grid(ctx: &Ctx) -> SweepGrid {
    SweepGrid {
        kr: vec![2, 3],
        kl: vec![2, 3],
        fifo_depth: vec![64, 512],
        prr_clock_mhz: vec![100],
        swap: vec![SwapMethod::Seamless, SwapMethod::Halt, SwapMethod::None],
        fault_rate: vec![0.0],
        samples: vec![ctx.size.sweep_samples],
        bitstream_cache: vec![0, 4],
        interval: E3_INTERVAL,
        seed: ctx.seed,
    }
}

/// A scenario passes when its swap did what was asked, the input
/// drained, every fed word (plus the swap's end-of-stream word) came
/// out, and a seamless swap lost no sample slot.
fn scenario_ok(r: &ScenarioResult) -> bool {
    let (sc, s) = (&r.scenario, &r.summary);
    let swapped = sc.swap != SwapMethod::None;
    let outcome = match &s.swap {
        SwapOutcome::NotRequested => !swapped,
        SwapOutcome::Completed { .. } => swapped,
        SwapOutcome::Failed { .. } => false,
    };
    outcome
        && s.drained
        && s.samples_out == u64::from(sc.samples) + u64::from(swapped)
        && (sc.swap != SwapMethod::Seamless || s.missed_slots == 0)
}

struct SweepPass {
    wall_s: f64,
    results: Vec<ScenarioResult>,
    /// Per scenario, in index order: host ms, worker thread, cost model.
    runs: Vec<(f64, std::thread::ThreadId, Option<CostModel>)>,
}

fn sweep_pass(scenarios: &[Scenario], jobs: usize, traced: bool, tr: &mut Tracer) -> SweepPass {
    clear_prefix_cache();
    type Slot = Mutex<Option<(Instant, Instant, std::thread::ThreadId, Option<CostModel>)>>;
    let slots: Vec<Slot> = scenarios.iter().map(|_| Mutex::new(None)).collect();
    tr.begin(
        if jobs == 1 {
            "pass_jobs1"
        } else {
            "pass_jobs_n"
        },
        jobs as u64,
    );
    let t0 = Instant::now();
    let results = run_sweep_with(scenarios, jobs, |sc| {
        let start = Instant::now();
        let (r, model) = if traced {
            let (r, m) = run_scenario_profiled(sc, false);
            (r, Some(m))
        } else {
            (run_scenario(sc), None)
        };
        let done = (start, Instant::now(), std::thread::current().id(), model);
        *slots[sc.index].lock().expect("scenario slot") = Some(done);
        r
    });
    let wall_s = secs_since(t0);
    let runs = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let (start, end, thread, model) = slot
                .into_inner()
                .expect("scenario slot")
                .expect("every scenario ran");
            tr.record("run_scenario", i as u64, start, end);
            ((end - start).as_secs_f64() * 1e3, thread, model)
        })
        .collect();
    tr.end();
    SweepPass {
        wall_s,
        results,
        runs,
    }
}

fn sweep_digest(results: &[ScenarioResult], merged: &Telemetry) -> u64 {
    let mut bytes = Vec::new();
    merged
        .write_jsonl(&mut bytes)
        .expect("writing to a Vec cannot fail");
    for r in results {
        bytes.extend_from_slice(format!("{} {:?}\n", r.scenario.label(), r.summary).as_bytes());
    }
    fnv1a(&bytes)
}

/// sweep: the grid at jobs=1 (one operation per `run_scenario`) and at
/// `jobs_n` workers, from a cleared prefix cache each time.
fn sweep_rep(ctx: &Ctx, ix: usize, traced: bool, tr: &mut Tracer) -> Result<Rep, String> {
    tr.begin("setup", ix as u64);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        scenarios = sweep_grid(ctx).expand();
        for sc in &scenarios {
            sc.validate()?;
        }
        setups.push(secs_since(t));
    }
    tr.end();
    let mut rep = Rep {
        setup_s: median(&setups),
        ..Rep::default()
    };
    let mut digests = Vec::new();
    for pass in passes(ix) {
        let jobs = if pass == Pass::One { 1 } else { ctx.jobs_n };
        let p = sweep_pass(&scenarios, jobs, traced, tr);
        for r in &p.results {
            rep.checks.check(scenario_ok(r));
        }
        let t = Instant::now();
        let merged = merge_telemetry(&p.results);
        let merge_s = secs_since(t);
        digests.push(sweep_digest(&p.results, &merged));
        let words: u64 = p.results.iter().map(|r| r.summary.samples_out).sum();
        if pass == Pass::One {
            rep.wall1_s = p.wall_s;
            rep.words1 = words;
            rep.cycles1 =
                p.results.iter().map(|r| r.summary.sim_time_ps).sum::<u64>() / static_cycle_ps();
            rep.ops_ms = p.runs.iter().map(|r| r.0).collect();
            if traced {
                let mut work = CostModel::default();
                for (_, _, m) in &p.runs {
                    work.merge(m.as_ref().expect("traced scenarios are profiled"));
                }
                let layer = rep.layer.get_or_insert_with(Layer::default);
                layer.work = work;
                layer.telemetry = merged;
                layer.wall_s = p.wall_s;
                layer.merge_s = merge_s;
                layer.missed_slots = p
                    .results
                    .iter()
                    .filter(|r| r.scenario.swap == SwapMethod::Seamless)
                    .map(|r| r.summary.missed_slots)
                    .sum();
            }
        } else {
            rep.wall_n_s = p.wall_s;
            rep.words_n = words;
            if traced {
                let mut per_worker: Vec<(std::thread::ThreadId, f64)> = Vec::new();
                for &(ms, thread, _) in &p.runs {
                    match per_worker.iter_mut().find(|(t, _)| *t == thread) {
                        Some(w) => w.1 += ms,
                        None => per_worker.push((thread, ms)),
                    }
                }
                let busy: Vec<f64> = per_worker.iter().map(|w| w.1).collect();
                rep.layer.get_or_insert_with(Layer::default).imbalance = max_over_min(&busy);
            }
        }
    }
    rep.checks.check(digests[0] == digests[1]);
    rep.digest = digests[0];
    Ok(rep)
}

// ----------------------------------------------------------------------
// fleet
// ----------------------------------------------------------------------

fn fleet_spec(ctx: &Ctx) -> FleetSpec {
    FleetSpec {
        rsbs: ctx.size.fleet_rsbs,
        samples: ctx.size.fleet_samples,
        interval: 50,
        // One visit per RSB: a revisit hits the fleet runner's stale
        // channel ids (pinned by a test).
        swaps: ctx.size.fleet_rsbs,
        seed: ctx.seed,
        sample_every: None,
    }
}

fn fleet_register() -> SharedRegister {
    Arc::new(|lib: &mut ModuleLibrary| register_standard_modules(lib, 0))
}

fn restore_fleet(spec: &FleetSpec, image: &[u8]) -> Result<FleetSystem, String> {
    let configs = vec![SystemConfig::prototype(); spec.rsbs];
    FleetSystem::restore(
        configs,
        fleet_register(),
        ShardPlan::round_robin(spec.rsbs, 1),
        image,
    )
    .map_err(|e| format!("fleet restore: {e}"))
}

/// A fleet row passes with a swap outcome of `ok`/`none`, a drained
/// input, no lost word and no health breach; the health flag alone does
/// not pass it.
pub(crate) fn fleet_row_ok(r: &FleetRsbRow) -> bool {
    (r.outcome == "ok" || r.outcome == "none")
        && r.drained
        && r.healthy
        && r.samples_out >= u64::from(r.samples_in)
}

fn fleet_digest(r: &FleetResult) -> u64 {
    let mut bytes = Vec::new();
    for row in &r.rows {
        // Every field but the shard, which depends on the job count.
        bytes.extend_from_slice(
            format!(
                "{} {} {} {} {} {} {} {} {:?} {} {} {} {}\n",
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
                row.healthy
            )
            .as_bytes(),
        );
    }
    r.merged_telemetry
        .write_jsonl(&mut bytes)
        .expect("writing to a Vec cannot fail");
    fnv1a(&bytes)
}

/// fleet: many lightly loaded RSBs behind one controlling region. The
/// set-up (bring-up of every RSB) is checkpointed; the timed region
/// resumes it at jobs=1 and at `jobs_n`. One operation is one
/// `run_fleet_from` at jobs=1.
fn fleet_rep(ctx: &Ctx, ix: usize, traced: bool, tr: &mut Tracer) -> Result<Rep, String> {
    let spec = fleet_spec(ctx);
    tr.begin("checkpoint_after_setup", ix as u64);
    let t = Instant::now();
    let image = checkpoint_after_setup(&spec, 1)?;
    let setup_s = secs_since(t);
    tr.end();
    let start = *ctx
        .fleet_start
        .get_or_init(|| restore_fleet(&spec, &image).map_or(Ps::ZERO, |f| f.now()));
    let mut rep = Rep {
        setup_s,
        ..Rep::default()
    };
    let mut digests = Vec::new();
    let mut one: Option<(FleetResult, f64)> = None;
    let mut many: Option<(FleetResult, f64)> = None;
    for pass in passes(ix) {
        let jobs = if pass == Pass::One { 1 } else { ctx.jobs_n };
        tr.begin(
            if pass == Pass::One {
                "pass_jobs1"
            } else {
                "pass_jobs_n"
            },
            ix as u64,
        );
        let t = Instant::now();
        let r = run_fleet_from(&spec, jobs, None, &image)?;
        let wall = secs_since(t);
        tr.end();
        for row in &r.rows {
            rep.checks.check(fleet_row_ok(row));
        }
        digests.push(fleet_digest(&r));
        if pass == Pass::One {
            one = Some((r, wall));
        } else {
            many = Some((r, wall));
        }
    }
    let (r1, wall1) = one.expect("jobs=1 pass ran");
    let (rn, wall_n) = many.expect("jobs_n pass ran");
    rep.checks.check(digests[0] == digests[1]);
    rep.digest = digests[0];
    rep.wall1_s = wall1;
    rep.ops_ms = vec![wall1 * 1e3];
    rep.words1 = r1.rows.iter().map(|r| r.samples_out).sum();
    rep.cycles1 = (r1.sim_time - start).as_ps() * spec.rsbs as u64 / static_cycle_ps();
    rep.wall_n_s = wall_n;
    rep.words_n = rn.rows.iter().map(|r| r.samples_out).sum();
    if traced {
        let t = Instant::now();
        let mut fleet = restore_fleet(&spec, &image)?;
        let restore_s = secs_since(t);
        let t = Instant::now();
        let bytes = fleet.checkpoint().len() as u64;
        let checkpoint_s = secs_since(t);
        let plan = &rn.plan;
        let shard_work: Vec<f64> = (0..plan.jobs())
            .map(|s| {
                plan.members(s)
                    .iter()
                    .map(|&i| rn.rows[i].work_units as f64)
                    .sum()
            })
            .collect();
        rep.layer = Some(Layer {
            merge_s: Layer::merge_cost(&r1.merged_telemetry),
            work: r1.merged_work,
            telemetry: r1.merged_telemetry,
            wall_s: wall1,
            persist: Some(PersistCost {
                bytes,
                checkpoint_s,
                restore_s,
            }),
            snapshot_s: None,
            imbalance: max_over_min(&shard_work),
            efficiency_pct: 0.0,
            missed_slots: r1.rows.iter().map(|r| r.missed_slots).sum(),
        });
    }
    Ok(rep)
}
