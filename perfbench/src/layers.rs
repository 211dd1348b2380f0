//! Per-layer metrics of the traced run.
//!
//! Counts come from the simulator's own planes: the profiler's work
//! units and host self time per component (`profile_cost_model`), the
//! executor and fabric counters the telemetry registry harvests, and the
//! telemetry spans of every swap. Costs the workloads cannot reach
//! through a public call (bitstream generation, one reconfiguration,
//! system construction) come from [`probe`], which times those calls
//! standalone on an E3 system at its swap point — the same state the
//! sweep's warm-start prefix checkpoints.

use std::time::Instant;

use vapres_core::switching::BitstreamSource;
use vapres_core::{CostModel, Ps, SystemConfig, Telemetry, VapresSystem};
use vapres_modules::uids;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{build_rsb, library, Metric, E3_INTERVAL};

/// The paper's measured reconfiguration times for the prototype PRR.
const PAPER_SDRAM_S: f64 = 71.94e-3;
const PAPER_CF_S: f64 = 1.043;

/// Standalone calls per probed operation.
const PROBE_CALLS: usize = 100;

/// `(name, unit)` of every per-layer metric, in output order. Must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.exec.ticks", "count"),
    ("sim.exec.skips", "count"),
    ("stream.fabric.dispatches", "count"),
    ("stream.fabric.route_ops", "count"),
    ("stream.fabric.self_ms", "ms"),
    ("stream.fabric.ns_per_dispatch", "ns"),
    ("stream.fabric.route_slots", "count"),
    ("stream.fabric.live_routes", "count"),
    ("modules.iom.dispatches", "count"),
    ("modules.iom.self_ms", "ms"),
    ("modules.prr.dispatches", "count"),
    ("modules.prr.self_ms", "ms"),
    ("bitstream.icap.words", "count"),
    ("bitstream.cf.bytes", "bytes"),
    ("bitstream.sdram.bytes", "bytes"),
    ("bitstream.cache.hits", "count"),
    ("bitstream.cache.misses", "count"),
    ("bitstream.cache.hit_ratio", "ratio"),
    ("bitstream.generate_ms", "ms"),
    ("bitstream.array2icap_us_p50", "us"),
    ("bitstream.cf2icap_us_p50", "us"),
    ("core.api.dcr_writes", "count"),
    ("core.api.dcr_reads", "count"),
    ("core.switching.steps", "count"),
    ("core.switching.sim_swap_ps_p50", "sim_ps"),
    ("core.switching.sim_reconfig_ps_p50", "sim_ps"),
    ("core.switching.missed_slots", "count"),
    ("core.switching.reconfig_err_pct", "%"),
    ("core.system.new_ms", "ms"),
    ("sim.persist.image_bytes", "bytes"),
    ("sim.persist.checkpoint_mb_per_s", "MB/s"),
    ("sim.persist.restore_mb_per_s", "MB/s"),
    ("sim.telemetry.snapshot_ms", "ms"),
    ("sim.telemetry.merge_ms", "ms"),
    ("sim.telemetry.series", "count"),
    ("parallel.efficiency_pct", "%"),
    ("parallel.imbalance", "ratio"),
    ("sim.profile.work_units", "count"),
    ("sim.profile.named_pct", "%"),
    ("sim.profile.unattributed_ms", "ms"),
    ("sim.profile.trace_overhead_pct", "%"),
];

/// Host cost of one checkpoint / restore round trip.
#[derive(Debug, Clone, Copy)]
pub struct PersistCost {
    pub bytes: u64,
    pub checkpoint_s: f64,
    pub restore_s: f64,
}

/// Checkpoints a live system and restores the image into a fresh one.
pub fn measure_persist(sys: &mut VapresSystem) -> Result<PersistCost, String> {
    let t = Instant::now();
    let image = sys.checkpoint();
    let checkpoint_s = t.elapsed().as_secs_f64();
    let lib = library();
    let t = Instant::now();
    VapresSystem::restore(SystemConfig::prototype(), lib, &image)
        .map_err(|e| format!("restore: {e}"))?;
    Ok(PersistCost {
        bytes: image.len() as u64,
        checkpoint_s,
        restore_s: t.elapsed().as_secs_f64(),
    })
}

/// What one traced repetition tells about the layers under the
/// benchmark. Systems the workload owns contribute their own
/// snapshot/persist costs; otherwise the probe's stand in.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Cost models of every system in the jobs=1 pass, merged.
    pub work: CostModel,
    /// Telemetry of every system in the jobs=1 pass, merged.
    pub telemetry: Telemetry,
    /// Wall time of the traced jobs=1 pass.
    pub wall_s: f64,
    pub persist: Option<PersistCost>,
    pub snapshot_s: Option<f64>,
    pub merge_s: f64,
    /// Throughput at jobs_n over jobs_n × throughput at jobs=1, in %.
    pub efficiency_pct: f64,
    /// Busiest / least busy worker (or shard, by work units) at jobs_n.
    pub imbalance: f64,
    /// Sample slots lost while seamless swaps ran.
    pub missed_slots: u64,
}

impl Layer {
    /// Times a registry merge the way sweep and fleet fold per-system
    /// registries.
    pub fn merge_cost(t: &Telemetry) -> f64 {
        let start = Instant::now();
        let mut merged = Telemetry::new();
        merged.merge(t);
        std::hint::black_box(&merged);
        start.elapsed().as_secs_f64()
    }
}

/// Standalone timings of calls the workloads make only inside larger
/// operations.
#[derive(Debug, Clone)]
pub struct Probe {
    new_s: f64,
    generate_s: f64,
    array2icap_s: f64,
    cf2icap_s: f64,
    reconfig_err_pct: f64,
    persist: PersistCost,
    snapshot_s: f64,
}

/// Runs the probe (see the module docs).
pub fn probe(tr: &mut Tracer) -> Result<Probe, String> {
    tr.begin("probe", 0);
    let mut new_s = Vec::new();
    for _ in 0..20 {
        let lib = library();
        let t = Instant::now();
        let sys = VapresSystem::new(SystemConfig::prototype(), lib).map_err(|e| e.to_string())?;
        new_s.push(t.elapsed().as_secs_f64());
        drop(sys);
    }
    let mut rsb = build_rsb(E3_INTERVAL, true)?;
    let sys = &mut rsb.sys;
    let mut generate_s = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let bs = sys
            .bitstream_for(1, uids::FIR_B)
            .map_err(|e| e.to_string())?;
        generate_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(bs);
    }
    sys.iom_feed(0, 0..2_000);
    sys.run_for(Ps::from_ms(1));
    let persist = tr.span("checkpoint_restore", 0, || measure_persist(sys))?;
    let t = Instant::now();
    sys.snapshot_metrics();
    let snapshot_s = t.elapsed().as_secs_f64();

    let mut err: f64 = 0.0;
    let mut times = [Vec::new(), Vec::new()];
    for (i, (source, paper_s)) in [
        (BitstreamSource::Sdram("fir_b_p1".into()), PAPER_SDRAM_S),
        (
            BitstreamSource::CompactFlash("fir_b_p1.bit".into()),
            PAPER_CF_S,
        ),
    ]
    .into_iter()
    .enumerate()
    {
        for call in 0..PROBE_CALLS {
            sys.isolate_node(2).map_err(|e| e.to_string())?;
            let t = Instant::now();
            tr.begin(if i == 0 { "array2icap" } else { "cf2icap" }, call as u64);
            let report = match &source {
                BitstreamSource::Sdram(a) => sys.vapres_array2icap(a),
                BitstreamSource::CompactFlash(f) => sys.vapres_cf2icap(f),
            }
            .map_err(|e| format!("probe reconfiguration: {e}"))?;
            tr.end();
            times[i].push(t.elapsed().as_secs_f64());
            if call == 0 {
                let sim_s = report.total().as_secs_f64();
                err = err.max((sim_s - paper_s).abs() / paper_s * 100.0);
            }
        }
    }
    tr.end();
    Ok(Probe {
        new_s: median(&new_s),
        generate_s: median(&generate_s),
        array2icap_s: median(&times[0]),
        cf2icap_s: median(&times[1]),
        reconfig_err_pct: err,
        persist,
        snapshot_s,
    })
}

fn counter_sum(t: &Telemetry, name: &str) -> u64 {
    t.counters_iter()
        .filter(|(n, _, _)| *n == name)
        .map(|(_, _, v)| v)
        .sum()
}

/// `(work units, host ns)` summed over cost-model rows whose component
/// matches.
fn rows(work: &CostModel, pick: impl Fn(&str) -> bool) -> (u64, u64) {
    work.rows
        .iter()
        .filter(|r| pick(r.component))
        .fold((0, 0), |(u, ns), r| (u + r.work_units, ns + r.host_ns))
}

fn route_ids(work: &CostModel) -> Vec<u64> {
    work.rows
        .iter()
        .filter_map(|r| r.component.strip_prefix("fabric/route"))
        .filter_map(|id| id.parse().ok())
        .collect()
}

/// Simulated durations (ps) of whole seamless swaps and of their
/// reconfiguration step, from the nine `swap_step` spans each swap
/// records.
fn swap_spans(t: &Telemetry) -> (Vec<f64>, Vec<f64>) {
    let (mut swaps, mut reconfigs) = (Vec::new(), Vec::new());
    let mut total = 0u64;
    for s in t.spans_named("swap_step") {
        let d = s.duration().as_ps();
        total += d;
        if s.label.starts_with("2_") {
            reconfigs.push(d as f64);
        }
        if s.label.starts_with("9_") {
            swaps.push(total as f64);
            total = 0;
        }
    }
    (swaps, reconfigs)
}

/// Host ns the profiler attributed to named components. Route rows
/// split the fabric's self time, so they are left out of the sum.
fn attributed_ns(work: &CostModel) -> u64 {
    rows(work, |c| !c.starts_with("fabric/route")).1
}

/// The per-layer metrics, in [`PER_LAYER`] order. Counts are those of
/// the last traced repetition (they repeat exactly); host times are
/// medians over the traced repetitions.
pub fn metrics(layers: &[Layer], probe: &Probe, trace_overhead_pct: f64) -> Vec<Metric> {
    let last = layers.last().expect("a traced run has traced repetitions");
    let med = |f: &dyn Fn(&Layer) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let is_fabric = |c: &str| c == "exec/fabric";
    let is_route = |c: &str| c.starts_with("fabric/route");
    let is_iom = |c: &str| c.starts_with("exec/iom");
    let is_prr = |c: &str| c.starts_with("exec/prr");
    let t = &last.telemetry;
    let (fabric_units, _) = rows(&last.work, is_fabric);
    let hits = counter_sum(t, "bitstream_cache_hits_total");
    let misses = counter_sum(t, "bitstream_cache_misses_total");
    let (swaps, reconfigs) = swap_spans(t);
    let routes = route_ids(&last.work);
    let persist = |l: &Layer| l.persist.unwrap_or(probe.persist);
    let values: [f64; 41] = [
        counter_sum(t, "exec_ticks_total") as f64,
        counter_sum(t, "exec_skips_total") as f64,
        fabric_units as f64,
        rows(&last.work, is_route).0 as f64,
        med(&|l| rows(&l.work, is_fabric).1 as f64 / 1e6),
        med(&|l| {
            let (units, ns) = rows(&l.work, is_fabric);
            ns as f64 / units.max(1) as f64
        }),
        routes.iter().max().map_or(0.0, |&id| id as f64 + 1.0),
        routes.len() as f64,
        rows(&last.work, is_iom).0 as f64,
        med(&|l| rows(&l.work, is_iom).1 as f64 / 1e6),
        rows(&last.work, is_prr).0 as f64,
        med(&|l| rows(&l.work, is_prr).1 as f64 / 1e6),
        rows(&last.work, |c| c == "icap/words").0 as f64,
        rows(&last.work, |c| c == "cf/bytes").0 as f64,
        rows(&last.work, |c| c == "sdram/bytes").0 as f64,
        hits as f64,
        misses as f64,
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        probe.generate_s * 1e3,
        probe.array2icap_s * 1e6,
        probe.cf2icap_s * 1e6,
        counter_sum(t, "dcr_write_total") as f64,
        counter_sum(t, "dcr_read_total") as f64,
        rows(&last.work, |c| c == "swap/steps").0 as f64,
        median(&swaps),
        median(&reconfigs),
        last.missed_slots as f64,
        probe.reconfig_err_pct,
        probe.new_s * 1e3,
        persist(last).bytes as f64,
        med(&|l| persist(l).bytes as f64 / persist(l).checkpoint_s / 1e6),
        med(&|l| persist(l).bytes as f64 / persist(l).restore_s / 1e6),
        med(&|l| l.snapshot_s.unwrap_or(probe.snapshot_s) * 1e3),
        med(&|l| l.merge_s * 1e3),
        (t.counters_iter().count() + t.gauges_iter().count() + t.histograms_iter().count()) as f64,
        med(&|l| l.efficiency_pct),
        med(&|l| l.imbalance),
        last.work.rows.iter().map(|r| r.work_units).sum::<u64>() as f64,
        med(&|l| attributed_ns(&l.work) as f64 / 1e9 / l.wall_s * 100.0),
        med(&|l| (l.wall_s - attributed_ns(&l.work) as f64 / 1e9) * 1e3),
        trace_overhead_pct,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}
