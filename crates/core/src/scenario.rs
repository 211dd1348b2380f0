//! Scenario grids and the parallel sweep engine.
//!
//! VAPRES is a *multipurpose* base system: one architecture, many
//! RSB/PRR/channel parameterizations evaluated per application (paper
//! Sec. IV, Table 1). This module turns a design-space question into a
//! batch job: a [`SweepGrid`] expands into independent [`Scenario`]s (each
//! with a deterministic per-scenario seed), [`run_sweep_with`] shards them
//! across worker threads, and the results merge back — *in scenario-index
//! order, never completion order* — into one report.
//!
//! The engine is runner-agnostic: it knows nothing about how a scenario
//! is simulated. The concrete E3 runner (which needs the standard module
//! library) lives in `vapres-kpn`; tests here drive the engine with
//! synthetic runners.
//!
//! # Determinism
//!
//! Three properties make `--jobs 1` and `--jobs 8` byte-identical:
//!
//! 1. [`SweepGrid::expand`] enumerates axes in one fixed order, so a grid
//!    always yields the same scenario list;
//! 2. each scenario's seed is a pure function of the base seed and its
//!    index ([`scenario_seed`]), so *which worker* runs it is irrelevant;
//! 3. [`run_sweep_with`] stores every result at its scenario index and
//!    [`merge_telemetry`] folds them in that order, so registration order
//!    in the merged registry never depends on thread scheduling.

use crate::config::SystemConfig;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vapres_sim::profile::CostModel;
use vapres_sim::rng::SplitMix64;
use vapres_sim::telemetry::Telemetry;
use vapres_sim::time::Freq;
use vapres_sim::timeseries::TimeSeries;

/// How (and whether) a scenario swaps FIR A for FIR B mid-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapMethod {
    /// Stream straight through FIR A; no swap.
    None,
    /// The paper's nine-step seamless swap into the spare PRR.
    Seamless,
    /// The halt-and-swap baseline: stop the stream, reconfigure in place.
    Halt,
}

impl SwapMethod {
    /// Stable lowercase name, used in labels and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SwapMethod::None => "none",
            SwapMethod::Seamless => "seamless",
            SwapMethod::Halt => "halt",
        }
    }

    /// Parses the lowercase name.
    ///
    /// # Errors
    ///
    /// A message naming the bad value and the accepted ones.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "none" => Ok(SwapMethod::None),
            "seamless" => Ok(SwapMethod::Seamless),
            "halt" => Ok(SwapMethod::Halt),
            other => Err(format!(
                "unknown swap method {other:?} (none | seamless | halt)"
            )),
        }
    }
}

impl fmt::Display for SwapMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One point of the design space: a fully specified simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the expanded grid (also the merge order).
    pub index: usize,
    /// Deterministic per-scenario seed (see [`scenario_seed`]).
    pub seed: u64,
    /// Right-flowing channel slots between adjacent switch boxes.
    pub kr: usize,
    /// Left-flowing channel slots.
    pub kl: usize,
    /// Interface FIFO depth in words.
    pub fifo_depth: usize,
    /// PRR local-clock frequency (BUFGMUX menu entry 0) in MHz.
    pub prr_clock_mhz: u64,
    /// Swap methodology exercised mid-stream.
    pub swap: SwapMethod,
    /// Probability that the staged FIR B bitstream is corrupted before
    /// the swap fetches it (one header bit flipped).
    pub fault_rate: f64,
    /// Input samples streamed through the system.
    pub samples: u32,
    /// Fabric cycles between input samples.
    pub interval: u64,
    /// Staged-bitstream cache capacity in entries (0 = cache off, the
    /// byte-identical-to-uncached default).
    pub bitstream_cache: usize,
}

impl Scenario {
    /// Compact human-readable identity, stable across runs (used as the
    /// row key in reports). The fault rate prints with two decimals
    /// unless that would round it, so distinct rates get distinct labels
    /// (`fr0.50`, but `fr0.001`).
    pub fn label(&self) -> String {
        let mut fault_rate = format!("{:.2}", self.fault_rate);
        if fault_rate.parse() != Ok(self.fault_rate) {
            fault_rate = self.fault_rate.to_string();
        }
        let mut label = format!(
            "kr{}kl{}_f{}_c{}_{}_fr{fault_rate}_n{}",
            self.kr, self.kl, self.fifo_depth, self.prr_clock_mhz, self.swap, self.samples
        );
        // Appended only when armed, so every pre-cache label (and the
        // golden artifacts keyed on them) is unchanged.
        if self.bitstream_cache > 0 {
            label.push_str(&format!("_bc{}", self.bitstream_cache));
        }
        label
    }

    /// The prototype system reparameterized for this scenario: kr/kl,
    /// FIFO depth, and the PRR power-on clock (menu entry 0) replaced.
    pub fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::prototype();
        cfg.params.kr = self.kr;
        cfg.params.kl = self.kl;
        cfg.params.fifo_depth = self.fifo_depth;
        cfg.prr_clock_menu[0] = Freq::mhz(self.prr_clock_mhz);
        cfg
    }

    /// Validates the scenario before it reaches a worker thread, so a bad
    /// grid fails up front with a message instead of panicking mid-sweep.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples == 0 {
            return Err(format!("scenario {}: samples must be >= 1", self.index));
        }
        if self.interval == 0 {
            return Err(format!("scenario {}: interval must be >= 1", self.index));
        }
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(format!(
                "scenario {}: fault rate {} outside [0, 1]",
                self.index, self.fault_rate
            ));
        }
        if self.prr_clock_mhz == 0 {
            return Err(format!(
                "scenario {}: PRR clock must be >= 1 MHz",
                self.index
            ));
        }
        self.system_config()
            .validate()
            .map_err(|e| format!("scenario {} ({}): {e}", self.index, self.label()))
    }
}

/// Derives scenario `index`'s seed from the sweep's base seed — a pure
/// function of both, so the seed never depends on which worker picks the
/// scenario up.
pub fn scenario_seed(base: u64, index: usize) -> u64 {
    // Weyl-spread the index before the SplitMix64 scramble so adjacent
    // indices land in unrelated stream positions.
    SplitMix64::new(base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The axes of a sweep. [`SweepGrid::expand`] takes the cartesian
/// product.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Right-slot counts to try.
    pub kr: Vec<usize>,
    /// Left-slot counts to try.
    pub kl: Vec<usize>,
    /// FIFO depths to try.
    pub fifo_depth: Vec<usize>,
    /// PRR clock frequencies (MHz) to try.
    pub prr_clock_mhz: Vec<u64>,
    /// Swap methodologies to try.
    pub swap: Vec<SwapMethod>,
    /// Fault-injection rates to try.
    pub fault_rate: Vec<f64>,
    /// Sample counts to try.
    pub samples: Vec<u32>,
    /// Staged-bitstream cache capacities to try (0 = cache off).
    pub bitstream_cache: Vec<usize>,
    /// Fabric cycles between input samples (common to all scenarios).
    pub interval: u64,
    /// Base seed; per-scenario seeds derive from it via [`scenario_seed`].
    pub seed: u64,
}

impl SweepGrid {
    /// The default E3 design-space grid: prototype-vs-narrow channels,
    /// two FIFO depths, full-speed PRR clock, seamless vs. halt swap,
    /// no faults — 2·2·2·2 = 16 scenarios, the paper's headline
    /// comparison swept over the fabric parameters that bound it.
    pub fn e3_default() -> Self {
        SweepGrid {
            kr: vec![2, 3],
            kl: vec![2, 3],
            fifo_depth: vec![64, 512],
            prr_clock_mhz: vec![100],
            swap: vec![SwapMethod::Seamless, SwapMethod::Halt],
            fault_rate: vec![0.0],
            samples: vec![2_000],
            bitstream_cache: vec![0],
            interval: 500,
            seed: 0xE3,
        }
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.kr.len()
            * self.kl.len()
            * self.fifo_depth.len()
            * self.prr_clock_mhz.len()
            * self.swap.len()
            * self.fault_rate.len()
            * self.samples.len()
            * self.bitstream_cache.len()
    }

    /// Whether any axis is empty (the grid expands to nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product in fixed axis order (kr outermost,
    /// then kl, FIFO depth, clock, swap, fault rate, samples, cache
    /// capacity innermost), assigning indices and per-scenario seeds. The
    /// order is part of the determinism contract: the same grid always
    /// yields the same list.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &kr in &self.kr {
            for &kl in &self.kl {
                for &fifo_depth in &self.fifo_depth {
                    for &prr_clock_mhz in &self.prr_clock_mhz {
                        for &swap in &self.swap {
                            for &fault_rate in &self.fault_rate {
                                for &samples in &self.samples {
                                    for &bitstream_cache in &self.bitstream_cache {
                                        let index = out.len();
                                        out.push(Scenario {
                                            index,
                                            seed: scenario_seed(self.seed, index),
                                            kr,
                                            kl,
                                            fifo_depth,
                                            prr_clock_mhz,
                                            swap,
                                            fault_rate,
                                            samples,
                                            interval: self.interval,
                                            bitstream_cache,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// What happened to the scenario's swap (or to the scenario itself: a
/// setup failure before the swap is reported here too, prefixed
/// `"setup: "`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The scenario ran without requesting a swap ([`SwapMethod::None`]).
    NotRequested,
    /// The swap completed.
    Completed {
        /// Whole-swap duration in ps.
        total_ps: u64,
        /// Reconfiguration portion in ps.
        reconfig_ps: u64,
        /// State words carried old module → new module.
        state_words: u64,
    },
    /// The swap (or the scenario setup) failed.
    Failed {
        /// The failure, stringified.
        error: String,
    },
}

/// One row of the sweep report: the scenario's paper-facing figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Words the sink IOM emitted.
    pub samples_out: u64,
    /// Median end-to-end word latency (bucket upper bound, ps).
    pub p50_e2e_ps: Option<u64>,
    /// 95th-percentile end-to-end word latency (ps).
    pub p95_e2e_ps: Option<u64>,
    /// 99th-percentile end-to-end word latency (ps).
    pub p99_e2e_ps: Option<u64>,
    /// Whole sample slots in which no word arrived (stream interruption).
    pub missed_slots: u64,
    /// Stream delay beyond the nominal cadence, in ps.
    pub excess_gap_ps: u64,
    /// Worst per-channel stall ratio (stalled / dispatched ticks).
    pub max_stall_ratio: f64,
    /// Worst interface-FIFO occupancy observed.
    pub max_fifo_high_water: f64,
    /// Whether the input fully drained within the run budget.
    pub drained: bool,
    /// Swap (or setup) outcome.
    pub swap: SwapOutcome,
    /// Simulated time at harvest, in ps.
    pub sim_time_ps: u64,
    /// Staged-bitstream cache hits (0 when the cache is off).
    pub cache_hits: u64,
    /// Storage-transfer bytes the cache short-circuited.
    pub cache_bytes_saved: u64,
    /// The repeat-swap probe's cold pass: simulated cost of configuring a
    /// not-yet-cached CompactFlash bitstream. `None` when the scenario's
    /// cache is off (no probe runs).
    pub repeat_swap_cold_ps: Option<u64>,
    /// The repeat-swap probe's warm pass: the same configuration replayed
    /// from the staged cache. The cold/warm ratio is the artifact's
    /// measured repeat-swap win.
    pub repeat_swap_warm_ps: Option<u64>,
}

impl ScenarioSummary {
    /// Extracts the summary row from a harvested telemetry registry (the
    /// metric names are the ones `VapresSystem::snapshot_metrics`
    /// registers).
    pub fn harvest(
        t: &Telemetry,
        swap: SwapOutcome,
        drained: bool,
        samples_out: u64,
        sim_time_ps: u64,
    ) -> Self {
        let e2e = t.histogram_named("word_e2e_latency_ps", &[]);
        let pct = |q: f64| e2e.and_then(|h| h.percentile(q));
        let sum_counters = |name: &str| {
            t.counters_iter()
                .filter(|(n, _, _)| *n == name)
                .map(|(_, _, v)| v)
                .sum::<u64>()
        };
        let max_gauge = |name: &str| {
            t.gauges_iter()
                .filter(|(n, _, _)| *n == name)
                .map(|(_, _, v)| v)
                .fold(0.0_f64, f64::max)
        };
        ScenarioSummary {
            samples_out,
            p50_e2e_ps: pct(0.50),
            p95_e2e_ps: pct(0.95),
            p99_e2e_ps: pct(0.99),
            missed_slots: sum_counters("iom_missed_slots_total"),
            excess_gap_ps: max_gauge("iom_excess_gap_ps") as u64,
            max_stall_ratio: max_gauge("channel_stall_ratio"),
            max_fifo_high_water: max_gauge("fifo_high_water"),
            drained,
            swap,
            sim_time_ps,
            cache_hits: sum_counters("bitstream_cache_hits_total"),
            cache_bytes_saved: sum_counters("bitstream_cache_bytes_saved_total"),
            // The runner fills these after its repeat-swap probe; a
            // harvest alone has no probe to report.
            repeat_swap_cold_ps: None,
            repeat_swap_warm_ps: None,
        }
    }
}

/// A completed scenario: identity, summary row, the full telemetry
/// registry (for merging and export), and whatever optional observers the
/// run armed.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Its report row.
    pub summary: ScenarioSummary,
    /// Its harvested metrics.
    pub telemetry: Telemetry,
    /// The time series it sampled, when a cadence was armed.
    pub series: Option<TimeSeries>,
    /// Its cost model, when the self-profiler was armed.
    pub cost_model: Option<CostModel>,
}

/// Runs every scenario through `run`, sharded across `jobs` worker
/// threads, and returns the results **in scenario-index order** —
/// completion order never leaks into the output, which is what makes
/// `--jobs 1` and `--jobs 8` byte-identical downstream.
///
/// Workers pull indices from a shared atomic counter, so an expensive
/// scenario does not leave siblings idle. `jobs` is clamped to
/// `1..=scenarios.len()`; `jobs <= 1` runs inline without spawning.
/// `run` must be a pure function of the scenario (seeded by
/// [`Scenario::seed`]) for the determinism guarantee to hold.
pub fn run_sweep_with<F>(scenarios: &[Scenario], jobs: usize, run: F) -> Vec<ScenarioResult>
where
    F: Fn(&Scenario) -> ScenarioResult + Sync,
{
    let jobs = jobs.clamp(1, scenarios.len().max(1));
    if jobs <= 1 {
        return scenarios.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioResult>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= scenarios.len() {
                    break;
                }
                let result = run(&scenarios[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every scenario index was visited")
        })
        .collect()
}

/// Folds every result's registry into one, in scenario-index order (the
/// caller guarantees `results` is index-ordered, as [`run_sweep_with`]
/// returns it). Counters add, gauges keep their maxima, histograms merge
/// bucket-wise — see `Telemetry::merge`.
pub fn merge_telemetry(results: &[ScenarioResult]) -> Telemetry {
    let mut merged = Telemetry::new();
    for r in results {
        merged.merge(&r.telemetry);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid {
            kr: vec![2, 3],
            kl: vec![2],
            fifo_depth: vec![64, 512],
            prr_clock_mhz: vec![100],
            swap: vec![SwapMethod::None, SwapMethod::Seamless],
            fault_rate: vec![0.0],
            samples: vec![100],
            bitstream_cache: vec![0],
            interval: 10,
            seed: 42,
        }
    }

    #[test]
    fn expand_is_deterministic_and_indexed() {
        let g = grid();
        let a = g.expand();
        let b = g.expand();
        assert_eq!(a.len(), g.len());
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "same grid, same list");
        for (i, sc) in a.iter().enumerate() {
            assert_eq!(sc.index, i);
            assert_eq!(sc.seed, scenario_seed(42, i));
            sc.validate().unwrap();
        }
        // Fixed axis order: samples innermost, kr outermost.
        assert_eq!(
            (a[0].kr, a[0].fifo_depth, a[0].swap),
            (2, 64, SwapMethod::None)
        );
        assert_eq!(
            (a[1].kr, a[1].fifo_depth, a[1].swap),
            (2, 64, SwapMethod::Seamless)
        );
        assert_eq!(a[2].fifo_depth, 512, "fifo axis flips before kr");
        assert_eq!(a[4].kr, 3, "kr is the outermost axis");
        assert_eq!(a[7].kr, 3);
    }

    #[test]
    fn cache_axis_is_innermost_and_labels_only_when_armed() {
        let mut g = grid();
        g.swap = vec![SwapMethod::Seamless];
        g.bitstream_cache = vec![0, 4];
        let a = g.expand();
        assert_eq!(a.len(), g.len());
        assert_eq!(a.len(), 8);
        // Innermost axis: adjacent scenarios differ only in capacity.
        assert_eq!(a[0].bitstream_cache, 0);
        assert_eq!(a[1].bitstream_cache, 4);
        assert_eq!((a[0].kr, a[0].fifo_depth), (a[1].kr, a[1].fifo_depth));
        // Uncached labels keep the pre-cache format; armed ones get a
        // `_bc` suffix, so the two never collide in a report.
        assert!(!a[0].label().contains("_bc"), "{}", a[0].label());
        assert!(a[1].label().ends_with("_bc4"), "{}", a[1].label());
        for sc in &a {
            sc.validate().unwrap();
        }
    }

    #[test]
    fn labels_print_the_fault_rate_exactly_when_two_decimals_would_round_it() {
        let mut g = grid();
        g.fault_rate = vec![0.0, 0.001, 0.004, 0.5, 0.125, 1.0];
        let labels: Vec<String> = g.expand().iter().map(Scenario::label).collect();
        let rates: Vec<&str> = labels[..6]
            .iter()
            .map(|l| l.split("_fr").nth(1).unwrap().split('_').next().unwrap())
            .collect();
        assert_eq!(rates, ["0.00", "0.001", "0.004", "0.50", "0.125", "1.00"]);
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "labels collide: {labels:?}");
    }

    #[test]
    fn scenario_seeds_differ_and_are_stable() {
        let s0 = scenario_seed(7, 0);
        let s1 = scenario_seed(7, 1);
        assert_ne!(s0, s1);
        assert_eq!(s0, scenario_seed(7, 0));
        assert_ne!(scenario_seed(8, 0), s0, "base seed matters");
    }

    #[test]
    fn scenario_validate_rejects_bad_fields() {
        let mut sc = grid().expand().remove(0);
        sc.fault_rate = 1.5;
        assert!(sc.validate().unwrap_err().contains("fault rate"));
        sc.fault_rate = 0.0;
        sc.interval = 0;
        assert!(sc.validate().unwrap_err().contains("interval"));
        sc.interval = 10;
        sc.fifo_depth = 1; // below the fabric's minimum of 4
        assert!(sc.validate().is_err());
    }

    #[test]
    fn system_config_applies_overrides() {
        let mut sc = grid().expand().remove(0);
        sc.kr = 3;
        sc.kl = 2;
        sc.fifo_depth = 64;
        sc.prr_clock_mhz = 25;
        let cfg = sc.system_config();
        assert_eq!(cfg.params.kr, 3);
        assert_eq!(cfg.params.kl, 2);
        assert_eq!(cfg.params.fifo_depth, 64);
        assert_eq!(cfg.prr_clock_menu[0], Freq::mhz(25));
        cfg.validate().unwrap();
    }

    /// A synthetic runner: no simulation, just telemetry derived purely
    /// from the scenario — plus a completion-order scrambler (later
    /// indices finish *first*) to prove index order is restored.
    fn synthetic(sc: &Scenario) -> ScenarioResult {
        std::thread::sleep(std::time::Duration::from_millis(
            (8 - sc.index.min(8)) as u64,
        ));
        let mut t = Telemetry::new();
        let c = t.counter("runs_total", &[]);
        t.inc(c, 1);
        let c = t.counter("seed_lo", &[("scenario", sc.index.to_string())]);
        t.inc(c, sc.seed & 0xFFFF);
        let h = t.histogram("lat", &[], 10, 4);
        t.observe(h, (sc.index as u64 * 7) % 40);
        let summary =
            ScenarioSummary::harvest(&t, SwapOutcome::NotRequested, true, sc.index as u64, 0);
        ScenarioResult {
            scenario: sc.clone(),
            summary,
            telemetry: t,
            series: None,
            cost_model: None,
        }
    }

    fn merged_jsonl(results: &[ScenarioResult]) -> String {
        let mut out = Vec::new();
        merge_telemetry(results).write_jsonl(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn sweep_results_come_back_in_index_order_regardless_of_jobs() {
        let scenarios = grid().expand();
        let sequential = run_sweep_with(&scenarios, 1, synthetic);
        let threaded = run_sweep_with(&scenarios, 4, synthetic);
        assert_eq!(sequential.len(), scenarios.len());
        assert_eq!(threaded.len(), scenarios.len());
        for (i, (a, b)) in sequential.iter().zip(&threaded).enumerate() {
            assert_eq!(a.scenario.index, i);
            assert_eq!(b.scenario.index, i);
            assert_eq!(a.summary, b.summary, "scenario {i}");
        }
        // The merged registries are byte-identical: counters fold in
        // index order on both paths.
        assert_eq!(merged_jsonl(&sequential), merged_jsonl(&threaded));
        // And the merge actually aggregated: one runs_total per scenario.
        let merged = merge_telemetry(&sequential);
        let runs = merged
            .counters_iter()
            .find(|(n, _, _)| *n == "runs_total")
            .unwrap()
            .2;
        assert_eq!(runs, scenarios.len() as u64);
    }

    #[test]
    fn sweep_clamps_job_count_and_handles_empty() {
        let scenarios = grid().expand();
        // More jobs than scenarios: clamped, still complete and ordered.
        let r = run_sweep_with(&scenarios[..2], 64, synthetic);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].scenario.index, 0);
        // Zero jobs behaves as one.
        let r = run_sweep_with(&scenarios[..1], 0, synthetic);
        assert_eq!(r.len(), 1);
        // Empty scenario list: nothing to do.
        assert!(run_sweep_with(&[], 4, synthetic).is_empty());
    }
}
