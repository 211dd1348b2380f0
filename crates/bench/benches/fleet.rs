//! Fleet — sharded execution of a 64-RSB data processing region.
//!
//! The scale experiment behind `vapres fleet`: 64 independent RSBs
//! streaming heterogeneous workloads while a rotating schedule performs
//! seamless swaps, executed under 1, 2, and 4 worker threads. The
//! determinism contract is the headline: every merged observable
//! (telemetry, flight, per-RSB rows, the work-unit plane) must be
//! byte-identical across job counts — on a single-core CI host the
//! speedup column is bounded at 1.0x and the gates are bit-identity and
//! work accounting. Also contrasts round-robin against cost-model (LPT)
//! partitioning using the run's own measured cost model, and writes the
//! `BENCH_fleet.json` trajectory (same format as `vapres fleet
//! --bench`, gated by `vapres diff`).

use std::io::Write;
use std::time::Instant;
use vapres_bench::banner;
use vapres_core::{CostModel, Ps};
use vapres_kpn::{run_fleet, FleetResult, FleetSpec};

const RSBS: usize = 64;
const SWAPS: usize = 16;

/// Everything byte-comparable about one run (partition geometry
/// excluded — it is a function of the job count by design).
fn render(r: &FleetResult) -> String {
    let mut out = String::new();
    for row in &r.rows {
        out.push_str(&format!(
            "{} in={} iv={} swaps={} outcome={} drained={} out={} missed={} p99={:?} work={}\n",
            row.index,
            row.samples_in,
            row.interval,
            row.swaps,
            row.outcome,
            row.drained,
            row.samples_out,
            row.missed_slots,
            row.p99_e2e_ps,
            row.work_units,
        ));
    }
    let mut buf = Vec::new();
    r.merged_telemetry.write_jsonl(&mut buf).expect("vec write");
    r.merged_flight.write_jsonl(&mut buf).expect("vec write");
    out.push_str(&String::from_utf8(buf).expect("utf8"));
    for row in &r.merged_work.rows {
        out.push_str(&format!("work {} {}\n", row.component, row.work_units));
    }
    out
}

/// Largest/smallest shard load ratio — 1.0 is a perfect split.
fn imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0);
    let min = loads.iter().copied().min().unwrap_or(0);
    max as f64 / min.max(1) as f64
}

fn write_trajectory(spec: &FleetSpec, r: &FleetResult, wall_ms: u128) -> std::io::Result<()> {
    let mut f = std::fs::File::create("BENCH_fleet.json")?;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let plan = &r.plan;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"fleet\",")?;
    writeln!(
        f,
        "  \"seed\": {}, \"rsb_count\": {}, \"swap_count\": {},",
        spec.seed, spec.rsbs, spec.swaps
    )?;
    writeln!(
        f,
        "  \"host\": {{\"cpus\": {cpus}, \"jobs\": {}, \"wall_ms\": {wall_ms}}},",
        plan.jobs()
    )?;
    writeln!(
        f,
        "  \"partition\": {{\"mode\": \"{}\", \"shards\": {}}},",
        plan.mode(),
        plan.jobs()
    )?;
    for shard in 0..plan.jobs() {
        let members = plan.members(shard);
        let work: u64 = members.iter().map(|&i| r.rows[i].work_units).sum();
        writeln!(
            f,
            "  \"partition_shard\": {{\"shard\": {shard}, \"rsbs\": {members:?}, \
             \"est_cost\": {}, \"work_units\": {work}}},",
            plan.est_cost(shard)
        )?;
    }
    writeln!(f, "  \"rsbs\": [")?;
    for (i, row) in r.rows.iter().enumerate() {
        write!(
            f,
            "    {{\"index\":{},\"samples_in\":{},\"interval\":{},\"swaps\":{},\
             \"outcome\":\"{}\",\"drained\":{},\"samples_out\":{},\"missed_slots\":{},\
             \"p99_e2e_ps\":{},\"sim_time_ps\":{},\"work_units\":{},\"est_cost\":{},\
             \"healthy\":{}}}",
            row.index,
            row.samples_in,
            row.interval,
            row.swaps,
            row.outcome,
            row.drained,
            row.samples_out,
            row.missed_slots,
            opt(row.p99_e2e_ps),
            row.sim_time_ps,
            row.work_units,
            row.est_cost,
            row.healthy,
        )?;
        writeln!(f, "{}", if i + 1 < r.rows.len() { "," } else { "" })?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"work\": [")?;
    for (i, row) in r.merged_work.rows.iter().enumerate() {
        write!(
            f,
            "    {{\"component\": \"{}\", \"work_units\": {}}}",
            row.component, row.work_units
        )?;
        writeln!(
            f,
            "{}",
            if i + 1 < r.merged_work.rows.len() {
                ","
            } else {
                ""
            }
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    banner(
        "FLEET",
        "sharded 64-RSB fleet with a rotating swap schedule",
    );

    let spec = FleetSpec {
        rsbs: RSBS,
        samples: 150,
        interval: 50,
        swaps: SWAPS,
        seed: 0xF1EE7,
        sample_every: None,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("  fleet: {RSBS} RSBs, {SWAPS} rotating seamless swaps, {cores} core(s) available");
    if cores < 2 {
        println!("  note: single-core host — speedup is bounded at 1.0x here");
    }

    let mut baseline_render = String::new();
    let mut baseline_wall = None;
    let mut first: Option<(FleetResult, u128)> = None;
    for jobs in [1usize, 2, 4] {
        let t = Instant::now();
        let r = run_fleet(&spec, jobs, None).expect("fleet runs");
        let wall = t.elapsed();
        let rendered = render(&r);
        let speedup = match baseline_wall {
            None => {
                baseline_wall = Some(wall);
                baseline_render = rendered.clone();
                1.0
            }
            Some(base) => base.as_secs_f64() / wall.as_secs_f64(),
        };
        let identical = rendered == baseline_render;
        let shard_work: Vec<u64> = (0..r.plan.jobs())
            .map(|s| {
                r.plan
                    .members(s)
                    .iter()
                    .map(|&i| r.rows[i].work_units)
                    .sum()
            })
            .collect();
        println!(
            "  jobs={jobs}  wall {:>8.1} ms  speedup {speedup:>5.2}x  observables {}  \
             shard imbalance {:.3}x",
            wall.as_secs_f64() * 1e3,
            if identical { "identical" } else { "DIVERGED" },
            imbalance(&shard_work),
        );
        assert!(identical, "fleet observables must not depend on job count");
        if first.is_none() {
            first = Some((r, wall.as_millis()));
        }
    }
    let (seq, wall_ms) = first.expect("jobs=1 ran");

    // Partition quality: feed the run's own measured cost model back in
    // — round-robin ignores the heterogeneous workloads; LPT flattens
    // them. Both are pure functions of (spec, jobs, model).
    let mut model = CostModel::default();
    model.merge(&seq.merged_work);
    let rr = spec.plan(4, None);
    let lpt = spec.plan(4, Some(&model));
    let cost = |plan: &vapres_core::ShardPlan| -> Vec<u64> {
        (0..plan.jobs()).map(|s| plan.est_cost(s)).collect()
    };
    let hints = spec.cost_hints(Some(&model));
    println!(
        "\n  partition (4 shards over {} RSBs, {} total hint-ns):",
        RSBS,
        hints.iter().sum::<u64>()
    );
    println!(
        "    round-robin : loads {:?}... imbalance {:.3}x",
        &cost(&rr)[..rr.jobs().min(4)],
        imbalance(&cost(&rr)),
    );
    println!(
        "    cost-model  : loads {:?}... imbalance {:.3}x",
        &cost(&lpt)[..lpt.jobs().min(4)],
        imbalance(&cost(&lpt)),
    );
    assert_eq!(
        lpt,
        spec.plan(4, Some(&model)),
        "LPT plan must be deterministic"
    );

    let total_out: u64 = seq.rows.iter().map(|r| r.samples_out).sum();
    let total_work: u64 = seq.rows.iter().map(|r| r.work_units).sum();
    let unhealthy = seq.rows.iter().filter(|r| !r.healthy).count();
    println!(
        "\n  totals: {total_out} words emitted, {total_work} work units, \
         {unhealthy} health breaches, sim time {}",
        Ps::new(seq.rows[0].sim_time_ps)
    );
    assert_eq!(
        unhealthy, 0,
        "every RSB must stay within the E3 health budgets"
    );

    match write_trajectory(&spec, &seq, wall_ms) {
        Ok(()) => println!("\n  wrote BENCH_fleet.json"),
        Err(e) => println!("\n  could not write BENCH_fleet.json: {e}"),
    }
}
