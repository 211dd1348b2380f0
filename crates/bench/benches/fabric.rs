//! FABRIC — per-cycle vs event-horizon-batched fabric execution on E3.
//!
//! Runs the full E3 seamless-swap scenario (the `exec_equivalence` golden
//! workload: Fig. 5 filter swap, 500-cycle ADC interval) plus a
//! halt-and-swap variant, in both execution models:
//!
//! * **dense** — `tick_dense` on every static edge, the bit-for-bit
//!   per-cycle oracle;
//! * **batched** — the event-driven executor with the fabric advancing
//!   to its own event horizons in closed form (`advance_to`).
//!
//! Both modes re-anchor `StreamFabric::ticks()` to the true static cycle
//! count, so the work comparison uses the engines' native dispatch
//! counters: `dispatched_route_ticks` (route-cycles the per-cycle engine
//! executed) for dense, and `advances` + `folded_ops` (fabric dispatches
//! and fold operations, closed-form spans plus exact event-horizon
//! cycles) for batched. Writes the `BENCH_fabric.json` trajectory
//! artifact that `scripts/verify.sh` checks the ≤20%-of-dense smoke bar
//! against.

use std::time::Instant;
use vapres_bench::{banner, row, rule};
use vapres_core::config::SystemConfig;
use vapres_core::module::ModuleLibrary;
use vapres_core::scenario::SwapMethod;
use vapres_core::switching::{halt_and_swap, seamless_swap, SwapSpec};
use vapres_core::system::VapresSystem;
use vapres_core::Ps;
use vapres_kpn::e3::{swap_spec, Arrangement};
use vapres_modules::register_standard_modules;

const SAMPLE_INTERVAL: u64 = 500;
const N_SAMPLES: u32 = 5_000;

struct Measure {
    label: &'static str,
    dense: bool,
    /// Static cycles of simulated time covered by the timed region
    /// (sim-time delta / static period — mode-independent).
    sim_cycles: u64,
    /// Fabric dispatches: dense ticks for the oracle, `advance_to` calls
    /// that moved the clock for the batched engine.
    dispatches: u64,
    /// Route-cycles the per-cycle engine executed in the timed region.
    route_ticks: u64,
    /// Fold operations (closed-form spans + exact event-horizon cycles)
    /// the batching engine executed in the timed region.
    folded_ops: u64,
    /// Output words produced (workload sanity check).
    words: usize,
    wall_ns: f64,
}

impl Measure {
    fn ns_per_cycle(&self) -> f64 {
        self.wall_ns / self.sim_cycles.max(1) as f64
    }

    /// Total per-route work units the run dispatched, comparable across
    /// modes: exact route-cycles plus closed-form fold operations.
    fn route_work(&self) -> u64 {
        self.route_ticks + self.folded_ops
    }
}

fn run(label: &'static str, dense: bool, seamless: bool) -> Measure {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).expect("prototype");
    sys.set_dense(dense);
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

    let method = if seamless {
        SwapMethod::Seamless
    } else {
        SwapMethod::Halt
    };
    let channels = Arrangement::fig5(method)
        .deploy(&mut sys)
        .expect("E3 arrangement");

    let input: Vec<u32> = (0..N_SAMPLES).map(|i| (i * 97) % 10_007).collect();
    sys.iom_feed(0, input.iter().copied());

    let spec = SwapSpec {
        timeout: Ps::from_ms(50),
        ..swap_spec(1, 2, "fir_b", channels)
    };

    // Setup (bitstream staging runs ~2 s of simulated transfer time) is
    // excluded: measure only the streaming + swap + drain region.
    let period_ps = Ps::from_us(1).as_ps() / 100; // 100 MHz static clock
    let now0 = sys.now().as_ps();
    let ticks0 = sys.fabric().ticks();
    let route0 = sys.fabric().dispatched_route_ticks();
    let adv0 = sys.fabric().advances();
    let fold0 = sys.fabric().folded_ops();
    let t = Instant::now();
    sys.run_for(Ps::from_ms(1));
    if seamless {
        seamless_swap(&mut sys, &spec).expect("seamless swap");
    } else {
        halt_and_swap(&mut sys, &spec).expect("halt swap");
    }
    let expected = input.len() + 1; // + EOS
    sys.run_until(Ps::from_s(1), |s| {
        s.iom_output(0).len() >= expected && s.iom_pending_input(0) == 0
    });
    let wall_ns = t.elapsed().as_nanos() as f64;

    Measure {
        label,
        dense,
        sim_cycles: (sys.now().as_ps() - now0) / period_ps,
        dispatches: if dense {
            sys.fabric().ticks() - ticks0
        } else {
            sys.fabric().advances() - adv0
        },
        route_ticks: sys.fabric().dispatched_route_ticks() - route0,
        folded_ops: sys.fabric().folded_ops() - fold0,
        words: sys.iom_output(0).len(),
        wall_ns,
    }
}

fn write_json(path: &str, rows: &[Measure]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"fabric\",")?;
    writeln!(f, "  \"samples\": {N_SAMPLES},")?;
    writeln!(f, "  \"interval\": {SAMPLE_INTERVAL},")?;
    writeln!(f, "  \"rows\": [")?;
    for (i, m) in rows.iter().enumerate() {
        write!(
            f,
            "    {{\"scenario\":\"{}\",\"mode\":\"{}\",\"sim_cycles\":{},\
             \"dispatches\":{},\"route_ticks\":{},\"folded_ops\":{},\
             \"route_work\":{},\"words\":{},\"ns_per_cycle\":{:.4}}}",
            m.label,
            if m.dense { "dense" } else { "batched" },
            m.sim_cycles,
            m.dispatches,
            m.route_ticks,
            m.folded_ops,
            m.route_work(),
            m.words,
            m.ns_per_cycle(),
        )?;
        writeln!(f, "{}", if i + 1 < rows.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    f.flush()
}

fn main() {
    banner(
        "FABRIC",
        "per-cycle vs event-horizon-batched fabric on the E3 swap",
    );
    let widths = [12, 10, 14, 14, 14, 14, 12, 10];
    println!();
    row(
        &[
            &"scenario",
            &"mode",
            &"sim cycles",
            &"dispatches",
            &"route ticks",
            &"folded ops",
            &"ns/cycle",
            &"words",
        ],
        &widths,
    );
    rule(&widths);

    let mut rows = Vec::new();
    for &(label, seamless) in &[("seamless", true), ("halt", false)] {
        for &dense in &[true, false] {
            let m = run(label, dense, seamless);
            row(
                &[
                    &m.label,
                    &(if m.dense { "dense" } else { "batched" }),
                    &m.sim_cycles,
                    &m.dispatches,
                    &m.route_ticks,
                    &m.folded_ops,
                    &format!("{:.1}", m.ns_per_cycle()),
                    &m.words,
                ],
                &widths,
            );
            rows.push(m);
        }
    }

    for pair in rows.chunks(2) {
        let (d, b) = (&pair[0], &pair[1]);
        let work_redux = d.route_work() as f64 / b.route_work().max(1) as f64;
        let ns_redux = d.ns_per_cycle() / b.ns_per_cycle().max(1e-9);
        println!(
            "\n  {}: batched does {:.1}x less per-route work than dense \
             ({:.2}% of dense), {:.2}x faster per simulated cycle",
            d.label,
            work_redux,
            100.0 * b.route_work() as f64 / d.route_work().max(1) as f64,
            ns_redux,
        );
    }

    match write_json("BENCH_fabric.json", &rows) {
        Ok(()) => println!("\n  wrote BENCH_fabric.json"),
        Err(e) => println!("\n  could not write BENCH_fabric.json: {e}"),
    }
}
