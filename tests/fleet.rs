//! Randomized restore ≡ never-stopped equivalence of the fleet.
//!
//! The fleet checkpoint contract is: for ANY interleaving of `run_for`
//! and `with_rsb` calls, a fleet checkpointed at any point and restored
//! continues bit-identically to one that never stopped. This test drives
//! fleets through seeded-random schedules — random stride lengths,
//! random software events against random RSBs (feeds, probes, nested
//! local runs, cadence changes) — checkpoints and restores one copy at a
//! seeded op index, and compares a digest of every RSB after EVERY op,
//! then the full observable set and the checkpoint bytes at the end. The
//! op list is a plain `Vec` built from a `SplitMix64` seed, so any
//! failure replays exactly.

use std::sync::Arc;

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::{FleetSystem, PortRef, Ps, ShardPlan, SharedRegister, SplitMix64};
use vapres::modules::{register_standard_modules, uids};

const RSBS: usize = 4;

/// One step of a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance the whole fleet.
    Run(Ps),
    /// A software event against one RSB.
    With(usize, Action),
}

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Feed `n` more input words.
    Feed(u32),
    /// Zero-cost read (still runs the alignment loop).
    Probe,
    /// Nested local run: the target advances under software control
    /// while the others wait, then everyone re-aligns.
    LocalRun(Ps),
    /// Change the input cadence mid-stream.
    SetInterval(u64),
}

/// A seeded schedule: `n` ops drawn from the full action mix.
fn schedule(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| match rng.next_u64() % 5 {
            0 => Op::Run(Ps::from_us(10 + rng.next_u64() % 300)),
            1 => Op::With(
                rng.gen_usize(0..RSBS),
                Action::Feed(1 + (rng.next_u64() % 32) as u32),
            ),
            2 => Op::With(rng.gen_usize(0..RSBS), Action::Probe),
            3 => Op::With(
                rng.gen_usize(0..RSBS),
                Action::LocalRun(Ps(1 + rng.next_u64() % 2_000_000)),
            ),
            _ => Op::With(
                rng.gen_usize(0..RSBS),
                Action::SetInterval(40 + rng.next_u64() % 200),
            ),
        })
        .collect()
}

fn configs() -> Vec<SystemConfig> {
    (0..RSBS).map(|_| SystemConfig::prototype()).collect()
}

fn build() -> FleetSystem {
    let mut fleet = FleetSystem::new(configs(), |lib| register_standard_modules(lib, 0))
        .expect("prototype fleet builds");
    for rsb in 0..RSBS {
        fleet.with_rsb(rsb, move |sys| {
            sys.enable_telemetry();
            sys.enable_word_trace(5);
            sys.enable_flight_recorder(256);
            sys.iom_set_input_interval(0, 80 + 40 * rsb as u64);
            sys.install_bitstream(0, uids::FIR_A, "fir_a.bit").unwrap();
            sys.vapres_cf2icap("fir_a.bit").unwrap();
            sys.vapres_establish_channel(PortRef::new(0, 0), PortRef::new(1, 0))
                .unwrap();
            sys.vapres_establish_channel(PortRef::new(1, 0), PortRef::new(0, 0))
                .unwrap();
            sys.bring_up_node(0, false).unwrap();
            sys.bring_up_node(1, false).unwrap();
            sys.iom_feed(0, 0..64u32);
        });
    }
    fleet
}

fn restore(image: &[u8]) -> FleetSystem {
    let register: SharedRegister =
        Arc::new(|lib: &mut ModuleLibrary| register_standard_modules(lib, 0));
    FleetSystem::restore(configs(), register, ShardPlan::round_robin(RSBS, 1), image)
        .expect("fleet image restores")
}

fn apply(fleet: &mut FleetSystem, op: Op) {
    match op {
        Op::Run(dur) => fleet.run_for(dur),
        Op::With(rsb, action) => fleet.with_rsb(rsb, move |sys| match action {
            Action::Feed(n) => sys.iom_feed(0, 0..n),
            Action::Probe => {
                let _ = (sys.iom_pending_input(0), sys.iom_output(0).len());
            }
            Action::LocalRun(dur) => sys.run_for(dur),
            Action::SetInterval(cycles) => sys.iom_set_input_interval(0, cycles),
        }),
    }
}

/// The cheap per-op digest: global time plus each RSB's clock, queue
/// depth, and emitted-word count.
fn digest(fleet: &mut FleetSystem) -> String {
    let mut d = format!("now={}", fleet.now().as_ps());
    for rsb in 0..RSBS {
        let (at, pending, out) = fleet.with_rsb(rsb, |sys| {
            (
                sys.now().as_ps(),
                sys.iom_pending_input(0),
                sys.iom_output(0).len(),
            )
        });
        d.push_str(&format!(" rsb{rsb}=({at},{pending},{out})"));
    }
    d
}

/// The full end-of-run observable set, per RSB: every output word with
/// its timestamp, the word-trace tape, telemetry JSONL, flight JSONL,
/// and the fleet checkpoint bytes.
fn observables(fleet: &mut FleetSystem) -> String {
    let mut out = String::new();
    for rsb in 0..RSBS {
        let per: String = fleet.with_rsb(rsb, move |sys| {
            let mut s = format!("rsb={rsb} now={}\n", sys.now().as_ps());
            s.push_str(&format!("outputs={:?}\n", sys.iom_output(0)));
            let wt = sys.word_trace().expect("word trace enabled");
            s.push_str(&format!(
                "trace tagged={} completed={} latencies={:?}\n",
                wt.tagged(),
                wt.completed(),
                wt.latencies_ps()
            ));
            let mut buf = Vec::new();
            sys.snapshot_metrics()
                .unwrap()
                .write_jsonl(&mut buf)
                .unwrap();
            s.push_str(&String::from_utf8(buf).unwrap());
            let mut buf = Vec::new();
            sys.flight().unwrap().write_jsonl(&mut buf).unwrap();
            s.push_str(&String::from_utf8(buf).unwrap());
            s
        });
        out.push_str(&per);
    }
    out.push_str(&format!("checkpoint={:x?}\n", fleet.checkpoint()));
    out
}

#[test]
fn randomized_schedules_restore_like_never_stopped() {
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE] {
        let ops = schedule(seed, 40);
        let cut = SplitMix64::new(!seed).gen_usize(0..ops.len() + 1);
        let mut never_stopped = build();
        let want: Vec<String> = ops
            .iter()
            .map(|&op| {
                apply(&mut never_stopped, op);
                digest(&mut never_stopped)
            })
            .collect();

        let mut fleet = build();
        for &op in &ops[..cut] {
            apply(&mut fleet, op);
        }
        let image = fleet.checkpoint();
        drop(fleet);
        let mut fleet = restore(&image);
        assert_eq!(
            fleet.checkpoint(),
            image,
            "seed {seed:#x}: restore then checkpoint changed the image"
        );
        for (i, &op) in ops.iter().enumerate().skip(cut) {
            apply(&mut fleet, op);
            assert_eq!(
                digest(&mut fleet),
                want[i],
                "seed {seed:#x}, restored at op {cut}, op {i} ({op:?}): diverged"
            );
        }
        assert_eq!(
            observables(&mut fleet),
            observables(&mut never_stopped),
            "seed {seed:#x}, restored at op {cut}: final observables diverged"
        );
    }
}
