//! Seeded randomized equivalence sweep for the event-horizon batching
//! engine (`advance_to`) against the dense per-cycle oracle
//! (`tick_dense`).
//!
//! Two layers of checking:
//!
//! * **Fabric lockstep** — two [`StreamFabric`]s receive an identical
//!   seeded schedule of random port enables/disables, pushes, pops,
//!   channel establishment/release/re-establishment, node FIFO resets,
//!   and feedback-threshold overrides. One advances with `tick_dense`
//!   cycle by cycle, the other with `advance_to` in random strides.
//!   After every stride the full observable state must be bit-identical:
//!   FIFO occupancies and high-water marks, gated/overflow drop
//!   counters, per-channel delivered/stall/backpressure counters, the
//!   quiescence verdict, every captured FIFO threshold-crossing event,
//!   every word-tap stage timing, and every popped word.
//!
//! * **System sweep** — the E3 seamless-swap scenario runs dense and
//!   event-driven, and the *entire telemetry snapshot* (channel
//!   counters, drop counters, FIFO high-water gauges, IOM gap metrics,
//!   word-trace histograms) must serialize identically, modulo the
//!   `exec_*` scheduler counters whose whole point is to differ.

use vapres::sim::persist::{Persist, Reader, Writer};
use vapres::sim::rng::SplitMix64;
use vapres::stream::fabric::{ChannelId, PortRef, StreamFabric};
use vapres::stream::params::FabricParams;
use vapres::stream::word::Word;

/// Small fabric, shallow FIFOs: full/backpressure/overflow paths get
/// exercised quickly.
fn small_params() -> FabricParams {
    FabricParams {
        nodes: 4,
        kr: 2,
        kl: 2,
        ki: 2,
        ko: 2,
        width_bits: 32,
        fifo_depth: 8,
    }
}

fn new_fabric() -> StreamFabric {
    let mut f = StreamFabric::new(small_params()).expect("params valid");
    f.enable_word_tap();
    // A bound no drain interval reaches: every crossing is compared.
    f.set_event_capture(1 << 16);
    f
}

/// Everything observable about a fabric through its public API, in one
/// comparable value.
#[derive(Debug, PartialEq)]
struct Digest {
    ticks: u64,
    next_wake: Option<u64>,
    quiescent: bool,
    active_routes: usize,
    /// Per producer port: (len, space, high_water).
    producers: Vec<(usize, usize, usize)>,
    /// Per consumer port: (len, high_water, gated_drops, overflow_drops).
    consumers: Vec<(usize, usize, u64, u64)>,
    /// Per live channel: (producer, consumer, hops, delivered,
    /// stall_cycles, backpressure_cycles).
    channels: Vec<(PortRef, PortRef, usize, u64, u64, u64)>,
    /// Word-tap stage timings per tag, sorted by tag.
    tap: Vec<(u32, u64, u64, u64, u32)>,
}

fn digest(f: &StreamFabric, live: &[ChannelId]) -> Digest {
    let p = *f.params();
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for node in 0..p.nodes {
        for port in 0..p.ko {
            let r = PortRef::new(node, port);
            producers.push((
                f.producer_len(r).unwrap(),
                f.producer_space(r).unwrap(),
                f.producer_high_water(r).unwrap(),
            ));
        }
        for port in 0..p.ki {
            let r = PortRef::new(node, port);
            consumers.push((
                f.consumer_len(r).unwrap(),
                f.consumer_high_water(r).unwrap(),
                f.consumer_gated_drops(r).unwrap(),
                f.consumer_overflow_drops(r).unwrap(),
            ));
        }
    }
    let channels = live
        .iter()
        .map(|&id| {
            let i = f.channel_info(id).expect("live channel");
            (
                i.producer,
                i.consumer,
                i.hops,
                i.delivered,
                i.stall_cycles,
                i.backpressure_cycles,
            )
        })
        .collect();
    let mut tap: Vec<_> = f
        .word_tap()
        .expect("tap enabled")
        .all_stats()
        .map(|(tag, s)| {
            (
                tag,
                s.producer_wait_cycles,
                s.hop_cycles,
                s.consumer_wait_cycles,
                s.hops,
            )
        })
        .collect();
    tap.sort_by_key(|t| t.0);
    Digest {
        ticks: f.ticks(),
        next_wake: f.next_wake_cycle(),
        quiescent: f.is_quiescent(),
        active_routes: f.active_route_count(),
        producers,
        consumers,
        channels,
        tap,
    }
}

/// Asserts every fabric answered an operation the same way.
fn assert_agree<T: PartialEq + std::fmt::Debug>(answers: &[T], what: &str, step: usize) {
    assert!(
        answers.iter().all(|a| *a == answers[0]),
        "{what} diverged @{step}: {answers:?}"
    );
}

/// One random mutation applied identically to every fabric; asserts the
/// operation's immediate result (push acceptance, popped word, channel
/// establishment) matches between them. `lives[i]` lists fabric `i`'s
/// live channel ids in a shared order. Ids may differ between fabrics with
/// different channel histories, so every fabric must agree on whether an
/// establishment failed, and the fabrics marked in `twins` (same history
/// as the oracle) must also hand out the same new id.
fn apply_op(
    rng: &mut SplitMix64,
    fabrics: &mut [StreamFabric],
    lives: &mut [Vec<ChannelId>],
    twins: &[bool],
    next_tag: &mut u32,
    step: usize,
) {
    let p = small_params();
    let prod = PortRef::new(rng.gen_usize(0..p.nodes), rng.gen_usize(0..p.ko));
    let cons = PortRef::new(rng.gen_usize(0..p.nodes), rng.gen_usize(0..p.ki));
    let n_live = lives[0].len();
    match rng.gen_usize(0..100) {
        // Push a word (sometimes tagged for the tap, sometimes EOS).
        0..=34 => {
            let mut w = if rng.gen_bool(0.05) {
                Word::end_of_stream()
            } else {
                Word::data(rng.next_u32())
            };
            if rng.gen_bool(0.25) {
                w = w.with_tag(Some(*next_tag));
                *next_tag += 1;
            }
            let accepted: Vec<bool> = fabrics
                .iter_mut()
                .map(|f| f.producer_push(prod, w).is_ok())
                .collect();
            assert_agree(&accepted, "push acceptance", step);
        }
        // Pop a word: bit-identical payload, EOS flag, and trace tag.
        35..=59 => {
            let popped: Vec<_> = fabrics
                .iter_mut()
                .map(|f| {
                    f.consumer_pop(cons)
                        .unwrap()
                        .map(|w| (w.data, w.end_of_stream, w.tag()))
                })
                .collect();
            assert_agree(&popped, "popped word", step);
        }
        // Gate / ungate interface FIFOs (the swap sequencer's levers).
        60..=69 => {
            let on = rng.gen_bool(0.7);
            fabrics
                .iter_mut()
                .for_each(|f| f.set_fifo_ren(prod, on).unwrap());
        }
        70..=79 => {
            let on = rng.gen_bool(0.7);
            fabrics
                .iter_mut()
                .for_each(|f| f.set_fifo_wen(cons, on).unwrap());
        }
        // Establish / release routes (re-establishment reuses slots).
        80..=89 => {
            if n_live > 0 && rng.gen_bool(0.5) {
                let k = rng.gen_usize(0..n_live);
                for (f, live) in fabrics.iter_mut().zip(lives.iter_mut()) {
                    f.release_channel(live.swap_remove(k)).unwrap();
                }
            } else {
                let made: Vec<_> = fabrics
                    .iter_mut()
                    .map(|f| f.establish_channel(prod, cons))
                    .collect();
                let errors: Vec<_> = made.iter().map(|r| r.as_ref().err()).collect();
                assert_agree(&errors, "channel establishment", step);
                let shared: Vec<_> = made
                    .iter()
                    .zip(twins)
                    .filter(|(_, twin)| **twin)
                    .map(|(r, _)| r)
                    .collect();
                assert_agree(&shared, "established channel id", step);
                for (id, live) in made.into_iter().zip(lives.iter_mut()) {
                    if let Ok(id) = id {
                        live.push(id);
                    }
                }
            }
        }
        // Hard reset of one node's interfaces (isolation during reconfig).
        90..=93 => {
            let node = rng.gen_usize(0..p.nodes);
            fabrics.iter_mut().for_each(|f| f.reset_node_fifos(node));
        }
        // Shrink a feedback threshold (the E9 ablation lever) so the
        // overflow-drop path actually fires under load.
        94..=96 if n_live > 0 => {
            let k = rng.gen_usize(0..n_live);
            let thr = rng.gen_usize(0..4);
            for (f, live) in fabrics.iter_mut().zip(lives.iter()) {
                f.set_feedback_threshold(live[k], thr).unwrap();
            }
        }
        _ => {} // breather: let the fabrics run undisturbed
    }
}

/// Runs `steps` rounds of random operations and random strides over
/// `fabrics`. The first fabric steps cycle by cycle with `tick_dense` (the
/// oracle); the others jump each stride with `advance_to`. After every
/// stride all of them must agree on everything observable. Fabrics that
/// start with the oracle's live ids share its history and must also agree
/// on every channel id they hand out.
fn drive_lockstep(
    rng: &mut SplitMix64,
    fabrics: &mut [StreamFabric],
    lives: &mut [Vec<ChannelId>],
    steps: usize,
    label: &str,
) {
    let twins: Vec<bool> = lives.iter().map(|live| *live == lives[0]).collect();
    let mut next_tag = 0u32;
    for step in 0..steps {
        for _ in 0..rng.gen_usize(0..4) {
            apply_op(rng, fabrics, lives, &twins, &mut next_tag, step);
        }

        let stride = rng.gen_range(1..17);
        let (dense, batched) = fabrics.split_first_mut().expect("an oracle");
        for _ in 0..stride {
            dense.tick_dense();
        }
        for f in batched.iter_mut() {
            f.advance_to(f.ticks() + stride);
        }

        let digests: Vec<Digest> = fabrics
            .iter()
            .zip(lives.iter())
            .map(|(f, live)| digest(f, live))
            .collect();
        assert_agree(&digests, &format!("state ({label}, stride {stride})"), step);
        let events: Vec<Vec<_>> = fabrics
            .iter_mut()
            .map(|f| f.drain_fifo_events().collect())
            .collect();
        assert_agree(&events, &format!("FIFO edge events ({label})"), step);
    }

    // The batched fabrics never paid per-cycle: all their work was either
    // folded spans or exact event-horizon cycles.
    for f in &fabrics[1..] {
        assert_eq!(
            f.dispatched_route_ticks(),
            0,
            "batched engine fell back to dense ticks ({label})"
        );
    }
}

fn lockstep_sweep(seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut fabrics = [new_fabric(), new_fabric()];
    let mut lives = [Vec::new(), Vec::new()];
    drive_lockstep(
        &mut rng,
        &mut fabrics,
        &mut lives,
        steps,
        &format!("seed {seed}"),
    );
}

/// The headline satellite: many seeds, hundreds of randomized steps
/// each, bit-equality of *everything observable* at every stride.
#[test]
fn randomized_lockstep_matches_dense_oracle() {
    for seed in 0..8u64 {
        lockstep_sweep(0xFAB1C + seed, 300);
    }
}

/// Long single-seed soak: deep strides over long-lived routes so folds
/// cover self-sustaining, draining, stalled, and backpressured spans.
#[test]
fn long_soak_lockstep_matches_dense_oracle() {
    lockstep_sweep(0x5EED_CAFE, 1500);
}

/// A fabric behind 1,000 released channels behaves exactly like one that
/// never had them: the per-route scans walk live routes only, in
/// ascending id order, so neither the results nor their order depend on
/// the channel history.
#[test]
fn churned_fabric_matches_a_fresh_one_and_the_dense_oracle() {
    let a = (PortRef::new(0, 0), PortRef::new(2, 0));
    let b = (PortRef::new(3, 1), PortRef::new(1, 1));
    let open = |f: &mut StreamFabric, (p, c): (PortRef, PortRef)| {
        let id = f.establish_channel(p, c).unwrap();
        f.set_fifo_ren(p, true).unwrap();
        f.set_fifo_wen(c, true).unwrap();
        id
    };

    let mut churned = new_fabric();
    let first = open(&mut churned, a);
    for _ in 0..1_000 {
        let id = churned
            .establish_channel(PortRef::new(1, 0), PortRef::new(2, 1))
            .unwrap();
        churned.release_channel(id).unwrap();
    }
    let last = open(&mut churned, b);
    assert_eq!((first, last), (ChannelId(0), ChannelId(1_001)));
    assert_eq!(churned.active_channels(), [first, last]);

    let mut fresh = new_fabric();
    let fresh_ids = vec![open(&mut fresh, a), open(&mut fresh, b)];
    let mut fabrics = [churned.clone(), churned, fresh];
    let mut lives = [vec![first, last], vec![first, last], fresh_ids];
    let mut rng = SplitMix64::new(0xC4_0011);
    drive_lockstep(&mut rng, &mut fabrics, &mut lives, 400, "churned");

    let [_, churned, fresh] = &fabrics;
    // Same fold work on the live routes, whatever the history.
    assert_eq!(churned.folded_ops(), fresh.folded_ops());
    let work = |f: &StreamFabric, live: &[ChannelId]| -> Vec<u64> {
        live.iter()
            .map(|&id| f.channel_info(id).unwrap().work_ops)
            .collect()
    };
    assert_eq!(work(churned, &lives[1]), work(fresh, &lives[2]));

    // Checkpoint -> restore -> checkpoint is byte-identical, and the
    // restored live index lists the same channels in ascending order.
    let encode = |f: &StreamFabric| {
        let mut w = Writer::new();
        f.persist(&mut w);
        w.into_bytes()
    };
    let image = encode(churned);
    let mut reader = Reader::new(&image);
    let restored = StreamFabric::restore(&mut reader).unwrap();
    reader.expect_end().unwrap();
    assert_eq!(encode(&restored), image);
    let ids = restored.active_channels();
    assert_eq!(ids, churned.active_channels());
    assert!(ids.windows(2).all(|w| w[0].0 < w[1].0), "{ids:?}");
    let mut sorted = lives[1].clone();
    sorted.sort_by_key(|id| id.0);
    assert_eq!(ids, sorted);
}

mod system_sweep {
    use vapres::core::config::SystemConfig;
    use vapres::core::module::ModuleLibrary;
    use vapres::core::scenario::SwapMethod;
    use vapres::core::switching::seamless_swap;
    use vapres::core::system::VapresSystem;
    use vapres::core::Ps;
    use vapres::kpn::e3::{swap_spec, Arrangement};
    use vapres::modules::register_standard_modules;

    const SAMPLE_INTERVAL: u64 = 500;
    const N_SAMPLES: u32 = 1_000;

    /// Runs the E3 seamless-swap scenario and returns the serialized
    /// telemetry snapshot with the scheduler's own (`exec_*`) counters
    /// removed — those measure elided work and *must* differ between
    /// modes, while everything else must not.
    fn run_and_snapshot(dense: bool) -> (Vec<String>, Ps) {
        let mut lib = ModuleLibrary::new();
        register_standard_modules(&mut lib, 0);
        let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
        sys.set_dense(dense);
        sys.enable_telemetry();
        sys.enable_word_trace(16);
        sys.iom_set_input_interval(0, SAMPLE_INTERVAL);

        let channels = Arrangement::fig5(SwapMethod::Seamless)
            .deploy(&mut sys)
            .unwrap();

        let input: Vec<u32> = (0..N_SAMPLES).map(|i| (i * 97) % 10_007).collect();
        sys.iom_feed(0, input.iter().copied());
        sys.run_for(Ps::from_ms(1));

        let spec = swap_spec(1, 2, "fir_b", channels);
        seamless_swap(&mut sys, &spec).expect("swap succeeds");

        let expected_total = input.len() + 1;
        let done = sys.run_until(Ps::from_ms(200), |s| {
            s.iom_output(0).len() >= expected_total && s.iom_pending_input(0) == 0
        });
        assert!(done, "stream did not finish (dense={dense})");
        let now = sys.now();

        let mut out = Vec::new();
        sys.snapshot_metrics()
            .expect("telemetry enabled")
            .write_jsonl(&mut out)
            .expect("vec write");
        let mut lines: Vec<String> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .filter(|l| !l.contains("\"exec_"))
            .map(str::to_owned)
            .collect();
        lines.sort();
        (lines, now)
    }

    /// Every non-scheduler telemetry record — channel delivered/stall/
    /// backpressure counters, dropped-word counters, FIFO high-water
    /// gauges, IOM gap metrics, fabric tick count, word-trace stage
    /// histograms — is bit-identical between the dense oracle and the
    /// batched event-driven run of the full E3 swap.
    #[test]
    fn e3_swap_telemetry_is_mode_invariant() {
        let (dense, dense_now) = run_and_snapshot(true);
        let (lazy, lazy_now) = run_and_snapshot(false);
        assert_eq!(dense_now, lazy_now, "final sim time diverged");
        assert_eq!(dense.len(), lazy.len(), "telemetry record count diverged");
        for (d, l) in dense.iter().zip(&lazy) {
            assert_eq!(d, l, "telemetry record diverged");
        }
    }
}
