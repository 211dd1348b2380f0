//! Micro-benchmarks: the hot paths of the simulator itself.
//!
//! These do not correspond to a paper table; they guard the performance
//! that makes the cycle-level experiments tractable (one fabric tick, one
//! FIFO operation, bitstream generation/parsing, channel establishment).
//! Timed with the in-tree harness in [`vapres_bench::bench`].

use std::time::Instant;

use vapres_bench::{banner, bench, black_box};
use vapres_bitstream::crc::Crc32;
use vapres_bitstream::stream::{ModuleUid, PartialBitstream};
use vapres_fabric::geometry::{ClbRect, Device};
use vapres_stream::fabric::{PortRef, StreamFabric};
use vapres_stream::fifo::AsyncFifo;
use vapres_stream::params::FabricParams;
use vapres_stream::word::Word;

fn bench_fifo() {
    let mut f = AsyncFifo::new(512);
    bench("fifo_push_pop", || {
        f.push(black_box(Word::data(7))).unwrap();
        black_box(f.pop());
    });
}

fn bench_fabric_tick() {
    for &routes in &[1usize, 4] {
        let params = FabricParams {
            nodes: 8,
            kr: 4,
            kl: 4,
            ki: 4,
            ko: 4,
            width_bits: 32,
            fifo_depth: 64,
        };
        let mut fabric = StreamFabric::new(params).unwrap();
        for r in 0..routes {
            fabric
                .establish_channel(PortRef::new(0, r), PortRef::new(7, r))
                .unwrap();
            fabric.set_fifo_ren(PortRef::new(0, r), true).unwrap();
            fabric.set_fifo_wen(PortRef::new(7, r), true).unwrap();
        }
        let mut i = 0u32;
        bench(&format!("fabric_tick/{routes}_routes"), || {
            for r in 0..routes {
                let p = PortRef::new(0, r);
                if fabric.producer_space(p).unwrap() > 0 {
                    fabric.producer_push(p, Word::data(i)).unwrap();
                }
            }
            fabric.tick();
            for r in 0..routes {
                while fabric.consumer_pop(PortRef::new(7, r)).unwrap().is_some() {}
            }
            i = i.wrapping_add(1);
        });
    }
}

fn bench_fabric_churn() {
    // A seamless swap releases two channels and establishes two more, and
    // channel ids are never reused. The per-route scans must not pay for
    // that history: the same streaming loop on a fabric behind 1,000
    // released slots should cost what it costs on a fresh one.
    let build = |released: usize| {
        let mut fabric = StreamFabric::new(FabricParams::prototype()).unwrap();
        let spare = PortRef::new(2, 0);
        for _ in 0..released {
            let ch = fabric.establish_channel(spare, spare).unwrap();
            fabric.release_channel(ch).unwrap();
        }
        for (p, c) in [(0, 1), (1, 0)] {
            let (p, c) = (PortRef::new(p, 0), PortRef::new(c, 0));
            fabric.establish_channel(p, c).unwrap();
            fabric.set_fifo_ren(p, true).unwrap();
            fabric.set_fifo_wen(c, true).unwrap();
        }
        fabric
    };
    // E3's shape: node 0 streams to node 1, which loops every word back,
    // so both live routes carry traffic.
    let stream = |mut fabric: StreamFabric| {
        let (iom, prr) = (PortRef::new(0, 0), PortRef::new(1, 0));
        let mut i = 0u32;
        move |acc| {
            if fabric.producer_space(iom).unwrap() > 0 {
                fabric.producer_push(iom, Word::data(i)).unwrap();
            }
            fabric.advance_to(fabric.ticks() + 4);
            black_box(fabric.next_wake_cycle());
            while let Some(w) = fabric.consumer_pop(prr).unwrap() {
                let _ = fabric.producer_push(prr, w);
            }
            while fabric.consumer_pop(iom).unwrap().is_some() {}
            i = i.wrapping_add(1);
            acc
        }
    };
    let (mut fresh, mut churned) = (stream(build(0)), stream(build(1_000)));
    let r = paired_ratios(&mut [
        ("fabric_fresh_advance", &mut |n| ns_per_iter(&mut fresh, n)),
        ("fabric_churned_advance", &mut |n| {
            ns_per_iter(&mut churned, n)
        }),
    ]);
    println!(
        "  churn overhead: churned/fresh {:.2}x (1000 released slots, median of paired rounds)",
        r[1]
    );
}

fn bench_bitstream() {
    let dev = Device::xc4vlx25();
    let rect = ClbRect::new(0, 9, 0, 15);
    bench("bitstream_generate_640slice", || {
        black_box(PartialBitstream::generate(&dev, &rect, ModuleUid(1)).unwrap());
    });
    let bs = PartialBitstream::generate(&dev, &rect, ModuleUid(1)).unwrap();
    bench("bitstream_parse_640slice", || {
        black_box(vapres_bitstream::stream::parse(bs.words()).unwrap());
    });
}

fn bench_crc() {
    let words: Vec<u32> = (0..1024u32).collect();
    bench("crc32_1kword", || {
        let mut crc = Crc32::new();
        crc.update_words(black_box(&words));
        black_box(crc.value());
    });
}

fn bench_channel_establish() {
    let params = FabricParams {
        nodes: 8,
        kr: 4,
        kl: 4,
        ki: 2,
        ko: 2,
        width_bits: 32,
        fifo_depth: 64,
    };
    let mut fabric = StreamFabric::new(params).unwrap();
    bench("establish_release_channel_7hops", || {
        let ch = fabric
            .establish_channel(PortRef::new(0, 0), PortRef::new(7, 0))
            .unwrap();
        fabric.release_channel(black_box(ch)).unwrap();
    });
}

/// The hot loop the overhead guards wrap, on an accumulator
/// [`ns_per_iter`] threads through: four rounds of a xor-shift-multiply
/// mix the compiler cannot fold, one dependency chain of ~20 cycles. A
/// never-taken instrumentation branch sits off that chain, so a guard
/// reads what the branch costs a live system, and a code-placement offset
/// between two copies of the loop stays a small fraction of one
/// iteration.
fn hot_work(mut acc: u64) -> u64 {
    for _ in 0..4 {
        acc = (acc ^ (acc >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(acc)
}

/// Runs `f` `n` times, threading an accumulator through the calls;
/// returns ns per call. The accumulator is a local here, so it stays in
/// a register in every variant: were it captured state, a store in a
/// variant's never-taken instrumentation branch could alias it and force
/// a reload per iteration that the bare loop does not pay, and the guard
/// would time that instead of the branch.
fn ns_per_iter(f: &mut impl FnMut(u64) -> u64, n: u64) -> f64 {
    let mut acc = 0;
    let t = Instant::now();
    for _ in 0..n {
        acc = f(acc);
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// A variant for [`paired_ratios`]: a name and a closure that runs the
/// loop body `n` times and returns ns per iteration (so the body itself
/// is called statically, not through the `dyn`).
type Variant<'a> = (&'a str, &'a mut dyn FnMut(u64) -> f64);

/// Slowdown of each variant relative to `variants[0]`, robust to host
/// drift. All variants are timed in many short rounds (~0.5 ms each),
/// in rotating order, and a variant's figure is the median over rounds
/// of its time divided by the baseline's time *in the same round*: load
/// or clock changes slower than a round cancel out of every ratio, and
/// the median drops the rounds a burst hit. Prints each variant's median
/// ns/iter and returns the median ratios (`[0]` is 1).
fn paired_ratios(variants: &mut [Variant<'_>]) -> Vec<f64> {
    const ROUNDS: usize = 201;
    const SLOT_NS: f64 = 500_000.0;
    for (_, run) in variants.iter_mut() {
        run(10_000);
    }
    let per_iter = variants[0].1(100_000).max(0.01);
    let batch = (SLOT_NS / per_iter).max(1.0) as u64;
    let k = variants.len();
    let mut times = vec![Vec::with_capacity(ROUNDS); k];
    let mut ratios = vec![Vec::with_capacity(ROUNDS); k];
    for round in 0..ROUNDS {
        let mut t = vec![0.0; k];
        for j in 0..k {
            let v = (round + j) % k;
            t[v] = variants[v].1(batch);
        }
        for v in 0..k {
            times[v].push(t[v]);
            ratios[v].push(t[v] / t[0]);
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    for (v, (name, _)) in variants.iter().enumerate() {
        let ns = median(&mut times[v]);
        println!("  {name:<44} {ns:>12.1} ns/iter");
    }
    ratios.iter_mut().map(median).collect()
}

fn bench_metrics_overhead() {
    use vapres_sim::telemetry::Telemetry;

    // Every instrumentation site guards its registry work behind one
    // `Option` check, so a system that never calls `enable_telemetry`
    // pays a single predictable branch per site. Compare the same hot
    // loop bare, with a disabled (None) registry, and with a live one.
    let mut registry = Telemetry::new();
    let id = registry.counter("bench_hot_total", &[]);
    let mut disabled: Option<Telemetry> = None;
    let mut enabled = Some(registry);
    let mut bare = hot_work;
    let mut off = |acc| {
        let acc = hot_work(acc);
        if let Some(t) = black_box(&mut disabled).as_mut() {
            t.inc(id, 1);
        }
        acc
    };
    let mut on = |acc| {
        let acc = hot_work(acc);
        if let Some(t) = enabled.as_mut() {
            t.inc(id, 1);
        }
        acc
    };
    let r = paired_ratios(&mut [
        ("hot_loop_bare", &mut |n| ns_per_iter(&mut bare, n)),
        ("hot_loop_metrics_disabled", &mut |n| {
            ns_per_iter(&mut off, n)
        }),
        ("hot_loop_metrics_enabled", &mut |n| ns_per_iter(&mut on, n)),
    ]);
    println!(
        "  metrics overhead: disabled {:+.1}%, enabled {:+.1}% vs bare (median of paired rounds)",
        (r[1] - 1.0) * 100.0,
        (r[2] - 1.0) * 100.0
    );
}

fn bench_sampling_overhead() {
    use vapres_core::Ps;
    use vapres_sim::telemetry::Telemetry;
    use vapres_sim::timeseries::TimeSeries;

    // The run loop consults `Option<TimeSeries>` once per bounded slice
    // to find the next sample boundary; a system that never calls
    // `enable_timeseries` pays only that check. Compare the same hot
    // loop bare, with a disabled (None) sampler, and with a live one
    // capturing a frame every 1024 iterations.
    let mut registry = Telemetry::new();
    let id = registry.counter("bench_sampled_total", &[]);
    let disabled: Option<TimeSeries> = None;
    let mut enabled = Some(TimeSeries::new(Ps::new(1024), 64, Ps::ZERO));
    let mut t_on: u64 = 0;
    let mut bare = hot_work;
    let mut off = |acc| {
        let acc = hot_work(acc);
        if let Some(ts) = black_box(&disabled).as_ref() {
            black_box(ts.next_sample_at());
        }
        acc
    };
    let mut on = |acc| {
        let acc = hot_work(acc);
        registry.inc(id, 1);
        t_on += 1;
        if let Some(ts) = enabled.as_mut() {
            if ts.next_sample_at() <= Ps::new(t_on) {
                ts.capture(Ps::new(t_on), &registry);
            }
        }
        acc
    };
    let r = paired_ratios(&mut [
        ("hot_loop_bare", &mut |n| ns_per_iter(&mut bare, n)),
        ("hot_loop_sampling_disabled", &mut |n| {
            ns_per_iter(&mut off, n)
        }),
        ("hot_loop_sampling_enabled", &mut |n| {
            ns_per_iter(&mut on, n)
        }),
    ]);
    println!(
        "  sampling overhead: disabled {:+.1}%, enabled {:+.1}% vs bare (median of paired rounds)",
        (r[1] - 1.0) * 100.0,
        (r[2] - 1.0) * 100.0
    );
}

fn bench_profile_overhead() {
    use vapres_sim::profile::{Profiler, DEFAULT_RING_CAPACITY};

    // The dispatch loop guards all profiler work behind one
    // `Option<Box<..>>` check, so a system that never calls
    // `enable_profiling` pays a single predictable branch per dispatch.
    // Compare the same hot loop bare, with a disabled (None) profiler,
    // and with a live one timing each iteration either exactly
    // (`begin`/`end`, a name search and two clock reads every time) or
    // sampled (`dispatch` on a resolved scope, the path every component
    // dispatch takes). The profiler counts no work: a system's work rows
    // are its own persisted counters.
    let mut prof = Profiler::new(DEFAULT_RING_CAPACITY);
    prof.begin("run");
    let scope = prof.resolve("bench");
    let mut disabled: Option<Profiler> = None;
    let mut exact_prof = Some(prof.clone());
    let mut sampled_prof = Some(prof);
    let mut bare = hot_work;
    let mut off = |acc| {
        let acc = hot_work(acc);
        if let Some(p) = black_box(&mut disabled).as_mut() {
            p.begin("bench");
            p.end();
        }
        acc
    };
    let mut exact = |acc| {
        if let Some(p) = exact_prof.as_mut() {
            p.begin("bench");
            let acc = hot_work(acc);
            p.end();
            return acc;
        }
        hot_work(acc)
    };
    let mut sampled = |acc| {
        if let Some(p) = sampled_prof.as_mut() {
            return p.dispatch(scope, || hot_work(acc));
        }
        hot_work(acc)
    };
    let r = paired_ratios(&mut [
        ("hot_loop_bare", &mut |n| ns_per_iter(&mut bare, n)),
        ("hot_loop_profile_disabled", &mut |n| {
            ns_per_iter(&mut off, n)
        }),
        ("hot_loop_profile_exact", &mut |n| {
            ns_per_iter(&mut exact, n)
        }),
        ("hot_loop_profile_sampled", &mut |n| {
            ns_per_iter(&mut sampled, n)
        }),
    ]);
    println!(
        "  profile overhead: disabled {:+.1}%, exact {:+.1}%, sampled {:+.1}% vs bare (median of paired rounds)",
        (r[1] - 1.0) * 100.0,
        (r[2] - 1.0) * 100.0,
        (r[3] - 1.0) * 100.0
    );
    let r = paired_ratios(&mut [
        ("hot_loop_profile_exact", &mut |n| {
            ns_per_iter(&mut exact, n)
        }),
        ("hot_loop_profile_sampled", &mut |n| {
            ns_per_iter(&mut sampled, n)
        }),
    ]);
    println!(
        "  profile sampling overhead: sampled/exact {:.3} (median of paired rounds)",
        r[1]
    );
}

fn main() {
    banner(
        "micro",
        "simulator hot paths (best-of-3 batches; overhead guards: median of paired rounds)",
    );
    println!();
    bench_fifo();
    bench_fabric_tick();
    bench_fabric_churn();
    bench_bitstream();
    bench_crc();
    bench_channel_establish();
    bench_metrics_overhead();
    bench_sampling_overhead();
    bench_profile_overhead();
}
