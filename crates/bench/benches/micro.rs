//! Micro-benchmarks: the hot paths of the simulator itself.
//!
//! These do not correspond to a paper table; they guard the performance
//! that makes the cycle-level experiments tractable (one fabric tick, one
//! FIFO operation, bitstream generation/parsing, channel establishment).
//! Timed with the in-tree harness in [`vapres_bench::bench`].

use vapres_bench::{banner, bench, bench_ns, black_box};
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
    let time = |name: &str, mut fabric: StreamFabric| {
        // E3's shape: node 0 streams to node 1, which loops every word
        // back, so both live routes carry traffic.
        let (iom, prr) = (PortRef::new(0, 0), PortRef::new(1, 0));
        let mut i = 0u32;
        bench_ns(name, || {
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
        })
    };
    let fresh = time("fabric_fresh_advance", build(0));
    let churned = time("fabric_churned_advance", build(1_000));
    println!(
        "  churn overhead: churned/fresh {:.2}x (1000 released slots)",
        churned / fresh
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

fn bench_metrics_overhead() {
    use vapres_sim::telemetry::Telemetry;

    // Every instrumentation site guards its registry work behind one
    // `Option` check, so a system that never calls `enable_telemetry`
    // pays a single predictable branch per site. Compare the same hot
    // loop bare, with a disabled (None) registry, and with a live one.
    let mut acc = 0u64;
    let mut work = move || {
        acc = black_box(acc.wrapping_mul(2_654_435_761).wrapping_add(1));
        acc
    };

    let bare = bench_ns("hot_loop_bare", || {
        black_box(work());
    });

    let mut registry = Telemetry::new();
    let id = registry.counter("bench_hot_total", &[]);
    let mut disabled: Option<Telemetry> = None;
    let off = bench_ns("hot_loop_metrics_disabled", || {
        black_box(work());
        if let Some(t) = disabled.as_mut() {
            t.inc(id, 1);
        }
    });

    let mut enabled = Some(registry);
    let on = bench_ns("hot_loop_metrics_enabled", || {
        black_box(work());
        if let Some(t) = enabled.as_mut() {
            t.inc(id, 1);
        }
    });

    println!(
        "  metrics overhead: disabled {:+.1}%, enabled {:+.1}% vs bare",
        (off - bare) / bare * 100.0,
        (on - bare) / bare * 100.0
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
    let mut acc = 0u64;
    let mut work = move || {
        acc = black_box(acc.wrapping_mul(2_654_435_761).wrapping_add(1));
        acc
    };

    let bare = bench_ns("hot_loop_bare", || {
        black_box(work());
    });

    let disabled: Option<TimeSeries> = None;
    let off = bench_ns("hot_loop_sampling_disabled", || {
        black_box(work());
        if let Some(ts) = disabled.as_ref() {
            black_box(ts.next_sample_at());
        }
    });

    let mut enabled = Some(TimeSeries::new(Ps::new(1024), 64, Ps::ZERO));
    let mut t_on: u64 = 0;
    let on = bench_ns("hot_loop_sampling_enabled", || {
        black_box(work());
        registry.inc(id, 1);
        t_on += 1;
        if let Some(ts) = enabled.as_mut() {
            if ts.next_sample_at() <= Ps::new(t_on) {
                ts.capture(Ps::new(t_on), &registry);
            }
        }
    });

    println!(
        "  sampling overhead: disabled {:+.1}%, enabled {:+.1}% vs bare",
        (off - bare) / bare * 100.0,
        (on - bare) / bare * 100.0
    );
}

fn bench_profile_overhead() {
    use vapres_sim::profile::{Profiler, DEFAULT_RING_CAPACITY};

    // The dispatch loop guards all profiler work behind one
    // `Option<Box<..>>` check, so a system that never calls
    // `enable_profiling` pays a single predictable branch per dispatch.
    // Compare the same hot loop bare, with a disabled (None) profiler,
    // and with a live one charging a work unit and timing a scope.
    let mut acc = 0u64;
    let mut work = move || {
        acc = black_box(acc.wrapping_mul(2_654_435_761).wrapping_add(1));
        acc
    };

    let bare = bench_ns("hot_loop_bare", || {
        black_box(work());
    });

    let mut disabled: Option<Profiler> = None;
    let off = bench_ns("hot_loop_profile_disabled", || {
        black_box(work());
        if let Some(p) = disabled.as_mut() {
            p.begin("bench");
            p.end();
        }
    });

    let mut prof = Profiler::new(DEFAULT_RING_CAPACITY);
    let unit = prof.work_mut().unit("bench/iters");
    let mut enabled = Some(prof);
    let on = bench_ns("hot_loop_profile_enabled", || {
        black_box(work());
        if let Some(p) = enabled.as_mut() {
            p.work_mut().add(unit, 1);
            p.begin("bench");
            p.end();
        }
    });

    println!(
        "  profile overhead: disabled {:+.1}%, enabled {:+.1}% vs bare",
        (off - bare) / bare * 100.0,
        (on - bare) / bare * 100.0
    );
}

fn main() {
    banner("micro", "simulator hot paths (best-of-3 batches)");
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
