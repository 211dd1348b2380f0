//! Flight-recorder integration: ring semantics under system load and
//! the dump-on-`SwapError` causal trail.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::scenario::SwapMethod;
use vapres::core::switching::{seamless_swap, BitstreamSource, SwapSpec};
use vapres::core::system::VapresSystem;
use vapres::core::Ps;
use vapres::kpn::e3::{swap_spec, Arrangement};
use vapres::modules::register_standard_modules;
use vapres::sim::flight::{FlightEvent, FlightRecorder};

/// The Fig. 5 / E3 system with the flight recorder armed.
fn fig5_system(capacity: usize) -> (VapresSystem, SwapSpec) {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
    sys.enable_flight_recorder(capacity);
    sys.iom_set_input_interval(0, 500);

    let channels = Arrangement::fig5(SwapMethod::Seamless)
        .deploy(&mut sys)
        .unwrap();

    let spec = swap_spec(1, 2, "fir_b", channels);
    (sys, spec)
}

#[test]
fn small_ring_wraps_but_keeps_the_newest_events_in_order() {
    // A whole E3 setup + swap generates far more than 8 events; the ring
    // must retain exactly the last 8, oldest first, with contiguous
    // sequence numbers.
    let (mut sys, spec) = fig5_system(8);
    sys.iom_feed(0, 0..2_000u32);
    sys.run_for(Ps::from_ms(1));
    seamless_swap(&mut sys, &spec).expect("swap succeeds");

    let fr = sys.flight().expect("recorder armed");
    assert_eq!(fr.len(), 8);
    assert!(fr.overwritten() > 0, "setup + swap must overflow 8 slots");
    let entries: Vec<_> = fr.events().collect();
    for pair in entries.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "sequence gap in ring");
        assert!(pair[1].at >= pair[0].at, "timestamps must be monotone");
    }
    assert_eq!(fr.total_recorded(), fr.overwritten() + 8);
}

#[test]
fn capacity_one_ring_holds_exactly_the_last_event() {
    let (mut sys, spec) = fig5_system(1);
    sys.iom_feed(0, 0..2_000u32);
    sys.run_for(Ps::from_ms(1));
    seamless_swap(&mut sys, &spec).expect("swap succeeds");

    // Drain the stream so fabric FIFO edges after the swap are absorbed
    // into the ring too; whatever happened last, there is exactly one.
    sys.run_until(Ps::from_ms(300), |s| s.iom_pending_input(0) == 0);
    let fr = sys.flight().expect("recorder armed");
    assert_eq!(fr.len(), 1);
    let last = fr.events().next().unwrap();
    assert_eq!(last.seq, fr.total_recorded() - 1);
    let mut buf = Vec::new();
    fr.write_jsonl(&mut buf).unwrap();
    assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
}

#[test]
fn swap_error_leaves_the_failing_step_in_the_ring_tail() {
    let (mut sys, mut spec) = fig5_system(vapres::sim::flight::DEFAULT_CAPACITY);
    spec.source = BitstreamSource::Sdram("nonexistent".into());
    sys.iom_feed(0, 0..2_000u32);
    sys.run_for(Ps::from_ms(1));

    let err = seamless_swap(&mut sys, &spec);
    assert!(err.is_err(), "missing SDRAM array must fail the swap");

    // The dump's tail is the causal trail: the swap entered step 1, then
    // step 2, then died there — and SwapFailed is the last swap event.
    let mut buf = Vec::new();
    sys.dump_flight_jsonl(&mut buf).unwrap();
    let dump = String::from_utf8(buf).unwrap();
    assert!(dump.contains("\"event\":\"swap_step\""), "{dump}");
    assert!(dump.contains("\"step\":\"1_resolve_endpoints\""), "{dump}");

    let fr = sys.flight().expect("recorder armed");
    let swap_events: Vec<&FlightEvent> = fr
        .events()
        .map(|e| &e.event)
        .filter(|e| {
            matches!(
                e,
                FlightEvent::SwapStep { .. } | FlightEvent::SwapFailed { .. }
            )
        })
        .collect();
    assert_eq!(
        swap_events.last(),
        Some(&&FlightEvent::SwapFailed {
            method: "seamless",
            step: "2_reconfigure_spare",
        }),
        "last swap event must name the step that died"
    );
    // The swap never got past reconfiguration: no step-3 entry exists.
    assert!(!dump.contains("3_bring_up_spare"), "{dump}");
}

#[test]
fn standalone_recorder_capacity_one_wraparound() {
    let mut fr = FlightRecorder::new(1);
    for n in 0..10u32 {
        fr.record(Ps::from_ns(n as u64), FlightEvent::DcrWrite { node: n });
    }
    assert_eq!(fr.len(), 1);
    assert_eq!(fr.overwritten(), 9);
    let only: Vec<_> = fr.events().collect();
    assert_eq!(only.len(), 1);
    assert_eq!(only[0].seq, 9);
    assert_eq!(only[0].event, FlightEvent::DcrWrite { node: 9 });
}

#[test]
fn long_quiet_stream_keeps_the_newest_crossings_at_any_sync_cadence() {
    // More than 65,536 FIFO crossings with no control event in between:
    // the ring must end on the newest `CAPACITY` crossings, `seq` must
    // count every one, and how often the host looked at the ring in the
    // meantime must not show in the dump.
    const CAPACITY: usize = 4_096;
    const SLICE: Ps = Ps::from_us(250);
    let run = |capacity: usize, poll: bool| {
        let (mut sys, _) = fig5_system(capacity);
        sys.iom_feed(0, 0..12_000u32);
        let setup = sys.flight().expect("recorder armed").total_recorded();
        for _ in 0..280 {
            sys.run_for(SLICE);
            if poll {
                sys.flight();
            }
        }
        assert_eq!(sys.iom_pending_input(0), 0, "the stream must drain");
        let fr = sys.flight().expect("recorder armed");
        let mut buf = Vec::new();
        fr.write_jsonl(&mut buf).unwrap();
        let tail_is_fifo = fr
            .events()
            .all(|e| matches!(e.event, FlightEvent::FifoEdge { .. }));
        (
            setup,
            fr.total_recorded(),
            tail_is_fifo,
            String::from_utf8(buf).unwrap(),
        )
    };
    // A ring wide enough to hold every crossing is the reference.
    let (setup, total, _, everything) = run(1 << 17, false);
    assert!(total - setup > 65_536, "only {} crossings", total - setup);
    let lines: Vec<&str> = everything.lines().collect();
    let newest: String = lines[lines.len() - CAPACITY..]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();

    let quiet = run(CAPACITY, false);
    assert_eq!(quiet.1, total, "seq must count every crossing");
    assert!(quiet.2, "no control event may hide in the tail");
    assert_eq!(quiet.3, newest, "the ring must hold the newest crossings");
    assert_eq!(
        run(CAPACITY, true),
        quiet,
        "sync cadence leaked into the dump"
    );
}
