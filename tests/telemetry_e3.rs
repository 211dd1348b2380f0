//! Golden telemetry test for experiment E3: the seamless swap emits
//! exactly nine ordered `swap_step` spans that tile the swap interval,
//! and the zero-interruption claim is visible in the stream metrics.

use vapres::core::config::SystemConfig;
use vapres::core::module::ModuleLibrary;
use vapres::core::scenario::SwapMethod;
use vapres::core::system::VapresSystem;
use vapres::core::Ps;
use vapres::kpn::e3::{Arrangement, Drive};
use vapres::modules::register_standard_modules;
use vapres::sim::telemetry::{parse_jsonl, Record};
use vapres::sim::{flight, json, timeseries};

/// External ADC sample interval in fabric cycles (200 kS/s at 100 MHz).
const SAMPLE_INTERVAL: u64 = 500;

/// The Fig. 5 arrangement: IOM (node 0) -> filter A in PRR0 (node 1) ->
/// IOM, with filter B's bitstream staged in SDRAM for PRR1 (node 2).
fn fig5() -> Arrangement<'static> {
    Arrangement::fig5(SwapMethod::Seamless)
}

/// The Fig. 5 system with telemetry on, 20,000 samples fed and the
/// pre-swap window streamed: the drive is poised at the swap.
fn fig5_at_swap() -> (VapresSystem, Drive) {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
    sys.enable_telemetry();
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);
    let channels = fig5().deploy(&mut sys).unwrap();
    sys.iom_feed(0, 0..20_000u32);
    let mut drive = Drive::e3(SwapMethod::Seamless, channels);
    drive.pre_swap(&mut sys, None).unwrap();
    (sys, drive)
}

const STEP_LABELS: [&str; 9] = [
    "1_resolve_endpoints",
    "2_reconfigure_spare",
    "3_bring_up_spare",
    "4_reroute_upstream",
    "5_command_finish",
    "6_collect_state",
    "7_load_state",
    "8_await_eos",
    "9_reconnect_downstream",
];

#[test]
fn seamless_swap_emits_nine_spans_tiling_the_swap_latency() {
    let (mut sys, mut drive) = fig5_at_swap();
    let report = drive.swap(&mut sys, &fig5()).expect("swap succeeds");

    let t = sys.telemetry().expect("telemetry enabled");
    let spans: Vec<_> = t.spans_named("swap_step").collect();
    assert_eq!(spans.len(), 9, "exactly nine swap_step spans");

    // Spans appear in methodology order and tile [started_at,
    // completed_at] with no gap or overlap, so their durations sum to the
    // measured swap latency exactly.
    let mut cursor = report.started_at;
    for (span, expected_label) in spans.iter().zip(STEP_LABELS) {
        assert_eq!(span.label, expected_label);
        assert_eq!(
            span.start, cursor,
            "step {} must start where the previous step ended",
            span.label
        );
        cursor = span.end;
    }
    assert_eq!(cursor, report.completed_at);
    let summed: u64 = spans.iter().map(|s| s.duration().as_ps()).sum();
    assert_eq!(summed, report.total().as_ps());

    // The dominant step is the overlapped reconfiguration (~72 ms on the
    // array2icap path); the handoff steps are orders of magnitude shorter.
    let reconfig = spans[1].duration();
    assert!(reconfig > Ps::from_ms(70), "reconfig span {reconfig}");
    assert_eq!(reconfig, report.reconfig.total());
    let handoff: u64 = spans[3..].iter().map(|s| s.duration().as_ps()).sum();
    assert!(Ps::new(handoff) < Ps::from_us(10), "handoff {handoff} ps");
}

#[test]
fn e3_reports_zero_missed_slots_and_a_parseable_snapshot() {
    let (mut sys, mut drive) = fig5_at_swap();
    drive.swap(&mut sys, &fig5()).expect("swap succeeds");
    let done = drive.drain(&mut sys, None).unwrap();
    assert!(done, "stream must drain");

    // Zero interruption: the handoff never costs a whole sample slot.
    let gap = sys.iom_gap(0);
    assert_eq!(gap.missed_slots(), 0, "seamless swap must not miss a slot");
    assert!(
        gap.excess_gap() < Ps::from_us(5),
        "handoff delay stays sub-slot"
    );

    // The harvested snapshot survives a JSONL export/parse roundtrip and
    // carries the swap + stream metrics the report digests.
    let t = sys.snapshot_metrics().expect("telemetry enabled");
    let mut buf = Vec::new();
    t.write_jsonl(&mut buf).unwrap();
    let records = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();

    let steps = records.iter().filter(|r| r.name() == "swap_step").count();
    assert_eq!(steps, 9);
    let missed = records
        .iter()
        .find_map(|r| match r {
            Record::Counter { name, value, .. } if name == "iom_missed_slots_total" => Some(*value),
            _ => None,
        })
        .expect("missed-slot counter present");
    assert_eq!(missed, 0);
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Counter { name, value, .. }
            if name == "dcr_write_total" && *value > 0)));
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Span { name, .. } if name == "icap")));
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Histogram { name, counts, .. }
            if name == "icap_write_cycles" && counts.iter().sum::<u64>() >= 2)));
    assert!(records
        .iter()
        .any(|r| matches!(r, Record::Gauge { name, .. } if name == "channel_stall_ratio")));
}

/// Fig. 5 with every timeline source armed (telemetry spans, a 100 µs
/// time series, the flight ring and the profiler), run to its end:
/// the reconfiguration step's duration and the run's timeline.
fn armed_timeline() -> (Ps, String) {
    let mut lib = ModuleLibrary::new();
    register_standard_modules(&mut lib, 0);
    let mut sys = VapresSystem::new(SystemConfig::prototype(), lib).unwrap();
    sys.enable_telemetry();
    sys.enable_profiling();
    sys.enable_flight_recorder(flight::DEFAULT_CAPACITY);
    sys.enable_timeseries(Ps::from_us(100), timeseries::DEFAULT_CAPACITY);
    sys.iom_set_input_interval(0, SAMPLE_INTERVAL);
    let channels = fig5().deploy(&mut sys).unwrap();
    sys.iom_feed(0, 0..2_000u32);
    let mut drive = Drive::e3(SwapMethod::Seamless, channels);
    drive.run(&mut sys, &fig5(), None).expect("run completes");
    let reconfig = drive.report.expect("swapped").reconfig.total();
    let mut buf = Vec::new();
    sys.write_timeline(&mut buf).unwrap();
    (reconfig, String::from_utf8(buf).unwrap())
}

/// Chrome's trace format counts `ts` and `dur` in microseconds: the
/// 71.907 ms reconfiguration step must read 71907.208202, not a
/// thousand times that. The two clocks sit on two named processes:
/// spans, counters and flight instants on the simulated-time pid, the
/// profiler's scopes on the host-time pid, so a viewer never draws a
/// host µs on the simulated axis. The simulated-time process is a pure
/// function of the run.
#[test]
fn chrome_trace_spans_are_in_microseconds_of_simulated_time() {
    let (reconfig, text) = armed_timeline();
    assert_eq!(reconfig, Ps::new(71_907_208_202));
    assert!(text.contains("\"dur\":71907.208202}"), "{text}");

    let trace = json::parse(&text).expect("valid JSON");
    let events = trace.get("traceEvents").unwrap().items().unwrap();
    let str_of =
        |e: &json::Json, k: &str| e.get(k).and_then(|v| v.as_str().ok()).map(str::to_owned);
    let step = events
        .iter()
        .find(|e| str_of(e, "name").as_deref() == Some("2_reconfigure_spare"))
        .expect("the reconfiguration span is in the trace");
    assert_eq!(
        step.get("dur").unwrap().as_f64().unwrap(),
        reconfig.as_ps() as f64 / 1e6
    );
    let mut processes = Vec::new();
    let mut kinds = std::collections::BTreeSet::new();
    for e in events {
        let pid = e.get("pid").unwrap().as_u64().unwrap();
        let ph = str_of(e, "ph").unwrap();
        if ph == "M" {
            if str_of(e, "name").as_deref() == Some("process_name") {
                processes.push((pid, str_of(e.get("args").unwrap(), "name").unwrap()));
            }
            continue;
        }
        let host = str_of(e, "cat").as_deref() == Some("host");
        assert_eq!(
            pid,
            if host { 2 } else { 1 },
            "{ph} event on the wrong clock"
        );
        kinds.insert((pid, ph));
    }
    assert_eq!(
        processes,
        [
            (1, "simulated time".to_string()),
            (2, "host time".to_string())
        ]
    );
    let want = [(1, "C"), (1, "X"), (1, "i"), (2, "X")];
    assert_eq!(
        kinds
            .iter()
            .map(|(p, k)| (*p, k.as_str()))
            .collect::<Vec<_>>(),
        want
    );

    // Host scopes differ run to run; the simulated-time events do not.
    let sim_events = |t: &str| -> Vec<String> {
        t.lines()
            .filter(|l| l.contains("\"pid\":1,"))
            .map(str::to_owned)
            .collect()
    };
    let (_, again) = armed_timeline();
    assert_eq!(sim_events(&text), sim_events(&again));
}
