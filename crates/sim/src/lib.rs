//! # vapres-sim
//!
//! Deterministic discrete-event simulation kernel underpinning the VAPRES
//! reproduction (Jara-Berrocal & Gordon-Ross, DATE 2010).
//!
//! The kernel is intentionally small and policy-free:
//!
//! * [`time`] — integer-picosecond [`time::Ps`] timestamps and [`time::Freq`]
//!   clock frequencies, exact for every integer-MHz clock.
//! * [`clock`] — the [`clock::ClockScheduler`]: many independent clock
//!   domains (VAPRES *local clock domains*), runtime frequency changes and
//!   clock gating, rising edges delivered in deterministic global order.
//! * [`exec`] — the activity-tracked [`exec::Executor`]: merges the clock
//!   edge stream with per-component `IdleUntil` wake slots, maintains
//!   per-domain wake sets so quiescent components are skipped instead of
//!   ticked, and counts delivered edges / ticks / skips per domain.
//! * [`stats`] — measurement helpers ([`stats::GapTracker`] measures the
//!   paper's "stream processing interruption" directly).
//! * [`telemetry`] — the unified metrics registry ([`telemetry::Telemetry`]):
//!   counters/gauges/histograms plus simulated-time spans, with JSON-lines
//!   and Prometheus-text exporters.
//! * [`flight`] — the always-on [`flight::FlightRecorder`]: a fixed-capacity,
//!   allocation-free ring of recent control-plane/fabric events, dumped as
//!   JSONL when something fails.
//! * [`watchdog`] — declarative [`watchdog::Monitor`] limits folded into a
//!   structured [`watchdog::HealthReport`] (policy lives in higher layers).
//! * [`json`] — the one strict JSON reader ([`json::Json`]) for artifacts
//!   read back from disk: telemetry JSONL, trajectories and cost models.
//! * [`rng`] — [`rng::SplitMix64`], the in-tree deterministic PRNG (no
//!   external `rand` dependency, so tier-1 verify runs offline).
//! * [`persist`] — the deterministic snapshot codec ([`persist::Persist`],
//!   [`persist::Writer`]/[`persist::Reader`]) behind bit-exact
//!   checkpoint/restore of every stateful layer.
//! * [`profile`] — the two-plane self-profiler ([`profile::Profiler`]):
//!   host wall-time scopes (never persisted; dispatch scopes timed about
//!   one call in 16 and scaled), joined with the caller's deterministic
//!   per-component work units (a view of counters the system persists)
//!   into a per-component [`profile::CostModel`].
//! * [`timeline`] — the one chrome://tracing writer
//!   ([`timeline::Timeline`]): spans, time-series counters and flight
//!   instants on a simulated-time process, profiler scopes on a host-time
//!   process, in one `traceEvents` document.
//!
//! Higher layers (`vapres-stream`, `vapres-core`) pull edges from the
//! scheduler — directly, or through the executor's activity tracking — and
//! tick their components; nothing here spawns threads or uses wall-clock
//! time, so every experiment is bit-for-bit reproducible.
//!
//! # Examples
//!
//! Run two clock domains for a microsecond and count edges:
//!
//! ```
//! use vapres_sim::clock::ClockScheduler;
//! use vapres_sim::time::{Freq, Ps};
//!
//! let mut clocks = ClockScheduler::new();
//! let static_clk = clocks.add_domain(Freq::mhz(100));
//! let prr_clk = clocks.add_domain(Freq::mhz(25));
//!
//! while clocks.next_edge_before(Ps::from_us(1)).is_some() {}
//!
//! assert_eq!(clocks.cycles(static_clk), 100);
//! assert_eq!(clocks.cycles(prr_clk), 25);
//! ```

pub mod clock;
pub mod exec;
pub mod flight;
pub mod json;
pub mod persist;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod timeline;
pub mod timeseries;
pub mod trace;
pub mod watchdog;

pub use clock::{ClockScheduler, DomainId, Edge};
pub use exec::{Activity, ComponentId, DomainStats, ExecStats, Executor, Waker};
pub use flight::{FlightEntry, FlightEvent, FlightRecorder};
pub use persist::{Persist, PersistError, Reader, Writer};
pub use profile::{CostModel, CostRow, Profiler, ScopeEvent, ScopeId, ScopeStat};
pub use rng::SplitMix64;
pub use telemetry::{CounterId, GaugeId, HistogramId, Span, Telemetry};
pub use time::{Freq, Ps};
pub use timeseries::TimeSeries;
pub use trace::{SignalId, Tracer};
pub use watchdog::{HealthReport, Monitor, Verdict};
