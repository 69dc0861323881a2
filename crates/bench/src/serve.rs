//! The live monitoring service behind `repro serve`: N shard worker
//! threads (one persistent [`PowerSession`] each, with its own seed
//! rotation, scenario-mix phase, event ring, anomaly detector and
//! observatory) simulate workload slices continuously behind a
//! thread-pool HTTP server with a connection limit and 503
//! load-shedding — zero crates beyond `std::net`.
//!
//! The HTTP plane is *merged*, and a single shard is simply N=1: every
//! endpoint renders one schema from a shard selection — all shards, or
//! only `K` when the request carries `?shard=K`. `/status`, `/healthz`
//! and `/metrics` aggregate the selection (counters add, histograms
//! bucket-merge via [`MetricsRegistry::merge_sum`], degraded flags OR
//! together); `/query` fans out to the selected observatories and
//! composes sum/min/max per bucket (so the merged energy total equals
//! the sum of the per-shard totals exactly); and `/events` exposes an
//! aggregated cursor space — one absolute sequence per selected shard,
//! dot-joined (`since=12.34`), with per-shard `dropped` accounting and
//! shard-tagged events.
//!
//! Every slice, each shard republishes a fresh [`MetricsRegistry`]
//! snapshot into its shared state; the HTTP pool renders merged views
//! with the same exporters the offline `telemetry` subcommand uses. On
//! shutdown the merged registry and status document plus per-shard
//! events/observatory snapshots are flushed atomically to the results
//! directory, so a `/quit` (or slice budgets running out) always
//! leaves complete, readable artifacts.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ahbpower::telemetry::{
    events_to_jsonl, json_num, to_prometheus, AnomalyConfig, AnomalyEvent, DetectorState, Event,
    EventBatch, EventBus, EventKind, ExportMeta, MetricsRegistry, Observatory, ObservatoryConfig,
    QueryResult, TelemetryConfig, DEFAULT_EVENT_CAPACITY, OBSERVATORY_LEVEL_FACTORS,
};
use ahbpower::{AnalysisConfig, PowerSession, SubBlock};
use ahbpower_ahb::CycleHistogram;
use ahbpower_workloads::{PaperTestbench, SocScenario};

use crate::baseline::{write_atomic, WINDOW_POWER_BOUNDS_UW};
use crate::dashboard::DASHBOARD_HTML;
use crate::flightrec::FlightRecorder;
use crate::json::validate_json;
use crate::obsquery::{merge_query_results, query_result_json};

/// Inclusive upper bounds (µs) for the per-stage wall-clock histograms
/// (`sim`, `publish`, `render`); an implicit overflow bucket catches
/// anything beyond a second.
pub const STAGE_US_BOUNDS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Ceiling on the worker's retained event log (oldest entries are
/// trimmed beyond this); bounds `events.jsonl` and server memory.
const EVENTS_LOG_CAP: usize = 200_000;

/// Longest `/events` long-poll the server will honor. A parked poll
/// occupies one pool worker and one connection slot — keep it short.
const EVENTS_POLL_CAP_MS: u64 = 5_000;

/// Seed distance between adjacent shards. Shard `k` runs slice `i` at
/// `seed + k * SHARD_SEED_STRIDE + i`, so shards never replay each
/// other's workloads for any realistic slice budget.
pub const SHARD_SEED_STRIDE: u64 = 1_000_000;

/// Which workloads the worker rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioMix {
    /// Paper testbench only.
    Paper,
    /// SoC scenario only.
    Soc,
    /// Alternate paper and SoC slices.
    Mixed,
}

impl ScenarioMix {
    /// Parses `paper` / `soc` / `mixed`.
    pub fn from_name(name: &str) -> Option<ScenarioMix> {
        match name {
            "paper" => Some(ScenarioMix::Paper),
            "soc" => Some(ScenarioMix::Soc),
            "mixed" => Some(ScenarioMix::Mixed),
            _ => None,
        }
    }

    /// The mix's CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioMix::Paper => "paper",
            ScenarioMix::Soc => "soc",
            ScenarioMix::Mixed => "mixed",
        }
    }

    /// The scenario label for slice `i`.
    fn slice_label(self, i: u64) -> &'static str {
        match self {
            ScenarioMix::Paper => PaperTestbench::LABEL,
            ScenarioMix::Soc => "soc_scenario",
            ScenarioMix::Mixed => {
                if i.is_multiple_of(2) {
                    PaperTestbench::LABEL
                } else {
                    "soc_scenario"
                }
            }
        }
    }
}

/// A seeded coefficient-scaling fault, applied once at the start of the
/// given slice — the end-to-end test hook for the anomaly detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Sub-block whose coefficients are scaled.
    pub block: SubBlock,
    /// Scale factor.
    pub factor: f64,
    /// Slice index at which the fault appears.
    pub at_slice: u64,
}

impl Injection {
    /// Parses `block:factor[@slice]`, e.g. `arb:2.0` or `dec:1.5@3`.
    pub fn parse(spec: &str) -> Option<Injection> {
        let (block_name, rest) = spec.split_once(':')?;
        let block = SubBlock::from_name(block_name)?;
        let (factor_str, at_slice) = match rest.split_once('@') {
            Some((f, s)) => (f, s.parse().ok()?),
            None => (rest, 2),
        };
        let factor = factor_str.parse().ok()?;
        Some(Injection {
            block,
            factor,
            at_slice,
        })
    }
}

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Scenario rotation.
    pub mix: ScenarioMix,
    /// Cycles per worker slice.
    pub slice_cycles: u64,
    /// Base workload seed; slice `i` runs at `seed + i`.
    pub seed: u64,
    /// Stop after this many slices (`None`: run until `/quit`).
    pub max_slices: Option<u64>,
    /// Anomaly-detector tuning.
    pub anomaly: AnomalyConfig,
    /// Optional seeded fault.
    pub inject: Option<Injection>,
    /// Where shutdown flushes `serve_final.jsonl` + `serve_status.json`
    /// (`None`: no flush).
    pub results_dir: Option<PathBuf>,
    /// Whether the structured event ring records events. Disabled, the
    /// ring still exists but every publish is a single cold-atomic
    /// branch and `/events` serves empty batches.
    pub events: bool,
    /// Event ring capacity (rounded up to a power of two).
    pub events_capacity: usize,
    /// Test hook: panic inside this slice's simulation (shard 0 only),
    /// exercising the flight recorder's panic-in-slice capture. Never
    /// set in production.
    pub panic_at_slice: Option<u64>,
    /// Concurrent worker sessions. Each shard gets its own thread,
    /// persistent session, event ring, detector and observatory;
    /// values below 1 are treated as 1.
    pub shards: usize,
    /// HTTP pool size: how many requests are serviced concurrently.
    pub http_threads: usize,
    /// Admission limit: connections admitted (queued + in service)
    /// beyond this are shed with a fast `503`.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let slice_cycles = 20_000;
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            mix: ScenarioMix::Mixed,
            slice_cycles,
            seed: 2003,
            max_slices: None,
            // Warm up across at least one slice of each scenario so the
            // residual statistics absorb cross-scenario variation.
            anomaly: AnomalyConfig::default()
                .with_warmup_windows(2 * slice_cycles / AnomalyConfig::default().window_cycles + 4),
            inject: None,
            results_dir: None,
            events: true,
            // 4x the library default: the serve loop drains the ring
            // once per slice, so the ring must hold a full slice's
            // events (~0.7/cycle) even for generous --slice-cycles.
            events_capacity: 4 * DEFAULT_EVENT_CAPACITY,
            panic_at_slice: None,
            shards: 1,
            http_threads: 4,
            max_connections: 64,
        }
    }
}

/// Why the service failed to start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Socket trouble (bind, accept, read, write).
    Io(io::Error),
    /// A worker or HTTP thread panicked or vanished.
    Thread(String),
    /// A self-check failed (e.g. `/status` produced invalid JSON).
    SelfCheck(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Thread(msg) => write!(f, "serve thread error: {msg}"),
            ServeError::SelfCheck(msg) => write!(f, "serve self-check failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Live state shared between one shard's worker and the HTTP pool.
#[derive(Debug)]
struct LiveState {
    started: Instant,
    mix: ScenarioMix,
    seed: u64,
    slices: u64,
    cycles: u64,
    total_energy_j: f64,
    /// `(name, count, total_j, mean_j)` per instruction.
    rows: Vec<(String, u64, f64, f64)>,
    window_power_uw: CycleHistogram,
    anomaly_windows: u64,
    anomaly_events: Vec<AnomalyEvent>,
    baseline_updates: u64,
    /// Per-master energy attribution, joules.
    per_master_j: Vec<f64>,
    /// Completed bus transactions (from the event tap).
    transactions: u64,
    events_enabled: bool,
    events_published: u64,
    /// Events lost to ring wraparound before the worker drained them.
    events_dropped: u64,
    /// Worker-drained event log, trimmed to [`EVENTS_LOG_CAP`]; the
    /// shutdown flush renders it into `events.jsonl`.
    events_log: Vec<Event>,
    /// The worker's ring-drain cursor; `published - cursor` is the
    /// drain lag surfaced in `/status` and `/metrics`.
    events_cursor: u64,
    /// Per-slice snapshot of the session's power observatory (what
    /// `/query` answers from).
    observatory: Option<Observatory>,
    /// Per-slice snapshot of the anomaly detector's statistics (what
    /// flight-recorder bundles embed).
    detector: Option<DetectorState>,
    /// Flight-recorder bundles written so far.
    flightrec_bundles: u64,
    /// Recorded cycles of the startup replay self-calibration (0 until
    /// it completes).
    replay_trace_cycles: u64,
    /// Model variants the calibration replayed.
    replay_variants: u64,
    /// Replay throughput the calibration measured, cycles/second.
    replay_cycles_per_sec: f64,
    /// Wall-clock per slice simulated (worker-measured).
    sim_us: CycleHistogram,
    /// Wall-clock per state republish (worker-measured).
    publish_us: CycleHistogram,
    /// Wall-clock per `/status` render (HTTP-thread-measured).
    render_us: CycleHistogram,
    registry: MetricsRegistry,
}

impl LiveState {
    fn new(mix: ScenarioMix, seed: u64, events_enabled: bool) -> Self {
        LiveState {
            started: Instant::now(),
            mix,
            seed,
            slices: 0,
            cycles: 0,
            total_energy_j: 0.0,
            rows: Vec::new(),
            window_power_uw: CycleHistogram::new(&WINDOW_POWER_BOUNDS_UW),
            anomaly_windows: 0,
            anomaly_events: Vec::new(),
            baseline_updates: 0,
            per_master_j: Vec::new(),
            transactions: 0,
            events_enabled,
            events_published: 0,
            events_dropped: 0,
            events_log: Vec::new(),
            events_cursor: 0,
            observatory: None,
            detector: None,
            flightrec_bundles: 0,
            replay_trace_cycles: 0,
            replay_variants: 0,
            replay_cycles_per_sec: 0.0,
            sim_us: CycleHistogram::new(&STAGE_US_BOUNDS),
            publish_us: CycleHistogram::new(&STAGE_US_BOUNDS),
            render_us: CycleHistogram::new(&STAGE_US_BOUNDS),
            registry: MetricsRegistry::new(),
        }
    }

    fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether the service is in a degraded state: the most recently
    /// judged detection window was flagged anomalous.
    fn degraded(&self) -> bool {
        self.anomaly_events
            .last()
            .is_some_and(|e| e.window + 1 == self.anomaly_windows)
    }

    /// Events published to the ring but not yet drained by the worker.
    fn events_lag(&self) -> u64 {
        self.events_published.saturating_sub(self.events_cursor)
    }

    /// Rebuilds the shared registry from the current fields; `/metrics`
    /// renders exactly this through the standard Prometheus exporter.
    fn republish(&mut self) {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("serve_slices_total", "Workload slices completed.", &[]);
        reg.add(c, self.slices as f64);
        let c = reg.counter("ahb_cycles_total", "Bus cycles simulated.", &[]);
        reg.add(c, self.cycles as f64);
        let c = reg.counter("power_total_energy_joules", "Total bus energy booked.", &[]);
        reg.add(c, self.total_energy_j);
        for (name, count, total, mean) in &self.rows {
            let labels = [("instruction", name.as_str())];
            let c = reg.counter(
                "power_instruction_cycles_total",
                "Cycles booked per instruction.",
                &labels,
            );
            reg.add(c, *count as f64);
            let c = reg.counter(
                "power_instruction_energy_joules",
                "Energy booked per instruction.",
                &labels,
            );
            reg.add(c, *total);
            let g = reg.gauge(
                "power_instruction_mean_energy_joules",
                "Mean energy per instruction occurrence.",
                &labels,
            );
            reg.set(g, *mean);
        }
        let h = reg.histogram(
            "serve_window_power_microwatts",
            "Windowed bus power distribution.",
            &[],
            &WINDOW_POWER_BOUNDS_UW,
        );
        reg.set_histogram(h, &self.window_power_uw);
        let c = reg.counter(
            "energy_anomaly_windows_total",
            "Detection windows judged.",
            &[],
        );
        reg.add(c, self.anomaly_windows as f64);
        let c = reg.counter(
            "energy_anomaly_events_total",
            "Windows flagged as energy anomalies.",
            &[],
        );
        reg.add(c, self.anomaly_events.len() as f64);
        let c = reg.counter(
            "energy_anomaly_baseline_updates_total",
            "Clean windows absorbed into the rolling baseline.",
            &[],
        );
        reg.add(c, self.baseline_updates as f64);
        for (i, joules) in self.per_master_j.iter().enumerate() {
            let master = format!("{i}");
            let labels = [("master", master.as_str())];
            let c = reg.counter(
                "power_master_energy_joules",
                "Energy attributed per bus master.",
                &labels,
            );
            reg.add(c, *joules);
        }
        let c = reg.counter(
            "serve_transactions_total",
            "Bus transactions completed.",
            &[],
        );
        reg.add(c, self.transactions as f64);
        let c = reg.counter(
            "serve_events_published_total",
            "Structured events published to the ring.",
            &[],
        );
        reg.add(c, self.events_published as f64);
        let c = reg.counter(
            "serve_events_dropped_total",
            "Structured events lost to ring wraparound.",
            &[],
        );
        reg.add(c, self.events_dropped as f64);
        let g = reg.gauge(
            "serve_events_cursor_lag",
            "Events published but not yet drained by the worker.",
            &[],
        );
        reg.set(g, self.events_lag() as f64);
        let g = reg.gauge(
            "serve_degraded",
            "1 while the most recently judged detection window was flagged.",
            &[],
        );
        reg.set(g, if self.degraded() { 1.0 } else { 0.0 });
        if let Some(obs) = &self.observatory {
            let c = reg.counter(
                "serve_observatory_windows_total",
                "Raw windows ingested by the power observatory.",
                &[],
            );
            reg.add(c, obs.windows_ingested() as f64);
            for level in 0..OBSERVATORY_LEVEL_FACTORS.len() {
                let label = format!("{level}");
                let labels = [("level", label.as_str())];
                let g = reg.gauge(
                    "serve_observatory_ring_occupancy",
                    "Occupied observatory ring buckets per level.",
                    &labels,
                );
                reg.set(g, obs.occupancy(level) as f64);
                let c = reg.counter(
                    "serve_observatory_cascade_buckets_total",
                    "Buckets opened per observatory level (downsample cascades).",
                    &labels,
                );
                reg.add(c, obs.cascades(level) as f64);
            }
        }
        let c = reg.counter(
            "serve_flightrec_bundles_total",
            "Flight-recorder bundles written.",
            &[],
        );
        reg.add(c, self.flightrec_bundles as f64);
        for (stage, hist) in [
            ("sim", &self.sim_us),
            ("publish", &self.publish_us),
            ("render", &self.render_us),
        ] {
            let labels = [("stage", stage)];
            let h = reg.histogram(
                "serve_stage_duration_microseconds",
                "Wall-clock per pipeline stage.",
                &labels,
                &STAGE_US_BOUNDS,
            );
            reg.set_histogram(h, hist);
        }
        let g = reg.gauge(
            "serve_replay_cycles_per_second",
            "Variant-cycles per second of the startup self-calibration's lane-batched 4-variant replay sweep.",
            &[],
        );
        reg.set(g, self.replay_cycles_per_sec);
        let g = reg.gauge("serve_uptime_seconds", "Service uptime.", &[]);
        reg.set(g, self.uptime_s());
        self.registry = reg;
    }
}

/// What the service did, reported by [`ServerHandle::wait`]. Numeric
/// fields aggregate every shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Slices completed (all shards).
    pub slices: u64,
    /// Cycles simulated (all shards).
    pub cycles: u64,
    /// Total energy booked, joules (all shards).
    pub total_energy_j: f64,
    /// Anomalies flagged (all shards).
    pub anomalies: u64,
    /// Worker shards that ran.
    pub shards: usize,
    /// Requests shed with 503 by the admission limit.
    pub shed: u64,
    /// Files flushed on shutdown (empty without a results dir).
    pub flushed: Vec<PathBuf>,
}

/// One shard as the HTTP plane sees it: its shared state plus its
/// event ring (the ring is read lock-free, so `/events` never touches
/// the state mutex).
struct ShardRef {
    state: Arc<Mutex<LiveState>>,
    events: Arc<EventBus>,
}

/// Pending connections handed from the accept loop to the HTTP pool.
struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// Everything a pool worker needs to answer any request: all shards,
/// the control flags, and the admission/shed accounting.
struct Plane {
    shards: Vec<ShardRef>,
    stop: Arc<AtomicBool>,
    queue: ConnQueue,
    /// Connections admitted and not yet answered (queued + in service).
    active: AtomicU64,
    /// Connections shed with 503 at the admission gate.
    shed: AtomicU64,
    started: Instant,
    addr: SocketAddr,
    mix: ScenarioMix,
    seed: u64,
    http_threads: usize,
    max_connections: usize,
}

impl Plane {
    fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Every shard: what an unfiltered request covers.
    fn all(&self) -> Range<usize> {
        0..self.shards.len()
    }

    /// The shards a request covers: all of them, or only `K` when the
    /// query carries `shard=K`. Out-of-range and malformed indexes are
    /// errors (clean 400s).
    fn select(&self, query: &str) -> Result<Range<usize>, String> {
        let n = self.shards.len();
        let Some(v) = query_str(query, "shard") else {
            return Ok(self.all());
        };
        let k: usize = v
            .parse()
            .map_err(|_| format!("bad shard '{v}': not an index"))?;
        if k >= n {
            return Err(format!("shard {k} out of range ({n} shards)"));
        }
        Ok(k..k + 1)
    }
}

/// A running service: the bound address plus the shard workers and the
/// HTTP pool. Drop without [`ServerHandle::wait`] leaks the threads;
/// always wait.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    plane: Arc<Plane>,
    workers: Vec<thread::JoinHandle<()>>,
    accept: thread::JoinHandle<()>,
    pool: Vec<thread::JoinHandle<()>>,
    results_dir: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A shard's structured event ring, or `None` past the last shard.
    pub fn shard_events_bus(&self, shard: usize) -> Option<&Arc<EventBus>> {
        self.plane.shards.get(shard).map(|s| &s.events)
    }

    /// How many worker shards are running.
    pub fn shards(&self) -> usize {
        self.plane.shards.len()
    }

    /// Requests shutdown (idempotent; `/quit` does the same).
    pub fn shutdown(&self) {
        // ordering: cold control-plane flag; seqcst for simplicity.
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until every shard worker finishes (slice budget or
    /// shutdown), stops the HTTP pool, flushes final snapshots, and
    /// reports.
    ///
    /// # Errors
    ///
    /// [`ServeError::Thread`] if a thread panicked,
    /// [`ServeError::Io`] if the final flush failed.
    pub fn wait(self) -> Result<ServeSummary, ServeError> {
        self.finish(false)
    }

    /// Like [`ServerHandle::wait`], but keeps serving after the slice
    /// budgets drain: returns only once `GET /quit` (or
    /// [`ServerHandle::shutdown`] plus one more connection) stops the
    /// HTTP plane. This is what `repro serve` blocks on.
    ///
    /// # Errors
    ///
    /// Same as [`ServerHandle::wait`].
    pub fn wait_for_quit(self) -> Result<ServeSummary, ServeError> {
        self.finish(true)
    }

    fn finish(self, until_quit: bool) -> Result<ServeSummary, ServeError> {
        let ServerHandle {
            addr,
            stop,
            plane,
            workers,
            accept,
            pool,
            results_dir,
        } = self;
        fn join_all(handles: Vec<thread::JoinHandle<()>>, what: &str) -> Result<(), ServeError> {
            for h in handles {
                h.join()
                    .map_err(|_| ServeError::Thread(format!("{what} thread panicked")))?;
            }
            Ok(())
        }
        if until_quit {
            // /quit flips the stop flag and pokes the listener; the
            // accept loop breaks, then the workers notice at their next
            // slice boundary.
            accept
                .join()
                .map_err(|_| ServeError::Thread("accept thread panicked".to_string()))?;
            // ordering: cold control-plane flag; seqcst for simplicity.
            stop.store(true, Ordering::SeqCst);
            // Wake idle pool workers so they can observe the stop flag.
            plane.queue.ready.notify_all();
            join_all(pool, "http pool")?;
            join_all(workers, "worker")?;
        } else {
            join_all(workers, "worker")?;
            // The workers are done; release the accept thread, which
            // may be parked in accept(): set the flag and poke the
            // socket.
            // ordering: cold control-plane flag; seqcst for simplicity.
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            accept
                .join()
                .map_err(|_| ServeError::Thread("accept thread panicked".to_string()))?;
            plane.queue.ready.notify_all();
            join_all(pool, "http pool")?;
        }

        let mut flushed = Vec::new();
        if let Some(dir) = &results_dir {
            std::fs::create_dir_all(dir)?;
            // Merged registry (same composition /metrics serves) plus
            // every shard's anomaly event lines.
            let mut jsonl = ahbpower::telemetry::to_jsonl(
                &merged_registry(&plane, plane.all()),
                &ExportMeta {
                    scenario: format!("serve_{}", plane.mix.name()),
                    cycles: 0,
                    seed: plane.seed,
                },
            );
            for shard in &plane.shards {
                let s = shard
                    .state
                    .lock()
                    .map_err(|_| ServeError::Thread("state mutex poisoned".to_string()))?;
                for e in &s.anomaly_events {
                    jsonl.push_str(&e.to_jsonl_line());
                    jsonl.push('\n');
                }
            }
            let jsonl_path = dir.join("serve_final.jsonl");
            write_atomic(&jsonl_path, &jsonl)?;
            flushed.push(jsonl_path);
            let status = merged_status_json(&plane, plane.all());
            validate_json(&status)
                .map_err(|e| ServeError::SelfCheck(format!("final status JSON invalid: {e}")))?;
            let status_path = dir.join("serve_status.json");
            write_atomic(&status_path, &status)?;
            flushed.push(status_path);
            for (i, shard) in plane.shards.iter().enumerate() {
                let state = shard
                    .state
                    .lock()
                    .map_err(|_| ServeError::Thread("state mutex poisoned".to_string()))?;
                if state.events_enabled {
                    let events = events_to_jsonl(
                        &state.events_log,
                        &ExportMeta {
                            scenario: format!("serve_{}", state.mix.name()),
                            cycles: state.cycles,
                            seed: state.seed,
                        },
                    );
                    let events_path = if i == 0 {
                        dir.join("events.jsonl")
                    } else {
                        dir.join(format!("events-shard{i}.jsonl"))
                    };
                    write_atomic(&events_path, &events)?;
                    flushed.push(events_path);
                }
                if let Some(obs) = &state.observatory {
                    let obs_path = if i == 0 {
                        dir.join("observatory.jsonl")
                    } else {
                        dir.join(format!("observatory-shard{i}.jsonl"))
                    };
                    write_atomic(&obs_path, &obs.to_jsonl())?;
                    flushed.push(obs_path);
                    // Shutdown post-mortem: the same bundle shape an
                    // anomaly dump produces, anchored at the shard's
                    // last judged window, so every run ends with an
                    // inspectable record per shard.
                    let mut rec = FlightRecorder::for_shard(dir, i as u64);
                    let _ = rec.record(
                        "quit",
                        state.anomaly_windows,
                        state.slices,
                        None,
                        state.detector.as_ref(),
                        state.observatory.as_ref(),
                        &state.events_log,
                    );
                }
            }
        }
        let mut summary = ServeSummary {
            slices: 0,
            cycles: 0,
            total_energy_j: 0.0,
            anomalies: 0,
            shards: plane.shards.len(),
            // ordering: cold post-shutdown read of the shed tally; seqcst for simplicity.
            shed: plane.shed.load(Ordering::SeqCst),
            flushed,
        };
        for shard in &plane.shards {
            let s = shard
                .state
                .lock()
                .map_err(|_| ServeError::Thread("state mutex poisoned".to_string()))?;
            summary.slices += s.slices;
            summary.cycles += s.cycles;
            summary.total_energy_j += s.total_energy_j;
            summary.anomalies += s.anomaly_events.len() as u64;
        }
        Ok(summary)
    }
}

/// Builds a slice's bus for `label` at `seed`.
fn build_slice_bus(label: &str, slice_cycles: u64, seed: u64) -> ahbpower_ahb::AhbBus {
    if label == PaperTestbench::LABEL {
        PaperTestbench::sized_for(slice_cycles, seed)
            .build()
            .expect("paper testbench is statically valid")
    } else {
        let scale = (slice_cycles / 4_000).clamp(1, 10_000) as u32;
        let base = SocScenario::default();
        SocScenario {
            seed,
            cpu_accesses: base.cpu_accesses * scale,
            dma_blocks: base.dma_blocks * scale,
            stream_frames: base.stream_frames * scale,
            ..base
        }
        .build()
        .expect("soc scenario is statically valid")
    }
}

/// Starts the service: binds `cfg.addr`, spawns one simulation worker
/// per shard plus the HTTP accept thread and pool, and returns
/// immediately.
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound.
pub fn serve(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(cfg.addr.as_str())?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let n_shards = cfg.shards.max(1);
    let http_threads = cfg.http_threads.max(1);
    let max_connections = cfg.max_connections.max(1);

    let mut shards = Vec::with_capacity(n_shards);
    for shard in 0..n_shards {
        let shard_seed = cfg.seed + shard as u64 * SHARD_SEED_STRIDE;
        let events = EventBus::shared(cfg.events_capacity);
        events.set_enabled(cfg.events);
        let state = Arc::new(Mutex::new(LiveState::new(cfg.mix, shard_seed, cfg.events)));
        shards.push(ShardRef { state, events });
    }
    let plane = Arc::new(Plane {
        shards,
        stop: Arc::clone(&stop),
        queue: ConnQueue {
            pending: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        },
        active: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        started: Instant::now(),
        addr,
        mix: cfg.mix,
        seed: cfg.seed,
        http_threads,
        max_connections,
    });

    let workers = (0..n_shards)
        .map(|shard| {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&plane.shards[shard].state);
            let events = Arc::clone(&plane.shards[shard].events);
            let cfg = cfg.clone();
            thread::spawn(move || run_worker(&cfg, shard, &events, &stop, &state))
        })
        .collect();
    let pool = (0..http_threads)
        .map(|_| {
            let plane = Arc::clone(&plane);
            thread::spawn(move || run_pool_worker(&plane))
        })
        .collect();
    let accept = {
        let plane = Arc::clone(&plane);
        thread::spawn(move || run_accept(&listener, &plane))
    };
    Ok(ServerHandle {
        addr,
        stop,
        plane,
        workers,
        accept,
        pool,
        results_dir: cfg.results_dir,
    })
}

/// The simulation loop: one session for the whole service lifetime
/// (the anomaly detector's baseline survives across slices), a fresh
/// bus per slice.
/// Outcome of the worker's startup record/replay self-calibration.
struct ReplayCalibration {
    trace_cycles: u64,
    variants: u64,
    cycles_per_sec: f64,
}

/// Records a short paper-testbench trace, replays the first few
/// coefficient variants of the deterministic grid through
/// [`crate::replay_sweep`] (one lane-batched pass), and measures its
/// throughput in variant-cycles per second. Publishes `ReplayStart`/`ReplayDone` on `events` (the
/// trace id in `txn` is the workload seed).
fn replay_calibration(seed: u64, events: &Arc<EventBus>) -> ReplayCalibration {
    const CALIB_CYCLES: u64 = 20_000;
    const CALIB_VARIANTS: usize = 4;
    let (run, trace) = crate::run_paper_experiment_recorded(CALIB_CYCLES, seed);
    events.publish(Event {
        seq: 0,
        kind: EventKind::ReplayStart,
        slice: 0,
        txn: seed,
        window: 0,
        cycle: 0,
        tag: CALIB_VARIANTS as u32,
        a: trace.cycles() as f64,
        b: 0.0,
    });
    let models: Vec<_> = (0..CALIB_VARIANTS)
        .map(|k| crate::replay_variant_model(&run.config, k))
        .collect();
    let started = Instant::now();
    let outcomes = crate::replay_sweep(&trace, &models, 1);
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        outcomes[0].total_energy().to_bits(),
        run.session.total_energy().to_bits(),
        "calibration replay must reproduce the live run bit for bit"
    );
    let replayed = trace.cycles() * CALIB_VARIANTS as u64;
    let cycles_per_sec = if elapsed > 0.0 {
        replayed as f64 / elapsed
    } else {
        0.0
    };
    events.publish(Event {
        seq: 0,
        kind: EventKind::ReplayDone,
        slice: 0,
        txn: seed,
        window: 0,
        cycle: 0,
        tag: CALIB_VARIANTS as u32,
        a: cycles_per_sec,
        b: replayed as f64,
    });
    ReplayCalibration {
        trace_cycles: trace.cycles(),
        variants: CALIB_VARIANTS as u64,
        cycles_per_sec,
    }
}

/// Drains the event ring into the retained log (the ring is quiescent
/// between slices — the worker is its only writer), updating the drop
/// counter, cursor and published count. Returns the `AnomalyFlagged`
/// events drained, which trigger flight-recorder bundles.
fn drain_events(events: &EventBus, cursor: &mut u64, s: &mut LiveState) -> Vec<Event> {
    let mut flagged = Vec::new();
    loop {
        let batch = events.read_since(*cursor, 4096);
        *cursor = batch.next;
        s.events_dropped += batch.dropped;
        if batch.events.is_empty() {
            break;
        }
        flagged.extend(
            batch
                .events
                .iter()
                .filter(|e| e.kind == EventKind::AnomalyFlagged)
                .cloned(),
        );
        s.events_log.extend(batch.events);
    }
    if s.events_log.len() > EVENTS_LOG_CAP {
        let overflow = s.events_log.len() - EVENTS_LOG_CAP;
        s.events_log.drain(..overflow);
    }
    s.events_cursor = *cursor;
    s.events_published = events.published();
    flagged
}

fn run_worker(
    cfg: &ServeConfig,
    shard: usize,
    events: &Arc<EventBus>,
    stop: &AtomicBool,
    state: &Mutex<LiveState>,
) {
    // Per-shard seed rotation: shards occupy disjoint seed ranges so no
    // two shards ever simulate the same workload.
    let shard_seed = cfg.seed + shard as u64 * SHARD_SEED_STRIDE;
    // Size the model for the widest scenario in the mix; narrower buses
    // use a subset of the masters.
    let (n_masters, n_slaves) = match cfg.mix {
        ScenarioMix::Paper => (PaperTestbench::N_MASTERS, PaperTestbench::N_SLAVES),
        _ => (
            PaperTestbench::N_MASTERS.max(SocScenario::N_MASTERS),
            PaperTestbench::N_SLAVES.max(SocScenario::N_SLAVES),
        ),
    };
    let acfg = AnalysisConfig {
        n_masters,
        n_slaves,
        seed: shard_seed,
        ..AnalysisConfig::paper_testbench()
    };
    let tcfg = TelemetryConfig::enabled(&format!("serve_{}", cfg.mix.name()))
        .with_seed(shard_seed)
        .with_anomaly(cfg.anomaly.clone())
        .with_observatory(ObservatoryConfig::default())
        .with_events(Arc::clone(events));
    let mut session = PowerSession::with_telemetry(&acfg, tcfg);
    let mut flightrec = cfg
        .results_dir
        .as_deref()
        .map(|dir| FlightRecorder::for_shard(dir, shard as u64));
    let mut consumed_points = 0usize;
    let mut events_cursor = 0u64;
    let mut last_publish_us: Option<u64> = None;

    // Startup self-calibration of the record/replay pipeline (shard 0
    // only — the measurement is machine-wide, not per-shard): record
    // one short paper trace, replay a handful of coefficient variants,
    // and surface the measured throughput in /status and /metrics. The
    // pass is bracketed by ReplayStart/ReplayDone on the structured
    // ring, so it lands in /events and the flushed events.jsonl like
    // any other cross-layer activity.
    if shard == 0 {
        let calib = replay_calibration(cfg.seed, events);
        if let Ok(mut s) = state.lock() {
            s.replay_trace_cycles = calib.trace_cycles;
            s.replay_variants = calib.variants;
            s.replay_cycles_per_sec = calib.cycles_per_sec;
            s.republish();
        }
    }

    let mut slice = 0u64;
    // ordering: cold shutdown poll at slice granularity; seqcst for simplicity.
    while !stop.load(Ordering::SeqCst) {
        if let Some(max) = cfg.max_slices {
            if slice >= max {
                break;
            }
        }
        // Fault injection and the seeded panic are shard-0 hooks: the
        // tests that use them want exactly one deterministic failing
        // session while the other shards stay healthy.
        if let Some(inj) = cfg.inject {
            if shard == 0 && inj.at_slice == slice {
                session.scale_model_block(inj.block, inj.factor);
            }
        }
        // Each shard starts the mix rotation at its own phase, so a
        // mixed fleet interleaves scenarios instead of running them in
        // lock-step.
        let label = cfg.mix.slice_label(slice + shard as u64);
        let mut bus = build_slice_bus(label, cfg.slice_cycles, shard_seed + slice);
        let sim_started = Instant::now();
        // A panic inside the slice (the seeded test hook, or a real
        // defect) must not lose the run's history: catch it, dump a
        // flight-recorder bundle from the last published state, and
        // stop simulating. The HTTP plane keeps serving what we have.
        let sim = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                shard != 0 || cfg.panic_at_slice != Some(slice),
                "seeded panic in slice {slice}"
            );
            session.begin_slice(slice);
            session.run(&mut bus, cfg.slice_cycles);
            session.end_slice();
        }));
        if sim.is_err() {
            if let Ok(mut s) = state.lock() {
                drain_events(events, &mut events_cursor, &mut s);
                let window = s.anomaly_windows;
                if let Some(rec) = &mut flightrec {
                    let _ = rec.record(
                        "panic",
                        window,
                        slice,
                        None,
                        s.detector.as_ref(),
                        s.observatory.as_ref(),
                        &s.events_log,
                    );
                    s.flightrec_bundles = rec.bundles() as u64;
                }
                s.republish();
            }
            break;
        }
        let sim_us = sim_started.elapsed().as_micros() as u64;
        slice += 1;

        let rows: Vec<(String, u64, f64, f64)> = session
            .ledger()
            .rows()
            .into_iter()
            .map(|r| (r.instruction.name(), r.count, r.total, r.average))
            .collect();
        let total_energy = session.total_energy();
        let per_master_j = session.per_master_energy().to_vec();
        let points = session.trace_points().to_vec();
        let transactions = session
            .telemetry()
            .and_then(|t| t.events())
            .map_or(0, |t| t.transactions());
        let (anomaly_windows, anomaly_events, baseline_updates) =
            match session.telemetry_mut().and_then(|t| t.anomaly()) {
                Some(d) => (d.windows(), d.events().to_vec(), d.baseline_updates()),
                None => (0, Vec::new(), 0),
            };
        let observatory = session.telemetry().and_then(|t| t.observatory()).cloned();
        let detector = session
            .telemetry()
            .and_then(|t| t.anomaly())
            .map(|d| d.state());

        let Ok(mut s) = state.lock() else {
            break;
        };
        s.slices = slice;
        s.cycles = slice * cfg.slice_cycles;
        s.total_energy_j = total_energy;
        s.rows = rows;
        s.per_master_j = per_master_j;
        s.transactions = transactions;
        for p in &points[consumed_points..] {
            s.window_power_uw.observe((p.total_w * 1e6).round() as u64);
        }
        consumed_points = points.len();
        s.anomaly_windows = anomaly_windows;
        s.anomaly_events = anomaly_events;
        s.baseline_updates = baseline_updates;
        s.observatory = observatory;
        s.detector = detector;
        let flagged = drain_events(events, &mut events_cursor, &mut s);
        if let Some(rec) = &mut flightrec {
            for fe in &flagged {
                let anomaly = s.anomaly_events.iter().find(|a| a.window == fe.window);
                let _ = rec.record(
                    "anomaly",
                    fe.window,
                    fe.slice,
                    anomaly,
                    s.detector.as_ref(),
                    s.observatory.as_ref(),
                    &s.events_log,
                );
            }
            s.flightrec_bundles = rec.bundles() as u64;
        }
        s.sim_us.observe(sim_us);
        if let Some(us) = last_publish_us {
            s.publish_us.observe(us);
        }
        let publish_started = Instant::now();
        s.republish();
        last_publish_us = Some(publish_started.elapsed().as_micros() as u64);
    }
    // Draining the slice budget ends simulation but NOT serving: the
    // HTTP thread keeps answering until /quit or ServerHandle::wait.
}

/// The accept loop: admission control only. Connections under the
/// limit are queued for the pool; connections over it are shed with a
/// fast `503` (after a best-effort, short-timeout read of the request
/// line, so the client reliably sees the status instead of a reset).
fn run_accept(listener: &TcpListener, plane: &Arc<Plane>) {
    for conn in listener.incoming() {
        // ordering: cold shutdown poll per connection; seqcst for simplicity.
        if plane.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // ordering: admission gate vs pool decrements; seqcst for simplicity.
        if plane.active.load(Ordering::SeqCst) >= plane.max_connections as u64 {
            // ordering: statistics-only shed tally; seqcst for simplicity.
            plane.shed.fetch_add(1, Ordering::SeqCst);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let _ = read_request_path(&mut stream);
            let _ = write_response(
                &mut stream,
                503,
                "text/plain; charset=utf-8",
                "overloaded: connection limit reached, request shed\n",
            );
            linger_close(&mut stream);
            continue;
        }
        // ordering: admission claim, paired with the pool's decrement; seqcst for simplicity.
        plane.active.fetch_add(1, Ordering::SeqCst);
        let mut q = plane
            .queue
            .pending
            .lock()
            .expect("connection queue poisoned");
        q.push_back(stream);
        drop(q);
        plane.queue.ready.notify_one();
    }
}

/// One HTTP pool worker: pops admitted connections and answers them
/// until the stop flag is set and the queue is drained.
fn run_pool_worker(plane: &Arc<Plane>) {
    loop {
        let stream = {
            let mut q = plane
                .queue
                .pending
                .lock()
                .expect("connection queue poisoned");
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                // ordering: cold shutdown poll while idle; seqcst for simplicity.
                if plane.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = plane
                    .queue
                    .ready
                    .wait(q)
                    .expect("connection queue poisoned");
            }
        };
        let Some(mut stream) = stream else { break };
        handle_connection(&mut stream, plane);
        // ordering: releases the admission slot claimed by the accept loop; seqcst for simplicity.
        plane.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers one admitted connection; `/quit` additionally stops the
/// plane and pokes the listener so the accept loop exits.
fn handle_connection(stream: &mut TcpStream, plane: &Arc<Plane>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let path = match read_request_path(stream) {
        Some(Ok(path)) => path,
        Some(Err(status)) => {
            let body = match status {
                405 => "method not allowed: the server only answers GET\n",
                _ => "request line longer than 1024 bytes\n",
            };
            let _ = write_response(stream, status, "text/plain; charset=utf-8", body);
            linger_close(stream);
            return;
        }
        None => return,
    };
    let quit = path == "/quit" || path.starts_with("/quit?");
    let (status, content_type, body) = route(&path, plane);
    let _ = write_response(stream, status, content_type, &body);
    if quit {
        // ordering: cold control-plane flag; seqcst for simplicity.
        plane.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&plane.addr, Duration::from_secs(1));
        plane.queue.ready.notify_all();
    }
}

/// Parses the request line (`GET /path HTTP/1.1`) of one connection:
/// the path of a `GET`, `Err(405)` for any other method, `Err(414)` for a
/// line longer than the read buffer; `None` when the client sent nothing
/// parseable (or nothing at all) and gets no answer.
fn read_request_path(stream: &mut TcpStream) -> Option<Result<String, u16>> {
    let mut buf = [0u8; 1024];
    let mut filled = 0usize;
    let line_end = loop {
        let n = stream.read(&mut buf[filled..]).ok()?;
        if n == 0 {
            break None;
        }
        filled += n;
        if let Some(end) = buf[..filled].windows(2).position(|w| w == b"\r\n") {
            break Some(end);
        }
        if filled == buf.len() {
            return Some(Err(414));
        }
    };
    let line = core::str::from_utf8(&buf[..line_end.unwrap_or(filled)]).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return Some(Err(405));
    }
    Some(Ok(path.to_string()))
}

/// Closes a connection answered before its request was read in full:
/// stops writing, then discards what the client still sends for at most
/// 250 ms, so the close does not reset the connection and drop the
/// response before the client reads it.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// Reads `key=value` from a query string; `None` on absent or
/// unparseable values.
fn query_u64(query: &str, key: &str) -> Option<u64> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Reads a raw `key=value` string from a query string.
fn query_str<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
}

/// Strictly validates the `/query` range parameters. Absent keys get
/// the documented defaults; present-but-malformed values, `step=0` and
/// inverted ranges are errors (clean 400s, never silent fallbacks).
fn parse_range(query: &str) -> Result<(u64, u64, u64), String> {
    let parse = |key: &str, default: u64| -> Result<u64, String> {
        match query_str(query, key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad {key} '{v}': not a non-negative integer")),
        }
    };
    let from = parse("from", 0)?;
    let to = parse("to", u64::MAX)?;
    let step = parse("step", 1)?;
    if step == 0 {
        return Err("step must be >= 1".to_string());
    }
    if from > to {
        return Err(format!("empty range: from {from} > to {to}"));
    }
    Ok((from, to, step))
}

/// An HTTP answer: `(status, content-type, body)`.
type Response = (u16, &'static str, String);

fn bad_request(msg: String) -> Response {
    (400, "text/plain; charset=utf-8", format!("{msg}\n"))
}

/// The `GET /query?series=S[&from=A][&to=B][&step=N][&shard=K]`
/// endpoint: a range query over retained observatory history.
/// `from`/`to` are raw window indexes (inclusive, defaulting to
/// everything) and `step` picks the resolution: the coarsest level
/// whose factor is ≤ `step` answers, so `step=1` reads raw buckets,
/// `step=10` the 10× ring and `step=100` the 100× ring. The query fans
/// out to every selected shard observatory and merges buckets (sums
/// add, minima/maxima compose), so the merged energy total is exactly
/// the sum of the per-shard totals.
fn query_response(query: &str, plane: &Plane, shards: Range<usize>) -> Response {
    let Some(series) = query_str(query, "series") else {
        return bad_request("missing series parameter".to_string());
    };
    let (from, to, step) = match parse_range(query) {
        Ok(r) => r,
        Err(msg) => return bad_request(msg),
    };
    let placeholder = || {
        (
            200,
            "application/json",
            format!(
                "{{\"series\":\"{series}\",\"level\":0,\"factor\":1,\"from\":0,\"to\":0,\"step\":1,\"points\":[]}}"
            ),
        )
    };
    let mut results: Vec<QueryResult> = Vec::new();
    let mut have_observatory = false;
    for sh in &plane.shards[shards] {
        let Ok(s) = sh.state.lock() else {
            return (
                500,
                "text/plain; charset=utf-8",
                "state poisoned\n".to_string(),
            );
        };
        if let Some(obs) = &s.observatory {
            have_observatory = true;
            if let Some(q) = obs.query(series, from, to, step) {
                results.push(q);
            }
        }
    }
    if !have_observatory {
        return placeholder();
    }
    match merge_query_results(results) {
        Some(merged) => (200, "application/json", query_result_json(&merged)),
        None => bad_request(format!("unknown series '{series}'")),
    }
}

/// Formats a merged-plane cursor: one absolute per-shard sequence,
/// dot-joined (`"12.34"` = shard 0 at 12, shard 1 at 34).
pub fn format_multi_cursor(cursors: &[u64]) -> String {
    let mut out = String::with_capacity(4 * cursors.len());
    for (i, c) in cursors.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        let _ = write!(out, "{c}");
    }
    out
}

/// Parses a merged-plane cursor back into per-shard sequences. Short
/// cursors zero-pad (so `"0"` — or an absent parameter — starts every
/// shard from its oldest retained event); overlong or non-numeric
/// cursors are `None`.
pub fn parse_multi_cursor(s: &str, shards: usize) -> Option<Vec<u64>> {
    let mut cursors = vec![0u64; shards];
    if s.is_empty() {
        return Some(cursors);
    }
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() > shards {
        return None;
    }
    for (i, p) in parts.iter().enumerate() {
        cursors[i] = p.parse().ok()?;
    }
    Some(cursors)
}

/// Reads every shard ring once from its cursor: the merged `/events`
/// read. Each [`EventBatch`] keeps its shard's absolute sequence space
/// (`next` is monotone per shard; `dropped` counts that shard's losses
/// in `[since, next)`), which is what the cursor-space property tests
/// pin down.
pub fn merged_read_since(buses: &[Arc<EventBus>], since: &[u64], max: usize) -> Vec<EventBatch> {
    buses
        .iter()
        .zip(since)
        .map(|(bus, &s)| bus.read_since(s, max))
        .collect()
}

/// The `/events` body: string cursors over the aggregated sequence
/// space of the selected shards, per-shard `dropped`/`published`
/// arrays, and every event tagged with its plane shard index.
fn merged_events_json(query: &str, plane: &Plane, shards: Range<usize>) -> Response {
    let n = shards.len();
    let since = match query_str(query, "since") {
        None => vec![0u64; n],
        Some(v) => match parse_multi_cursor(v, n) {
            Some(c) => c,
            None => return bad_request(format!("bad since '{v}': want up to {n} dot-joined u64s")),
        },
    };
    let max = query_u64(query, "max").unwrap_or(1_000).min(4_096) as usize;
    let timeout_ms = query_u64(query, "timeout_ms")
        .unwrap_or(0)
        .min(EVENTS_POLL_CAP_MS);
    let selected = &plane.shards[shards.clone()];
    let buses: Vec<Arc<EventBus>> = selected.iter().map(|s| Arc::clone(&s.events)).collect();
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut batches = merged_read_since(&buses, &since, max);
    while batches.iter().all(|b| b.events.is_empty())
        && Instant::now() < deadline
        // ordering: cold shutdown poll in the long-poll loop; seqcst for simplicity.
        && !plane.stop.load(Ordering::SeqCst)
    {
        thread::sleep(Duration::from_millis(25));
        batches = merged_read_since(&buses, &since, max);
    }
    let total: usize = batches.iter().map(|b| b.events.len()).sum();
    let next: Vec<u64> = batches.iter().map(|b| b.next).collect();
    let mut out = String::with_capacity(128 + 104 * total);
    let _ = write!(
        out,
        "{{\"since\":\"{}\",\"next\":\"{}\",\"shards\":{n},\"dropped\":[",
        format_multi_cursor(&since),
        format_multi_cursor(&next)
    );
    for (i, b) in batches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", b.dropped);
    }
    out.push_str("],\"published\":[");
    for (i, b) in batches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", b.published);
    }
    let enabled = selected.iter().any(|s| s.events.is_enabled());
    let _ = write!(out, "],\"enabled\":{enabled},\"events\":[");
    let mut first = true;
    for (shard, b) in shards.zip(&batches) {
        for e in &b.events {
            if !first {
                out.push(',');
            }
            first = false;
            // Splice the shard tag into the event object.
            let obj = e.to_json_obj();
            let _ = write!(out, "{{\"shard\":{shard},{}", &obj[1..]);
        }
    }
    out.push_str("]}");
    (200, "application/json", out)
}

/// Builds the `/metrics` registry of the selected shards: their
/// registries sum (counters add, histograms bucket-merge),
/// non-extensive gauges are overwritten with their plane-level
/// composition, the serving plane's own admission metrics are added,
/// and — when the selection covers several shards — every shard's
/// registry rides along under a `shard=` label.
fn merged_registry(plane: &Plane, shards: Range<usize>) -> MetricsRegistry {
    let snaps: Vec<(usize, MetricsRegistry, bool)> = shards
        .clone()
        .zip(&plane.shards[shards.clone()])
        .filter_map(|(i, sh)| {
            sh.state
                .lock()
                .ok()
                .map(|s| (i, s.registry.clone(), s.degraded()))
        })
        .collect();
    let mut agg = MetricsRegistry::new();
    for (_, reg, _) in &snaps {
        agg.merge_sum(reg);
    }
    // Summing uptime/degraded/replay-throughput across shards is
    // meaningless; recompose them at plane level.
    let g = agg.gauge("serve_uptime_seconds", "Service uptime.", &[]);
    agg.set(g, plane.uptime_s());
    let degraded = snaps.iter().any(|(_, _, d)| *d);
    let g = agg.gauge(
        "serve_degraded",
        "1 while any shard's most recently judged detection window was flagged.",
        &[],
    );
    agg.set(g, if degraded { 1.0 } else { 0.0 });
    let replay = snaps
        .iter()
        .filter_map(|(_, r, _)| r.gauge_value("serve_replay_cycles_per_second", &[]))
        .fold(0.0f64, f64::max);
    let g = agg.gauge(
        "serve_replay_cycles_per_second",
        "Variant-cycles per second of the startup self-calibration's lane-batched 4-variant replay sweep.",
        &[],
    );
    agg.set(g, replay);
    let g = agg.gauge("serve_shards", "Worker shards this answer covers.", &[]);
    agg.set(g, shards.len() as f64);
    let g = agg.gauge("serve_http_threads", "HTTP pool size.", &[]);
    agg.set(g, plane.http_threads as f64);
    let g = agg.gauge(
        "serve_http_max_connections",
        "Admission limit: connections admitted beyond this are shed.",
        &[],
    );
    agg.set(g, plane.max_connections as f64);
    let g = agg.gauge(
        "serve_http_active_connections",
        "Connections admitted and not yet answered.",
        &[],
    );
    // ordering: monitoring reads of hot admission counters; seqcst for simplicity.
    agg.set(g, plane.active.load(Ordering::SeqCst) as f64);
    let c = agg.counter(
        "serve_http_shed_total",
        "Connections shed with 503 by the admission limit.",
        &[],
    );
    // ordering: monitoring read of the shed tally; seqcst for simplicity.
    agg.add(c, plane.shed.load(Ordering::SeqCst) as f64);
    if shards.len() > 1 {
        for (i, reg, _) in &snaps {
            agg.merge_labeled(reg, "shard", &i.to_string());
        }
    }
    agg
}

fn metrics_response(_query: &str, plane: &Plane, shards: Range<usize>) -> Response {
    (
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        to_prometheus(&merged_registry(plane, shards)),
    )
}

/// The `/status` document of the selected shards: extensive figures
/// summed, watermarks and flags max/any-composed, plus `shards` (how
/// many shards the document covers), an `http` admission block and a
/// `shard_detail` entry per covered shard. `seed` is the first covered
/// shard's seed (the base seed when every shard is covered).
fn merged_status_json(plane: &Plane, shards: Range<usize>) -> String {
    let n = shards.len();
    let mut seed = plane.seed;
    let mut slices = 0u64;
    let mut cycles = 0u64;
    let mut total_energy = 0.0f64;
    let mut transactions = 0u64;
    let mut window_power = CycleHistogram::new(&WINDOW_POWER_BOUNDS_UW);
    let mut anomaly_windows = 0u64;
    let mut anomaly_count = 0u64;
    let mut baseline_updates = 0u64;
    let mut last_anomaly: Option<AnomalyEvent> = None;
    let mut per_master: Vec<f64> = Vec::new();
    let mut ev_enabled = false;
    let mut ev_published = 0u64;
    let mut ev_dropped = 0u64;
    let mut ev_logged = 0u64;
    let mut ev_cursor = 0u64;
    let mut ev_lag = 0u64;
    let mut degraded = false;
    let mut hw_slice = 0u64;
    let mut hw_window = 0u64;
    let mut obs_any = false;
    let mut obs_windows = 0u64;
    let mut obs_occupancy = [0u64; OBSERVATORY_LEVEL_FACTORS.len()];
    let mut obs_opened = [0u64; OBSERVATORY_LEVEL_FACTORS.len()];
    let mut flightrec = 0u64;
    let mut replay = (0u64, 0u64, 0.0f64);
    let mut sim_us = CycleHistogram::new(&STAGE_US_BOUNDS);
    let mut publish_us = CycleHistogram::new(&STAGE_US_BOUNDS);
    let mut render_us = CycleHistogram::new(&STAGE_US_BOUNDS);
    let mut rows: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut detail = String::new();

    for (i, sh) in shards.clone().zip(&plane.shards[shards.clone()]) {
        let Ok(s) = sh.state.lock() else { continue };
        if i == shards.start {
            seed = s.seed;
        }
        slices += s.slices;
        cycles += s.cycles;
        total_energy += s.total_energy_j;
        transactions += s.transactions;
        window_power.merge(&s.window_power_uw);
        anomaly_windows += s.anomaly_windows;
        anomaly_count += s.anomaly_events.len() as u64;
        baseline_updates += s.baseline_updates;
        if let Some(e) = s.anomaly_events.last() {
            if last_anomaly
                .as_ref()
                .is_none_or(|prev| e.window >= prev.window)
            {
                last_anomaly = Some(e.clone());
            }
        }
        if per_master.len() < s.per_master_j.len() {
            per_master.resize(s.per_master_j.len(), 0.0);
        }
        for (m, j) in s.per_master_j.iter().enumerate() {
            per_master[m] += j;
        }
        ev_enabled |= s.events_enabled;
        ev_published += s.events_published;
        ev_dropped += s.events_dropped;
        ev_logged += s.events_log.len() as u64;
        ev_cursor += s.events_cursor;
        ev_lag += s.events_lag();
        degraded |= s.degraded();
        hw_slice = hw_slice.max(s.slices);
        hw_window = hw_window.max(s.anomaly_windows);
        if let Some(obs) = &s.observatory {
            obs_any = true;
            obs_windows += obs.windows_ingested();
            for level in 0..OBSERVATORY_LEVEL_FACTORS.len() {
                obs_occupancy[level] += obs.occupancy(level) as u64;
                obs_opened[level] += obs.cascades(level);
            }
        }
        flightrec += s.flightrec_bundles;
        if s.replay_trace_cycles > replay.0 {
            replay = (
                s.replay_trace_cycles,
                s.replay_variants,
                s.replay_cycles_per_sec,
            );
        }
        sim_us.merge(&s.sim_us);
        publish_us.merge(&s.publish_us);
        render_us.merge(&s.render_us);
        for (name, count, total, _) in &s.rows {
            let e = rows.entry(name.clone()).or_insert((0, 0.0));
            e.0 += count;
            e.1 += total;
        }
        if !detail.is_empty() {
            detail.push(',');
        }
        let _ = write!(
            detail,
            "{{\"shard\":{i},\"scenario_mix\":\"{}\",\"seed\":{},\"slices\":{},\"cycles\":{},\"total_energy_j\":{},\"transactions\":{},\"anomalies\":{},\"degraded\":{},\"events\":{{\"published\":{},\"dropped\":{},\"lag\":{}}},\"observatory_windows\":{},\"flightrec_bundles\":{}}}",
            s.mix.name(),
            s.seed,
            s.slices,
            s.cycles,
            json_num(s.total_energy_j),
            s.transactions,
            s.anomaly_events.len(),
            s.degraded(),
            s.events_published,
            s.events_dropped,
            s.events_lag(),
            s.observatory.as_ref().map_or(0, |o| o.windows_ingested()),
            s.flightrec_bundles
        );
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"status\":\"ok\",\"shards\":{n},\"scenario_mix\":\"{}\",\"uptime_s\":{},\"slices\":{},\"cycles\":{},\"seed\":{},\"total_energy_j\":{}",
        plane.mix.name(),
        json_num(plane.uptime_s()),
        slices,
        cycles,
        seed,
        json_num(total_energy)
    );
    let _ = write!(
        out,
        ",\"window_power_uw\":{{\"windows\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        window_power.count(),
        json_num(window_power.quantile(0.5)),
        json_num(window_power.quantile(0.95)),
        json_num(window_power.quantile(0.99))
    );
    let _ = write!(
        out,
        ",\"anomalies\":{{\"windows\":{anomaly_windows},\"count\":{anomaly_count},\"baseline_updates\":{baseline_updates},\"last\":"
    );
    match &last_anomaly {
        Some(e) => {
            let _ = write!(
                out,
                "{{\"window\":{},\"start_cycle\":{},\"deviation_pct\":{},\"z_score\":{}}}",
                e.window,
                e.start_cycle,
                json_num(e.deviation_pct),
                json_num(e.z_score)
            );
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, "}},\"transactions\":{transactions},\"per_master_j\":[");
    for (i, j) in per_master.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_num(*j));
    }
    let _ = write!(
        out,
        "],\"events\":{{\"enabled\":{ev_enabled},\"published\":{ev_published},\"dropped\":{ev_dropped},\"logged\":{ev_logged},\"cursor\":{ev_cursor},\"lag\":{ev_lag}}}"
    );
    let _ = write!(
        out,
        ",\"degraded\":{degraded},\"high_water\":{{\"slice\":{hw_slice},\"window\":{hw_window}}}"
    );
    out.push_str(",\"observatory\":");
    if obs_any {
        let _ = write!(out, "{{\"windows\":{obs_windows},\"levels\":[");
        for (level, factor) in OBSERVATORY_LEVEL_FACTORS.iter().enumerate() {
            if level > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"factor\":{factor},\"occupancy\":{},\"opened\":{}}}",
                obs_occupancy[level], obs_opened[level]
            );
        }
        out.push_str("]}");
    } else {
        out.push_str("null");
    }
    let _ = write!(out, ",\"flightrec\":{{\"bundles\":{flightrec}}}");
    let _ = write!(
        out,
        ",\"replay\":{{\"trace_cycles\":{},\"variants\":{},\"cycles_per_sec\":{}}}",
        replay.0,
        replay.1,
        json_num(replay.2)
    );
    let _ = write!(
        out,
        ",\"http\":{{\"threads\":{},\"max_connections\":{},\"active\":{},\"shed\":{}}}",
        plane.http_threads,
        plane.max_connections,
        // ordering: monitoring reads of hot admission counters; seqcst for simplicity.
        plane.active.load(Ordering::SeqCst),
        // ordering: monitoring read of the shed tally; seqcst for simplicity.
        plane.shed.load(Ordering::SeqCst)
    );
    out.push_str(",\"stages\":{");
    for (i, (stage, hist)) in [
        ("sim_us", &sim_us),
        ("publish_us", &publish_us),
        ("render_us", &render_us),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{stage}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            hist.count(),
            json_num(hist.quantile(0.5)),
            json_num(hist.quantile(0.95)),
            json_num(hist.quantile(0.99))
        );
    }
    out.push_str("},\"instructions\":[");
    for (i, (name, (count, total))) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mean = if *count > 0 {
            total / *count as f64
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"count\":{count},\"total_j\":{},\"mean_j\":{}}}",
            json_num(*total),
            json_num(mean)
        );
    }
    let _ = write!(out, "],\"shard_detail\":[{detail}]}}");
    out
}

fn status_response(_query: &str, plane: &Plane, shards: Range<usize>) -> Response {
    let started = Instant::now();
    let book = shards.start;
    let body = merged_status_json(plane, shards);
    // Self-measured with one-render lag, booked to the first covered
    // shard: this observation shows up in the next render's stages
    // block.
    if let Ok(mut s) = plane.shards[book].state.lock() {
        s.render_us.observe(started.elapsed().as_micros() as u64);
    }
    (200, "application/json", body)
}

fn healthz_response(_query: &str, plane: &Plane, shards: Range<usize>) -> Response {
    let mut degraded = false;
    let mut hw_slice = 0u64;
    let mut hw_window = 0u64;
    for sh in &plane.shards[shards.clone()] {
        if let Ok(s) = sh.state.lock() {
            degraded |= s.degraded();
            hw_slice = hw_slice.max(s.slices);
            hw_window = hw_window.max(s.anomaly_windows);
        }
    }
    let body = format!(
        "{{\"status\":\"ok\",\"uptime_s\":{},\"degraded\":{degraded},\"shards\":{},\"shed\":{},\"high_water\":{{\"slice\":{hw_slice},\"window\":{hw_window}}}}}",
        json_num(plane.uptime_s()),
        shards.len(),
        // ordering: monitoring read of the shed tally; seqcst for simplicity.
        plane.shed.load(Ordering::SeqCst)
    );
    (200, "application/json", body)
}

/// Maps a path (plus optional query string) to
/// `(status, content-type, body)`. The data endpoints render from the
/// shard selection [`Plane::select`] parses out of the query.
fn route(path: &str, plane: &Plane) -> Response {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    let render: fn(&str, &Plane, Range<usize>) -> Response = match path {
        "/" | "/dashboard" => return (200, "text/html; charset=utf-8", DASHBOARD_HTML.to_string()),
        "/quit" => {
            return (
                200,
                "text/plain; charset=utf-8",
                "shutting down\n".to_string(),
            )
        }
        "/events" => merged_events_json,
        "/healthz" => healthz_response,
        "/metrics" => metrics_response,
        "/query" => query_response,
        "/status" => status_response,
        _ => return (404, "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    match plane.select(query) {
        Ok(shards) => render(query, plane, shards),
        Err(msg) => bad_request(msg),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let allow = if status == 405 { "Allow: GET\r\n" } else { "" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n{allow}Content-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A fetched HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response body (after the blank line).
    pub body: String,
}

/// Minimal std-only HTTP GET — the fetch helper `check.sh` and the
/// integration tests use instead of curl.
///
/// # Errors
///
/// [`ServeError::Io`] on connect/read trouble,
/// [`ServeError::SelfCheck`] on an unparseable response.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> Result<HttpResponse, ServeError> {
    let sock_addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| ServeError::SelfCheck(format!("bad address '{addr}': {e}")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ServeError::SelfCheck(format!("unparseable response: {raw:.80}")))?;
    let body = match raw.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok(HttpResponse { status, body })
}
