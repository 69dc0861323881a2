//! The traced run's span ledger. Spans are taken from the benchmark's
//! own loops around each call into a layer, kept in memory, aggregated
//! per layer (per-cycle spans would outweigh the work they time) and
//! printed when the run ends.
//!
//! Consecutive spans share their boundary timestamps, so one clock read
//! closes a span and opens the next; the cost of one such read, measured
//! at start-up, is subtracted from every span to give self time.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The layer calls the traced loops time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PaperTestbench`/`SocScenario` bus build.
    Build,
    /// `AhbBus::step`.
    Step,
    /// `PowerFsm::observe`.
    Observe,
    /// `PowerTrace::push` (and the per-run `finish`).
    Push,
    /// `Telemetry::observe_bus`.
    ObserveBus,
    /// `Telemetry::observe_power`.
    ObservePower,
    /// `Telemetry::record_observe` (the session's per-cycle span).
    RecordObserve,
    /// `Telemetry::begin_slice` + `end_slice`.
    SliceBoundary,
    /// `EventBus::read_since` drain.
    Drain,
    /// `ActivityRecorder::record`.
    Record,
    /// `ActivityTrace::to_bytes`.
    Encode,
    /// `ActivityTrace::from_bytes`.
    Decode,
    /// `ReplayEngine::new` (LUT build).
    EngineBuild,
    /// `ReplayEngine::replay_into`.
    ReplayInto,
}

const LAYERS: usize = 14;

/// Per-layer accumulated span time and call count.
#[derive(Debug, Clone)]
pub struct Spans {
    ns: [u128; LAYERS],
    calls: [u64; LAYERS],
    empty_ns: f64,
}

impl Spans {
    /// A fresh ledger, calibrated against the cost of an empty span.
    pub fn new() -> Self {
        Spans::with_empty(empty_span_ns())
    }

    /// A fresh ledger using an already measured empty-span cost.
    pub fn with_empty(empty_ns: f64) -> Self {
        Spans {
            ns: [0; LAYERS],
            calls: [0; LAYERS],
            empty_ns,
        }
    }

    /// Books one span of `layer` ending now; returns now, which opens
    /// the next span.
    #[inline]
    pub fn close(&mut self, layer: Layer, opened: Instant) -> Instant {
        let now = Instant::now();
        self.ns[layer as usize] += (now - opened).as_nanos();
        self.calls[layer as usize] += 1;
        now
    }

    /// Merges another ledger (e.g. a worker thread's) into this one.
    pub fn merge(&mut self, other: &Spans) {
        for i in 0..LAYERS {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Calls booked for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Mean self time per call of `layer`, ns (0 when never called).
    pub fn self_ns(&self, layer: Layer) -> f64 {
        let calls = self.calls[layer as usize];
        if calls == 0 {
            return 0.0;
        }
        (self.ns[layer as usize] as f64 / calls as f64 - self.empty_ns).max(0.0)
    }

    /// Total self time of `layer`, ns.
    pub fn total_self_ns(&self, layer: Layer) -> f64 {
        self.self_ns(layer) * self.calls[layer as usize] as f64
    }

    /// The measured cost of an empty span, ns.
    pub fn empty_ns(&self) -> f64 {
        self.empty_ns
    }

    /// One line per layer that was called, for the run's output.
    pub fn lines(&self) -> Vec<String> {
        const NAMES: [&str; LAYERS] = [
            "build",
            "step",
            "observe",
            "push",
            "observe_bus",
            "observe_power",
            "record_observe",
            "slice_boundary",
            "drain",
            "record",
            "encode",
            "decode",
            "engine_build",
            "replay_into",
        ];
        (0..LAYERS)
            .filter(|&i| self.calls[i] > 0)
            .map(|i| {
                format!(
                    "span {} calls={} total_ns={} self_ns_per_call={:.3}",
                    NAMES[i],
                    self.calls[i],
                    self.ns[i],
                    (self.ns[i] as f64 / self.calls[i] as f64 - self.empty_ns).max(0.0)
                )
            })
            .collect()
    }
}

/// The time between two consecutive clock reads with nothing between
/// them, ns: the median over batches of the mean, so one preempted
/// batch does not skew it.
fn empty_span_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            let mut t = start;
            for _ in 0..BATCH {
                t = black_box(Instant::now());
            }
            (t - start).as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&batches)
}
