//! The simulation workloads: `paper_table1` (the paper testbench under a
//! plain `PowerSession`) and `soc_observed` (the SoC scenario run slice
//! by slice under full telemetry, as one serve shard runs it).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ahbpower::telemetry::{EventBus, ObservatoryConfig, Telemetry, TelemetryConfig};
use ahbpower::{
    AhbPowerModel, AnalysisConfig, PowerFsm, PowerSession, PowerTrace, SubBlock, TracePoint,
};
use ahbpower_ahb::{AhbBus, BusStats};
use ahbpower_bench::{build_paper_bus, ServeConfig};
use ahbpower_workloads::SocScenario;

use crate::report::{describe, ns_since, peak_rss_mb, Run};
use crate::spans::{Layer, Spans};
use crate::stats::{median, summarize};

/// Cycles per `paper_table1` repetition.
pub const PAPER_REP_CYCLES: u64 = 100_000;
/// Cycles per `soc_observed` slice (the serve default).
pub const SLICE_CYCLES: u64 = 20_000;
/// Slices per `soc_observed` repetition.
pub const SOC_SLICES_PER_REP: u64 = 10;
/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 21;
/// Repetitions every run makes, however short `--seconds` is.
pub const MIN_REPS: usize = 5;
/// The sub-block and factor of the mutant every energy check must catch.
pub const MUTANT: (SubBlock, f64) = (SubBlock::Arb, 1.5);

/// The SoC scenario bus for one slice, scaled to the slice length the way
/// a serve shard scales it.
pub fn soc_bus(slice_cycles: u64, seed: u64) -> AhbBus {
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

/// The analysis config of a bus with the SoC scenario's shape.
pub fn soc_config(seed: u64) -> AnalysisConfig {
    AnalysisConfig {
        n_masters: SocScenario::N_MASTERS,
        n_slaves: SocScenario::N_SLAVES,
        seed,
        ..AnalysisConfig::paper_testbench()
    }
}

/// Bus counts a simulator-only change must leave identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub transfers_ok: u64,
    pub errors: u64,
    pub retries: u64,
    pub splits: u64,
    pub wait_cycles: u64,
    pub handovers: u64,
    pub idle_cycles: u64,
}

impl Counts {
    pub fn add(&mut self, s: &BusStats) {
        self.cycles += s.cycles;
        self.transfers_ok += s.transfers_ok;
        self.errors += s.errors;
        self.retries += s.retries;
        self.splits += s.splits;
        self.wait_cycles += s.wait_cycles;
        self.handovers += s.handovers;
        self.idle_cycles += s.idle_cycles;
    }

    pub fn of(s: &BusStats) -> Self {
        let mut c = Counts::default();
        c.add(s);
        c
    }

    /// Reports the counts as the `ahb.*` per-layer metrics.
    pub fn report(&self, run: &mut Run) {
        run.set("ahb.transfers_ok", self.transfers_ok as f64);
        run.set("ahb.wait_cycles", self.wait_cycles as f64);
        run.set("ahb.handovers", self.handovers as f64);
        run.set("ahb.idle_cycles", self.idle_cycles as f64);
    }
}

/// Prints the output fingerprint: total-energy bits plus bus counts, so
/// two builds can be shown to simulate identically.
pub fn fingerprint(run: &mut Run, workload: &str, energy_j: f64, c: &Counts) {
    run.note(format!(
        "fingerprint {workload} energy_bits={:#018x} energy_j={energy_j:e} cycles={} transfers_ok={} errors={} retries={} splits={} wait_cycles={} handovers={} idle_cycles={}",
        energy_j.to_bits(),
        c.cycles,
        c.transfers_ok,
        c.errors,
        c.retries,
        c.splits,
        c.wait_cycles,
        c.handovers,
        c.idle_cycles
    ));
}

/// Runs `round` until `seconds` have passed and at least [`MIN_REPS`]
/// rounds ran; `round` gets the round index.
pub fn for_seconds(seconds: u64, mut round: impl FnMut(usize)) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0;
    while i < MIN_REPS || Instant::now() < deadline {
        round(i);
        i += 1;
    }
}

/// Times [`SETUP_REPEATS`] set-ups back to back, the first from process
/// start, and reports their median as `setup_s`.
pub fn measure_setup(run: &mut Run, start: Instant, mut setup: impl FnMut()) {
    let samples: Vec<f64> = (0..SETUP_REPEATS)
        .map(|i| {
            let t = if i == 0 { start } else { Instant::now() };
            setup();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let s = summarize(&samples);
    run.set_summary("setup_s", s.median, s);
}

/// Prints the operation latency, and reports `sim_ns_per_cycle` as the
/// 90th percentile of per-rep ns/cycle.
pub fn report_ops(run: &mut Run, op_ns: &[f64], ns_per_cycle: &[f64]) {
    let ops_ms: Vec<f64> = op_ns.iter().map(|ns| ns / 1e6).collect();
    run.note(format!("op latency ms ({})", describe(&summarize(&ops_ms))));
    let c = summarize(ns_per_cycle);
    run.set_summary("sim_ns_per_cycle", c.p90, c);
    run.set("peak_rss_mb", peak_rss_mb());
}

// ---------------------------------------------------------------- paper

/// The result of one paper rep that every rep must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct PaperResult {
    energy_bits: u64,
    stats: BusStats,
}

fn paper_rep(cfg: &AnalysisConfig, seed: u64, mutant: bool) -> (PaperResult, f64, PowerSession) {
    let mut bus = build_paper_bus(PAPER_REP_CYCLES, seed);
    let t = Instant::now();
    let mut session = PowerSession::new(cfg);
    if mutant {
        session.scale_model_block(MUTANT.0, MUTANT.1);
    }
    session.run(&mut bus, PAPER_REP_CYCLES);
    let ns = ns_since(t);
    let result = PaperResult {
        energy_bits: session.total_energy().to_bits(),
        stats: bus.stats().clone(),
    };
    (result, ns, session)
}

/// `paper_table1`, tracing off: repeated `PowerSession` runs of the
/// paper testbench. One operation is one rep.
pub fn paper_table1(run: &mut Run, seed: u64, seconds: u64, start: Instant) {
    let cfg = AnalysisConfig::paper_testbench();
    measure_setup(run, start, || {
        black_box(build_paper_bus(PAPER_REP_CYCLES, seed));
        black_box(PowerSession::new(&cfg));
    });
    let mut reference: Option<PaperResult> = None;
    let (mut op_ns, mut per_cycle) = (Vec::new(), Vec::new());
    for_seconds(seconds, |_| {
        let (result, ns, _) = paper_rep(&cfg, seed, false);
        let ok = reference.get_or_insert_with(|| result.clone()) == &result;
        run.op(ok);
        op_ns.push(ns);
        per_cycle.push(ns / PAPER_REP_CYCLES as f64);
    });
    let reference = reference.expect("at least one rep ran");
    paper_checks(run, &cfg, seed, &reference);
    report_ops(run, &op_ns, &per_cycle);
}

fn paper_checks(run: &mut Run, cfg: &AnalysisConfig, seed: u64, reference: &PaperResult) {
    run.check(
        "reps_identical",
        run.failed() == 0,
        "every rep's energy bits and BusStats equal the first rep's",
    );
    let (mutant, _, _) = paper_rep(cfg, seed, true);
    run.must_trip(
        "reps_identical",
        mutant.energy_bits != reference.energy_bits,
    );
    let energy = f64::from_bits(reference.energy_bits);
    fingerprint(run, "paper_table1", energy, &Counts::of(&reference.stats));
}

/// `paper_table1`, traced: interleaves four legs per round — the
/// functional bus alone, the untraced session, an untraced loop that
/// composes the session's public calls, and that loop with a span around
/// every layer call.
pub fn paper_table1_traced(run: &mut Run, seed: u64, seconds: u64) {
    let cfg = AnalysisConfig::paper_testbench();
    let c = PAPER_REP_CYCLES;
    let (reference, _, session) = paper_rep(&cfg, seed, false);
    let mut spans = Spans::new();
    let (mut build_ms, mut func, mut ratio, mut glue, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for_seconds(seconds, |round| {
        let mut legs = [0.0f64; 4];
        let mut ok = true;
        for k in 0..4 {
            // Rotate the leg order so no leg always runs on a warm cache.
            let leg = (round + k) % 4;
            let t = Instant::now();
            let mut bus = build_paper_bus(c, seed);
            build_ms.push(ns_since(t) / 1e6);
            let t = Instant::now();
            let (energy, same_points) = match leg {
                0 => {
                    bus.run(c);
                    (reference.energy_bits, true)
                }
                1 => {
                    let mut s = PowerSession::new(&cfg);
                    s.run(&mut bus, c);
                    (
                        s.total_energy().to_bits(),
                        s.trace_points() == session.trace_points(),
                    )
                }
                _ => {
                    let (energy, trace) = if leg == 2 {
                        composed(&cfg, &mut bus, c)
                    } else {
                        composed_traced(&cfg, &mut bus, c, &mut spans)
                    };
                    (energy.to_bits(), trace.points() == session.trace_points())
                }
            };
            legs[leg] = ns_since(t);
            ok &= *bus.stats() == reference.stats && energy == reference.energy_bits && same_points;
        }
        run.op(ok);
        func.push(legs[0] / c as f64);
        ratio.push(legs[1] / legs[0]);
        glue.push((legs[1] - legs[2]) / c as f64);
        overhead.push((legs[3] - legs[2]) / legs[2] * 100.0);
    });
    run.check(
        "traced_equals_session",
        run.failed() == 0,
        "the composed loop, traced and untraced, books the session's energy and trace points bit for bit on the same BusStats",
    );
    let (mutant, _, _) = paper_rep(&cfg, seed, true);
    run.must_trip(
        "traced_equals_session",
        mutant.energy_bits != reference.energy_bits,
    );
    let counts = Counts::of(&reference.stats);
    fingerprint(run, "paper_table1", session.total_energy(), &counts);
    counts.report(run);
    run.set("workloads.build_ms", median(&build_ms));
    run.set("ahb.step_ns", spans.self_ns(Layer::Step));
    run.set("ahb.functional_ns_per_cycle", median(&func));
    run.set("power_fsm.observe_ns", spans.self_ns(Layer::Observe));
    run.set("power.instr_ratio", median(&ratio));
    run.set("trace.push_ns", spans.self_ns(Layer::Push));
    run.set("trace.points", session.trace_points().len() as f64);
    run.set("session.glue_ns", median(&glue));
    run.set("tracing.empty_span_ns", spans.empty_ns());
    run.set("tracing.overhead_pct", median(&overhead));
    for line in spans.lines() {
        run.note(line);
    }
    run.note(format!(
        "paper Sec. 6 answer: PowerSession takes {:.3}x the functional bus's host time per cycle",
        median(&ratio)
    ));
}

/// The session's hot loop rebuilt from public calls, untraced. Returns
/// the booked energy and the power trace.
fn composed(cfg: &AnalysisConfig, bus: &mut AhbBus, cycles: u64) -> (f64, PowerTrace) {
    let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
    let mut fsm = PowerFsm::new(model);
    let mut trace = PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz);
    for _ in 0..cycles {
        let snap = bus.step();
        let rec = fsm.observe(snap);
        trace.push(rec.energy);
    }
    trace.finish();
    (fsm.total_energy(), trace)
}

/// [`composed`] with a span around every layer call.
fn composed_traced(
    cfg: &AnalysisConfig,
    bus: &mut AhbBus,
    cycles: u64,
    spans: &mut Spans,
) -> (f64, PowerTrace) {
    let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
    let mut fsm = PowerFsm::new(model);
    let mut trace = PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz);
    let mut t = Instant::now();
    for _ in 0..cycles {
        let snap = bus.step();
        t = spans.close(Layer::Step, t);
        let rec = fsm.observe(snap);
        t = spans.close(Layer::Observe, t);
        trace.push(rec.energy);
        t = spans.close(Layer::Push, t);
    }
    trace.finish();
    (fsm.total_energy(), trace)
}

// ------------------------------------------------------------------ soc

/// The telemetry a serve shard attaches: anomaly detector, observatory
/// and event ring, with the serve defaults.
fn shard_telemetry(seed: u64, ring: &Arc<EventBus>) -> TelemetryConfig {
    TelemetryConfig::enabled("serve_soc")
        .with_seed(seed)
        .with_anomaly(ServeConfig::default().anomaly)
        .with_observatory(ObservatoryConfig::default())
        .with_events(Arc::clone(ring))
}

fn shard_ring() -> Arc<EventBus> {
    EventBus::shared(ServeConfig::default().events_capacity)
}

/// Drains everything the ring holds past `cursor`, as a serve shard does
/// after each slice. Returns `(events, dropped)`.
fn drain(ring: &EventBus, cursor: &mut u64) -> (u64, u64) {
    let (mut events, mut dropped) = (0u64, 0u64);
    loop {
        let batch = ring.read_since(*cursor, 4096);
        *cursor = batch.next;
        dropped += batch.dropped;
        if batch.events.is_empty() {
            return (events, dropped);
        }
        events += batch.events.len() as u64;
        black_box(&batch.events);
    }
}

/// What one `soc_observed` rep must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SocResult {
    energy_bits: u64,
    points_hash: u64,
    counts: Counts,
    events: u64,
    dropped: u64,
    anomaly_windows: u64,
    observatory_windows: u64,
}

/// One rep through `PowerSession::with_telemetry`: returns the result
/// and each slice's wall ns.
fn soc_rep(cfg: &AnalysisConfig, seed: u64) -> (SocResult, Vec<f64>) {
    let ring = shard_ring();
    let mut session = PowerSession::with_telemetry(cfg, shard_telemetry(seed, &ring));
    let mut cursor = 0u64;
    let mut r = SocResult {
        energy_bits: 0,
        points_hash: 0,
        counts: Counts::default(),
        events: 0,
        dropped: 0,
        anomaly_windows: 0,
        observatory_windows: 0,
    };
    let mut slice_ns = Vec::with_capacity(SOC_SLICES_PER_REP as usize);
    for slice in 0..SOC_SLICES_PER_REP {
        let t = Instant::now();
        let mut bus = soc_bus(SLICE_CYCLES, seed + slice);
        session.begin_slice(slice);
        session.run(&mut bus, SLICE_CYCLES);
        session.end_slice();
        let (events, dropped) = drain(&ring, &mut cursor);
        slice_ns.push(ns_since(t));
        r.counts.add(bus.stats());
        r.events += events;
        r.dropped += dropped;
    }
    r.energy_bits = session.total_energy().to_bits();
    r.points_hash = points_hash(session.trace_points());
    let t = session.telemetry().expect("telemetry enabled");
    r.anomaly_windows = t.anomaly().map_or(0, |d| d.windows());
    r.observatory_windows = t.observatory().map_or(0, |o| o.windows_ingested());
    (r, slice_ns)
}

/// A hash of every bit of a power trace, so two traces compare cheaply.
fn points_hash(points: &[TracePoint]) -> u64 {
    points
        .iter()
        .flat_map(|p| [p.time_s, p.total_w, p.dec_w, p.m2s_w, p.s2m_w, p.arb_w])
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The energy of the same slices under a telemetry-off session; with
/// `mutant`, the last slice runs with one sub-block scaled.
fn soc_plain_energy(cfg: &AnalysisConfig, seed: u64, mutant: bool) -> u64 {
    let mut session = PowerSession::new(cfg);
    for slice in 0..SOC_SLICES_PER_REP {
        if mutant && slice + 1 == SOC_SLICES_PER_REP {
            session.scale_model_block(MUTANT.0, MUTANT.1);
        }
        let mut bus = soc_bus(SLICE_CYCLES, seed + slice);
        session.run(&mut bus, SLICE_CYCLES);
    }
    session.total_energy().to_bits()
}

/// `soc_observed`, tracing off. One operation is one slice (bus build,
/// `begin_slice`/`run`/`end_slice`, ring drain); a rep is
/// [`SOC_SLICES_PER_REP`] slices through one fresh session.
pub fn soc_observed(run: &mut Run, seed: u64, seconds: u64, start: Instant) {
    let cfg = soc_config(seed);
    measure_setup(run, start, || {
        let ring = shard_ring();
        black_box(PowerSession::with_telemetry(
            &cfg,
            shard_telemetry(seed, &ring),
        ));
        black_box(soc_bus(SLICE_CYCLES, seed));
    });
    let mut reference: Option<SocResult> = None;
    let (mut op_ns, mut per_cycle) = (Vec::new(), Vec::new());
    for_seconds(seconds, |_| {
        let (result, slice_ns) = soc_rep(&cfg, seed);
        let ok = *reference.get_or_insert(result) == result;
        let n = slice_ns.len() as u64;
        run.ops(n, if ok { 0 } else { n });
        per_cycle.push(slice_ns.iter().sum::<f64>() / (SOC_SLICES_PER_REP * SLICE_CYCLES) as f64);
        op_ns.extend(slice_ns);
    });
    let reference = reference.expect("at least one rep ran");
    soc_checks(run, &cfg, seed, &reference);
    report_ops(run, &op_ns, &per_cycle);
}

fn soc_checks(run: &mut Run, cfg: &AnalysisConfig, seed: u64, reference: &SocResult) {
    run.check(
        "reps_identical",
        run.failed() == 0,
        "every rep's energy bits, bus counts and event/window counts equal the first rep's",
    );
    let plain = soc_plain_energy(cfg, seed, false);
    run.check(
        "telemetry_off_equal",
        plain == reference.energy_bits,
        format!(
            "telemetry-off session over the same slices: {:e} J vs {:e} J",
            f64::from_bits(plain),
            f64::from_bits(reference.energy_bits)
        ),
    );
    let mutant = soc_plain_energy(cfg, seed, true);
    run.must_trip("telemetry_off_equal", mutant != reference.energy_bits);
    run.must_trip("reps_identical", mutant != reference.energy_bits);
    run.check(
        "events_not_dropped",
        reference.dropped == 0 && reference.events > 0,
        format!(
            "{} events drained, {} dropped",
            reference.events, reference.dropped
        ),
    );
    fingerprint(
        run,
        "soc_observed",
        f64::from_bits(reference.energy_bits),
        &reference.counts,
    );
    run.note(format!(
        "fingerprint soc_observed events={} anomaly_windows={} observatory_windows={}",
        reference.events, reference.anomaly_windows, reference.observatory_windows
    ));
}

/// The composed per-slice loop's state: the session's parts, owned by
/// the benchmark so each call can be timed.
struct ComposedShard {
    fsm: PowerFsm,
    trace: PowerTrace,
    telemetry: Telemetry,
    ring: Arc<EventBus>,
    cursor: u64,
    counts: Counts,
    events: u64,
    dropped: u64,
}

impl ComposedShard {
    fn new(cfg: &AnalysisConfig, seed: u64) -> Self {
        let ring = shard_ring();
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        ComposedShard {
            fsm: PowerFsm::new(model),
            trace: PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz),
            telemetry: Telemetry::new(shard_telemetry(seed, &ring), cfg.n_masters),
            ring,
            cursor: 0,
            counts: Counts::default(),
            events: 0,
            dropped: 0,
        }
    }

    /// What the slices run so far produced, in the session rep's terms.
    fn result(&self) -> SocResult {
        SocResult {
            energy_bits: self.fsm.total_energy().to_bits(),
            points_hash: points_hash(self.trace.points()),
            counts: self.counts,
            events: self.events,
            dropped: self.dropped,
            anomaly_windows: self.telemetry.anomaly().map_or(0, |d| d.windows()),
            observatory_windows: self
                .telemetry
                .observatory()
                .map_or(0, |o| o.windows_ingested()),
        }
    }

    fn book(&mut self, bus: &AhbBus, (events, dropped): (u64, u64)) {
        self.counts.add(bus.stats());
        self.events += events;
        self.dropped += dropped;
    }

    /// One slice of `PowerSession`'s telemetry path rebuilt from public
    /// calls, minus the session's own per-cycle clock read and span.
    fn slice(&mut self, seed: u64, slice: u64) {
        let mut bus = soc_bus(SLICE_CYCLES, seed + slice);
        self.telemetry.begin_slice(slice);
        for _ in 0..SLICE_CYCLES {
            let snap = bus.step();
            let rec = self.fsm.observe(snap);
            self.trace.push(rec.energy);
            self.telemetry.observe_bus(snap);
            self.telemetry
                .observe_power(rec.instruction, &rec.energy, snap.hmaster.index());
        }
        self.trace.finish();
        self.telemetry.end_slice(self.fsm.total_energy());
        let drained = drain(&self.ring, &mut self.cursor);
        self.book(&bus, drained);
    }

    /// The same slice with a span around every call, mirroring
    /// `PowerSession::observe` call for call (clock read and
    /// `record_observe` included).
    fn slice_traced(&mut self, seed: u64, slice: u64, spans: &mut Spans) {
        let t = Instant::now();
        let mut bus = soc_bus(SLICE_CYCLES, seed + slice);
        let mut t = spans.close(Layer::Build, t);
        self.telemetry.begin_slice(slice);
        t = spans.close(Layer::SliceBoundary, t);
        for _ in 0..SLICE_CYCLES {
            let snap = bus.step();
            t = spans.close(Layer::Step, t);
            let observe_start = t;
            let rec = self.fsm.observe(snap);
            t = spans.close(Layer::Observe, t);
            self.trace.push(rec.energy);
            t = spans.close(Layer::Push, t);
            self.telemetry.observe_bus(snap);
            t = spans.close(Layer::ObserveBus, t);
            self.telemetry
                .observe_power(rec.instruction, &rec.energy, snap.hmaster.index());
            t = spans.close(Layer::ObservePower, t);
            self.telemetry.record_observe(t - observe_start);
            t = spans.close(Layer::RecordObserve, t);
        }
        self.trace.finish();
        t = spans.close(Layer::Push, t);
        self.telemetry.end_slice(self.fsm.total_energy());
        t = spans.close(Layer::SliceBoundary, t);
        let drained = drain(&self.ring, &mut self.cursor);
        spans.close(Layer::Drain, t);
        self.book(&bus, drained);
    }
}

/// `soc_observed`, traced: per round, one rep each through the untraced
/// session, the untraced composed loop and the traced composed loop.
pub fn soc_observed_traced(run: &mut Run, seed: u64, seconds: u64) {
    let cfg = soc_config(seed);
    let cycles = (SOC_SLICES_PER_REP * SLICE_CYCLES) as f64;
    let (reference, _) = soc_rep(&cfg, seed);
    let mut spans = Spans::new();
    let (mut glue, mut overhead) = (Vec::new(), Vec::new());
    let (mut drained, mut points) = (0u64, 0usize);
    for_seconds(seconds, |round| {
        let mut legs = [0.0f64; 3];
        let mut ok = true;
        for k in 0..3 {
            let leg = (round + k) % 3;
            let t = Instant::now();
            let result = if leg == 0 {
                soc_rep(&cfg, seed).0
            } else {
                let mut shard = ComposedShard::new(&cfg, seed);
                for slice in 0..SOC_SLICES_PER_REP {
                    if leg == 1 {
                        shard.slice(seed, slice);
                    } else {
                        shard.slice_traced(seed, slice, &mut spans);
                    }
                }
                let r = shard.result();
                if leg == 2 {
                    drained += r.events;
                    points = shard.trace.points().len();
                }
                r
            };
            legs[leg] = ns_since(t);
            ok &= result == reference;
        }
        run.op(ok);
        glue.push((legs[0] - legs[1]) / cycles);
        overhead.push((legs[2] - legs[1]) / legs[1] * 100.0);
    });
    run.check(
        "traced_equals_session",
        run.failed() == 0,
        "the composed loop, traced and untraced, books the session's energy and trace points bit for bit with the same bus counts, events and windows",
    );
    let mutant = soc_plain_energy(&cfg, seed, true);
    run.must_trip("traced_equals_session", mutant != reference.energy_bits);
    fingerprint(
        run,
        "soc_observed",
        f64::from_bits(reference.energy_bits),
        &reference.counts,
    );
    reference.counts.report(run);
    let slices = spans.calls(Layer::Build) as f64;
    let build_us = spans.self_ns(Layer::Build) / 1e3;
    run.set("workloads.build_ms", build_us / 1e3);
    run.set("workloads.slice_build_us", build_us);
    run.set("ahb.step_ns", spans.self_ns(Layer::Step));
    run.set("power_fsm.observe_ns", spans.self_ns(Layer::Observe));
    run.set(
        "trace.push_ns",
        spans.total_self_ns(Layer::Push) / spans.calls(Layer::Step).max(1) as f64,
    );
    run.set("trace.points", points as f64);
    run.set("session.glue_ns", median(&glue));
    run.set("telemetry.observe_bus_ns", spans.self_ns(Layer::ObserveBus));
    run.set(
        "telemetry.observe_power_ns",
        spans.self_ns(Layer::ObservePower),
    );
    run.set(
        "telemetry.slice_us",
        spans.total_self_ns(Layer::SliceBoundary) / slices.max(1.0) / 1e3,
    );
    run.set(
        "events.drain_ns_per_event",
        spans.total_self_ns(Layer::Drain) / drained.max(1) as f64,
    );
    run.set("events.published", reference.events as f64);
    run.set("events.dropped", reference.dropped as f64);
    run.set("anomaly.windows", reference.anomaly_windows as f64);
    run.set("observatory.windows", reference.observatory_windows as f64);
    run.set("tracing.empty_span_ns", spans.empty_ns());
    run.set("tracing.overhead_pct", median(&overhead));
    for line in spans.lines() {
        run.note(line);
    }
}

/// The `paper_table1` workload parameters, for the result stamp.
pub fn paper_params() -> String {
    format!("rep_cycles={PAPER_REP_CYCLES} masters=3 slaves=3 session=plain")
}

/// The `soc_observed` workload parameters, for the result stamp.
pub fn soc_params() -> String {
    format!(
        "slice_cycles={SLICE_CYCLES} slices_per_rep={SOC_SLICES_PER_REP} masters=4 slaves=3 telemetry=anomaly+observatory+events events_capacity={}",
        ServeConfig::default().events_capacity
    )
}
