//! `variant_sweep`: trace once, estimate many. Set-up records the paper
//! testbench's activity once and encodes it; each operation decodes the
//! bytes and replays the identity model plus the 16 coefficient variants
//! of `replay_variant_spec` with `replay_sweep` on one job.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ahbpower::{
    ActivityRecorder, ActivityTrace, AhbPowerModel, AnalysisConfig, PowerFsm, PowerSession,
    PowerTrace, ReplayEngine, ReplayOutcome,
};
use ahbpower_bench::{
    build_paper_bus, replay_sweep, replay_variant_model, resimulate_variant, SweepRunner,
};

use crate::report::{ns_since, Run};
use crate::sim::{fingerprint, for_seconds, measure_setup, report_ops, Counts, MUTANT};
use crate::spans::{Layer, Spans};
use crate::stats::median;

/// Cycles of the recorded trace.
pub const TRACE_CYCLES: u64 = 200_000;
/// Models per sweep: the identity plus 16 distinct variants.
pub const VARIANTS: usize = 17;
/// Sweep worker threads. One: on a 2-core host, two busy workers made a
/// run's sweep time follow the host's load; ten runs of the same code
/// spread 0.18 of their median, and five runs 0.10-0.31 in every
/// statistic from the minimum to p90. One worker spreads 0.03-0.07.
pub const JOBS: usize = 1;

/// The workload parameters, for the result stamp.
pub fn params() -> String {
    format!("trace_cycles={TRACE_CYCLES} variants={VARIANTS} jobs={JOBS}")
}

/// Everything set-up produces: the encoded trace, the live total it must
/// replay to, and the models to sweep.
struct Recording {
    bytes: Vec<u8>,
    live_total: f64,
    counts: Counts,
    models: Vec<AhbPowerModel>,
}

fn record(seed: u64) -> Recording {
    let cfg = AnalysisConfig::paper_testbench();
    let mut bus = build_paper_bus(TRACE_CYCLES, seed);
    let mut session = PowerSession::with_recorder(&cfg);
    session.run(&mut bus, TRACE_CYCLES);
    let trace = session.finish_recorder().expect("recorder attached");
    Recording {
        bytes: trace.to_bytes(),
        live_total: session.total_energy(),
        counts: Counts::of(bus.stats()),
        models: (0..VARIANTS)
            .map(|k| replay_variant_model(&cfg, k))
            .collect(),
    }
}

fn decode(bytes: &[u8]) -> ActivityTrace {
    ActivityTrace::from_bytes(bytes).expect("the benchmark's own encoding decodes")
}

fn energy_bits(outcomes: &[ReplayOutcome]) -> Vec<u64> {
    outcomes
        .iter()
        .map(|o| o.total_energy().to_bits())
        .collect()
}

/// `resimulate_variant(k)` energies, each simulated at most once.
struct Resims {
    seed: u64,
    bits: BTreeMap<usize, u64>,
}

impl Resims {
    fn get(&mut self, k: usize) -> u64 {
        let seed = self.seed;
        *self.bits.entry(k).or_insert_with(|| {
            resimulate_variant(TRACE_CYCLES, seed, k)
                .total_energy()
                .to_bits()
        })
    }
}

/// Checks one sweep's energies outside the timed region: equal to the
/// first sweep's, variant 0 equal to the live total, and the rotating
/// non-identity variant of `round` equal to a fresh re-simulation.
fn sweep_ok(
    bits: &[u64],
    reference: &[u64],
    live_total: f64,
    resims: &mut Resims,
    round: usize,
) -> bool {
    let k = 1 + round % (VARIANTS - 1);
    bits == reference && bits[0] == live_total.to_bits() && bits[k] == resims.get(k)
}

/// The mutant checks: a sweep whose identity model has one sub-block
/// scaled must fail the live-total and reps checks, and a re-simulation
/// with one more sub-block scaled must fail the variant check.
fn mutant_checks(run: &mut Run, rec: &Recording, reference: &[u64], seed: u64) {
    let trace = decode(&rec.bytes);
    let mut models = rec.models.clone();
    models[0].scale_block(MUTANT.0, MUTANT.1);
    let mutant = energy_bits(&replay_sweep(&trace, &models, JOBS));
    run.must_trip(
        "variant0_equals_live",
        mutant[0] != rec.live_total.to_bits(),
    );
    run.must_trip("reps_identical", mutant != reference);
    let cfg = AnalysisConfig::paper_testbench();
    let mut model = rec.models[1].clone();
    model.scale_block(MUTANT.0, MUTANT.1);
    let mut session = PowerSession::with_model(model, cfg.window_cycles, cfg.f_clk_hz);
    session.run(&mut build_paper_bus(TRACE_CYCLES, seed), TRACE_CYCLES);
    run.must_trip(
        "variant_equals_resimulation",
        session.total_energy().to_bits() != reference[1],
    );
}

/// `variant_sweep`, tracing off. One operation is one decode + sweep.
pub fn variant_sweep(run: &mut Run, seed: u64, seconds: u64, start: Instant) {
    let mut rec = None;
    measure_setup(run, start, || rec = Some(record(seed)));
    let rec = rec.expect("set-up ran");
    let mut resims = Resims {
        seed,
        bits: BTreeMap::new(),
    };
    let mut reference: Option<Vec<u64>> = None;
    let (mut op_ns, mut per_cycle) = (Vec::new(), Vec::new());
    for_seconds(seconds, |round| {
        let t = Instant::now();
        let trace = decode(&rec.bytes);
        let outcomes = replay_sweep(&trace, &rec.models, JOBS);
        let ns = ns_since(t);
        let bits = energy_bits(&outcomes);
        let reference = reference.get_or_insert_with(|| bits.clone());
        run.op(sweep_ok(
            &bits,
            reference,
            rec.live_total,
            &mut resims,
            round,
        ));
        op_ns.push(ns);
        per_cycle.push(ns / (VARIANTS as u64 * TRACE_CYCLES) as f64);
    });
    let reference = reference.expect("at least one sweep ran");
    run.check(
        "reps_identical",
        run.failed() == 0,
        format!(
            "every sweep equals the first; variant 0 equals the live total; {} variants checked against resimulate_variant",
            resims.bits.len()
        ),
    );
    mutant_checks(run, &rec, &reference, seed);
    fingerprint(run, "variant_sweep", rec.live_total, &rec.counts);
    run.note(format!(
        "fingerprint variant_sweep variant_energy_bits={}",
        reference
            .iter()
            .map(|b| format!("{b:#018x}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    report_ops(run, &op_ns, &per_cycle);
}

/// The recording loop rebuilt from public calls with a span around every
/// layer call; returns the encoded trace.
fn record_traced(seed: u64, spans: &mut Spans) -> (Vec<u8>, usize) {
    let cfg = AnalysisConfig::paper_testbench();
    let t = Instant::now();
    let mut bus = build_paper_bus(TRACE_CYCLES, seed);
    spans.close(Layer::Build, t);
    let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
    let mut fsm = PowerFsm::new(model);
    let mut trace = PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz);
    let mut recorder = ActivityRecorder::new(&cfg);
    let mut t = Instant::now();
    for _ in 0..TRACE_CYCLES {
        let snap = bus.step();
        t = spans.close(Layer::Step, t);
        let rec = fsm.observe(snap);
        t = spans.close(Layer::Observe, t);
        trace.push(rec.energy);
        t = spans.close(Layer::Push, t);
        recorder.record(snap, rec.instruction);
        t = spans.close(Layer::Record, t);
    }
    trace.finish();
    let mut activity = recorder.finish();
    activity.live_total_j = fsm.total_energy();
    let t = Instant::now();
    let bytes = activity.to_bytes();
    spans.close(Layer::Encode, t);
    (bytes, trace.points().len())
}

/// One traced sweep: `replay_sweep` rebuilt from `SweepRunner` and the
/// engine's public calls, with per-item spans on the worker threads.
/// Returns the energies, the sweep's wall time and the items' summed
/// self time, ns.
fn sweep_traced(bytes: &[u8], models: &[AhbPowerModel], spans: &mut Spans) -> (Vec<u64>, f64, f64) {
    let t = Instant::now();
    let trace = decode(bytes);
    let t0 = spans.close(Layer::Decode, t);
    let empty = spans.empty_ns();
    let worker_spans = Mutex::new(Spans::with_empty(empty));
    let outcomes = SweepRunner::new(JOBS).run(models, |_, m| {
        let mut local = Spans::with_empty(empty);
        let t = Instant::now();
        let engine = ReplayEngine::new(m);
        let t = local.close(Layer::EngineBuild, t);
        let mut out = ReplayOutcome::new();
        engine.replay_into(&trace, &mut out);
        local.close(Layer::ReplayInto, t);
        worker_spans
            .lock()
            .expect("span ledger lock poisoned")
            .merge(&local);
        out
    });
    let wall = ns_since(t0);
    let items = worker_spans
        .into_inner()
        .expect("span ledger lock poisoned");
    let busy = items.total_self_ns(Layer::EngineBuild) + items.total_self_ns(Layer::ReplayInto);
    spans.merge(&items);
    (energy_bits(&outcomes), wall, busy)
}

/// `variant_sweep`, traced: per round, a traced recording, an untraced
/// sweep and a traced sweep.
pub fn variant_sweep_traced(run: &mut Run, seed: u64, seconds: u64) {
    let rec = record(seed);
    let reference = energy_bits(&replay_sweep(&decode(&rec.bytes), &rec.models, JOBS));
    let mut resims = Resims {
        seed,
        bits: BTreeMap::new(),
    };
    let mut spans = Spans::new();
    let (mut busy_frac, mut idle_ms, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut points = 0usize;
    for_seconds(seconds, |round| {
        let (bytes, p) = record_traced(seed, &mut spans);
        points = p;
        let mut ok = bytes == rec.bytes;
        let t = Instant::now();
        let plain = energy_bits(&replay_sweep(&decode(&rec.bytes), &rec.models, JOBS));
        let untraced = ns_since(t);
        let t = Instant::now();
        let (bits, wall, busy) = sweep_traced(&rec.bytes, &rec.models, &mut spans);
        let traced = ns_since(t);
        ok &= plain == reference && sweep_ok(&bits, &reference, rec.live_total, &mut resims, round);
        run.op(ok);
        let capacity = JOBS as f64 * wall;
        busy_frac.push(busy / capacity);
        idle_ms.push((capacity - busy).max(0.0) / 1e6);
        overhead.push((traced - untraced) / untraced * 100.0);
    });
    run.check(
        "traced_equals_session",
        run.failed() == 0,
        "the traced recording encodes the session recorder's bytes; traced and untraced sweeps equal replay_sweep, the live total and resimulate_variant",
    );
    mutant_checks(run, &rec, &reference, seed);
    fingerprint(run, "variant_sweep", rec.live_total, &rec.counts);
    rec.counts.report(run);
    let rounds = spans.calls(Layer::Encode).max(1) as f64;
    let cycles = TRACE_CYCLES as f64;
    run.set(
        "workloads.build_ms",
        spans.total_self_ns(Layer::Build) / rounds / 1e6,
    );
    run.set("ahb.step_ns", spans.self_ns(Layer::Step));
    run.set("power_fsm.observe_ns", spans.self_ns(Layer::Observe));
    run.set("trace.push_ns", spans.self_ns(Layer::Push));
    run.set("trace.points", points as f64);
    run.set("replay.record_ns", spans.self_ns(Layer::Record));
    run.set("replay.encode_ms", spans.self_ns(Layer::Encode) / 1e6);
    run.set(
        "replay.trace_bytes_per_cycle",
        rec.bytes.len() as f64 / cycles,
    );
    run.set("replay.decode_ms", spans.self_ns(Layer::Decode) / 1e6);
    run.set(
        "replay.ns_per_variant_cycle",
        spans.self_ns(Layer::ReplayInto) / cycles,
    );
    run.set("sweep.busy_frac", median(&busy_frac));
    run.set("sweep.idle_ms", median(&idle_ms));
    run.set("tracing.empty_span_ns", spans.empty_ns());
    run.set("tracing.overhead_pct", median(&overhead));
    for line in spans.lines() {
        run.note(line);
    }
}
