//! One-stop analysis session: FSM + ledgers + power trace over a bus run.

use ahbpower_ahb::{AhbBus, BusSnapshot};

use crate::config::AnalysisConfig;
use crate::ledger::{BlockLedger, InstructionLedger};
use crate::model::AhbPowerModel;
use crate::power_fsm::PowerFsm;
use crate::replay::ActivityTrace;
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::trace::{PowerTrace, TracePoint};
use crate::txn::{TxnTracer, TxnTracerConfig};

/// Couples a [`PowerFsm`] with a [`PowerTrace`] so a single observer
/// produces Table 1, Fig. 6 and Figs. 3-5 data in one pass.
///
/// # Examples
///
/// ```
/// use ahbpower::{AnalysisConfig, PowerSession};
/// use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
///
/// let cfg = AnalysisConfig::paper_testbench();
/// let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
///     .master(Box::new(ScriptedMaster::new(vec![Op::write(0x0, 0xFF), Op::read(0x0)])))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
///     .build()?;
/// let mut session = PowerSession::new(&cfg);
/// session.run(&mut bus, 50);
/// assert!(session.total_energy() > 0.0);
/// # Ok::<(), ahbpower_ahb::BuildBusError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerSession {
    fsm: PowerFsm,
    trace: PowerTrace,
    /// `None` unless telemetry was enabled at construction; the disabled
    /// hot path tests one `Option` discriminant per run, not per cycle.
    telemetry: Option<Box<Telemetry>>,
    /// `None` unless transaction tracing was enabled at construction;
    /// same hot-path discipline as `telemetry`.
    txn: Option<Box<TxnTracer>>,
    /// `None` unless activity recording was enabled at construction;
    /// same hot-path discipline as `telemetry`. Collects the activity word
    /// the FSM built for every observed cycle.
    recorder: Option<Box<ActivityTrace>>,
}

impl PowerSession {
    /// Creates a session with paper-form macromodels sized from `cfg`.
    pub fn new(cfg: &AnalysisConfig) -> Self {
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        PowerSession::with_model(model, cfg.window_cycles, cfg.f_clk_hz)
    }

    /// Creates a session with explicit (e.g. fitted) macromodels.
    pub fn with_model(model: AhbPowerModel, window_cycles: u64, f_clk_hz: f64) -> Self {
        PowerSession {
            fsm: PowerFsm::new(model),
            trace: PowerTrace::new(window_cycles, f_clk_hz),
            telemetry: None,
            txn: None,
            recorder: None,
        }
    }

    /// Creates a session with telemetry governed by `tcfg`. A disabled
    /// config yields a session identical to [`PowerSession::new`].
    pub fn with_telemetry(cfg: &AnalysisConfig, tcfg: TelemetryConfig) -> Self {
        let mut session = PowerSession::new(cfg);
        if tcfg.enabled {
            session.telemetry = Some(Box::new(Telemetry::new(tcfg, cfg.n_masters)));
        }
        session
    }

    /// Creates a session with transaction tracing governed by `xcfg`. A
    /// disabled config yields a session identical to [`PowerSession::new`].
    pub fn with_txn_tracer(cfg: &AnalysisConfig, xcfg: TxnTracerConfig) -> Self {
        let mut session = PowerSession::new(cfg);
        if xcfg.enabled {
            session.txn = Some(Box::new(TxnTracer::new(cfg.n_masters, xcfg.ring_capacity)));
        }
        session
    }

    /// Creates a session that additionally records every observed cycle
    /// into a compact activity trace for later replay (the
    /// trace-once / estimate-many pipeline; see [`crate::replay`]).
    /// Collect the recording with [`PowerSession::finish_recorder`].
    pub fn with_recorder(cfg: &AnalysisConfig) -> Self {
        let mut session = PowerSession::new(cfg);
        session.recorder = Some(Box::new(ActivityTrace::new(cfg)));
        session
    }

    /// Detaches the activity recorder and returns the finished trace.
    /// `None` when recording was not enabled (or was already collected).
    /// The returned trace's `live_total_j` stamp is filled in with the
    /// session's booked total so replays can self-check fidelity.
    pub fn finish_recorder(&mut self) -> Option<ActivityTrace> {
        let total = self.fsm.total_energy();
        self.recorder.take().map(|mut trace| {
            trace.live_total_j = total;
            *trace
        })
    }

    /// Scales one sub-block's macromodel coefficients by `factor` — the
    /// anomaly-injection hook. Calling it between two [`PowerSession::run`]
    /// calls emulates a mid-stream energy drift for detector tests.
    pub fn scale_model_block(&mut self, block: crate::model::SubBlock, factor: f64) {
        self.fsm.scale_block(block, factor);
    }

    /// Observes one cycle. With telemetry on, every pass is counted in
    /// the `session_observe` span and a 1-in-61 sample of passes is
    /// timed (see [`crate::telemetry::SpanSet::sample_start`]).
    pub fn observe(&mut self, snap: &BusSnapshot) {
        let started = self.telemetry.as_mut().and_then(|t| t.observe_start());
        let rec = self.fsm.observe(snap);
        self.trace.push(rec.energy);
        if let Some(x) = &mut self.txn {
            x.observe(snap, &rec);
        }
        if let Some(r) = &mut self.recorder {
            r.push_word(rec.word);
        }
        if let Some(t) = &mut self.telemetry {
            t.observe_bus(snap);
            t.observe_power(rec.instruction, &rec.energy, snap.hmaster.index());
            t.observe_stop(started);
        }
    }

    /// Runs `cycles` bus cycles under observation. A power-trace window
    /// left open at the end stays open, so consecutive runs trace exactly
    /// like one long run; [`PowerSession::finish_trace`] flushes it.
    pub fn run(&mut self, bus: &mut AhbBus, cycles: u64) {
        if self.telemetry.is_none() && self.txn.is_none() && self.recorder.is_none() {
            // The pre-telemetry hot loop, untouched: sessions without
            // instrumentation pay one branch per run for the features.
            for _ in 0..cycles {
                let snap = bus.step();
                let rec = self.fsm.observe(snap);
                self.trace.push(rec.energy);
            }
        } else {
            for _ in 0..cycles {
                let snap = bus.step();
                self.observe(snap);
            }
        }
    }

    /// Ends the power trace: flushes a partial trailing window as one
    /// last (shorter) point. Call it once, after the last
    /// [`PowerSession::run`]; a later run starts a fresh window.
    pub fn finish_trace(&mut self) {
        self.trace.finish();
    }

    /// Marks the start of workload slice `slice` in the structured event
    /// stream (no-op unless telemetry carries an event ring). Serve
    /// loops and slice-based runners call this before each
    /// [`PowerSession::run`] so every event carries the right slice id.
    pub fn begin_slice(&mut self, slice: u64) {
        if let Some(t) = &mut self.telemetry {
            t.begin_slice(slice);
        }
    }

    /// Marks the end of the current slice, stamping the session's
    /// cumulative energy into a `SliceEnd` event (no-op without an event
    /// ring).
    pub fn end_slice(&mut self) {
        let energy = self.fsm.total_energy();
        if let Some(t) = &mut self.telemetry {
            t.end_slice(energy);
        }
    }

    /// Finishes the run's telemetry: closes the analyzers, publishes the
    /// power ledgers and spans into the registry, and returns the
    /// telemetry for export. `None` when telemetry is disabled.
    pub fn finish_telemetry(&mut self) -> Option<&Telemetry> {
        let fsm = &self.fsm;
        self.telemetry.as_mut().map(|t| {
            t.finalize(fsm);
            &**t
        })
    }

    /// Live telemetry access (`None` when disabled).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Shared telemetry access (`None` when disabled).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Finishes the run's transaction trace: flushes the still-open
    /// transaction (if any) into the ring and returns the tracer for
    /// export. `None` when tracing is disabled.
    pub fn finish_txn(&mut self) -> Option<&TxnTracer> {
        self.txn.as_mut().map(|x| {
            x.finish();
            &**x
        })
    }

    /// The transaction tracer (`None` when disabled).
    pub fn txn_tracer(&self) -> Option<&TxnTracer> {
        self.txn.as_deref()
    }

    /// Per-instruction ledger (Table 1).
    pub fn ledger(&self) -> &InstructionLedger {
        self.fsm.ledger()
    }

    /// Per-block ledger (Fig. 6).
    pub fn blocks(&self) -> &BlockLedger {
        self.fsm.blocks()
    }

    /// Power-trace points (Figs. 3-5): the completed windows, plus a
    /// partial trailing one once [`PowerSession::finish_trace`] ran.
    pub fn trace_points(&self) -> &[TracePoint] {
        self.trace.points()
    }

    /// The trace accumulator itself.
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Total energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.fsm.total_energy()
    }

    /// Per-master energy attribution (index = master id), joules.
    pub fn per_master_energy(&self) -> &[f64] {
        self.fsm.per_master_energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};

    fn bus() -> AhbBus {
        AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
            .master(Box::new(ScriptedMaster::new(vec![
                Op::write(0x0, 0xFFFF_FFFF),
                Op::read(0x0),
                Op::Idle(3),
                Op::write(0x1004, 0x1234_5678),
            ])))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .slave(Box::new(MemorySlave::new(0x1000, 1, 0)))
            .build()
            .unwrap()
    }

    /// A single master streaming writes and reads over both slaves, so
    /// every power-trace window carries traffic.
    fn busy_bus() -> AhbBus {
        let ops = (0..600u32)
            .map(|i| {
                let addr = (i * 0x44) % 0x2000;
                if i % 3 == 2 {
                    Op::read(addr)
                } else {
                    Op::write(addr, i.wrapping_mul(0x9E37_79B9))
                }
            })
            .collect();
        AhbBusBuilder::new(AddressMap::evenly_spaced(2, 0x1000))
            .master(Box::new(ScriptedMaster::new(ops)))
            .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
            .slave(Box::new(MemorySlave::new(0x1000, 1, 0)))
            .build()
            .unwrap()
    }

    fn two_by_two() -> AnalysisConfig {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        cfg
    }

    #[test]
    fn split_runs_trace_like_one_run_and_its_replay() {
        let cfg = two_by_two();
        assert_eq!(cfg.window_cycles, 20);
        let mut whole = PowerSession::new(&cfg);
        whole.run(&mut busy_bus(), 1_000);
        whole.finish_trace();

        // 510 cycles end mid-window: the open window must carry over
        // into the next run instead of being flushed as a 51st point.
        let mut split = PowerSession::with_recorder(&cfg);
        let mut b = busy_bus();
        split.run(&mut b, 510);
        assert_eq!(split.trace_points().len(), 25);
        split.run(&mut b, 490);
        split.finish_trace();
        assert_eq!(split.trace_points().len(), 50);
        assert_eq!(split.total_energy(), whole.total_energy());
        assert_eq!(split.trace_points(), whole.trace_points());

        let recording = split.finish_recorder().expect("recorder attached");
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let out = crate::ReplayEngine::new(&model).replay(&recording);
        assert_eq!(out.trace_points(), split.trace_points());
    }

    #[test]
    fn finish_trace_flushes_the_partial_window_once() {
        let cfg = two_by_two();
        let mut session = PowerSession::new(&cfg);
        session.run(&mut busy_bus(), 1_007);
        assert_eq!(session.trace_points().len(), 50);
        session.finish_trace();
        assert_eq!(session.trace_points().len(), 51);
        session.finish_trace();
        assert_eq!(session.trace_points().len(), 51);
    }

    #[test]
    fn session_collects_all_artifacts() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        cfg.window_cycles = 5;
        let mut session = PowerSession::new(&cfg);
        let mut b = bus();
        session.run(&mut b, 40);
        assert!(session.total_energy() > 0.0);
        assert!(!session.ledger().rows().is_empty());
        assert_eq!(session.blocks().cycles(), 40);
        assert_eq!(session.trace_points().len(), 8);
        // Ledger and trace must account the same energy.
        let from_trace: f64 = session
            .trace_points()
            .iter()
            .map(|p| p.total_w * session.trace().window_secs())
            .sum();
        let total = session.total_energy();
        assert!((from_trace - total).abs() < 1e-9 * total.max(1e-30));
    }

    #[test]
    fn disabled_telemetry_is_absent_and_free_of_state() {
        let cfg = AnalysisConfig::paper_testbench();
        let mut session = PowerSession::with_telemetry(&cfg, TelemetryConfig::default());
        let mut b = bus();
        session.run(&mut b, 20);
        assert!(session.finish_telemetry().is_none());
        assert!(session.telemetry_mut().is_none());
    }

    #[test]
    fn txn_tracer_conserves_energy_and_records_transactions() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        let mut plain = PowerSession::new(&cfg);
        let mut b = bus();
        plain.run(&mut b, 40);

        let mut traced = PowerSession::with_txn_tracer(&cfg, TxnTracerConfig::enabled(128));
        let mut b = bus();
        traced.run(&mut b, 40);
        assert_eq!(
            traced.total_energy(),
            plain.total_energy(),
            "tracing must not perturb the analysis"
        );
        let total = traced.total_energy();
        let tracer = traced.finish_txn().expect("tracer enabled");
        assert!(tracer.completed() >= 3, "the script issues 3 transfers");
        assert_eq!(tracer.evicted(), 0);
        assert_eq!(tracer.attribution().cycles(), 40);
        let attributed = tracer.attribution().total_energy();
        assert!(
            (attributed - total).abs() <= 1e-9,
            "attribution must conserve the ledger total: {attributed} vs {total}"
        );
        // Disabled config attaches nothing.
        let off = PowerSession::with_txn_tracer(&cfg, TxnTracerConfig::default());
        assert!(off.txn_tracer().is_none());
    }

    #[test]
    fn recorder_replay_reproduces_session_bit_for_bit() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        cfg.window_cycles = 5;
        let mut session = PowerSession::with_recorder(&cfg);
        let mut b = bus();
        session.run(&mut b, 40);
        let trace = session.finish_recorder().expect("recorder attached");
        assert_eq!(trace.cycles(), 40);
        assert_eq!(trace.live_total_j, session.total_energy());
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let out = crate::ReplayEngine::new(&model).replay(&trace);
        assert_eq!(out.total_energy(), session.total_energy());
        assert_eq!(out.trace_points(), session.trace_points());
        assert_eq!(out.per_master_energy(), session.per_master_energy());
        assert!(
            session.finish_recorder().is_none(),
            "recorder can only be collected once"
        );
    }

    #[test]
    fn session_and_standalone_recorder_write_identical_traces() {
        let cfg = two_by_two();
        let mut session = PowerSession::with_recorder(&cfg);
        session.run(&mut busy_bus(), 700);
        let pushed = session.finish_recorder().expect("recorder attached");

        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let mut fsm = PowerFsm::new(model);
        let mut recorder = crate::ActivityRecorder::new(&cfg);
        let mut b = busy_bus();
        for _ in 0..700 {
            let snap = b.step();
            let rec = fsm.observe(snap);
            recorder.record(snap, rec.instruction);
        }
        let mut rebuilt = recorder.finish();
        rebuilt.live_total_j = fsm.total_energy();
        assert_eq!(pushed.to_bytes(), rebuilt.to_bytes());
    }

    #[test]
    fn enabled_telemetry_matches_untelemetered_energy() {
        let mut cfg = AnalysisConfig::paper_testbench();
        cfg.n_masters = 2;
        cfg.n_slaves = 2;
        let mut plain = PowerSession::new(&cfg);
        let mut b = bus();
        plain.run(&mut b, 40);

        let tcfg = TelemetryConfig::enabled("session_test").with_seed(9);
        let mut telemetered = PowerSession::with_telemetry(&cfg, tcfg);
        let mut b = bus();
        telemetered.run(&mut b, 40);
        let plain_energy = plain.total_energy();
        assert_eq!(
            telemetered.total_energy(),
            plain_energy,
            "telemetry must not perturb the analysis"
        );

        let t = telemetered.finish_telemetry().expect("enabled");
        let reg = t.registry();
        assert_eq!(reg.counter_value("ahb_cycles_total", &[]), Some(40.0));
        let booked = reg.counter_value("power_total_energy_joules", &[]).unwrap();
        assert!((booked - plain_energy).abs() < 1e-18);
        // The observer span counted every cycle.
        assert_eq!(
            reg.counter_value(
                "telemetry_span_invocations_total",
                &[("span", "session_observe")]
            ),
            Some(40.0)
        );
        // ...and timed cycle 0, the first of its 1-in-61 sample.
        let seconds = reg.counter_value(
            "telemetry_span_seconds_total",
            &[("span", "session_observe")],
        );
        assert!(seconds.is_some_and(|s| s > 0.0));
        let jsonl = t.to_jsonl();
        assert!(jsonl.starts_with("{\"event\":\"meta\",\"scenario\":\"session_test\""));
        assert!(jsonl.contains("\"seed\":9"));
        assert!(t.to_csv().contains("ahb_master_transfers_total,master=0"));
        assert!(t
            .to_prometheus()
            .contains("# TYPE ahb_arbitration_latency_cycles histogram"));
    }
}
