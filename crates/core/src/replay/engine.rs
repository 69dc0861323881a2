//! The energy kernel: branchless and table-driven, shared by the live
//! power FSM and replay.
//!
//! [`ReplayEngine::new`] flattens an [`AhbPowerModel`] into per-sub-block
//! energy lookup tables indexed by Hamming distance (plus the select /
//! handover flag), filled by calling the model's energy functions — so
//! table entries carry the exact `f64` bits
//! [`AhbPowerModel::cycle_energy`] computes. Every cycle, live or
//! replayed, is then booked with four table loads and a handful of adds:
//! no branches, no allocation, no wall-clock reads.
//!
//! [`ReplayEngine::replay_variants`] replays one trace under up to
//! [`REPLAY_LANES`] models in lanes: the variants' tables interleaved per
//! entry (`[f64; REPLAY_LANES]`), so each word is unpacked once and its
//! four table rows book every lane. Each lane performs the one-model kernel's `f64`
//! operations in the one-model order (Rust never contracts them into
//! fused multiply-adds) and no lane reads another, so every lane's
//! outcome is bit-identical to a one-model [`ReplayEngine::replay_into`].

use crate::ledger::{BlockLedger, InstructionLedger, LaneLedger, PowerLedger};
use crate::macromodel::BlockEnergy;
use crate::model::AhbPowerModel;
use crate::trace::{PowerTrace, TracePoint};

use super::{ActivityTrace, WordFields, ADDR_HD_MASK, M2S_REST_MASK, REQ_HD_MASK, S2M_HD_MASK};

// Table strides cover every value the packed fields can carry (the fields
// are masked to these ranges), so lookups can never go out of bounds.
const DEC_LEN: usize = (ADDR_HD_MASK as usize) + 1; // 64
const M2S_STRIDE: usize = (ADDR_HD_MASK as usize) + (M2S_REST_MASK as usize) + 1; // 191
const S2M_STRIDE: usize = (S2M_HD_MASK as usize) + 1; // 64
const ARB_STRIDE: usize = (REQ_HD_MASK as usize) + 1; // 64

/// Model variants [`ReplayEngine::replay_variants`] books per pass over a
/// trace. Decoding plus sweeping 17 models over a 200k-cycle paper trace
/// on one job (2-vCPU Xeon, p90 ns per cycle and variant) took 9.5-10.0
/// one model per pass, 5.0-5.1 at 4 lanes, 4.2-4.5 at 8 and 3.9-4.1 at
/// 16. Sixteen lanes are not worth their ~7%: a 16-variant sweep would be
/// one chunk, which no second job can share.
pub const REPLAY_LANES: usize = 8;

/// The table indices word `w` books (decoder, M2S, S2M, arbiter): the
/// HD column in the select/handover row, or in an all-zero row on a
/// first cycle.
#[inline(always)]
fn slots(w: u64) -> [usize; 4] {
    let f = WordFields::unpack(w);
    let first = usize::from(f.first);
    let ho = f.handover | first << 1;
    let sel = f.s2m_sel | first << 1;
    [
        first * DEC_LEN + f.addr_hd,
        ho * M2S_STRIDE + f.m2s_hd,
        sel * S2M_STRIDE + f.s2m_hd,
        ho * ARB_STRIDE + f.req_hd,
    ]
}

/// Replays recorded activity traces through one [`AhbPowerModel`] variant.
///
/// Construction is cheap (a few hundred energy-function calls); reuse one
/// engine across traces. See the [module docs](crate::replay) for an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    // Tables are `rows × stride`, indexed by `row * stride + hd`. Rows 0
    // and 1 are the select/handover flag (the decoder has no flag: row 0);
    // a first cycle, which books nothing, reads the all-zero rows above.
    dec: [f64; 2 * DEC_LEN],
    m2s: [f64; 4 * M2S_STRIDE],
    s2m: [f64; 4 * S2M_STRIDE],
    arb: [f64; 4 * ARB_STRIDE],
}

impl ReplayEngine {
    /// Builds the lookup tables for `model`.
    pub fn new(model: &AhbPowerModel) -> Self {
        let mut dec = [0.0; 2 * DEC_LEN];
        for (hd, slot) in dec[..DEC_LEN].iter_mut().enumerate() {
            *slot = model.decoder.energy(hd as u32);
        }
        let mut m2s = [0.0; 4 * M2S_STRIDE];
        let mut s2m = [0.0; 4 * S2M_STRIDE];
        let mut arb = [0.0; 4 * ARB_STRIDE];
        for flag in 0..2usize {
            let sel = flag == 1;
            for hd in 0..M2S_STRIDE {
                m2s[flag * M2S_STRIDE + hd] = model.m2s.energy(hd as u32, sel);
            }
            for hd in 0..S2M_STRIDE {
                s2m[flag * S2M_STRIDE + hd] = model.s2m.energy(hd as u32, sel);
            }
            for hd in 0..ARB_STRIDE {
                arb[flag * ARB_STRIDE + hd] = model.arbiter.energy(hd as u32, sel);
            }
        }
        ReplayEngine { dec, m2s, s2m, arb }
    }

    /// The energy one activity word books: four table loads, no branches;
    /// exactly +0.0 in every block on a first cycle. The live
    /// [`PowerFsm`](crate::PowerFsm) and the replay loop both book every
    /// cycle through this function.
    #[inline(always)]
    pub(crate) fn energy(&self, w: u64) -> BlockEnergy {
        let [dec, m2s, s2m, arb] = slots(w);
        BlockEnergy {
            dec: self.dec[dec],
            m2s: self.m2s[m2s],
            s2m: self.s2m[s2m],
            arb: self.arb[arb],
        }
    }

    /// Replays `trace` at full fidelity (ledgers, per-master attribution
    /// and windowed power points) into a fresh outcome.
    pub fn replay(&self, trace: &ActivityTrace) -> ReplayOutcome {
        let mut out = ReplayOutcome::with_windows();
        self.replay_into(trace, &mut out);
        out
    }

    /// Replays `trace` into a caller-owned outcome, reusing its buffers.
    /// After a warm-up replay the hot loop performs no allocation, so
    /// sweeping N model variants over one trace touches the allocator at
    /// most N times total (outcome construction), not per cycle.
    pub fn replay_into(&self, trace: &ActivityTrace, out: &mut ReplayOutcome) {
        out.reset(trace);
        let ledger = &mut out.ledger;
        match &mut out.trace {
            Some(t) => {
                self.book_all(&trace.words, ledger, |e| t.push(e));
                t.finish();
            }
            None => self.book_all(&trace.words, ledger, |_| {}),
        }
    }

    /// The replay loop. It is a function of its own so the ledger arrives
    /// as a unique reference: the compiler then keeps the running totals
    /// in registers instead of storing them every cycle.
    fn book_all(&self, words: &[u64], ledger: &mut PowerLedger, mut push: impl FnMut(BlockEnergy)) {
        for &w in words {
            let e = self.energy(w);
            ledger.book(w, e);
            push(e);
        }
    }

    /// Replays `trace` under at most [`REPLAY_LANES`] models in one pass,
    /// one outcome per model in model order, each bit-identical to
    /// `ReplayEngine::new(model).replay_into(trace, &mut ReplayOutcome::new())`
    /// (ledgers and per-master energy; no windowed power points). A single
    /// model takes exactly that path; more share one lane-batched pass.
    /// Tables, ledgers and outcomes are allocated per call, never per
    /// cycle. Callers with more models split them into chunks of
    /// [`REPLAY_LANES`].
    ///
    /// # Panics
    ///
    /// If `models` holds more than [`REPLAY_LANES`] models.
    pub fn replay_variants(models: &[AhbPowerModel], trace: &ActivityTrace) -> Vec<ReplayOutcome> {
        assert!(
            models.len() <= REPLAY_LANES,
            "{} models in one lane pass, at most {REPLAY_LANES}",
            models.len()
        );
        match models {
            [] => Vec::new(),
            [model] => {
                let mut out = ReplayOutcome::new();
                ReplayEngine::new(model).replay_into(trace, &mut out);
                vec![out]
            }
            _ => LaneEngine::new(models).replay(trace),
        }
    }
}

/// Up to [`REPLAY_LANES`] variants' tables interleaved per entry:
/// `dec[i][l]` is lane `l`'s `ReplayEngine::dec[i]`. Lanes past the last
/// model stay zero and are dropped.
struct LaneEngine {
    models: usize,
    dec: [[f64; REPLAY_LANES]; 2 * DEC_LEN],
    m2s: [[f64; REPLAY_LANES]; 4 * M2S_STRIDE],
    s2m: [[f64; REPLAY_LANES]; 4 * S2M_STRIDE],
    arb: [[f64; REPLAY_LANES]; 4 * ARB_STRIDE],
}

impl LaneEngine {
    /// Interleaves the tables `ReplayEngine::new` builds for each of at
    /// most [`REPLAY_LANES`] models.
    fn new(models: &[AhbPowerModel]) -> Box<Self> {
        let mut lanes = Box::new(LaneEngine {
            models: models.len(),
            dec: [[0.0; REPLAY_LANES]; 2 * DEC_LEN],
            m2s: [[0.0; REPLAY_LANES]; 4 * M2S_STRIDE],
            s2m: [[0.0; REPLAY_LANES]; 4 * S2M_STRIDE],
            arb: [[0.0; REPLAY_LANES]; 4 * ARB_STRIDE],
        });
        fn interleave(dst: &mut [[f64; REPLAY_LANES]], src: &[f64], l: usize) {
            for (entry, &v) in dst.iter_mut().zip(src) {
                entry[l] = v;
            }
        }
        for (l, model) in models.iter().enumerate() {
            let e = ReplayEngine::new(model);
            interleave(&mut lanes.dec, &e.dec, l);
            interleave(&mut lanes.m2s, &e.m2s, l);
            interleave(&mut lanes.s2m, &e.s2m, l);
            interleave(&mut lanes.arb, &e.arb, l);
        }
        lanes
    }

    /// Books every lane over `trace`; one outcome per model.
    fn replay(&self, trace: &ActivityTrace) -> Vec<ReplayOutcome> {
        let mut ledger = LaneLedger::default();
        self.book_all(&trace.words, &mut ledger);
        (0..self.models)
            .map(|l| ReplayOutcome {
                ledger: ledger.lane(l),
                ..ReplayOutcome::new()
            })
            .collect()
    }

    /// The lane loop; a function of its own for the same reason as
    /// [`ReplayEngine::book_all`].
    fn book_all(&self, words: &[u64], ledger: &mut LaneLedger) {
        for &w in words {
            let [dec, m2s, s2m, arb] = slots(w);
            ledger.book(
                w,
                [
                    &self.dec[dec],
                    &self.m2s[m2s],
                    &self.s2m[s2m],
                    &self.arb[arb],
                ],
            );
        }
    }
}

/// Everything one replay pass produces — the same artifacts a live
/// [`PowerSession`](crate::PowerSession) run yields, rebuilt from the
/// recording.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    ledger: PowerLedger,
    /// `(window_cycles, f_clk_hz bits)` the windowed trace was built for.
    trace_params: (u64, u64),
    trace: Option<PowerTrace>,
}

impl ReplayOutcome {
    /// An outcome that books ledgers and per-master energy only — the fast
    /// configuration for coefficient sweeps that need totals, not power
    /// series.
    pub fn new() -> Self {
        ReplayOutcome {
            ledger: PowerLedger::default(),
            trace_params: (0, 0),
            trace: None,
        }
    }

    /// An outcome that additionally rebuilds the windowed power trace
    /// (Figs. 3-5), matching the live session point for point.
    pub fn with_windows() -> Self {
        ReplayOutcome {
            trace: Some(PowerTrace::new(1, 1.0)),
            ..ReplayOutcome::new()
        }
    }

    fn reset(&mut self, trace: &ActivityTrace) {
        self.ledger = PowerLedger::default();
        if let Some(t) = &mut self.trace {
            let params = (trace.window_cycles, trace.f_clk_hz.to_bits());
            if self.trace_params == params {
                t.reset();
            } else {
                *t = PowerTrace::new(trace.window_cycles, trace.f_clk_hz);
                self.trace_params = params;
            }
        }
    }

    /// Per-instruction ledger (Table 1), bit-identical to the live run for
    /// a same-model replay.
    pub fn ledger(&self) -> &InstructionLedger {
        self.ledger.instructions()
    }

    /// Per-block ledger (Fig. 6).
    pub fn blocks(&self) -> &BlockLedger {
        self.ledger.blocks()
    }

    /// Total energy, joules (same accumulation order as
    /// [`InstructionLedger::total_energy`]).
    pub fn total_energy(&self) -> f64 {
        self.ledger.instructions().total_energy()
    }

    /// Replayed cycles.
    pub fn cycles(&self) -> u64 {
        self.ledger.blocks().cycles()
    }

    /// Per-master energy attribution, joules; the slice length matches the
    /// live session's (one past the highest observed owner), empty when
    /// nothing was replayed.
    pub fn per_master_energy(&self) -> &[f64] {
        self.ledger.per_master_energy()
    }

    /// Windowed power points; empty unless the outcome was created
    /// [`with_windows`](ReplayOutcome::with_windows).
    pub fn trace_points(&self) -> &[TracePoint] {
        self.trace.as_ref().map(PowerTrace::points).unwrap_or(&[])
    }
}

impl Default for ReplayOutcome {
    fn default() -> Self {
        ReplayOutcome::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;
    use crate::instruction::{ActivityMode, Instruction};
    use crate::macromodel::TechParams;
    use crate::model::SubBlock;
    use crate::power_fsm::PowerFsm;
    use crate::replay::{
        ActivityRecorder, ADDR_HD_SHIFT, FIRST_BIT, M2S_REST_SHIFT, REQ_HD_SHIFT, RESERVED_SHIFT,
        S2M_HD_SHIFT,
    };
    use ahbpower_ahb::{BusSnapshot, HBurst, HResp, HSize, HTrans, MasterId};
    use proptest::prelude::*;

    fn snap(i: u32) -> BusSnapshot {
        BusSnapshot {
            cycle: u64::from(i),
            haddr: i.wrapping_mul(0x9E37_79B9),
            htrans: if i.is_multiple_of(4) {
                HTrans::Idle
            } else {
                HTrans::NonSeq
            },
            hwrite: i.is_multiple_of(2),
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: i.rotate_left(7),
            hrdata: i.rotate_right(3),
            hready: !i.is_multiple_of(5),
            hresp: HResp::Okay,
            hmaster: MasterId((i % 3) as u8),
            hmastlock: false,
            hbusreq: i % 7,
            hgrant: 1 << (i % 3),
            hsel: 1 << (i % 3),
        }
    }

    fn recorded(cfg: &AnalysisConfig, cycles: u32) -> (PowerFsm, ActivityTrace) {
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let mut fsm = PowerFsm::new(model);
        let mut rec = ActivityRecorder::new(cfg);
        for i in 0..cycles {
            let s = snap(i);
            let r = fsm.observe(&s);
            rec.record(&s, r.instruction);
        }
        (fsm, rec.finish())
    }

    #[test]
    fn same_model_replay_is_bit_identical() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 500);
        let engine = ReplayEngine::new(fsm.model());
        let out = engine.replay(&trace);
        assert_eq!(out.cycles(), 500);
        assert_eq!(out.total_energy(), fsm.total_energy(), "total energy");
        for i in Instruction::all() {
            assert_eq!(out.ledger().count(i), fsm.ledger().count(i), "{i} count");
            assert_eq!(out.ledger().energy(i), fsm.ledger().energy(i), "{i} energy");
        }
        assert_eq!(out.blocks().totals(), fsm.blocks().totals());
        assert_eq!(out.blocks().cycles(), fsm.blocks().cycles());
        assert_eq!(out.per_master_energy(), fsm.per_master_energy());
    }

    #[test]
    fn variant_replay_matches_fresh_evaluation() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 300);
        // Scale the arbiter 3x and re-run the same snapshots live.
        let mut variant = fsm.model().clone();
        variant.arbiter.scale(3.0);
        let mut live = PowerFsm::new(variant.clone());
        for i in 0..300 {
            live.observe(&snap(i));
        }
        let out = ReplayEngine::new(&variant).replay(&trace);
        assert_eq!(out.total_energy(), live.total_energy());
        assert_eq!(out.blocks().totals(), live.blocks().totals());
    }

    #[test]
    fn windowed_points_match_live_trace() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 130);
        let mut live = PowerTrace::new(cfg.window_cycles, cfg.f_clk_hz);
        let mut replay_fsm = PowerFsm::new(fsm.model().clone());
        for i in 0..130 {
            let r = replay_fsm.observe(&snap(i));
            live.push(r.energy);
        }
        live.finish();
        let out = ReplayEngine::new(fsm.model()).replay(&trace);
        assert_eq!(out.trace_points(), live.points());
        assert_eq!(out.trace_points().len(), 7, "6 full windows + partial");
    }

    #[test]
    fn fast_outcome_skips_windows_and_reuses_buffers() {
        let cfg = AnalysisConfig::paper_testbench();
        let (fsm, trace) = recorded(&cfg, 100);
        let engine = ReplayEngine::new(fsm.model());
        let mut out = ReplayOutcome::new();
        engine.replay_into(&trace, &mut out);
        assert!(out.trace_points().is_empty());
        assert_eq!(out.total_energy(), fsm.total_energy());
        // Second replay over the same buffers books the same result.
        engine.replay_into(&trace, &mut out);
        assert_eq!(out.total_energy(), fsm.total_energy());
        assert_eq!(out.cycles(), 100);
    }

    #[test]
    fn empty_trace_replays_to_zero() {
        let cfg = AnalysisConfig::paper_testbench();
        let trace = ActivityTrace::new(&cfg);
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let out = ReplayEngine::new(&model).replay(&trace);
        assert_eq!(out.cycles(), 0);
        assert_eq!(out.total_energy(), 0.0);
        assert!(out.per_master_energy().is_empty());
        assert!(out.trace_points().is_empty());
    }

    #[test]
    fn lut_matches_model_at_every_index() {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let e = ReplayEngine::new(&model);
        for hd in 0..DEC_LEN {
            assert_eq!(e.dec[hd], model.decoder.energy(hd as u32));
        }
        for hd in 0..M2S_STRIDE {
            assert_eq!(e.m2s[hd], model.m2s.energy(hd as u32, false));
            assert_eq!(e.m2s[M2S_STRIDE + hd], model.m2s.energy(hd as u32, true));
        }
        for hd in 0..ARB_STRIDE {
            assert_eq!(
                e.arb[ARB_STRIDE + hd],
                model.arbiter.energy(hd as u32, true)
            );
        }
    }

    #[test]
    fn default_outcome_is_fast_mode() {
        let out = ReplayOutcome::default();
        assert!(out.trace.is_none());
        assert_eq!(out.total_energy(), 0.0);
    }

    /// Field bits of an activity word (everything below the reserved bits).
    const FIELD_BITS: u64 = (1 << RESERVED_SHIFT) - 1;
    /// Every Hamming-distance field at its widest value.
    const WIDEST_HD: u64 = ADDR_HD_MASK << ADDR_HD_SHIFT
        | M2S_REST_MASK << M2S_REST_SHIFT
        | S2M_HD_MASK << S2M_HD_SHIFT
        | REQ_HD_MASK << REQ_HD_SHIFT;
    const FIRST: u64 = 1 << FIRST_BIT;

    /// One generated word: `raw`'s field bits, then by `kind` a first
    /// cycle (0), the widest HD fields (1) or left as drawn.
    fn word(raw: u64, kind: u8) -> u64 {
        let w = raw & FIELD_BITS & !FIRST;
        match kind {
            0 => w | FIRST,
            1 => w | WIDEST_HD,
            _ => w,
        }
    }

    /// Asserts `got` equals `want` bit for bit in every ledger field.
    fn assert_same_outcome(got: &ReplayOutcome, want: &ReplayOutcome, what: &str) {
        for i in Instruction::all() {
            assert_eq!(
                got.ledger().count(i),
                want.ledger().count(i),
                "{what}: {i} count"
            );
            assert_eq!(
                got.ledger().energy(i).to_bits(),
                want.ledger().energy(i).to_bits(),
                "{what}: {i} energy"
            );
        }
        let (g, w) = (got.blocks().totals(), want.blocks().totals());
        for (name, a, b) in [
            ("dec", g.dec, w.dec),
            ("m2s", g.m2s, w.m2s),
            ("s2m", g.s2m, w.s2m),
            ("arb", g.arb, w.arb),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name} total");
        }
        let bits = |o: &ReplayOutcome| -> Vec<u64> {
            o.per_master_energy().iter().map(|e| e.to_bits()).collect()
        };
        assert_eq!(bits(got), bits(want), "{what}: per-master energy");
        assert_eq!(got.cycles(), want.cycles(), "{what}: cycles");
        assert_eq!(
            got.total_energy().to_bits(),
            want.total_energy().to_bits(),
            "{what}: total"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn lanes_match_one_model_replay_bit_for_bit(
            cycles in prop::collection::vec((any::<u64>(), 0u8..8), 0..300),
            scales in prop::collection::vec(
                (0usize..4, 0.05f64..8.0, 0usize..4, 0.05f64..8.0),
                REPLAY_LANES,
            ),
        ) {
            let cfg = AnalysisConfig::paper_testbench();
            let mut trace = ActivityTrace::new(&cfg);
            for &(raw, kind) in &cycles {
                trace.push_word(word(raw, kind));
            }
            let base = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
            let models: Vec<AhbPowerModel> = scales
                .iter()
                .map(|&(b1, f1, b2, f2)| {
                    let mut m = base.clone();
                    m.scale_block(SubBlock::ALL[b1], f1);
                    m.scale_block(SubBlock::ALL[b2], f2);
                    m
                })
                .collect();
            let want: Vec<ReplayOutcome> = models
                .iter()
                .map(|m| {
                    let mut out = ReplayOutcome::new();
                    ReplayEngine::new(m).replay_into(&trace, &mut out);
                    out
                })
                .collect();
            // Every chunk size: one model (the one-model path), partial
            // lane passes and a full one.
            for n in 1..=REPLAY_LANES {
                let lanes = ReplayEngine::replay_variants(&models[..n], &trace);
                prop_assert_eq!(lanes.len(), n);
                for (k, (got, want)) in lanes.iter().zip(&want).enumerate() {
                    assert_same_outcome(got, want, &format!("{n} models, lane {k}"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn replay_variants_rejects_more_models_than_lanes() {
        let cfg = AnalysisConfig::paper_testbench();
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let models = vec![model; REPLAY_LANES + 1];
        ReplayEngine::replay_variants(&models, &ActivityTrace::new(&cfg));
    }

    #[test]
    fn replay_handles_idle_ho_instruction_indices() {
        // The instruction field must survive packing for all 16 indices.
        let cfg = AnalysisConfig::paper_testbench();
        let mut rec = ActivityRecorder::new(&cfg);
        for idx in 0..crate::INSTRUCTION_COUNT {
            rec.record(&snap(idx as u32), Instruction::from_index(idx));
        }
        let trace = rec.finish();
        let model = AhbPowerModel::new(cfg.n_masters, cfg.n_slaves, &cfg.tech());
        let out = ReplayEngine::new(&model).replay(&trace);
        let ledger = out.ledger();
        for idx in 0..crate::INSTRUCTION_COUNT {
            assert_eq!(ledger.count(Instruction::from_index(idx)), 1);
        }
        let _ = Instruction::new(ActivityMode::IdleHo, ActivityMode::IdleHo);
    }
}
