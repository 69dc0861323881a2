//! The three power-model integration styles of the paper's Fig. 1.
//!
//! - **Inline** (the paper's "private model"): every cycle, every sub-block
//!   macromodel is evaluated on exact Hamming distances. Most accurate and
//!   most intrusive.
//! - **FSM** (the "local model"): a characterization pass first assigns each
//!   *instruction* a mean energy; during analysis the probe only classifies
//!   the instruction per cycle and adds its mean. Cheaper per cycle, pays
//!   with accuracy whenever activity deviates from the calibration run.
//! - **Global** (the "global model"): a separate monitor module that keeps
//!   only aggregate switching statistics and evaluates the macromodels once
//!   at the end. Least intrusive; produces totals but no per-cycle or
//!   per-instruction detail.

use ahbpower_ahb::{BusSnapshot, MasterId};

use crate::activity::SignalActivity;
use crate::instruction::{Instruction, InstructionRecognizer, INSTRUCTION_COUNT};
use crate::ledger::InstructionLedger;
use crate::model::AhbPowerModel;
use crate::power_fsm::PowerFsm;

/// A per-cycle bus power probe.
pub trait PowerProbe {
    /// Processes one cycle's wires.
    fn observe(&mut self, snap: &BusSnapshot);

    /// Total energy attributed so far, joules.
    fn total_energy(&self) -> f64;

    /// The style's name.
    fn style(&self) -> &'static str;
}

/// The inline (exact, per-cycle) probe — a thin wrapper over [`PowerFsm`].
#[derive(Debug, Clone)]
pub struct InlineProbe {
    fsm: PowerFsm,
}

impl InlineProbe {
    /// Creates an inline probe.
    pub fn new(model: AhbPowerModel) -> Self {
        InlineProbe {
            fsm: PowerFsm::new(model),
        }
    }

    /// Access to the full FSM (ledgers, traces).
    pub fn fsm(&self) -> &PowerFsm {
        &self.fsm
    }
}

impl PowerProbe for InlineProbe {
    fn observe(&mut self, snap: &BusSnapshot) {
        self.fsm.observe(snap);
    }

    fn total_energy(&self) -> f64 {
        self.fsm.total_energy()
    }

    fn style(&self) -> &'static str {
        "inline"
    }
}

/// The FSM-style probe: per-instruction mean energies, applied by
/// instruction recognition only.
#[derive(Debug, Clone)]
pub struct FsmProbe {
    table: [f64; INSTRUCTION_COUNT],
    recognizer: InstructionRecognizer,
    ledger: InstructionLedger,
}

impl FsmProbe {
    /// Creates a probe from a per-instruction mean-energy table (joules),
    /// indexed by [`Instruction::index`].
    pub fn from_table(table: [f64; INSTRUCTION_COUNT]) -> Self {
        FsmProbe {
            table,
            recognizer: InstructionRecognizer::default(),
            ledger: InstructionLedger::new(),
        }
    }

    /// Characterizes the table from a calibration run's exact ledger
    /// (instructions never seen calibrate to zero).
    pub fn from_calibration(calibration: &InstructionLedger) -> Self {
        let mut table = [0.0; INSTRUCTION_COUNT];
        for instr in Instruction::all() {
            let n = calibration.count(instr);
            if n > 0 {
                table[instr.index()] = calibration.energy(instr) / n as f64;
            }
        }
        FsmProbe::from_table(table)
    }

    /// The per-instruction ledger accumulated during analysis.
    pub fn ledger(&self) -> &InstructionLedger {
        &self.ledger
    }
}

impl PowerProbe for FsmProbe {
    fn observe(&mut self, snap: &BusSnapshot) {
        let instr = self.recognizer.step(snap);
        self.ledger.record(instr, self.table[instr.index()]);
    }

    fn total_energy(&self) -> f64 {
        self.ledger.total_energy()
    }

    fn style(&self) -> &'static str {
        "fsm"
    }
}

/// The global monitor: aggregate switching statistics only.
#[derive(Debug, Clone)]
pub struct GlobalProbe {
    model: AhbPowerModel,
    addr: SignalActivity,
    ctrl: SignalActivity,
    wdata: SignalActivity,
    rdata: SignalActivity,
    resp: SignalActivity,
    busreq: SignalActivity,
    handovers: u64,
    s2m_sel_changes: u64,
    prev_master: Option<MasterId>,
    prev_hsel: Option<u32>,
    cycles: u64,
}

impl GlobalProbe {
    /// Creates a global probe for the given models.
    pub fn new(model: AhbPowerModel) -> Self {
        let n_masters = model.arbiter.n_masters as u32;
        GlobalProbe {
            model,
            addr: SignalActivity::new(32),
            ctrl: SignalActivity::new(9),
            wdata: SignalActivity::new(32),
            rdata: SignalActivity::new(32),
            resp: SignalActivity::new(3),
            busreq: SignalActivity::new(n_masters.max(1)),
            handovers: 0,
            s2m_sel_changes: 0,
            prev_master: None,
            prev_hsel: None,
            cycles: 0,
        }
    }

    /// Cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Bus handovers observed.
    pub fn handovers(&self) -> u64 {
        self.handovers
    }

    /// The aggregate statistics of the address bus (for reports).
    pub fn addr_activity(&self) -> &SignalActivity {
        &self.addr
    }

    /// Total HADDR bit toggles.
    pub fn addr_bit_changes(&self) -> u64 {
        self.addr.bit_changes()
    }

    /// Cycles on which HADDR changed at all.
    pub fn addr_word_changes(&self) -> u64 {
        self.addr.word_changes()
    }

    /// Total control-bundle bit toggles.
    pub fn ctrl_bit_changes(&self) -> u64 {
        self.ctrl.bit_changes()
    }

    /// Total HWDATA bit toggles.
    pub fn wdata_bit_changes(&self) -> u64 {
        self.wdata.bit_changes()
    }

    /// Total HRDATA bit toggles.
    pub fn rdata_bit_changes(&self) -> u64 {
        self.rdata.bit_changes()
    }

    /// Total response-bundle bit toggles.
    pub fn resp_bit_changes(&self) -> u64 {
        self.resp.bit_changes()
    }

    /// Total HBUSREQ bit toggles.
    pub fn busreq_bit_changes(&self) -> u64 {
        self.busreq.bit_changes()
    }

    /// S2M select (HSEL) changes observed.
    pub fn s2m_select_changes(&self) -> u64 {
        self.s2m_sel_changes
    }
}

impl PowerProbe for GlobalProbe {
    fn observe(&mut self, snap: &BusSnapshot) {
        self.addr.sample(u64::from(snap.haddr));
        self.ctrl.sample(u64::from(snap.control_bits()));
        self.wdata.sample(u64::from(snap.hwdata));
        self.rdata.sample(u64::from(snap.hrdata));
        self.resp
            .sample(u64::from(snap.hresp.bits()) | (u64::from(snap.hready) << 2));
        self.busreq.sample(u64::from(snap.hbusreq));
        if self.prev_master.is_some_and(|m| m != snap.hmaster) {
            self.handovers += 1;
        }
        if self.prev_hsel.is_some_and(|s| s != snap.hsel_bits()) {
            self.s2m_sel_changes += 1;
        }
        self.prev_master = Some(snap.hmaster);
        self.prev_hsel = Some(snap.hsel_bits());
        self.cycles += 1;
    }

    fn total_energy(&self) -> f64 {
        // The macromodels are linear in Hamming distance, so evaluating them
        // on aggregate counts is exact for the data terms; the word-change
        // counters supply the per-event terms.
        let m = &self.model;
        let dec = m.decoder.alpha * self.addr.bit_changes() as f64
            + m.decoder.beta * self.addr.word_changes() as f64;
        let m2s_bits =
            (self.addr.bit_changes() + self.ctrl.bit_changes() + self.wdata.bit_changes()) as f64;
        let m2s = m2s_bits * (m.m2s.a_data + m.m2s.a_out) + self.handovers as f64 * m.m2s.b_sel;
        let s2m_bits = (self.rdata.bit_changes() + self.resp.bit_changes()) as f64;
        let s2m =
            s2m_bits * (m.s2m.a_data + m.s2m.a_out) + self.s2m_sel_changes as f64 * m.s2m.b_sel;
        // Inline accounting books energy per *transition*, so the clock
        // term accrues from the second observed cycle onward.
        let clocked_cycles = self.cycles.saturating_sub(1) as f64;
        let arb = self.busreq.bit_changes() as f64 * m.arbiter.a_req
            + self.handovers as f64 * m.arbiter.b_grant
            + clocked_cycles * m.arbiter.e_clock;
        dec + m2s + s2m + arb
    }

    fn style(&self) -> &'static str {
        "global"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macromodel::TechParams;
    use ahbpower_ahb::{pack_wires, HBurst, HResp, HSize, HTrans};

    fn snap(i: u32) -> BusSnapshot {
        BusSnapshot {
            cycle: u64::from(i),
            haddr: i.wrapping_mul(0x0101_0105),
            htrans: if i.is_multiple_of(3) {
                HTrans::NonSeq
            } else {
                HTrans::Idle
            },
            hwrite: i.is_multiple_of(2),
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: i.wrapping_mul(0xDEAD_4321),
            hrdata: i.wrapping_mul(0x5A5A_0F0F),
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId((i % 2) as u8),
            hmastlock: false,
            hbusreq: pack_wires([i.is_multiple_of(2), i.is_multiple_of(3)]),
            hgrant: pack_wires([i.is_multiple_of(2), i % 2 == 1]),
            hsel: pack_wires([i.is_multiple_of(3), false]),
        }
    }

    fn model() -> AhbPowerModel {
        AhbPowerModel::new(2, 2, &TechParams::default())
    }

    #[test]
    fn global_matches_inline_for_linear_models() {
        let mut inline = InlineProbe::new(model());
        let mut global = GlobalProbe::new(model());
        for i in 0..200 {
            let s = snap(i);
            inline.observe(&s);
            global.observe(&s);
        }
        let a = inline.total_energy();
        let b = global.total_energy();
        assert!(a > 0.0);
        assert!(
            (a - b).abs() < 1e-9 * a,
            "inline {a} vs global {b}: linear models must agree"
        );
        assert_eq!(global.cycles(), 200);
        assert!(global.handovers() > 0);
    }

    #[test]
    fn fsm_probe_reproduces_calibration_exactly_on_same_trace() {
        let mut inline = InlineProbe::new(model());
        let trace: Vec<BusSnapshot> = (0..300).map(snap).collect();
        for s in &trace {
            inline.observe(s);
        }
        let mut fsm = FsmProbe::from_calibration(inline.fsm().ledger());
        for s in &trace {
            fsm.observe(s);
        }
        let a = inline.total_energy();
        let b = fsm.total_energy();
        // Same instruction mix as the calibration run -> identical total.
        assert!((a - b).abs() < 1e-9 * a, "inline {a} vs fsm {b}");
    }

    #[test]
    fn fsm_probe_deviates_on_different_traffic() {
        let mut inline = InlineProbe::new(model());
        for i in 0..300 {
            inline.observe(&snap(i));
        }
        let mut fsm = FsmProbe::from_calibration(inline.fsm().ledger());
        let mut inline2 = InlineProbe::new(model());
        // Different data activity: same instruction mix, all-zero payloads.
        for i in 0..300 {
            let mut s = snap(i);
            s.hwdata = 0;
            s.hrdata = 0;
            fsm.observe(&s);
            inline2.observe(&s);
        }
        let exact = inline2.total_energy();
        let approx = fsm.total_energy();
        assert!(
            (exact - approx).abs() > 0.05 * exact,
            "fsm style should be visibly off when activity changes: {exact} vs {approx}"
        );
    }

    #[test]
    fn styles_report_names() {
        assert_eq!(InlineProbe::new(model()).style(), "inline");
        assert_eq!(FsmProbe::from_table([0.0; 16]).style(), "fsm");
        assert_eq!(GlobalProbe::new(model()).style(), "global");
    }
}
