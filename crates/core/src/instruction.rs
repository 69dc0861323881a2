//! The AHB instruction set — the paper's behavioural decomposition.
//!
//! > "four main activity modes were identified: IDLE, READ, WRITE and IDLE
//! > with bus handover; the instruction set is made of all the permissible
//! > transitions between one of these states and the others" — Section 5.2.

use std::fmt;

use ahbpower_ahb::BusSnapshot;

/// One of the paper's four activity modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActivityMode {
    /// No data transfer, no bus handover.
    #[default]
    Idle,
    /// No data transfer, bus ownership moved to another master.
    IdleHo,
    /// A read transfer is on the bus.
    Read,
    /// A write transfer is on the bus.
    Write,
}

impl ActivityMode {
    /// All four modes, in index order.
    pub const ALL: [ActivityMode; 4] = [
        ActivityMode::Idle,
        ActivityMode::IdleHo,
        ActivityMode::Read,
        ActivityMode::Write,
    ];

    /// A stable index in `0..4`.
    pub fn index(self) -> usize {
        match self {
            ActivityMode::Idle => 0,
            ActivityMode::IdleHo => 1,
            ActivityMode::Read => 2,
            ActivityMode::Write => 3,
        }
    }

    /// The mode with the given [`index`](Self::index), or `None` if `i`
    /// is out of range.
    pub fn from_index(i: usize) -> Option<ActivityMode> {
        ActivityMode::ALL.get(i).copied()
    }

    /// The paper's spelling of the mode.
    pub fn name(self) -> &'static str {
        match self {
            ActivityMode::Idle => "IDLE",
            ActivityMode::IdleHo => "IDLE_HO",
            ActivityMode::Read => "READ",
            ActivityMode::Write => "WRITE",
        }
    }
}

impl fmt::Display for ActivityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies one bus cycle into an activity mode.
///
/// A cycle with a NONSEQ/SEQ address phase is READ or WRITE according to
/// HWRITE. BUSY and IDLE cycles are idle; they classify as
/// **IDLE-with-handover** while the bus is owned by a different master than
/// the one that performed the most recent data transfer
/// (`last_transfer_master`) — i.e. for the whole parked period following a
/// bus handover, which is how the paper's testbench produces long
/// `IDLE_HO_IDLE_HO` runs.
///
/// # Examples
///
/// ```
/// use ahbpower::{classify_mode, ActivityMode};
/// use ahbpower_ahb::MasterId;
/// # use ahbpower_ahb::{BusSnapshot, HBurst, HResp, HSize, HTrans};
/// # let mut snap = BusSnapshot { cycle: 0, haddr: 0, htrans: HTrans::NonSeq,
/// #   hwrite: true, hsize: HSize::Word, hburst: HBurst::Single, hwdata: 0,
/// #   hrdata: 0, hready: true, hresp: HResp::Okay, hmaster: MasterId(0),
/// #   hmastlock: false, hbusreq: 0, hgrant: 0, hsel: 0 };
/// assert_eq!(classify_mode(&snap, None), ActivityMode::Write);
/// snap.htrans = HTrans::Idle;
/// // Bus parked with master 0 after master 1 transferred: handover idle.
/// assert_eq!(classify_mode(&snap, Some(MasterId(1))), ActivityMode::IdleHo);
/// assert_eq!(classify_mode(&snap, Some(MasterId(0))), ActivityMode::Idle);
/// ```
pub fn classify_mode(
    snap: &BusSnapshot,
    last_transfer_master: Option<ahbpower_ahb::MasterId>,
) -> ActivityMode {
    if snap.htrans.is_transfer() {
        if snap.hwrite {
            ActivityMode::Write
        } else {
            ActivityMode::Read
        }
    } else if last_transfer_master.is_some_and(|m| m != snap.hmaster) {
        ActivityMode::IdleHo
    } else {
        ActivityMode::Idle
    }
}

/// One instruction: a transition between activity modes, e.g. `WRITE_READ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The mode the bus was in.
    pub from: ActivityMode,
    /// The mode the bus entered.
    pub to: ActivityMode,
}

/// Number of distinct instructions (4 × 4 transitions).
pub const INSTRUCTION_COUNT: usize = 16;

impl Instruction {
    /// Creates an instruction.
    pub fn new(from: ActivityMode, to: ActivityMode) -> Self {
        Instruction { from, to }
    }

    /// A stable index in `0..INSTRUCTION_COUNT`.
    pub fn index(self) -> usize {
        self.from.index() * 4 + self.to.index()
    }

    /// The instruction at a given index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= INSTRUCTION_COUNT`.
    pub fn from_index(i: usize) -> Self {
        assert!(i < INSTRUCTION_COUNT, "instruction index out of range");
        Instruction {
            from: ActivityMode::ALL[i / 4],
            to: ActivityMode::ALL[i % 4],
        }
    }

    /// All sixteen instructions in index order.
    pub fn all() -> impl Iterator<Item = Instruction> {
        (0..INSTRUCTION_COUNT).map(Instruction::from_index)
    }

    /// The paper's spelling, e.g. `IDLE_HO_WRITE` or `WRITE_READ`.
    pub fn name(self) -> String {
        format!("{}_{}", self.from.name(), self.to.name())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The instruction-recognition half of the paper's `power_fsm()`: holds
/// the current activity mode and the master of the most recent transfer,
/// and turns each observed cycle into the instruction it executed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InstructionRecognizer {
    state: ActivityMode,
    last_transfer_master: Option<ahbpower_ahb::MasterId>,
}

impl InstructionRecognizer {
    /// Classifies `snap` and advances to its mode; returns the transition
    /// from the previous mode.
    pub(crate) fn step(&mut self, snap: &BusSnapshot) -> Instruction {
        let mode = classify_mode(snap, self.last_transfer_master);
        let instruction = Instruction::new(self.state, mode);
        if snap.htrans.is_transfer() {
            self.last_transfer_master = Some(snap.hmaster);
        }
        self.state = mode;
        instruction
    }

    /// The current activity mode (IDLE before the first cycle).
    pub(crate) fn state(&self) -> ActivityMode {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahbpower_ahb::{HBurst, HResp, HSize, HTrans, MasterId};

    fn snap(trans: HTrans, write: bool) -> BusSnapshot {
        BusSnapshot {
            cycle: 0,
            haddr: 0,
            htrans: trans,
            hwrite: write,
            hsize: HSize::Word,
            hburst: HBurst::Single,
            hwdata: 0,
            hrdata: 0,
            hready: true,
            hresp: HResp::Okay,
            hmaster: MasterId(0),
            hmastlock: false,
            hbusreq: 0,
            hgrant: 0,
            hsel: 0,
        }
    }

    #[test]
    fn classification_covers_all_modes() {
        let other = Some(MasterId(5));
        let same = Some(MasterId(0));
        assert_eq!(
            classify_mode(&snap(HTrans::NonSeq, true), None),
            ActivityMode::Write
        );
        assert_eq!(
            classify_mode(&snap(HTrans::Seq, false), other),
            ActivityMode::Read,
            "a transfer cycle is READ/WRITE even if ownership moved"
        );
        assert_eq!(
            classify_mode(&snap(HTrans::Idle, false), same),
            ActivityMode::Idle
        );
        assert_eq!(
            classify_mode(&snap(HTrans::Idle, false), None),
            ActivityMode::Idle,
            "no transfer yet: the bus has not handed over"
        );
        assert_eq!(
            classify_mode(&snap(HTrans::Idle, false), other),
            ActivityMode::IdleHo
        );
        assert_eq!(
            classify_mode(&snap(HTrans::Busy, false), same),
            ActivityMode::Idle,
            "BUSY carries no transfer"
        );
    }

    #[test]
    fn instruction_names_match_paper() {
        use ActivityMode::*;
        assert_eq!(Instruction::new(Write, Read).name(), "WRITE_READ");
        assert_eq!(Instruction::new(Read, Write).name(), "READ_WRITE");
        assert_eq!(Instruction::new(IdleHo, IdleHo).name(), "IDLE_HO_IDLE_HO");
        assert_eq!(Instruction::new(IdleHo, Write).name(), "IDLE_HO_WRITE");
        assert_eq!(Instruction::new(Read, IdleHo).name(), "READ_IDLE_HO");
        assert_eq!(Instruction::new(Idle, Idle).name(), "IDLE_IDLE");
    }

    #[test]
    fn indices_round_trip() {
        for (k, instr) in Instruction::all().enumerate() {
            assert_eq!(instr.index(), k);
            assert_eq!(Instruction::from_index(k), instr);
        }
        assert_eq!(Instruction::all().count(), INSTRUCTION_COUNT);
    }

    #[test]
    fn mode_indices_are_stable() {
        for (k, m) in ActivityMode::ALL.iter().enumerate() {
            assert_eq!(m.index(), k);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let _ = Instruction::from_index(16);
    }
}
