//! # ahbpower — instruction-based system-level power analysis for the AMBA AHB
//!
//! A from-scratch reproduction of *"System-Level Power Analysis Methodology
//! Applied to the AMBA AHB Bus"* (Caldari et al., DATE 2003). The
//! methodology characterizes an IP core's **instructions** (here: the
//! permissible transitions between the AHB activity modes IDLE, IDLE_HO,
//! READ, WRITE) with analytic **energy macromodels** of its structural
//! sub-blocks (arbiter, decoder, M2S/S2M multiplexers), then instruments an
//! executable bus model with a **power FSM** that books energy per
//! instruction during simulation.
//!
//! ## Layers
//!
//! - [`hamming`], [`SignalActivity`], [`ActivityMonitor`] — the paper's
//!   `Activity` class (bit-change counting, switching activity, signal
//!   probability);
//! - [`DecoderModel`], [`MuxModel`], [`ArbiterModel`] — sub-block energy
//!   macromodels (paper formula or fitted to gate level);
//! - [`fit_decoder_model`] & friends — characterization against the
//!   `ahbpower-gate` reference (the paper's SIS step);
//! - [`ActivityMode`], [`Instruction`], [`PowerFsm`] — behavioural
//!   decomposition and the `power_fsm()`;
//! - [`InstructionLedger`] (Table 1), [`BlockLedger`] (Fig. 6),
//!   [`PowerTrace`] (Figs. 3-5), [`report`] renderers;
//! - [`InlineProbe`], [`FsmProbe`], [`GlobalProbe`] — the three power-model
//!   integration styles of the paper's Fig. 1;
//! - [`PowerSession`] / [`run_on_kernel`] — turnkey analysis, optionally
//!   hosted on the `ahbpower-sim` discrete-event kernel;
//! - [`telemetry`] — opt-in (default-off) observability: a metrics
//!   registry, hot-loop spans, bus-performance analyzers, and
//!   JSONL/CSV/Prometheus exporters;
//! - [`TxnTracer`] / [`AttributionTable`] — opt-in transaction-level
//!   energy attribution: causally-linked transaction records in a bounded
//!   ring, exact (master, slave, instruction) energy split, and Chrome
//!   trace-event / folded-flamegraph exporters in [`telemetry`];
//! - [`ActivityRecorder`] / [`ReplayEngine`] — trace-once / estimate-many
//!   power emulation: record a workload's switching activity once, then
//!   re-estimate energy for any model variant from the recording at a
//!   small fraction of simulation cost (see [`replay`]).
//!
//! ## Quick start
//!
//! ```
//! use ahbpower::{AnalysisConfig, PowerSession};
//! use ahbpower_ahb::{AddressMap, AhbBusBuilder, MemorySlave, Op, ScriptedMaster};
//!
//! let cfg = AnalysisConfig::paper_testbench();
//! let mut bus = AhbBusBuilder::new(AddressMap::evenly_spaced(3, 0x1000))
//!     .master(Box::new(ScriptedMaster::new(vec![
//!         Op::write(0x0, 0xCAFE_F00D),
//!         Op::read(0x0),
//!         Op::Idle(4),
//!     ])))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .slave(Box::new(MemorySlave::new(0x1000, 0, 0)))
//!     .build()?;
//! let mut session = PowerSession::new(&cfg);
//! session.run(&mut bus, 100);
//! println!("{}", ahbpower::report::table1_text(session.ledger()));
//! assert!(session.total_energy() > 0.0);
//! # Ok::<(), ahbpower_ahb::BuildBusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod attribution;
mod characterize;
mod config;
mod dpm;
mod estimate;
mod instruction;
mod ledger;
mod macromodel;
mod model;
mod power_fsm;
mod probe;
pub mod replay;
pub mod report;
mod sc;
mod session;
mod sram;
pub mod telemetry;
mod trace;
mod txn;

pub use activity::{hamming, ActivityMonitor, ProbeId, SignalActivity};
pub use attribution::{AttributionRow, AttributionTable};
pub use characterize::{
    fit_ahb_power_model, fit_arbiter_model, fit_decoder_model, fit_mux_model, ModelValidation,
    ValidationPoint,
};
pub use config::AnalysisConfig;
pub use dpm::{ClockGatePolicy, DpmProbe, DpmReport};
pub use estimate::{estimate_cycle_energy, estimate_power, TrafficStats};
pub use instruction::{classify_mode, ActivityMode, Instruction, INSTRUCTION_COUNT};
pub use ledger::{fmt_energy, BlockLedger, InstructionLedger, InstructionRow};
pub use macromodel::{
    ceil_log2, fit_linear, ArbiterModel, BlockEnergy, DecoderModel, LinearFit, MuxModel, TechParams,
};
pub use model::{AhbPowerModel, SubBlock, ADDR_BITS, CTRL_BITS, RDATA_BITS, RESP_BITS, WDATA_BITS};
pub use power_fsm::{CycleRecord, PowerFsm};
pub use probe::{FsmProbe, GlobalProbe, InlineProbe, PowerProbe};
pub use replay::{
    ActivityRecorder, ActivityTrace, ReplayEngine, ReplayOutcome, TraceError, REPLAY_LANES,
    REPLAY_TRACE_VERSION,
};
pub use sc::{run_on_kernel, run_on_kernel_profiled, KernelRun};
pub use session::PowerSession;
pub use sram::{SramLedger, SramMode, SramModel, SramProbe};
pub use trace::{PowerTrace, TracePoint};
pub use txn::{TxnRecord, TxnTracer, TxnTracerConfig, DEFAULT_RING_CAPACITY};
