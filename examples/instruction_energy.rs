//! The paper's headline experiment in miniature: run the DATE'03 testbench
//! (two WRITE-READ masters + default master, three slaves) under the power
//! FSM and print the instruction energy analysis and sub-block shares.
//!
//! ```text
//! cargo run --release --example instruction_energy [cycles]
//! ```

use ahbpower::{report, AnalysisConfig, PowerSession};
use ahbpower_workloads::PaperTestbench;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cycles: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(100_000);
    let cfg = AnalysisConfig::paper_testbench();
    let tb = PaperTestbench::sized_for(cycles, cfg.seed);
    let mut bus = tb.build()?;
    let mut session = PowerSession::new(&cfg);
    session.run(&mut bus, cycles);
    session.finish_trace();

    println!(
        "paper testbench: {cycles} cycles at 100 MHz = {:.1} us simulated",
        cycles as f64 / cfg.f_clk_hz * 1e6
    );
    println!(
        "transfers OK: {}, handovers: {}, errors: {}\n",
        bus.stats().transfers_ok,
        bus.stats().handovers,
        bus.stats().errors
    );
    println!("== instruction energy analysis (paper Table 1) ==");
    print!("{}", report::table1_text(session.ledger()));
    println!("\n== sub-block contributions (paper Fig. 6) ==");
    print!("{}", session.blocks());
    println!(
        "\naverage bus power: {:.3} mW, peak (200 ns windows): {:.3} mW",
        session.trace().average_power() * 1e3,
        session.trace().peak_power() * 1e3
    );
    Ok(())
}
