//! The power-analysis stack's benchmark: workloads from the paper's
//! Table 1 testbench up to the live serve plane, each checked for
//! correct output, reported end to end with tracing off (`--trace 0`)
//! or as a per-layer ledger from a separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_table1 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `BENCHMARK.json` times `paper_table1`, `soc_observed` and
//! `variant_sweep`, each of which keeps one simulation thread busy.
//! `serve_live` runs two shards, an HTTP pool and a scraper on the same
//! cores, and its wall time drifts with the host by more than a gate can
//! take, so it is run by hand; the traced run of `soc_observed` reports
//! the serve plane's layers in its stead.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it give each
//! metric's quantiles and sample count, the output fingerprint and the
//! environment. The process exits 1 when a correctness check fails and
//! 2 on a usage error. `serve_live` re-runs this executable with
//! `--serve-instance --seed N` to host each server instance in a fresh
//! process.

mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::Instant;

use report::Run;

const WORKLOADS: [&str; 4] = [
    "paper_table1",
    "soc_observed",
    "variant_sweep",
    "serve_live",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(35),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, seed_flag, seed] = argv.as_slice() {
        if flag == "--serve-instance" && seed_flag == "--seed" {
            if let Ok(seed) = seed.parse() {
                serve::instance_main(seed);
                return ExitCode::SUCCESS;
            }
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", report::environment());
    let params = match args.workload.as_str() {
        "paper_table1" => sim::paper_params(),
        "soc_observed" => sim::soc_params(),
        "variant_sweep" => sweep::params(),
        _ => serve::params(),
    };
    println!(
        "params workload={} seed={} seconds={} trace={} setup_repeats={} {params}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sim::SETUP_REPEATS
    );
    let mut run = Run::new();
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("paper_table1", false) => sim::paper_table1(&mut run, seed, secs, start),
        ("paper_table1", true) => sim::paper_table1_traced(&mut run, seed, secs),
        ("soc_observed", false) => sim::soc_observed(&mut run, seed, secs, start),
        ("soc_observed", true) => {
            sim::soc_observed_traced(&mut run, seed, secs - secs / 2);
            serve::plane_layers(&mut run, seed, secs / 2);
        }
        ("variant_sweep", false) => sweep::variant_sweep(&mut run, seed, secs, start),
        ("variant_sweep", true) => sweep::variant_sweep_traced(&mut run, seed, secs),
        (_, false) => serve::serve_live(&mut run, seed, secs, start),
        (_, true) => serve::serve_live_traced(&mut run, seed, secs),
    }
    run.print(args.trace);
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
