//! Result bookkeeping: correctness checks, metric tables, the
//! environment stamp and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Summary;

/// End-to-end metrics: every workload reports each of them, measured
/// with tracing off. `(name, unit)`.
pub const E2E_METRICS: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sim_ns_per_cycle", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them; a layer
/// the workload does not exercise reads 0. `(name, unit)`.
pub const LAYER_METRICS: [(&str, &str); 51] = [
    ("workloads.build_ms", "ms"),
    ("workloads.slice_build_us", "us"),
    ("ahb.step_ns", "ns"),
    ("ahb.functional_ns_per_cycle", "ns"),
    ("ahb.transfers_ok", "count"),
    ("ahb.wait_cycles", "count"),
    ("ahb.handovers", "count"),
    ("ahb.idle_cycles", "count"),
    ("power_fsm.observe_ns", "ns"),
    ("power.instr_ratio", "ratio"),
    ("trace.push_ns", "ns"),
    ("trace.points", "count"),
    ("session.glue_ns", "ns"),
    ("telemetry.observe_bus_ns", "ns"),
    ("telemetry.observe_power_ns", "ns"),
    ("telemetry.slice_us", "us"),
    ("events.drain_ns_per_event", "ns"),
    ("events.published", "count"),
    ("events.dropped", "count"),
    ("anomaly.windows", "count"),
    ("observatory.windows", "count"),
    ("replay.record_ns", "ns"),
    ("replay.encode_ms", "ms"),
    ("replay.trace_bytes_per_cycle", "B/cycle"),
    ("replay.decode_ms", "ms"),
    ("replay.ns_per_variant_cycle", "ns"),
    ("sweep.busy_frac", "frac"),
    ("sweep.idle_ms", "ms"),
    ("http.p50_ms", "ms"),
    ("http.p99_ms", "ms"),
    ("http.healthz.p50_ms", "ms"),
    ("http.healthz.p99_ms", "ms"),
    ("http.status.p50_ms", "ms"),
    ("http.status.p99_ms", "ms"),
    ("http.metrics.p50_ms", "ms"),
    ("http.metrics.p99_ms", "ms"),
    ("http.query.p50_ms", "ms"),
    ("http.query.p99_ms", "ms"),
    ("http.events.p50_ms", "ms"),
    ("http.events.p99_ms", "ms"),
    ("http.connect_p99_ms", "ms"),
    ("http.ttfb_p50_ms", "ms"),
    ("http.body_p50_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("serve.stage_publish_p50_us", "us"),
    ("serve.stage_render_p50_us", "us"),
    ("serve.stage_sim_p50_us", "us"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("tracing.empty_span_ns", "ns"),
    ("tracing.overhead_pct", "%"),
];

/// Everything one benchmark run measured and checked.
pub struct Run {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool, String)>,
    values: BTreeMap<&'static str, f64>,
    summaries: BTreeMap<&'static str, Summary>,
    notes: Vec<String>,
}

impl Run {
    pub fn new() -> Self {
        Run {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values: BTreeMap::new(),
            summaries: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one timed operation; `ok` is whether its check passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records a correctness check. A failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Records that a check, fed a deliberately perturbed input, tripped
    /// (`tripped`): a check that cannot fail proves nothing, so one that
    /// stays silent on the mutant fails the run.
    pub fn must_trip(&mut self, name: &str, tripped: bool) {
        let detail = if tripped {
            "tripped on the scaled-block mutant"
        } else {
            "did NOT trip on the scaled-block mutant"
        };
        self.check(&format!("mutant:{name}"), tripped, detail);
    }

    /// Sets a metric's reported value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a metric from a sample summary: reports `value`, and keeps
    /// the summary for the human-readable table.
    pub fn set_summary(&mut self, name: &'static str, value: f64, s: Summary) {
        self.values.insert(name, value);
        self.summaries.insert(name, s);
    }

    /// A free-form line printed with the results (fingerprints, warnings).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && !self.checks.is_empty()
    }

    /// Prints the checks, the metric table and, last, the JSON result
    /// line. `traced` selects the per-layer set over the end-to-end set.
    pub fn print(&self, traced: bool) {
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAIL" };
            println!("check {name}: {verdict} ({detail})");
        }
        for line in &self.notes {
            println!("{line}");
        }
        let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_frac = {error_frac} (failed {} of {} operations)",
            self.failed, self.attempted
        );
        let set: &[(&str, &str)] = if traced { &LAYER_METRICS } else { &E2E_METRICS };
        let mut json = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            match self.summaries.get(name) {
                Some(s) => println!("metric {name} = {value} {unit} ({})", describe(s)),
                None => println!("metric {name} = {value} {unit}"),
            }
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                jnum(value)
            );
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// A sample summary as printed beside a metric.
pub fn describe(s: &Summary) -> String {
    format!(
        "min {} p5 {} q1 {} median {} q3 {} p90 {} p99 {} n {}",
        s.min, s.p5, s.q1, s.median, s.q3, s.p90, s.p99, s.n
    )
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The process's resident-memory high-water mark, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line naming the machine, toolchain and code a result came from.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "env nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{refname}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(refname)
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
