//! `serve_live`: the in-process serve plane (2 shards, mixed scenarios)
//! simulating a fixed budget of slices while an open-loop scraper reads
//! every endpoint family over HTTP.
//!
//! The scraper sends on a fixed schedule from the instance's main thread,
//! one connection at a time, so it adds a single thread to the two
//! shards: at most the core count of any machine. Each
//! request is timed from the moment it was due, so a stalled server also
//! charges the requests queued behind the stall; a request that fails or
//! is shed counts as reaching the latency limit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use ahbpower::{AnalysisConfig, PowerSession};
use ahbpower_bench::{
    build_paper_bus, parse_json, serve, validate_json, JsonValue, ScenarioMix, ServeConfig,
    ServerHandle, SHARD_SEED_STRIDE,
};
use ahbpower_workloads::{PaperTestbench, SocScenario};

use crate::report::{describe, peak_rss_mb, Run};
use crate::sim::{soc_bus, Counts, MUTANT, SETUP_REPEATS, SLICE_CYCLES};
use crate::stats::{median, summarize, Summary};

/// Worker shards.
pub const SHARDS: usize = 2;
/// Slices each shard simulates per server instance.
pub const BUDGET_SLICES: u64 = 300;
/// Offered request rate, requests per second.
/// At 200 req/s the scraper's own work spread instance wall times twice
/// as wide (interquartile range 0.2 of the median against 0.1).
pub const RATE_PER_S: f64 = 100.0;
/// A failed or shed request counts as taking this long.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Socket timeout of one request.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Endpoint families, scraped in equal shares.
const FAMILIES: [(&str, &str); 5] = [
    ("healthz", "/healthz"),
    ("status", "/status"),
    ("metrics", "/metrics"),
    ("query", "/query?series=energy&step=10"),
    ("events", "/events?since=0&max=64"),
];

/// The workload parameters, for the result stamp.
pub fn params() -> String {
    format!(
        "shards={SHARDS} mix=mixed slice_cycles={SLICE_CYCLES} budget_slices_per_shard={BUDGET_SLICES} rate_per_s={RATE_PER_S} client_threads=1 latency_limit_ms={LATENCY_LIMIT_MS} loop=open warmup_instances=1"
    )
}

fn config(seed: u64, budget: u64) -> ServeConfig {
    ServeConfig {
        mix: ScenarioMix::Mixed,
        seed,
        max_slices: Some(budget),
        shards: SHARDS,
        results_dir: None,
        ..ServeConfig::default()
    }
}

/// One HTTP exchange, split into its phases.
struct Fetched {
    status: u16,
    body: String,
    connect_ns: f64,
    ttfb_ns: f64,
    body_ns: f64,
}

fn fetch(addr: SocketAddr, path: &str) -> Result<Fetched, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let io = |e: std::io::Error| e.to_string();
    stream.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut raw = Vec::with_capacity(8192);
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk).map_err(io)?;
    if n == 0 {
        return Err("connection closed before any response byte".to_string());
    }
    let t2 = Instant::now();
    raw.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut raw).map_err(io)?;
    let t3 = Instant::now();
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let status = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or("unparseable status line")?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or_else(String::new, |(_, b)| b.to_string());
    Ok(Fetched {
        status,
        body,
        connect_ns: (t1 - t0).as_nanos() as f64,
        ttfb_ns: (t2 - t1).as_nanos() as f64,
        body_ns: (t3 - t2).as_nanos() as f64,
    })
}

/// Whether a `/metrics` body is Prometheus text: `# HELP`/`# TYPE`
/// comments and `name[{labels}] value` samples with numeric values.
fn prometheus_ok(body: &str) -> bool {
    let mut samples = 0;
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let Some((_, value)) = line.rsplit_once(' ') else {
            return false;
        };
        if value.parse::<f64>().is_err() && !["NaN", "+Inf", "-Inf"].contains(&value) {
            return false;
        }
        samples += 1;
    }
    samples > 0
}

/// Whether `body` is a valid response of endpoint family `family`.
fn body_ok(family: usize, body: &str) -> bool {
    if FAMILIES[family].0 == "metrics" {
        prometheus_ok(body)
    } else {
        validate_json(body).is_ok()
    }
}

/// One scraped request.
struct Sample {
    family: usize,
    lag_ms: f64,
    latency_ms: f64,
    connect_ms: f64,
    ttfb_ms: f64,
    body_ms: f64,
    ok: bool,
    /// A 200 whose body did not validate.
    bad_body: bool,
}

/// One server instance run to its slice budget under the scraper.
struct Instance {
    setup_s: f64,
    wall_ns: f64,
    samples: Vec<Sample>,
    status: JsonValue,
    merged_query_ok: bool,
    merged_query_detail: String,
    energy_j: f64,
    shed: u64,
    cycles: u64,
}

/// Starts a server and waits for `/healthz` to answer; returns the
/// handle and the seconds from `t` (bind) to the first good answer.
fn start_server(seed: u64, budget: u64, t: Instant) -> (ServerHandle, f64) {
    let handle = serve(config(seed, budget)).expect("the serve plane binds a local port");
    let addr = handle.addr();
    loop {
        if matches!(fetch(addr, "/healthz"), Ok(f) if f.status == 200) {
            return (handle, t.elapsed().as_secs_f64());
        }
        assert!(
            t.elapsed() < Duration::from_secs(60),
            "/healthz never answered"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

/// One set-up: a server with an empty budget, from bind (timed from
/// `t`) until `/healthz` answers; then shut down. Returns the seconds.
fn setup_once(seed: u64, t: Instant) -> f64 {
    let (handle, s) = start_server(seed, 0, t);
    handle.wait().expect("the serve plane shuts down cleanly");
    s
}

/// Total energy of a `/query` answer's buckets.
fn query_energy(addr: SocketAddr, path: &str) -> Option<f64> {
    let f = fetch(addr, path).ok().filter(|f| f.status == 200)?;
    let doc = parse_json(&f.body).ok()?;
    Some(
        doc.get("points")?
            .as_array()?
            .iter()
            .filter_map(|p| p.get("sum").and_then(JsonValue::as_f64))
            .sum(),
    )
}

/// Merged `/query` energy against the sum of the per-shard answers, to
/// 1e-9 relative.
fn merged_query_check(addr: SocketAddr) -> (bool, String) {
    let merged = query_energy(addr, "/query?series=energy&step=1");
    let shards: Option<f64> = (0..SHARDS)
        .map(|k| query_energy(addr, &format!("/query?series=energy&step=1&shard={k}")))
        .sum();
    match (merged, shards) {
        (Some(m), Some(s)) => {
            let ok = m > 0.0 && (m - s).abs() <= 1e-9 * m.abs();
            (ok, format!("merged {m:e} J vs per-shard sum {s:e} J"))
        }
        _ => (
            false,
            "a /query answer was missing or malformed".to_string(),
        ),
    }
}

/// The scraper: sends request `i` at `t0 + i / RATE_PER_S` until the
/// budget is seen complete on `/status`. Returns the samples and the
/// moment the completion was seen.
fn scrape(addr: SocketAddr, t0: Instant) -> (Vec<Sample>, Instant) {
    let target = SHARDS as u64 * BUDGET_SLICES;
    let mut samples = Vec::new();
    for i in 0.. {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE_PER_S);
        let now = Instant::now();
        if now < due {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let family = i % FAMILIES.len();
        let result = fetch(addr, FAMILIES[family].1);
        let end = Instant::now();
        let ms = |d: Duration| d.as_nanos() as f64 / 1e6;
        let mut sample = Sample {
            family,
            lag_ms: ms(sent - due),
            latency_ms: ms(end - due),
            connect_ms: 0.0,
            ttfb_ms: 0.0,
            body_ms: 0.0,
            ok: false,
            bad_body: false,
        };
        let mut complete = false;
        if let Ok(f) = &result {
            sample.connect_ms = f.connect_ns / 1e6;
            sample.ttfb_ms = f.ttfb_ns / 1e6;
            sample.body_ms = f.body_ns / 1e6;
            let valid = body_ok(family, &f.body);
            sample.ok = f.status == 200 && valid;
            sample.bad_body = f.status == 200 && !valid;
            if sample.ok && FAMILIES[family].0 == "status" {
                let slices = parse_json(&f.body)
                    .ok()
                    .and_then(|d| d.get("slices").and_then(JsonValue::as_u64));
                complete = slices.is_some_and(|s| s >= target);
            }
        }
        if !sample.ok {
            sample.latency_ms = sample.latency_ms.max(LATENCY_LIMIT_MS);
        }
        samples.push(sample);
        if complete {
            return (samples, end);
        }
        assert!(
            t0.elapsed() < Duration::from_secs(150),
            "the slice budget did not complete"
        );
    }
    unreachable!("the request counter is unbounded")
}

fn run_instance(seed: u64) -> Instance {
    let (handle, setup_s) = start_server(seed, BUDGET_SLICES, Instant::now());
    let addr = handle.addr();
    let t0 = Instant::now();
    let (samples, finished) = scrape(addr, t0);
    let wall_ns = (finished - t0).as_nanos() as f64;
    let status = fetch(addr, "/status")
        .ok()
        .and_then(|f| parse_json(&f.body).ok())
        .unwrap_or(JsonValue::Null);
    let (merged_query_ok, merged_query_detail) = merged_query_check(addr);
    let summary = handle.wait().expect("the serve plane shuts down cleanly");
    Instance {
        setup_s,
        wall_ns,
        samples,
        status,
        merged_query_ok,
        merged_query_detail,
        energy_j: summary.total_energy_j,
        shed: summary.shed,
        cycles: summary.cycles,
    }
}

impl Instance {
    /// The instance's figures as one JSON line: the child process's
    /// whole report to the benchmark.
    fn to_json(&self) -> String {
        let mut num: Vec<(String, f64)> = Vec::new();
        let mut put = |k: &str, v: f64| num.push((k.to_string(), v));
        let all = |f: &dyn Fn(&Sample) -> Option<f64>| {
            summarize(&self.samples.iter().filter_map(f).collect::<Vec<_>>())
        };
        let ok = |s: &Sample, v: f64| s.ok.then_some(v);
        put("setup_s", self.setup_s);
        put("wall_ns", self.wall_ns);
        put("cycles", self.cycles as f64);
        put("shed", self.shed as f64);
        put("requests", self.samples.len() as f64);
        put(
            "failed",
            self.samples.iter().filter(|s| !s.ok).count() as f64,
        );
        put(
            "bad_bodies",
            self.samples.iter().filter(|s| s.bad_body).count() as f64,
        );
        put("lag_p99_ms", all(&|s| Some(s.lag_ms)).p99);
        put("connect_p99_ms", all(&|s| ok(s, s.connect_ms)).p99);
        put("ttfb_p50_ms", all(&|s| ok(s, s.ttfb_ms)).median);
        put("body_p50_ms", all(&|s| ok(s, s.body_ms)).median);
        for (family, (name, _)) in FAMILIES.iter().enumerate() {
            let l = all(&|s| (s.family == family).then_some(s.latency_ms));
            put(&format!("{name}.p50_ms"), l.median);
            put(&format!("{name}.p99_ms"), l.p99);
        }
        for (key, path) in STATUS_FIGURES {
            put(key, status_f64(&self.status, path));
        }
        put("peak_rss_mb", peak_rss_mb());
        let mut out = format!(
            "{{\"energy_bits\":\"{:x}\",\"merged_query_ok\":{},\"merged_query_detail\":\"{}\"",
            self.energy_j.to_bits(),
            self.merged_query_ok,
            self.merged_query_detail
        );
        for (k, v) in num {
            out.push_str(&format!(",\"{k}\":{}", if v.is_finite() { v } else { 0.0 }));
        }
        let latencies: Vec<String> = self
            .samples
            .iter()
            .map(|s| s.latency_ms.to_string())
            .collect();
        out.push_str(&format!(",\"latencies_ms\":[{}]}}", latencies.join(",")));
        out
    }
}

/// A number at `path` in a `/status` document (0 when absent).
fn status_f64(status: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(status, |v, key| v.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Figures read from an instance's final `/status`: `(key, path)`.
const STATUS_FIGURES: [(&str, &[&str]); 8] = [
    ("stage_publish_p50_us", &["stages", "publish_us", "p50"]),
    ("stage_render_p50_us", &["stages", "render_us", "p50"]),
    ("stage_sim_p50_us", &["stages", "sim_us", "p50"]),
    ("trace_points", &["window_power_uw", "windows"]),
    ("events_published", &["events", "published"]),
    ("events_dropped", &["events", "dropped"]),
    ("anomaly_windows", &["anomalies", "windows"]),
    ("observatory_windows", &["observatory", "windows"]),
];

/// Runs one server instance in this process and prints its figures as
/// one JSON line. The benchmark starts each instance as a child process
/// of its own, so every instance begins from a fresh heap, as a newly
/// started `repro serve` does.
pub fn instance_main(seed: u64) {
    println!("{}", run_instance(seed).to_json());
}

/// One instance's figures, as reported by its child process.
struct Figures {
    doc: JsonValue,
    energy_bits: u64,
}

impl Figures {
    fn get(&self, key: &str) -> f64 {
        self.doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
    }

    /// Every request's latency from its due time, ms.
    fn latencies(&self) -> Vec<f64> {
        self.doc
            .get("latencies_ms")
            .and_then(JsonValue::as_array)
            .map_or_else(Vec::new, |a| {
                a.iter().filter_map(JsonValue::as_f64).collect()
            })
    }

    fn merged_query(&self) -> (bool, String) {
        (
            self.doc
                .get("merged_query_ok")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            self.doc
                .get("merged_query_detail")
                .and_then(JsonValue::as_str)
                .unwrap_or("missing")
                .to_string(),
        )
    }
}

/// Runs one instance in a child process of this executable and waits
/// for it.
fn spawn_instance(seed: u64) -> Figures {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let out = Command::new(exe)
        .args(["--serve-instance", "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .expect("the instance process starts");
    assert!(
        out.status.success(),
        "the instance process failed: {}",
        out.status
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let doc = parse_json(line).expect("the instance reports one JSON line");
    let energy_bits = doc
        .get("energy_bits")
        .and_then(JsonValue::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .expect("the instance reports its energy bits");
    Figures { doc, energy_bits }
}

/// The shards' total energy recomputed locally with telemetry-off
/// sessions over the same slices, plus the same total with one sub-block
/// scaled in the very last slice (the mutant).
struct Local {
    energy_j: f64,
    mutant_j: f64,
    counts: Counts,
    build_us: Vec<f64>,
}

fn local_recompute(seed: u64) -> Local {
    let mut local = Local {
        energy_j: 0.0,
        mutant_j: 0.0,
        counts: Counts::default(),
        build_us: Vec::new(),
    };
    let acfg = |shard_seed| AnalysisConfig {
        n_masters: PaperTestbench::N_MASTERS.max(SocScenario::N_MASTERS),
        n_slaves: PaperTestbench::N_SLAVES.max(SocScenario::N_SLAVES),
        seed: shard_seed,
        ..AnalysisConfig::paper_testbench()
    };
    let build = |label_slice: u64, seed: u64| {
        if label_slice.is_multiple_of(2) {
            build_paper_bus(SLICE_CYCLES, seed)
        } else {
            soc_bus(SLICE_CYCLES, seed)
        }
    };
    for shard in 0..SHARDS as u64 {
        let shard_seed = seed + shard * SHARD_SEED_STRIDE;
        let mut session = PowerSession::new(&acfg(shard_seed));
        let mut mutant = None;
        for slice in 0..BUDGET_SLICES {
            let t = Instant::now();
            let mut bus = build(slice + shard, shard_seed + slice);
            local.build_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            if shard + 1 == SHARDS as u64 && slice + 1 == BUDGET_SLICES {
                let mut m = session.clone();
                m.scale_model_block(MUTANT.0, MUTANT.1);
                m.run(&mut build(slice + shard, shard_seed + slice), SLICE_CYCLES);
                mutant = Some(m.total_energy());
            }
            session.run(&mut bus, SLICE_CYCLES);
            local.counts.add(bus.stats());
        }
        local.mutant_j = local.energy_j + mutant.unwrap_or(session.total_energy());
        local.energy_j += session.total_energy();
    }
    local
}

/// Everything a `serve_live` run measured.
pub struct Collected {
    /// Every instance run, the warm-up first.
    instances: Vec<Figures>,
    setup_s: Vec<f64>,
    local: Local,
}

impl Collected {
    /// The instances that are measured: all but the warm-up. The first
    /// instance after a pause often ran 10-50% slower than the rest.
    fn timed(&self) -> &[Figures] {
        &self.instances[1..]
    }

    /// Every request's latency from its due time, pooled over instances.
    fn latency(&self) -> Summary {
        summarize(
            &self
                .timed()
                .iter()
                .flat_map(Figures::latencies)
                .collect::<Vec<_>>(),
        )
    }

    /// The median over instances of one figure.
    fn median(&self, key: &str) -> f64 {
        median(&self.timed().iter().map(|i| i.get(key)).collect::<Vec<_>>())
    }
}

fn collect(run: &mut Run, seed: u64, seconds: u64, start_t: Instant) -> Collected {
    let setup_s: Vec<f64> = (0..SETUP_REPEATS)
        .map(|i| setup_once(seed, if i == 0 { start_t } else { Instant::now() }))
        .collect();
    // Each instance runs the fixed budget; after the warm-up and at least
    // one timed instance, start another while one more fits in the run's
    // seconds.
    let t0 = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut instances = Vec::new();
    let mut longest = Duration::ZERO;
    while instances.len() < 2 || t0.elapsed() + longest <= budget {
        let t = Instant::now();
        instances.push(spawn_instance(seed));
        longest = longest.max(t.elapsed());
    }
    let local = local_recompute(seed);
    let sum = |key: &str| instances.iter().map(|i| i.get(key)).sum::<f64>();
    let (requests, failed, bad_bodies) = (sum("requests"), sum("failed"), sum("bad_bodies"));
    run.ops(requests as u64, failed as u64);
    run.check(
        "bodies_valid",
        bad_bodies == 0.0,
        format!(
            "{bad_bodies} of {requests} answered bodies failed validation (JSON, or Prometheus text for /metrics)"
        ),
    );
    for (k, inst) in instances.iter().enumerate() {
        let (ok, detail) = inst.merged_query();
        run.check(&format!("merged_query_{k}"), ok, detail);
    }
    let expected = local.energy_j.to_bits();
    run.check(
        "energy_equals_local",
        instances.iter().all(|i| i.energy_bits == expected),
        format!(
            "{} instances booked {:e} J; telemetry-off sessions over the same slices book {:e} J",
            instances.len(),
            f64::from_bits(instances[0].energy_bits),
            local.energy_j
        ),
    );
    run.must_trip(
        "energy_equals_local",
        local.mutant_j.to_bits() != instances[0].energy_bits,
    );
    let cycles = (SHARDS as u64 * BUDGET_SLICES * SLICE_CYCLES) as f64;
    run.check(
        "budget_complete",
        instances.iter().all(|i| i.get("cycles") == cycles),
        format!("every instance simulated {cycles} cycles"),
    );
    crate::sim::fingerprint(run, "serve_live", local.energy_j, &local.counts);
    let interval_ms = 1e3 / RATE_PER_S;
    for (k, inst) in instances.iter().enumerate() {
        let lag = inst.get("lag_p99_ms");
        if lag > interval_ms / 2.0 {
            let line = format!(
                "WARNING: the load generator ran late in instance {k}: lag p99 {lag:.3} ms against a {interval_ms:.1} ms send interval"
            );
            eprintln!("{line}");
            run.note(line);
        }
    }
    Collected {
        instances,
        setup_s,
        local,
    }
}

/// `serve_live`, tracing off.
pub fn serve_live(run: &mut Run, seed: u64, seconds: u64, start: Instant) {
    let c = collect(run, seed, seconds, start);
    let s = summarize(&c.setup_s);
    run.set_summary("setup_s", s.median, s);
    let cycles = (SHARDS as u64 * BUDGET_SLICES * SLICE_CYCLES) as f64;
    let over_instances =
        |f: &dyn Fn(&Figures) -> f64| summarize(&c.timed().iter().map(f).collect::<Vec<_>>());
    let s = over_instances(&|i| i.get("wall_ns") / cycles);
    run.set_summary("sim_ns_per_cycle", s.median, s);
    let s = over_instances(&|i| i.get("peak_rss_mb"));
    run.set_summary("peak_rss_mb", s.median, s);
    run.note(format!(
        "op latency ms, requests from their due time ({})",
        describe(&c.latency())
    ));
}

/// Per-layer figures of the serve plane itself, read as medians over
/// instances: `(metric, instance key)`.
const PLANE_FIGURES: [(&str, &str); 19] = [
    ("http.healthz.p50_ms", "healthz.p50_ms"),
    ("http.healthz.p99_ms", "healthz.p99_ms"),
    ("http.status.p50_ms", "status.p50_ms"),
    ("http.status.p99_ms", "status.p99_ms"),
    ("http.metrics.p50_ms", "metrics.p50_ms"),
    ("http.metrics.p99_ms", "metrics.p99_ms"),
    ("http.query.p50_ms", "query.p50_ms"),
    ("http.query.p99_ms", "query.p99_ms"),
    ("http.events.p50_ms", "events.p50_ms"),
    ("http.events.p99_ms", "events.p99_ms"),
    ("http.connect_p99_ms", "connect_p99_ms"),
    ("http.ttfb_p50_ms", "ttfb_p50_ms"),
    ("http.body_p50_ms", "body_p50_ms"),
    ("loadgen.lag_p99_ms", "lag_p99_ms"),
    ("serve.stage_publish_p50_us", "stage_publish_p50_us"),
    ("serve.stage_render_p50_us", "stage_render_p50_us"),
    ("serve.stage_sim_p50_us", "stage_sim_p50_us"),
    ("serve.shed", "shed"),
    ("serve.errors", "failed"),
];

/// Per-layer figures of the shards behind the plane, as `/status`
/// reports them: `(metric, instance key)`.
const SHARD_FIGURES: [(&str, &str); 5] = [
    ("trace.points", "trace_points"),
    ("events.published", "events_published"),
    ("events.dropped", "events_dropped"),
    ("anomaly.windows", "anomaly_windows"),
    ("observatory.windows", "observatory_windows"),
];

/// Runs instances for `seconds`, checks them, and reports the serve
/// plane's layers (`http.*`, `loadgen.*`, `serve.*`) from the client's
/// phase timings and each instance's final `/status`. `serve_live` is
/// not timed by the benchmark, so `soc_observed`'s traced run, whose
/// shard loop is the one each serve shard runs, calls this to report
/// the plane around it.
pub fn plane_layers(run: &mut Run, seed: u64, seconds: u64) -> Collected {
    let c = collect(run, seed, seconds, Instant::now());
    for (metric, key) in PLANE_FIGURES {
        run.set(metric, c.median(key));
    }
    let latency = c.latency();
    run.set_summary("http.p50_ms", latency.median, latency);
    run.set_summary("http.p99_ms", latency.p99, latency);
    c
}

/// `serve_live`, traced: the same instances, reported per layer from the
/// client's phase timings and each instance's final `/status`, as
/// medians over instances.
pub fn serve_live_traced(run: &mut Run, seed: u64, seconds: u64) {
    let c = plane_layers(run, seed, seconds);
    for (metric, key) in SHARD_FIGURES {
        run.set(metric, c.median(key));
    }
    run.set("workloads.slice_build_us", median(&c.local.build_us));
    c.local.counts.report(run);
}
