//! End-to-end tests for the sharded serving plane: N worker shards
//! behind one thread-pool HTTP server, merged `/events`, `/query`,
//! `/status`, `/healthz` and `/metrics` with `?shard=` drill-down,
//! connection-limit load shedding, and the in-process load generator.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use ahbpower::telemetry::AnomalyConfig;
use ahbpower_bench::{
    http_get, loadgen_report_json, parse_json, run_loadgen, serve, validate_json, HttpResponse,
    JsonValue, LoadgenConfig, ScenarioMix, ServeConfig, ServeError, ServerHandle,
    SHARD_SEED_STRIDE,
};

const TIMEOUT: Duration = Duration::from_secs(10);

fn sharded_config(shards: usize, max_slices: u64) -> ServeConfig {
    ServeConfig {
        mix: ScenarioMix::Paper,
        slice_cycles: 5_000,
        seed: 2003,
        max_slices: Some(max_slices),
        anomaly: AnomalyConfig::default().with_warmup_windows(4),
        shards,
        ..ServeConfig::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ahb_sharded_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls merged `/status` until every shard drained its slice budget.
fn wait_for_slices(addr: &str, want: u64) -> JsonValue {
    for _ in 0..400 {
        let status = http_get(addr, "/status", TIMEOUT).expect("status");
        let doc = parse_json(&status.body).expect("status parses");
        if doc.get("slices").and_then(JsonValue::as_u64) == Some(want) {
            return doc;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("shards never completed {want} slices");
}

fn energy_total(addr: &str, path: &str) -> f64 {
    let resp = http_get(addr, path, TIMEOUT).expect("query");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    validate_json(&resp.body).expect("query JSON validates");
    let doc = parse_json(&resp.body).expect("query parses");
    doc.get("points")
        .and_then(JsonValue::as_array)
        .expect("points")
        .iter()
        .map(|p| p.get("sum").and_then(JsonValue::as_f64).expect("sum"))
        .sum()
}

#[test]
fn merged_plane_aggregates_and_drills_down() {
    let dir = tmp_dir("plane");
    let cfg = ServeConfig {
        results_dir: Some(dir.clone()),
        ..sharded_config(2, 3)
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let doc = wait_for_slices(&addr, 6);

    // Merged /status: plane-level fields plus per-shard detail.
    assert_eq!(doc.get("shards").and_then(JsonValue::as_u64), Some(2));
    let merged_energy = doc
        .get("total_energy_j")
        .and_then(JsonValue::as_f64)
        .expect("total_energy_j");
    assert!(merged_energy > 0.0);
    let detail = doc
        .get("shard_detail")
        .and_then(JsonValue::as_array)
        .expect("shard_detail");
    assert_eq!(detail.len(), 2);
    let detail_sum: f64 = detail
        .iter()
        .map(|d| {
            d.get("total_energy_j")
                .and_then(JsonValue::as_f64)
                .expect("shard energy")
        })
        .sum();
    assert!(
        (merged_energy - detail_sum).abs() <= 1e-9 * merged_energy,
        "status energy {merged_energy} != shard detail sum {detail_sum}"
    );
    // Seed rotation: shard k runs at seed + k * stride, and the two
    // shards genuinely simulated different traffic.
    let seeds: Vec<u64> = detail
        .iter()
        .map(|d| d.get("seed").and_then(JsonValue::as_u64).expect("seed"))
        .collect();
    assert_eq!(seeds, vec![2003, 2003 + SHARD_SEED_STRIDE]);
    let energies: Vec<f64> = detail
        .iter()
        .map(|d| d.get("total_energy_j").and_then(JsonValue::as_f64).unwrap())
        .collect();
    assert_ne!(
        energies[0].to_bits(),
        energies[1].to_bits(),
        "different seed lanes must produce different energy"
    );

    // Per-shard /status drill-down: the same document over one shard.
    for k in 0..2u64 {
        let resp = http_get(&addr, &format!("/status?shard={k}"), TIMEOUT).expect("shard status");
        assert_eq!(resp.status, 200);
        let sdoc = parse_json(&resp.body).expect("shard status parses");
        assert_eq!(sdoc.get("shards").and_then(JsonValue::as_u64), Some(1));
        let detail = sdoc
            .get("shard_detail")
            .and_then(JsonValue::as_array)
            .expect("shard_detail");
        assert_eq!(detail.len(), 1);
        assert_eq!(detail[0].get("shard").and_then(JsonValue::as_u64), Some(k));
        assert_eq!(
            sdoc.get("seed").and_then(JsonValue::as_u64),
            Some(2003 + k * SHARD_SEED_STRIDE)
        );
        assert_eq!(sdoc.get("slices").and_then(JsonValue::as_u64), Some(3));
    }
    let bad = http_get(&addr, "/status?shard=2", TIMEOUT).expect("bad shard");
    assert_eq!(bad.status, 400);

    // ACCEPTANCE: merged /query energy equals the sum of the per-shard
    // observatory totals to 1e-9, end-to-end over HTTP, at every level.
    for step in [1u64, 10, 100] {
        let merged = energy_total(&addr, &format!("/query?series=energy&step={step}"));
        let per_shard: f64 = (0..2)
            .map(|k| {
                energy_total(
                    &addr,
                    &format!("/query?series=energy&step={step}&shard={k}"),
                )
            })
            .sum();
        assert!(merged > 0.0, "step {step} returned energy");
        assert!(
            (merged - per_shard).abs() <= 1e-9 * merged.abs(),
            "step {step}: merged {merged} != per-shard sum {per_shard}"
        );
    }
    // The /query totals agree with the /status aggregate as well.
    let q = energy_total(&addr, "/query?series=energy&step=1");
    assert!(
        (q - merged_energy).abs() <= 1e-9 * merged_energy,
        "query {q} vs status {merged_energy}"
    );

    // Merged /healthz names the plane; drill-down answers per shard.
    let health = http_get(&addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    let hdoc = parse_json(&health.body).expect("healthz parses");
    assert_eq!(hdoc.get("shards").and_then(JsonValue::as_u64), Some(2));
    let health0 = http_get(&addr, "/healthz?shard=1", TIMEOUT).expect("shard healthz");
    assert_eq!(health0.status, 200);

    // Merged /metrics: summed counters, plane gauges, per-shard labels.
    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics");
    assert!(metrics.body.contains("serve_shards 2"));
    assert!(metrics.body.contains("serve_http_shed_total"));
    assert!(metrics.body.contains("shard=\"0\""));
    assert!(metrics.body.contains("shard=\"1\""));
    let shard_metrics = http_get(&addr, "/metrics?shard=1", TIMEOUT).expect("shard metrics");
    assert!(
        !shard_metrics.body.contains("shard=\"1\""),
        "drill-down serves the shard's own registry without plane labels"
    );

    // Merged /events: dot-joined cursors, per-shard loss accounting,
    // shard-tagged events.
    let events = http_get(&addr, "/events?since=0&max=64", TIMEOUT).expect("events");
    assert_eq!(events.status, 200);
    validate_json(&events.body).expect("merged events JSON validates");
    let edoc = parse_json(&events.body).expect("events parse");
    let next = edoc
        .get("next")
        .and_then(JsonValue::as_str)
        .expect("merged cursor is a string");
    assert_eq!(
        next.split('.').count(),
        2,
        "one component per shard: {next}"
    );
    assert_eq!(
        edoc.get("dropped")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::len),
        Some(2)
    );
    let evs = edoc
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(!evs.is_empty());
    for e in evs {
        let shard = e.get("shard").and_then(JsonValue::as_u64).expect("tag");
        assert!(shard < 2);
    }
    // Resuming from the returned cursor never replays: drain to the
    // end, then poll again from there and expect nothing.
    let mut cursor = next.to_string();
    for _ in 0..200 {
        let resp = http_get(&addr, &format!("/events?since={cursor}&max=4096"), TIMEOUT)
            .expect("drain events");
        let d = parse_json(&resp.body).expect("drain parses");
        cursor = d
            .get("next")
            .and_then(JsonValue::as_str)
            .expect("cursor")
            .to_string();
        let n = d
            .get("events")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len);
        if n == 0 {
            break;
        }
    }
    // Per-shard drill-down: the same wire format over one ring, so the
    // cursor has one component and every event carries the shard's tag.
    let shard_events = http_get(&addr, "/events?since=0&max=16&shard=1", TIMEOUT).expect("events");
    let sdoc = parse_json(&shard_events.body).expect("shard events parse");
    let next = sdoc
        .get("next")
        .and_then(JsonValue::as_str)
        .expect("drill-down cursor is a string");
    assert_eq!(next.split('.').count(), 1, "one component: {next}");
    for e in sdoc
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array")
    {
        assert_eq!(e.get("shard").and_then(JsonValue::as_u64), Some(1));
    }
    // A malformed merged cursor is a clean 400.
    let bad = http_get(&addr, "/events?since=1.2.3.4&max=16", TIMEOUT).expect("bad cursor");
    assert_eq!(bad.status, 400);

    // Shutdown: summary aggregates both shards; the flush writes
    // per-shard artifact files and per-shard flight-recorder dirs.
    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert_eq!(summary.shards, 2);
    assert_eq!(summary.slices, 6);
    assert_eq!(summary.cycles, 30_000);
    assert_eq!(
        summary.flushed.len(),
        6,
        "final jsonl + status + (events + observatory) x 2 shards"
    );
    for name in [
        "serve_final.jsonl",
        "serve_status.json",
        "events.jsonl",
        "observatory.jsonl",
        "events-shard1.jsonl",
        "observatory-shard1.jsonl",
    ] {
        assert!(dir.join(name).is_file(), "{name} flushed");
    }
    for shard in 0..2 {
        let rec = dir.join("flightrec").join(format!("shard-{shard}"));
        assert!(rec.is_dir(), "shard {shard} flight-recorder dir");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The top-level keys of a JSON object answer, in document order.
fn top_keys(doc: &JsonValue) -> Vec<&str> {
    match doc {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

#[test]
fn every_selection_renders_one_schema() {
    // A single shard is simply N=1: on a 1- and a 2-shard plane, every
    // `?shard=K` drill-down answers with exactly the top-level keys of
    // the unfiltered answer, and the /events cursor is always a string.
    for n in [1usize, 2] {
        let handle = serve(sharded_config(n, 2)).expect("bind ephemeral port");
        let addr = handle.addr().to_string();
        wait_for_slices(&addr, 2 * n as u64);
        for path in ["/status", "/healthz", "/events?since=0&max=16"] {
            let fetch = |p: &str| {
                let resp = http_get(&addr, p, TIMEOUT).expect("fetch");
                assert_eq!(resp.status, 200, "{p}: {}", resp.body);
                parse_json(&resp.body).expect("answer parses")
            };
            let all = fetch(path);
            let sep = if path.contains('?') { '&' } else { '?' };
            for k in 0..n {
                let drilled = fetch(&format!("{path}{sep}shard={k}"));
                assert_eq!(
                    top_keys(&drilled),
                    top_keys(&all),
                    "{path} with shard={k} on {n} shard(s)"
                );
                assert_eq!(drilled.get("shards").and_then(JsonValue::as_u64), Some(1));
                if path.starts_with("/events") {
                    assert!(drilled.get("next").and_then(JsonValue::as_str).is_some());
                }
            }
            assert_eq!(
                all.get("shards").and_then(JsonValue::as_u64),
                Some(n as u64)
            );
            if path.starts_with("/events") {
                let next = all
                    .get("next")
                    .and_then(JsonValue::as_str)
                    .expect("the cursor is a string on any plane");
                assert_eq!(next.split('.').count(), n, "one component per shard");
            }
        }
        let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
        assert_eq!(quit.status, 200);
        handle.wait().expect("clean shutdown");
    }
}

/// A one-slot server whose only connection slot is held by a parked
/// `/events` long-poll (a cursor far past the ring, so it waits out its
/// full 5 s timeout). Returns once a plain request has been shed — so
/// the slot is known to be held — with the server, the parked poll and
/// that first shed answer.
fn one_slot_server_with_parked_poll() -> (
    ServerHandle,
    std::thread::JoinHandle<Result<HttpResponse, ServeError>>,
    HttpResponse,
) {
    let cfg = ServeConfig {
        max_connections: 1,
        http_threads: 2,
        ..sharded_config(1, 1)
    };
    let handle = serve(cfg).expect("bind ephemeral port");
    let parked_addr = handle.addr().to_string();
    let parked = std::thread::spawn(move || {
        http_get(
            &parked_addr,
            "/events?since=999999999&timeout_ms=5000",
            TIMEOUT,
        )
    });
    // Let the parked poll win the race for the only slot before any
    // probe connects — otherwise a fast probe could hold the slot and
    // shed the poll instead.
    std::thread::sleep(Duration::from_millis(300));
    let addr = handle.addr().to_string();
    for _ in 0..200 {
        match http_get(&addr, "/healthz", Duration::from_secs(2)) {
            Ok(r) if r.status == 503 => return (handle, parked, r),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("the admission limit must shed with 503");
}

#[test]
fn admission_limit_sheds_with_503() {
    // One connection slot: a parked long-poll holds it, so the next
    // connection must be shed with 503 — and the shed counter surfaces
    // in /metrics once the slot frees up.
    let (handle, parked, shed) = one_slot_server_with_parked_poll();
    let addr = handle.addr().to_string();
    assert!(
        shed.body.contains("shed"),
        "503 body names the shed: {}",
        shed.body
    );
    let parked_resp = parked
        .join()
        .expect("parked poll returns")
        .expect("poll ok");
    assert_eq!(parked_resp.status, 200, "the admitted poll still answers");

    // The slot is free again: /metrics answers and counts the sheds.
    let metrics = http_get(&addr, "/metrics", TIMEOUT).expect("metrics after shed");
    assert_eq!(metrics.status, 200);
    let shed_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("serve_http_shed_total"))
        .expect("shed counter exported");
    let count: f64 = shed_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("counter value");
    assert!(count >= 1.0, "sheds counted: {shed_line}");

    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.shed >= 1, "summary carries the shed count");
}

#[test]
fn shed_client_with_large_headers_reads_the_503() {
    // The shed path reads at most the request line's first chunk; a
    // client that sent more (here ~3 KB of headers in one write) must
    // still read the 503 rather than a connection reset.
    let (handle, parked, _) = one_slot_server_with_parked_poll();
    let addr = handle.addr().to_string();
    let request = format!(
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(3_000)
    );
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream
        .write_all(request.as_bytes())
        .expect("send in one write");
    let mut answer = String::new();
    stream
        .read_to_string(&mut answer)
        .expect("the shed client reads the answer, not a reset");
    assert!(answer.starts_with("HTTP/1.1 503"), "got {answer:.80}");
    assert!(answer.contains("shed"), "503 body names the shed: {answer}");

    let parked_resp = parked
        .join()
        .expect("parked poll returns")
        .expect("poll ok");
    assert_eq!(parked_resp.status, 200, "the admitted poll still answers");
    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    let summary = handle.wait().expect("clean shutdown");
    assert!(summary.shed >= 1, "the large-header client was shed");
}

#[test]
fn loadgen_drives_sharded_server_and_reports() {
    // The in-process spelling of `repro loadgen`: a 2-shard server with
    // a drained slice budget, driven briefly from 2 threads. Debug
    // builds are slow, so assert structure and error-freeness here; the
    // >= 1000 req/s acceptance bar runs in release via check.sh.
    let handle = serve(sharded_config(2, 1)).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    wait_for_slices(&addr, 2);

    let cfg = LoadgenConfig {
        addr: addr.clone(),
        concurrency: 2,
        duration: Duration::from_millis(800),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg);
    assert!(report.requests() > 0, "loadgen drove requests");
    assert_eq!(report.errors(), 0, "no transport errors on loopback");
    assert_eq!(report.ok() + report.shed(), report.requests());
    assert!(report.throughput_rps() > 0.0);
    let json = loadgen_report_json(&report, 2);
    validate_json(&json).expect("report JSON validates");
    let doc = parse_json(&json).expect("report parses");
    assert_eq!(
        doc.get("bench").and_then(JsonValue::as_str),
        Some("serve_loadgen")
    );
    let endpoints = doc
        .get("endpoints")
        .and_then(JsonValue::as_array)
        .expect("endpoints");
    assert_eq!(endpoints.len(), cfg.endpoints.len());
    for e in endpoints {
        assert!(
            e.get("p99_us").and_then(JsonValue::as_f64).is_some(),
            "every endpoint reports latency quantiles"
        );
    }

    let quit = http_get(&addr, "/quit", TIMEOUT).expect("quit");
    assert_eq!(quit.status, 200);
    handle.wait().expect("clean shutdown");
}
