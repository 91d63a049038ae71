//! In-process integration tests for the `treadmill-serve` HTTP API:
//! a real listener on port 0, real sockets through the minimal
//! client, and the full submit → events → artifact lifecycle.

#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use treadmill_server::client;
use treadmill_server::service::{start, ServeOptions, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(5);

fn temp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tml-api-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A service on a fresh state directory, journaling to its file store.
fn server(tag: &str) -> (ServerHandle, String, PathBuf) {
    let state = temp_state(tag);
    let handle = start(ServeOptions::new(&state)).expect("start service");
    let addr = handle.addr().to_string();
    (handle, addr, state)
}

/// A small, fast spec: 2 cells of 2k requests each.
fn small_spec(seed: u64) -> String {
    format!(
        r#"{{"config":{{"workload":{{"workload":"memcached"}},
            "target_rps":50000,"clients":2,"connections_per_client":4,
            "duration_ms":40,"warmup_ms":10,"seed":{seed}}},
            "runs":2,"ckpt_events":25000}}"#
    )
}

fn get(addr: &str, path: &str) -> client::HttpResponse {
    client::request(addr, "GET", path, &[], b"", TIMEOUT).expect("GET")
}

fn post_spec(addr: &str, spec: &str, key: Option<&str>) -> client::HttpResponse {
    let mut headers = vec![("Content-Type", "application/json")];
    if let Some(key) = key {
        headers.push(("Idempotency-Key", key));
    }
    client::request(addr, "POST", "/experiments", &headers, spec.as_bytes(), TIMEOUT)
        .expect("POST /experiments")
}

/// Pulls `"name":"value"` out of a flat JSON body without leaning on
/// the vendored parser's accessor surface.
fn field_str(body: &str, name: &str) -> Option<String> {
    let marker = format!("\"{name}\":\"");
    let at = body.find(&marker)? + marker.len();
    let rest = &body[at..];
    Some(rest[..rest.find('"')?].to_string())
}

fn wait_done(addr: &str, id: &str) -> client::HttpResponse {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(addr, &format!("/experiments/{id}"));
        assert_eq!(resp.status, 200, "status poll failed: {}", resp.text());
        let status = field_str(&resp.text(), "status").unwrap();
        match status.as_str() {
            "done" => return resp,
            "failed" => panic!("experiment failed: {}", resp.text()),
            _ if Instant::now() > deadline => {
                panic!("experiment stuck in {status}: {}", resp.text())
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn shutdown(handle: ServerHandle, state: &PathBuf) {
    handle.drain();
    handle.join().expect("service threads panicked");
    let _ = fs::remove_dir_all(state);
}

#[test]
fn health_endpoints_respond() {
    let (handle, addr, state) = server("health");
    let resp = get(&addr, "/healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "ok\n");

    let resp = get(&addr, "/readyz");
    assert_eq!(resp.status, 200);
    let body = resp.text();
    assert!(body.contains("\"status\":\"ready\""), "{body}");
    assert!(body.contains("\"queue_cap\""), "{body}");
    shutdown(handle, &state);
}

#[test]
fn invalid_specs_get_typed_400s() {
    let (handle, addr, state) = server("badspec");

    // Malformed JSON.
    let resp = post_spec(&addr, "{not json", None);
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"kind\":\"json\""), "{}", resp.text());

    // Engine-level validation failure names the field.
    let bad = small_spec(1).replace("\"target_rps\":50000", "\"target_rps\":-5");
    let resp = post_spec(&addr, &bad, None);
    assert_eq!(resp.status, 400);
    let body = resp.text();
    assert!(body.contains("\"kind\":\"invalid\""), "{body}");
    assert!(body.contains("\"field\":\"target_rps\""), "{body}");

    // Service-level caps too.
    let bad = small_spec(1).replace("\"runs\":2", "\"runs\":1000");
    let resp = post_spec(&addr, &bad, None);
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"field\":\"runs\""), "{}", resp.text());

    // Non-UTF-8 body.
    let resp = client::request(
        &addr,
        "POST",
        "/experiments",
        &[],
        &[0xff, 0xfe, 0x80],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    shutdown(handle, &state);
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let (handle, addr, state) = server("routes");
    assert_eq!(get(&addr, "/experiments/exp-999999").status, 404);
    assert_eq!(get(&addr, "/nope").status, 404);
    let resp = client::request(&addr, "DELETE", "/healthz", &[], b"", TIMEOUT).unwrap();
    assert_eq!(resp.status, 405);
    shutdown(handle, &state);
}

#[test]
fn submit_runs_to_done_and_serves_artifacts() {
    let (handle, addr, state) = server("lifecycle");

    // Big enough (3 cells × ~45k requests) that the job is still in
    // flight when the not-ready probe below lands.
    let spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":300000,"clients":2,"duration_ms":150,"warmup_ms":30,
        "seed":7},"runs":3,"ckpt_events":25000}"#;
    let resp = post_spec(&addr, spec, None);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field_str(&resp.text(), "id").expect("submit body has id");

    // Artifact before completion: typed 409, not a hang or a panic.
    let resp = get(&addr, &format!("/experiments/{id}/attribution"));
    assert_eq!(resp.status, 409);
    assert!(resp.text().contains("not-ready"), "{}", resp.text());

    wait_done(&addr, &id);

    // Artifacts come back byte-identical to what the sweep wrote.
    for (route, file) in [("attribution", "attribution.tsv"), ("summary", "summary.tsv")] {
        let resp = get(&addr, &format!("/experiments/{id}/{route}"));
        assert_eq!(resp.status, 200, "{route}: {}", resp.text());
        assert_eq!(resp.header("content-type"), Some("text/tab-separated-values"));
        let on_disk = fs::read(state.join("jobs").join(&id).join(file)).unwrap();
        assert_eq!(resp.body, on_disk, "{route} differs from {file} on disk");
    }

    // A plain sweep writes no factorial.tsv: typed 404, not a 500.
    let resp = get(&addr, &format!("/experiments/{id}/factorial"));
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert!(resp.text().contains("no-artifact"), "{}", resp.text());

    // The events stream is chunked and terminates with the sentinel.
    let resp = get(&addr, &format!("/experiments/{id}/events"));
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding").map(str::to_ascii_lowercase),
        Some("chunked".to_string())
    );
    let events = resp.text();
    assert!(events.contains("cell 0:"), "{events}");
    assert!(events.ends_with("end\n"), "{events}");

    shutdown(handle, &state);
}

#[test]
fn screened_spec_runs_two_stage_sweep_and_serves_screen_artifacts() {
    let (handle, addr, state) = server("screened");

    // High threshold: the analytic screen keeps only the worst cells,
    // so the DES stage runs far fewer than 16 sweeps.
    let spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":150000,"clients":2,"connections_per_client":4,
        "duration_ms":40,"warmup_ms":10,"seed":11,
        "screen":{"threshold":0.2}},"runs":1,"ckpt_events":25000}"#;
    let resp = post_spec(&addr, spec, None);
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = field_str(&resp.text(), "id").expect("submit body has id");
    wait_done(&addr, &id);

    for (route, file) in [("screen", "screen.tsv"), ("factorial", "factorial.tsv")] {
        let resp = get(&addr, &format!("/experiments/{id}/{route}"));
        assert_eq!(resp.status, 200, "{route}: {}", resp.text());
        let on_disk = fs::read(state.join("jobs").join(&id).join(file)).unwrap();
        assert_eq!(resp.body, on_disk, "{route} differs from {file} on disk");
    }
    let screen = get(&addr, &format!("/experiments/{id}/screen")).text();
    assert!(screen.contains("# threshold=0.200000"), "{screen}");
    assert!(screen.contains("flagged"), "{screen}");
    let factorial = get(&addr, &format!("/experiments/{id}/factorial")).text();
    let simulated = factorial
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("cell\t") && !l.is_empty())
        .count();
    let flagged = screen
        .lines()
        .filter(|l| l.ends_with("\t1"))
        .count();
    assert_eq!(simulated, flagged, "{factorial}\n{screen}");
    assert!((1..16).contains(&simulated), "screen must drop some cells: {screen}");

    // A screened spec writes no attribution.tsv: typed 404, not a 500.
    let resp = get(&addr, &format!("/experiments/{id}/attribution"));
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert!(resp.text().contains("no-artifact"), "{}", resp.text());

    // The progress stream narrates the two stages.
    let events = get(&addr, &format!("/experiments/{id}/events")).text();
    assert!(events.contains("analytic screen"), "{events}");
    assert!(events.contains("flagged"), "{events}");

    shutdown(handle, &state);
}

#[test]
fn idempotency_key_deduplicates() {
    let (handle, addr, state) = server("dedup");

    let first = post_spec(&addr, &small_spec(3), Some("k-123"));
    assert_eq!(first.status, 201, "{}", first.text());
    let id = field_str(&first.text(), "id").unwrap();

    let second = post_spec(&addr, &small_spec(3), Some("k-123"));
    assert_eq!(second.status, 200, "{}", second.text());
    let body = second.text();
    assert!(body.contains("\"deduplicated\":true"), "{body}");
    assert_eq!(field_str(&body, "id").unwrap(), id, "dedup returned a new id");

    // A different key is a different experiment.
    let third = post_spec(&addr, &small_spec(3), Some("k-456"));
    assert_eq!(third.status, 201, "{}", third.text());
    assert_ne!(field_str(&third.text(), "id").unwrap(), id);

    wait_done(&addr, &id);
    shutdown(handle, &state);
}

#[test]
fn admission_queue_sheds_with_503_and_retry_after() {
    let state = temp_state("overload");
    let mut opts = ServeOptions::new(&state);
    opts.queue_cap = 1;
    let handle = start(opts).expect("start service");
    let addr = handle.addr().to_string();

    // One deliberately long job occupies the executor; ckpt_events is
    // small so the drain below interrupts it promptly.
    let long_spec = r#"{"config":{"workload":{"workload":"memcached"},
        "target_rps":300000,"clients":2,"connections_per_client":4,
        "duration_ms":200,"warmup_ms":40,"seed":11},
        "runs":8,"ckpt_events":25000}"#;
    let resp = post_spec(&addr, long_spec, None);
    assert_eq!(resp.status, 201, "{}", resp.text());

    // Burst past the queue: with the executor busy and cap 1, most of
    // these must shed with 503 + Retry-After rather than queue.
    let mut accepted = 0;
    let mut shed = 0;
    for seed in 100..112u64 {
        let resp = post_spec(&addr, &small_spec(seed), None);
        match resp.status {
            201 => accepted += 1,
            503 => {
                assert!(
                    resp.header("retry-after").is_some(),
                    "503 without Retry-After: {}",
                    resp.text()
                );
                assert!(resp.text().contains("overloaded"), "{}", resp.text());
                shed += 1;
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(shed >= 1, "burst of 12 over cap 1 shed nothing ({accepted} accepted)");

    // The server is still healthy mid-overload.
    assert_eq!(get(&addr, "/healthz").status, 200);

    handle.drain();
    handle.join().expect("service threads panicked");
    let _ = fs::remove_dir_all(&state);
}
