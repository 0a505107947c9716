//! Loopback integration tests for the server's event-driven transport:
//! one server answers the whole wire suite with the expected status lines,
//! admission control answers overload with well-formed `429 +
//! Retry-After` responses, slow-loris and truncated requests leak no
//! connection slots, and a connection at the cap gets a clean `503`.

use ftqc::server::{Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Starts a server on an ephemeral loopback port.
fn spawn(
    config: ServerConfig,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<ftqc::server::ServerReport>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle().expect("shutdown handle");
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, thread)
}

/// One raw request, the whole response read to EOF (the server closes
/// after answering). A reset instead of a clean close is an error.
fn try_raw(addr: &str, request: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(String::from_utf8(response).expect("utf8 response"))
}

fn raw(addr: &str, request: &[u8]) -> String {
    try_raw(addr, request).expect("request round trip")
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").into_bytes()
}

/// The status code of a raw response ("HTTP/1.1 NNN ...").
fn status(response: &str) -> u16 {
    response
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

/// A raw response's body.
fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").expect("framed response").1
}

const COMPILE_JOB: &str =
    r#"{"id":"smoke","source":{"benchmark":"ising","size":2},"options":{"routing_paths":4}}"#;

/// The loopback suite: every endpoint family plus the error paths (404,
/// 405, bad JSON, oversized declared body), each with its expected status
/// and a fragment its body must carry.
fn wire_suite() -> Vec<(&'static str, u16, &'static str, Vec<u8>)> {
    let batch = concat!(
        "{\"id\":\"a\",\"source\":{\"benchmark\":\"ising\",\"size\":2}}\n",
        "{definitely not json}\n",
        "{\"id\":\"b\",\"source\":{\"benchmark\":\"ising\",\"size\":2},\"options\":{\"routing_paths\":3}}\n",
    );
    let sweep = r#"{"source":{"benchmark":"ising","size":2},"routing_paths":[2,3],"factories":[1],"pareto":true}"#;
    vec![
        ("healthz", 200, "\"status\":\"ok\"", get("/healthz")),
        (
            "compile",
            200,
            "\"status\":\"ok\"",
            post("/v1/compile", COMPILE_JOB),
        ),
        (
            "staged",
            200,
            "\"stage\":\"map\"",
            post("/v1/compile?stage=map", COMPILE_JOB),
        ),
        (
            "repeat",
            200,
            "\"cache\":\"memory\"",
            post("/v1/compile", COMPILE_JOB),
        ),
        ("batch", 200, "\"id\":\"b\"", post("/v1/batch", batch)),
        ("sweep", 200, "\"points\"", post("/v1/sweep", sweep)),
        ("targets", 200, "\"name\":\"paper\"", get("/v1/targets")),
        ("unknown path", 404, "no such endpoint", get("/nope")),
        (
            "wrong method",
            405,
            "method GET not allowed here",
            get("/v1/compile"),
        ),
        ("bad json", 400, "\"error\"", post("/v1/compile", "{nope")),
        // The event loop refuses this from the head alone, before reading
        // the body: nothing else covers this refusal's text.
        (
            "oversized declared body",
            413,
            "message too large: body of 67108865 bytes exceeds 67108864",
            format!(
                "POST /v1/compile HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
                64 * 1024 * 1024 + 1
            )
            .into_bytes(),
        ),
    ]
}

#[test]
fn wire_suite_answers_with_expected_statuses() {
    let (addr, handle, thread) = spawn(ServerConfig {
        workers: 2,
        session_capacity: 16,
        session_ttl: Duration::from_secs(600),
        ..ServerConfig::default()
    });

    for (label, expected, fragment, request) in wire_suite() {
        let response = raw(&addr, &request);
        assert_eq!(status(&response), expected, "{label}: got {response:?}");
        assert!(
            body(&response).contains(fragment),
            "{label}: got {response:?}"
        );
    }

    // Interactive edit sessions ride the same transport: open, edit,
    // snapshot, close.
    let opened = raw(&addr, &post("/v1/session", COMPILE_JOB));
    assert_eq!(status(&opened), 200, "open: {opened:?}");
    let pat = "\"id\":\"";
    let at = body(&opened).find(pat).expect("descriptor id") + pat.len();
    let sid = body(&opened)[at..].split('"').next().expect("hex id");
    let edit = r#"{"op":"insert","index":0,"gate":{"gate":"t","qubits":[1]}}"#;
    let edited = raw(&addr, &post(&format!("/v1/session/{sid}/edit"), edit));
    assert_eq!(status(&edited), 200, "edit: {edited:?}");
    assert!(body(&edited).contains("\"delta\""), "edit: {edited:?}");
    let snapshot = raw(&addr, &get(&format!("/v1/session/{sid}")));
    assert_eq!(status(&snapshot), 200, "snapshot: {snapshot:?}");
    assert!(body(&snapshot).contains("\"version\":1"), "{snapshot:?}");
    let closed = raw(
        &addr,
        format!("DELETE /v1/session/{sid} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes(),
    );
    assert_eq!(status(&closed), 200, "close: {closed:?}");
    assert!(body(&closed).contains("\"closed\":true"), "{closed:?}");

    // The admission telemetry is part of the stats document.
    let stats = raw(&addr, &get("/v1/cache/stats"));
    assert!(
        stats.contains("\"admission\""),
        "stats expose the admission block: {stats}"
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn slow_loris_and_truncation_leak_no_slots() {
    let (addr, handle, thread) = spawn(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // Three loris cycles: stalled and truncated connections must be
    // reaped every round, or the accumulated slots would eventually
    // starve the healthz probe.
    for cycle in 0..3 {
        let mut stalled = Vec::new();
        for _ in 0..4 {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // A head that never finishes: the whole-request deadline
            // must fire and answer 408.
            stream.write_all(b"GET /healthz HT").expect("partial head");
            stalled.push(stream);
        }
        for _ in 0..4 {
            // A declared body that never arrives, then a hangup:
            // nothing is owed, the slot just comes back.
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(
                    b"POST /v1/compile HTTP/1.1\r\nhost: t\r\ncontent-length: 100\r\n\r\ntrunc",
                )
                .expect("partial body");
            drop(stream);
        }
        for mut stream in stalled {
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("408 response");
            assert!(
                response.starts_with("HTTP/1.1 408"),
                "cycle {cycle}: stalled request must time out with 408, got {response:?}"
            );
            assert!(
                response.contains("timed out reading from peer"),
                "cycle {cycle}: got {response:?}"
            );
        }
        let health = raw(&addr, &get("/healthz"));
        assert!(
            health.starts_with("HTTP/1.1 200"),
            "cycle {cycle}: server must stay healthy, got {health:?}"
        );
    }

    // Full capacity survives the abuse: a real request still compiles.
    let compiled = raw(&addr, &post("/v1/compile", COMPILE_JOB));
    assert!(
        compiled.contains("\"status\":\"ok\""),
        "post-abuse compile must succeed, got {compiled:?}"
    );

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn reactor_answers_overload_with_well_formed_429s() {
    // One dispatcher (workers: 1) and a single queue slot: while a slow
    // sweep occupies the dispatcher, one request may wait and everything
    // else must be refused before its body is read.
    let (addr, handle, thread) = spawn(ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    });

    let sweep = r#"{"source":{"benchmark":"ising","size":3},"routing_paths":[2,3,4,5],"factories":[1,2],"pareto":true}"#;
    let sweep_addr = addr.clone();
    let slow = std::thread::spawn(move || raw(&sweep_addr, &post("/v1/sweep", sweep)));
    // Let the sweep get admitted before the storm.
    std::thread::sleep(Duration::from_millis(150));

    let storm: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || raw(&addr, &post("/v1/compile", COMPILE_JOB)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut served = 0;
    let mut throttled = 0;
    for response in &storm {
        if response.starts_with("HTTP/1.1 200") {
            assert!(response.contains("\"status\":\"ok\""), "got {response:?}");
            served += 1;
        } else {
            assert!(
                response.starts_with("HTTP/1.1 429"),
                "overload must answer 200 or 429, got {response:?}"
            );
            assert!(
                response.contains("server over capacity, retry later"),
                "got {response:?}"
            );
            let retry_after: u64 = response
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("retry-after:")
                        .map(str::to_string)
                })
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("429 must carry a numeric retry-after: {response:?}"));
            assert!((1..=60).contains(&retry_after), "got {retry_after}");
            throttled += 1;
        }
    }
    assert_eq!(served + throttled, 8);
    assert!(
        throttled >= 1,
        "a single-slot queue under an 8-way storm must throttle someone: \
         {served} served / {throttled} throttled"
    );

    let swept = slow.join().expect("sweep thread");
    assert!(
        swept.starts_with("HTTP/1.1 200"),
        "the admitted sweep must finish, got {swept:?}"
    );
    // Recovery: with the storm over, fresh requests are admitted again.
    let after = raw(&addr, &post("/v1/compile", COMPILE_JOB));
    assert!(after.contains("\"status\":\"ok\""), "got {after:?}");

    handle.shutdown();
    thread.join().expect("server thread");
}

#[test]
fn at_limit_rejection_answers_a_clean_503() {
    let (addr, handle, thread) = spawn(ServerConfig {
        workers: 1,
        max_connections: 1,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });

    // One idle connection pins the single slot.
    let holder = TcpStream::connect(&addr).expect("connect");

    // A burst of connections that never read their 503s: refusing them
    // must not stall the event loop, so later arrivals are still answered
    // promptly instead of queueing behind an unread write.
    let deadbeats: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    // Every probe must read the whole 503 and a clean close: a refusal
    // that drops the socket with the request unread resets the
    // connection, and the reset can discard the 503.
    let started = Instant::now();
    for probe in 0..50 {
        let refused = try_raw(&addr, &get("/healthz"))
            .unwrap_or_else(|e| panic!("at-limit probe {probe} must read a clean 503: {e}"));
        assert!(
            refused.starts_with("HTTP/1.1 503"),
            "at-limit probe {probe} must get the 503, got {refused:?}"
        );
        assert!(
            refused.contains("server at connection limit, retry later"),
            "got {refused:?}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "rejection must not serialise behind the deadbeat connections: \
         took {:?}",
        started.elapsed()
    );
    drop(deadbeats);

    // Releasing the slot restores service.
    drop(holder);
    let mut healthy = false;
    for _ in 0..50 {
        if try_raw(&addr, &get("/healthz")).is_ok_and(|r| r.starts_with("HTTP/1.1 200")) {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(healthy, "capacity must recover once the holder disconnects");

    handle.shutdown();
    thread.join().expect("server thread");
}
