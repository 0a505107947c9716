//! Open-loop HTTP load generator for the compile server.
//!
//! Drives a running `ftqc serve` — or a self-hosted loopback server when
//! no `--addr` is given — with `--connections` client workers for
//! `--duration` seconds, and reports throughput, latency percentiles, and
//! the error mix (2xx/4xx/5xx, 429s, socket errors) at the end. Each
//! request uses a fresh connection, so the numbers include the accept
//! path.
//!
//! With `--rate R` the generator is open-loop: R requests per second are
//! *due* on a fixed schedule regardless of completions, and the workers
//! drain the due tickets as fast as the server lets them. When the
//! server falls behind, the backlog (and latency) grows — exactly the
//! signal a closed-loop generator hides. Without `--rate`, workers issue
//! back-to-back requests (closed-loop), which measures peak throughput
//! instead.
//!
//! ```text
//! cargo run --release -p ftqc-bench --bin bench_load -- \
//!     --connections 64 --duration 5
//! cargo run --release -p ftqc-bench --bin bench_load -- \
//!     --addr 127.0.0.1:7878 --connections 32 --duration 10 --rate 2000
//! ```

use ftqc_bench::report::LatencyPercentiles;
use ftqc_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    connections: u64,
    duration: u64,
    rate: u64,
    path: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        connections: 32,
        duration: 5,
        rate: 0,
        path: "/healthz".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a number"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--connections" => args.connections = number("--connections", value("--connections")?)?,
            "--duration" => args.duration = number("--duration", value("--duration")?)?,
            "--rate" => args.rate = number("--rate", value("--rate")?)?,
            "--path" => args.path = value("--path")?,
            other => {
                return Err(format!(
                    "unknown flag {other:?} \
                     (use --addr/--connections/--duration/--rate/--path)"
                ))
            }
        }
    }
    if args.connections == 0 {
        return Err("--connections must be at least 1".into());
    }
    if args.duration == 0 {
        return Err("--duration must be at least 1 second".into());
    }
    Ok(args)
}

/// One request over a fresh connection. Returns the latency and the
/// response's status code, or `Err(())` for a socket-level failure.
fn request(addr: &str, head: &[u8]) -> Result<(u64, u16), ()> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|_| ())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|_| ())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(|_| ())?;
    stream.write_all(head).map_err(|_| ())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|_| ())?;
    // "HTTP/1.1 NNN ..." — the three status digits at bytes 9..12.
    let status: u16 = response
        .get(9..12)
        .and_then(|d| std::str::from_utf8(d).ok())
        .and_then(|d| d.parse().ok())
        .ok_or(())?;
    Ok((started.elapsed().as_micros() as u64, status))
}

/// Per-worker tallies, merged after the run.
#[derive(Default)]
struct Tally {
    samples: Vec<u64>,
    ok_2xx: u64,
    client_4xx: u64,
    throttled_429: u64,
    server_5xx: u64,
    socket_errors: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.ok_2xx += other.ok_2xx;
        self.client_4xx += other.client_4xx;
        self.throttled_429 += other.throttled_429;
        self.server_5xx += other.server_5xx;
        self.socket_errors += other.socket_errors;
    }

    fn record(&mut self, outcome: Result<(u64, u16), ()>) {
        match outcome {
            Ok((micros, status)) => {
                self.samples.push(micros);
                match status {
                    429 => {
                        self.throttled_429 += 1;
                        self.client_4xx += 1;
                    }
                    200..=299 => self.ok_2xx += 1,
                    400..=499 => self.client_4xx += 1,
                    _ => self.server_5xx += 1,
                }
            }
            Err(()) => self.socket_errors += 1,
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_load: {e}");
            std::process::exit(2);
        }
    };

    // Self-host a loopback server when no target was named.
    let (addr, hosted) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = match Server::bind(ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            }) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bench_load: cannot self-host: {e}");
                    std::process::exit(1);
                }
            };
            let addr = server.local_addr().expect("bound").to_string();
            let handle = server.handle().expect("handle");
            let thread = std::thread::spawn(move || {
                let _ = server.run();
            });
            (addr, Some((handle, thread)))
        }
    };

    let head = format!(
        "GET {} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n",
        args.path
    )
    .into_bytes();
    let deadline = Instant::now() + Duration::from_secs(args.duration);
    let started = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    // Open-loop pacing: tickets come due on the clock, workers drain them.
    let issued = Arc::new(AtomicU64::new(0));
    let rate = args.rate;

    let workers: Vec<_> = (0..args.connections)
        .map(|_| {
            let addr = addr.clone();
            let head = head.clone();
            let stop = Arc::clone(&stop);
            let issued = Arc::clone(&issued);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                    if rate > 0 {
                        let due = (started.elapsed().as_secs_f64() * rate as f64) as u64;
                        let claim =
                            issued.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                (n < due).then_some(n + 1)
                            });
                        if claim.is_err() {
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                    }
                    tally.record(request(&addr, &head));
                }
                tally
            })
        })
        .collect();

    let mut total = Tally::default();
    for worker in workers {
        if let Ok(tally) = worker.join() {
            total.absorb(tally);
        }
    }
    stop.store(true, Ordering::Relaxed);
    let elapsed = started.elapsed().as_secs_f64();
    if let Some((handle, thread)) = hosted {
        handle.shutdown();
        thread.join().ok();
    }

    let responses = total.samples.len() as u64;
    let attempts = responses + total.socket_errors;
    let percentiles = LatencyPercentiles::from_samples(total.samples.clone());
    let mode = if rate > 0 {
        format!("open-loop at {rate} req/s")
    } else {
        "closed-loop".into()
    };
    println!(
        "bench_load: {} {} over {} workers for {:.1}s ({mode})",
        attempts, args.path, args.connections, elapsed
    );
    println!(
        "throughput        : {:.0} responses/s ({} responses)",
        responses as f64 / elapsed,
        responses
    );
    println!(
        "latency           : p50 {}µs, p95 {}µs, p99 {}µs",
        percentiles.p50, percentiles.p95, percentiles.p99
    );
    println!(
        "mix               : {} 2xx, {} 4xx (of which {} throttled 429), {} 5xx, {} socket errors",
        total.ok_2xx, total.client_4xx, total.throttled_429, total.server_5xx, total.socket_errors
    );
    // A run where nothing ever got through is a failure, not a report.
    if total.ok_2xx == 0 {
        eprintln!("bench_load: no successful responses");
        std::process::exit(1);
    }
}
