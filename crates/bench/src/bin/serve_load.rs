//! `serve_load` — closed-loop load generator against a running
//! `surgescope-serve` endpoint (e.g. `repro --serve 127.0.0.1:0`).
//!
//! Opens a load campaign on the server, then drives N connections of
//! paced pings against it for a fixed duration and prints the
//! client-side report (throughput + latency percentiles) as JSON on
//! stdout. Exits non-zero if no request succeeded or any request
//! failed, so CI can use a short burst as a smoke gate:
//!
//! ```text
//! cargo run --release -p surgescope-bench --bin serve_load -- \
//!     --addr 127.0.0.1:PORT --conns 4 --rps 200 --secs 2
//! ```

use std::time::Duration;
use surgescope_serve::{run_load, LoadConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve_load --addr HOST:PORT [--conns N] [--rps N] [--secs S]\n\
         \n\
         options:\n\
         \x20 --addr A   server address (required)\n\
         \x20 --conns N  concurrent connections (default 4)\n\
         \x20 --rps N    target requests/second per connection (default 200;\n\
         \x20            0 = unpaced, as fast as the closed loop allows)\n\
         \x20 --secs S   wall-clock duration of the run (default 2)"
    );
    std::process::exit(2);
}

fn value_of(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage();
    })
}

fn main() {
    let mut addr: Option<String> = None;
    let mut conns = 4usize;
    let mut rps = 200u64;
    let mut secs = 2.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(value_of(&mut it, "--addr")),
            "--conns" => {
                conns = value_of(&mut it, "--conns").parse().ok().filter(|&n| n >= 1).unwrap_or_else(
                    || {
                        eprintln!("--conns needs a positive integer");
                        std::process::exit(2);
                    },
                )
            }
            "--rps" => {
                rps = value_of(&mut it, "--rps").parse().unwrap_or_else(|_| {
                    eprintln!("--rps needs a non-negative integer");
                    std::process::exit(2);
                })
            }
            "--secs" => {
                secs = value_of(&mut it, "--secs")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--secs needs a positive number");
                        std::process::exit(2);
                    })
            }
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("--addr is required");
        usage();
    };

    let cfg = LoadConfig {
        addr,
        conns,
        req_per_sec: rps,
        duration: Duration::from_secs_f64(secs),
    };
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_load: {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };

    println!(
        "{{\n  \"addr\": \"{}\",\n  \"conns\": {},\n  \"rps_per_conn\": {},\n  \
         \"wall_secs\": {:.3},\n  \"requests\": {},\n  \"errors\": {},\n  \
         \"requests_per_sec\": {:.1},\n  \"p50_us\": {},\n  \"p90_us\": {},\n  \
         \"p99_us\": {},\n  \"max_us\": {}\n}}",
        cfg.addr,
        cfg.conns,
        cfg.req_per_sec,
        report.wall_secs,
        report.requests,
        report.errors,
        report.requests_per_sec,
        report.p50_us,
        report.p90_us,
        report.p99_us,
        report.max_us,
    );
    if report.requests == 0 || report.errors > 0 {
        eprintln!(
            "serve_load: FAILED ({} successful requests, {} errors)",
            report.requests, report.errors
        );
        std::process::exit(1);
    }
}
