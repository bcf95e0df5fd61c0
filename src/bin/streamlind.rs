//! `streamlind` — the persistent streaming daemon.
//!
//! Keeps compiled programs (plan cache), per-stream engine state, and
//! the worker pool resident across requests, speaking the line-delimited
//! JSON protocol of `streamlin::service::proto` over stdio (default) or
//! TCP:
//!
//! ```console
//! $ streamlind                              # stdio: one request per line
//! $ streamlind --listen 127.0.0.1:0         # TCP; prints the bound address
//! $ streamlind --workers 8 --max-streams 32 # admission budget; stream and plan cap
//! $ streamlind --metrics --trace-out traces # per-stream telemetry lanes
//! $ streamlind --watchdog 2000              # default stall watchdog (ms)
//! ```
//!
//! Example session:
//!
//! ```text
//! > {"op":"open","id":"s1","program":"...","threads":2,"mode":"fast"}
//! < {"cached":false,"compile_ms":3.1,"id":"s1","ok":true,"op":"open",...}
//! > {"op":"read","id":"s1","n":4}
//! < {"delivered":4,"id":"s1","ok":true,"op":"read","values":[0,1,2,3]}
//! > {"op":"shutdown"}
//! < {"ok":true,"op":"shutdown"}
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use streamlin::service::{server, Service, ServiceOpts};

struct Args {
    listen: Option<String>,
    opts: ServiceOpts,
}

fn usage() -> ! {
    eprintln!(
        "usage: streamlind [--listen <addr>] [--workers <n>] [--max-streams <n>]\n\
         \x20                [--metrics] [--trace-out <dir>] [--watchdog <ms>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        opts: ServiceOpts::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => args.listen = Some(it.next().unwrap_or_else(|| usage())),
            "--workers" => {
                args.opts.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--max-streams" => {
                args.opts.max_streams = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--metrics" => args.opts.metrics = true,
            "--trace-out" => args.opts.trace_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--watchdog" => {
                args.opts.watchdog_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms| ms >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "-h" | "--help" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(dir) = &args.opts.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("streamlind: cannot create trace dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let svc = Service::new(args.opts);
    let result = match &args.listen {
        Some(addr) => server::serve_tcp(Arc::new(svc), addr),
        None => server::serve_stdio(&svc),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("streamlind: {e}");
            ExitCode::FAILURE
        }
    }
}
