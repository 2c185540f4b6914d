//! `dynccd` — the multi-tenant compile-and-execute server.
//!
//! ```text
//! dynccd --listen 127.0.0.1:7878 [--workers N] [--idle-timeout MS]
//!        [--persist-root DIR]
//! ```
//!
//! Clients speak the length-prefixed JSON frame protocol (see
//! `dyncomp::server::proto`; `dyncc --connect ADDR` is the reference
//! client), and `curl http://ADDR/metrics` returns the plaintext
//! metrics document. The process runs until a client sends
//! `{"op":"shutdown"}`.

use dyncomp::server::{Server, ServerOptions};
use std::process::ExitCode;

const USAGE: &str =
    "usage: dynccd --listen ADDR [--workers N] [--idle-timeout MS] [--persist-root DIR]\n\
    \n\
    \t--listen ADDR       TCP listen address (e.g. 127.0.0.1:7878; port 0 picks a free one)\n\
    \t--workers N         frames executed at once (default: host parallelism)\n\
    \t--idle-timeout MS   close a connection after MS milliseconds with no frame\n\
    \t                    activity (0 disables, the default; sessions survive reaping)\n\
    \t--persist-root DIR  root directory for the crash-safe artifact and stitched-code\n\
    \t                    caches; tenants opt in per-tenant and get DIR/tenants/<name>";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Usage(msg)) => {
            eprintln!("dynccd: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct Usage(String);

fn run() -> Result<(), Usage> {
    let mut options = ServerOptions::default();
    let mut listen_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                options.listen = args
                    .next()
                    .ok_or_else(|| Usage("--listen needs an address".to_string()))?;
                listen_given = true;
            }
            "--workers" => {
                let n = args
                    .next()
                    .ok_or_else(|| Usage("--workers needs a count".to_string()))?;
                options.workers =
                    n.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        Usage(format!("--workers: `{n}` is not a positive count"))
                    })?;
            }
            "--idle-timeout" => {
                let n = args
                    .next()
                    .ok_or_else(|| Usage("--idle-timeout needs milliseconds".to_string()))?;
                options.idle_timeout_ms = n.parse::<u64>().map_err(|_| {
                    Usage(format!("--idle-timeout: `{n}` is not a millisecond count"))
                })?;
            }
            "--persist-root" => {
                options.persist_root = Some(
                    args.next()
                        .ok_or_else(|| Usage("--persist-root needs a directory".to_string()))?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(Usage(format!("unknown flag `{other}`"))),
        }
    }
    if !listen_given {
        return Err(Usage("--listen is required".to_string()));
    }
    let server =
        Server::bind(&options).map_err(|e| Usage(format!("bind {}: {e}", options.listen)))?;
    match server.local_addr() {
        Ok(addr) => println!("dynccd listening on {addr} ({} workers)", options.workers),
        Err(_) => println!("dynccd listening on {}", options.listen),
    }
    server.serve();
    println!("dynccd: shutdown complete");
    Ok(())
}
