//! `read-serve` — the sweep-as-a-service daemon.
//!
//! Serves TER / corner-sweep / accuracy requests over a line-delimited TCP
//! protocol, coalescing identical in-flight work units across concurrent
//! clients and memoizing everything in a shared artifact store (in-memory
//! by default, disk-backed with `--store`).
//!
//! ```text
//! read-serve [--addr HOST:PORT] [--slots N] [--store DIR] [--timeout-ms N]
//!            [--fleet HOST:PORT,HOST:PORT,...]
//! ```
//!
//! With `--fleet`, bulk requests route their whole plan to the listed
//! `read-worker` processes through a `SocketExecutor` (falling back to the
//! local pool if the fleet fails); interactive requests always run locally.
//!
//! The daemon runs until a client sends the in-band `shutdown` command
//! (e.g. `ServeClient::shutdown`), then closes idle connections, waits
//! for the requests in flight and exits 0.  See the repo README for the wire grammar.

use std::process::ExitCode;
use std::sync::Arc;

use read_repro::read_pipeline::serve::{ServeServer, ServerConfig};
use read_repro::read_pipeline::{ArtifactStore, DiskStore};

struct Args {
    addr: String,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7341".to_string();
    let mut config = ServerConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{what} wants a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--slots" => {
                config.slots = value("--slots")?
                    .parse()
                    .map_err(|e| format!("--slots: {e}"))?;
            }
            "--timeout-ms" => {
                config.default_timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
            }
            "--store" => {
                let dir = value("--store")?;
                let store = DiskStore::new(&dir).map_err(|e| format!("--store {dir}: {e}"))?;
                config.store = Some(Arc::new(store) as Arc<dyn ArtifactStore>);
            }
            "--fleet" => {
                config.fleet = value("--fleet")?
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--help" | "-h" => {
                return Err(
                    "usage: read-serve [--addr HOST:PORT] [--slots N] [--store DIR] \
                     [--timeout-ms N] [--fleet HOST:PORT,...]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Args { addr, config })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match ServeServer::bind(&args.addr, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("read-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "read-serve listening on {} slots={}",
        server.local_addr(),
        server.slots()
    );
    match server.run() {
        Ok(()) => {
            println!("read-serve: drained and shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("read-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
