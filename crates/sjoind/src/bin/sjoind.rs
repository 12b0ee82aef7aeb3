//! `sjoind` — the concurrent spatial-join service daemon.
//!
//! ```text
//! sjoind [--addr A] [--budget-mb F] [--max-queue N] [--batch N]
//!        [--log PATH]
//! ```
//!
//! Speaks newline-delimited JSON; one object per line, `"cmd"` selects:
//! `ping`, `register {name, source, scale, seed}`, `list`, `metrics`,
//! `join {left, right, algo, mem_mb, ...}` (streams `{"pairs":[...]}`
//! batches then one `{"done":...}` or `{"error":...}` line), `shutdown`
//! (graceful drain). Try it:
//!
//! ```text
//! printf '%s\n' '{"cmd":"register","name":"a","source":"uniform","scale":0.02}' \
//!               '{"cmd":"register","name":"b","source":"clustered","scale":0.02}' \
//!               '{"cmd":"join","left":"a","right":"b","algo":"pbsm"}' \
//!               '{"cmd":"shutdown"}' | nc 127.0.0.1 7878
//! ```

use std::process::ExitCode;

use sjoind::{Server, ServerConfig};

const HELP: &str = "sjoind - concurrent spatial-join service

USAGE: sjoind [OPTIONS]

OPTIONS:
  --addr A        listen address (default 127.0.0.1:7878; port 0 = ephemeral)
  --budget-mb F   total memory budget the arbiter leases out (default 64)
  --max-queue N   joins allowed to queue for memory; more are shed (default 16)
  --batch N       result pairs per streamed protocol line (default 256)
  --log PATH      append a line-oriented server log to PATH
  --help          print this help";

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            "--addr" => value("--addr").map(|v| addr = v),
            "--budget-mb" => value("--budget-mb").and_then(|v| {
                let mb: f64 = v.parse().map_err(|e| format!("bad --budget-mb: {e}"))?;
                if !(mb > 0.0 && mb <= 1_048_576.0) {
                    return Err("--budget-mb must be in (0, 1048576]".to_owned());
                }
                cfg.budget_bytes = (mb * 1024.0 * 1024.0) as u64;
                Ok(())
            }),
            "--max-queue" => value("--max-queue").and_then(|v| {
                cfg.max_queue = v.parse().map_err(|e| format!("bad --max-queue: {e}"))?;
                Ok(())
            }),
            "--batch" => value("--batch").and_then(|v| {
                cfg.batch = v.parse().map_err(|e| format!("bad --batch: {e}"))?;
                Ok(())
            }),
            "--log" => value("--log").map(|v| cfg.log_path = Some(v.into())),
            other => Err(format!("unknown flag {other} (see --help)")),
        };
        if let Err(e) = result {
            eprintln!("sjoind: {e}");
            return ExitCode::from(2);
        }
    }

    let budget_mb = cfg.budget_bytes as f64 / (1024.0 * 1024.0);
    let max_queue = cfg.max_queue;
    let handle = match Server::new(cfg).start(&addr) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("sjoind: cannot listen on {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "sjoind listening on {} (budget {budget_mb:.1} MiB, queue depth {max_queue})",
        handle.addr()
    );
    // The accept loop runs until a client sends `shutdown`, then drains.
    handle.join();
    println!("sjoind: drained, bye");
    ExitCode::SUCCESS
}
