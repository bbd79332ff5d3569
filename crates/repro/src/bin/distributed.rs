//! Distributed-scan CLI: the streamed §4.2.3 measurement through the
//! coordinator/worker split on 127.0.0.1, checked against the streamed
//! archive.
//!
//! ```text
//! distributed --workers 4                    4 socket workers lease shard indices
//! distributed --workers 2 --inject-death     kill worker 0 mid-shard (CI smoke)
//! distributed --workers 4 --out scan.snap    archive the merged dataset
//! ```
//!
//! Honours `GOVSCAN_SCALE` / `GOVSCAN_SEED`. Exits non-zero if the
//! merged digest differs from the streamed archive's digest.

use std::path::PathBuf;
use std::process::ExitCode;

use govscan_repro::distributed::{self, Options};

fn usage() -> ExitCode {
    eprintln!("usage: distributed [--workers N] [--inject-death] [--out <path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        workers: 2,
        inject_death: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                opts.workers = n;
                i += 2;
            }
            "--inject-death" => {
                opts.inject_death = true;
                i += 1;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                opts.out = Some(PathBuf::from(path));
                i += 2;
            }
            _ => return usage(),
        }
    }
    match distributed::run(&opts) {
        Ok(report) => {
            println!("== distributed scan ==");
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("distributed: {e}");
            ExitCode::FAILURE
        }
    }
}
