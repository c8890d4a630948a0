//! The repository benchmark: closed-loop workloads over the Infopipes
//! middleware, measured end to end and, in traced runs, layer by layer.
//!
//! ```text
//! perfbench --workload <local_chain|video_tcp|serve_fanout> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Diagnostics go to standard error; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Untraced runs report the end-to-end metrics, traced runs the
//! per-layer ones (see `README.md`).

mod common;
mod local_chain;
mod probes;
mod serve_fanout;
mod trace;
mod video_tcp;

use common::{result_json, CountingAlloc, RunCfg};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let cfg = match RunCfg::from_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let _ = common::now_ns();
    let outcome = match cfg.workload.as_str() {
        "local_chain" => local_chain::run(&cfg),
        "video_tcp" => video_tcp::run(&cfg),
        "serve_fanout" => serve_fanout::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "{}: attempted {}, failed {}, correct {}",
        cfg.workload, outcome.attempted, outcome.failed, outcome.correct
    );
    println!("{}", result_json(&outcome, cfg.trace));
}
