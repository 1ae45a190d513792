//! Executor half of the MT4G benchmark.
//!
//! `run.py` starts this process, writes one command per line on its
//! stdin and reads one JSON reply per line from its stdout. Each command
//! is one call (or one batch of identical calls) into a public function of
//! the program — `JobSpec::resolve`, `Job::run`, `execute_plan`,
//! `merge_partials`, `report::to_json_pretty`, the serve protocol, cache
//! and engine, the p-chase engine, the simulator's caches and noise model,
//! and the K-S statistics. The harness times each command from outside.
//!
//! This process reads no clock. Timing lives in the harness, so nothing
//! here can disturb the determinism rules the repository enforces on its
//! Rust sources, and every reply carries only outputs and exact counts.
//!
//! Commands (tab-separated fields):
//!
//! ```text
//! cell <request line>      add a cell, named by a serve `discover` line
//! setup <reps>             resolve every cell (lookup, scenario, plan)
//! reference <i>            Job::run cell i; reply with bytes + validation
//! run <i>                 Job::run cell i untraced; compare bytes
//! validate <i> <json str>  validate report bytes of cell i, keep them
//! resolve|plan <i>         traced pass: resolve / realise + plan cell i
//! unit <u>                 traced pass: execute_plan for unit u only
//! merge | serialize        traced pass: merge the units, serialise
//! engines <n> <cap>        build and shut down a ServeEngine n times
//! engine_start <cap>       in-process ServeEngine (1 worker)
//! handle <i> | drain <k>   submit cell i / collect k responses
//! hits <n> | engine_stop   n hit lines / shut down, reply with stats
//! parse|key|get|write <n>  serve-layer replays over the cells
//! rng|noise <n>            simulator RNG / noise-draw replays
//! fa_prime|fa_laps <k>     L2-scale FA cache wrap replay
//! sa_prime|sa_laps <k>     L1-scale set-associative ring replay
//! pchase_prep | pchase <ring> <reps>   p-chase replays on H100-80
//! ks|cpd <n>               statistics replays
//! ping                     round trip only
//! ```

mod checks;
mod replay;
mod state;

use std::io::{BufRead, Write};

use state::Executor;

fn main() {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut exec = Executor::default();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.splitn(3, '\t').collect();
        let reply = match exec.dispatch(&fields) {
            Ok(body) => format!("{{\"ok\":true{body}}}"),
            Err(e) => format!("{{\"ok\":false,\"error\":{}}}", state::json_str(&e)),
        };
        let mut out = stdout.lock();
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}
