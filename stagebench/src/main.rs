//! `stagebench` — the stage-attributed closed-loop benchmark of the P2B
//! pipeline. See `stagebench/README.md` for the metrics, the workloads and
//! the layer map.
//!
//! ```text
//! stagebench --workload serve_decide|serve_ingest|regime_sweep
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the full record (git
//! revision, nproc, workload, seed, run length, tracing, units, counts,
//! digest) is the line before it and is also written under
//! `stagebench/results/`. A failed output check exits with status 1.

mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::Metric;
use std::process::ExitCode;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy closed loop.
    ServeDecide,
    /// Write-heavy closed loop.
    ServeIngest,
    /// Five regimes × three paper workloads through `run_cell`.
    RegimeSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_decide" => Some(Self::ServeDecide),
            "serve_ingest" => Some(Self::ServeIngest),
            "regime_sweep" => Some(Self::RegimeSweep),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeDecide => "serve_decide",
            Self::ServeIngest => "serve_ingest",
            Self::RegimeSweep => "regime_sweep",
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload to drive.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads of the serve loop: nproc − 1, at least 1.
    pub workers: usize,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = report::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value} (serve_decide|serve_ingest|regime_sweep)")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        workers: nproc().saturating_sub(1).max(1),
    })
}

/// Limits glibc's allocator to one arena. With the default, each thread
/// the library spawns (engine shards, ingest shards, workers) may take a
/// fresh arena, and peak RSS then varies run to run with arena placement.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes allocator tuning and is called before
    // this process spawns any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("stagebench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match cli.workload {
        Workload::ServeDecide => report::serve_run(&cli, &serve::ServeShape::decide()),
        Workload::ServeIngest => report::serve_run(&cli, &serve::ServeShape::ingest()),
        Workload::RegimeSweep => report::sweep_run(&cli),
    };
    if !cli.trace {
        let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
        outcome.metrics.push(Metric::new("peak_rss_mb", "MB", rss));
    }
    outcome.finish(&cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let cli = parse_args(&args(
            "--workload serve_ingest --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Workload::ServeIngest);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        assert!(parse_args(&args("--seed 7")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload regime_sweep --seconds 0")).is_err());
    }
}
