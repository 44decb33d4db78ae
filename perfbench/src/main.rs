//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <handoff-hw|handoff-sw|stm-apps|chaos-check>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>] [--spans <path>]
//! perfbench --record <path>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 1` prints the per-layer
//! metrics instead of the end-to-end ones and writes the recorded spans
//! (tab-separated) to `--spans`, by default under the cargo target
//! directory. `--record` writes the default-seed fingerprint table.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use locksim_perfbench::bench::{result_json, run, run_pass, Options};
use locksim_perfbench::cells::{cells, Workload};
use locksim_perfbench::fingerprint::DEFAULT_SEED;
use locksim_perfbench::spans;

#[global_allocator]
static ALLOC: locksim_trace::alloc::CountingAlloc = locksim_trace::alloc::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <handoff-hw|handoff-sw|stm-apps|chaos-check> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--spans <path>] \
                     | perfbench --record <path>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--record" => a.record = Some(PathBuf::from(value()?)),
            "--self-profile" => {
                return Err("refusing to run with the self-profiler on (--self-profile)".into())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// Gated runs must measure the plain simulator at fixed cell sizes: the
/// self-profiler inflates wall time, and `LOCKSIM_QUICK` would shrink the
/// harness's scaled experiments.
fn gate() -> Result<(), String> {
    if std::env::var_os("LOCKSIM_SELF_PROFILE").is_some_and(|v| !v.is_empty()) {
        return Err("refusing to run with the self-profiler on (LOCKSIM_SELF_PROFILE)".into());
    }
    if std::env::var_os("LOCKSIM_QUICK").is_some() {
        return Err("refusing to run with LOCKSIM_QUICK set".into());
    }
    if locksim_trace::prof::enabled() {
        return Err("refusing to run with the self-profiler on".into());
    }
    Ok(())
}

fn record(path: &Path) -> Result<(), String> {
    let mut out = format!(
        "# Default-seed ({DEFAULT_SEED}) fingerprints, written by `perfbench --record`.\n\
         # workload\tcell\tend_cycle\tevents\tgranted\tacquires\tverdict\tdigest\n"
    );
    for w in Workload::ALL {
        eprintln!("perfbench: recording {}", w.name());
        let cs = cells(w, DEFAULT_SEED);
        let pass = run_pass(w, &cs, false, None);
        if !pass.failures.is_empty() {
            return Err(format!("{}: {}", w.name(), pass.failures.join("; ")));
        }
        for fp in pass.fingerprints().into_iter().flatten() {
            out.push_str(&format!("{}\t{}\n", w.name(), fp.to_line()));
        }
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn default_spans_path(w: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    dir.join("perfbench-spans")
        .join(format!("{}-s{seed}.tsv", w.name()))
}

fn main() -> ExitCode {
    locksim_trace::alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args).and_then(|a| gate().map(|()| a)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.record {
        return match record(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let out = run(&opts);
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| default_spans_path(workload, args.seed));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans::to_tsv(&out.spans)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                out.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!(
        "perfbench {} seed {} ({})",
        workload.name(),
        args.seed,
        if args.trace {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        }
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for m in &out.metrics {
        println!(
            "  {:<28} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
