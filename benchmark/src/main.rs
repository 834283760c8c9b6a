//! The repository benchmark's command line.
//!
//! ```text
//! hhc-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
//! hhc-benchmark --list
//! hhc-benchmark --bless
//! hhc-benchmark compare PARENT_DIR CHANGE_DIR
//! ```

use hhc_benchmark::run::{self, Manifest, RunConfig};
use hhc_benchmark::{compare, spec, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: hhc-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
       hhc-benchmark --list
       hhc-benchmark --bless
       hhc-benchmark compare PARENT_DIR CHANGE_DIR

  --workload W   one of: select, reproduce, serve-lookup, serve-mixed
  --seed S       seeds the generated inputs (default 1)
  --seconds N    length of the measured phase (default: run_seconds of BENCHMARK.json)
  --trace 0|1    1 reports the per-layer ledger instead of the end-to-end metrics
  --out DIR      where each run appends its record, <W>.jsonl (default .bench_out)
  --smoke        smallest input set, no warm-up (tests)
  --list         print the workloads and metrics
  --bless        recompute the output fixtures under benchmark/fixtures/
  compare        judge CHANGE_DIR's records against PARENT_DIR's";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                cfg.seed = v.parse().map_err(|_| format!("invalid --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("invalid --seconds '{v}'"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("invalid --trace '{v}' (0 or 1)")),
                }
            }
            "--out" => cfg.out_dir = PathBuf::from(value()?),
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if spec::workload(&cfg.workload).is_none() {
        return Err(format!("unknown or missing --workload '{}'", cfg.workload));
    }
    Ok(cfg)
}

/// The checkout's git revision, looked up without leaving it.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") if args.len() == 1 => {
            print!("{}", spec::list_text());
            return ExitCode::SUCCESS;
        }
        Some("--bless") if args.len() == 1 => {
            return match workloads::bless() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("compare") if args.len() == 3 => {
            return match compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rev = git_rev();
    // The answer store stamps itself with the git revision, which spawns
    // `git rev-parse` and `git status` during set-up. The benchmark's
    // store never leaves memory, so point git at nothing: set-up time
    // must not depend on the state of the checkout's working tree.
    std::env::set_var("GIT_DIR", cfg.out_dir.join("no-git-dir"));
    rayon::ThreadPoolBuilder::new()
        .num_threads(run::RAYON_THREADS)
        .build_global()
        .expect("configure the rayon pool");
    let manifest = Manifest::collect(rev);
    let report = workloads::run(&cfg);
    if run::emit(&cfg, &manifest, &report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
