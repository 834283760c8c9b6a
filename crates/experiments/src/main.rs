//! `experiments`: the one command line of the reproduction.
//!
//! Without a subcommand it regenerates the paper's tables and figures
//! (`experiments --fig6 --scale smoke`). The model commands (`predict`,
//! `simulate`, `analyze`, `tune`, `params`, `compare`, `trace`) run one
//! stencil configuration; `serve`, `precompute` and `serve-bench` run and
//! load-test the tile-size advisory service; `calibrate`, `bench-diff`
//! and `trace-check` work on the files those leave behind.
//!
//! Every flag is declared once, in [`cli::flags`]; `experiments --help`
//! and `experiments COMMAND --help` list each command's flags.

mod cli;

use cli::flags::{
    self, arg, default, Command, Matches, ACCURACY_LOG, ADDR, BAND, CALIB, CONNECTIONS, GRID,
    KERNEL, LAUNCH, LISTEN, LOG, LOG_OUT, MEM_CAP, MERGE, MIN_EVIDENCE, OUT, PIPELINE, PORT_FILE,
    QUERIES, REQUESTS, SAMPLES_ARG, SEED, SERVER, STORE, STORE_STALE_OK, TELEMETRY, THREADS, TILE,
    TILE2, TOP_N, TRACE, WITHIN, WORKLOAD, ZIPF,
};
use cli::{driver, model, serve, tools};
use std::io::Write as _;

/// Every command; the first, unnamed one is the default.
static COMMANDS: &[Command] = &[
    Command {
        name: "",
        about: "Regenerate the tables and figures of the PPoPP'17 stencil time-model paper.",
        positional: "",
        flags: &[
            &[
                arg(&flags::ALL),
                arg(&flags::TABLE2),
                arg(&flags::TABLE3),
                arg(&flags::TABLE4),
                arg(&flags::FIG3),
                arg(&flags::FIG4),
                arg(&flags::FIG5),
                arg(&flags::FIG6),
                arg(&flags::ZOO),
                default(&flags::SCALE, "paper"),
                default(&flags::DIMS, "all"),
                arg(&flags::EXHAUSTIVE),
                arg(&flags::ABLATION),
                arg(&flags::SOLVER),
                arg(&flags::COMPARE_WAVEFRONT),
                arg(&flags::BENCH_EXEC),
                arg(&flags::PARALLEL_EXEC),
                arg(&flags::CHECK_ROOFLINE),
                default(&OUT, "results"),
                arg(&flags::TRACE_OUT),
            ],
            TELEMETRY,
        ],
        run: driver::run,
    },
    Command {
        name: "predict",
        about: "Evaluate the analytical model T_alg for one tile size.",
        positional: "",
        flags: &[WORKLOAD, &[arg(&TILE)]],
        run: |m| print(model::predict(m)),
    },
    Command {
        name: "simulate",
        about: "Run one configuration on the simulated machine.",
        positional: "",
        flags: &[WORKLOAD, &[arg(&TILE), arg(&LAUNCH)]],
        run: |m| print(model::simulate(m)),
    },
    Command {
        name: "analyze",
        about: "Print the tiling-plan statistics of one tile size.",
        positional: "",
        flags: &[WORKLOAD, &[arg(&TILE)]],
        run: |m| print(model::analyze(m)),
    },
    Command {
        name: "tune",
        about: "Sweep the model, run the within-10% candidates, report the best (the paper's method).",
        positional: "",
        flags: &[WORKLOAD],
        run: |m| print(model::tune(m)),
    },
    Command {
        name: "params",
        about: "Print the measured model parameters (Tables 3 and 4) of one device and stencil.",
        positional: "",
        flags: &[WORKLOAD],
        run: |m| print(model::params(m)),
    },
    Command {
        name: "compare",
        about: "Predict and simulate two tile sizes side by side.",
        positional: "",
        flags: &[WORKLOAD, &[arg(&TILE), arg(&TILE2)]],
        run: |m| print(model::compare(m)),
    },
    Command {
        name: "trace",
        about: "Render the two-pipe schedule of one kernel as per-SM lanes.",
        positional: "",
        flags: &[WORKLOAD, &[arg(&TILE), arg(&LAUNCH), default(&KERNEL, "1")]],
        run: |m| print(model::trace(m)),
    },
    Command {
        name: "serve",
        about: "Tile-size advisory service over JSON lines or a TCP socket.\n\n\
                Reads one JSON query object per line from stdin (or --queries) to\n\
                end-of-input, answers the whole batch (duplicate queries are\n\
                computed once) and writes one answer line per query on stdout, in\n\
                input order. With --listen, runs the concurrent socket server\n\
                instead: store and memory-cache hits answered on each connection's\n\
                reader, misses coalesced across clients on a worker pool, bounded\n\
                queues with explicit 'overloaded' shedding. With --store, hits are\n\
                pure lookup and every computed answer is appended to the store\n\
                (created when missing; nothing is appended to a stale store);\n\
                without it, answers live in memory only. See README.md, sections\n\
                \"Advisor service\" and \"Serving at scale\".",
        positional: "",
        flags: &[
            &[
                arg(&QUERIES),
                arg(&LISTEN),
                arg(&PORT_FILE),
                arg(&STORE),
                arg(&STORE_STALE_OK),
                arg(&CALIB),
                default(&MEM_CAP, "256"),
                SAMPLES_ARG,
                default(&ACCURACY_LOG, "results/accuracy_log.jsonl"),
            ],
            SERVER,
            TELEMETRY,
        ],
        run: serve::serve,
    },
    Command {
        name: "precompute",
        about: "Sweep the model over a grid into the answer store `serve --store` loads.\n\n\
                Sweeps the Eqn-31 model over a (device, stencil, size, time) grid and\n\
                writes the answers to --out; steady-state serving from it is pure\n\
                lookup with zero model evaluations. The store records the git\n\
                revision (and calibration revision, if any) that computed it;\n\
                serving under a different one requires --store-stale-ok.",
        positional: "",
        flags: &[
            &[default(&OUT, "results/advisor_store.jsonl")],
            GRID,
            &[
                default(&WITHIN, "0.10"),
                default(&TOP_N, "10"),
                SAMPLES_ARG,
                arg(&THREADS),
                arg(&CALIB),
            ],
        ],
        run: serve::precompute,
    },
    Command {
        name: "calibrate",
        about: "Fit model corrections from the accuracy log into a calibration store.\n\n\
                Each accuracy row whose measured/predicted ratio and memory-bound\n\
                attribution are usable feeds its (device, stencil, dim) segment's\n\
                Citer factor (compute-bound rows) or memory-term factor\n\
                (memory-bound rows). A factor is served only once it has at least\n\
                --min-evidence pairs; under-evidenced segments leave the model\n\
                untouched, bit for bit. `serve --calib` and `precompute --calib`\n\
                load the store written to --out.",
        positional: "",
        flags: &[&[
            default(&LOG, "results/accuracy_log.jsonl"),
            default(&OUT, "results/calib_store.jsonl"),
            default(&MIN_EVIDENCE, "8"),
            arg(&MERGE),
            arg(&flags::FREEZE),
            arg(&flags::INSPECT),
            arg(&flags::COMPARE),
        ]],
        run: tools::calibrate,
    },
    Command {
        name: "serve-bench",
        about: "Replay zipf-skewed requests against the socket server; write a BENCH_serve.json report.\n\n\
                Without --addr: a cold model-only baseline over every key of the\n\
                universe, then an answer store of it (or --store), then the replay\n\
                against an in-process server holding only that store, whose\n\
                counters must show zero model evaluations. The universe flags must\n\
                match the store's precompute grid. With --addr, replays against an\n\
                external server and the server-side counters read zero.",
        positional: "",
        flags: &[
            &[
                default(&REQUESTS, "100000"),
                default(&CONNECTIONS, "4"),
                default(&PIPELINE, "32"),
                default(&ZIPF, "1.1"),
                default(&SEED, "24301"),
            ],
            GRID,
            &[
                SAMPLES_ARG,
                arg(&THREADS),
                arg(&STORE),
                arg(&STORE_STALE_OK),
                arg(&ADDR),
            ],
            SERVER,
            &[default(&OUT, "BENCH_serve.json"), arg(&LOG_OUT)],
        ],
        run: serve::bench,
    },
    Command {
        name: "bench-diff",
        about: "Compare two benchmark reports on their machine-stable ratio metrics.\n\n\
                BENCH_exec.json rows gate on speedup, simd_speedup and\n\
                roofline_ratio; BENCH_serve.json gates on store_hit_rate,\n\
                answered_rate and warm_speedup. Exits 1 when any falls below\n\
                reference x (1 - band) or a reference row is missing, 2 on a\n\
                usage or parse error.",
        positional: "REFERENCE CURRENT",
        flags: &[&[default(&BAND, "0.6")]],
        run: tools::bench_diff,
    },
    Command {
        name: "trace-check",
        about: "Validate the driver's --trace-out and --log-out files.\n\n\
                A trace must be the object form with a traceEvents array, every\n\
                event with ph/pid/tid, every complete ('X') event with finite\n\
                ts/dur, and at least one such event. A log must be JSON objects\n\
                with a kind field, led by a meta line whose events/spans totals\n\
                match the body. Exits 1 on the first violation.",
        positional: "",
        flags: &[&[arg(&TRACE), arg(&LOG)]],
        run: tools::trace_check,
    },
];

/// The command named `name`.
fn command(name: &str) -> Option<&'static Command> {
    COMMANDS
        .iter()
        .find(|c| !c.name.is_empty() && c.name == name)
}

/// The `--help` text of `command`.
fn help(command: &Command) -> String {
    flags::help(command, COMMANDS)
}

/// Print a model command's report on stdout. A closed stdout (e.g.
/// piping into `head`) is not an error.
fn print(report: Result<String, String>) -> Result<i32, String> {
    let _ = writeln!(std::io::stdout(), "{}", report?);
    Ok(0)
}

/// Parse `argv` for its command, size the rayon pool, and run it.
fn run(command: &'static Command, argv: &[String]) -> Result<i32, String> {
    let m: Matches = flags::parse(command, argv)?;
    if let Some(n) = m.opt(&THREADS) {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure global thread pool");
    }
    (command.run)(&m)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().and_then(|a| command(a)) {
        Some(c) => (c, &argv[1..]),
        None => (&COMMANDS[0], &argv[..]),
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", help(command));
        return;
    }
    let code = run(command, rest).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one command line (no shell quoting) as `main` would.
    fn parse(line: &str) -> Result<Matches, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        match argv.first().and_then(|a| command(a)) {
            Some(c) => flags::parse(c, &argv[1..]),
            None => flags::parse(&COMMANDS[0], &argv),
        }
    }

    #[test]
    fn no_args_prints_usage() {
        let usage = help(&COMMANDS[0]);
        assert!(usage.contains("USAGE: experiments [FLAGS]"), "{usage}");
        assert!(usage.contains("  serve-bench "), "{usage}");
        assert!(!parse("").expect("no arguments parse").on(&flags::ALL));
        let err = parse("bogus").err().expect("a stray word is rejected");
        assert!(
            err.contains("experiments: unexpected argument 'bogus'"),
            "{err}"
        );
    }

    /// Every `experiments` invocation in `.github/workflows/ci.yml`.
    #[test]
    fn every_ci_invocation_parses() {
        let lines = [
            "--fig6 --scale smoke --out /tmp/results-smoke --trace-out /tmp/trace.json --log-out /tmp/run.jsonl",
            "trace-check --trace /tmp/trace.json --log /tmp/run.jsonl",
            "serve --queries ci/advisor_smoke.jsonl --store /tmp/advisor_store.jsonl --accuracy-log /tmp/accuracy.jsonl --log-out /tmp/serve1.jsonl",
            "predict --stencil jacobi2d --size 512x512xT64 --tile 8,8,128",
            "tune --stencil heat2d --size 512x512xT64",
            "serve --queries ci/advisor_smoke.jsonl --log-out /nonexistent/dir/x.jsonl",
            "--bench-exec --parallel-exec --scale smoke --threads 2 --out /tmp/psmoke --log-out /tmp/parallel.jsonl",
            "--check-roofline --scale reduced",
            "--check-roofline --scale smoke --out /tmp/rf-forced",
            "serve-bench --requests 100000 --connections 4 --log-out /tmp/serve_bench.jsonl",
            "bench-diff ci/serve_reference.json BENCH_serve.json --band 0.6",
            "precompute --out /tmp/store.jsonl",
            "serve --listen 127.0.0.1:0 --port-file /tmp/port --store /tmp/store.jsonl",
            "serve --queries ci/calib_smoke.jsonl --accuracy-log /tmp/calsmoke/pre.jsonl --log-out /tmp/calsmoke/pre_telemetry.jsonl",
            "calibrate --log /tmp/calsmoke/pre.jsonl --out /tmp/calsmoke/calib_store.jsonl",
            "serve --queries ci/calib_smoke.jsonl --calib /tmp/calsmoke/calib_store.jsonl --accuracy-log /tmp/calsmoke/post.jsonl --log-out /tmp/calsmoke/post_telemetry.jsonl",
            "calibrate --compare /tmp/calsmoke/pre.jsonl /tmp/calsmoke/post.jsonl",
            "--zoo --scale smoke --out /tmp/zoo-results --log-out /tmp/zoo.jsonl",
            "--check-roofline --scale smoke --out /tmp/zoo-roofline",
            "serve --queries /tmp/zoo_queries.jsonl",
            "serve --queries /tmp/zoo_bad.jsonl",
            "bench-diff ci/bench_reference.json ci/bench_reference.json",
            "--bench-exec --scale reduced --out /tmp/bd-results",
            "bench-diff ci/bench_reference.json BENCH_exec.json --band 0.6",
        ];
        for line in lines {
            if let Err(e) = parse(line) {
                panic!("{line}: {e}");
            }
        }
        let m = parse("calibrate --compare a b").unwrap();
        assert_eq!(m.all(&flags::COMPARE), ["a", "b"]);
        let m = parse("serve-bench --requests 7 --zipf 0").unwrap();
        assert_eq!(m.get(&REQUESTS), Ok(7));
    }

    /// Every command that measures `Citer` defaults `--samples` to the
    /// advisor's sample count.
    #[test]
    fn samples_default_to_the_advisors_count() {
        for line in [
            "predict --stencil heat2d --size 64x64xT8 --tile 2,4,32",
            "serve",
            "precompute",
            "serve-bench",
        ] {
            let m = parse(line).unwrap();
            assert_eq!(m.get(&flags::SAMPLES), Ok(advisor::CITER_SAMPLES), "{line}");
        }
    }

    #[test]
    fn errors_name_the_command_and_the_flag() {
        let cases = [
            (
                "serve --frobnicate",
                "experiments serve: unknown flag '--frobnicate'",
            ),
            ("--figure6", "experiments: unknown flag '--figure6'"),
            (
                "simulate --threads 1,128",
                "experiments simulate: unknown flag '--threads'",
            ),
            (
                "serve --queries",
                "experiments serve: --queries needs a value",
            ),
            (
                "calibrate --compare pre",
                "experiments calibrate: --compare needs a value",
            ),
            (
                "serve --workers 0",
                "experiments serve: --workers: expected an integer >= 1",
            ),
            (
                "precompute --devices voodoo2",
                "experiments precompute: --devices: unknown device",
            ),
            (
                "tune --samples 0",
                "experiments tune: --samples: expected an integer >= 1",
            ),
            (
                "bench-diff a b --band 1.5",
                "experiments bench-diff: --band: expected a fraction",
            ),
            (
                "bench-diff a.json",
                "experiments bench-diff: expected REFERENCE CURRENT",
            ),
            (
                "serve-bench --addr nowhere",
                "experiments serve-bench: --addr: invalid address",
            ),
        ];
        for (line, want) in cases {
            let err = parse(line).err().unwrap_or_else(|| panic!("{line} parsed"));
            assert!(err.starts_with(want), "{line}: {err}");
        }
    }

    #[test]
    fn help_lists_exactly_the_declared_flags() {
        for c in COMMANDS {
            let text = help(c);
            let listed: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix("  --"))
                .map(|l| l.split_whitespace().next().unwrap_or_default())
                .collect();
            let declared: Vec<&str> = c.args().map(|a| &a.flag.name()[2..]).collect();
            assert_eq!(listed, declared, "{}", c.display());
        }
    }

    #[test]
    fn one_declaration_per_flag_name_and_defaults_parse() {
        let mut seen = std::collections::BTreeMap::new();
        for c in COMMANDS {
            let mut names: Vec<&str> = c.args().map(|a| a.flag.name()).collect();
            names.sort_unstable();
            let count = names.len();
            names.dedup();
            assert_eq!(names.len(), count, "{} lists a flag twice", c.display());
            for a in c.args() {
                let ptr = a.flag as *const dyn flags::AnyFlag as *const ();
                assert_eq!(
                    *seen.entry(a.flag.name()).or_insert(ptr),
                    ptr,
                    "{}",
                    a.flag.name()
                );
            }
            // `parse` fills in, and so parses, every default.
            let positional: Vec<String> =
                c.positional.split_whitespace().map(String::from).collect();
            flags::parse(c, &positional).unwrap();
        }
        // Defaults that restate library constants.
        assert_eq!(
            parse("serve-bench").unwrap().get(&SEED),
            Ok(experiments::SEED)
        );
        let min_evidence = parse("calibrate").unwrap().get(&MIN_EVIDENCE);
        assert_eq!(min_evidence, Ok(calib::DEFAULT_MIN_EVIDENCE));
        let band = parse("bench-diff a b").unwrap().get(&BAND);
        assert_eq!(band, Ok(experiments::benchdiff::DEFAULT_BAND));
        assert_eq!(
            parse("").unwrap().get(&OUT).unwrap(),
            experiments::DEFAULT_OUT_DIR
        );
    }
}
