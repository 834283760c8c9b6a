//! The one flag table of the `experiments` binary.
//!
//! Every flag is declared here exactly once: its name, its value
//! placeholder, its help line, and the parser that both converts and
//! validates its value. A [`Command`] lists the flags it takes (shared
//! groups such as [`TELEMETRY`] are declared once and reused) and may
//! give a flag its own default; the parser and each command's `--help`
//! work from that list alone.

use experiments::ExperimentScale;
use gpu_sim::DeviceConfig;
use std::any::Any;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use stencil_core::{StencilDescriptor, StencilDim};

/// One command-line flag.
pub struct Flag<T: 'static> {
    pub name: &'static str,
    /// One placeholder word per value the flag takes; empty for a switch.
    pub value: &'static str,
    pub help: &'static str,
    /// Converts and validates one value; the error names the value.
    pub parse: fn(&str) -> Result<T, String>,
}

/// A [`Flag`] with its value type erased, so that one command can list
/// flags of different types.
pub trait AnyFlag: Sync {
    fn name(&self) -> &'static str;
    fn value(&self) -> &'static str;
    fn help(&self) -> &'static str;
    /// Parse every value given to the flag into a boxed `Vec<T>`.
    fn parse_all(&self, raw: &[String]) -> Result<Box<dyn Any>, String>;
}

impl<T: 'static> AnyFlag for Flag<T> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn value(&self) -> &'static str {
        self.value
    }
    fn help(&self) -> &'static str {
        self.help
    }
    fn parse_all(&self, raw: &[String]) -> Result<Box<dyn Any>, String> {
        let values: Vec<T> = raw
            .iter()
            .map(|v| (self.parse)(v))
            .collect::<Result<_, _>>()?;
        Ok(Box::new(values))
    }
}

/// A flag as one command takes it.
pub struct Arg {
    pub flag: &'static dyn AnyFlag,
    /// The value used when the flag is absent; shown in `--help`.
    pub default: Option<&'static str>,
}

/// Take `flag` with no default.
pub const fn arg(flag: &'static dyn AnyFlag) -> Arg {
    Arg {
        flag,
        default: None,
    }
}

/// Take `flag`, defaulting to `value`.
pub const fn default(flag: &'static dyn AnyFlag, value: &'static str) -> Arg {
    Arg {
        flag,
        default: Some(value),
    }
}

/// One subcommand (or, with an empty name, the default command).
pub struct Command {
    pub name: &'static str,
    /// A one-line summary, then (after a blank line) the help body.
    pub about: &'static str,
    /// One placeholder word per positional argument.
    pub positional: &'static str,
    pub flags: &'static [&'static [Arg]],
    pub run: fn(&Matches) -> Result<i32, String>,
}

impl Command {
    /// The name errors and usage lines call this command by.
    pub fn display(&self) -> String {
        match self.name {
            "" => "experiments".to_string(),
            name => format!("experiments {name}"),
        }
    }

    pub fn args(&self) -> impl Iterator<Item = &'static Arg> {
        self.flags.iter().flat_map(|group| group.iter())
    }
}

/// A parsed command line: every flag given or defaulted, and the
/// positional arguments.
pub struct Matches {
    pub command: &'static Command,
    values: BTreeMap<&'static str, Box<dyn Any>>,
    pub positional: Vec<String>,
}

impl Matches {
    /// Whether a switch was given.
    pub fn on(&self, flag: &Flag<()>) -> bool {
        self.values.contains_key(flag.name)
    }

    /// Every value of a flag (a switch or an absent flag has none).
    pub fn all<T: 'static>(&self, flag: &Flag<T>) -> &[T] {
        self.values.get(flag.name).map_or(&[], |v| {
            v.downcast_ref::<Vec<T>>()
                .expect("a flag name has one value type")
        })
    }

    /// The flag's value, given or defaulted.
    pub fn opt<T: Clone + 'static>(&self, flag: &Flag<T>) -> Option<T> {
        self.all(flag).first().cloned()
    }

    /// The flag's value; an error when it was neither given nor defaulted.
    pub fn get<T: Clone + 'static>(&self, flag: &Flag<T>) -> Result<T, String> {
        self.opt(flag)
            .ok_or_else(|| format!("{}: {} is required", self.command.display(), flag.name))
    }
}

/// Parse `args` (everything after the subcommand name) for `command`.
/// Later occurrences of a flag replace earlier ones.
pub fn parse(command: &'static Command, args: &[String]) -> Result<Matches, String> {
    let cmd = command.display();
    let mut values = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            positional.push(a.clone());
            continue;
        }
        let flag = command
            .args()
            .find(|arg| arg.flag.name() == a)
            .ok_or_else(|| format!("{cmd}: unknown flag '{a}' (try: {cmd} --help)"))?
            .flag;
        let n = flag.value().split_whitespace().count();
        let raw: Vec<String> = it.by_ref().take(n).cloned().collect();
        if raw.len() < n {
            return Err(format!("{cmd}: {a} needs a value ({})", flag.value()));
        }
        let parsed = flag
            .parse_all(&raw)
            .map_err(|e| format!("{cmd}: {a}: {e}"))?;
        values.insert(flag.name(), parsed);
    }
    let expected = command.positional.split_whitespace().count();
    if positional.len() != expected {
        return Err(match command.positional {
            "" => format!("{cmd}: unexpected argument '{}'", positional[0]),
            p => format!("{cmd}: expected {p}"),
        });
    }
    for arg in command.args() {
        if let (Some(d), false) = (arg.default, values.contains_key(arg.flag.name())) {
            let parsed = arg.flag.parse_all(&[d.to_string()]);
            values.insert(arg.flag.name(), parsed.expect("a declared default parses"));
        }
    }
    Ok(Matches {
        command,
        values,
        positional,
    })
}

/// The `--help` text of `command`, rendered from its flag list; the
/// default command also lists `subcommands`.
pub fn help(command: &Command, subcommands: &[Command]) -> String {
    const COL: usize = 24;
    let indent = format!("\n{:width$}", "", width = COL + 2);
    let mut out = format!("{}\n\nUSAGE: {} [FLAGS]", command.about, command.display());
    if !command.positional.is_empty() {
        out += &format!(" {}", command.positional);
    }
    out += "\n\nFLAGS:";
    for arg in command.args() {
        let f = arg.flag;
        let mut text = f.help().to_string();
        if let Some(d) = arg.default {
            let last = text.rsplit('\n').next().unwrap_or_default().len();
            text += if last + d.len() > 44 { "\n" } else { " " };
            text += &format!("(default: {d})");
        }
        let lhs = format!("{} {}", f.name(), f.value());
        let lhs = lhs.trim_end();
        let sep = if lhs.len() < COL {
            " ".repeat(COL - lhs.len())
        } else {
            indent.clone()
        };
        out += &format!("\n  {lhs}{sep}{}", text.replace('\n', &indent));
    }
    if command.name.is_empty() {
        out += "\n\nSUBCOMMANDS (see: experiments SUBCOMMAND --help):";
        for sub in subcommands.iter().filter(|c| !c.name.is_empty()) {
            let summary = sub.about.lines().next().unwrap_or_default();
            out += &format!("\n  {:<width$}{summary}", sub.name, width = COL);
        }
    }
    out
}

// ---- value parsers -----------------------------------------------------

fn switch(_: &str) -> Result<(), String> {
    Ok(())
}

fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

fn int<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("expected a non-negative integer, got '{v}'"))
}

fn positive<T: std::str::FromStr + Default + PartialEq>(v: &str) -> Result<T, String> {
    int(v)
        .ok()
        .filter(|n| *n != T::default())
        .ok_or_else(|| format!("expected an integer >= 1, got '{v}'"))
}

fn non_negative(v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|f: &f64| f.is_finite() && *f >= 0.0)
        .ok_or_else(|| format!("expected a finite number >= 0, got '{v}'"))
}

fn fraction(v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|b| (0.0..1.0).contains(b))
        .ok_or_else(|| format!("expected a fraction in [0, 1), got '{v}'"))
}

fn scale(v: &str) -> Result<ExperimentScale, String> {
    ExperimentScale::parse(v).ok_or_else(|| format!("unknown scale '{v}'"))
}

fn dims(v: &str) -> Result<Vec<StencilDim>, String> {
    use StencilDim::*;
    Ok(match v {
        "1d" => vec![D1],
        "2d" => vec![D2],
        "3d" => vec![D3],
        "all" => vec![D2, D3],
        "all+1d" => vec![D1, D2, D3],
        _ => return Err(format!("unknown dims '{v}'")),
    })
}

fn level(v: &str) -> Result<obs::Level, String> {
    obs::Level::parse(v).ok_or_else(|| format!("unknown log level '{v}'"))
}

fn addr(v: &str) -> Result<SocketAddr, String> {
    v.parse().map_err(|e| format!("invalid address '{v}': {e}"))
}

/// A device preset by name (`gtx980`, `GTX 980`, `titanx`, ...).
fn device(name: &str) -> Result<DeviceConfig, String> {
    DeviceConfig::preset(name).ok_or_else(|| {
        format!(
            "unknown device '{name}' (known: {})",
            DeviceConfig::preset_names().join(", ")
        )
    })
}

/// A named stencil descriptor (case-insensitive): the paper's presets
/// and the zoo alike.
fn stencil(name: &str) -> Result<StencilDescriptor, String> {
    StencilDescriptor::from_name(name).ok_or_else(|| {
        let known: Vec<String> = StencilDescriptor::named()
            .into_iter()
            .map(|d| d.name)
            .collect();
        format!("unknown stencil '{name}' (known: {})", known.join(", "))
    })
}

fn list<T>(v: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(|s| item(s.trim())).collect()
}

fn devices(v: &str) -> Result<Vec<DeviceConfig>, String> {
    list(v, device)
}

fn stencils(v: &str) -> Result<Vec<StencilDescriptor>, String> {
    list(v, stencil)
}

fn positives(v: &str) -> Result<Vec<usize>, String> {
    list(v, positive)
}

/// Extents like `4096x4096xT1024`: the space extents, then the time
/// extent (its `T` marker is optional).
fn size(v: &str) -> Result<Vec<usize>, String> {
    v.split('x')
        .map(|p| {
            let p = p.strip_prefix('T').unwrap_or(p);
            p.parse().map_err(|_| format!("bad extent '{p}' in '{v}'"))
        })
        .collect()
}

/// Extents like `8,16,128`.
fn extents(v: &str) -> Result<Vec<usize>, String> {
    list(v, |p| p.parse().map_err(|_| format!("bad extent '{p}'")))
}

// ---- the flags ---------------------------------------------------------

/// Declare each flag as `IDENT: Type = "--name" "VALUE" parser, "help";`.
/// A switch has an empty value placeholder; a multi-line help continues
/// in the help column.
macro_rules! flags {
    ($($id:ident: $t:ty = $name:literal $value:literal $parse:expr, $help:expr;)*) => {
        $(pub static $id: Flag<$t> = Flag { name: $name, value: $value, help: $help, parse: $parse };)*
    };
}

flags! {
    ALL: () = "--all" "" switch, "run --table2..--table4 and --fig3..--fig6";
    TABLE2: () = "--table2" "" switch, "GPU configurations (paper Table 2)";
    TABLE3: () = "--table3" "" switch, "measured L, tau_sync, T_sync (Table 3)";
    TABLE4: () = "--table4" "" switch, "measured Citer per benchmark (Table 4)";
    FIG3: () = "--fig3" "" switch, "model validation + RMSE bands (Figure 3, Section 5.3)";
    FIG4: () = "--fig4" "" switch, "Talg surface for Heat2D (Figure 4)";
    FIG5: () = "--fig5" "" switch, "Gradient2D candidate scatter (Figure 5)";
    FIG6: () = "--fig6" "" switch, "strategy GFLOPS comparison (Figure 6)";
    ZOO: () = "--zoo" "" switch, "run the non-paper zoo stencils (radius-2 star, asymmetric\n\
        3D advection) through the Figure 3 + Figure 6 pipelines;\n\
        exits nonzero if any within-10% candidate set is empty";
    EXHAUSTIVE: () = "--exhaustive" "" switch, "add the Exhaustive strategy to --fig6";
    ABLATION: () = "--ablation" "" switch, "model-variant + machine-effect ablations (extensions)";
    SOLVER: () = "--solver" "" switch, "heuristic solvers vs exhaustive sweep (Section 6.1)";
    COMPARE_WAVEFRONT: () = "--compare-wavefront" "" switch,
        "time tiling vs classic wavefront-parallel schedule";
    BENCH_EXEC: () = "--bench-exec" "" switch,
        "executor fast-path + memoization benchmark (writes BENCH_exec.json)";
    PARALLEL_EXEC: () = "--parallel-exec" "" switch,
        "with --bench-exec: also time the pooled wavefront-parallel\n\
        executor against the sequential fast path (threads >= 2)";
    CHECK_ROOFLINE: () = "--check-roofline" "" switch,
        "implies --bench-exec; exit nonzero unless every exec row's\n\
        measured/predicted throughput ratio sits in the tolerance\n\
        band (the roofline self-model CI gate)";
    SCALE: ExperimentScale = "--scale" "paper|reduced|smoke" scale, "problem-size grids";
    DIMS: Vec<StencilDim> = "--dims" "1d|2d|3d|all|all+1d" dims, "dimensionalities for --fig3";
    OUT: String = "--out" "PATH" text, "where the command writes its output";
    TRACE_OUT: String = "--trace-out" "PATH" text,
        "write a Chrome trace-event JSON file (open in\n\
        chrome://tracing or https://ui.perfetto.dev): driver\n\
        phase spans plus, with --fig6, the simulated two-pipe\n\
        SM schedule of the chosen configuration";

    THREADS: usize = "--threads" "N" positive, "size the global rayon pool (default: all cores);\n\
        results are bit-identical for any N";
    LOG_OUT: String = "--log-out" "PATH" text, "write the run's structured telemetry as JSONL";
    LOG_LEVEL: obs::Level = "--log-level" "quiet|info|debug" level,
        "event verbosity; counters/histograms/spans are always collected";
    METRICS_OUT: String = "--metrics-out" "PATH" text,
        "stream one JSON metrics-summary line per interval\n\
        (counters, gauges, histogram quantiles); a .prom\n\
        extension writes Prometheus text exposition instead";
    METRICS_INTERVAL_MS: u64 = "--metrics-interval-ms" "N" positive, "emitter period";

    QUERIES: String = "--queries" "PATH" text, "read queries from PATH instead of stdin";
    LISTEN: String = "--listen" "ADDR" text, "serve over TCP (e.g. 127.0.0.1:7077; port 0 picks\n\
        an ephemeral port) until killed";
    PORT_FILE: String = "--port-file" "PATH" text,
        "write the bound port number to PATH once listening\n\
        (readiness signal for scripts and CI)";
    STORE: String = "--store" "PATH" text, "the persistent answer store (see: experiments precompute)";
    STORE_STALE_OK: () = "--store-stale-ok" "" switch,
        "accept a store from a different git or calibration\n\
        revision (stale entries are re-derived, not served)";
    CALIB: String = "--calib" "PATH" text, "apply a calibration store's per-segment corrections\n\
        before ranking (see: experiments calibrate)";
    MEM_CAP: usize = "--mem-cap" "N" positive, "in-memory LRU capacity";
    SAMPLES: usize = "--samples" "N" positive, "Citer micro-benchmark samples, at least 1";
    ACCURACY_LOG: String = "--accuracy-log" "PATH" text,
        "append (predicted, measured) pairs from validated queries";

    WORKERS: usize = "--workers" "N" positive, "socket worker threads (default: core count)";
    QUEUE_CAP: usize = "--queue-cap" "N" positive, "shared admission queue bound (default: 1024)";
    CONN_QUEUE_CAP: usize = "--conn-queue-cap" "N" positive,
        "per-connection outstanding-line bound (default: 128)";
    WINDOW_US: u64 = "--window-us" "N" int, "miss coalescing window in us (default: 500)";
    MAX_BATCH: usize = "--max-batch" "N" positive, "max requests per worker batch (default: 64)";

    DEVICES: Vec<DeviceConfig> = "--devices" "a,b" devices, "device presets";
    STENCILS: Vec<StencilDescriptor> = "--stencils" "x,y" stencils, "stencil kinds";
    SIZES: Vec<usize> = "--sizes" "s1,s2" positives,
        "per-dimension extents; a 2D stencil at 1024 means 1024 x 1024";
    TIMES: Vec<usize> = "--times" "t1,t2" positives, "time horizons";
    WITHIN: f64 = "--within" "F" non_negative, "candidate band fraction (must match the queries\n\
        the server will see)";
    TOP_N: usize = "--top-n" "N" positive, "candidates per answer (ditto)";

    LOG: String = "--log" "PATH" text, "the JSONL log to read: the accuracy log (calibrate,\n\
        .1 rollover included) or a --log-out file (trace-check)";
    MIN_EVIDENCE: u64 = "--min-evidence" "N" positive, "pairs before a factor is served";
    MERGE: String = "--merge" "PATH" text, "fold an existing store's evidence into the fit\n\
        (running sums add; the new gate wins)";
    FREEZE: () = "--freeze" "" switch, "mark the store frozen: later calibrate runs\n\
        refuse to fold more evidence into it";
    INSPECT: String = "--inspect" "PATH" text, "print a store's segments and factors, then exit\n\
        (no fitting)";
    COMPARE: String = "--compare" "PRE POST" text,
        "compare per-segment RMSE of two accuracy logs;\n\
        exit 0 iff every shared segment improved or held\n\
        and at least one segment is shared (no fitting)";

    STENCIL: StencilDescriptor = "--stencil" "K" stencil,
        "stencil name (required): jacobi2d, heat3d, lap4_2d, ...";
    SIZE: Vec<usize> = "--size" "S" size, "problem size (required): space extents, then time,\n\
        like 4096x4096xT1024";
    DEVICE: DeviceConfig = "--device" "D" device, "device preset: gtx980 or titanx";
    TILE: Vec<usize> = "--tile" "T" extents,
        "tile sizes (required): t_T first, then t_S1.., like 8,16,128";
    TILE2: Vec<usize> = "--tile2" "T" extents, "the second tile sizes to compare (required)";
    LAUNCH: Vec<usize> = "--launch" "N" extents, "thread-block shape like 1,128 (default: the\n\
        empirical launch for the tile)";
    KERNEL: usize = "--kernel" "I" int, "index of the wavefront kernel to trace";

    REQUESTS: usize = "--requests" "N" positive, "total requests to replay";
    CONNECTIONS: usize = "--connections" "N" positive, "concurrent client connections";
    PIPELINE: usize = "--pipeline" "N" positive, "max in-flight requests per connection";
    ZIPF: f64 = "--zipf" "S" non_negative, "key-skew exponent, 0 = uniform";
    SEED: u64 = "--seed" "N" int, "deterministic sampling seed";
    ADDR: SocketAddr = "--addr" "HOST:PORT" addr, "replay against an already-running server\n\
        (client-side metrics only)";
    BAND: f64 = "--band" "FRAC" fraction, "allowed fall below the reference ratio";
    TRACE: String = "--trace" "PATH" text, "a Chrome trace-event file to validate";
}

// ---- shared groups -----------------------------------------------------

pub static TELEMETRY: &[Arg] = &[
    arg(&THREADS),
    arg(&LOG_OUT),
    default(&LOG_LEVEL, "info"),
    arg(&METRICS_OUT),
    default(&METRICS_INTERVAL_MS, "1000"),
];

pub static SERVER: &[Arg] = &[
    arg(&WORKERS),
    arg(&QUEUE_CAP),
    arg(&CONN_QUEUE_CAP),
    arg(&WINDOW_US),
    arg(&MAX_BATCH),
];

/// The precompute grid and the serve-bench key universe: the same
/// defaults, so a default store covers the default replay.
pub static GRID: &[Arg] = &[
    default(&DEVICES, "GTX 980"),
    default(&STENCILS, "Heat2D,Jacobi2D"),
    default(&SIZES, "512,1024,2048"),
    default(&TIMES, "64,128"),
];

/// `--samples` defaulting to [`advisor::CITER_SAMPLES`], for every
/// command that measures `Citer` (a test keeps the two equal).
pub const SAMPLES_ARG: Arg = default(&SAMPLES, "16");

/// The (device, stencil, size) workload of the model commands.
pub static WORKLOAD: &[Arg] = &[
    arg(&STENCIL),
    arg(&SIZE),
    default(&DEVICE, "gtx980"),
    SAMPLES_ARG,
];

/// The server settings: the defaults, overridden by the [`SERVER`] flags given.
pub fn server_config(m: &Matches) -> advisor::ServerConfig {
    let d = advisor::ServerConfig::default();
    advisor::ServerConfig {
        workers: m.opt(&WORKERS).unwrap_or(d.workers),
        queue_cap: m.opt(&QUEUE_CAP).unwrap_or(d.queue_cap),
        conn_queue_cap: m.opt(&CONN_QUEUE_CAP).unwrap_or(d.conn_queue_cap),
        batch_window: m
            .opt(&WINDOW_US)
            .map_or(d.batch_window, std::time::Duration::from_micros),
        max_batch: m.opt(&MAX_BATCH).unwrap_or(d.max_batch),
    }
}
