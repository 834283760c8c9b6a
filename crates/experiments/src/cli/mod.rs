//! The commands of the `experiments` binary and what they share: the
//! flag table ([`flags`]) and the telemetry runtime ([`Telemetry`]).

pub mod driver;
pub mod flags;
pub mod model;
pub mod serve;
pub mod tools;

use flags::{Flag, Matches, LOG_LEVEL, LOG_OUT, METRICS_INTERVAL_MS, METRICS_OUT};
use std::fs::File;
use std::io::Write as _;
use std::sync::Arc;

/// Create the file a path flag names; the error names the flag.
pub fn create(flag: &Flag<String>, path: &str) -> Result<File, String> {
    File::create(path).map_err(|e| format!("{} {path}: {e}", flag.name))
}

/// The telemetry of one run, set up the same way by the driver, `serve`
/// and `serve-bench`: the sharded recorder, the `--metrics-out` emitter
/// and the `--log-out` export.
pub struct Telemetry {
    pub recorder: Arc<obs::ShardedRecorder>,
    log_out: Option<File>,
    emitter: Option<obs::MetricsEmitter>,
}

impl Telemetry {
    /// Build the recorder and create the `--log-out` and `--metrics-out`
    /// files. Both are created before any work, so a bad path ends the
    /// run at its start rather than after it.
    pub fn open(m: &Matches) -> Result<Telemetry, String> {
        let level = m.opt(&LOG_LEVEL).unwrap_or(obs::Level::Quiet);
        let recorder = Arc::new(obs::ShardedRecorder::new(level));
        let log_out = m.opt(&LOG_OUT).map(|p| create(&LOG_OUT, &p)).transpose()?;
        let emitter = match m.opt(&METRICS_OUT) {
            Some(path) => {
                let rec = recorder.clone();
                let period = std::time::Duration::from_millis(m.get(&METRICS_INTERVAL_MS)?);
                let snap = Box::new(move || rec.snapshot());
                let emitter = obs::MetricsEmitter::start(path.clone().into(), period, snap)
                    .map_err(|e| format!("{} {path}: {e}", METRICS_OUT.name))?;
                Some(emitter)
            }
            None => None,
        };
        Ok(Telemetry {
            recorder,
            log_out,
            emitter,
        })
    }

    /// Install the recorder. It is installed even when no export flag
    /// was given: it arms the flight recorder, which dumps into
    /// `flight_dir` on a panic.
    pub fn install(self, flight_dir: &str) -> Telemetry {
        obs::install(self.recorder.clone());
        obs::flight::install_panic_hook(flight_dir.into());
        self
    }

    /// Stop the emitter (it writes its final line) and detach the
    /// recorder, so that the exports snapshot a store nothing still
    /// appends to; then write `--log-out`.
    pub fn finish(self) -> Result<obs::Snapshot, String> {
        if let Some(em) = self.emitter {
            em.stop();
        }
        obs::uninstall();
        if let Some(file) = self.log_out {
            let mut w = std::io::BufWriter::new(file);
            self.recorder
                .write_jsonl(&mut w)
                .and_then(|()| w.flush())
                .map_err(|e| format!("{}: {e}", LOG_OUT.name))?;
        }
        Ok(self.recorder.snapshot())
    }
}
