//! The server side: how every engine in the benchmark is built, and the
//! `serve` child process the socket runs talk to.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dse::prelude::{CdoId, DesignSpace};
use dse_library::synthetic::{synthetic_core_space, synthetic_cores, CoreSpaceSpec};
use dse_library::ReuseLibrary;
use dse_server::{Engine, EngineBuilder, Server};
use techlib::Technology;

use crate::workload::{Workload, SYNTH_CORES, SYNTH_SNAPSHOT};

/// Set-ups are timed in groups: consecutive set-ups join a group until it
/// has taken this long, and each `setup_s` sample is its group's mean.
/// The shipped-layer set-up has two modes (about 0.53 and 0.88 ms on a
/// 2-vCPU VM) whose mix moves a plain median from run to run; a group
/// mean does not jump between them. A slow set-up is a group alone.
const SETUP_GROUP_MIN: Duration = Duration::from_millis(5);
/// Groups timed per child, at least; `setup_s` is the median of their
/// means.
const SETUP_MIN_GROUPS: usize = 5;
/// Groups repeat until they have taken this long in total (or
/// [`SETUP_MAX_GROUPS`]).
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);
const SETUP_MAX_GROUPS: usize = 201;

/// The synthetic snapshot's inputs (generated once, never timed).
#[derive(Clone)]
struct SynthInputs {
    space: DesignSpace,
    root: CdoId,
    library: ReuseLibrary,
}

/// What a workload's engine is built from, beyond the shipped layers.
#[derive(Clone)]
pub struct Inputs {
    synth: Option<SynthInputs>,
}

impl Inputs {
    /// Generates a workload's synthetic inputs (none for the shipped-layer
    /// workloads).
    pub fn generate(workload: Workload) -> Inputs {
        let synth = (workload == Workload::CoreNarrow).then(|| {
            let spec = CoreSpaceSpec::sized(SYNTH_CORES);
            let (space, root) = synthetic_core_space(&spec);
            SynthInputs {
                space,
                root,
                library: synthetic_cores(&spec),
            }
        });
        Inputs { synth }
    }

    /// The synthetic snapshot's space, root and library, if any.
    pub fn synth(&self) -> Option<(&DesignSpace, CdoId, &ReuseLibrary)> {
        self.synth.as_ref().map(|s| (&s.space, s.root, &s.library))
    }
}

/// Builds a workload's engine from owned inputs: the shipped layers, or the
/// synthetic snapshot, journaling into `journal` when the workload does.
/// This is the whole of what `setup_s` times in the child, and every
/// in-process replay engine is built by it too.
pub fn build_engine(inputs: Inputs, journal: Option<&Path>) -> Result<Engine, String> {
    let mut builder = EngineBuilder::new(Technology::g10_035());
    builder = match inputs.synth {
        Some(s) => builder.with_snapshot(SYNTH_SNAPSHOT, s.space, s.root, s.library),
        None => builder.with_shipped_layers(),
    };
    if let Some(dir) = journal {
        builder = builder.journal_dir(dir);
    }
    builder.build()
}

/// The `serve` child: times repeated engine set-ups (build +
/// `Server::start`) in groups, keeps the last server, prints the group
/// means as `setup_s …` and `listening on ADDR`, and serves until a
/// `shutdown` request drains it.
pub fn serve_main(workload: Workload, work: &Path) -> Result<(), String> {
    let inputs = Inputs::generate(workload);
    let mut samples: Vec<f64> = Vec::new();
    let mut server: Option<Server> = None;
    let mut total = Duration::ZERO;
    let mut rep = 0;
    while samples.len() < SETUP_MIN_GROUPS
        || (total < SETUP_MIN_TOTAL && samples.len() < SETUP_MAX_GROUPS)
    {
        let mut group = Duration::ZERO;
        let mut size = 0u32;
        while group < SETUP_GROUP_MIN {
            // One engine at a time: the previous one is drained and
            // dropped before the next set-up starts.
            if let Some(previous) = server.take() {
                stop(previous)?;
            }
            let owned = inputs.clone();
            let journal = workload
                .journaled()
                .then(|| work.join(format!("journal-{rep}")));
            rep += 1;
            let t0 = Instant::now();
            let engine = build_engine(owned, journal.as_deref())?;
            let started =
                Server::start(Arc::new(engine), "127.0.0.1:0").map_err(|e| e.to_string())?;
            group += t0.elapsed();
            size += 1;
            server = Some(started);
        }
        total += group;
        samples.push((group / size).as_secs_f64());
    }
    drop(inputs);
    let server = server.expect("at least one set-up");
    let mut out = std::io::stdout().lock();
    let listed: Vec<String> = samples.iter().map(f64::to_string).collect();
    writeln!(out, "setup_s {}", listed.join(" ")).map_err(|e| e.to_string())?;
    writeln!(out, "listening on {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    server.run().map_err(|e| e.to_string())
}

fn stop(server: Server) -> Result<(), String> {
    server.request_stop();
    server.run().map_err(|e| e.to_string())
}

/// A running `serve` child; killed and reaped on drop if still alive.
pub struct ServerChild {
    child: Child,
    pub addr: String,
    pub setup_samples: Vec<f64>,
}

impl ServerChild {
    /// Spawns this executable as a `serve` child and waits for it to
    /// listen.
    pub fn spawn(workload: Workload, work: &Path) -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["serve", "--workload", workload.name(), "--work"])
            .arg(work)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout: ChildStdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerChild {
            child,
            addr: String::new(),
            setup_samples: Vec::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("server stdout: {e}"))?;
            if let Some(v) = line.strip_prefix("setup_s ") {
                server.setup_samples = v
                    .split_whitespace()
                    .map(|s| s.parse().map_err(|e| format!("setup_s {s:?}: {e}")))
                    .collect::<Result<_, String>>()?;
            } else if let Some(addr) = line.strip_prefix("listening on ") {
                server.addr = addr.to_owned();
                return Ok(server);
            }
        }
        Err("server exited before listening".to_owned())
    }

    /// The child's pid, for `/proc` reads.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits (bounded) for the child to exit after a `shutdown` request;
    /// true when it exited cleanly.
    pub fn wait_exit(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => return false,
            }
        }
        false
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A scratch directory inside the benchmark package, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let dir = work_root().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark keeps journals and span files: `work/` beside its
/// manifest, inside the checkout it was built in.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}
