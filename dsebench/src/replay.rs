//! The correctness check: the exact request lines a socket run sent,
//! replayed into a fresh in-process engine built the same way, must get
//! byte-identical responses.

use std::time::Instant;

use dse_server::Engine;

use crate::client::SocketRun;
use crate::serve::{build_engine, Inputs, WorkDir};
use crate::workload::{sent, Workload};

/// A replay's outcome.
pub struct Replay {
    /// Indices of requests whose replayed response differs.
    pub mismatched: Vec<usize>,
    /// `Engine::handle_line_into` wall time per request, in ns.
    pub handle_ns: Vec<u64>,
}

/// A fresh engine for `workload`, with its own journal directory when
/// the workload journals (kept alive as long as the engine is used).
pub fn fresh_engine(
    workload: Workload,
    inputs: &Inputs,
    label: &str,
) -> Result<(Engine, Option<WorkDir>), String> {
    let journal = if workload.journaled() {
        Some(WorkDir::create(label)?)
    } else {
        None
    };
    let engine = build_engine(inputs.clone(), journal.as_ref().map(WorkDir::path))?;
    Ok((engine, journal))
}

/// Replays the requests a socket run sent (regenerated from its seed) one
/// line at a time, in order, comparing every response with the one the
/// server gave, byte for byte.
///
/// Lockstep runs are compared as one whole stream. `batch_fanout`
/// pipelines, so cross-session interleaving on the server is free; its
/// sessions are independent, so the same sequential replay holds each
/// session's responses to its own request order — a per-session
/// comparison.
pub fn replay(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    run: &SocketRun,
) -> Result<Replay, String> {
    let (engine, _journal) = fresh_engine(workload, inputs, "replay")?;
    let mut out = Vec::with_capacity(4096);
    let mut mismatched = Vec::new();
    let mut handle_ns = Vec::with_capacity(run.answered());
    let reqs = sent(workload, seed, run.chunks, run.closed).take(run.answered());
    for (i, req) in reqs.enumerate() {
        out.clear();
        let t = Instant::now();
        engine.handle_line_into(&req.line, &mut out);
        handle_ns.push(t.elapsed().as_nanos() as u64);
        let expected = run.response(i);
        if out != expected {
            if mismatched.is_empty() {
                eprintln!(
                    "transcript mismatch at request {i}: {}\n  server: {}\n  replay: {}",
                    req.line,
                    String::from_utf8_lossy(expected),
                    String::from_utf8_lossy(&out)
                );
            }
            mismatched.push(i);
        }
    }
    Ok(Replay {
        mismatched,
        handle_ns,
    })
}
