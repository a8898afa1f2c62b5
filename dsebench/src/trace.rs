//! The traced in-process replay that yields the per-layer metrics.
//!
//! A socket run's request lines are replayed into a fresh engine. Each
//! request gets a `request` span with two kinds of child: one
//! `engine.handle` span, timed around the real `Engine::handle_line_into`
//! call, and the layer spans of a *shadow* that then takes the same request
//! through each layer's public function the way the engine's op code does
//! (the protocol decoder, `ExplorationSession`, the lookahead `Solver`,
//! `Explorer` over the shared `CoreStore`, `run_estimators` under a
//! `Supervisor`, `JournalAppender` and `JournalDir`). The shadow runs beside
//! the engine, not inside it, so a layer span times that layer alone.
//! `trace.coverage.<op>` is the ratio of an op's layer-span time to its
//! `engine.handle` time. Below 1, the rest is engine time the shadow does
//! not repeat (slot lookup, locks, response rendering); above 1, the
//! shadow's calls cost more than the engine's did.
//!
//! The shadow's outcome of every request (accepted or rejected, the
//! surviving-core count, the names a retract undid) is checked against the
//! engine's response, and a difference counts as a failed operation, so
//! the shadow cannot drift from the engine unseen.
//!
//! Spans stay in memory and are written to `work/spans-<workload>.jsonl`
//! when the replay ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use dse::prelude::{
    CdoId, EstimateCache, ExplorationSession, Journal, JournalAppender, JournalDir, JournalRecord,
    PropertyKind, SessionSnapshot, Solver, Supervisor, SupervisorConfig,
};
use dse_library::{load_all_layers, roster_from_indices, Explorer, ReuseLibrary};
use dse_server::protocol::{parse_request, parse_request_fast, FastRequest};
use dse_server::{GuardConfig, Request, Snapshot};
use foundation::json::Json;
use techlib::Technology;

use crate::client::{response_expected, SocketRun};
use crate::replay::fresh_engine;
use crate::serve::{work_root, Inputs, WorkDir};
use crate::workload::{prefix, sent, Op, Req, Workload, SYNTH_SNAPSHOT};
use crate::{metric, stats, Metric};

/// Requests of a socket run the traced replay covers (a prefix).
const TRACE_CAP: usize = 10_000;
/// Requests replayed from another workload's stream when this workload
/// does not exercise a layer at all.
const FILL_REQUESTS: usize = 3_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    /// 0 for a root span.
    parent: u32,
    /// Index of the request in the replayed stream.
    req: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; [`Recorder::end`] closes it.
    fn begin(&mut self, req: u32, parent: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn end(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Records a leaf span opened at `start_ns` (from [`Recorder::now`]);
    /// returns its id.
    fn close(&mut self, req: u32, parent: u32, name: &'static str, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let end_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The lookahead solver a shadow session keeps in lock-step with its log.
struct Lookahead {
    solver: Solver,
    synced: usize,
    focus: CdoId,
}

struct ShadowSession {
    snapshot: Arc<Snapshot>,
    state: SessionSnapshot,
    appender: JournalAppender,
    lookahead: Option<Lookahead>,
    /// Journal records since the last compaction, counted as the engine
    /// counts them.
    journal_records: usize,
}

/// Layer-level counters gathered by the shadow.
#[derive(Default)]
struct Counts {
    lines: u64,
    fast_lines: u64,
    journal_bytes: u64,
    write_ops: u64,
    survivor_fraction: Vec<f64>,
}

/// What the shadow concluded a request's response must say.
#[derive(Debug)]
struct Outcome {
    ok: bool,
    /// `surviving_cores`: the total count of survivors.
    count: Option<usize>,
    /// `retract`: the properties undone, in order.
    undone: Option<Vec<String>>,
}

impl Outcome {
    fn ok(ok: bool) -> Outcome {
        Outcome {
            ok,
            count: None,
            undone: None,
        }
    }

    /// Whether the engine's `response` line says the same.
    fn agrees_with(&self, response: &[u8]) -> bool {
        let Some(json) = std::str::from_utf8(response)
            .ok()
            .and_then(|text| Json::parse(text).ok())
        else {
            return false;
        };
        let count = json.get("count").and_then(Json::as_i64);
        let undone: Option<Vec<&str>> = json
            .get("undone")
            .and_then(Json::as_array)
            .map(|names| names.iter().filter_map(Json::as_str).collect());
        json.get("ok").and_then(Json::as_bool) == Some(self.ok)
            && self.count.is_none_or(|c| count == Some(c as i64))
            && self
                .undone
                .as_ref()
                .is_none_or(|names| undone == Some(names.iter().map(String::as_str).collect()))
    }
}

/// The shadow: the layers' public functions, driven request by request.
struct Shadow {
    snapshots: BTreeMap<String, Arc<Snapshot>>,
    sessions: HashMap<String, ShadowSession>,
    /// The shadow journals exactly when the workload's engine does.
    journal: Option<(JournalDir, WorkDir)>,
    supervisor: Supervisor,
    cache: Arc<EstimateCache>,
    counts: Counts,
}

impl Shadow {
    fn new(workload: Workload, inputs: &Inputs) -> Result<Shadow, String> {
        let tech = Technology::g10_035();
        let mut snapshots = BTreeMap::new();
        match inputs.synth() {
            Some((space, root, library)) => {
                let snap = Snapshot::new(
                    SYNTH_SNAPSHOT,
                    space.name(),
                    Arc::new(space.clone()),
                    root,
                    Arc::new(library.clone()),
                );
                snapshots.insert(SYNTH_SNAPSHOT.to_owned(), Arc::new(snap));
            }
            None => {
                for layer in load_all_layers(&tech).map_err(|e| e.to_string())? {
                    let snap = Snapshot::new(
                        layer.slug,
                        layer.title,
                        Arc::new(layer.space),
                        layer.root,
                        Arc::new(layer.library),
                    );
                    snapshots.insert(layer.slug.to_owned(), Arc::new(snap));
                }
            }
        }
        let journal = if workload.journaled() {
            let dir = WorkDir::create("shadow-journal")?;
            let journal = JournalDir::create(dir.path()).map_err(|e| e.to_string())?;
            Some((journal, dir))
        } else {
            None
        };
        let cache = Arc::new(EstimateCache::new());
        // The engine's supervisor: the full registry, the shared cache and
        // the default guard's breakers.
        let supervisor = Supervisor::with_cache_config(
            dse_library::estimators::full_registry(tech),
            Arc::clone(&cache),
            SupervisorConfig {
                breaker: GuardConfig::default().breaker,
                ..SupervisorConfig::default()
            },
        );
        Ok(Shadow {
            snapshots,
            sessions: HashMap::new(),
            journal,
            supervisor,
            cache,
            counts: Counts::default(),
        })
    }

    /// Runs `line` through the layers, recording spans under `parent`;
    /// `None` for a request the shadow does not model.
    fn request(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        line: &str,
    ) -> Option<Outcome> {
        self.counts.lines += 1;
        let t = rec.now();
        let fast = parse_request_fast(line);
        rec.close(req, parent, "protocol.decode", t);
        let Some((fast, _env)) = fast else {
            let t = rec.now();
            let (tree, _env) = parse_request(line);
            rec.close(req, parent, "protocol.tree_decode", t);
            return match tree {
                Ok(Request::Report { session }) => Some(self.report(rec, req, parent, &session)),
                _ => None,
            };
        };
        self.counts.fast_lines += 1;
        Some(match fast {
            FastRequest::Open {
                session: Some(id),
                snapshot: Some(name),
                resume: false,
            } => self.open(rec, req, parent, id, name),
            FastRequest::Decide {
                session,
                name,
                value,
            } => self.decide(rec, req, parent, session, name, &value.to_value()),
            FastRequest::Retract { session, name } => self.retract(rec, req, parent, session, name),
            FastRequest::Eval { session } => self.eval(rec, req, parent, session),
            FastRequest::SurvivingCores {
                session,
                limit,
                offset,
            } => self.cores(
                rec,
                req,
                parent,
                session,
                limit.unwrap_or(64),
                offset.unwrap_or(0),
            ),
            FastRequest::Viable { session, name } => self.viable(rec, req, parent, session, name),
            FastRequest::Close { session } => self.close(rec, req, parent, session),
            _ => return None,
        })
    }

    fn open(&mut self, rec: &mut Recorder, req: u32, parent: u32, id: &str, name: &str) -> Outcome {
        self.counts.write_ops += 1;
        if self.sessions.contains_key(id) {
            return Outcome::ok(false);
        }
        if let Some((journal, _)) = &self.journal {
            let t = rec.now();
            let exists = journal.exists(id);
            rec.close(req, parent, "journal.exists", t);
            if exists {
                return Outcome::ok(false);
            }
        }
        let Some(snapshot) = self.snapshots.get(name).cloned() else {
            return Outcome::ok(false);
        };
        if let Some((journal, _)) = &self.journal {
            // The engine's meta sidecar: which snapshot a journal replays on.
            let t = rec.now();
            let meta = journal.path().join(format!("{id}.meta"));
            let written = std::fs::write(meta, format!("{}\n", snapshot.name));
            rec.close(req, parent, "journal.meta", t);
            if written.is_err() {
                return Outcome::ok(false);
            }
        }
        let t = rec.now();
        let state = ExplorationSession::new(&snapshot.space, snapshot.root).into_snapshot();
        rec.close(req, parent, "session.new", t);
        self.sessions.insert(
            id.to_owned(),
            ShadowSession {
                snapshot,
                state,
                appender: JournalAppender::new(),
                lookahead: None,
                journal_records: 0,
            },
        );
        Outcome::ok(true)
    }

    fn close(&mut self, rec: &mut Recorder, req: u32, parent: u32, id: &str) -> Outcome {
        self.counts.write_ops += 1;
        let removed = self.sessions.remove(id).is_some();
        let Some((journal, _)) = &self.journal else {
            return Outcome::ok(removed);
        };
        let t = rec.now();
        let meta = journal.path().join(format!("{id}.meta"));
        let on_disk = removed || journal.exists(id) || meta.exists();
        let closed = on_disk && journal.remove(id).is_ok();
        if closed {
            let _ = std::fs::remove_file(meta);
        }
        rec.close(req, parent, "journal.remove", t);
        Outcome::ok(closed)
    }

    /// Appends `record` to session `id`'s journal; true when it reached
    /// the file (or the workload does not journal).
    fn append(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
        record: &JournalRecord,
    ) -> bool {
        let Some((journal, _)) = &self.journal else {
            return true;
        };
        let s = self
            .sessions
            .get_mut(id)
            .expect("appends follow a session lookup");
        let t = rec.now();
        let appended = s.appender.append(journal, id, record).is_ok();
        rec.close(req, parent, "journal.append", t);
        if appended {
            s.journal_records += 1;
            self.counts.journal_bytes += foundation::json::encode(record).len() as u64 + 1;
        }
        appended
    }

    /// The engine's compaction: once a session's journal outgrows the
    /// guard's `compact_after` records, its log is rewritten as a verified
    /// checkpoint.
    fn maybe_compact(&mut self, rec: &mut Recorder, req: u32, parent: u32, id: &str) {
        let (Some((journal, _)), Some(s)) = (&self.journal, self.sessions.get_mut(id)) else {
            return;
        };
        let compact_after = GuardConfig::default().compact_after;
        if compact_after == 0 || s.journal_records < compact_after {
            return;
        }
        let t = rec.now();
        let session = ExplorationSession::resume(&s.snapshot.space, s.state.clone());
        let mut checkpoint = Journal::new();
        let mut expressible = true;
        for d in session.log() {
            if d.stale {
                expressible = false;
                break;
            }
            checkpoint.append(match d.kind {
                PropertyKind::Requirement => JournalRecord::SetRequirement {
                    name: d.property.clone(),
                    value: d.value.clone(),
                },
                _ => JournalRecord::Decide {
                    name: d.property.clone(),
                    value: d.value.clone(),
                },
            });
            if let Some(note) = &d.note {
                checkpoint.append(JournalRecord::Annotate {
                    name: d.property.clone(),
                    note: note.clone(),
                });
            }
        }
        let verified = expressible
            && checkpoint
                .replay(&s.snapshot.space, s.snapshot.root)
                .is_ok_and(|replayed| {
                    replayed.focus() == session.focus()
                        && replayed.bindings() == session.bindings()
                        && replayed.log() == session.log()
                });
        if !verified {
            s.journal_records = 0;
        } else if journal.compact(id, &checkpoint).is_ok() {
            s.appender.invalidate();
            s.journal_records = checkpoint.len();
        }
        rec.close(req, parent, "journal.compact", t);
    }

    /// A copy of session `id`'s state, as the read-only ops resume from.
    fn copy_state(
        &self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
    ) -> Option<SessionSnapshot> {
        let s = self.sessions.get(id)?;
        let t = rec.now();
        let state = s.state.clone();
        rec.close(req, parent, "session.snapshot", t);
        Some(state)
    }

    /// Moves a session's state back into its slot.
    fn stash(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
        session: ExplorationSession<'_>,
    ) {
        let t = rec.now();
        let state = session.into_snapshot();
        rec.close(req, parent, "session.stash", t);
        self.sessions
            .get_mut(id)
            .expect("stash follows a session lookup")
            .state = state;
    }

    fn decide(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
        name: &str,
        value: &dse::prelude::Value,
    ) -> Outcome {
        self.counts.write_ops += 1;
        let Some(s) = self.sessions.get_mut(id) else {
            return Outcome::ok(false);
        };
        let snapshot = Arc::clone(&s.snapshot);
        let t = rec.now();
        let mut session = ExplorationSession::resume(&snapshot.space, std::mem::take(&mut s.state));
        rec.close(req, parent, "session.resume", t);
        let t = rec.now();
        let requirement = matches!(
            session
                .space()
                .find_property(session.focus(), name)
                .map(|(_, p)| p.kind()),
            Some(PropertyKind::Requirement)
        );
        let applied = if requirement {
            session.set_requirement(name, value.clone())
        } else {
            session.decide(name, value.clone())
        };
        rec.close(req, parent, "session.decide", t);
        if applied.is_err() {
            self.stash(rec, req, parent, id, session);
            return Outcome::ok(false);
        }
        let record = if requirement {
            JournalRecord::SetRequirement {
                name: name.to_owned(),
                value: value.clone(),
            }
        } else {
            JournalRecord::Decide {
                name: name.to_owned(),
                value: value.clone(),
            }
        };
        if !self.append(rec, req, parent, id, &record) {
            let _ = session.undo();
            self.stash(rec, req, parent, id, session);
            return Outcome::ok(false);
        }
        let t = rec.now();
        let s = self.sessions.get_mut(id).expect("session checked above");
        match s.lookahead.as_mut() {
            Some(la) if la.focus == session.focus() && la.synced + 1 == session.log().len() => {
                la.solver.decide(name, value);
                la.synced += 1;
            }
            Some(_) => s.lookahead = None,
            None => {}
        }
        rec.close(req, parent, "solve.sync", t);
        self.stash(rec, req, parent, id, session);
        self.maybe_compact(rec, req, parent, id);
        Outcome::ok(true)
    }

    fn retract(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
        name: Option<&str>,
    ) -> Outcome {
        self.counts.write_ops += 1;
        let Some(s) = self.sessions.get_mut(id) else {
            return Outcome::ok(false);
        };
        let snapshot = Arc::clone(&s.snapshot);
        let t = rec.now();
        let mut session = ExplorationSession::resume(&snapshot.space, std::mem::take(&mut s.state));
        rec.close(req, parent, "session.resume", t);
        if let Some(target) = name {
            if !session.log().iter().any(|d| d.property == target) {
                self.stash(rec, req, parent, id, session);
                return Outcome::ok(false);
            }
        }
        let journaled = self.journal.is_some();
        let mut undone = Vec::new();
        loop {
            // The engine keeps a pre-undo copy when it journals, to discard
            // an undo that never reached the file.
            let pre = journaled.then(|| {
                let t = rec.now();
                let pre = session.snapshot();
                rec.close(req, parent, "session.snapshot", t);
                pre
            });
            let t = rec.now();
            let undo = session.undo();
            rec.close(req, parent, "session.undo", t);
            let Ok(d) = undo else {
                self.stash(rec, req, parent, id, session);
                return Outcome::ok(false);
            };
            if !self.append(rec, req, parent, id, &JournalRecord::Undo) {
                let s = self.sessions.get_mut(id).expect("session checked above");
                s.state = pre.expect("append failures imply a journal");
                return Outcome::ok(false);
            }
            let t = rec.now();
            let s = self.sessions.get_mut(id).expect("session checked above");
            match s.lookahead.as_mut() {
                Some(la)
                    if la.focus == session.focus()
                        && la.synced == session.log().len() + 1
                        && la.solver.depth() > 0 =>
                {
                    la.solver.retract();
                    la.synced -= 1;
                }
                Some(_) => s.lookahead = None,
                None => {}
            }
            rec.close(req, parent, "solve.sync", t);
            let done = name.is_none_or(|target| d.property == target);
            undone.push(d.property);
            if done {
                break;
            }
        }
        self.stash(rec, req, parent, id, session);
        self.maybe_compact(rec, req, parent, id);
        Outcome {
            ok: true,
            count: None,
            undone: Some(undone),
        }
    }

    fn eval(&mut self, rec: &mut Recorder, req: u32, parent: u32, id: &str) -> Outcome {
        let Some(state) = self.copy_state(rec, req, parent, id) else {
            return Outcome::ok(false);
        };
        let snapshot = Arc::clone(&self.sessions[id].snapshot);
        let t = rec.now();
        let mut session = ExplorationSession::resume(&snapshot.space, state);
        rec.close(req, parent, "session.resume", t);
        let t = rec.now();
        session.absorb_derived();
        session.run_estimators(&self.supervisor);
        rec.close(req, parent, "estimate.run", t);
        self.stash(rec, req, parent, id, session);
        Outcome::ok(true)
    }

    fn cores(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
        limit: usize,
        offset: usize,
    ) -> Outcome {
        let Some(s) = self.sessions.get_mut(id) else {
            return Outcome::ok(false);
        };
        let snapshot = Arc::clone(&s.snapshot);
        let t = rec.now();
        let session = ExplorationSession::resume(&snapshot.space, std::mem::take(&mut s.state));
        rec.close(req, parent, "session.resume", t);
        let t = rec.now();
        let library: &ReuseLibrary = &snapshot.library;
        let roster = roster_from_indices(&[library], &snapshot.roster);
        let explorer = Explorer::from_session_with_store_and_roster(
            session,
            [library],
            roster,
            Arc::clone(&snapshot.store),
        );
        rec.close(req, parent, "explorer.build", t);
        let t = rec.now();
        let total = explorer.surviving_count();
        rec.close(req, parent, "explorer.count", t);
        let t = rec.now();
        let names: Vec<String> = explorer
            .surviving_page(offset, limit)
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        rec.close(req, parent, "explorer.page", t);
        std::hint::black_box(names);
        self.stash(rec, req, parent, id, explorer.session);
        self.counts
            .survivor_fraction
            .push(total as f64 / snapshot.store.len().max(1) as f64);
        Outcome {
            ok: true,
            count: Some(total),
            undone: None,
        }
    }

    fn viable(
        &mut self,
        rec: &mut Recorder,
        req: u32,
        parent: u32,
        id: &str,
        name: &str,
    ) -> Outcome {
        let Some(state) = self.copy_state(rec, req, parent, id) else {
            return Outcome::ok(false);
        };
        let s = self.sessions.get_mut(id).expect("session checked above");
        let snapshot = Arc::clone(&s.snapshot);
        let t = rec.now();
        let session = ExplorationSession::resume(&snapshot.space, state);
        rec.close(req, parent, "session.resume", t);
        let rebuild = match &s.lookahead {
            Some(la) => la.focus != session.focus() || la.synced != session.log().len(),
            None => true,
        };
        if rebuild {
            let t = rec.now();
            s.lookahead = Some(Lookahead {
                solver: session.lookahead(),
                synced: session.log().len(),
                focus: session.focus(),
            });
            rec.close(req, parent, "solve.lookahead_build", t);
        }
        let t = rec.now();
        let la = s.lookahead.as_ref().expect("lookahead just ensured");
        std::hint::black_box((
            la.solver.viable(name),
            la.solver.initial_conflict().map(|c| c.to_string()),
        ));
        rec.close(req, parent, "solve.viable", t);
        Outcome::ok(true)
    }

    fn report(&mut self, rec: &mut Recorder, req: u32, parent: u32, id: &str) -> Outcome {
        let Some(state) = self.copy_state(rec, req, parent, id) else {
            return Outcome::ok(false);
        };
        let t = rec.now();
        let session = ExplorationSession::resume(&self.sessions[id].snapshot.space, state);
        rec.close(req, parent, "session.resume", t);
        let t = rec.now();
        let mut bindings: Vec<String> = session
            .bindings()
            .iter()
            .map(|(name, value)| format!("{}={value:?}", name.as_str()))
            .collect();
        bindings.sort_unstable();
        let log = session.log().len();
        let open = session.open_issues().len() + session.open_requirements().len();
        std::hint::black_box((bindings, log, open));
        rec.close(req, parent, "session.report", t);
        Outcome::ok(true)
    }
}

/// What one traced replay measured.
struct Traced {
    rec: Recorder,
    /// Span id of each request's `request` span.
    request_span: Vec<u32>,
    ops: Vec<Op>,
    /// Untraced `handle_line_into` time per request: the mean of the
    /// passes before and after the traced one.
    untraced_ns: Vec<u64>,
    /// `handle_batch_into` time per window, and the untraced single-line
    /// time of the same requests (pipelined workloads only).
    batches: Vec<(u64, u64)>,
    counts: Counts,
    cache_hits: u64,
    cache_misses: u64,
    failures: usize,
}

/// One untraced pass of `reqs` through a fresh engine: the
/// `handle_line_into` time of each request, whose response goes to
/// `check`.
fn untraced_pass(
    workload: Workload,
    inputs: &Inputs,
    reqs: &[Req],
    check: &mut dyn FnMut(usize, &[u8]),
) -> Result<Vec<u64>, String> {
    let (engine, _journal) = fresh_engine(workload, inputs, "untraced")?;
    let mut out = Vec::with_capacity(4096);
    Ok(reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            out.clear();
            let t = Instant::now();
            engine.handle_line_into(&r.line, &mut out);
            let ns = t.elapsed().as_nanos() as u64;
            check(i, &out);
            ns
        })
        .collect())
}

/// Replays `reqs` untraced, traced with the shadow, untraced again, and —
/// for a pipelined workload — window by window through
/// `handle_batch_into`. Responses are checked against `expected` when
/// given, else against each request's expected outcome; the shadow's
/// outcomes are checked against the traced engine's responses.
fn traced_replay(
    workload: Workload,
    inputs: &Inputs,
    reqs: &[Req],
    expected: Option<&SocketRun>,
) -> Result<Traced, String> {
    let mut failures = 0;
    let mut check = |i: usize, out: &[u8]| {
        let ok = match expected {
            Some(run) => run.response(i) == out,
            None => response_expected(&reqs[i], out),
        };
        if !ok {
            failures += 1;
        }
    };
    let mut out = Vec::with_capacity(4096);

    let before = untraced_pass(workload, inputs, reqs, &mut check)?;
    let (engine, _journal) = fresh_engine(workload, inputs, "traced")?;
    let mut shadow = Shadow::new(workload, inputs)?;
    let mut rec = Recorder::new();
    let mut request_span = Vec::with_capacity(reqs.len());
    let mut shadow_mismatches = 0;
    for (i, r) in reqs.iter().enumerate() {
        out.clear();
        let req = i as u32;
        let request = rec.begin(req, 0, "request");
        request_span.push(request);
        let t = rec.now();
        engine.handle_line_into(&r.line, &mut out);
        rec.close(req, request, "engine.handle", t);
        check(i, &out);
        let outcome = shadow.request(&mut rec, req, request, &r.line);
        rec.end(request);
        if let Some(outcome) = outcome.filter(|o| !o.agrees_with(&out)) {
            if shadow_mismatches == 0 {
                eprintln!(
                    "shadow disagrees with the engine at request {i}: {}\n  engine: {}\n  shadow: {outcome:?}",
                    r.line,
                    String::from_utf8_lossy(&out)
                );
            }
            shadow_mismatches += 1;
        }
    }
    drop(engine);
    // The untraced passes bracket the traced one, so the process warming
    // up over the replays favours neither side of `trace.overhead_pct`.
    let after = untraced_pass(workload, inputs, reqs, &mut check)?;
    let untraced_ns: Vec<u64> = before
        .iter()
        .zip(&after)
        .map(|(a, b)| (a + b) / 2)
        .collect();

    let mut batches = Vec::new();
    if let Some(window) = workload.window() {
        let (engine, _journal) = fresh_engine(workload, inputs, "batch")?;
        let mut base = 0;
        for window in reqs.chunks(window) {
            let lines: Vec<String> = window.iter().map(|r| r.line.clone()).collect();
            let t = Instant::now();
            let responses = engine.handle_batch_into(&lines);
            let batch_ns = t.elapsed().as_nanos() as u64;
            for (k, resp) in responses.iter().enumerate() {
                check(base + k, resp);
            }
            let single_ns: u64 = untraced_ns[base..base + window.len()].iter().sum();
            batches.push((batch_ns, single_ns));
            base += window.len();
        }
    }

    let cache = shadow.cache.stats();
    Ok(Traced {
        rec,
        request_span,
        ops: reqs.iter().map(|r| r.op).collect(),
        untraced_ns,
        batches,
        counts: std::mem::take(&mut shadow.counts),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        failures: failures + shadow_mismatches,
    })
}

/// Interquartile mean of the durations of spans named `name`, in µs.
fn span_us(t: &Traced, name: &str) -> Option<f64> {
    let v: Vec<f64> = t
        .rec
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    (!v.is_empty()).then(|| stats::interquartile_mean(&v))
}

/// The per-layer metrics a replay yields, as (name, unit, value); the
/// value is `None` when the replay never exercised the layer.
fn layer_values(t: &Traced) -> Vec<(String, &'static str, Option<f64>)> {
    let mut out: Vec<(String, &'static str, Option<f64>)> = Vec::new();
    let decode: Vec<f64> = t
        .rec
        .spans
        .iter()
        .filter(|s| s.name == "protocol.decode")
        .map(|s| s.dur_ns() as f64)
        .collect();
    out.push((
        "protocol.decode_ns".into(),
        "ns",
        (!decode.is_empty()).then(|| stats::interquartile_mean(&decode)),
    ));
    out.push((
        "protocol.fast_path_ratio".into(),
        "ratio",
        (t.counts.lines > 0).then(|| t.counts.fast_lines as f64 / t.counts.lines as f64),
    ));

    // Per op: the engine.handle times, and the time of the layer spans
    // beside them under the same request span.
    let mut handle: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    let mut handle_sum: BTreeMap<Op, u64> = BTreeMap::new();
    let mut layer_sum: BTreeMap<Op, u64> = BTreeMap::new();
    let request_op: HashMap<u32, Op> = t
        .request_span
        .iter()
        .zip(&t.ops)
        .map(|(&id, &op)| (id, op))
        .collect();
    for s in &t.rec.spans {
        let Some(&op) = request_op.get(&s.parent) else {
            continue;
        };
        if s.name == "engine.handle" {
            handle.entry(op).or_default().push(s.dur_ns() as f64 / 1e3);
            *handle_sum.entry(op).or_default() += s.dur_ns();
        } else {
            *layer_sum.entry(op).or_default() += s.dur_ns();
        }
    }
    for op in Op::ALL {
        out.push((
            format!("engine.{}_us", op.name()),
            "us",
            handle.get(&op).map(|v| stats::interquartile_mean(v)),
        ));
    }
    let batch_ns: Vec<f64> = t.batches.iter().map(|&(b, _)| b as f64 / 1e3).collect();
    out.push((
        "engine.batch_us".into(),
        "us",
        (!batch_ns.is_empty()).then(|| stats::interquartile_mean(&batch_ns)),
    ));
    let (batch_total, single_total) = t
        .batches
        .iter()
        .fold((0u64, 0u64), |(b, s), &(bb, ss)| (b + bb, s + ss));
    out.push((
        "engine.batch_parallel_speedup".into(),
        "ratio",
        (batch_total > 0).then(|| single_total as f64 / batch_total as f64),
    ));
    for (metric_name, span_name) in [
        ("session.resume_us", "session.resume"),
        ("session.decide_us", "session.decide"),
        ("session.undo_us", "session.undo"),
        ("session.snapshot_us", "session.snapshot"),
        ("solve.lookahead_build_us", "solve.lookahead_build"),
        ("solve.viable_us", "solve.viable"),
        ("explorer.build_us", "explorer.build"),
        ("explorer.count_us", "explorer.count"),
        ("explorer.page_us", "explorer.page"),
        ("estimate.run_us", "estimate.run"),
        ("journal.append_us", "journal.append"),
    ] {
        out.push((metric_name.into(), "us", span_us(t, span_name)));
    }
    let fractions = &t.counts.survivor_fraction;
    out.push((
        "core_store.survivor_fraction".into(),
        "ratio",
        (!fractions.is_empty()).then(|| fractions.iter().sum::<f64>() / fractions.len() as f64),
    ));
    let lookups = t.cache_hits + t.cache_misses;
    out.push((
        "estimate.cache_hit_ratio".into(),
        "ratio",
        (lookups > 0).then(|| t.cache_hits as f64 / lookups as f64),
    ));
    out.push((
        "journal.bytes_per_write_op".into(),
        "bytes",
        (t.counts.journal_bytes > 0)
            .then(|| t.counts.journal_bytes as f64 / t.counts.write_ops as f64),
    ));
    for op in Op::ALL {
        let coverage = match (layer_sum.get(&op), handle_sum.get(&op)) {
            (Some(&l), Some(&h)) if h > 0 => Some(l as f64 / h as f64),
            _ => None,
        };
        out.push((format!("trace.coverage.{}", op.name()), "ratio", coverage));
    }
    let traced_total: u64 = handle_sum.values().sum();
    let untraced_total: u64 = t.untraced_ns.iter().sum();
    out.push((
        "trace.overhead_pct".into(),
        "%",
        (untraced_total > 0)
            .then(|| 100.0 * (traced_total as f64 - untraced_total as f64) / untraced_total as f64),
    ));
    out
}

/// The traced run's results.
pub struct LayerReport {
    /// The server's median time for what the client times as one request:
    /// untraced `engine.handle` over the whole socket stream for lockstep
    /// workloads, `handle_batch_into` per window for a pipelined one.
    pub server_p50_us: f64,
    /// Every per-layer metric except the `net.*` and `process.*` ones.
    pub metrics: Vec<Metric>,
    /// Responses of the traced replays that were not as expected.
    pub failures: usize,
}

/// Runs the traced replay of a socket run's stream (a prefix of at most
/// [`TRACE_CAP`] requests), writes its spans, and derives the per-layer
/// metrics. A metric this workload never exercises (no `report` in
/// `core_narrow`, no batches in the lockstep workloads) is taken from a
/// traced replay of the first [`FILL_REQUESTS`] requests of another
/// workload's stream for the same seed, and the printout names that
/// workload.
pub fn run(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    socket: &SocketRun,
    untraced_ns: &[u64],
) -> Result<LayerReport, String> {
    let answered = socket.answered();
    let n = answered.min(TRACE_CAP);
    let n = match workload.window() {
        Some(window) if n < answered => n - n % window,
        _ => n,
    };
    let reqs: Vec<Req> = sent(workload, seed, socket.chunks, socket.closed)
        .take(n)
        .collect();
    let main = traced_replay(workload, inputs, &reqs, Some(socket))?;
    let spans = work_root().join(format!("spans-{}.jsonl", workload.name()));
    main.rec
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    println!(
        "spans: {} written to {}",
        main.rec.spans.len(),
        spans.display()
    );

    let mut values = layer_values(&main);
    let mut failures = main.failures;
    let mut sources = vec![workload.name(); values.len()];
    for other in Workload::ALL {
        if other == workload || values.iter().all(|v| v.2.is_some()) {
            continue;
        }
        let other_inputs = Inputs::generate(other);
        let reqs = prefix(other, seed, FILL_REQUESTS);
        let fill = traced_replay(other, &other_inputs, &reqs, None)?;
        failures += fill.failures;
        for ((slot, source), filled) in values.iter_mut().zip(&mut sources).zip(layer_values(&fill))
        {
            if slot.2.is_none() && filled.2.is_some() {
                slot.2 = filled.2;
                *source = other.name();
            }
        }
    }

    let mut server_us: Vec<f64> = if workload.pipelined() {
        main.batches.iter().map(|&(b, _)| b as f64 / 1e3).collect()
    } else {
        untraced_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    };
    server_us.sort_by(f64::total_cmp);
    let mut metrics = Vec::with_capacity(values.len());
    for ((name, unit, value), source) in values.into_iter().zip(sources) {
        let value = value.ok_or_else(|| format!("no workload exercises {name}"))?;
        if source != workload.name() {
            println!(
                "  ({name} measured on {source}: {} has no such work)",
                workload.name()
            );
        }
        metrics.push(metric(name, value, unit));
    }
    Ok(LayerReport {
        server_p50_us: if server_us.is_empty() {
            0.0
        } else {
            stats::percentile(&server_us, 50.0)
        },
        metrics,
        failures,
    })
}
