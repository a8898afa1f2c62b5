//! Seeded request streams for the four workloads.
//!
//! Every stream is a pure function of the seed: the same seed yields the
//! same request lines in the same order (ids included), a different seed a
//! different stream. The server only ever sees these lines.

use foundation::rng::{Rng, SeedableRng, Xoshiro256pp};

/// Sessions pipelined concurrently by `batch_fanout`.
pub const FANOUT_SESSIONS: usize = 32;
/// Requests per pipelined `batch_fanout` window: below the daemon's
/// `max_inflight_per_conn` (256) and small enough to fit its 8 KiB read
/// buffer, so nothing is shed.
pub const FANOUT_WINDOW: usize = 64;
/// Designers `designer_rounds` keeps in flight on its one connection: one
/// request each per window, well inside the daemon's admission and read
/// buffer limits.
pub const ROUND_DESIGNERS: usize = 32;
/// Cores in the `core_narrow` synthetic snapshot.
pub const SYNTH_CORES: usize = 262_144;
/// The synthetic snapshot's wire name.
pub const SYNTH_SNAPSHOT: &str = "synth";

/// The seeded EOL set: small enough that the estimate cache misses early in
/// a run and then hits.
const EOLS: [i64; 16] = [
    32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512, 640, 768, 1024, 1536, 2048,
];
const MAX_LATENCY_US: [&str; 4] = ["2.0", "5.0", "8.0", "20.0"];
const RADICES: [i64; 4] = [2, 4, 8, 16];
const DECOMPOSITIONS: [&str; 2] = ["use-default", "select-per-operator"];
const CRYPTO_VIABLE: [&str; 4] = ["Algorithm", "AdderStructure", "Radix", "LayoutStyle"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lockstep Section-5 sessions over the shipped snapshots, journaled.
    DesignerWalk,
    /// Lockstep narrowing of a 262,144-core synthetic snapshot.
    CoreNarrow,
    /// One connection pipelining windows over 32 long-lived sessions.
    BatchFanout,
    /// The `designer_walk` sessions, unjournaled, with 32 designers in
    /// flight: each window carries one request from every designer.
    DesignerRounds,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::DesignerWalk,
        Workload::CoreNarrow,
        Workload::BatchFanout,
        Workload::DesignerRounds,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignerWalk => "designer_walk",
            Workload::CoreNarrow => "core_narrow",
            Workload::BatchFanout => "batch_fanout",
            Workload::DesignerRounds => "designer_rounds",
        }
    }

    /// Whether the server journals sessions for this workload.
    pub fn journaled(self) -> bool {
        self == Workload::DesignerWalk
    }

    /// Whether requests are pipelined in windows (else lockstep).
    pub fn pipelined(self) -> bool {
        self.window().is_some()
    }

    /// Requests per full pipelined window, or `None` when lockstep.
    pub fn window(self) -> Option<usize> {
        match self {
            Workload::BatchFanout => Some(FANOUT_WINDOW),
            Workload::DesignerRounds => Some(ROUND_DESIGNERS),
            Workload::DesignerWalk | Workload::CoreNarrow => None,
        }
    }
}

/// A wire op the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Open,
    Decide,
    Retract,
    Eval,
    SurvivingCores,
    Viable,
    Report,
    Close,
}

impl Op {
    /// Every op, in metric order.
    pub const ALL: [Op; 8] = [
        Op::Open,
        Op::Decide,
        Op::Retract,
        Op::Eval,
        Op::SurvivingCores,
        Op::Viable,
        Op::Report,
        Op::Close,
    ];

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Decide => "decide",
            Op::Retract => "retract",
            Op::Eval => "eval",
            Op::SurvivingCores => "surviving_cores",
            Op::Viable => "viable",
            Op::Report => "report",
            Op::Close => "close",
        }
    }

    /// Mutating ops (the `write_*` metrics); the rest are queries.
    pub fn is_write(self) -> bool {
        matches!(self, Op::Open | Op::Decide | Op::Retract | Op::Close)
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// The request line (no newline).
    pub line: String,
    pub op: Op,
    /// Index of the session the request targets.
    pub session: u32,
    /// `Some(code)` when the request must be rejected with that code; such
    /// a rejection counts as a success.
    pub expect_err: Option<&'static str>,
}

/// Builds request lines with sequential ids.
struct Lines {
    next_id: u64,
}

impl Lines {
    fn req(&mut self, op: Op, session: u32, sid: &str, fields: &str) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        let sep = if fields.is_empty() { "" } else { "," };
        Req {
            line: format!(
                "{{\"op\":\"{}\",\"session\":\"{sid}\"{sep}{fields},\"id\":{id}}}",
                op.name()
            ),
            op,
            session,
            expect_err: None,
        }
    }

    fn decide(&mut self, session: u32, sid: &str, name: &str, value: &str) -> Req {
        self.req(
            Op::Decide,
            session,
            sid,
            &format!("\"name\":\"{name}\",\"value\":{value}"),
        )
    }
}

fn pick<T: Copy>(rng: &mut Xoshiro256pp, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// A lockstep stream: an endless sequence of seeded sessions.
pub struct SessionStream {
    workload: Workload,
    rng: Xoshiro256pp,
    lines: Lines,
    next_session: u32,
}

impl SessionStream {
    /// The session stream of `designer_walk` or `core_narrow` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> SessionStream {
        assert!(
            matches!(workload, Workload::DesignerWalk | Workload::CoreNarrow),
            "{} is not a session stream",
            workload.name()
        );
        SessionStream {
            workload,
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0x5E55_1045),
            lines: Lines { next_id: 1 },
            next_session: 0,
        }
    }

    /// The next session's requests, open through close.
    pub fn next_session(&mut self) -> Vec<Req> {
        let n = self.next_session;
        self.next_session += 1;
        match self.workload {
            Workload::DesignerWalk => {
                let roll = self.rng.gen_range(0..100u32);
                if roll < 70 {
                    self.crypto_walk(n)
                } else if roll < 85 {
                    self.fir_walk(n)
                } else {
                    self.idct_walk(n)
                }
            }
            Workload::CoreNarrow => self.narrow(n),
            Workload::BatchFanout | Workload::DesignerRounds => {
                unreachable!("checked in new()")
            }
        }
    }

    /// The Section-5 crypto walk: requirements, a first look at the
    /// cores, the implementation style, the algorithm, a CC4-rejected
    /// adder, estimation, backtracking, and the report.
    fn crypto_walk(&mut self, n: u32) -> Vec<Req> {
        let sid = format!("dw{n}");
        let r = &mut self.rng;
        let l = &mut self.lines;
        let mut out = vec![l.req(Op::Open, n, &sid, "\"snapshot\":\"crypto\"")];
        out.push(l.decide(n, &sid, "EOL", &pick(r, &EOLS).to_string()));
        out.push(l.decide(n, &sid, "MaxLatencyUs", pick(r, &MAX_LATENCY_US)));
        out.push(l.decide(n, &sid, "ModuloIsOdd", "\"Guaranteed\""));
        let offset = r.gen_range(0..16u32);
        out.push(l.req(
            Op::SurvivingCores,
            n,
            &sid,
            &format!("\"limit\":8,\"offset\":{offset}"),
        ));
        out.push(l.decide(n, &sid, "ImplementationStyle", "\"Hardware\""));
        let probe = pick(r, &CRYPTO_VIABLE);
        out.push(l.req(Op::Viable, n, &sid, &format!("\"name\":\"{probe}\"")));
        out.push(l.decide(n, &sid, "Algorithm", "\"Montgomery\""));
        let adder = pick(r, &["ripple-carry", "carry-look-ahead"]);
        let mut rejected = l.decide(n, &sid, "AdderStructure", &quoted(adder));
        rejected.expect_err = Some("DSL306");
        out.push(rejected);
        out.push(l.decide(n, &sid, "Radix", &pick(r, &RADICES).to_string()));
        out.push(l.decide(
            n,
            &sid,
            "BehavioralDecomposition",
            &quoted(pick(r, &DECOMPOSITIONS)),
        ));
        out.push(l.req(Op::Eval, n, &sid, ""));
        if r.gen_bool(0.5) {
            out.push(l.req(Op::Retract, n, &sid, "\"name\":\"Algorithm\""));
        } else {
            out.push(l.req(Op::Retract, n, &sid, ""));
        }
        out.push(l.req(Op::Report, n, &sid, ""));
        out.push(l.req(Op::Close, n, &sid, ""));
        out
    }

    fn fir_walk(&mut self, n: u32) -> Vec<Req> {
        let sid = format!("dw{n}");
        let r = &mut self.rng;
        let l = &mut self.lines;
        let mut out = vec![l.req(Op::Open, n, &sid, "\"snapshot\":\"fir\"")];
        out.push(l.decide(n, &sid, "Taps", &pick(r, &[8, 16, 32, 64]).to_string()));
        out.push(l.decide(n, &sid, "DataWidth", &pick(r, &[8, 12, 16]).to_string()));
        out.push(l.decide(
            n,
            &sid,
            "SampleRateMsps",
            pick(r, &["10.0", "50.0", "100.0"]),
        ));
        out.push(l.req(Op::SurvivingCores, n, &sid, "\"limit\":8,\"offset\":0"));
        let family = pick(r, &["parallel", "semi-parallel"]);
        out.push(l.decide(n, &sid, "Parallelism", &quoted(family)));
        out.push(l.req(Op::Viable, n, &sid, "\"name\":\"MacUnits\""));
        let width = pick(r, &[8, 10, 12, 16]).to_string();
        out.push(l.decide(n, &sid, "CoefficientWidth", &width));
        out.push(l.req(Op::Eval, n, &sid, ""));
        out.push(l.req(Op::Retract, n, &sid, ""));
        out.push(l.req(Op::Report, n, &sid, ""));
        out.push(l.req(Op::Close, n, &sid, ""));
        out
    }

    fn idct_walk(&mut self, n: u32) -> Vec<Req> {
        let sid = format!("dw{n}");
        let r = &mut self.rng;
        let l = &mut self.lines;
        let mut out = vec![l.req(Op::Open, n, &sid, "\"snapshot\":\"idct-gen\"")];
        out.push(l.decide(n, &sid, "WordSize", &r.gen_range(8..=32i64).to_string()));
        out.push(l.decide(n, &sid, "Precision", &r.gen_range(8..=16i64).to_string()));
        out.push(l.req(Op::SurvivingCores, n, &sid, "\"limit\":8,\"offset\":0"));
        out.push(l.decide(n, &sid, "ImplementationStyle", "\"Hardware\""));
        out.push(l.req(Op::Viable, n, &sid, "\"name\":\"FabricationTechnology\""));
        let tech = pick(r, &["0.70um", "0.35um"]);
        out.push(l.decide(n, &sid, "FabricationTechnology", &quoted(tech)));
        let algorithm = pick(r, &["Chen", "Lee", "Loeffler"]);
        out.push(l.decide(n, &sid, "Algorithm", &quoted(algorithm)));
        out.push(l.req(Op::Eval, n, &sid, ""));
        out.push(l.req(Op::Retract, n, &sid, "\"name\":\"FabricationTechnology\""));
        out.push(l.req(Op::Report, n, &sid, ""));
        out.push(l.req(Op::Close, n, &sid, ""));
        out
    }

    /// Narrow the synthetic space with 2–6 decides (each followed by a
    /// page of survivors), back out 1–3 of them, close.
    fn narrow(&mut self, n: u32) -> Vec<Req> {
        let sid = format!("cn{n}");
        let r = &mut self.rng;
        let l = &mut self.lines;
        let mut out = vec![l.req(
            Op::Open,
            n,
            &sid,
            &format!("\"snapshot\":\"{SYNTH_SNAPSHOT}\""),
        )];
        let mut issues: Vec<usize> = (0..8).collect();
        let decides = r.gen_range(2..=6usize);
        let page = |r: &mut Xoshiro256pp, l: &mut Lines| {
            let offset = r.gen_range(0..32u32);
            l.req(
                Op::SurvivingCores,
                n,
                &sid,
                &format!("\"limit\":16,\"offset\":{offset}"),
            )
        };
        for _ in 0..decides {
            let issue = issues.swap_remove(r.gen_range(0..issues.len()));
            let option = r.gen_range(0..8u32);
            out.push(l.decide(n, &sid, &format!("P{issue}"), &format!("\"o{option}\"")));
            out.push(page(r, l));
        }
        for _ in 0..r.gen_range(1..=decides.min(3)) {
            out.push(l.req(Op::Retract, n, &sid, ""));
            out.push(page(r, l));
        }
        out.push(l.req(Op::Close, n, &sid, ""));
        out
    }
}

/// The `batch_fanout` stream: windows of [`FANOUT_WINDOW`] requests over
/// [`FANOUT_SESSIONS`] long-lived crypto sessions.
pub struct WindowStream {
    rng: Xoshiro256pp,
    lines: Lines,
    /// Set-up requests not yet sent (opens and requirements).
    pending: std::collections::VecDeque<Req>,
    /// Per session: the issues decided beyond the requirements (≤ 3).
    depth: Vec<usize>,
}

/// The per-session decide sequence above the requirements; retract pops
/// the last one.
const FANOUT_DECIDES: [&str; 3] = ["Algorithm", "Radix", "BehavioralDecomposition"];

impl WindowStream {
    /// The `batch_fanout` stream for `seed`.
    pub fn new(seed: u64) -> WindowStream {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xFA_0007);
        let mut lines = Lines { next_id: 1 };
        let mut pending = std::collections::VecDeque::new();
        for s in 0..FANOUT_SESSIONS as u32 {
            let sid = format!("bf{s}");
            pending.push_back(lines.req(Op::Open, s, &sid, "\"snapshot\":\"crypto\""));
            let eol = pick(&mut rng, &EOLS).to_string();
            pending.push_back(lines.decide(s, &sid, "EOL", &eol));
            let latency = pick(&mut rng, &MAX_LATENCY_US);
            pending.push_back(lines.decide(s, &sid, "MaxLatencyUs", latency));
            pending.push_back(lines.decide(s, &sid, "ModuloIsOdd", "\"Guaranteed\""));
            pending.push_back(lines.decide(s, &sid, "ImplementationStyle", "\"Hardware\""));
        }
        WindowStream {
            rng,
            lines,
            pending,
            depth: vec![0; FANOUT_SESSIONS],
        }
    }

    /// The next window: set-up requests first, then the seeded mix of
    /// 40% surviving_cores, 20% viable, 15% eval, 25% decide/retract.
    pub fn next_window(&mut self) -> Vec<Req> {
        let mut out = Vec::with_capacity(FANOUT_WINDOW);
        while out.len() < FANOUT_WINDOW {
            match self.pending.pop_front() {
                Some(req) => out.push(req),
                None => out.push(self.mixed()),
            }
        }
        out
    }

    /// Closes every session (the stream's final window).
    pub fn close_window(&mut self) -> Vec<Req> {
        (0..FANOUT_SESSIONS as u32)
            .map(|s| self.lines.req(Op::Close, s, &format!("bf{s}"), ""))
            .collect()
    }

    fn mixed(&mut self) -> Req {
        let s = self.rng.gen_range(0..FANOUT_SESSIONS);
        let sid = format!("bf{s}");
        let n = s as u32;
        let r = &mut self.rng;
        let l = &mut self.lines;
        let roll = r.gen_range(0..100u32);
        if roll < 40 {
            let offset = r.gen_range(0..16u32);
            l.req(
                Op::SurvivingCores,
                n,
                &sid,
                &format!("\"limit\":8,\"offset\":{offset}"),
            )
        } else if roll < 60 {
            let probe = pick(r, &CRYPTO_VIABLE);
            l.req(Op::Viable, n, &sid, &format!("\"name\":\"{probe}\""))
        } else if roll < 75 {
            l.req(Op::Eval, n, &sid, "")
        } else {
            let depth = self.depth[s];
            let deeper = depth == 0 || (depth < FANOUT_DECIDES.len() && r.gen_bool(0.5));
            if deeper {
                self.depth[s] += 1;
                let value = match FANOUT_DECIDES[depth] {
                    "Algorithm" => quoted("Montgomery"),
                    "Radix" => pick(r, &RADICES).to_string(),
                    _ => quoted(pick(r, &DECOMPOSITIONS)),
                };
                l.decide(n, &sid, FANOUT_DECIDES[depth], &value)
            } else {
                self.depth[s] -= 1;
                l.req(Op::Retract, n, &sid, "")
            }
        }
    }
}

/// The `designer_rounds` stream: the `designer_walk` sessions for the same
/// seed, dealt to [`ROUND_DESIGNERS`] designers. Each window holds the next
/// request of every designer, in designer order; a designer whose session
/// has closed takes the next session of the stream. No session has two
/// requests in one window, so each designer waits for its answer.
pub struct RoundStream {
    sessions: SessionStream,
    /// Per designer: the rest of its current session, close last.
    queues: Vec<std::collections::VecDeque<Req>>,
}

impl RoundStream {
    /// The `designer_rounds` stream for `seed`.
    pub fn new(seed: u64) -> RoundStream {
        RoundStream {
            sessions: SessionStream::new(Workload::DesignerWalk, seed),
            queues: vec![std::collections::VecDeque::new(); ROUND_DESIGNERS],
        }
    }

    /// The next window: one request from every designer.
    pub fn next_window(&mut self) -> Vec<Req> {
        self.queues
            .iter_mut()
            .map(|queue| {
                if queue.is_empty() {
                    queue.extend(self.sessions.next_session());
                }
                queue.pop_front().expect("a session is never empty")
            })
            .collect()
    }

    /// Closes every session still open (the stream's final window): the
    /// `close` each unfinished session ends with.
    pub fn close_window(&mut self) -> Vec<Req> {
        self.queues
            .iter_mut()
            .filter_map(|queue| {
                let close = queue.pop_back();
                queue.clear();
                close
            })
            .collect()
    }
}

/// A workload's stream, one chunk at a time: a session when lockstep, a
/// window when pipelined.
pub enum Stream {
    Sessions(SessionStream),
    Windows(WindowStream),
    Rounds(RoundStream),
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        match workload {
            Workload::BatchFanout => Stream::Windows(WindowStream::new(seed)),
            Workload::DesignerRounds => Stream::Rounds(RoundStream::new(seed)),
            Workload::DesignerWalk | Workload::CoreNarrow => {
                Stream::Sessions(SessionStream::new(workload, seed))
            }
        }
    }

    pub fn next_chunk(&mut self) -> Vec<Req> {
        match self {
            Stream::Sessions(s) => s.next_session(),
            Stream::Windows(w) => w.next_window(),
            Stream::Rounds(r) => r.next_window(),
        }
    }

    /// What ends a run: the window that closes every open session when
    /// pipelined; nothing in lockstep, where sessions close themselves.
    pub fn closing(&mut self) -> Vec<Req> {
        match self {
            Stream::Sessions(_) => Vec::new(),
            Stream::Windows(w) => w.close_window(),
            Stream::Rounds(r) => r.close_window(),
        }
    }
}

/// The requests a run sent, regenerated from its seed: `chunks` chunks,
/// then the closing requests when `closed`. The client keeps only the
/// responses; the replays take the requests from here.
pub fn sent(
    workload: Workload,
    seed: u64,
    chunks: usize,
    closed: bool,
) -> impl Iterator<Item = Req> {
    let mut stream = Stream::new(workload, seed);
    let mut chunks_left = chunks;
    let mut closing = closed;
    let mut pending = std::collections::VecDeque::new();
    std::iter::from_fn(move || loop {
        if let Some(req) = pending.pop_front() {
            return Some(req);
        }
        if chunks_left > 0 {
            chunks_left -= 1;
            pending.extend(stream.next_chunk());
        } else if closing {
            closing = false;
            pending.extend(stream.closing());
        } else {
            return None;
        }
    })
}

/// The first `n` requests of a workload's stream, rounded up to whole
/// sessions or windows (plus the closing window when pipelined): what the
/// traced replay uses when it needs another workload's requests.
pub fn prefix(workload: Workload, seed: u64, n: usize) -> Vec<Req> {
    let mut stream = Stream::new(workload, seed);
    let mut out = Vec::new();
    while out.len() < n {
        out.extend(stream.next_chunk());
    }
    out.extend(stream.closing());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = prefix(w, 7, 2_000);
            let b = prefix(w, 7, 2_000);
            let c = prefix(w, 8, 2_000);
            assert_eq!(a, b, "{} is not deterministic", w.name());
            let lines = |v: &[Req]| v.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
            assert_ne!(lines(&a), lines(&c), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn fanout_windows_are_full_and_depth_bounded() {
        let mut s = WindowStream::new(3);
        for _ in 0..200 {
            assert_eq!(s.next_window().len(), FANOUT_WINDOW);
            assert!(s.depth.iter().all(|&d| d <= FANOUT_DECIDES.len()));
        }
    }

    #[test]
    fn rounds_hold_one_request_per_designer_and_close_what_is_open() {
        let mut s = RoundStream::new(4);
        let mut open = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let window = s.next_window();
            assert_eq!(window.len(), ROUND_DESIGNERS);
            let sessions: std::collections::BTreeSet<u32> =
                window.iter().map(|r| r.session).collect();
            assert_eq!(
                sessions.len(),
                ROUND_DESIGNERS,
                "a session twice in one window"
            );
            for r in &window {
                match r.op {
                    Op::Open => assert!(open.insert(r.session)),
                    Op::Close => assert!(open.remove(&r.session)),
                    _ => assert!(open.contains(&r.session)),
                }
            }
        }
        let closing = s.close_window();
        assert!(closing.iter().all(|r| r.op == Op::Close));
        let closed: std::collections::BTreeSet<u32> = closing.iter().map(|r| r.session).collect();
        assert_eq!(closed, open);
    }

    #[test]
    fn sent_regenerates_the_stream() {
        for w in Workload::ALL {
            let mut stream = Stream::new(w, 9);
            let mut expected: Vec<Req> = (0..40).flat_map(|_| stream.next_chunk()).collect();
            expected.extend(stream.closing());
            let again: Vec<Req> = sent(w, 9, 40, true).collect();
            assert_eq!(again, expected, "{}", w.name());
        }
    }

    #[test]
    fn ids_are_sequential() {
        let reqs = prefix(Workload::DesignerWalk, 1, 500);
        for (i, r) in reqs.iter().enumerate() {
            assert!(
                r.line.ends_with(&format!(",\"id\":{}}}", i + 1)),
                "{}",
                r.line
            );
        }
    }
}
