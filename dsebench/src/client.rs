//! The socket client: one thread, one connection, closed loop.
//!
//! Lockstep workloads send a request and wait for its response before the
//! next; `batch_fanout` writes a window of requests, then reads all of
//! their responses before the next window, and times each request from
//! its window's write.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::host::CpuTimes;
use crate::stats::Sliced;
use crate::workload::{Req, Stream, Workload};

/// How long the client waits for any one response before it counts the
/// request as timed out and ends the run.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// Un-measured lead-in before the measured window: caches fill and lazy
/// set-up finishes.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The measured window is cut into slices this long; latency percentiles
/// and throughput are computed per slice.
pub const SLICE: Duration = Duration::from_secs(1);

/// Edges of the measured window, for `/proc` snapshots.
pub enum Edge {
    Start,
    End,
}

/// Everything a socket run produced. The requests themselves are not
/// kept: [`crate::workload::sent`] regenerates them from the seed.
pub struct SocketRun {
    /// Stream chunks drawn (sessions or windows; the last may have been
    /// cut short), and whether the closing requests followed.
    pub chunks: usize,
    pub closed: bool,
    /// Every response line, in request order, back to back (no newlines);
    /// `ends[i]` is where the i-th one ends.
    responses: Vec<u8>,
    ends: Vec<usize>,
    /// Requests whose response was not the expected success or rejection.
    pub unexpected: Vec<usize>,
    /// Whether a response never came.
    pub timed_out: bool,
    /// Per-slice latencies (µs) of requests sent in the measured window.
    pub all: Sliced,
    pub writes: Sliced,
    pub reads: Sliced,
    /// Expected answers per [`SLICE`] of the measured window.
    pub completed: Vec<u64>,
    /// Host steal (`/proc/stat`, percent of all CPU time) per slice.
    pub slice_steal: Vec<f64>,
    /// Requests completed in the measured window, any outcome.
    pub window_requests: u64,
}

impl SocketRun {
    fn new(slices: usize) -> SocketRun {
        SocketRun {
            chunks: 0,
            closed: false,
            responses: Vec::new(),
            ends: Vec::new(),
            unexpected: Vec::new(),
            timed_out: false,
            all: Sliced::new(slices),
            writes: Sliced::new(slices),
            reads: Sliced::new(slices),
            completed: vec![0; slices],
            slice_steal: Vec::with_capacity(slices),
            window_requests: 0,
        }
    }

    /// Records one answered request; `slice` is set when it was sent in
    /// the measured window.
    fn record(&mut self, req: &Req, response: &[u8], slice: Option<usize>, micros: f64) {
        let expected = response_expected(req, response);
        if !expected {
            if self.unexpected.is_empty() {
                eprintln!(
                    "unexpected response to {}: {}",
                    req.line,
                    String::from_utf8_lossy(response)
                );
            }
            self.unexpected.push(self.ends.len());
        }
        if let Some(s) = slice {
            self.window_requests += 1;
            if expected {
                self.completed[s] += 1;
                self.all.push(s, micros);
                if req.op.is_write() {
                    self.writes.push(s, micros);
                } else {
                    self.reads.push(s, micros);
                }
            }
        }
        self.responses.extend_from_slice(response);
        self.ends.push(self.responses.len());
    }

    /// Requests answered.
    pub fn answered(&self) -> usize {
        self.ends.len()
    }

    /// The i-th response line.
    pub fn response(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.responses[start..self.ends[i]]
    }
}

/// Whether `response` is what `req` should get: a success, or the one
/// rejection the workload scripts.
pub fn response_expected(req: &Req, response: &[u8]) -> bool {
    match req.expect_err {
        None => response.starts_with(b"{\"ok\":true"),
        Some(code) => {
            response.starts_with(b"{\"ok\":false")
                && response.windows(code.len()).any(|w| w == code.as_bytes())
        }
    }
}

/// The measured window split into slices.
struct Clock {
    from: Instant,
    end: Instant,
    slices: usize,
}

impl Clock {
    fn slice_of(&self, sent: Instant) -> Option<usize> {
        if sent < self.from || sent >= self.end {
            return None;
        }
        let k = (sent - self.from).as_nanos() / SLICE.as_nanos();
        Some((k as usize).min(self.slices - 1))
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(8 * 1024),
        })
    }

    fn send<'a>(&mut self, lines: impl Iterator<Item = &'a str>) -> io::Result<()> {
        self.out.clear();
        for line in lines {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
        }
        self.writer.write_all(&self.out)
    }

    /// Reads one response line into `line` (cleared first, newline
    /// stripped).
    fn recv(&mut self, line: &mut Vec<u8>) -> io::Result<()> {
        line.clear();
        if self.reader.read_until(b'\n', line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        Ok(())
    }
}

/// Drives `workload` against the server at `addr` for a warm-up plus
/// `seconds` measured seconds (one [`SLICE`] each), calling `edge` at the measured window's
/// start and end, then drains the server with `shutdown`.
pub fn drive(
    workload: Workload,
    seed: u64,
    addr: &str,
    seconds: u64,
    edge: &mut dyn FnMut(Edge),
) -> Result<SocketRun, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let slices = usize::try_from(seconds).map_err(|e| e.to_string())?;
    let mut run = SocketRun::new(slices);
    let start = Instant::now();
    let clock = Clock {
        from: start + WARMUP,
        end: start + WARMUP + Duration::from_secs(seconds),
        slices,
    };
    let mut started = false;
    let mut maybe_start = |now: Instant, edge: &mut dyn FnMut(Edge)| {
        if !started && now >= clock.from {
            started = true;
            edge(Edge::Start);
        }
    };
    // `/proc/stat` read at the first send after each slice boundary.
    let mut marks: Vec<CpuTimes> = Vec::with_capacity(slices + 1);
    let mut mark = |now: Instant| {
        while marks.len() <= slices && now >= clock.from + SLICE * marks.len() as u32 {
            marks.push(CpuTimes::read());
        }
    };
    let mut stream = Stream::new(workload, seed);
    let mut line = Vec::with_capacity(4096);
    let mut outcome = Ok(());
    'run: while Instant::now() < clock.end {
        // Every chunk drawn is at least partly sent, so the replays can
        // regenerate exactly what went out from the chunk count.
        let chunk = stream.next_chunk();
        run.chunks += 1;
        // A window goes out as one burst; a session one request at a time.
        let bursts: Vec<&[Req]> = if workload.pipelined() {
            vec![&chunk[..]]
        } else {
            chunk.chunks(1).collect()
        };
        for (k, burst) in bursts.into_iter().enumerate() {
            let now = Instant::now();
            if k > 0 && now >= clock.end {
                break 'run;
            }
            maybe_start(now, edge);
            mark(now);
            if let Err(e) = exchange(&mut conn, &mut run, burst, &clock, &mut line) {
                outcome = Err(e);
                break 'run;
            }
        }
    }
    maybe_start(Instant::now(), edge);
    mark(Instant::now());
    edge(Edge::End);
    run.slice_steal = marks
        .windows(2)
        .map(|w| w[1].steal_pct_since(&w[0]))
        .collect();
    if outcome.is_ok() {
        let closing = stream.closing();
        if !closing.is_empty() {
            run.closed = true;
            outcome = exchange(&mut conn, &mut run, &closing, &clock, &mut line);
        }
    }
    if let Err(e) = outcome {
        run.timed_out = true;
        eprintln!("request failed: {e}");
        return Ok(run);
    }
    // Drain the daemon; its answer is not part of the measured stream.
    conn.send(std::iter::once("{\"op\":\"shutdown\"}"))
        .and_then(|()| conn.recv(&mut line))
        .map_err(|e| format!("shutdown: {e}"))?;
    Ok(run)
}

/// Writes `reqs` as one burst and reads their responses in order, each
/// timed from the burst's write.
fn exchange(
    conn: &mut Conn,
    run: &mut SocketRun,
    reqs: &[Req],
    clock: &Clock,
    line: &mut Vec<u8>,
) -> io::Result<()> {
    let sent = Instant::now();
    conn.send(reqs.iter().map(|r| r.line.as_str()))?;
    let slice = clock.slice_of(sent);
    for req in reqs {
        conn.recv(line)?;
        let micros = sent.elapsed().as_secs_f64() * 1e6;
        run.record(req, line, slice, micros);
    }
    Ok(())
}
