//! The TCP front: one thread per connection over
//! [`foundation::net::TcpServer`], with graceful drain and admission
//! control.
//!
//! Each connection reads newline-delimited JSON requests. Whatever the
//! client has pipelined (every complete line already buffered) is
//! handed to [`Engine::handle_batch`] as one batch, so independent
//! sessions on one connection still fan out across the worker pool
//! while responses come back in request order.
//!
//! Overload protection (tunables in [`crate::guard::GuardConfig`]):
//! a connection past `max_connections` is answered with a single
//! `DSL309` line (carrying `retry_after_ms`) and dropped; pipelined
//! requests past `max_inflight_per_conn` in one batch are shed the same
//! way, in request order, so a backed-off client loses nothing silently;
//! a connection idle past `read_timeout` mid-read is reaped — the
//! slow-loris defense. Both registries (socket clones for drain wake-up,
//! thread handles for join) are swept as connections finish, so a
//! long-lived daemon's bookkeeping is bounded by *live* connections,
//! not by every connection it ever accepted.
//!
//! Drain protocol: a `shutdown` request flips the engine's draining
//! flag. The connection that carried it answers, then trips the accept
//! loop's stop flag; [`Server::run`] wakes every blocked reader with
//! `shutdown(Read)` — pending responses still flush, the sockets just
//! stop producing requests — and joins all connection threads before
//! returning.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::{io, thread};

use foundation::net::{self, TcpServer, MAX_WIRE_BYTES};

use crate::engine::Engine;
use crate::protocol::{render_err_into, Decoded, ProtocolError};

/// Registries of live connections: socket clones (for drain wake-up)
/// and thread handles (for join), both keyed by a per-connection id so
/// finished entries can be swept instead of accumulating forever.
#[derive(Debug, Default)]
struct Registry {
    conns: Mutex<HashMap<u64, TcpStream>>,
    threads: Mutex<HashMap<u64, JoinHandle<()>>>,
    /// Connections currently being served (admission-control gauge; the
    /// maps above may briefly lag it during setup/teardown).
    active: AtomicUsize,
}

impl Registry {
    /// Joins every thread whose connection already finished. Called on
    /// each accept, so the handle map is bounded by live connections
    /// plus at most the batch that ended since the last accept.
    fn sweep_finished(&self) {
        let finished: Vec<u64> = {
            let threads = self.threads.lock().unwrap();
            threads
                .iter()
                .filter(|(_, h)| h.is_finished())
                .map(|(&id, _)| id)
                .collect()
        };
        for id in finished {
            let handle = self.threads.lock().unwrap().remove(&id);
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

/// Removes a connection's registry entries when its thread exits, on
/// every path out (EOF, error, reap, drain, panic).
struct ConnGuard {
    registry: Arc<Registry>,
    id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.registry.conns.lock().unwrap().remove(&self.id);
        self.registry.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon: the listener thread plus its connection threads.
#[derive(Debug)]
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<io::Result<()>>>,
    registry: Arc<Registry>,
}

impl Server {
    /// Binds and starts accepting (bind to port 0 for an ephemeral
    /// port; see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn start(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> io::Result<Server> {
        let tcp = TcpServer::bind(addr)?;
        let local = tcp.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::default());
        let next_id = AtomicU64::new(0);

        let accept = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                tcp.serve(&stop, |stream, _peer| {
                    if engine.is_draining() {
                        return; // dropping the stream refuses the connection
                    }
                    registry.sweep_finished();
                    let guard_cfg = engine.guard();
                    let admitted =
                        registry.active.fetch_add(1, Ordering::SeqCst) < guard_cfg.max_connections;
                    if !admitted {
                        registry.active.fetch_sub(1, Ordering::SeqCst);
                        engine.note_overload();
                        refuse_connection(stream, guard_cfg.retry_after_ms);
                        return;
                    }
                    let _ = stream.set_read_timeout(guard_cfg.read_timeout);
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        registry.conns.lock().unwrap().insert(id, clone);
                    }
                    let engine = Arc::clone(&engine);
                    let stop = Arc::clone(&stop);
                    let conn_guard = ConnGuard {
                        registry: Arc::clone(&registry),
                        id,
                    };
                    let handle = thread::spawn(move || {
                        let _cleanup = conn_guard;
                        connection(&engine, stream, &stop);
                    });
                    registry.threads.lock().unwrap().insert(id, handle);
                })
            })
        };

        Ok(Server {
            engine,
            addr: local,
            stop,
            accept: Some(accept),
            registry,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the listener.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.registry.active.load(Ordering::SeqCst)
    }

    /// Requests drain from outside the protocol (equivalent to a
    /// `shutdown` request): stops accepting and wakes blocked readers.
    pub fn request_stop(&self) {
        self.engine.begin_drain();
        self.stop.store(true, Ordering::SeqCst);
        for s in self.registry.conns.lock().unwrap().values() {
            let _ = s.shutdown(Shutdown::Read);
        }
    }

    /// Blocks until the daemon drains (a `shutdown` request, or
    /// [`Server::request_stop`] from another thread), then joins every
    /// connection thread.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop error.
    pub fn run(mut self) -> io::Result<()> {
        let result = match self.accept.take() {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(io::Error::other("accept thread panicked"))
            }),
            None => Ok(()),
        };
        // The accept thread has exited, so both registries are final.
        for s in self.registry.conns.lock().unwrap().values() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = self.registry.threads.lock().unwrap();
            threads.drain().map(|(_, h)| h).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        result
    }
}

/// Answers an over-cap connection with one structured refusal line and
/// drops it.
fn refuse_connection(stream: TcpStream, retry_after_ms: u64) {
    let mut resp = Vec::new();
    render_err_into(
        &mut resp,
        None,
        &ProtocolError::overloaded("connection limit reached", retry_after_ms),
    );
    resp.push(b'\n');
    let mut writer = io::BufWriter::new(stream);
    let _ = writer.write_all(&resp);
    let _ = writer.flush();
}

/// Whether a read error means the peer merely went quiet (read timeout:
/// reap the connection) rather than sent something unframeable.
fn is_idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One connection: read everything pipelined, answer as a batch, until
/// EOF, error, idle timeout, or drain.
///
/// The hot path is buffer-reuse end to end: one warm scratch buffer
/// absorbs every request line, one warm response buffer absorbs every
/// rendered reply, and a pipelined burst is flushed as coalesced
/// vectored writes — in steady state the wire path allocates nothing.
fn connection(engine: &Engine, stream: TcpStream, stop: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = io::BufReader::new(read_half);
    let mut writer = io::BufWriter::new(stream);
    let mut line_buf: Vec<u8> = Vec::new();
    let mut resp_buf: Vec<u8> = Vec::new();
    loop {
        match net::read_line_into(&mut reader, MAX_WIRE_BYTES, &mut line_buf) {
            Ok(Some(_)) => {}
            Ok(None) => return, // clean EOF
            Err(e) if is_idle_timeout(&e) => return, // reap the idle connection
            Err(e) => {
                // An unframeable line (oversized / not UTF-8): tell the
                // client why, then drop the connection — the stream
                // cannot be resynchronized.
                resp_buf.clear();
                render_err_into(&mut resp_buf, None, &ProtocolError::malformed(e.to_string()));
                resp_buf.push(b'\n');
                let _ = writer.write_all(&resp_buf).and_then(|()| writer.flush());
                return;
            }
        }
        if !reader.buffer().contains(&b'\n') {
            // The common interactive case — one request in, one response
            // out — runs entirely through the reused buffers.
            let line =
                std::str::from_utf8(&line_buf).expect("read_line_into validated UTF-8");
            resp_buf.clear();
            engine.handle_line_into(line, &mut resp_buf);
            resp_buf.push(b'\n');
            if writer
                .write_all(&resp_buf)
                .and_then(|()| writer.flush())
                .is_err()
            {
                return;
            }
        } else {
            // Greedily take every complete line the client has already
            // pipelined: they become one parallel batch, answered with
            // one coalesced vectored write per burst.
            let mut batch: Vec<String> = Vec::new();
            batch.push(
                std::str::from_utf8(&line_buf)
                    .expect("read_line_into validated UTF-8")
                    .to_owned(),
            );
            while reader.buffer().contains(&b'\n') {
                match net::read_line_into(&mut reader, MAX_WIRE_BYTES, &mut line_buf) {
                    Ok(Some(line)) => batch.push(line.to_owned()),
                    _ => break,
                }
            }
            // Backpressure: admit up to the per-connection cap, shed the
            // rest with DSL309 so the client can retry after backing
            // off — responses still come back in request order.
            let guard_cfg = engine.guard();
            let cap = guard_cfg.max_inflight_per_conn.max(1).min(batch.len());
            let shed = batch.split_off(cap);
            let mut responses = engine.handle_batch_into(&batch);
            for response in &mut responses {
                response.push(b'\n');
            }
            for line in &shed {
                engine.note_overload();
                let mut bytes = Vec::new();
                render_err_into(
                    &mut bytes,
                    Decoded::new(line).envelope().id,
                    &ProtocolError::overloaded(
                        format!(
                            "batch limit reached ({} in flight on this connection)",
                            guard_cfg.max_inflight_per_conn
                        ),
                        guard_cfg.retry_after_ms,
                    ),
                );
                bytes.push(b'\n');
                responses.push(bytes);
            }
            if net::write_lines_coalesced(&mut writer, &responses).is_err() {
                return;
            }
        }
        if engine.is_draining() {
            // Carry the drain to the accept loop; run() wakes the rest.
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}
