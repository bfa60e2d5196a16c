//! The scenario server: a single-threaded TCP accept loop.
//!
//! One conversation is served at a time; connections that arrive while a
//! grid is running are parked in a bounded pending queue (polled between
//! cells, so admission latency is one cell at worst) or shed with a
//! `BUSY` frame once the queue is full. Every completed cell is flushed
//! to a binary checkpoint named by the grid fingerprint *before* its
//! `PROGRESS` heartbeat goes out, so a `SIGKILL` at any instant loses at
//! most one in-flight cell: a restarted server resumes the same spec from
//! the checkpoint and streams back a byte-identical report.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;

use dirca_experiments::report::render_combined;
use dirca_experiments::runner::{enumerate_cells, grid_fingerprint, run_grid_with, RunnerConfig};
use dirca_net::Watchdog;
use dirca_trace::wire::kind;

use crate::proto::{
    encode_accept, encode_busy, encode_done, encode_progress, encode_reject, encode_report, reject,
    Accept, Done, FrameConn, Progress, TransportError,
};
use crate::spec::ScenarioSpec;
use crate::Duration;

/// Server policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on; port 0 picks an ephemeral port.
    pub listen: String,
    /// Directory for per-grid checkpoints (created if absent).
    pub state_dir: PathBuf,
    /// Connections parked while a grid runs before newcomers are shed
    /// with `BUSY`.
    pub queue_cap: usize,
    /// Worker threads per cell (never affects report bytes).
    pub threads: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            state_dir: PathBuf::from(".dirca-serve"),
            queue_cap: 4,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            io_timeout: Duration::from_millis(10_000),
        }
    }
}

/// What a served conversation asked the accept loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    Shutdown,
}

/// The scenario server. See the module docs for the protocol.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    pending: VecDeque<TcpStream>,
}

/// Accepts every connection currently queued on the listener: parks them
/// while there is room, sheds the rest with a best-effort `BUSY` frame.
fn poll_accept(listener: &TcpListener, pending: &mut VecDeque<TcpStream>, config: &ServerConfig) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if pending.len() < config.queue_cap {
                    pending.push_back(stream);
                } else {
                    // Shedding is deliberately terse: one frame, then
                    // close. The write is best-effort — a peer that
                    // vanished mid-shed changes nothing for us.
                    let _ = stream.set_write_timeout(Some(config.io_timeout));
                    let mut conn = FrameConn::new(stream);
                    let _ = conn.write_frame(kind::BUSY, &encode_busy(pending.len() as u32));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            // Transient accept errors (e.g. a peer that reset before we
            // got to it) must not kill the service.
            Err(_) => break,
        }
    }
}

impl Server {
    /// Binds the listener and prepares the state directory.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        let listener = TcpListener::bind(&config.listen)?;
        // Non-blocking so the accept loop can poll between grid cells;
        // `run` blocks only while it waits idle.
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            pending: VecDeque::new(),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `SHUTDOWN`. Individual connection
    /// failures are contained: a malformed spec, a mid-conversation
    /// disconnect, or garbage bytes end that conversation (with a typed
    /// reject where possible), never the server.
    pub fn run(&mut self) -> std::io::Result<()> {
        loop {
            if let Some(stream) = self.pending.pop_front() {
                if self.serve_connection(stream) == Flow::Shutdown {
                    return Ok(());
                }
                continue;
            }
            // Idle: block in accept for the next connection, so a request
            // to an idle server waits for nothing. The queue cap only
            // bounds connections that arrive *while a grid runs* — an idle
            // server always has room for one.
            self.listener.set_nonblocking(false)?;
            let accepted = self.listener.accept();
            self.listener.set_nonblocking(true)?;
            match accepted {
                Ok((stream, _)) => self.pending.push_back(stream),
                // A real accept error (a peer that reset before we got to
                // it, descriptor exhaustion) gets a short back-off so a
                // persistent one cannot spin the loop.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Serves one accepted connection end to end.
    fn serve_connection(&mut self, stream: TcpStream) -> Flow {
        if stream
            .set_read_timeout(Some(self.config.io_timeout))
            .is_err()
            || stream
                .set_write_timeout(Some(self.config.io_timeout))
                .is_err()
        {
            return Flow::Continue;
        }
        let mut conn = FrameConn::new(stream);
        let frame = match conn.read_frame() {
            Ok(Some(frame)) => frame,
            // Clean EOF (a port probe), a timeout, or garbage bytes: log
            // and move on. For garbage we owe no reply — the peer is not
            // speaking our protocol.
            Ok(None) => return Flow::Continue,
            Err(TransportError::Wire(e)) => {
                eprintln!("dropping connection: {e}");
                let _ = conn.write_frame(
                    kind::REJECT,
                    &encode_reject(reject::SERVER, &format!("not a protocol frame: {e}")),
                );
                return Flow::Continue;
            }
            Err(e) => {
                eprintln!("dropping connection: {e}");
                return Flow::Continue;
            }
        };
        match frame.kind {
            kind::SHUTDOWN => {
                let _ = conn.write_frame(kind::SHUTDOWN_ACK, &[]);
                Flow::Shutdown
            }
            kind::SUBMIT => {
                self.serve_submission(&mut conn, &frame.payload);
                Flow::Continue
            }
            other => {
                let _ = conn.write_frame(
                    kind::REJECT,
                    &encode_reject(
                        reject::SERVER,
                        &format!("expected SUBMIT or SHUTDOWN, got frame kind {other:#04x}"),
                    ),
                );
                Flow::Continue
            }
        }
    }

    /// Validates and runs one submission, streaming progress heartbeats.
    fn serve_submission(&mut self, conn: &mut FrameConn, payload: &[u8]) {
        let spec = match ScenarioSpec::decode(payload) {
            Ok(spec) => spec,
            Err(e) => {
                let _ = conn.write_frame(
                    kind::REJECT,
                    &encode_reject(reject::MALFORMED, &format!("undecodable spec: {e}")),
                );
                return;
            }
        };
        if let Err(e) = spec.validate() {
            let _ = conn.write_frame(
                kind::REJECT,
                &encode_reject(reject::INVALID, &e.to_string()),
            );
            return;
        }
        let scale = spec.scale(self.config.threads);
        let fingerprint = grid_fingerprint(&scale);
        let checkpoint = self.config.state_dir.join(format!("{fingerprint}.ckpt"));
        let total = enumerate_cells(&scale).len() as u32;
        let runner = RunnerConfig {
            retries: spec.retries,
            watchdog: (spec.events_budget > 0).then(|| Watchdog::max_events(spec.events_budget)),
            resume: checkpoint.exists(),
            checkpoint: Some(checkpoint),
            inject_panic: spec.inject_panic,
            ..RunnerConfig::default()
        };
        if conn
            .write_frame(kind::ACCEPT, &encode_accept(&Accept { fingerprint, total }))
            .is_err()
        {
            return;
        }
        // The client may die mid-stream; the grid keeps running (every
        // finished cell is already checkpointed, so the work is not
        // wasted — a resubmission restores it instantly).
        let mut client_gone = false;
        let mut done = 0u32;
        let listener = &self.listener;
        let pending = &mut self.pending;
        let config = &self.config;
        let outcome = run_grid_with(&scale, &runner, &mut |o| {
            done += 1;
            if !client_gone {
                let p = Progress {
                    done,
                    total,
                    cell: o.cell,
                    ok: o.result.is_ok(),
                    attempts: o.attempts,
                };
                if conn
                    .write_frame(kind::PROGRESS, &encode_progress(&p))
                    .is_err()
                {
                    client_gone = true;
                }
            }
            poll_accept(listener, pending, config);
        });
        let run = match outcome {
            Ok(run) => run,
            Err(e) => {
                eprintln!("grid failed: {e}");
                let _ = conn.write_frame(
                    kind::REJECT,
                    &encode_reject(reject::SERVER, &format!("cannot serve this grid: {e}")),
                );
                return;
            }
        };
        for w in &run.warnings {
            eprintln!("warning: {w}");
        }
        if client_gone {
            return;
        }
        let report = render_combined(&scale, &run.completed());
        if conn
            .write_frame(kind::REPORT, &encode_report(&report))
            .is_err()
        {
            return;
        }
        let _ = conn.write_frame(
            kind::DONE,
            &encode_done(&Done {
                executed: run.executed as u32,
                restored: run.restored as u32,
                failed: run.failures().len() as u32,
            }),
        );
    }
}
