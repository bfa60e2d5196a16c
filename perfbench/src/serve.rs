//! The `serve_mixed` workload: an in-process `dirca-serve` server on one
//! worker thread and one closed-loop client speaking the protocol through
//! `FrameConn`.
//!
//! A pass starts a server on a fresh state directory and sends a fixed,
//! seed-derived list of small specs. Every third request resubmits an
//! earlier spec, so checkpoint restores sit beside fresh cells and their
//! checkpoint writes. The one-in-three share is a choice, not a
//! measurement: nothing in the project records how often clients
//! resubmit. With 27 fresh specs (three per density × beamwidth pair) it
//! gives 13 restores per pass, enough for a restore latency of its own,
//! while fresh cells keep about nine tenths of the summed latency.
//! Passes repeat until the time budget is spent and must reproduce the
//! first pass's reports exactly.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dirca_experiments::report::render_combined;
use dirca_experiments::ringsim::RingOutcome;
use dirca_experiments::runner::{run_grid, RunnerConfig};
use dirca_serve::proto::{decode_done, decode_progress, decode_report, FrameConn};
use dirca_serve::{Duration, ScenarioSpec, Server, ServerConfig};
use dirca_sim::rng::derive_seed;
use dirca_trace::wire::{kind, HEADER_LEN, TRAILER_LEN};

use crate::stats::{blocked_fastest, mean, median, tail, Fnv, Metrics, Work};
use crate::{Outcome, Workload};

/// Requests per pass: three fresh specs for each of the nine
/// density × beamwidth pairs, plus one resubmission after every two.
const REQUESTS: usize = 40;
/// Every `RESUBMIT_EVERY`-th request resubmits an earlier spec (a
/// synthetic share; see the module docs).
const RESUBMIT_EVERY: usize = 3;
/// Passes per timing block (see [`blocked_fastest`]).
const BLOCK: usize = 5;
const DENSITIES: [usize; 3] = [3, 5, 8];
const BEAMWIDTHS: [f64; 3] = [30.0, 90.0, 150.0];
/// Client socket timeout: far above any request's run time.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The pass's request list: small one-density, one-beamwidth grids (all
/// three schemes) with short windows, every third one a resubmission.
/// The seed picks the topologies, the order of the pairs and which
/// earlier spec each resubmission repeats; the mix of pairs is fixed, so
/// every seed asks for the same amount of work.
fn specs_for(seed: u64) -> Vec<ScenarioSpec> {
    let master = derive_seed(derive_seed(0xBE_4C4D, Workload::ServeMixed as u64), seed);
    let mut pairs: Vec<(usize, f64)> = (0..27)
        .map(|k| (DENSITIES[k % 3], BEAMWIDTHS[k / 3 % 3]))
        .collect();
    for i in (1..pairs.len()).rev() {
        let j = (derive_seed(master, 1_000 + i as u64) % (i as u64 + 1)) as usize;
        pairs.swap(i, j);
    }
    let mut fresh = pairs.into_iter();
    let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let pick = derive_seed(master, i as u64);
        if i % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 {
            let earlier = specs[(pick % i as u64) as usize].clone();
            specs.push(earlier);
        } else {
            let (density, beamwidth) = fresh.next().expect("27 fresh requests per pass");
            specs.push(ScenarioSpec {
                seed: pick,
                topologies: 2,
                measure_ms: 400,
                warmup_ms: 50,
                densities: vec![density],
                beamwidths: vec![beamwidth],
                fer: 0.0,
                retries: 1,
                events_budget: 0,
                inject_panic: None,
            });
        }
    }
    specs
}

/// One completed request as the client saw it.
struct Reply {
    latency_s: f64,
    accept_s: f64,
    accepted_at: Instant,
    /// Gaps before each PROGRESS frame of an executed cell.
    cell_gaps: Vec<f64>,
    /// Last PROGRESS (or ACCEPT) to REPORT.
    report_s: f64,
    executed: u32,
    restored: u32,
    frames: u64,
    wire_bytes: u64,
    report: String,
}

/// An open conversation: SUBMIT is on the wire, replies not yet read.
struct Conversation {
    conn: FrameConn,
    start: Instant,
    frames: u64,
    wire_bytes: u64,
}

fn frame_bytes(payload: usize) -> u64 {
    (HEADER_LEN + payload + TRAILER_LEN) as u64
}

impl Conversation {
    fn open(addr: SocketAddr, spec: &ScenarioSpec) -> Result<Conversation, String> {
        let start = Instant::now();
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("timeouts: {e}"))?;
        let mut conn = FrameConn::new(stream);
        let payload = spec.encode();
        conn.write_frame(kind::SUBMIT, &payload)
            .map_err(|e| format!("submit: {e}"))?;
        Ok(Conversation {
            conn,
            start,
            frames: 1,
            wire_bytes: frame_bytes(payload.len()),
        })
    }

    /// Reads ACCEPT, every PROGRESS, REPORT and DONE, timestamping each.
    fn finish(mut self) -> Result<Reply, String> {
        let mut accepted_at = None;
        let mut last = self.start;
        let mut cell_gaps = Vec::new();
        let mut report: Option<(String, f64)> = None;
        loop {
            let frame = self.conn.expect_frame().map_err(|e| format!("read: {e}"))?;
            let now = Instant::now();
            self.frames += 1;
            self.wire_bytes += frame_bytes(frame.payload.len());
            match frame.kind {
                kind::ACCEPT => accepted_at = Some(now),
                kind::PROGRESS => {
                    let p = decode_progress(&frame.payload).map_err(|e| e.to_string())?;
                    if !p.ok {
                        return Err(format!("cell {} failed", p.cell));
                    }
                    if p.attempts > 0 {
                        cell_gaps.push((now - last).as_secs_f64());
                    }
                }
                kind::REPORT => {
                    let text = decode_report(&frame.payload).map_err(|e| e.to_string())?;
                    report = Some((text, (now - last).as_secs_f64()));
                }
                kind::DONE => {
                    let done = decode_done(&frame.payload).map_err(|e| e.to_string())?;
                    let accepted_at = accepted_at.ok_or("DONE before ACCEPT")?;
                    let (report, report_s) = report.ok_or("DONE before REPORT")?;
                    if done.failed > 0 {
                        return Err(format!("{} cells failed", done.failed));
                    }
                    return Ok(Reply {
                        latency_s: (now - self.start).as_secs_f64(),
                        accept_s: (accepted_at - self.start).as_secs_f64(),
                        accepted_at,
                        cell_gaps,
                        report_s,
                        executed: done.executed,
                        restored: done.restored,
                        frames: self.frames,
                        wire_bytes: self.wire_bytes,
                        report,
                    });
                }
                kind::REJECT => return Err("REJECT".into()),
                kind::BUSY => return Err("BUSY".into()),
                other => return Err(format!("unexpected frame kind {other:#04x}")),
            }
            last = now;
        }
    }
}

/// One pass: a fresh server, every request of `specs`, then shutdown.
struct Pass {
    setup_s: f64,
    replies: Vec<Option<Reply>>,
    checkpoint_bytes: u64,
    errors: Vec<String>,
}

fn run_pass(specs: &[ScenarioSpec], state_dir: &Path) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let start = Instant::now();
    let server = Server::bind(ServerConfig {
        listen: "127.0.0.1:0".into(),
        state_dir: state_dir.to_path_buf(),
        queue_cap: 4,
        threads: 1,
        io_timeout: IO_TIMEOUT,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The first SUBMIT is queued on the listener before the accept loop
    // starts, so set-up ends exactly at the first ACCEPT.
    let mut opened = Some(Conversation::open(addr, &specs[0]));
    let handle = std::thread::spawn(move || {
        let mut server = server;
        server.run()
    });
    let mut pass = Pass {
        setup_s: 0.0,
        replies: Vec::with_capacity(specs.len()),
        checkpoint_bytes: 0,
        errors: Vec::new(),
    };
    for (i, spec) in specs.iter().enumerate() {
        let conversation = opened
            .take()
            .unwrap_or_else(|| Conversation::open(addr, spec));
        match conversation.and_then(Conversation::finish) {
            Ok(r) => {
                if i == 0 {
                    pass.setup_s = (r.accepted_at - start).as_secs_f64();
                }
                pass.replies.push(Some(r));
            }
            Err(e) => {
                pass.errors.push(format!("request {i}: {e}"));
                pass.replies.push(None);
            }
        }
    }
    shutdown(addr).map_err(|e| format!("shutdown: {e}"))?;
    handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    pass.checkpoint_bytes = std::fs::read_dir(state_dir)
        .map_err(|e| format!("state dir: {e}"))?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(state_dir);
    Ok(pass)
}

fn shutdown(addr: SocketAddr) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut conn = FrameConn::new(stream);
    conn.write_frame(kind::SHUTDOWN, &[])
        .map_err(|e| e.to_string())?;
    match conn.expect_frame().map_err(|e| e.to_string())?.kind {
        kind::SHUTDOWN_ACK => Ok(()),
        other => Err(format!("expected SHUTDOWN_ACK, got {other:#04x}")),
    }
}

fn pass_work(pass: &Pass) -> Work {
    let ok = || pass.replies.iter().flatten();
    let mut h = Fnv::default();
    for r in ok() {
        h.bytes(r.report.as_bytes());
        h.u64(u64::from(r.executed));
        h.u64(u64::from(r.restored));
    }
    let mut work = Work::new();
    work.insert("digest".into(), h.finish());
    work.insert(
        "serve.cells_executed".into(),
        ok().map(|r| u64::from(r.executed)).sum(),
    );
    work.insert(
        "serve.cells_restored".into(),
        ok().map(|r| u64::from(r.restored)).sum(),
    );
    work.insert("trace.frames".into(), ok().map(|r| r.frames).sum());
    work.insert("trace.wire_bytes".into(), ok().map(|r| r.wire_bytes).sum());
    work.insert("trace.checkpoint_bytes".into(), pass.checkpoint_bytes);
    work
}

/// Simulated seconds behind one executed cell of `spec`.
fn cell_sim_seconds(spec: &ScenarioSpec) -> f64 {
    spec.topologies as f64 * (spec.warmup_ms + spec.measure_ms) as f64 / 1e3
}

/// Checks the served reports: a resubmission returns the bytes of the
/// request it repeats, and the first report byte-equals `render_combined`
/// over the batch runner on one thread.
fn check_reports(specs: &[ScenarioSpec], pass: &Pass) -> Result<(), String> {
    for (i, spec) in specs.iter().enumerate() {
        let Some(reply) = &pass.replies[i] else {
            continue;
        };
        let earlier = specs[..i]
            .iter()
            .position(|s| s == spec)
            .and_then(|j| pass.replies[j].as_ref());
        if let Some(earlier) = earlier {
            if earlier.report != reply.report || reply.executed != 0 {
                return Err(format!(
                    "request {i}: resubmission did not restore the same report"
                ));
            }
        }
    }
    let Some(served) = &pass.replies[0] else {
        return Err("the sampled request failed".into());
    };
    let scale = specs[0].scale(1);
    let run = run_grid(&scale, &RunnerConfig::default()).map_err(|e| e.to_string())?;
    let completed: Vec<_> = run
        .outcomes
        .iter()
        .filter_map(|o| {
            o.result.as_ref().ok().map(|s| {
                (
                    o.cell.n,
                    o.cell.theta,
                    o.cell.scheme,
                    RingOutcome::from_samples(s),
                )
            })
        })
        .collect();
    if render_combined(&scale, &completed) == served.report {
        Ok(())
    } else {
        Err("served report differs from render_combined over the batch runner".into())
    }
}

pub fn run_workload(seed: u64, seconds: f64, trace: bool, state_dir: PathBuf) -> Outcome {
    let specs = specs_for(seed);
    let mut passes: Vec<Pass> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut notes = Vec::new();
    let start = Instant::now();
    while passes.len() < BLOCK || start.elapsed().as_secs_f64() < seconds {
        attempted += specs.len() as u64;
        match run_pass(&specs, &state_dir) {
            Ok(pass) => {
                failed += pass.errors.len() as u64;
                notes.extend(pass.errors.iter().cloned());
                if let Some(reference) = passes.first() {
                    if pass_work(reference) != pass_work(&pass) {
                        failed += 1;
                        notes.push(format!("pass {}: work counters differ", passes.len()));
                    }
                }
                passes.push(pass);
            }
            Err(e) => {
                failed += specs.len() as u64;
                notes.push(e);
                break;
            }
        }
    }
    let mut metrics = Metrics::default();
    // Timings come from passes in which every request completed; a failed
    // request already fails the run.
    let complete: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.replies.iter().all(Option::is_some))
        .collect();
    let (Some(first), true) = (passes.first(), complete.len() >= BLOCK) else {
        return Outcome {
            attempted,
            failed,
            metrics,
            work: Work::new(),
            digest: 0,
            notes,
        };
    };
    if let Err(e) = check_reports(&specs, first) {
        failed += 1;
        notes.push(e);
    }
    let work = pass_work(first);
    // A request splits at its ACCEPT. The wait for ACCEPT is a race with
    // the idle server's connection poll, which sleeps 5 ms: a repetition
    // that connects just before a poll skips the sleep, so the wait is
    // bimodal and is taken at its mean over passes. ACCEPT → DONE is the
    // server's work and, like the simulation workloads, is taken at its
    // fastest repetition per block of passes. A request's latency is
    // their sum.
    let per_pass = |g: fn(&Reply) -> f64| -> Vec<Vec<f64>> {
        complete
            .iter()
            .map(|p| p.replies.iter().flatten().map(g).collect())
            .collect()
    };
    let wait_samples = per_pass(|r| r.accept_s);
    let waits: Vec<f64> = (0..specs.len())
        .map(|i| mean(&wait_samples.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();
    let served: Vec<f64> = blocked_fastest(&per_pass(|r| r.latency_s - r.accept_s), BLOCK)
        .iter()
        .zip(&waits)
        .map(|(service, wait)| service + wait)
        .collect();
    let replies = || passes.iter().flat_map(|p| p.replies.iter().flatten());
    if trace {
        let ms = |v: Vec<f64>| median(&v) * 1e3;
        metrics.put("serve.accept_ms", ms(waits.clone()), "ms");
        metrics.put(
            "serve.cell_ms",
            ms(replies()
                .flat_map(|r| r.cell_gaps.iter().copied())
                .collect()),
            "ms",
        );
        metrics.put(
            "serve.report_ms",
            ms(replies().map(|r| r.report_s).collect()),
            "ms",
        );
        // Requests that restored every cell instead of running any.
        let restored: Vec<f64> = (0..specs.len())
            .filter(|&i| first.replies[i].as_ref().is_some_and(|r| r.executed == 0))
            .map(|i| served[i])
            .collect();
        metrics.put("serve.restore_ms", ms(restored.clone()), "ms");
        // How the summed request latency splits between restored and
        // executed requests, so a change to one path can be weighed.
        let restored_pct = 100.0 * restored.iter().sum::<f64>() / served.iter().sum::<f64>();
        metrics.put("serve.latency_share_restored", restored_pct, "%");
        metrics.put("serve.latency_share_executed", 100.0 - restored_pct, "%");
        for (key, unit) in [
            ("serve.cells_executed", "count"),
            ("serve.cells_restored", "count"),
            ("trace.frames", "count"),
            ("trace.wire_bytes", "bytes"),
            ("trace.checkpoint_bytes", "bytes"),
        ] {
            metrics.put(key, work[key] as f64, unit);
        }
    } else {
        let busy_s: f64 = served.iter().sum();
        let executed_sim_s: f64 = (0..specs.len())
            .filter_map(|i| {
                let reply = first.replies[i].as_ref()?;
                Some(f64::from(reply.executed) * cell_sim_seconds(&specs[i]))
            })
            .sum();
        // Set-up connects before the accept loop starts, so it has no poll
        // wait. At about 0.2 ms it is one short, scheduler-bound sample
        // per pass, and the fastest of five of them spread 30 % between
        // seeds, so it is taken at its median over all passes instead.
        let setup = median(&complete.iter().map(|p| p.setup_s).collect::<Vec<_>>());
        let latency_ms: Vec<f64> = served.iter().map(|l| l * 1e3).collect();
        metrics.put("sim_s_per_s", executed_sim_s / busy_s, "s/s");
        metrics.put("setup_s", setup, "s");
        metrics.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
        metrics.put("requests_per_s", served.len() as f64 / busy_s, "1/s");
        metrics.put("latency_p50_ms", median(&latency_ms), "ms");
        let t = tail(&latency_ms);
        metrics.put("latency_tail_ms", t.value, "ms");
        notes.push(format!(
            "latency_tail_ms is p{:.2} of {} requests' submit-to-DONE latencies \
             ({} beyond); {} complete passes in blocks of {BLOCK}",
            t.percentile,
            t.samples,
            t.beyond,
            complete.len()
        ));
    }
    Outcome {
        attempted,
        failed,
        metrics,
        digest: work["digest"],
        work,
        notes,
    }
}
