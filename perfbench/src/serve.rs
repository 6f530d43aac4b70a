//! `nsl-serve`: an in-process `Server` on loopback with a state dir,
//! driven in a closed loop by the benchmark's main thread, one connection
//! per session.
//!
//! The main thread sends each frame as soon as the previous one is
//! acknowledged, to the sessions in turn, and times each round trip. Each
//! time window ends with a snapshot of every session, which confirms that
//! every row acknowledged in the window has been applied. The last
//! snapshot of each session is compared bit for bit with an in-process
//! replay of exactly the rows sent.

use std::cell::Cell;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use seqdrift_core::DriftPipeline;
use seqdrift_fleet::FleetConfig;
use seqdrift_linalg::Real;
use seqdrift_server::{BatchReply, Client, Server, ServerConfig, ServerReport};
use seqdrift_store::vfs::VfsEntry;
use seqdrift_store::{RealVfs, Vfs};

use crate::drive::{process_rows, stage, Processed, SetupLog, SetupTimes, Stop, SETUP_EVERY};
use crate::host::{process_cpu, thread_cpu, Ticks};
use crate::inputs::{calibrate, synth, Config, Schedule, Stream, HIDDEN, RECON_SAMPLES};
use crate::layers;
use crate::outcome::Outcome;
use crate::stats::{figures, summarise, window_note, Window, WINDOWS};
use crate::trace::Tracer;
use crate::workloads::ServeParams;

/// A running server with one connected client per session.
struct Rig {
    server: JoinHandle<ServerReport>,
    stop: Arc<AtomicBool>,
    clients: Vec<Client>,
    state_dir: PathBuf,
}

fn fleet_config(p: &ServeParams, state_dir: &Path) -> FleetConfig {
    FleetConfig::new(p.workers)
        .with_state_dir(state_dir)
        .with_checkpoint_interval(p.checkpoint_every)
}

/// The real filesystem, counting the bytes the store writes through it.
/// Only the traced run's server stores through it.
#[derive(Debug, Default)]
struct CountingVfs {
    written: AtomicU64,
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealVfs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealVfs.write(path, bytes)
    }
    fn fsync(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.fsync(path)
    }
    fn fsync_dir(&self, dir: &Path) -> std::io::Result<()> {
        RealVfs.fsync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_dir_all(path)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.create_dir_all(path)
    }
    fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<VfsEntry>> {
        RealVfs.read_dir(dir)
    }
}

fn start(
    p: &ServeParams,
    dim: usize,
    reference: &[u8],
    state_dir: PathBuf,
    vfs: Option<Arc<CountingVfs>>,
) -> Result<Rig, String> {
    if state_dir.exists() {
        std::fs::remove_dir_all(&state_dir).map_err(|e| format!("clearing state dir: {e}"))?;
    }
    std::fs::create_dir_all(&state_dir).map_err(|e| format!("state dir: {e}"))?;
    let mut fleet = fleet_config(p, &state_dir);
    if let Some(vfs) = vfs {
        fleet = fleet.with_state_vfs(vfs);
    }
    let cfg = ServerConfig::new(fleet).with_reference(reference.to_vec());
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr: SocketAddr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let server = std::thread::spawn(move || server.run(|| flag.load(Ordering::SeqCst)));
    let mut rig = Rig {
        server,
        stop,
        clients: Vec::new(),
        state_dir,
    };
    for s in 0..p.sessions {
        match Client::connect(addr, s, dim as u32) {
            Ok((c, hello)) if !hello.existing && hello.resume_from == 0 => rig.clients.push(c),
            Ok((_, hello)) => {
                let _ = stop_rig(rig);
                return Err(format!("session {s} was not fresh: {hello:?}"));
            }
            Err(e) => {
                let _ = stop_rig(rig);
                return Err(format!("connect session {s}: {e}"));
            }
        }
    }
    Ok(rig)
}

/// Says goodbye on every connection, drains the server and removes its
/// state dir.
fn stop_rig(rig: Rig) -> Result<ServerReport, String> {
    for c in rig.clients {
        let _ = c.bye();
    }
    rig.stop.store(true, Ordering::SeqCst);
    let report = rig
        .server
        .join()
        .map_err(|_| "server thread panicked".to_string());
    let _ = std::fs::remove_dir_all(&rig.state_dir);
    report
}

/// One session's record of the run.
#[derive(Default)]
struct SessionRun {
    session: u64,
    /// Rows acknowledged, all confirmed applied by a snapshot.
    rows: u64,
    /// Rows offered in frames, acknowledged or not.
    attempted: u64,
    error: Option<String>,
    /// The session's final wire snapshot.
    blob: Vec<u8>,
}

/// Sends the session's next frame; returns the rows applied.
fn send_frame(
    client: &mut Client,
    stream: &Stream<'_>,
    frame_rows: usize,
    buf: &mut Vec<Real>,
    run: &mut SessionRun,
) -> Result<u64, String> {
    buf.clear();
    stream.extend(run.rows, frame_rows, buf);
    run.attempted += frame_rows as u64;
    match client.send_batch(buf) {
        // A BUSY reply is counted by the server and fails the gate.
        Ok(BatchReply::Ack { accepted, .. } | BatchReply::Busy { accepted, .. }) => {
            Ok(u64::from(accepted))
        }
        Err(e) => Err(format!(
            "session {}: frame at row {}: {e}",
            run.session, run.rows
        )),
    }
}

/// The closed loop on a running rig, then the drain.
struct Measured {
    runs: Vec<SessionRun>,
    report: ServerReport,
    /// The run cut into windows of confirmed rows, frame round trips and
    /// process CPU.
    windows: Vec<Window>,
    /// The load generator's own CPU seconds.
    loadgen_cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal_pct: f64,
}

/// Drives the rig's sessions in a closed loop from the calling thread for
/// `seconds`, cut into [`WINDOWS`] windows, then drains the server.
/// `between` runs before every [`SETUP_EVERY`]th window starts.
///
/// Frames go to the sessions in turn, each sent as soon as the previous
/// one is acknowledged, so one frame is in flight at a time. An
/// acknowledgement means the rows are queued, not applied, so each window
/// ends with a snapshot of every session: it travels the session's shard
/// FIFO behind every queued row, so when it returns every row of the
/// window has been applied.
fn measure(
    mut rig: Rig,
    streams: &[Stream<'_>],
    p: &ServeParams,
    seconds: f64,
    between: &mut dyn FnMut() -> Result<(), String>,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let len = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut runs: Vec<SessionRun> = rig
        .clients
        .iter()
        .map(|c| SessionRun {
            session: c.session(),
            ..SessionRun::default()
        })
        .collect();
    let mut buf = Vec::with_capacity(p.frame_rows * streams[0].dim());
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut frames = 0u64;
    let ticks = Ticks::now();
    let loadgen_cpu = thread_cpu();
    'run: for k in 0..WINDOWS {
        if k > 0 && k % SETUP_EVERY == 0 {
            if let Err(e) = between() {
                let _ = stop_rig(rig);
                return Err(format!("set-up during the run: {e}"));
            }
        }
        let open = tr.begin("serve.window", k as u64);
        let (start, cpu) = (Instant::now(), process_cpu());
        let mut w = Window::default();
        while Instant::now().duration_since(start) < len {
            let s = frames as usize % runs.len();
            let (client, run) = (&mut rig.clients[s], &mut runs[s]);
            let id = (run.session << 40) | (run.rows / p.frame_rows as u64);
            let a = Instant::now();
            match send_frame(client, &streams[s], p.frame_rows, &mut buf, run) {
                Ok(n) => {
                    let b = Instant::now();
                    tr.record("server.frame", id, a, b);
                    w.latency_us.push(b.duration_since(a).as_secs_f64() * 1e6);
                    w.rows += n;
                    run.rows += n;
                }
                Err(e) => {
                    run.error = Some(e);
                    tr.end(open);
                    break 'run;
                }
            }
            frames += 1;
        }
        for (client, run) in rig.clients.iter_mut().zip(&mut runs) {
            let snap = tr.begin("server.snapshot", run.session << 40);
            match client.snapshot() {
                Ok(blob) => run.blob = blob,
                Err(e) => run.error = Some(format!("session {}: snapshot: {e}", run.session)),
            }
            tr.end(snap);
        }
        w.secs = start.elapsed().as_secs_f64();
        w.cpu_s = (process_cpu() - cpu).as_secs_f64();
        windows.push(w);
        tr.end(open);
        if runs.iter().any(|r| r.error.is_some()) {
            break;
        }
    }
    let loadgen_cpu_s = (thread_cpu() - loadgen_cpu).as_secs_f64();
    let steal_pct = Ticks::now().steal_pct_since(&ticks);
    let report = stop_rig(rig)?;
    Ok(Measured {
        runs,
        report,
        windows,
        loadgen_cpu_s,
        steal_pct,
    })
}

/// Replays each session's rows in-process from the reference state, one
/// thread per session, and checks the result against the wire.
fn verify(
    o: &mut Outcome,
    m: &Measured,
    streams: &[Stream<'_>],
    reference: &DriftPipeline,
    p: &ServeParams,
    tr: &mut Tracer,
) -> Vec<Processed> {
    let timed = tr.enabled();
    let open = tr.begin("verify.replay", 0);
    let replays: Vec<(Processed, Option<Vec<u8>>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = m
            .runs
            .iter()
            .zip(streams)
            .map(|(run, stream)| {
                let mut local = tr.fork();
                let mut pipeline = reference.clone();
                scope.spawn(move || {
                    let done = process_rows(
                        &mut pipeline,
                        stream,
                        run.session,
                        p.frame_rows as u64,
                        Stop::Rows(run.rows),
                        timed,
                        None,
                        &mut local,
                    );
                    (done, pipeline.to_bytes().ok(), local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for ((done, blob, local), run) in replays.into_iter().zip(&m.runs) {
        tr.adopt(local);
        let s = run.session;
        o.check(
            "wire state equals in-process replay",
            blob.as_deref() == Some(run.blob.as_slice()),
            || {
                format!(
                    "session {s}: snapshot of {} bytes vs replay of {:?} bytes",
                    run.blob.len(),
                    blob.map(|b| b.len())
                )
            },
        );
        let onset = p.onset + s * p.stagger;
        let expected_by = onset + p.detect_within;
        o.check(
            "run reaches every drift window",
            run.rows >= expected_by + RECON_SAMPLES as u64,
            || {
                format!(
                    "session {s}: {} rows sent, drift window closes at {expected_by}",
                    run.rows
                )
            },
        );
        o.check(
            "one drift per session, flagged in its window",
            done.drifts.len() == 1 && done.drifts[0] >= onset && done.drifts[0] < expected_by,
            || format!("session {s}: onset {onset}, flagged at {:?}", done.drifts),
        );
        o.check(
            "replay raised no error",
            done.errors == 0 && done.non_finite == 0,
            || {
                format!(
                    "session {s}: {} errors ({:?}), {} non-finite",
                    done.errors, done.first_error, done.non_finite
                )
            },
        );
        out.push(done);
    }
    tr.end(open);
    out
}

pub fn run(
    config: Config,
    p: &ServeParams,
    seed: u64,
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let dim = config.dim();
    let state_root =
        PathBuf::from(".bench_state").join(format!("{}-{}", config.name(), std::process::id()));
    let rigs = Cell::new(0u32);
    let next_dir = || {
        rigs.set(rigs.get() + 1);
        state_root.join(format!("run{}", rigs.get()))
    };
    let set_up = |tr: &mut Tracer, t: &mut SetupTimes| {
        let inputs = stage(tr, "setup.synth", &mut t.synth_s, || synth(config, seed));
        let reference = stage(tr, "setup.calibrate", &mut t.calibrate_s, || {
            calibrate(&inputs, seed)
        });
        let blob = reference
            .to_bytes()
            .map_err(|e| format!("reference checkpoint: {e}"))?;
        let rig = stage(tr, "setup.start", &mut t.start_s, || {
            start(p, dim, &blob, next_dir(), None)
        })?;
        Ok::<_, String>((inputs, reference, blob, rig))
    };
    let mut setups = SetupLog::default();
    let (inputs, reference, blob, rig) = setups.run(tr, set_up)?;
    let streams: Vec<Stream<'_>> = (0..p.sessions)
        .map(|s| {
            Stream::new(
                &inputs.pools,
                Schedule::Sudden {
                    onset: p.onset + s * p.stagger,
                },
                seed,
                s,
            )
        })
        .collect();

    let mut o = Outcome::default();
    let mut setup_tr = tr.fork();
    let mut between = || {
        let (.., rig) = setups.run(&mut setup_tr, set_up)?;
        stop_rig(rig).map(drop)
    };
    let result = run_measured(
        &mut o,
        rig,
        &streams,
        &reference,
        &blob,
        p,
        seed,
        seconds,
        trace,
        &mut between,
        &next_dir,
        tr,
    );
    tr.adopt(setup_tr);
    let setup = setups.summary();
    o.notes.push(setup.note());
    let _ = std::fs::remove_dir_all(&state_root);
    // Fails, harmlessly, while another run still has a state dir there.
    let _ = std::fs::remove_dir(".bench_state");
    result?;
    if trace {
        o.set("setup.synth_s", setup.stages.synth_s);
        o.set("setup.calibrate_s", setup.stages.calibrate_s);
        o.set("setup.start_s", setup.stages.start_s);
    } else {
        o.set("setup_s", setup.total_s);
    }
    Ok(o)
}

#[allow(clippy::too_many_arguments)]
fn run_measured(
    o: &mut Outcome,
    rig: Rig,
    streams: &[Stream<'_>],
    reference: &DriftPipeline,
    blob: &[u8],
    p: &ServeParams,
    seed: u64,
    seconds: f64,
    trace: bool,
    between: &mut dyn FnMut() -> Result<(), String>,
    next_dir: &dyn Fn() -> PathBuf,
    tr: &mut Tracer,
) -> Result<(), String> {
    let dim = streams[0].dim();
    let mut off = Tracer::new(false, Instant::now());
    let budget = if trace { seconds / 2.0 } else { seconds };
    let main = measure(rig, streams, p, budget, between, &mut off)?;
    let written = Arc::new(CountingVfs::default());
    let m = if trace {
        let rig = start(p, dim, blob, next_dir(), Some(Arc::clone(&written)))?;
        let traced = tr.span("serve.run", 0, |tr| {
            measure(rig, streams, p, budget, &mut || Ok(()), tr)
        })?;
        let rate = |m: &Measured| figures(&m.windows).throughput;
        let (a, b) = (rate(&main), rate(&traced));
        o.set("trace.overhead_pct", (a - b) / a * 100.0);
        traced
    } else {
        main
    };

    let replays = verify(
        o,
        &m,
        streams,
        reference,
        p,
        if trace { &mut *tr } else { &mut off },
    );
    let sent: u64 = m.runs.iter().map(|r| r.rows).sum();
    let fleet = &m.report.fleet.metrics;
    let net = &m.report.net;
    o.check(
        "server applied every row sent",
        fleet.samples_processed == sent && net.samples_accepted == sent,
        || {
            format!(
                "sent {sent}, fleet processed {}, server accepted {}",
                fleet.samples_processed, net.samples_accepted
            )
        },
    );
    let replay_drifts: usize = replays.iter().map(|r| r.drifts.len()).sum();
    o.check(
        "server flagged the replay's drifts",
        fleet.drifts_flagged == replay_drifts as u64,
        || format!("server {}, replay {replay_drifts}", fleet.drifts_flagged),
    );
    o.check(
        "no session lost or quarantined",
        m.report.fleet.lost.is_empty() && m.report.fleet.quarantined.is_empty(),
        || {
            format!(
                "{} lost, {} quarantined",
                m.report.fleet.lost.len(),
                m.report.fleet.quarantined.len()
            )
        },
    );
    for run in &m.runs {
        if let Some(e) = &run.error {
            o.notes.push(format!("error: {e}"));
        }
    }
    o.sessions_failed = m.runs.iter().filter(|r| r.error.is_some()).count() as u64;
    let guard_rejected: u64 = replays.iter().map(|r| r.errors).sum();
    o.attempted = m.runs.iter().map(|r| r.attempted).sum();
    o.applied = sent;
    o.failed = net.nacks_sent
        + net.busy_replies
        + fleet.samples_dropped
        + guard_rejected
        + o.sessions_failed;

    let c = figures(&m.windows);
    o.latency_tail_backed = c.tail_backed;
    let frames: usize = m.windows.iter().map(|w| w.latency_us.len()).sum();
    let state_bytes = m.runs.iter().map(|r| r.blob.len()).max().unwrap_or(0);
    let secs: f64 = m.windows.iter().map(|w| w.secs).sum();
    o.notes.push(format!(
        "closed loop: {sent} rows applied in {frames} frames, {:.0} samples/s over the run; host steal {:.1}% of CPU time",
        sent as f64 / secs,
        m.steal_pct,
    ));
    o.notes.push(window_note(&m.windows));
    if !trace {
        o.set("throughput_sps", c.throughput);
        o.set("latency_p50_us", c.p50);
        o.set("latency_p99_us", c.tail);
        o.set("cpu_us_per_sample", c.cpu_us_per_row);
        o.set("state_bytes", state_bytes as f64);
        return Ok(());
    }

    // Per-layer figures of the traced run.
    let mut all: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.stable_us.iter().chain(&r.recon_us).copied())
        .collect();
    let mut stable: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.stable_us.iter().copied())
        .collect();
    let mut recon: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.recon_us.iter().copied())
        .collect();
    let core = summarise(&mut all);
    let rows: u64 = replays.iter().map(|r| r.rows).sum();
    o.set("core.process_us_p50", core.p50);
    o.set("core.process_us_p99", core.tail);
    o.set("core.process_stable_us", summarise(&mut stable).p50);
    o.set("core.process_recon_us", summarise(&mut recon).p50);
    o.set(
        "core.recon_share",
        replays.iter().map(|r| r.recon_rows).sum::<u64>() as f64 / rows as f64,
    );
    o.set("core.drifts", replay_drifts as f64);
    o.set(
        "core.reconstructions",
        replays.iter().map(|r| r.reconstructions).sum::<u64>() as f64,
    );
    o.set("core.rows_replayed", rows as f64);

    o.set("server.frame_rtt_us", c.p50);
    let mut rtt: Vec<f64> = m
        .windows
        .iter()
        .flat_map(|w| w.latency_us.iter().copied())
        .collect();
    o.set("server.frame_rtt_p99_us", summarise(&mut rtt).tail);
    o.set(
        "server.bytes_rx_per_sample",
        net.bytes_rx as f64 / sent as f64,
    );
    o.set(
        "server.busy_frac",
        net.busy_replies as f64 / net.frames_rx.max(1) as f64,
    );
    o.set("server.nacks", net.nacks_sent as f64);
    o.set(
        "loadgen.cpu_us_per_sample",
        m.loadgen_cpu_s * 1e6 / sent.max(1) as f64,
    );
    o.set("loadgen.frames", frames as f64);
    o.set("store.flushes", fleet.durable_flushes as f64);
    o.set(
        "store.bytes_written",
        written.written.load(Ordering::Relaxed) as f64,
    );
    o.set("store.flush_failures", fleet.durable_flush_failures as f64);

    let rows: Vec<&[Real]> = (p.onset - 256..p.onset + 256)
        .map(|i| streams[0].row(i))
        .collect();
    for (name, v) in layers::linalg(tr, &rows, HIDDEN, seed) {
        o.set(name, v);
    }
    let (predict, train, rejected) = layers::oselm(tr, reference.model(), &rows);
    o.set("oselm.predict_us", predict);
    o.set("oselm.seq_train_us", train);
    o.set("oselm.rejected_update_frac", rejected);
    o.set("core.guard_ns", layers::guard(tr, &rows));
    let (encode, decode) = layers::proto(tr, &streams[0], p.frame_rows);
    o.set("server.proto_encode_ns", encode);
    o.set("server.proto_decode_ns", decode);

    let dir = next_dir();
    let fleet_pass = layers::fleet(
        tr,
        fleet_config(p, &dir),
        blob,
        streams,
        p.frame_rows,
        Duration::from_millis(500),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let f = fleet_pass?;
    let mut feed = f.feed_us;
    let feed = summarise(&mut feed);
    o.set("fleet.feed_us_p50", feed.p50);
    o.set("fleet.feed_us_p99", feed.tail);
    o.set("fleet.queue_depth_max", f.queue_depth_max as f64);
    o.set("fleet.checkpoints", f.checkpoints as f64);
    o.set("fleet.busy_rejections", f.busy_rejections as f64);
    o.set("fleet.samples_dropped", f.samples_dropped as f64);

    let dir = next_dir();
    let final_blob = &m.runs[0].blob;
    let puts = layers::store(tr, &dir, final_blob, Duration::from_millis(300));
    let _ = std::fs::remove_dir_all(&dir);
    let mut puts = puts?;
    let put = summarise(&mut puts);
    o.set("store.put_us_p50", put.p50);
    o.set("store.put_us_p99", put.tail);
    Ok(())
}
