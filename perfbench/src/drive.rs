//! Set-up timing and the in-process `DriftPipeline::process` loop
//! shared by `fan-drift` and the serve workloads' verify replay.

use std::time::{Duration, Instant};

use seqdrift_core::DriftPipeline;

use crate::host::process_cpu;
use crate::inputs::Stream;
use crate::stats::{held, Window, HELD_PCT};
use crate::trace::Tracer;

/// Windows of a measured pass between two of the set-ups spread through
/// it. A run sets up once before its measured pass and again every this
/// many windows of it, so its set-ups sample the host over the whole run
/// as the other figures do.
pub const SETUP_EVERY: usize = 4;

/// Seconds spent in each set-up stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub synth_s: f64,
    pub calibrate_s: f64,
    pub start_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.synth_s + self.calibrate_s + self.start_s
    }
}

/// Runs one set-up stage inside a span and adds its seconds to `acc`.
pub fn stage<T>(tr: &mut Tracer, name: &'static str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let open = tr.begin(name, 0);
    let out = f();
    *acc += tr.end(open) * 1e-9;
    out
}

/// What a run's set-ups measured.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub reps: usize,
    pub stages: SetupTimes,
    pub total_s: f64,
}

impl Setup {
    pub fn note(&self) -> String {
        format!(
            "set-up: {:.6} s, held in {HELD_PCT}% of {} set-ups",
            self.total_s, self.reps
        )
    }
}

/// The set-ups of a run and what each took.
#[derive(Debug, Default)]
pub struct SetupLog(Vec<SetupTimes>);

impl SetupLog {
    /// Runs `once` as the run's next set-up, inside a span, and records
    /// the seconds of each of its stages.
    pub fn run<T>(
        &mut self,
        tr: &mut Tracer,
        once: impl FnOnce(&mut Tracer, &mut SetupTimes) -> T,
    ) -> T {
        let mut t = SetupTimes::default();
        let value = tr.span("setup", self.0.len() as u64, |tr| once(tr, &mut t));
        self.0.push(t);
        value
    }

    /// Each stage and the total as held in [`HELD_PCT`]% of the set-ups.
    pub fn summary(&self) -> Setup {
        let med = |f: fn(&SetupTimes) -> f64| {
            held(&self.0.iter().map(f).collect::<Vec<_>>(), HELD_PCT, true)
        };
        Setup {
            reps: self.0.len(),
            stages: SetupTimes {
                synth_s: med(|t| t.synth_s),
                calibrate_s: med(|t| t.calibrate_s),
                start_s: med(|t| t.start_s),
            },
            total_s: med(SetupTimes::total),
        }
    }
}

/// When [`process_rows`] stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many rows.
    Rows(u64),
    /// At the first 64-row boundary past the instant at which the pipeline
    /// is not reconstructing (a mid-reconstruction pipeline cannot be
    /// checkpointed).
    Deadline(Instant),
}

/// What a pass of `DriftPipeline::process` did.
#[derive(Debug, Default)]
pub struct Processed {
    pub rows: u64,
    /// Stream indices of flagged drifts.
    pub drifts: Vec<u64>,
    pub recon_rows: u64,
    pub reconstructions: u64,
    /// Rows `process` returned an error for (guard rejections included).
    pub errors: u64,
    pub first_error: Option<String>,
    /// Rows whose anomaly score was not finite.
    pub non_finite: u64,
    /// Per-call µs, split by whether the row went to reconstruction.
    pub stable_us: Vec<f64>,
    pub recon_us: Vec<f64>,
    /// The pass cut into time windows (only when asked for).
    pub windows: Vec<Window>,
    pub wall_s: f64,
}

/// Feeds `stream` rows from 0 on to `p` one `process` call at a time.
/// With `timed`, every call is timed (and recorded as a `core.process`
/// span when `tr` is enabled; the trace id names the session and the
/// `frame_rows`-row frame the row travelled in). With `window`, the pass
/// is also cut into windows of that length (checked every 64 rows), and
/// after each window closes the callback runs with the number of windows
/// closed so far; the next window starts when it returns.
#[allow(clippy::too_many_arguments)]
pub fn process_rows(
    p: &mut DriftPipeline,
    stream: &Stream<'_>,
    session: u64,
    frame_rows: u64,
    stop: Stop,
    timed: bool,
    mut window: Option<(Duration, &mut dyn FnMut(usize))>,
    tr: &mut Tracer,
) -> Processed {
    let mut out = Processed::default();
    let t0 = Instant::now();
    let mut cur = Window::default();
    let (mut w_start, mut w_cpu, mut w_rows) = (t0, process_cpu(), 0u64);
    let mut i = 0u64;
    loop {
        if i.is_multiple_of(64) {
            let now = Instant::now();
            if let Some((len, after)) = window.as_mut() {
                if now.duration_since(w_start) >= *len {
                    cur.secs = now.duration_since(w_start).as_secs_f64();
                    cur.rows = i - w_rows;
                    cur.cpu_s = (process_cpu() - w_cpu).as_secs_f64();
                    out.windows.push(std::mem::take(&mut cur));
                    after(out.windows.len());
                    (w_start, w_cpu, w_rows) = (Instant::now(), process_cpu(), i);
                }
            }
            match stop {
                Stop::Deadline(d) if !p.is_reconstructing() && now >= d => break,
                _ => {}
            }
        }
        if matches!(stop, Stop::Rows(n) if i >= n) {
            break;
        }
        let x = stream.row(i);
        let was_reconstructing = p.is_reconstructing();
        let (r, elapsed_us) = if timed {
            let a = Instant::now();
            let r = p.process(x);
            let b = Instant::now();
            tr.record("core.process", (session << 40) | (i / frame_rows), a, b);
            (r, b.duration_since(a).as_secs_f64() * 1e6)
        } else {
            (p.process(x), 0.0)
        };
        match r {
            Ok(o) => {
                if !o.score.is_finite() {
                    out.non_finite += 1;
                }
                if o.drift_detected {
                    out.drifts.push(i);
                }
                if was_reconstructing && !p.is_reconstructing() {
                    out.reconstructions += 1;
                }
                if o.reconstructing {
                    out.recon_rows += 1;
                }
                if timed {
                    if window.is_some() {
                        cur.latency_us.push(elapsed_us);
                    }
                    if o.reconstructing {
                        out.recon_us.push(elapsed_us);
                    } else {
                        out.stable_us.push(elapsed_us);
                    }
                }
            }
            Err(e) => {
                out.errors += 1;
                out.first_error
                    .get_or_insert_with(|| format!("row {i}: {e}"));
            }
        }
        i += 1;
    }
    out.rows = i;
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}
