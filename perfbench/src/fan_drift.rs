//! `fan-drift`: the fan configuration in-process and single-threaded on a
//! reoccurring drift, through `DriftPipeline::process` alone.

use std::time::{Duration, Instant};

use seqdrift_core::DriftPipeline;

use crate::drive::{process_rows, stage, Processed, SetupLog, SetupTimes, Stop, SETUP_EVERY};
use crate::host::Ticks;
use crate::inputs::{calibrate, synth, Config, Inputs, Schedule, Stream, HIDDEN};
use crate::layers;
use crate::outcome::Outcome;
use crate::stats::{figures, summarise, window_note, WINDOWS};
use crate::trace::Tracer;
use crate::workloads::FAN_DRIFT_PERIOD;

struct Pass {
    processed: Processed,
    state_bytes: usize,
    steal_pct: f64,
}

/// One `process` pass over the stream for `budget`, cut into [`WINDOWS`]
/// windows; `after` runs after each window (see [`process_rows`]).
fn pass(
    reference: &DriftPipeline,
    stream: &Stream<'_>,
    budget: Duration,
    after: &mut dyn FnMut(usize),
    tr: &mut Tracer,
) -> Pass {
    let mut p = reference.clone();
    let ticks = Ticks::now();
    let open = tr.begin("fan.run", 0);
    let window = budget / WINDOWS as u32;
    let processed = process_rows(
        &mut p,
        stream,
        0,
        1,
        Stop::Deadline(Instant::now() + budget),
        true,
        Some((window, after)),
        tr,
    );
    tr.end(open);
    let steal_pct = Ticks::now().steal_pct_since(&ticks);
    let state_bytes = p.to_bytes().map_or(0, |b| b.len());
    Pass {
        processed,
        state_bytes,
        steal_pct,
    }
}

/// Every concept switch with a whole period after it is flagged exactly
/// once inside that period, and nothing is flagged before the first.
fn check_drifts(o: &mut Outcome, p: &Processed) {
    let period = FAN_DRIFT_PERIOD;
    o.check(
        "no drift before the first onset",
        p.drifts.iter().all(|&d| d >= period),
        || {
            format!(
                "flagged at {:?}",
                p.drifts.iter().filter(|&&d| d < period).collect::<Vec<_>>()
            )
        },
    );
    let whole = Schedule::Reoccurring { period }.onsets(p.rows.saturating_sub(period) + 1);
    let missed: Vec<(u64, usize)> = whole
        .iter()
        .map(|&t| {
            (
                t,
                p.drifts
                    .iter()
                    .filter(|&&d| d >= t && d < t + period)
                    .count(),
            )
        })
        .filter(|&(_, n)| n != 1)
        .collect();
    o.check(
        "every concept switch flagged once",
        missed.is_empty(),
        || format!("(onset, flags) {missed:?}"),
    );
}

/// The workload's set-up: generating the rows and calibrating the model.
fn set_up(seed: u64, tr: &mut Tracer, t: &mut SetupTimes) -> (Inputs, DriftPipeline) {
    let inputs = stage(tr, "setup.synth", &mut t.synth_s, || {
        synth(Config::Fan, seed)
    });
    let reference = stage(tr, "setup.calibrate", &mut t.calibrate_s, || {
        calibrate(&inputs, seed)
    });
    (inputs, reference)
}

pub fn run(seed: u64, seconds: f64, trace: bool, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut setups = SetupLog::default();
    let (inputs, reference) = setups.run(tr, |tr, t| set_up(seed, tr, t));
    let stream = Stream::new(
        &inputs.pools,
        Schedule::Reoccurring {
            period: FAN_DRIFT_PERIOD,
        },
        seed,
        0,
    );
    let mut o = Outcome::default();

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut untraced = Tracer::new(false, Instant::now());
    let mut setup_tr = tr.fork();
    let main = pass(
        &reference,
        &stream,
        budget,
        &mut |k| {
            if k % SETUP_EVERY == 0 {
                drop(setups.run(&mut setup_tr, |tr, t| set_up(seed, tr, t)));
            }
        },
        &mut untraced,
    );
    tr.adopt(setup_tr);
    let setup = setups.summary();
    o.notes.push(setup.note());
    let measured = if trace {
        let traced = pass(&reference, &stream, budget, &mut |_| {}, tr);
        let rate = |p: &Pass| figures(&p.processed.windows).throughput;
        let (a, b) = (rate(&main), rate(&traced));
        o.set("trace.overhead_pct", (a - b) / a * 100.0);
        traced
    } else {
        main
    };
    let p = &measured.processed;

    o.attempted = p.rows;
    o.applied = p.rows - p.errors;
    o.failed = p.errors;
    if let Some(e) = &p.first_error {
        o.notes.push(format!("first error: {e}"));
    }
    o.check("finite anomaly scores", p.non_finite == 0, || {
        format!("{} non-finite", p.non_finite)
    });
    o.check("final state serialises", measured.state_bytes > 0, || {
        "to_bytes failed".into()
    });
    check_drifts(&mut o, p);

    let c = figures(&p.windows);
    o.latency_tail_backed = c.tail_backed;
    o.notes.push(format!(
        "{} process calls in {:.2} s, {:.0} per second; host steal {:.1}% of CPU time",
        p.rows,
        p.wall_s,
        p.rows as f64 / p.wall_s,
        measured.steal_pct,
    ));
    o.notes.push(window_note(&p.windows));
    o.notes.push(format!(
        "{} drifts, {} reconstructions, {:.1}% of rows reconstructing",
        p.drifts.len(),
        p.reconstructions,
        100.0 * p.recon_rows as f64 / p.rows as f64
    ));
    if !trace {
        o.set("throughput_sps", c.throughput);
        o.set("latency_p50_us", c.p50);
        o.set("latency_p99_us", c.tail);
        o.set("cpu_us_per_sample", c.cpu_us_per_row);
        o.set("state_bytes", measured.state_bytes as f64);
        o.set("setup_s", setup.total_s);
        return Ok(o);
    }

    let mut stable = p.stable_us.clone();
    let mut recon = p.recon_us.clone();
    let mut all = p.stable_us.clone();
    all.extend_from_slice(&p.recon_us);
    let core = summarise(&mut all);
    o.set("core.process_us_p50", core.p50);
    o.set("core.process_us_p99", core.tail);
    o.set("core.process_stable_us", summarise(&mut stable).p50);
    o.set("core.process_recon_us", summarise(&mut recon).p50);
    o.set("core.recon_share", p.recon_rows as f64 / p.rows as f64);
    o.set("core.drifts", p.drifts.len() as f64);
    o.set("core.reconstructions", p.reconstructions as f64);
    o.set("core.rows_replayed", p.rows as f64);

    // Rows across the first concept switch, for the per-layer passes.
    let rows: Vec<&[_]> = (FAN_DRIFT_PERIOD - 256..FAN_DRIFT_PERIOD + 256)
        .map(|i| stream.row(i))
        .collect();
    for (name, v) in layers::linalg(tr, &rows, HIDDEN, seed) {
        o.set(name, v);
    }
    let (predict, train, rejected) = layers::oselm(tr, reference.model(), &rows);
    o.set("oselm.predict_us", predict);
    o.set("oselm.seq_train_us", train);
    o.set("oselm.rejected_update_frac", rejected);
    o.set("core.guard_ns", layers::guard(tr, &rows));

    // No fleet, store, socket or load generator on this workload's path.
    for name in [
        "fleet.feed_us_p50",
        "fleet.feed_us_p99",
        "fleet.queue_depth_max",
        "fleet.checkpoints",
        "fleet.busy_rejections",
        "fleet.samples_dropped",
        "store.put_us_p50",
        "store.put_us_p99",
        "store.flushes",
        "store.bytes_written",
        "store.flush_failures",
        "server.frame_rtt_us",
        "server.frame_rtt_p99_us",
        "server.proto_encode_ns",
        "server.proto_decode_ns",
        "server.bytes_rx_per_sample",
        "server.busy_frac",
        "server.nacks",
        "loadgen.cpu_us_per_sample",
        "loadgen.frames",
    ] {
        o.set(name, 0.0);
    }
    o.set("setup.synth_s", setup.stages.synth_s);
    o.set("setup.calibrate_s", setup.stages.calibrate_s);
    o.set("setup.start_s", setup.stages.start_s);
    Ok(o)
}
