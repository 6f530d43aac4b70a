//! Per-layer passes of the traced run: each times calls into one layer's
//! public functions at the workload's shapes, on the workload's rows.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use seqdrift_core::guard::{GuardConfig, SampleGuard};
use seqdrift_core::DriftPipeline;
use seqdrift_fleet::{FleetConfig, FleetEngine, SessionId};
use seqdrift_linalg::sherman::{oselm_p_update, Rank1Scratch};
use seqdrift_linalg::{Matrix, Real, Rng};
use seqdrift_oselm::{ModelError, MultiInstanceModel};
use seqdrift_server::proto::{read_frame, Message};
use seqdrift_store::Store;

use crate::inputs::Stream;
use crate::stats::{median, summarise};
use crate::trace::Tracer;

/// Batches timed per kernel; the reported figure is the median batch.
const BATCHES: usize = 101;

/// Times `batches` batches of `per_batch` calls of `f` and returns the
/// median nanoseconds per call. Each batch is one span named `name`.
fn per_call_ns(
    tr: &mut Tracer,
    name: &'static str,
    per_batch: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let start = Instant::now();
        for k in 0..per_batch {
            f(b * per_batch + k);
        }
        let end = Instant::now();
        tr.record(name, b as u64, start, end);
        per.push(end.duration_since(start).as_nanos() as f64 / per_batch as f64);
    }
    median(&per)
}

/// Kernel timings at `dim` features and `hidden` nodes: `dot` of two rows,
/// `matvec_into` of a hidden×dim matrix, `tr_matvec_into` back to `dim`,
/// and the Sherman–Morrison P update at `hidden`.
pub fn linalg(
    tr: &mut Tracer,
    rows: &[&[Real]],
    hidden: usize,
    seed: u64,
) -> [(&'static str, f64); 4] {
    let dim = rows[0].len();
    let mut rng = Rng::seed_from(seed);
    let mut w = Matrix::zeros(hidden, dim);
    rng.fill_normal(w.as_mut_slice(), 0.0, 0.1);
    let mut hs = Matrix::zeros(16, hidden);
    rng.fill_normal(hs.as_mut_slice(), 0.0, 0.5);
    let mut out_h = vec![0.0; hidden];
    let mut out_d = vec![0.0; dim];
    let mut p = Matrix::identity(hidden);
    let mut scratch = Rank1Scratch::new(hidden);
    let n = rows.len();
    let per = (20_000 / dim).max(8);
    tr.span("layer.linalg", 0, |tr| {
        let dot = per_call_ns(tr, "linalg.dot", per * 4, |i| {
            black_box(seqdrift_linalg::vector::dot(
                black_box(rows[i % n]),
                black_box(rows[(i + 1) % n]),
            ));
        });
        let matvec = per_call_ns(tr, "linalg.matvec", per / 4 + 1, |i| {
            w.matvec_into(black_box(rows[i % n]), &mut out_h)
                .expect("shapes match");
            black_box(&out_h);
        });
        let tr_matvec = per_call_ns(tr, "linalg.tr_matvec", per / 4 + 1, |i| {
            w.tr_matvec_into(black_box(hs.row(i % 16)), &mut out_d)
                .expect("shapes match");
            black_box(&out_d);
        });
        let p_update = per_call_ns(tr, "linalg.p_update", 64, |i| {
            if i % 4096 == 0 {
                p = Matrix::identity(hidden);
            }
            black_box(
                oselm_p_update(&mut p, black_box(hs.row(i % 16)), &mut scratch)
                    .expect("P stays SPD"),
            );
        });
        [
            ("linalg.dot_ns", dot),
            ("linalg.matvec_ns", matvec),
            ("linalg.tr_matvec_ns", tr_matvec),
            ("linalg.p_update_ns", p_update),
        ]
    })
}

/// `predict` and label-driven `seq_train` on a clone of the workload's
/// model, one call per row: (predict µs, seq_train µs, rejected share).
pub fn oselm(tr: &mut Tracer, model: &MultiInstanceModel, rows: &[&[Real]]) -> (f64, f64, f64) {
    let mut m = model.clone();
    let (mut predict, mut train) = (Vec::new(), Vec::new());
    let mut rejected = 0usize;
    tr.span("layer.oselm", 0, |tr| {
        for (i, x) in rows.iter().enumerate() {
            let a = Instant::now();
            let label = m.predict(x).expect("predict on a generated row").label;
            let b = Instant::now();
            let r = m.seq_train_label(label, x);
            let c = Instant::now();
            tr.record("oselm.predict", i as u64, a, b);
            tr.record("oselm.seq_train", i as u64, b, c);
            match r {
                Ok(()) => {}
                Err(ModelError::RejectedUpdate(_)) => rejected += 1,
                Err(e) => panic!("seq_train failed on a generated row: {e}"),
            }
            predict.push(b.duration_since(a).as_secs_f64() * 1e6);
            train.push(c.duration_since(b).as_secs_f64() * 1e6);
        }
    });
    (
        summarise(&mut predict).p50,
        summarise(&mut train).p50,
        rejected as f64 / rows.len() as f64,
    )
}

/// Nanoseconds per `SampleGuard::admit` under the default guard.
pub fn guard(tr: &mut Tracer, rows: &[&[Real]]) -> f64 {
    let mut g = SampleGuard::new(GuardConfig::default(), rows[0].len()).expect("valid guard");
    let mut buf = Vec::with_capacity(rows[0].len());
    let n = rows.len();
    tr.span("layer.core.guard", 0, |tr| {
        per_call_ns(tr, "core.guard", 64, |i| {
            black_box(
                g.admit(black_box(rows[i % n]), &mut buf)
                    .expect("clean row"),
            );
        })
    })
}

/// Nanoseconds to encode and to decode one SAMPLE frame of `frame_rows`
/// rows.
pub fn proto(tr: &mut Tracer, stream: &Stream<'_>, frame_rows: usize) -> (f64, f64) {
    let mut data = Vec::new();
    stream.extend(0, frame_rows, &mut data);
    let msg = Message::Sample {
        dim: stream.dim() as u32,
        data,
    };
    let bytes = msg.encode(1);
    tr.span("layer.server.proto", 0, |tr| {
        let encode = per_call_ns(tr, "server.proto_encode", 16, |_| {
            black_box(black_box(&msg).encode(1));
        });
        let decode = per_call_ns(tr, "server.proto_decode", 16, |_| {
            let frame = read_frame(&mut black_box(bytes.as_slice())).expect("valid frame");
            black_box(Message::decode(&frame).expect("valid message"));
        });
        (encode, decode)
    })
}

/// What the fleet-only pass saw.
pub struct FleetPass {
    pub feed_us: Vec<f64>,
    pub queue_depth_max: usize,
    pub checkpoints: u64,
    pub busy_rejections: u64,
    pub samples_dropped: u64,
}

/// Feeds the sessions' rows straight into a `FleetEngine` built from `cfg`
/// (no sockets), round-robin one frame per session, timing every
/// `feed_blocking`, until `budget` has passed; then waits for every queue
/// to drain.
pub fn fleet(
    tr: &mut Tracer,
    cfg: FleetConfig,
    reference: &[u8],
    streams: &[Stream<'_>],
    frame_rows: usize,
    budget: Duration,
) -> Result<FleetPass, String> {
    let engine = FleetEngine::new(cfg).map_err(|e| format!("fleet: {e}"))?;
    for s in 0..streams.len() as u64 {
        let p = DriftPipeline::from_bytes(reference).map_err(|e| format!("reference: {e}"))?;
        engine
            .create(SessionId(s), p)
            .map_err(|e| format!("create: {e}"))?;
    }
    let mut feed_us = Vec::new();
    let mut queue_depth_max = 0;
    let mut pos = 0u64;
    let open = tr.begin("layer.fleet", 0);
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        for (s, stream) in streams.iter().enumerate() {
            let id = SessionId(s as u64);
            for i in pos..pos + frame_rows as u64 {
                let a = Instant::now();
                engine
                    .feed_blocking(id, stream.row(i))
                    .map_err(|e| format!("feed: {e}"))?;
                let b = Instant::now();
                tr.record("fleet.feed", (s as u64) << 40 | i, a, b);
                feed_us.push(b.duration_since(a).as_secs_f64() * 1e6);
            }
            queue_depth_max = queue_depth_max.max(engine.queue_depth(id));
        }
        pos += frame_rows as u64;
    }
    for s in 0..streams.len() as u64 {
        let done = engine
            .samples_processed(SessionId(s))
            .map_err(|e| format!("barrier: {e}"))?;
        if done != pos {
            return Err(format!(
                "fleet pass: session {s} applied {done} of {pos} rows"
            ));
        }
    }
    tr.end(open);
    let m = engine.shutdown().metrics;
    Ok(FleetPass {
        feed_us,
        queue_depth_max,
        checkpoints: m.durable_flushes,
        busy_rejections: m.busy_rejections,
        samples_dropped: m.samples_dropped,
    })
}

/// Microseconds per `Store::put` of `blob` into a fresh store at `dir`,
/// repeated until `budget` has passed (at least 20 puts).
pub fn store(
    tr: &mut Tracer,
    dir: &Path,
    blob: &[u8],
    budget: Duration,
) -> Result<Vec<f64>, String> {
    let store = Store::open(dir).map_err(|e| format!("store: {e}"))?;
    let mut put_us = Vec::new();
    let open = tr.begin("layer.store", 0);
    let deadline = Instant::now() + budget;
    while put_us.len() < 20 || Instant::now() < deadline {
        let a = Instant::now();
        store.put(1, blob).map_err(|e| format!("put: {e}"))?;
        let b = Instant::now();
        tr.record("store.put", put_us.len() as u64, a, b);
        put_us.push(b.duration_since(a).as_secs_f64() * 1e6);
    }
    tr.end(open);
    Ok(put_us)
}
