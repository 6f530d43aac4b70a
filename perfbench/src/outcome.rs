//! What a run produced, the correctness gate, and the result line.

use std::collections::BTreeMap;

use crate::catalog::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::TAIL_PCT;

/// Everything one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Samples the run tried to apply.
    pub attempted: u64,
    /// NACKs + BUSY replies + samples dropped by the fleet + samples the
    /// guard rejected + device (client or pipeline) errors.
    pub failed: u64,
    /// Samples confirmed applied.
    pub applied: u64,
    /// Sessions that hit an error they could not finish past.
    pub sessions_failed: u64,
    /// Whether every window behind `latency_p99_us` has at least ten
    /// samples beyond its 99th percentile.
    pub latency_tail_backed: bool,
    /// Named correctness checks: `Err` carries what was wrong.
    pub checks: Vec<(&'static str, Result<(), String>)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks
            .push((name, if ok { Ok(()) } else { Err(detail()) }));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The metrics a run must report.
pub fn required(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Refuses a run whose outputs are wrong or that measured nothing. On
/// refusal the benchmark prints no result and writes no trace.
pub fn gate(o: &Outcome, trace: bool) -> Result<(), Vec<String>> {
    let mut why: Vec<String> = o
        .checks
        .iter()
        .filter_map(|(name, r)| r.as_ref().err().map(|e| format!("{name}: {e}")))
        .collect();
    if o.attempted == 0 || o.applied == 0 {
        why.push(format!(
            "degenerate run: {} attempted, {} applied",
            o.attempted, o.applied
        ));
    }
    if o.sessions_failed > 0 {
        why.push(format!("{} session(s) failed", o.sessions_failed));
    }
    if o.failed > 0 {
        why.push(format!(
            "error_rate {} ({} of {} samples) on a clean workload",
            o.error_rate(),
            o.failed,
            o.attempted
        ));
    }
    if !trace && !o.latency_tail_backed {
        why.push(format!(
            "a time window holds too few latency samples to back a p{TAIL_PCT}"
        ));
    }
    for m in required(trace) {
        match o.metrics.get(m.name) {
            None => why.push(format!("metric {} missing", m.name)),
            Some(v) if !v.is_finite() => why.push(format!("metric {} is {v}", m.name)),
            Some(&v) if m.bound.is_some() && v <= 0.0 => {
                why.push(format!("end-to-end metric {} is {v}", m.name))
            }
            _ => {}
        }
    }
    if why.is_empty() {
        Ok(())
    } else {
        Err(why)
    }
}

/// The last line of standard output.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = required(trace)
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(o.metrics.get(m.name).copied().unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn healthy(trace: bool) -> Outcome {
        let mut o = Outcome {
            attempted: 100,
            applied: 100,
            latency_tail_backed: true,
            ..Outcome::default()
        };
        for m in required(trace) {
            o.set(m.name, 1.5);
        }
        o.check("replay", true, String::new);
        o
    }

    #[test]
    fn gate_accepts_a_clean_run() {
        assert_eq!(gate(&healthy(false), false), Ok(()));
        assert_eq!(gate(&healthy(true), true), Ok(()));
    }

    #[test]
    fn gate_refuses_degenerate_runs() {
        let mut zero = healthy(false);
        zero.applied = 0;
        assert!(gate(&zero, false).unwrap_err()[0].contains("degenerate"));

        let mut nothing = healthy(false);
        nothing.attempted = 0;
        assert!(gate(&nothing, false).is_err());

        let mut failed_session = healthy(false);
        failed_session.sessions_failed = 1;
        assert!(gate(&failed_session, false).is_err());

        let mut errors = healthy(false);
        errors.failed = 1;
        assert!(gate(&errors, false).unwrap_err()[0].contains("error_rate"));

        let mut wrong = healthy(false);
        wrong.check("replay", false, || "state differs".into());
        assert!(gate(&wrong, false).unwrap_err()[0].contains("state differs"));

        let mut zero_metric = healthy(false);
        zero_metric.set("throughput_sps", 0.0);
        assert!(gate(&zero_metric, false).is_err());

        let mut short_tail = healthy(false);
        short_tail.latency_tail_backed = false;
        assert!(gate(&short_tail, false).is_err());

        let mut missing = healthy(true);
        missing.metrics.remove("fleet.feed_us_p50");
        assert!(gate(&missing, true).is_err());
    }

    /// The metric names of a result line, in the order they appear.
    pub fn metric_names(line: &str) -> Vec<String> {
        let parts: Vec<&str> = line.split(":{\"value\":").collect();
        parts[..parts.len() - 1]
            .iter()
            .map(|p| p.rsplit('"').nth(1).unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn result_line_carries_every_required_metric() {
        let o = healthy(false);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{"));
        assert!(line.ends_with("}}"));
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&line), want);
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
