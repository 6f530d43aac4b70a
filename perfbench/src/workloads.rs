//! The two workloads and their fixed parameters.

use crate::inputs::{Config, CLASSES, HIDDEN, RECON_SAMPLES, WINDOW};
use crate::json::quote;

/// `fan-drift`: rows per concept period of the reoccurring stream. Long
/// enough for detection (within two windows) plus a whole reconstruction
/// before the concept switches back.
pub const FAN_DRIFT_PERIOD: u64 = 600;

/// Parameters of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// Sessions, each on its own connection, all driven by one loadgen
    /// thread.
    pub sessions: u64,
    /// Fleet worker threads (shards).
    pub workers: usize,
    pub frame_rows: usize,
    /// Rows between two checkpoints of a session, each flushed to the
    /// state dir with an fsync.
    pub checkpoint_every: u64,
    /// First drifting row of session 0; session `s` drifts `s * stagger`
    /// rows later.
    pub onset: u64,
    pub stagger: u64,
    /// A drift must be flagged within this many rows of its onset.
    pub detect_within: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    InProcess,
    Serve(ServeParams),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub config: Config,
    pub kind: Kind,
}

pub const ALL: [Workload; 2] = [
    Workload {
        name: "fan-drift",
        config: Config::Fan,
        kind: Kind::InProcess,
    },
    Workload {
        name: "nsl-serve",
        config: Config::Nsl,
        kind: Kind::Serve(ServeParams {
            sessions: 1,
            workers: 1,
            frame_rows: 8,
            checkpoint_every: 1024,
            onset: 3_000,
            stagger: 1_000,
            detect_within: 12_000,
        }),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The workload's parameters as one JSON object, for provenance.
    pub fn describe(&self, seconds: f64) -> String {
        let common = format!(
            "\"name\":{},\"config\":{},\"dim\":{},\"hidden\":{HIDDEN},\"instances\":{CLASSES},\"window\":{WINDOW},\"recon_samples\":{RECON_SAMPLES},\"run_seconds\":{seconds}",
            quote(self.name),
            quote(self.config.name()),
            self.config.dim(),
        );
        match self.kind {
            Kind::InProcess => format!(
                "{{{common},\"sessions\":1,\"threads\":1,\"drift\":\"reoccurring, period {FAN_DRIFT_PERIOD} rows\",\"frame_rows\":null}}"
            ),
            Kind::Serve(p) => format!(
                "{{{common},\"sessions\":{},\"connections\":{},\"loadgen_threads\":1,\"workers\":{},\"frame_rows\":{},\"loop\":\"closed, one frame in flight\",\"state_dir\":true,\"drift\":\"sudden at row {} + {} x session\"}}",
                p.sessions,
                p.sessions,
                p.workers,
                p.frame_rows,
                p.onset,
                p.stagger,
            ),
        }
    }
}
