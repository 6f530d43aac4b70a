//! Workload inputs: generated rows, drift schedules and calibrated models.
//!
//! Rows come from the repository's own generators (`seqdrift_datasets`).
//! Each concept of a workload is a pool of generated rows; a session's
//! stream walks its concept's pool with a per-session offset and a prime
//! stride, so row `i` of a session is a pure function of (seed, session,
//! i), streams of any length need no more memory than the pools, and no
//! row ever repeats back to back.

use seqdrift_core::reconstruct::ReconstructConfig;
use seqdrift_core::{DetectorConfig, DriftPipeline, PipelineConfig};
use seqdrift_datasets::fan::{self, Environment, FanCondition, FanConfig, SPECTRUM_BINS};
use seqdrift_datasets::nslkdd::{self, NslKddConfig};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

/// OS-ELM hidden nodes at both of the paper's configurations.
pub const HIDDEN: usize = 22;
/// Classes, and so model instances, at both configurations.
pub const CLASSES: usize = 2;
/// Detection window `W`.
pub const WINDOW: usize = 100;
/// Samples one reconstruction (Algorithms 2–4) consumes.
pub const RECON_SAMPLES: usize = 200;
/// Rows generated per fan concept pool.
const FAN_POOL_ROWS: usize = 1024;
/// Healthy-fan and hole-damage training spectra per class.
const FAN_TRAIN_PER_CLASS: usize = 60;
/// Prime larger than every pool, so stepping by it visits a whole pool
/// before repeating and never lands on the same row twice in a row.
const STRIDE: u64 = 1_000_003;

/// The paper's two configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// NSL-KDD: 38 features, normal / neptune.
    Nsl,
    /// Cooling fan: 511-bin spectra, healthy / hole-damaged fan.
    Fan,
}

impl Config {
    pub fn dim(self) -> usize {
        match self {
            Config::Nsl => 38,
            Config::Fan => SPECTRUM_BINS,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Config::Nsl => "nsl-kdd",
            Config::Fan => "fan",
        }
    }
}

/// When a session's stream changes concept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Concept 0 before `onset`, concept 1 from it on.
    Sudden { onset: u64 },
    /// Concept 1 in odd periods of `period` rows, concept 0 in even ones.
    Reoccurring { period: u64 },
}

impl Schedule {
    pub fn concept_at(self, i: u64) -> usize {
        match self {
            Schedule::Sudden { onset } => usize::from(i >= onset),
            Schedule::Reoccurring { period } => ((i / period) % 2) as usize,
        }
    }

    /// Rows at which the concept changes, below `rows`.
    pub fn onsets(self, rows: u64) -> Vec<u64> {
        match self {
            Schedule::Sudden { onset } => (onset < rows).then_some(onset).into_iter().collect(),
            Schedule::Reoccurring { period } => (1..)
                .map(|k| k * period)
                .take_while(|&t| t < rows)
                .collect(),
        }
    }
}

/// Generated rows, one contiguous pool per concept.
pub struct Pools {
    pub dim: usize,
    concepts: [Vec<Real>; 2],
}

impl Pools {
    fn rows(&self, concept: usize) -> usize {
        self.concepts[concept].len() / self.dim
    }

    fn row(&self, concept: usize, j: usize) -> &[Real] {
        &self.concepts[concept][j * self.dim..(j + 1) * self.dim]
    }
}

/// Everything set-up generates for one configuration.
pub struct Inputs {
    pub config: Config,
    pub train: Vec<(usize, Vec<Real>)>,
    pub pools: Pools,
}

/// splitmix64: derives independent seeds from the workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn derive(seed: u64, domain: u64) -> u64 {
    mix(seed ^ mix(domain))
}

/// Generates the training split and concept pools for `config`.
pub fn synth(config: Config, seed: u64) -> Inputs {
    match config {
        Config::Nsl => synth_nsl(seed),
        Config::Fan => synth_fan(seed),
    }
}

/// NSL-KDD at the paper's sizes: 2522 training rows and a 22701-row test
/// stream drifting at 8333. The pre-drift rows form concept 0, the rest
/// concept 1.
fn synth_nsl(seed: u64) -> Inputs {
    let cfg = NslKddConfig {
        seed: derive(seed, 1),
        ..NslKddConfig::default()
    };
    let data = nslkdd::generate(&cfg);
    let flat = |rows: &[seqdrift_datasets::Sample]| -> Vec<Real> {
        rows.iter().flat_map(|s| s.x.iter().copied()).collect()
    };
    let (old, new) = data.test.split_at(cfg.drift_point);
    Inputs {
        config: Config::Nsl,
        train: data.train_pairs(),
        pools: Pools {
            dim: cfg.dim,
            concepts: [flat(old), flat(new)],
        },
    }
}

/// Fan spectra: class 0 a healthy fan, class 1 a hole-damaged one, both
/// trained in a silent room. Concept 1 moves both classes next to a
/// ventilation fan (the generator's noisy environment).
fn synth_fan(seed: u64) -> Inputs {
    let cfg = FanConfig::default();
    let mut rng = Rng::seed_from(derive(seed, 2));
    let conditions = [FanCondition::Normal, FanCondition::HoleDamage];
    let mut train = Vec::with_capacity(CLASSES * FAN_TRAIN_PER_CLASS);
    for (label, &condition) in conditions.iter().enumerate() {
        for _ in 0..FAN_TRAIN_PER_CLASS {
            train.push((
                label,
                fan::spectrum(&cfg, condition, Environment::Silent, &mut rng),
            ));
        }
    }
    let mut pool = |env: Environment| -> Vec<Real> {
        let mut rows = Vec::with_capacity(FAN_POOL_ROWS * SPECTRUM_BINS);
        for _ in 0..FAN_POOL_ROWS {
            let label = rng.below(CLASSES as u64) as usize;
            rows.extend(fan::spectrum(&cfg, conditions[label], env, &mut rng));
        }
        rows
    };
    let concepts = [pool(Environment::Silent), pool(Environment::Noisy)];
    Inputs {
        config: Config::Fan,
        train,
        pools: Pools {
            dim: SPECTRUM_BINS,
            concepts,
        },
    }
}

/// Trains the two-instance model on the training split and calibrates the
/// detector thresholds (Eq. 1), as `seqdrift train` does.
pub fn calibrate(inputs: &Inputs, seed: u64) -> DriftPipeline {
    let dim = inputs.config.dim();
    let mut model = MultiInstanceModel::new(
        CLASSES,
        OsElmConfig::new(dim, HIDDEN).with_seed(derive(seed, 3)),
    )
    .expect("valid model shape");
    for label in 0..CLASSES {
        let rows: Vec<Vec<Real>> = inputs
            .train
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, x)| x.clone())
            .collect();
        model
            .init_train_class(label, &rows)
            .expect("initial training on generated rows");
    }
    let pairs: Vec<(usize, &[Real])> = inputs
        .train
        .iter()
        .map(|(l, x)| (*l, x.as_slice()))
        .collect();
    let det = DetectorConfig::new(CLASSES, dim).with_window(WINDOW);
    let cfg = PipelineConfig::new(det.clone()).with_reconstruct(
        ReconstructConfig::new(RECON_SAMPLES)
            .with_search(20)
            .with_update(50),
    );
    DriftPipeline::calibrate_with(model, det, &pairs, Some(cfg))
        .expect("calibration on generated rows")
}

/// One session's view of the pools.
#[derive(Clone, Copy)]
pub struct Stream<'a> {
    pools: &'a Pools,
    pub schedule: Schedule,
    offset: u64,
}

impl<'a> Stream<'a> {
    pub fn new(pools: &'a Pools, schedule: Schedule, seed: u64, session: u64) -> Stream<'a> {
        Stream {
            pools,
            schedule,
            offset: derive(seed, 0x5E55_0000 + session),
        }
    }

    pub fn dim(&self) -> usize {
        self.pools.dim
    }

    /// Row `i` of the stream.
    pub fn row(&self, i: u64) -> &'a [Real] {
        let concept = self.schedule.concept_at(i);
        let n = self.pools.rows(concept) as u64;
        let j = (self.offset % n + (i % n) * (STRIDE % n)) % n;
        self.pools.row(concept, j as usize)
    }

    /// Appends rows `start..start + rows` to `out`.
    pub fn extend(&self, start: u64, rows: usize, out: &mut Vec<Real>) {
        for i in start..start + rows as u64 {
            out.extend_from_slice(self.row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_switch_where_declared() {
        let s = Schedule::Sudden { onset: 5 };
        assert_eq!((s.concept_at(4), s.concept_at(5)), (0, 1));
        assert_eq!(s.onsets(5), Vec::<u64>::new());
        assert_eq!(s.onsets(6), vec![5]);
        let r = Schedule::Reoccurring { period: 10 };
        assert_eq!(
            (r.concept_at(9), r.concept_at(10), r.concept_at(20)),
            (0, 1, 0)
        );
        assert_eq!(r.onsets(31), vec![10, 20, 30]);
    }

    #[test]
    fn streams_are_pure_and_never_repeat_a_row_back_to_back() {
        let inputs = synth(Config::Nsl, 4);
        let a = Stream::new(&inputs.pools, Schedule::Sudden { onset: 100 }, 4, 0);
        let b = Stream::new(&inputs.pools, Schedule::Sudden { onset: 100 }, 4, 1);
        assert_ne!(a.row(0), b.row(0), "sessions start at different rows");
        for i in 0..300 {
            assert_eq!(a.row(i), a.row(i));
            assert_ne!(a.row(i), a.row(i + 1));
        }
        let mut buf = Vec::new();
        a.extend(98, 3, &mut buf);
        assert_eq!(&buf[38..76], a.row(99));
    }
}
