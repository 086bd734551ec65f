//! The regime sweep: `run_cell` for LinUCB under all five privacy regimes
//! on the paper's three workloads, one cell after another on one thread.

use crate::stats::Fnv;
use crate::trace::{reduce, Reduction, Span, Tracer};
use p2b_experiments::{
    run_cell, CellResult, CellSpec, MatrixConfig, PolicyKind, PrivacyRegime, ScenarioKind,
};
use p2b_shuffler::splitmix64;
use std::time::Instant;

/// The paper's workloads: Figs. 4–5, Fig. 6 and Fig. 7.
pub const SCENARIOS: [ScenarioKind; 3] = [
    ScenarioKind::SyntheticGaussian,
    ScenarioKind::MultiLabel,
    ScenarioKind::CriteoLike,
];

/// Span name of a regime's cells.
#[must_use]
pub fn cell_span(regime: PrivacyRegime) -> &'static str {
    match regime {
        PrivacyRegime::NonPrivate => "cell.non_private",
        PrivacyRegime::LocalDp => "cell.ldp",
        PrivacyRegime::P2bShuffle => "cell.p2b_shuffle",
        PrivacyRegime::CentralDp => "cell.central_dp",
        PrivacyRegime::SecureAgg => "cell.secure_agg",
    }
}

/// The matrix configuration every cell runs under: the library defaults
/// (T = 10, 32 codes, l = 2, p = 0.5) with a larger population.
#[must_use]
pub fn matrix_config() -> MatrixConfig {
    MatrixConfig {
        num_users: 600,
        cell_workers: 1,
        ..MatrixConfig::new()
            .with_scenarios(SCENARIOS.to_vec())
            .with_regimes(PrivacyRegime::ALL.to_vec())
            .with_policies(vec![PolicyKind::LinUcb])
    }
}

/// The sweep's cells, seeded from `seed`, scenario-major.
#[must_use]
pub fn cell_specs(seed: u64) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (si, &scenario) in SCENARIOS.iter().enumerate() {
        for (ri, &regime) in PrivacyRegime::ALL.iter().enumerate() {
            specs.push(CellSpec {
                scenario,
                regime,
                policy: PolicyKind::LinUcb,
                repeat: 0,
                seed: splitmix64(seed ^ splitmix64((si * 8 + ri) as u64 + 1)),
            });
        }
    }
    specs
}

/// One pass over every cell.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Wall of the pass, seconds.
    pub wall_s: f64,
    /// Simulated rounds across all cells.
    pub rounds: u64,
    /// Digest of every cell's result.
    pub digest: String,
    /// P2B mean reward summed over the workloads.
    pub p2b_reward: f64,
    /// Non-private mean reward summed over the workloads.
    pub non_private_reward: f64,
    /// P2B mean reward on `synthetic_gaussian`.
    pub gaussian_p2b: f64,
    /// LDP mean reward on `synthetic_gaussian`.
    pub gaussian_ldp: f64,
    /// Per-name reduction of the pass's spans, when traced.
    pub trace: Option<Reduction>,
    /// The pass's spans, when traced.
    pub spans: Vec<Span>,
    /// Failed output checks.
    pub violations: Vec<String>,
}

fn absorb(fnv: &mut Fnv, cell: &CellResult) {
    fnv.u64(cell.spec.seed);
    fnv.u64(cell.rounds);
    fnv.f64(cell.final_cumulative_reward);
    fnv.f64(cell.final_cumulative_regret);
    fnv.u64(cell.shared_reports);
    fnv.u64(cell.submitted_reports);
    fnv.f64(cell.epsilon.unwrap_or(-1.0));
    fnv.f64(cell.delta.unwrap_or(-1.0));
}

fn reward(cells: &[CellResult], regime: PrivacyRegime) -> f64 {
    cells
        .iter()
        .filter(|c| c.spec.regime == regime)
        .map(|c| c.average_reward)
        .sum()
}

/// Runs `specs` one after another.
///
/// # Errors
///
/// Returns the first cell's error.
pub fn run_sweep(config: &MatrixConfig, specs: &[CellSpec], traced: bool) -> Result<Sweep, String> {
    let mut tracer = Tracer::new(traced, Instant::now());
    let start = tracer.now();
    let started = Instant::now();
    let mut cells = Vec::with_capacity(specs.len());
    for &spec in specs {
        let span = tracer.begin(cell_span(spec.regime), cells.len() as u64);
        let cell = run_cell(config, spec);
        tracer.end(span);
        cells.push(cell.map_err(|e| e.to_string())?);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let end = tracer.now();

    let mut fnv = Fnv::default();
    cells.iter().for_each(|c| absorb(&mut fnv, c));
    let mut violations = Vec::new();
    let gaussian = |regime| {
        cells
            .iter()
            .filter(|c| {
                c.spec.scenario == ScenarioKind::SyntheticGaussian && c.spec.regime == regime
            })
            .map(|c| c.average_reward)
            .sum()
    };
    if let Some(empty) = cells.iter().find(|c| c.rounds == 0) {
        violations.push(format!(
            "{} / {} ran no rounds",
            empty.spec.scenario, empty.spec.regime
        ));
    }
    let spans = tracer.take();
    Ok(Sweep {
        wall_s,
        rounds: cells.iter().map(|c| c.rounds).sum(),
        digest: fnv.hex(),
        p2b_reward: reward(&cells, PrivacyRegime::P2bShuffle),
        non_private_reward: reward(&cells, PrivacyRegime::NonPrivate),
        gaussian_p2b: gaussian(PrivacyRegime::P2bShuffle),
        gaussian_ldp: gaussian(PrivacyRegime::LocalDp),
        trace: traced.then(|| reduce(std::slice::from_ref(&spans), (start, end), &[])),
        spans,
        violations,
    })
}
