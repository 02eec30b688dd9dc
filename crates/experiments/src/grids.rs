//! The named-grid registry behind `scenarios --grid <name>`: every sweep the
//! harness ships — the default scheme × noise × engine sweep, Figures 1–4,
//! the ablations and the streaming comparison — as a name that expands to
//! one or more [`ScenarioGrid`]s at two sizes.
//!
//! | Name | Grids |
//! |---|---|
//! | `sweep` (default) | 5 schemes × 3 noise models × both engines |
//! | `figure1` … `figure4` | [`Experiment1`] … [`Experiment4`] |
//! | `figures` | all four figures |
//! | `ablation` | selection, noise-shape, noise-level and sample-size ablations |
//! | `streaming` | [`StreamingScenario`]: 10 k × 16 smoke, 50 k × 64 default |
//! | `streaming-500k` | the 500 k × 64 flagship at both sizes |
//!
//! The smoke size is each grid's quick configuration. A name that holds
//! several grids runs all their specs as one sweep (one runner call, one
//! journal, one shard plan, one `outcome hash:`), so every registered grid
//! gets fail-soft outcomes, journals and shards. Figure-shaped grids also
//! carry the regrouping into their [`ExperimentSeries`], which [`series`]
//! applies to the sweep's outcomes.

use crate::ablation::{
    AblationWorkload, NoiseLevelAblation, NoiseShapeAblation, SampleSizeAblation, SelectionAblation,
};
use crate::config::{ExperimentSeries, SchemeKind};
use crate::error::Result;
use crate::exp1::Experiment1;
use crate::exp2::Experiment2;
use crate::exp3::Experiment3;
use crate::exp4::Experiment4;
use crate::scenario::{
    check_unique_labels, EngineSpec, GridAxis, MetricKind, NoiseSpec, ScenarioGrid,
    ScenarioOutcome, ScenarioResult, ScenarioSpec,
};
use crate::streaming::StreamingScenario;

/// The grid `scenarios` runs when no `--grid` is given.
pub const DEFAULT: &str = "sweep";

/// Regroups one grid's completed results into its figure series.
type SeriesFn = Box<dyn Fn(&[ScenarioResult]) -> ExperimentSeries>;

/// One grid of a registry entry.
pub struct NamedGrid {
    /// The cells.
    grid: ScenarioGrid,
    /// The regrouping into a figure series, for figure-shaped grids; `None`
    /// for grids that report through the outcome table alone.
    series: Option<SeriesFn>,
}

impl NamedGrid {
    fn plain(grid: ScenarioGrid) -> NamedGrid {
        NamedGrid { grid, series: None }
    }

    fn with_series<C: 'static>(
        config: C,
        grid: fn(&C) -> ScenarioGrid,
        series: fn(&C, &[ScenarioResult]) -> ExperimentSeries,
    ) -> NamedGrid {
        NamedGrid {
            grid: grid(&config),
            series: Some(Box::new(move |results| series(&config, results))),
        }
    }
}

/// Builds a name's grids at the default (`false`) or smoke (`true`) size.
type BuildFn = fn(bool) -> Vec<NamedGrid>;

/// The registry: each name with the function that builds its grids.
const REGISTRY: [(&str, BuildFn); 9] = [
    ("sweep", |smoke| vec![NamedGrid::plain(sweep(smoke))]),
    ("figure1", |smoke| vec![figure1(smoke)]),
    ("figure2", |smoke| vec![figure2(smoke)]),
    ("figure3", |smoke| vec![figure3(smoke)]),
    ("figure4", |smoke| vec![figure4(smoke)]),
    ("figures", |smoke| {
        vec![
            figure1(smoke),
            figure2(smoke),
            figure3(smoke),
            figure4(smoke),
        ]
    }),
    ("ablation", ablations),
    ("streaming", |smoke| {
        let scenario = if smoke {
            StreamingScenario::quick()
        } else {
            StreamingScenario::standard_50k()
        };
        vec![NamedGrid::plain(scenario.grid())]
    }),
    ("streaming-500k", |_| {
        vec![NamedGrid::plain(StreamingScenario::large_500k().grid())]
    }),
];

/// Every registered name, in listing order.
pub fn names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, _)| name)
}

/// The grids registered under `name`, at the smoke size when `smoke` is
/// set; `None` for an unknown name.
pub fn lookup(name: &str, smoke: bool) -> Option<Vec<NamedGrid>> {
    REGISTRY
        .iter()
        .find(|&&(registered, _)| registered == name)
        .map(|&(_, build)| build(smoke))
}

/// Expands and validates every grid, in order, into one spec list. Labels
/// must be unique across the combined list, not just within each grid.
pub fn expand(grids: &[NamedGrid]) -> Result<Vec<ScenarioSpec>> {
    let mut specs = Vec::new();
    for named in grids {
        specs.extend(named.grid.expand_validated()?);
    }
    check_unique_labels(&specs)?;
    Ok(specs)
}

/// The figure series of a finished sweep over `grids`: `outcomes` is in
/// [`expand`] order, so each grid owns the next `grid.expand().len()`
/// outcomes. Failed cells are left out of the series; they are reported as
/// failures.
pub fn series(grids: &[NamedGrid], outcomes: &[ScenarioOutcome]) -> Vec<ExperimentSeries> {
    let mut rest = outcomes;
    let mut out = Vec::new();
    for named in grids {
        let (own, tail) = rest.split_at(named.grid.expand().len().min(rest.len()));
        rest = tail;
        if let Some(series) = &named.series {
            let results: Vec<ScenarioResult> = own
                .iter()
                .filter_map(|o| o.as_completed().cloned())
                .collect();
            out.push(series(&results));
        }
    }
    out
}

/// The default sweep: every scheme through both engines under independent
/// Gaussian, independent uniform and correlated-similar noise, 20 k × 32
/// (smoke: 2 k × 12).
fn sweep(smoke: bool) -> ScenarioGrid {
    let (records, attributes, chunk_rows) = if smoke {
        (2_000, 12, 256)
    } else {
        (20_000, 32, 2_048)
    };
    let mut base =
        ScenarioSpec::synthetic_quick("sweep", records, attributes, (attributes / 4).max(1));
    base.metrics = vec![MetricKind::Rmse, MetricKind::Mse];
    base.seed = 0x5EED_5EEE;
    ScenarioGrid {
        base,
        axes: vec![
            GridAxis::noises(&[
                ("gaussian", NoiseSpec::Gaussian { sigma: 10.0 }),
                ("uniform", NoiseSpec::Uniform { sigma: 10.0 }),
                (
                    "correlated",
                    NoiseSpec::CorrelatedSimilar {
                        similarity: 0.5,
                        noise_variance: 100.0,
                    },
                ),
            ]),
            GridAxis::engines(&[EngineSpec::InMemory, EngineSpec::Streaming { chunk_rows }]),
            GridAxis::schemes(&SchemeKind::all()),
        ],
    }
}

fn figure1(smoke: bool) -> NamedGrid {
    let config = if smoke {
        Experiment1::quick()
    } else {
        Experiment1::full()
    };
    NamedGrid::with_series(config, Experiment1::grid, Experiment1::series)
}

fn figure2(smoke: bool) -> NamedGrid {
    let config = if smoke {
        Experiment2::quick()
    } else {
        Experiment2::full()
    };
    NamedGrid::with_series(config, Experiment2::grid, Experiment2::series)
}

fn figure3(smoke: bool) -> NamedGrid {
    let config = if smoke {
        Experiment3::quick()
    } else {
        Experiment3::full()
    };
    NamedGrid::with_series(config, Experiment3::grid, Experiment3::series)
}

fn figure4(smoke: bool) -> NamedGrid {
    let config = if smoke {
        Experiment4::quick()
    } else {
        Experiment4::full()
    };
    NamedGrid::with_series(config, Experiment4::grid, Experiment4::series)
}

fn ablations(smoke: bool) -> Vec<NamedGrid> {
    let (workload, noise_level, sample_size) = if smoke {
        (
            AblationWorkload::quick(),
            NoiseLevelAblation::quick(),
            SampleSizeAblation::quick(),
        )
    } else {
        (
            AblationWorkload::default(),
            NoiseLevelAblation::default(),
            SampleSizeAblation::default(),
        )
    };
    vec![
        NamedGrid::plain(
            SelectionAblation {
                workload: workload.clone(),
            }
            .grid(),
        ),
        NamedGrid::plain(NoiseShapeAblation { workload }.grid()),
        NamedGrid::with_series(
            noise_level,
            NoiseLevelAblation::grid,
            NoiseLevelAblation::series,
        ),
        NamedGrid::with_series(
            sample_size,
            SampleSizeAblation::grid,
            SampleSizeAblation::series,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_expands_and_validates_at_both_sizes_with_unique_labels() {
        assert!(names().any(|name| name == DEFAULT));
        for name in names() {
            for smoke in [false, true] {
                let grids = lookup(name, smoke).expect("registered name");
                assert!(!grids.is_empty(), "{name}: no grids");
                let specs =
                    expand(&grids).unwrap_or_else(|e| panic!("{name} (smoke {smoke}): {e}"));
                let labels: HashSet<&str> = specs.iter().map(|s| s.label.as_str()).collect();
                assert_eq!(labels.len(), specs.len(), "{name}: duplicate labels");
            }
        }
        assert!(lookup("figure5", true).is_none());
    }

    #[test]
    fn figure1_smoke_is_the_quick_experiment() {
        let grids = lookup("figure1", true).unwrap();
        assert_eq!(grids.len(), 1);
        assert_eq!(
            expand(&grids).unwrap(),
            Experiment1::quick().grid().expand()
        );
    }

    #[test]
    fn default_sweep_is_thirty_cells_at_both_sizes() {
        for smoke in [false, true] {
            let specs = expand(&lookup(DEFAULT, smoke).unwrap()).unwrap();
            assert_eq!(specs.len(), 30);
        }
    }

    #[test]
    fn series_slices_outcomes_per_grid() {
        // Two figure grids back to back: each series sees only its own
        // cells, so the second one's points are not polluted by the first.
        let grids = vec![figure1(true), figure4(true)];
        let specs = expand(&grids).unwrap();
        let outcomes: Vec<ScenarioOutcome> = specs
            .iter()
            .map(|spec| {
                ScenarioOutcome::Completed(ScenarioResult {
                    label: spec.label.clone(),
                    x: spec.x,
                    scheme: spec.attack.scheme(),
                    attack: spec.attack.label(),
                    engine: spec.engine.label(),
                    n_records: 1,
                    trials: 1,
                    metrics: vec![(MetricKind::Rmse, 1.0)],
                    components_kept: None,
                    seconds: 0.0,
                    warnings: Vec::new(),
                })
            })
            .collect();
        let series = series(&grids, &outcomes);
        assert_eq!(series.len(), 2);
        assert!(series[0].name.starts_with("Figure 1"));
        assert_eq!(series[0].points.len(), 3);
        assert_eq!(series[0].schemes().len(), 4);
        assert!(series[1].name.starts_with("Figure 4"));
        assert_eq!(series[1].schemes().len(), 3);
    }
}
