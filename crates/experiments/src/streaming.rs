//! Streaming workload scenarios: attack pipelines at record counts that are
//! generated, disguised, attacked and scored **without ever materializing an
//! `n × m` matrix**.
//!
//! A [`StreamingScenario`] is a thin named grid over the declarative
//! scenario engine ([`crate::scenario`]): its [`StreamingScenario::grid`]
//! sweeps the paper's **full five-scheme comparison** (NDR / UDR / SF /
//! PCA-DR / BE-DR) across the streaming engine, and the runner's workload
//! grouping accumulates pass-1 moments once per stream and shares them
//! between the schemes. Peak memory is a few chunks plus `m × m` state, so
//! the 500 k-record scenario runs comfortably where the in-memory pipeline
//! would need hundreds of megabytes of record storage. `scenarios --grid
//! streaming` and `--grid streaming-500k` run these grids.

use crate::config::SchemeKind;
use crate::scenario::{
    AttackSpec, DataSpec, EngineSpec, GridAxis, MetricKind, NoiseSpec, ScenarioGrid, ScenarioSpec,
    SpectrumSpec,
};

/// Configuration of one streaming attack scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingScenario {
    /// Records to stream.
    pub n_records: usize,
    /// Attributes per record.
    pub n_attributes: usize,
    /// Rows per chunk (the memory knob).
    pub chunk_rows: usize,
    /// Principal components of the synthetic workload.
    pub principal_components: usize,
    /// Standard deviation of the independent Gaussian noise.
    pub noise_sigma: f64,
    /// Base seed (generator and noise derive child seeds from it).
    pub seed: u64,
}

impl StreamingScenario {
    /// A small smoke-sized scenario for tests.
    pub fn quick() -> Self {
        StreamingScenario {
            n_records: 10_000,
            n_attributes: 16,
            chunk_rows: 2_048,
            principal_components: 3,
            noise_sigma: 8.0,
            seed: 7,
        }
    }

    /// The PR-3 trajectory size shared with the in-memory benches:
    /// 50 k × 64.
    pub fn standard_50k() -> Self {
        StreamingScenario {
            n_records: 50_000,
            n_attributes: 64,
            chunk_rows: 4_096,
            principal_components: 6,
            noise_sigma: 10.0,
            seed: 50,
        }
    }

    /// The bounded-memory flagship: 500 k × 64 (an in-memory run would need
    /// ~256 MB per record matrix; streaming peaks at a few chunk buffers).
    pub fn large_500k() -> Self {
        StreamingScenario {
            n_records: 500_000,
            n_attributes: 64,
            chunk_rows: 8_192,
            principal_components: 6,
            noise_sigma: 10.0,
            seed: 500,
        }
    }

    /// The scenario as a declarative five-scheme grid over the streaming
    /// engine. The runner's workload grouping accumulates pass-1 moments
    /// once and shares them across all five schemes, exactly like the old
    /// hand-written sweep; the pinned seeds (`dataset_seed = seed`,
    /// `noise_seed = seed + 1`) reproduce its streams verbatim.
    pub fn grid(&self) -> ScenarioGrid {
        ScenarioGrid {
            base: ScenarioSpec {
                label: "streaming".to_string(),
                x: 0.0,
                data: DataSpec::SyntheticMvn {
                    spectrum: SpectrumSpec::PrincipalPlusSmall {
                        p: self.principal_components,
                        principal: 400.0,
                        m: self.n_attributes,
                        small: 4.0,
                    },
                    records: self.n_records,
                },
                noise: NoiseSpec::Gaussian {
                    sigma: self.noise_sigma,
                },
                attack: AttackSpec::Scheme(SchemeKind::BeDr),
                engine: EngineSpec::Streaming {
                    chunk_rows: self.chunk_rows,
                },
                metrics: vec![MetricKind::Mse],
                trials: 1,
                seed: self.seed,
                seed_offset: 0,
                dataset_seed: Some(self.seed),
                noise_seed: Some(self.seed + 1),
            },
            axes: vec![GridAxis::schemes(&SchemeKind::all())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::results_table;

    #[test]
    fn quick_scenario_runs_all_five_schemes_with_the_expected_ordering() {
        let scenario = StreamingScenario::quick();
        let results = scenario.grid().run().unwrap();
        let cell = |scheme: SchemeKind| {
            results
                .iter()
                .find(|r| r.scheme == Some(scheme))
                .unwrap_or_else(|| panic!("no {} cell", scheme.label()))
        };
        let mse = |scheme: SchemeKind| cell(scheme).metric(MetricKind::Mse).unwrap();
        let floor = scenario.noise_sigma * scenario.noise_sigma;
        // NDR measures the empirical noise floor.
        let ndr = mse(SchemeKind::Ndr);
        assert!(
            (ndr - floor).abs() / floor < 0.1,
            "NDR mse {ndr} should sit at the σ² = {floor} noise floor"
        );
        // Every real attack beats the floor. PCA-DR beats UDR on this
        // correlated workload (3 principal components out of 16 attributes);
        // SF only has to beat the floor — its Marčenko–Pastur bound sits
        // right at the bulk edge here, and over-keeping components is
        // exactly the SF weakness the paper documents.
        let udr = mse(SchemeKind::Udr);
        let sf = mse(SchemeKind::SpectralFiltering);
        let pca_dr = mse(SchemeKind::PcaDr);
        let be_dr = mse(SchemeKind::BeDr);
        assert!(udr < 0.8 * floor, "UDR {udr}");
        assert!(sf < 0.8 * floor, "SF {sf}");
        assert!(pca_dr < udr, "PCA-DR {pca_dr} vs UDR {udr}");
        assert!(
            be_dr < 0.5 * floor,
            "BE-DR mse {be_dr} vs noise floor {floor}"
        );
        // BE-DR is at least as strong as PCA-DR (the paper's Section 6 result).
        assert!(be_dr <= pca_dr * 1.05);
        assert_eq!(cell(SchemeKind::PcaDr).components_kept, Some(3));
        assert_eq!(cell(SchemeKind::Ndr).components_kept, None);
        let be = cell(SchemeKind::BeDr);
        assert_eq!(be.n_records, scenario.n_records);
        assert!(be.seconds > 0.0);
        let rendered = results_table(&results);
        for label in ["NDR", "UDR", "SF", "PCA-DR", "BE-DR"] {
            assert!(rendered.contains(label), "missing {label} in:\n{rendered}");
        }
        assert!(rendered.contains("seconds"));
    }

    #[test]
    fn scenario_validation_rejects_nonsense() {
        let mut s = StreamingScenario::quick();
        s.n_records = 1;
        assert!(s.grid().run().is_err());
        let mut s = StreamingScenario::quick();
        s.chunk_rows = 0;
        assert!(s.grid().run().is_err());
        let mut s = StreamingScenario::quick();
        s.principal_components = 0;
        assert!(s.grid().run().is_err());
        let mut s = StreamingScenario::quick();
        s.noise_sigma = -1.0;
        assert!(s.grid().run().is_err());
    }
}
