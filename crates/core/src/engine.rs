//! The attack vocabulary shared by both execution engines.
//!
//! The paper's evaluation is a matrix of {scheme × engine}: five
//! reconstruction attacks, each runnable either **in memory** (materialize
//! the disguised table, run the [`Reconstructor`]) or **streaming** (two
//! bounded-memory passes over a record source through the
//! [`StreamingDriver`](crate::streaming::StreamingDriver)).
//! [`AttackScheme`] names the five schemes and [`Attack`] carries a
//! configured instance of one of them, with one method per engine:
//! [`Attack::reconstruct_table_with_report`] runs it in memory and
//! [`Attack::chunk_reconstructor`] yields the streaming form.
//!
//! The scenario layer in `randrecon-experiments` calls those two methods
//! for its in-memory and streaming cells.

use crate::be_dr::BeDr;
use crate::error::{ReconError, Result};
use crate::ndr::Ndr;
use crate::pca_dr::PcaDr;
use crate::spectral::SpectralFiltering;
use crate::streaming::{
    ChunkReconstructor, StreamingBeDr, StreamingNdr, StreamingPcaDr, StreamingSf, StreamingUdr,
};
use crate::traits::Reconstructor;
use crate::udr::{PriorEstimation, Udr};
use randrecon_data::DataTable;
use randrecon_noise::NoiseModel;
use serde::{Deserialize, Serialize};

/// The reconstruction schemes the paper's evaluation compares.
///
/// This is the scheme *name*; a configured instance (selection rule, bound
/// multiplier, eigenvalue floor, …) is an [`Attack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackScheme {
    /// Noise-distribution baseline (`X̂ = Y`).
    Ndr,
    /// Univariate distribution-based reconstruction.
    Udr,
    /// Spectral Filtering (Kargupta et al.).
    SpectralFiltering,
    /// PCA-based data reconstruction.
    PcaDr,
    /// Bayes-estimate-based data reconstruction.
    BeDr,
}

impl AttackScheme {
    /// The label used in tables and figures (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            AttackScheme::Ndr => "NDR",
            AttackScheme::Udr => "UDR",
            AttackScheme::SpectralFiltering => "SF",
            AttackScheme::PcaDr => "PCA-DR",
            AttackScheme::BeDr => "BE-DR",
        }
    }

    /// All five schemes in the paper's presentation order.
    pub fn all() -> [AttackScheme; 5] {
        [
            AttackScheme::Ndr,
            AttackScheme::Udr,
            AttackScheme::SpectralFiltering,
            AttackScheme::PcaDr,
            AttackScheme::BeDr,
        ]
    }
}

/// A configured reconstruction attack, dispatchable on either engine.
///
/// Wraps the per-scheme configuration structs so one value can be handed to
/// [`Attack::reconstruct_table`] (in-memory) or
/// [`Attack::chunk_reconstructor`] (streaming) without the caller matching
/// on the scheme.
#[derive(Debug, Clone)]
pub enum Attack {
    /// The NDR baseline (no configuration).
    Ndr,
    /// UDR with its prior-estimation strategy.
    Udr(Udr),
    /// Spectral filtering with its Marčenko–Pastur bound multiplier.
    SpectralFiltering(SpectralFiltering),
    /// PCA-DR with its component-selection rule.
    PcaDr(PcaDr),
    /// BE-DR with its optional eigenvalue floor.
    BeDr(BeDr),
}

impl Attack {
    /// The paper-default configuration of a scheme: Gaussian-moments UDR,
    /// textbook Marčenko–Pastur bound for SF, largest-gap selection for
    /// PCA-DR, default covariance floor for BE-DR.
    pub fn standard(scheme: AttackScheme) -> Attack {
        match scheme {
            AttackScheme::Ndr => Attack::Ndr,
            AttackScheme::Udr => Attack::Udr(Udr::gaussian_prior()),
            AttackScheme::SpectralFiltering => {
                Attack::SpectralFiltering(SpectralFiltering::default())
            }
            AttackScheme::PcaDr => Attack::PcaDr(PcaDr::largest_gap()),
            AttackScheme::BeDr => Attack::BeDr(BeDr::default()),
        }
    }

    /// Which scheme this attack is an instance of.
    pub fn scheme(&self) -> AttackScheme {
        match self {
            Attack::Ndr => AttackScheme::Ndr,
            Attack::Udr(_) => AttackScheme::Udr,
            Attack::SpectralFiltering(_) => AttackScheme::SpectralFiltering,
            Attack::PcaDr(_) => AttackScheme::PcaDr,
            Attack::BeDr(_) => AttackScheme::BeDr,
        }
    }

    /// Display label (same as [`AttackScheme::label`]).
    pub fn label(&self) -> &'static str {
        self.scheme().label()
    }

    /// Runs the attack in memory against a materialized disguised table.
    pub fn reconstruct_table(
        &self,
        disguised: &DataTable,
        noise: &NoiseModel,
    ) -> Result<DataTable> {
        Ok(self.reconstruct_table_with_report(disguised, noise)?.0)
    }

    /// In-memory reconstruction plus the kept-component diagnostic of the
    /// projection schemes (`None` for NDR/UDR/BE-DR) and any graceful
    /// numerical-degradation warnings the scheme emitted (today only BE-DR's
    /// eigenvalue-clipped SPD repair; empty for a clean run).
    pub fn reconstruct_table_with_report(
        &self,
        disguised: &DataTable,
        noise: &NoiseModel,
    ) -> Result<(DataTable, Option<usize>, Vec<String>)> {
        match self {
            Attack::Ndr => Ok((Ndr.reconstruct(disguised, noise)?, None, Vec::new())),
            Attack::Udr(udr) => Ok((udr.reconstruct(disguised, noise)?, None, Vec::new())),
            Attack::SpectralFiltering(sf) => {
                let report = sf.reconstruct_with_report(disguised, noise)?;
                Ok((
                    report.reconstruction,
                    Some(report.signal_components),
                    Vec::new(),
                ))
            }
            Attack::PcaDr(pca) => {
                let report = pca.reconstruct_with_report(disguised, noise)?;
                Ok((
                    report.reconstruction,
                    Some(report.components_kept),
                    Vec::new(),
                ))
            }
            Attack::BeDr(be) => {
                let report = be.reconstruct_with_report(disguised, noise)?;
                Ok((report.reconstruction, None, report.warnings))
            }
        }
    }

    /// The streaming form of this attack (a boxed
    /// [`ChunkReconstructor`] for the
    /// [`StreamingDriver`](crate::streaming::StreamingDriver)).
    ///
    /// Every configuration knob carries over (PCA-DR selection, SF bound
    /// multiplier, BE-DR floor) except UDR's Agrawal–Srikant prior, which
    /// needs the full empirical distribution of each attribute and therefore
    /// cannot run under the bounded-memory two-pass contract — requesting it
    /// is an error rather than a silent fallback.
    pub fn chunk_reconstructor(&self) -> Result<Box<dyn ChunkReconstructor>> {
        Ok(match self {
            Attack::Ndr => Box::new(StreamingNdr),
            Attack::Udr(udr) => match udr.prior {
                PriorEstimation::GaussianMoments => Box::new(StreamingUdr),
                PriorEstimation::AgrawalSrikant(_) => {
                    return Err(ReconError::InvalidParameter {
                        reason: "the Agrawal–Srikant UDR prior needs the full per-attribute \
                                 distribution and cannot run on the streaming engine"
                            .to_string(),
                    })
                }
            },
            Attack::SpectralFiltering(sf) => {
                Box::new(StreamingSf::with_bound_multiplier(sf.bound_multiplier)?)
            }
            Attack::PcaDr(pca) => Box::new(StreamingPcaDr {
                selection: pca.selection,
            }),
            Attack::BeDr(be) => Box::new(StreamingBeDr {
                eigenvalue_floor: be.eigenvalue_floor,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{StreamingDriver, StreamingReport, TableSink};
    use randrecon_data::chunks::TableChunkSource;
    use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
    use randrecon_noise::additive::AdditiveRandomizer;
    use randrecon_stats::rng::seeded_rng;

    fn disguised_workload() -> (DataTable, AdditiveRandomizer) {
        let spectrum = EigenSpectrum::principal_plus_small(2, 200.0, 10, 2.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 600, 91).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(6.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(92)).unwrap();
        (disguised, randomizer)
    }

    /// Streams `disguised` through `attack` in `chunk_rows`-record chunks on
    /// the default driver; returns the reconstruction and the driver report.
    fn stream(
        attack: &Attack,
        disguised: &DataTable,
        noise: &NoiseModel,
        chunk_rows: usize,
    ) -> (DataTable, StreamingReport) {
        let mut source = TableChunkSource::new(disguised, chunk_rows).unwrap();
        let mut sink = TableSink::new(disguised.n_attributes());
        let report = StreamingDriver::default()
            .run(
                attack.chunk_reconstructor().unwrap().as_ref(),
                &mut source,
                noise,
                &mut sink,
            )
            .unwrap();
        let table = DataTable::from_matrix(sink.into_matrix().unwrap()).unwrap();
        (table, report)
    }

    #[test]
    fn scheme_labels_and_order() {
        assert_eq!(AttackScheme::all().len(), 5);
        assert_eq!(AttackScheme::PcaDr.label(), "PCA-DR");
        assert_eq!(Attack::standard(AttackScheme::BeDr).label(), "BE-DR");
        for scheme in AttackScheme::all() {
            assert_eq!(Attack::standard(scheme).scheme(), scheme);
        }
    }

    #[test]
    fn reconstruct_table_dispatches_to_each_schemes_reconstructor() {
        let (disguised, randomizer) = disguised_workload();
        let noise = randomizer.model();
        let direct: [(AttackScheme, &dyn Reconstructor); 5] = [
            (AttackScheme::Ndr, &Ndr),
            (AttackScheme::Udr, &Udr::gaussian_prior()),
            (
                AttackScheme::SpectralFiltering,
                &SpectralFiltering::default(),
            ),
            (AttackScheme::PcaDr, &PcaDr::largest_gap()),
            (AttackScheme::BeDr, &BeDr::default()),
        ];
        for (scheme, reconstructor) in direct {
            assert_eq!(reconstructor.name(), scheme.label());
            let want = reconstructor.reconstruct(&disguised, noise).unwrap();
            let got = Attack::standard(scheme)
                .reconstruct_table(&disguised, noise)
                .unwrap();
            assert!(got.approx_eq(&want, 0.0), "{}", scheme.label());
        }
    }

    #[test]
    fn both_engines_agree_for_every_scheme() {
        let (disguised, randomizer) = disguised_workload();
        let noise = randomizer.model();
        for scheme in AttackScheme::all() {
            let attack = Attack::standard(scheme);
            let (in_memory, kept, _) = attack
                .reconstruct_table_with_report(&disguised, noise)
                .unwrap();
            let (streamed, report) = stream(&attack, &disguised, noise, 97);
            assert!(
                in_memory.values().approx_eq(streamed.values(), 1e-9),
                "{}: engines disagree",
                scheme.label()
            );
            assert_eq!(kept, report.components_kept, "{}", scheme.label());
        }
    }

    #[test]
    fn projection_schemes_report_components_on_both_engines() {
        let (disguised, randomizer) = disguised_workload();
        let noise = randomizer.model();
        let attack = Attack::standard(AttackScheme::PcaDr);
        let (table, kept, _) = attack
            .reconstruct_table_with_report(&disguised, noise)
            .unwrap();
        assert_eq!(table.n_records(), 600);
        assert_eq!(kept, Some(2), "in-memory");
        let (_, report) = stream(&attack, &disguised, noise, 128);
        assert_eq!(report.n_records, 600);
        assert_eq!(report.components_kept, Some(2), "streaming");
    }

    #[test]
    fn agrawal_srikant_prior_is_rejected_on_the_streaming_engine() {
        let attack = Attack::Udr(Udr::agrawal_srikant_prior(Default::default()));
        let err = match attack.chunk_reconstructor() {
            Err(e) => e,
            Ok(_) => panic!("the Agrawal–Srikant prior must be rejected"),
        };
        assert!(err.to_string().contains("Agrawal"));
        // … but still runs in memory.
        let (disguised, randomizer) = disguised_workload();
        assert!(attack
            .reconstruct_table_with_report(&disguised, randomizer.model())
            .is_ok());
    }

    #[test]
    fn configured_knobs_agree_across_both_engines() {
        let (disguised, randomizer) = disguised_workload();
        let noise = randomizer.model();
        for attack in [
            Attack::SpectralFiltering(SpectralFiltering::with_bound_multiplier(1.5).unwrap()),
            Attack::PcaDr(PcaDr::with_variance_fraction(0.9)),
            Attack::BeDr(BeDr::with_eigenvalue_floor(1e-3).unwrap()),
        ] {
            let (in_memory, kept, _) = attack
                .reconstruct_table_with_report(&disguised, noise)
                .unwrap();
            let (streamed, report) = stream(&attack, &disguised, noise, 80);
            assert!(
                in_memory.values().approx_eq(streamed.values(), 1e-9),
                "{}: engines disagree",
                attack.label()
            );
            assert_eq!(kept, report.components_kept, "{}", attack.label());
        }
    }

    #[test]
    fn configured_attacks_carry_their_knobs_to_the_streaming_engine() {
        let (disguised, randomizer) = disguised_workload();
        // A fixed-count PCA-DR keeps exactly the requested components.
        let attack = Attack::PcaDr(PcaDr::with_fixed_components(4));
        let (_, report) = stream(&attack, &disguised, randomizer.model(), 64);
        assert_eq!(report.components_kept, Some(4));
    }
}
