//! Ablation benchmark: cost and accuracy impact of the PCA-DR component
//! selection rule and of the two UDR prior-estimation strategies.
//!
//! The accuracy side of the ablation is printed once (via the experiment
//! harness); Criterion then measures the runtime cost of each variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use randrecon_core::{pca_dr::PcaDr, udr::Udr, ComponentSelection, Reconstructor};
use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
use randrecon_experiments::ablation::{AblationWorkload, SelectionAblation};
use randrecon_experiments::report::results_table;
use randrecon_noise::additive::AdditiveRandomizer;
use randrecon_stats::reconstruction::ReconstructionConfig;
use randrecon_stats::rng::seeded_rng;
use std::hint::black_box;

fn print_accuracy_ablation() {
    let ablation = SelectionAblation {
        workload: AblationWorkload::default(),
    };
    match ablation.grid().run() {
        Ok(results) => println!("\n{}", results_table(&results)),
        Err(e) => eprintln!("selection ablation failed: {e}"),
    }
}

fn bench_variants(c: &mut Criterion) {
    print_accuracy_ablation();

    let spectrum = EigenSpectrum::principal_plus_small(5, 400.0, 50, 4.0).unwrap();
    let ds = SyntheticDataset::generate(&spectrum, 1_000, 21).unwrap();
    let randomizer = AdditiveRandomizer::gaussian(10.0).unwrap();
    let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(22)).unwrap();
    let model = randomizer.model().clone();

    let mut group = c.benchmark_group("ablation_variants");
    group.sample_size(10);

    let selections = [
        ("largest_gap", ComponentSelection::LargestGap),
        ("fixed_5", ComponentSelection::FixedCount(5)),
        ("variance_0.95", ComponentSelection::VarianceFraction(0.95)),
    ];
    for (label, selection) in selections {
        group.bench_with_input(BenchmarkId::new("pca_selection", label), &label, |b, _| {
            let attack = PcaDr { selection };
            b.iter(|| black_box(attack.reconstruct(&disguised, &model).unwrap()))
        });
    }

    group.bench_function(BenchmarkId::new("udr_prior", "gaussian_moments"), |b| {
        b.iter(|| {
            black_box(
                Udr::gaussian_prior()
                    .reconstruct(&disguised, &model)
                    .unwrap(),
            )
        })
    });
    group.bench_function(BenchmarkId::new("udr_prior", "agrawal_srikant"), |b| {
        let attack = Udr::agrawal_srikant_prior(ReconstructionConfig {
            bins: 60,
            max_iterations: 30,
            tolerance: 1e-4,
        });
        b.iter(|| black_box(attack.reconstruct(&disguised, &model).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
