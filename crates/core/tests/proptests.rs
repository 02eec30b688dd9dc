//! Property-based tests for the reconstruction attacks: structural invariants
//! that must hold for any workload shape, noise level, and noise model.

use proptest::prelude::*;
use randrecon_core::streaming::{accumulate_source_pipelined, accumulate_source_with_batch};
use randrecon_core::{
    accumulate_moment_segments, be_dr::BeDr, merge_moment_segments, moment_segment_count, ndr::Ndr,
    pca_dr::PcaDr, spectral::SpectralFiltering, udr::Udr, ComponentSelection,
    CovarianceAccumulator, MomentSegment, Reconstructor,
};
use randrecon_data::chunks::TableChunkSource;
use randrecon_data::synthetic::{EigenSpectrum, SyntheticDataset};
use randrecon_linalg::Matrix;
use randrecon_noise::additive::AdditiveRandomizer;
use randrecon_stats::rng::seeded_rng;

/// Turns random cut points into a partition of `0..n` — consecutive row
/// ranges, *including empty ones* (duplicate cuts), covering every record
/// exactly once.
fn partition_from_cuts(n: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

fn attacks() -> Vec<Box<dyn Reconstructor>> {
    vec![
        Box::new(Ndr),
        Box::new(Udr::default()),
        Box::new(SpectralFiltering::default()),
        Box::new(PcaDr::largest_gap()),
        Box::new(BeDr::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every attack, on every workload and noise configuration in range,
    /// returns a finite table of exactly the input shape and schema.
    #[test]
    fn attacks_preserve_shape_and_finiteness(
        m in 2usize..10,
        p in 1usize..5,
        n in 30usize..200,
        sigma in 0.5f64..25.0,
        uniform_noise in proptest::bool::ANY,
        seed in 0u64..5_000,
    ) {
        let p = p.min(m);
        let spectrum = EigenSpectrum::principal_plus_small(p, 250.0, m, 5.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();
        let randomizer = if uniform_noise {
            AdditiveRandomizer::uniform(sigma).unwrap()
        } else {
            AdditiveRandomizer::gaussian(sigma).unwrap()
        };
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(seed + 1)).unwrap();
        for attack in attacks() {
            let out = attack.reconstruct(&disguised, randomizer.model()).unwrap();
            prop_assert_eq!(out.values().shape(), (n, m), "{}", attack.name());
            prop_assert_eq!(out.schema(), ds.table.schema(), "{}", attack.name());
            prop_assert!(!out.values().has_non_finite(), "{}", attack.name());
        }
    }

    /// PCA-DR keeping all m components reproduces the disguised data exactly
    /// (Q Qᵀ = I), for any workload.
    #[test]
    fn pca_with_all_components_is_identity(
        m in 2usize..8,
        sigma in 1.0f64..10.0,
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 200.0, m, 4.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 100, seed).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(sigma).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(seed + 2)).unwrap();
        let full = PcaDr::with_fixed_components(m)
            .reconstruct(&disguised, randomizer.model())
            .unwrap();
        prop_assert!(full.values().approx_eq(disguised.values(), 1e-6));
    }

    /// Every selection rule returns a component count in [1, m] on arbitrary
    /// descending spectra (including noisy tails).
    #[test]
    fn selection_rules_stay_in_bounds(
        mut eigenvalues in proptest::collection::vec(-5.0f64..500.0, 1..20),
        fixed in 1usize..25,
        fraction in 0.01f64..1.0,
    ) {
        eigenvalues.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let m = eigenvalues.len();
        for rule in [
            ComponentSelection::FixedCount(fixed),
            ComponentSelection::VarianceFraction(fraction),
            ComponentSelection::LargestGap,
        ] {
            let p = rule.select(&eigenvalues).unwrap();
            prop_assert!(p >= 1 && p <= m, "{rule:?} gave {p} for m = {m}");
        }
    }

    /// BE-DR's solve-based posterior (one factorization of Σ_x + Σ_r)
    /// satisfies the MAP normal equations of Equation (11) / Theorem 8.1 on
    /// arbitrary workloads. The condition (Σ_x⁻¹ + Σ_r⁻¹) x̂ = Σ_x⁻¹ μ̂ + Σ_r⁻¹ y,
    /// multiplied through by Σ_r, reads Σ_r·Σ_x⁻¹(x̂ − μ̂) + x̂ = y — every term
    /// of which is a Cholesky *solve* against the report's own Σ̂_x estimate,
    /// so the cross-check (like the attack itself) never materializes an
    /// inverse, yet is independent of the attack's internal algebra.
    #[test]
    fn be_dr_solve_path_satisfies_posterior_normal_equations(
        m in 2usize..9,
        sigma in 1.0f64..15.0,
        seed in 0u64..5_000,
    ) {
        use randrecon_linalg::decomposition::Cholesky;

        let spectrum = EigenSpectrum::principal_plus_small(2.min(m), 200.0, m, 4.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 150, seed).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(sigma).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(seed + 4)).unwrap();
        let model = randomizer.model();

        let report = BeDr::default().reconstruct_with_report(&disguised, model).unwrap();

        let sigma_x = &report.estimated_covariance;
        let sigma_r = model.covariance(m).unwrap();
        let x_chol = Cholesky::new(sigma_x).unwrap();
        let mu = &report.estimated_mean;

        let scale = disguised.values().max_abs().max(1.0);
        for i in 0..disguised.n_records() {
            let xhat = report.reconstruction.values().row(i);
            let y = disguised.values().row(i);
            let centered: Vec<f64> =
                xhat.iter().zip(mu.iter()).map(|(&a, &b)| a - b).collect();
            let pulled = sigma_r.matvec(&x_chol.solve_vec(&centered).unwrap()).unwrap();
            for j in 0..m {
                let residual = pulled[j] + xhat[j] - y[j];
                prop_assert!(
                    residual.abs() <= 1e-8 * scale,
                    "record {i}, attribute {j}: normal-equation residual {residual}"
                );
            }
        }
    }

    /// Sequential accumulation is a flat per-record fold, so chunk
    /// boundaries cannot change a single bit: any partition of the stream —
    /// random split points, empty chunks included — fed into one
    /// accumulator is bit-identical to the one-shot single-chunk call.
    #[test]
    fn covariance_accumulator_is_partition_invariant(
        m in 2usize..8,
        n in 2usize..120,
        cuts in proptest::collection::vec(0usize..200, 0..12),
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 60.0, m, 2.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();
        let values = ds.table.values();

        let mut one_shot = CovarianceAccumulator::new(m);
        one_shot.update_chunk(values).unwrap();

        let mut partitioned = CovarianceAccumulator::new(m);
        for r in partition_from_cuts(n, &cuts) {
            let chunk = values.submatrix(r.start, r.end, 0, m).unwrap();
            partitioned.update_chunk(&chunk).unwrap();
        }

        prop_assert_eq!(partitioned.count(), one_shot.count());
        prop_assert_eq!(partitioned.mean(), one_shot.mean());
        prop_assert!(
            partitioned.covariance().approx_eq(&one_shot.covariance(), 0.0),
            "sequential accumulation must be independent of chunk boundaries"
        );
    }

    /// The merge algebra: one shared-anchor partial per partition cell,
    /// merged in chunk order, reproduces the sequential fold to strict fp
    /// reassociation slack — and with per-cell *self-captured* anchors the
    /// O(m²) anchor-translation identity keeps the result exact too.
    /// (Bit-identity across partitions is a sequential-fold property; the
    /// merge reassociates per-cell sums, so it is pinned at ≤ 1e-12 · scale
    /// here and bit-exactly against regroupings below.)
    #[test]
    fn covariance_accumulator_merge_is_exact_for_random_partitions(
        m in 2usize..7,
        n in 2usize..150,
        cuts in proptest::collection::vec(0usize..300, 0..14),
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 80.0, m, 1.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();
        let values = ds.table.values();

        let mut sequential = CovarianceAccumulator::new(m);
        sequential.update_chunk(values).unwrap();
        let reference_cov = sequential.covariance();
        let reference_mean = sequential.mean();
        let scale = reference_cov.max_abs().max(1.0);
        let anchor = sequential.shift().unwrap().to_vec();

        let cells: Vec<Matrix> = partition_from_cuts(n, &cuts)
            .into_iter()
            .map(|r| values.submatrix(r.start, r.end, 0, m).unwrap())
            .collect();

        // One shared anchor for every partial.
        let mut shared = CovarianceAccumulator::new(m);
        for cell in &cells {
            let mut partial = CovarianceAccumulator::with_shift(anchor.clone());
            partial.update_chunk(cell).unwrap();
            shared.merge(&partial).unwrap();
        }
        prop_assert_eq!(shared.count(), n);
        prop_assert!(
            shared.covariance().approx_eq(&reference_cov, 1e-12 * scale),
            "shared-anchor merge drifted beyond reassociation slack"
        );
        for (got, want) in shared.mean().iter().zip(&reference_mean) {
            prop_assert!((got - want).abs() <= 1e-12 * want.abs().max(1.0));
        }

        // Per-cell anchors (each partial captures its own first record, the
        // accumulate_source structure): the merge must translate every
        // partial exactly.
        let mut translated = CovarianceAccumulator::new(m);
        for cell in &cells {
            let mut partial = CovarianceAccumulator::new(m);
            partial.update_chunk(cell).unwrap();
            translated.merge(&partial).unwrap();
        }
        prop_assert_eq!(translated.count(), n);
        prop_assert!(
            translated.covariance().approx_eq(&reference_cov, 1e-11 * scale),
            "anchor-translating merge drifted"
        );
    }

    /// `accumulate_source` batches chunks by `max_threads()` — a
    /// machine-dependent number — so its result must be bit-identical for
    /// every batching of every chunking, not just the fixed sizes the unit
    /// test pins: each chunk becomes one self-anchored partial merged in
    /// chunk order regardless of how chunks are grouped into batches.
    #[test]
    fn accumulate_source_is_batch_size_invariant_for_random_chunkings(
        m in 2usize..7,
        n in 2usize..150,
        chunk_rows in 1usize..40,
        batch_sizes in [1usize..12, 1usize..12],
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 70.0, m, 2.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();

        let run = |batch: usize| {
            let mut source = TableChunkSource::new(&ds.table, chunk_rows).unwrap();
            let (acc, chunks) = accumulate_source_with_batch(&mut source, batch).unwrap();
            prop_assert_eq!(chunks, n.div_ceil(chunk_rows));
            prop_assert_eq!(acc.count(), n);
            (acc.covariance(), acc.mean())
        };
        let (cov_a, mean_a) = run(batch_sizes[0]);
        let (cov_b, mean_b) = run(batch_sizes[1]);
        prop_assert_eq!(mean_a, mean_b);
        prop_assert!(
            cov_a.approx_eq(&cov_b, 0.0),
            "accumulated covariance changed with the batch size"
        );
    }

    /// Pass 1 on the N-slot ring must reproduce the pinned batch fold **bit
    /// for bit** at every ring depth, for every chunking: the ring merges
    /// the same self-anchored per-chunk partials in the same chunk order
    /// through the same two-level segment fold, so no depth may move a
    /// single ulp.
    #[test]
    fn pipelined_accumulation_is_bit_identical_to_the_batch_fold(
        m in 2usize..7,
        n in 2usize..150,
        chunk_rows in 1usize..40,
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 70.0, m, 2.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();

        let mut source = TableChunkSource::new(&ds.table, chunk_rows).unwrap();
        let (reference, ref_chunks) = accumulate_source_with_batch(&mut source, 1).unwrap();

        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for slots in [1usize, 2, 4, 8] {
            let mut source = TableChunkSource::new(&ds.table, chunk_rows).unwrap();
            let (acc, chunks) = accumulate_source_pipelined(&mut source, slots).unwrap();
            prop_assert_eq!(chunks, ref_chunks, "chunk count changed at {} slots", slots);
            prop_assert_eq!(acc.count(), reference.count());
            prop_assert_eq!(bits(acc.raw_sum()), bits(reference.raw_sum()));
            prop_assert_eq!(bits(acc.raw_cross()), bits(reference.raw_cross()));
            prop_assert_eq!(acc.shift().map(bits), reference.shift().map(bits));
        }
    }

    /// The blocked rank-update sweep (ROW_BLOCK-record panels, one cache
    /// pass over each comoment-triangle row per panel) must reproduce the
    /// plain per-row single-pass kernel **bit for bit** for every table
    /// shape and every chunking: per cell the additions land in ascending
    /// record order either way, so the blocking is pure memory-traffic
    /// optimization with zero numerical freedom.
    #[test]
    fn blocked_rank_update_is_bit_identical_to_the_per_row_kernel(
        m in 2usize..12,
        n in 1usize..120,
        cuts in proptest::collection::vec(0usize..120, 0..6),
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 70.0, m, 2.5).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();
        let data = ds.table.values();

        // Per-row reference: the exact pre-blocking kernel — anchor on the
        // first record, then one full rank-1 triangle update per record in
        // stream order.
        let shift: Vec<f64> = data.row(0).to_vec();
        let mut ref_sum = vec![0.0; m];
        let mut ref_cross = vec![0.0; m * m];
        let mut scratch = vec![0.0; m];
        for r in 0..n {
            let row = data.row(r);
            for ((s, &x), &k) in scratch.iter_mut().zip(row).zip(&shift) {
                *s = x - k;
            }
            for (o, &x) in ref_sum.iter_mut().zip(row) {
                *o += x;
            }
            for i in 0..m {
                let v = scratch[i];
                for (o, &w) in ref_cross[i * m + i..(i + 1) * m]
                    .iter_mut()
                    .zip(&scratch[i..])
                {
                    *o += v * w;
                }
            }
        }

        // Blocked kernel, fed the same records under a random chunking
        // (empty chunks included) so panels straddle chunk boundaries in
        // every possible way.
        let mut acc = CovarianceAccumulator::new(m);
        for range in partition_from_cuts(n, &cuts) {
            if range.is_empty() {
                continue; // a zero-row chunk is a no-op by contract
            }
            let rows: Vec<&[f64]> = range.map(|r| data.row(r)).collect();
            let chunk = Matrix::from_rows(&rows).unwrap();
            acc.update_chunk(&chunk).unwrap();
        }

        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(acc.count(), n);
        prop_assert_eq!(acc.shift().map(bits), Some(bits(&shift)));
        prop_assert_eq!(bits(acc.raw_sum()), bits(&ref_sum));
        prop_assert_eq!(bits(acc.raw_cross()), bits(&ref_cross));
    }

    /// Cross-shard moment merging (PR 9): the pass-1 segment partials of a
    /// stream, accumulated window-by-window under ANY contiguous partition
    /// of the segment range and with the windows visited in either order,
    /// merge to an accumulator **bit-identical** to the one produced by a
    /// single worker sweeping every segment in one pass — the invariant the
    /// sharded coordinator's reduce step relies on. The merged moments must
    /// also agree with the classic single-anchor fold (which reassociates
    /// differently, so exact bits legitimately differ) to ≤ 1e-12 of their
    /// own scale.
    #[test]
    fn moment_segments_merge_bit_identically_for_any_partition(
        m in 2usize..7,
        n in 64usize..1200,
        chunk_rows in 1usize..130,
        cuts in proptest::collection::vec(0usize..64, 0..6),
        reverse in proptest::bool::ANY,
        seed in 0u64..5_000,
    ) {
        let spectrum = EigenSpectrum::principal_plus_small(1, 250.0, m, 5.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, n, seed).unwrap();
        let n_chunks = n.div_ceil(chunk_rows);
        let n_segments = moment_segment_count(n_chunks);

        // Reference: every segment accumulated by one worker in one pass.
        let mut source = TableChunkSource::new(&ds.table, chunk_rows).unwrap();
        let reference = accumulate_moment_segments(&mut source, 0, n_segments).unwrap();
        let (ref_acc, ref_chunks) = merge_moment_segments(m, &reference).unwrap();
        prop_assert_eq!(ref_chunks, n_chunks);

        // Sharded: the segment range dealt into arbitrary contiguous
        // windows (empty ones included), each accumulated by its own
        // independent source pass — the windows visited in an arbitrary
        // order, as restarted workers and shards genuinely interleave.
        let mut windows = partition_from_cuts(n_segments, &cuts);
        if reverse {
            windows.reverse();
        }
        let mut collected: Vec<Option<MomentSegment>> = vec![None; n_segments];
        for w in windows {
            let mut source = TableChunkSource::new(&ds.table, chunk_rows).unwrap();
            for segment in accumulate_moment_segments(&mut source, w.start, w.end).unwrap() {
                let slot = segment.index;
                prop_assert!(collected[slot].is_none(), "segment {} produced twice", slot);
                collected[slot] = Some(segment);
            }
        }
        let assembled: Vec<MomentSegment> =
            collected.into_iter().map(|s| s.unwrap()).collect();
        let (acc, chunks) = merge_moment_segments(m, &assembled).unwrap();
        prop_assert_eq!(chunks, n_chunks);

        // Bit-identity: the merged fold must not depend on how the segment
        // range was partitioned across workers.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(acc.count(), ref_acc.count());
        prop_assert_eq!(bits(acc.raw_sum()), bits(ref_acc.raw_sum()));
        prop_assert_eq!(bits(acc.raw_cross()), bits(ref_acc.raw_cross()));
        prop_assert_eq!(acc.shift().map(bits), ref_acc.shift().map(bits));

        // Cross-anchor agreement with the single-anchor fold.
        let mut source = TableChunkSource::new(&ds.table, chunk_rows).unwrap();
        let (plain, _) = accumulate_source_with_batch(&mut source, 1).unwrap();
        let mean = acc.mean();
        let plain_mean = plain.mean();
        for j in 0..m {
            let scale = plain_mean[j].abs().max(1.0);
            prop_assert!((mean[j] - plain_mean[j]).abs() <= 1e-12 * scale);
        }
        let cov = acc.covariance();
        let plain_cov = plain.covariance();
        for i in 0..m {
            for j in 0..m {
                let scale = plain_cov.get(i, j).abs().max(1.0);
                prop_assert!((cov.get(i, j) - plain_cov.get(i, j)).abs() <= 1e-12 * scale);
            }
        }
    }

    /// Attacks are deterministic: the same disguised input and noise model give
    /// byte-identical reconstructions.
    #[test]
    fn attacks_are_deterministic(seed in 0u64..5_000) {
        let spectrum = EigenSpectrum::principal_plus_small(2, 300.0, 6, 3.0).unwrap();
        let ds = SyntheticDataset::generate(&spectrum, 120, seed).unwrap();
        let randomizer = AdditiveRandomizer::gaussian(5.0).unwrap();
        let disguised = randomizer.disguise(&ds.table, &mut seeded_rng(seed + 3)).unwrap();
        for attack in attacks() {
            let a = attack.reconstruct(&disguised, randomizer.model()).unwrap();
            let b = attack.reconstruct(&disguised, randomizer.model()).unwrap();
            prop_assert!(a.approx_eq(&b, 0.0), "{}", attack.name());
        }
    }
}
