//! Determinism regression tests: every seeded pipeline in the workspace
//! must produce byte-identical output when run twice from the same seed.
//! Seeds are a public contract (see DESIGN.md) — if one of these tests
//! fails, a PRNG or generator change silently broke reproducibility of
//! every experiment artifact.

use hdidx_datagen::clustered::{ClusteredSpec, Tail};
use hdidx_datagen::uniform::UniformSpec;
use hdidx_rand::{bernoulli_sample, seeded};

/// Bit patterns of the dataset, so `-0.0` vs `0.0` and NaN payloads count
/// as differences (plain `==` would hide them).
fn bits(data: &hdidx_core::Dataset) -> Vec<u32> {
    data.as_flat().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn uniform_8d_is_byte_identical_across_runs() {
    let spec = UniformSpec {
        n: 5_000,
        dim: 8,
        seed: 42,
    };
    let a = spec.generate().unwrap();
    let b = spec.generate().unwrap();
    assert_eq!(a.len(), 5_000);
    assert_eq!(a.dim(), 8);
    assert_eq!(bits(&a), bits(&b));
}

#[test]
fn clustered_dataset_is_byte_identical_across_runs() {
    let spec = ClusteredSpec {
        n: 4_000,
        dim: 16,
        n_clusters: 10,
        decay: 0.05,
        spread: 0.3,
        tail: Tail::Uniform,
        seed: 42,
    };
    let a = spec.generate().unwrap();
    let b = spec.generate().unwrap();
    assert_eq!(a.len(), 4_000);
    assert_eq!(bits(&a), bits(&b));
}

#[test]
fn bernoulli_sample_is_identical_across_runs() {
    let a = bernoulli_sample(&mut seeded(42), 100_000, 0.03);
    let b = bernoulli_sample(&mut seeded(42), 100_000, 0.03);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// Different seeds must actually diverge — guards against a regression
/// where the seed is ignored and everything collapses onto one stream.
#[test]
fn different_seeds_produce_different_output() {
    let a = UniformSpec {
        n: 100,
        dim: 8,
        seed: 1,
    }
    .generate()
    .unwrap();
    let b = UniformSpec {
        n: 100,
        dim: 8,
        seed: 2,
    }
    .generate()
    .unwrap();
    assert_ne!(bits(&a), bits(&b));
    assert_ne!(
        bernoulli_sample(&mut seeded(1), 10_000, 0.1),
        bernoulli_sample(&mut seeded(2), 10_000, 0.1)
    );
}
