//! Named dataset analogs with the paper's cardinalities/dimensionalities.
//!
//! | Name        | Paper source                              | N × d        |
//! |-------------|-------------------------------------------|--------------|
//! | `Color64`   | CD-ROM color histograms (KLT)             | 112,361 × 64 |
//! | `Texture48` | Corel texture features (KLT)              | 26,697 × 48  |
//! | `Texture60` | Landsat texture features (KLT)            | 275,465 × 60 |
//! | `Isolet617` | spoken-letter audio features              | 7,800 × 617  |
//! | `Stock360`  | one year of 6,500 stock prices (DFT)      | 6,500 × 360  |
//! | `Uniform8d` | §5.2 uniformity sanity check              | 100,000 × 8  |
//!
//! Each analog can be scaled down (`spec_scaled`) for fast tests: the skew
//! structure is preserved while N shrinks.

use crate::clustered::{ClusteredSpec, Tail};
use crate::stock::StockSpec;
use crate::uniform::UniformSpec;
use hdidx_core::{Dataset, Result};

/// The generator behind a named analog.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// Gaussian-mixture with KLT-like variance decay.
    Clustered(ClusteredSpec),
    /// DFT-transformed random walks.
    Stock(StockSpec),
    /// I.i.d. uniform.
    Uniform(UniformSpec),
}

impl DatasetSpec {
    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Propagates the underlying generator's validation errors.
    pub fn generate(&self) -> Result<Dataset> {
        match self {
            DatasetSpec::Clustered(s) => s.generate(),
            DatasetSpec::Stock(s) => s.generate(),
            DatasetSpec::Uniform(s) => s.generate(),
        }
    }

    /// Number of points the spec will generate.
    pub fn n(&self) -> usize {
        match self {
            DatasetSpec::Clustered(s) => s.n,
            DatasetSpec::Stock(s) => s.n,
            DatasetSpec::Uniform(s) => s.n,
        }
    }

    /// Dimensionality the spec will generate.
    pub fn dim(&self) -> usize {
        match self {
            DatasetSpec::Clustered(s) => s.dim,
            DatasetSpec::Stock(s) => s.dim,
            DatasetSpec::Uniform(s) => s.dim,
        }
    }
}

/// The five dataset analogs of the paper's Table 1 plus the §5.2 uniform
/// sanity set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedDataset {
    /// COLOR64 analog: 112,361 × 64, clustered, KLT-like spectrum.
    Color64,
    /// TEXTURE48 analog: 26,697 × 48.
    Texture48,
    /// TEXTURE60 analog: 275,465 × 60 — the paper's workhorse dataset.
    Texture60,
    /// ISOLET617 analog: 7,800 × 617 (d ≫ N regime).
    Isolet617,
    /// STOCK360 analog: 6,500 × 360, DFT energy compaction.
    Stock360,
    /// 100,000 × 8 uniform points for the §5.2 check.
    Uniform8d,
}

impl NamedDataset {
    /// All named datasets, in the paper's Table 1 order.
    pub const ALL: [NamedDataset; 6] = [
        NamedDataset::Color64,
        NamedDataset::Texture48,
        NamedDataset::Texture60,
        NamedDataset::Isolet617,
        NamedDataset::Stock360,
        NamedDataset::Uniform8d,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            NamedDataset::Color64 => "COLOR64",
            NamedDataset::Texture48 => "TEXTURE48",
            NamedDataset::Texture60 => "TEXTURE60",
            NamedDataset::Isolet617 => "ISOLET617",
            NamedDataset::Stock360 => "STOCK360",
            NamedDataset::Uniform8d => "UNIFORM8D",
        }
    }

    /// Full-size spec with the paper's N and d.
    pub fn spec(&self) -> DatasetSpec {
        self.spec_scaled(1.0)
    }

    /// Spec with cardinality scaled by `fraction` (clamped to at least 64
    /// points). Dimensionality and skew structure are preserved.
    pub fn spec_scaled(&self, fraction: f64) -> DatasetSpec {
        let scale = |n: usize| ((n as f64 * fraction) as usize).max(64);
        match self {
            NamedDataset::Color64 => DatasetSpec::Clustered(ClusteredSpec {
                n: scale(112_361),
                dim: 64,
                n_clusters: 40,
                decay: 0.06,
                spread: 0.35,
                tail: Tail::Uniform,
                seed: 0x0C01_0464,
            }),
            NamedDataset::Texture48 => DatasetSpec::Clustered(ClusteredSpec {
                n: scale(26_697),
                dim: 48,
                n_clusters: 25,
                decay: 0.07,
                spread: 0.3,
                tail: Tail::Uniform,
                seed: 0x7E87_0048,
            }),
            NamedDataset::Texture60 => DatasetSpec::Clustered(ClusteredSpec {
                n: scale(275_465),
                dim: 60,
                n_clusters: 60,
                decay: 0.05,
                spread: 0.6,
                tail: Tail::Uniform,
                seed: 0x7E87_0060,
            }),
            NamedDataset::Isolet617 => DatasetSpec::Clustered(ClusteredSpec {
                n: scale(7_800),
                dim: 617,
                n_clusters: 26, // one per spoken letter
                decay: 0.01,
                spread: 0.4,
                tail: Tail::Uniform,
                seed: 0x1501_0617,
            }),
            NamedDataset::Stock360 => DatasetSpec::Stock(StockSpec {
                n: scale(6_500),
                dim: 360,
                volatility: 0.8,
                seed: 0x570C_0360,
            }),
            NamedDataset::Uniform8d => DatasetSpec::Uniform(UniformSpec {
                n: scale(100_000),
                dim: 8,
                seed: 0x0001_0008,
            }),
        }
    }

    /// Page size (bytes) used for this dataset's index: 8 KB as in the
    /// paper, except the 360/617-dimensional sets whose directory entries
    /// do not fit an 8 KB page (2·d·4 B + 8 B per entry); those use 32 KB.
    pub fn page_bytes(&self) -> usize {
        match self {
            NamedDataset::Isolet617 | NamedDataset::Stock360 => 32_768,
            _ => 8_192,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_table1() {
        assert_eq!(NamedDataset::Color64.spec().n(), 112_361);
        assert_eq!(NamedDataset::Color64.spec().dim(), 64);
        assert_eq!(NamedDataset::Texture48.spec().n(), 26_697);
        assert_eq!(NamedDataset::Texture48.spec().dim(), 48);
        assert_eq!(NamedDataset::Texture60.spec().n(), 275_465);
        assert_eq!(NamedDataset::Texture60.spec().dim(), 60);
        assert_eq!(NamedDataset::Isolet617.spec().n(), 7_800);
        assert_eq!(NamedDataset::Isolet617.spec().dim(), 617);
        assert_eq!(NamedDataset::Stock360.spec().n(), 6_500);
        assert_eq!(NamedDataset::Stock360.spec().dim(), 360);
    }

    #[test]
    fn scaled_specs_shrink_but_keep_dim() {
        let s = NamedDataset::Texture60.spec_scaled(0.01);
        assert_eq!(s.dim(), 60);
        assert_eq!(s.n(), 2_754);
        // Tiny fractions clamp to 64 points.
        assert_eq!(NamedDataset::Stock360.spec_scaled(1e-9).n(), 64);
    }

    #[test]
    fn scaled_generation_works_for_all() {
        for ds in NamedDataset::ALL {
            let d = ds.spec_scaled(0.002).generate().unwrap();
            assert_eq!(d.dim(), ds.spec().dim(), "{}", ds.name());
            assert!(d.len() >= 64);
        }
    }

    #[test]
    fn page_bytes_sizes() {
        // Topology validity for these sizes is checked in the integration
        // tests.
        assert_eq!(NamedDataset::Texture60.page_bytes(), 8192);
        assert_eq!(NamedDataset::Isolet617.page_bytes(), 32_768);
        assert_eq!(NamedDataset::Stock360.page_bytes(), 32_768);
    }
}
