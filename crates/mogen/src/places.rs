//! Place generation with configurable required-protection distributions.
//!
//! The paper says only that "the places are randomly generated"; its
//! motivation section implies a skewed requirement distribution (banks need
//! six units, residential buildings one). The default here samples
//! `RP ∈ {rp_min .. =rp_max}` with Zipf-tilted weights `w_r ∝ 1/r^skew`, so
//! most places need little protection and a few need a lot.

use crate::rng::SeededRng;
use ctup_spatial::Point;
use ctup_storage::{PlaceId, PlaceRecord, MAX_RP};

/// How place locations are spread over the space.
#[derive(Debug, Clone, PartialEq)]
pub enum Spread {
    /// Uniformly at random over the space.
    Uniform,
    /// A mixture: `fraction_clustered` of the places fall in Gaussian
    /// clusters (downtown blocks, malls, …), the rest are uniform.
    Clustered {
        /// Number of cluster centers.
        clusters: u32,
        /// Standard deviation of each cluster.
        std_dev: f64,
        /// Fraction of places assigned to clusters (0.0 ..= 1.0).
        fraction_clustered: f64,
    },
}

/// Configuration for [`PlaceGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceGenConfig {
    /// Number of places `|P|`.
    pub count: u32,
    /// Smallest required protection (inclusive, ≥ 0).
    pub rp_min: u32,
    /// Largest required protection (inclusive).
    pub rp_max: u32,
    /// Zipf exponent of the requirement distribution; 0 = uniform over
    /// `rp_min..=rp_max`, larger = more skew towards `rp_min`.
    pub rp_skew: f64,
    /// Location distribution.
    pub spread: Spread,
}

impl Default for PlaceGenConfig {
    fn default() -> Self {
        PlaceGenConfig {
            count: 15_000,
            rp_min: 1,
            rp_max: 8,
            rp_skew: 1.0,
            spread: Spread::Uniform,
        }
    }
}

/// Seeded generator of place data sets over the unit square.
#[derive(Debug, Clone)]
pub struct PlaceGenerator {
    config: PlaceGenConfig,
}

impl PlaceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics on inconsistent configuration (empty RP range, an RP above
    /// [`MAX_RP`], probabilities outside `[0, 1]`).
    pub fn new(config: PlaceGenConfig) -> Self {
        assert!(config.rp_min <= config.rp_max, "empty RP range");
        assert!(config.rp_max <= MAX_RP, "rp_max above MAX_RP");
        assert!(config.rp_skew >= 0.0, "negative skew");
        if let Spread::Clustered {
            clusters,
            fraction_clustered,
            std_dev,
        } = &config.spread
        {
            assert!(*clusters > 0, "need at least one cluster");
            assert!(
                (0.0..=1.0).contains(fraction_clustered),
                "fraction out of range"
            );
            assert!(*std_dev > 0.0, "cluster std_dev must be positive");
        }
        PlaceGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PlaceGenConfig {
        &self.config
    }

    /// Cumulative weights of the RP distribution.
    fn rp_cdf(&self) -> Vec<f64> {
        let weights: Vec<f64> = (self.config.rp_min..=self.config.rp_max)
            .map(|r| 1.0 / (r.max(1) as f64).powf(self.config.rp_skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }

    fn sample_rp(&self, cdf: &[f64], rng: &mut SeededRng) -> u32 {
        let u = rng.gen_f64();
        let idx = cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1);
        self.config.rp_min + idx as u32
    }

    /// Standard normal sample via Box–Muller.
    fn sample_normal(rng: &mut SeededRng) -> f64 {
        let u1 = rng.gen_range_f64(f64::EPSILON..1.0);
        let u2 = rng.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn sample_pos(&self, centers: &[Point], rng: &mut SeededRng) -> Point {
        match &self.config.spread {
            Spread::Uniform => Point::new(rng.gen_f64(), rng.gen_f64()),
            Spread::Clustered {
                std_dev,
                fraction_clustered,
                ..
            } => {
                if rng.gen_f64() < *fraction_clustered {
                    let c = centers[rng.gen_range(0..centers.len())];
                    Point::new(
                        (c.x + Self::sample_normal(rng) * std_dev).clamp(0.0, 1.0),
                        (c.y + Self::sample_normal(rng) * std_dev).clamp(0.0, 1.0),
                    )
                } else {
                    Point::new(rng.gen_f64(), rng.gen_f64())
                }
            }
        }
    }

    /// Generates the data set deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Vec<PlaceRecord> {
        let mut rng = SeededRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let cdf = self.rp_cdf();
        let centers: Vec<Point> = match &self.config.spread {
            Spread::Uniform => Vec::new(),
            Spread::Clustered { clusters, .. } => (0..*clusters)
                .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
                .collect(),
        };
        (0..self.config.count)
            .map(|i| {
                let pos = self.sample_pos(&centers, &mut rng);
                let rp = self.sample_rp(&cdf, &mut rng);
                PlaceRecord::point(PlaceId(i), pos, rp)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_with_dense_ids() {
        let g = PlaceGenerator::new(PlaceGenConfig {
            count: 1000,
            ..Default::default()
        });
        let places = g.generate(1);
        assert_eq!(places.len(), 1000);
        for (i, p) in places.iter().enumerate() {
            assert_eq!(p.id.0 as usize, i);
            assert!((0.0..=1.0).contains(&p.pos.x) && (0.0..=1.0).contains(&p.pos.y));
            assert!((1..=8).contains(&p.rp));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = PlaceGenerator::new(PlaceGenConfig {
            count: 100,
            ..Default::default()
        });
        assert_eq!(g.generate(7), g.generate(7));
        assert_ne!(g.generate(7), g.generate(8));
    }

    #[test]
    fn zipf_skew_prefers_low_requirements() {
        let g = PlaceGenerator::new(PlaceGenConfig {
            count: 20_000,
            rp_skew: 1.5,
            ..Default::default()
        });
        let places = g.generate(2);
        let ones = places.iter().filter(|p| p.rp == 1).count();
        let eights = places.iter().filter(|p| p.rp == 8).count();
        assert!(ones > 5 * eights, "ones={ones} eights={eights}");
        assert!(eights > 0, "tail should still occur");
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let g = PlaceGenerator::new(PlaceGenConfig {
            count: 16_000,
            rp_skew: 0.0,
            ..Default::default()
        });
        let places = g.generate(3);
        for r in 1..=8u32 {
            let n = places.iter().filter(|p| p.rp == r).count();
            assert!((1600..2400).contains(&n), "rp={r}: {n}");
        }
    }

    #[test]
    fn clustered_spread_concentrates_places() {
        let g = PlaceGenerator::new(PlaceGenConfig {
            count: 5000,
            spread: Spread::Clustered {
                clusters: 3,
                std_dev: 0.02,
                fraction_clustered: 1.0,
            },
            ..Default::default()
        });
        let places = g.generate(4);
        // With 3 tight clusters, a 10x10 grid histogram must be very uneven:
        // some cell should hold far more than the uniform share of 50.
        let mut histogram = [0u32; 100];
        for p in &places {
            let cx = (p.pos.x * 10.0).min(9.0) as usize;
            let cy = (p.pos.y * 10.0).min(9.0) as usize;
            histogram[cy * 10 + cx] += 1;
        }
        let max = *histogram.iter().max().unwrap();
        assert!(max > 500, "max cell load {max}");
    }

    #[test]
    #[should_panic(expected = "empty RP range")]
    fn rejects_inverted_rp_range() {
        PlaceGenerator::new(PlaceGenConfig {
            rp_min: 5,
            rp_max: 2,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "rp_max above MAX_RP")]
    fn rejects_rp_above_the_bound() {
        PlaceGenerator::new(PlaceGenConfig {
            rp_max: MAX_RP + 1,
            ..Default::default()
        });
    }
}
