//! Procedural land/ocean mask.
//!
//! The real pipeline reads per-pixel land/sea flags from the MOD03 product;
//! here a deterministic fractal mask supplies them. Continents are the
//! super-level set of a low-frequency fBm field sampled on the unit sphere
//! (via 3-D-ish coordinates folded into 2-D noise), with the threshold
//! calibrated so the global land fraction is ≈29 %, matching Earth. The
//! pipeline's behaviour — some swaths are mostly ocean, some mostly land,
//! with spatially coherent boundaries — is preserved.

use crate::latlon::LatLon;
use eoml_util::noise::{Fbm, FbmCursor};

/// Deterministic global land/ocean mask.
#[derive(Debug, Clone, Copy)]
pub struct LandMask {
    field: Fbm,
    threshold: f64,
    /// Spatial frequency scale: continents span tens of degrees.
    scale: f64,
}

impl LandMask {
    /// Earth-like mask (≈29 % land) for the given seed.
    pub fn earth_like(seed: u64) -> Self {
        Self {
            field: Fbm::new(seed, 5),
            // Calibrated in tests: fBm of 5 octaves is approximately
            // symmetric around 0.5; a threshold of 0.565 yields ~29 % land.
            threshold: 0.565,
            scale: 1.0 / 30.0,
        }
    }

    /// Mask with a custom land fraction knob (higher threshold ⇒ less land).
    pub fn with_threshold(seed: u64, threshold: f64) -> Self {
        Self {
            field: Fbm::new(seed, 5),
            threshold,
            scale: 1.0 / 30.0,
        }
    }

    /// Continuous "elevation-like" field value in `[0, 1)` at a point.
    /// Values above the threshold are land.
    pub fn field_value(&self, p: &LatLon) -> f64 {
        self.field_with(p, |_, x, y| self.field.sample(x, y))
    }

    /// [`field_value`](Self::field_value) with the field's phase-`k`
    /// sample at `(x, y)` supplied by `sample(k, x, y)`.
    fn field_with(&self, p: &LatLon, mut sample: impl FnMut(usize, f64, f64) -> f64) -> f64 {
        // Project onto a cylinder with two longitude phases to hide the
        // antimeridian seam: blend noise sampled at lon and lon+180° with
        // weights that swap smoothly across the seam.
        let x1 = (p.lon + 180.0) * self.scale / 1.0;
        let x2 = (p.lon.rem_euclid(360.0)) * self.scale / 1.0;
        let y = (p.lat + 90.0) * self.scale;
        let v1 = sample(0, x1, y);
        let v2 = sample(1, x2 + 61.7, y + 13.3);
        // Weight: 1 near lon=0, 0 near ±180, smooth.
        let w = 0.5 * (1.0 + (p.lon.to_radians()).cos());
        // Polar caps get an elevation boost so high latitudes trend toward
        // land/ice, vaguely Earth-like.
        let polar = ((p.lat.abs() - 66.0) / 24.0).clamp(0.0, 1.0) * 0.18;
        (v1 * w + v2 * (1.0 - w) + polar).min(0.999_999)
    }

    /// Whether the point is land.
    pub fn is_land(&self, p: &LatLon) -> bool {
        self.field_value(p) >= self.threshold
    }

    /// A memoising land/ocean lookup for sweeps of neighbouring points
    /// (scan lines); see [`LandCursor`].
    pub fn cursor(&self) -> LandCursor<'_> {
        LandCursor {
            mask: self,
            phases: [self.field.cursor(), self.field.cursor()],
        }
    }

    /// Whether the point is ocean.
    pub fn is_ocean(&self, p: &LatLon) -> bool {
        !self.is_land(p)
    }

    /// Monte-Carlo estimate of the global land fraction using an
    /// area-correct (cosine-latitude) sample of `n` points.
    pub fn land_fraction(&self, n: usize) -> f64 {
        let mut land = 0usize;
        for i in 0..n {
            // Low-discrepancy-ish lattice over the sphere.
            let u = (i as f64 + 0.5) / n as f64;
            let v = (i as f64 * 0.618_033_988_75).fract();
            let lat = (2.0 * u - 1.0).asin().to_degrees();
            let lon = v * 360.0 - 180.0;
            if self.is_land(&LatLon::new(lat, lon)) {
                land += 1;
            }
        }
        land as f64 / n as f64
    }
}

/// [`LandMask::is_land`] over an [`FbmCursor`] per longitude phase:
/// successive points along a scan line reuse the lattice cells they share.
/// Answers exactly as [`LandMask::is_land`] does, for points in any order.
#[derive(Debug, Clone)]
pub struct LandCursor<'a> {
    mask: &'a LandMask,
    phases: [FbmCursor<'a>; 2],
}

impl LandCursor<'_> {
    /// Whether the point is land.
    pub fn is_land(&mut self, p: &LatLon) -> bool {
        let phases = &mut self.phases;
        self.mask.field_with(p, |k, x, y| phases[k].sample(x, y)) >= self.mask.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mask_is_deterministic() {
        let m1 = LandMask::earth_like(2022);
        let m2 = LandMask::earth_like(2022);
        for i in 0..100 {
            let p = LatLon::new(
                (i as f64 * 1.7) % 80.0 - 40.0,
                (i as f64 * 3.1) % 360.0 - 180.0,
            );
            assert_eq!(m1.is_land(&p), m2.is_land(&p));
        }
    }

    #[test]
    fn land_fraction_is_earth_like() {
        let m = LandMask::earth_like(2022);
        let frac = m.land_fraction(20_000);
        assert!(
            (0.20..=0.40).contains(&frac),
            "land fraction {frac} should be roughly Earth's 0.29"
        );
    }

    #[test]
    fn threshold_controls_land_fraction() {
        let wet = LandMask::with_threshold(7, 0.8);
        let dry = LandMask::with_threshold(7, 0.3);
        assert!(wet.land_fraction(5_000) < dry.land_fraction(5_000));
    }

    #[test]
    fn mask_is_spatially_coherent() {
        // Neighbouring points (≈10 km apart) should usually agree — a mask
        // of uncorrelated noise would break tile-level ocean filtering.
        let m = LandMask::earth_like(2022);
        let mut agree = 0;
        let mut total = 0;
        for i in 0..500 {
            let lat = (i as f64 * 0.31) % 120.0 - 60.0;
            let lon = (i as f64 * 1.13) % 360.0 - 180.0;
            let p = LatLon::new(lat, lon);
            let q = LatLon::new(lat + 0.09, lon);
            if m.is_land(&p) == m.is_land(&q) {
                agree += 1;
            }
            total += 1;
        }
        assert!(
            agree as f64 / total as f64 > 0.95,
            "coherence {agree}/{total}"
        );
    }

    #[test]
    fn no_seam_at_antimeridian() {
        // Field values just west and just east of ±180° must be close.
        let m = LandMask::earth_like(2022);
        for i in 0..50 {
            let lat = i as f64 * 2.0 - 50.0;
            let w = m.field_value(&LatLon::new(lat, 179.95));
            let e = m.field_value(&LatLon::new(lat, -179.95));
            assert!(
                (w - e).abs() < 0.05,
                "seam jump {} at lat {lat}",
                (w - e).abs()
            );
        }
    }

    #[test]
    fn different_seeds_make_different_worlds() {
        let a = LandMask::earth_like(1);
        let b = LandMask::earth_like(2);
        let diffs = (0..200)
            .filter(|&i| {
                let p = LatLon::new(
                    (i as f64 * 0.83) % 120.0 - 60.0,
                    (i as f64 * 2.9) % 360.0 - 180.0,
                );
                a.is_land(&p) != b.is_land(&p)
            })
            .count();
        assert!(diffs > 20, "only {diffs}/200 differ");
    }

    #[test]
    fn field_value_in_range() {
        let m = LandMask::earth_like(5);
        for i in 0..300 {
            let p = LatLon::new(
                (i as f64 * 0.61) % 180.0 - 90.0,
                (i as f64 * 1.27) % 360.0 - 180.0,
            );
            let v = m.field_value(&p);
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    proptest! {
        #[test]
        fn cursor_agrees_with_is_land(
            seed in any::<u64>(),
            lat0 in -90.0f64..90.0,
            lon0 in -180.0f64..180.0,
            dlat in -0.05f64..0.05,
            dlon in -0.2f64..0.2,
        ) {
            // Scan-line-like sweeps from a random start, plus one that
            // crosses the antimeridian and one that runs over a pole
            // (longitudes wrap, latitudes clamp to ±90).
            let m = LandMask::earth_like(seed);
            let mut c = m.cursor();
            let sweeps = [
                (lat0, lon0, dlat, dlon),
                (lat0 * 0.5, 179.0, dlat, 0.01),
                (88.0, lon0, 0.01, dlon),
                (-88.0, lon0, -0.01, dlon),
            ];
            for (la, lo, dla, dlo) in sweeps {
                for i in 0..300 {
                    let lat = (la + i as f64 * dla).clamp(-90.0, 90.0);
                    let lon = (lo + i as f64 * dlo + 180.0).rem_euclid(360.0) - 180.0;
                    let p = LatLon::new(lat, lon);
                    prop_assert_eq!(c.is_land(&p), m.is_land(&p), "at {:?}", p);
                    let phases = &mut c.phases;
                    let field = m.field_with(&p, |k, x, y| phases[k].sample(x, y));
                    prop_assert_eq!(field.to_bits(), m.field_value(&p).to_bits());
                }
            }
        }
    }
}
