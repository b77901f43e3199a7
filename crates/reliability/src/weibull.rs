//! Weibull node lifetimes — relaxing Fig. 24's exponential assumption.
//!
//! The paper models node lifetimes as `Exp(λ)` (constant hazard). Real
//! electronics show infant mortality (shape `k < 1`) or wear-out
//! (`k > 1`); the Weibull family covers both with survival
//! `S(t) = exp(−(t/η)^k)`, reducing to the exponential at `k = 1`. This
//! module re-derives the Fig. 24/25 quantities under a shape parameter so
//! the overprovisioning conclusions can be stress-tested.

use sudc_errors::SudcError;

use crate::availability::{binomial_pmf, binomial_tail_at_least};

/// A Weibull lifetime distribution parameterized to preserve the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullLifetime {
    /// Shape parameter `k` (> 0): `< 1` infant mortality, `1` exponential,
    /// `> 1` wear-out.
    pub shape: f64,
    /// Scale parameter `η`, chosen so the mean lifetime is 1 MTTF.
    pub scale: f64,
}

impl WeibullLifetime {
    /// Creates a distribution with the given shape and unit mean
    /// (`η = 1 / Γ(1 + 1/k)`).
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not positive and finite (see
    /// [`WeibullLifetime::try_with_unit_mean`]).
    #[must_use]
    pub fn with_unit_mean(shape: f64) -> Self {
        match Self::try_with_unit_mean(shape) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`WeibullLifetime::with_unit_mean`].
    ///
    /// # Errors
    ///
    /// Returns a structured error if `shape` is not positive and finite.
    pub fn try_with_unit_mean(shape: f64) -> Result<Self, SudcError> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(SudcError::single(
                "WeibullLifetime",
                "shape",
                shape,
                "the Weibull shape must be positive and finite",
            ));
        }
        let scale = 1.0 / gamma(1.0 + 1.0 / shape);
        Ok(Self { shape, scale })
    }

    /// The exponential special case.
    #[must_use]
    pub fn exponential() -> Self {
        Self::with_unit_mean(1.0)
    }

    /// Per-node survival probability at `t` (in MTTF units).
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or non-finite (see
    /// [`WeibullLifetime::try_survival`]).
    #[must_use]
    pub fn survival(&self, t: f64) -> f64 {
        match self.try_survival(t) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`WeibullLifetime::survival`].
    ///
    /// # Errors
    ///
    /// Returns a structured error if `t` is negative or non-finite.
    pub fn try_survival(&self, t: f64) -> Result<f64, SudcError> {
        if !(t.is_finite() && t >= 0.0) {
            return Err(SudcError::single(
                "WeibullLifetime::survival",
                "t",
                t,
                "time must be finite and non-negative",
            ));
        }
        Ok((-(t / self.scale).powf(self.shape)).exp())
    }

    /// Probability that at least `required` of `nodes` survive to `t`.
    #[must_use]
    pub fn availability(&self, nodes: u32, required: u32, t: f64) -> f64 {
        binomial_tail_at_least(nodes, required, self.survival(t))
    }

    /// Expected usable capacity `E[min(required, alive)]` at `t`.
    #[must_use]
    pub fn expected_capacity(&self, nodes: u32, required: u32, t: f64) -> f64 {
        let p = self.survival(t);
        (0..=nodes)
            .map(|j| f64::from(j.min(required)) * binomial_pmf(nodes, j, p))
            .sum()
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate to
/// ~1e-13 over the range used here.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + G + 0.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::NodePool;
    use proptest::prelude::*;

    #[test]
    fn gamma_reference_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn shape_one_reduces_to_the_exponential_model() {
        let w = WeibullLifetime::exponential();
        let pool = NodePool::new(20, 10);
        for t in [0.1, 0.5, 1.0, 2.0] {
            assert!((w.survival(t) - (-t).exp()).abs() < 1e-12);
            assert!((w.availability(20, 10, t) - pool.availability(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn wear_out_shapes_survive_longer_early_then_collapse() {
        // k > 1: flat early hazard, then wear-out. Early survival beats the
        // exponential; late survival falls below it.
        let wearout = WeibullLifetime::with_unit_mean(3.0);
        let exp = WeibullLifetime::exponential();
        assert!(wearout.survival(0.2) > exp.survival(0.2));
        assert!(wearout.survival(2.0) < exp.survival(2.0));
    }

    #[test]
    fn infant_mortality_hurts_early_availability() {
        let infant = WeibullLifetime::with_unit_mean(0.5);
        let exp = WeibullLifetime::exponential();
        assert!(infant.availability(20, 10, 0.1) < exp.availability(20, 10, 0.1));
    }

    #[test]
    fn overprovisioning_still_pays_off_under_wear_out() {
        // The paper's §VII conclusion is robust to the lifetime model.
        let w = WeibullLifetime::with_unit_mean(2.5);
        for t in [0.3, 0.6, 0.9] {
            assert!(w.availability(30, 10, t) > w.availability(10, 10, t));
            assert!(w.expected_capacity(30, 10, t) > w.expected_capacity(10, 10, t));
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn zero_shape_panics() {
        let _ = WeibullLifetime::with_unit_mean(0.0);
    }

    proptest! {
        #[test]
        fn mean_is_unity_for_all_shapes(shape in 0.6..6.0f64) {
            // Numerically integrate the survival function: mean = ∫S(t)dt.
            // (Shapes below ~0.6 have heavy tails that need impractically
            // long integration horizons; the analytic identity still holds.)
            let w = WeibullLifetime::with_unit_mean(shape);
            let dt = 0.001;
            let mut mean = 0.0;
            let mut t = 0.0;
            while t < 120.0 {
                mean += w.survival(t) * dt;
                t += dt;
            }
            prop_assert!((mean - 1.0).abs() < 0.01, "shape {shape}: mean {mean}");
        }

        #[test]
        fn survival_is_monotone(shape in 0.3..6.0f64, t1 in 0.0..4.0f64, t2 in 0.0..4.0f64) {
            let w = WeibullLifetime::with_unit_mean(shape);
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(w.survival(hi) <= w.survival(lo));
        }
    }
}
