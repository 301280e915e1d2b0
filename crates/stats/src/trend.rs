//! Least-squares trend fitting and extrapolation.
//!
//! Figures 1, 8 and 10 of the paper plot per-configuration points (absolute
//! baseline IPC on the x-axis, a relative metric on the y-axis) with a linear
//! trend line, and §1/§8.4 extrapolate that trend to an Intel Redwood Cove
//! class core (SPEC2017 IPC 2.03) — both with the raw slope and with a less
//! pessimistic *halved* slope (Table 3's "Intel" column).

use std::fmt;

/// A single `(absolute IPC, relative metric)` point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrendPoint {
    /// Absolute baseline IPC of the configuration (x-axis).
    pub ipc: f64,
    /// Relative metric (normalized IPC, timing, or performance; y-axis).
    pub value: f64,
}

impl TrendPoint {
    /// Creates a point.
    #[must_use]
    pub fn new(ipc: f64, value: f64) -> Self {
        TrendPoint { ipc, value }
    }
}

/// Why a trend line could not be fitted.
///
/// Degenerate inputs are an expected runtime condition (a degraded grid can
/// leave a figure with one surviving configuration, and a one-point sweep is
/// perfectly legal), so fitting returns this error instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrendError {
    /// Fewer than two points were supplied; a line is underdetermined.
    TooFewPoints {
        /// How many points were actually supplied.
        got: usize,
    },
    /// All x-values coincide, so the slope is undefined.
    CoincidentX,
}

impl fmt::Display for TrendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrendError::TooFewPoints { got } => {
                write!(f, "need at least two points to fit a line, got {got}")
            }
            TrendError::CoincidentX => write!(f, "all x-values coincide; slope undefined"),
        }
    }
}

impl std::error::Error for TrendError {}

/// An ordinary-least-squares line `value = slope * ipc + intercept`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub(crate) intercept: f64,
}

impl LinearFit {
    /// Fits a line through the points by ordinary least squares.
    ///
    /// # Errors
    ///
    /// Returns [`TrendError`] if fewer than two points are given or all
    /// x-values coincide (the slope would be undefined).
    pub fn fit(points: &[TrendPoint]) -> Result<Self, TrendError> {
        if points.len() < 2 {
            return Err(TrendError::TooFewPoints { got: points.len() });
        }
        let n = points.len() as f64;
        let mean_x: f64 = points.iter().map(|p| p.ipc).sum::<f64>() / n;
        let mean_y: f64 = points.iter().map(|p| p.value).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|p| (p.ipc - mean_x).powi(2)).sum();
        if !sxx.is_finite() || sxx <= 0.0 {
            return Err(TrendError::CoincidentX);
        }
        let sxy: f64 = points
            .iter()
            .map(|p| (p.ipc - mean_x) * (p.value - mean_y))
            .sum();
        let slope = sxy / sxx;
        Ok(LinearFit {
            slope,
            intercept: mean_y - slope * mean_x,
        })
    }

    /// Predicted value at `ipc` using the raw fitted slope (the paper's
    /// pessimistic linear extrapolation).
    #[must_use]
    pub fn predict(&self, ipc: f64) -> f64 {
        self.slope * ipc + self.intercept
    }

    /// Predicted value at `ipc` with the slope halved beyond the last
    /// observed point `anchor` — the paper's "less pessimistic estimate with
    /// only halved growth" used for the Table 3 Intel column.
    #[must_use]
    pub fn predict_halved_growth(&self, anchor: f64, ipc: f64) -> f64 {
        let at_anchor = self.predict(anchor);
        at_anchor + 0.5 * self.slope * (ipc - anchor)
    }

    /// Coefficient of determination (R²) of the fit over `points`.
    #[must_use]
    pub fn r_squared(&self, points: &[TrendPoint]) -> f64 {
        let n = points.len() as f64;
        if n < 2.0 {
            return 1.0;
        }
        let mean_y: f64 = points.iter().map(|p| p.value).sum::<f64>() / n;
        let ss_tot: f64 = points.iter().map(|p| (p.value - mean_y).powi(2)).sum();
        if ss_tot == 0.0 {
            return 1.0;
        }
        let ss_res: f64 = points
            .iter()
            .map(|p| (p.value - self.predict(p.ipc)).powi(2))
            .sum();
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> TrendPoint {
        TrendPoint::new(x, y)
    }

    #[test]
    fn exact_line_is_recovered() {
        let pts = [p(0.5, 0.9), p(1.0, 0.8), p(1.5, 0.7)];
        let fit = LinearFit::fit(&pts).unwrap();
        assert!((fit.slope - (-0.2)).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r_squared(&pts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_follows_slope() {
        let pts = [p(0.5, 0.95), p(1.27, 0.65)];
        let fit = LinearFit::fit(&pts).unwrap();
        let at_intel = fit.predict(2.03);
        assert!(at_intel < 0.65, "extrapolation must continue the decline");
    }

    #[test]
    fn halved_growth_is_less_pessimistic() {
        let pts = [p(0.5, 0.95), p(1.27, 0.65)];
        let fit = LinearFit::fit(&pts).unwrap();
        let raw = fit.predict(2.03);
        let halved = fit.predict_halved_growth(1.27, 2.03);
        assert!(halved > raw);
        assert!(halved < 0.65, "still declines past the anchor");
        // At the anchor both agree.
        assert!((fit.predict_halved_growth(1.27, 1.27) - fit.predict(1.27)).abs() < 1e-12);
    }

    #[test]
    fn noisy_fit_r_squared_below_one() {
        let pts = [p(0.4, 0.99), p(0.6, 0.93), p(0.94, 0.84), p(1.27, 0.65)];
        let fit = LinearFit::fit(&pts).unwrap();
        let r2 = fit.r_squared(&pts);
        assert!(r2 > 0.8 && r2 <= 1.0, "r2 = {r2}");
    }

    #[test]
    fn single_point_is_a_typed_error() {
        assert_eq!(
            LinearFit::fit(&[p(1.0, 1.0)]),
            Err(TrendError::TooFewPoints { got: 1 })
        );
        assert_eq!(
            LinearFit::fit(&[]),
            Err(TrendError::TooFewPoints { got: 0 })
        );
    }

    #[test]
    fn vertical_line_is_a_typed_error() {
        assert_eq!(
            LinearFit::fit(&[p(1.0, 1.0), p(1.0, 2.0)]),
            Err(TrendError::CoincidentX)
        );
    }

    #[test]
    fn nan_x_values_are_a_typed_error() {
        assert_eq!(
            LinearFit::fit(&[p(f64::NAN, 1.0), p(1.0, 2.0)]),
            Err(TrendError::CoincidentX)
        );
    }

    #[test]
    fn trend_error_messages_are_descriptive() {
        let few = TrendError::TooFewPoints { got: 1 }.to_string();
        assert!(few.contains("at least two points"), "{few}");
        let coincident = TrendError::CoincidentX.to_string();
        assert!(coincident.contains("coincide"), "{coincident}");
    }
}
