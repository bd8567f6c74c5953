//! The output oracle: what it means for an op's output to be correct.
//!
//! Exact where the program's contract is exact (batched ≡ sequential,
//! served ≡ in-process: bit-for-bit), a relative-RMSE tolerance where two
//! different algorithms compute the same function, and a trend test for
//! training. The bounds were validated on 15 seeds at the benchmark's
//! exact shapes; the README records the measured ranges.

/// Whether two outputs agree bit-for-bit and are finite. NaN never
/// matches, not even an identical NaN: a reference that went non-finite
/// is itself a wrong output.
pub fn same_bits(want: &[f32], got: &[f32]) -> bool {
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(a, b)| a.is_finite() && a.to_bits() == b.to_bits())
}

/// Root-mean-square error of `got` against `want`, relative to the
/// root-mean-square of `want`. Infinite when the shapes differ, anything
/// is non-finite or the reference is all zero.
pub fn relative_rmse(want: &[f32], got: &[f32]) -> f64 {
    if want.len() != got.len() || want.is_empty() {
        return f64::INFINITY;
    }
    let (mut err, mut norm) = (0.0f64, 0.0f64);
    for (&a, &b) in want.iter().zip(got) {
        if !a.is_finite() || !b.is_finite() {
            return f64::INFINITY;
        }
        err += (f64::from(a) - f64::from(b)).powi(2);
        norm += f64::from(a).powi(2);
    }
    if norm == 0.0 {
        f64::INFINITY
    } else {
        (err / norm).sqrt()
    }
}

/// Checks a twin's outputs against the reference within `bound`.
pub fn within(what: &str, want: &[f32], got: &[f32], bound: f64) -> Result<f64, String> {
    let e = relative_rmse(want, got);
    if e <= bound {
        Ok(e)
    } else {
        Err(format!(
            "{what}: relative RMSE {e:.3e} exceeds the bound {bound:.1e}"
        ))
    }
}

/// Losses a trend needs on each side, and in total before it is tested:
/// shorter runs (the smoke mode) only have to stay finite.
const TREND_SIDE: usize = 10;
const TREND_MIN_STEPS: usize = 60;

/// Most the mean of the last ten losses may be of the mean of the first
/// ten. The net stays near chance loss on its few steps, so the test is
/// relative, never against an absolute value.
pub const TREND_BOUND: f64 = 0.95;

/// Checks a training run's losses: every one finite, and — once there
/// are enough — falling.
pub fn losses_fall(losses: &[f64]) -> Result<(), String> {
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("loss of step {i} is {}", losses[i]));
    }
    if losses.len() < TREND_MIN_STEPS {
        return Ok(());
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&losses[..TREND_SIDE]);
    let last = mean(&losses[losses.len() - TREND_SIDE..]);
    if last <= TREND_BOUND * first {
        Ok(())
    } else {
        Err(format!(
            "training does not converge: mean of the last {TREND_SIDE} losses {last:.4} \
             is above {TREND_BOUND} x the first {TREND_SIDE} ({first:.4}) after {} steps",
            losses.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_equality_is_exact() {
        let a = [0.1f32, -2.5, 0.0];
        assert!(same_bits(&a, &a));
        assert!(!same_bits(&a, &[0.1, -2.5]));
        assert!(!same_bits(&a, &[0.1, -2.5, -0.0]), "sign of zero counts");
        assert!(!same_bits(
            &a,
            &[f32::from_bits(0.1f32.to_bits() + 1), -2.5, 0.0]
        ));
    }

    /// The negative control of the reply check: one logit flipped to NaN
    /// must fail, on either side.
    #[test]
    fn a_nan_logit_never_matches() {
        let want = [0.25f32, 1.5, -3.0];
        let mut got = want;
        got[1] = f32::NAN;
        assert!(!same_bits(&want, &got));
        assert!(!same_bits(&got, &got), "a NaN reference matches nothing");
        assert_eq!(relative_rmse(&want, &got), f64::INFINITY);
        assert!(within("twin", &want, &got, 0.5).is_err());
    }

    #[test]
    fn relative_rmse_measures_against_the_reference() {
        let want = [3.0f32, 4.0];
        assert_eq!(relative_rmse(&want, &want), 0.0);
        // error vector (0.3, 0.4) has norm 0.5 against 5
        let e = relative_rmse(&want, &[3.3, 4.4]);
        assert!((e - 0.1).abs() < 1e-6, "{e}");
        assert!(within("x", &want, &[3.3, 4.4], 0.11).is_ok());
        assert!(within("x", &want, &[3.3, 4.4], 0.09).is_err());
        assert_eq!(relative_rmse(&[0.0], &[0.0]), f64::INFINITY);
        assert_eq!(relative_rmse(&want, &[3.0]), f64::INFINITY);
    }

    /// The negative control of the training check: one loss flipped to
    /// NaN must fail, as must a flat or rising curve.
    #[test]
    fn loss_trend_fails_on_nan_and_on_no_progress() {
        let falling: Vec<f64> = (0..80).map(|i| 2.3 - 0.01 * f64::from(i)).collect();
        assert!(losses_fall(&falling).is_ok());
        let mut poisoned = falling.clone();
        poisoned[17] = f64::NAN;
        assert!(losses_fall(&poisoned).unwrap_err().contains("step 17"));
        assert!(losses_fall(&[2.3; 80]).is_err());
        let rising: Vec<f64> = falling.iter().rev().copied().collect();
        assert!(losses_fall(&rising).is_err());
        // too short for a trend: finiteness is all that is asked
        assert!(losses_fall(&[2.3; 12]).is_ok());
        assert!(losses_fall(&[2.3, f64::INFINITY]).is_err());
    }
}
