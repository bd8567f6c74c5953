//! Reading the server's `/v1/metrics` page: the Prometheus text
//! exposition, as far as the traced runs need it.

/// One histogram family of a scrape: cumulative bucket counts by upper
/// bound (the `+Inf` bucket included), plus `_sum` and `_count`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

/// The value of a sample line `name{labels} value` or `name value`.
fn sample_value(line: &str) -> Option<f64> {
    line.rsplit(' ').next()?.parse().ok()
}

/// Extracts the unlabelled histogram `name` from an exposition page.
pub fn histogram(page: &str, name: &str) -> Histogram {
    let mut h = Histogram::default();
    let bucket = format!("{name}_bucket{{le=\"");
    let sum = format!("{name}_sum ");
    let count = format!("{name}_count ");
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix(&bucket) {
            let le = rest.split('"').next().unwrap_or("");
            let le = if le == "+Inf" {
                Some(f64::INFINITY)
            } else {
                le.parse().ok()
            };
            if let (Some(le), Some(v)) = (le, sample_value(line)) {
                h.buckets.push((le, v));
            }
        } else if line.starts_with(&sum) {
            h.sum = sample_value(line).unwrap_or(0.0);
        } else if line.starts_with(&count) {
            h.count = sample_value(line).unwrap_or(0.0);
        }
    }
    h
}

impl Histogram {
    /// Cumulative count at `le`. Empty buckets are not on the page, so
    /// the answer is the last listed bucket at or below `le`.
    fn cumulative_at(&self, le: f64) -> f64 {
        self.buckets
            .iter()
            .take_while(|(bound, _)| *bound <= le)
            .last()
            .map_or(0.0, |(_, cum)| *cum)
    }

    /// What was recorded between an `earlier` scrape and this one.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, cum)| (le, cum - earlier.cumulative_at(le)))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q * self.count;
        self.buckets
            .iter()
            .find(|(_, cum)| *cum >= rank && *cum > 0.0)
            .map_or(0.0, |(le, _)| *le)
    }

    /// Mean of the recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# HELP x_us Wait.\n# TYPE x_us histogram\n\
        x_us_bucket{le=\"100\"} 2\nx_us_bucket{le=\"+Inf\"} 2\nx_us_sum 150\nx_us_count 2\n\
        other_bucket{le=\"5\"} 9\n";
    const AFTER: &str = "x_us_bucket{le=\"100\"} 3\nx_us_bucket{le=\"200\"} 8\n\
        x_us_bucket{le=\"400\"} 11\nx_us_bucket{le=\"+Inf\"} 12\nx_us_sum 2150\nx_us_count 12\n\
        x_us_other_count 99\n";

    #[test]
    fn parses_one_family_and_ignores_the_rest() {
        let h = histogram(BEFORE, "x_us");
        assert_eq!(h.buckets, vec![(100.0, 2.0), (f64::INFINITY, 2.0)]);
        assert_eq!((h.sum, h.count), (150.0, 2.0));
        assert_eq!(histogram(BEFORE, "absent"), Histogram::default());
    }

    #[test]
    fn a_window_is_the_difference_of_two_scrapes() {
        let window = histogram(AFTER, "x_us").since(&histogram(BEFORE, "x_us"));
        assert_eq!(window.count, 10.0);
        assert_eq!(window.mean(), 200.0);
        // deltas: ≤100: 1, ≤200: 6, ≤400: 9, +Inf: 10
        assert_eq!(window.quantile(0.5), 200.0);
        assert_eq!(window.quantile(0.9), 400.0);
        assert_eq!(window.quantile(1.0), f64::INFINITY);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        assert_eq!(Histogram::default().mean(), 0.0);
    }
}
