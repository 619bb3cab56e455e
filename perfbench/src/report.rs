//! Statistics helpers and the result printer.

/// Nearest-rank quantile (`q` in `[0, 1]`); sorts `v` in place. NaN for
/// an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The metrics of one run, printed as a table and then as the final
/// JSON line.
#[derive(Debug)]
pub struct Metrics {
    workload: String,
    traced: bool,
    /// `(name, value, unit, samples, in the JSON result)`.
    rows: Vec<(String, f64, String, usize, bool)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn new(workload: &str, traced: bool) -> Self {
        Metrics {
            workload: workload.to_string(),
            traced,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric with its unit and the number of samples behind it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.rows
            .push((name.to_string(), value, unit.to_string(), samples, true));
    }

    /// Record a metric for the table only: it is part of the benchmark's
    /// design but has no bound in `BENCHMARK.json`, because its spread
    /// across runs is wider than any bound a regression check can hold,
    /// or it is 0 on a healthy run (see `perfbench/README.md`).
    pub fn table_only(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.rows
            .push((name.to_string(), value, unit.to_string(), samples, false));
    }

    /// A line for the human-readable report.
    pub fn note(&mut self, line: String) {
        eprintln!("perfbench: {line}");
        self.notes.push(line);
    }

    /// Print the table and the JSON result line. A JSON metric with no
    /// samples (NaN) is printed as 0 and makes the run incorrect.
    pub fn finish(self, mut correct: bool, attempted: usize, failed: usize) {
        println!(
            "# perfbench {} ({})",
            self.workload,
            if self.traced { "traced" } else { "timed" }
        );
        for n in &self.notes {
            println!("#   {n}");
        }
        println!(
            "# {:<40} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        let mut json = Vec::with_capacity(self.rows.len());
        for (name, value, unit, samples, in_json) in &self.rows {
            let mark = if *in_json { "" } else { "  (table only)" };
            println!("# {name:<40} {value:>16.6} {unit:<6} {samples:>8}{mark}");
            if !in_json {
                continue;
            }
            let v = if value.is_finite() {
                *value
            } else {
                correct = false;
                0.0
            };
            json.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert!(quantile(&mut [], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
