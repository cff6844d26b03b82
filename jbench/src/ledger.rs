//! Accumulators a workload fills while it runs, plus the small
//! statistics the metrics need.

use janitizer_core::EngineStats;
use std::collections::BTreeMap;

/// One program (or Juliet category) under one configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Row {
    /// Runs folded into the row.
    pub runs: u64,
    /// Host nanoseconds of those runs.
    pub ns: u64,
    /// Guest instructions of those runs.
    pub insns: u64,
    /// Probe executions of those runs.
    pub probe_runs: u64,
    /// Sum of modeled slowdowns (0 for native rows).
    pub slowdown_sum: f64,
}

impl Row {
    /// Mean host nanoseconds per run.
    pub fn ns_per_run(&self) -> f64 {
        self.ns as f64 / self.runs.max(1) as f64
    }
}

/// What a workload records beside its spans.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `(label, config)` rows.
    pub rows: BTreeMap<(String, &'static str), Row>,
    /// Modeled slowdowns on benign inputs, by configuration.
    pub slowdowns: BTreeMap<&'static str, Vec<f64>>,
    /// Named sums (engine counters, differential timings, stats).
    pub sums: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Adds `v` to the sum named `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// The sum named `key` (0 when never added).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Folds one run into its row.
    pub fn row(
        &mut self,
        label: &str,
        config: &'static str,
        ns: u64,
        insns: u64,
        probe_runs: u64,
        slowdown: f64,
    ) {
        let r = self.rows.entry((label.to_string(), config)).or_default();
        r.runs += 1;
        r.ns += ns;
        r.insns += insns;
        r.probe_runs += probe_runs;
        r.slowdown_sum += slowdown;
    }

    /// Records a modeled slowdown on a benign input.
    pub fn slowdown(&mut self, config: &'static str, x: f64) {
        self.slowdowns.entry(config).or_default().push(x);
    }

    /// Folds the engine counters of one instrumented run.
    pub fn engine(&mut self, s: &EngineStats) {
        self.add("eng.runs", 1.0);
        for (k, v) in [
            ("eng.blocks_translated", s.blocks_translated),
            ("eng.probe_runs", s.probe_runs),
            ("eng.indirect_transfers", s.indirect_transfers),
            ("eng.indirect_chain_hits", s.indirect_chain_hits),
            ("eng.chained_transfers", s.chained_transfers),
            ("eng.superblocks_formed", s.superblocks_formed),
            ("eng.trace_exits", s.trace_exits),
            ("eng.checks_fused", s.checks_fused),
            ("eng.checks_hoisted", s.checks_hoisted),
            ("eng.translation_cycles", s.translation_cycles),
            ("eng.dispatch_cycles", s.dispatch_cycles),
            ("eng.probe_cycles", s.probe_cycles),
        ] {
            self.add(k, v as f64);
        }
    }

    /// Host time of `config` minus host time of `base`, per unit that
    /// `per` takes from the `config` row, over every label that has
    /// both rows.
    pub fn paired_delta(&self, config: &str, base: &str, per: impl Fn(&Row) -> f64) -> Option<f64> {
        let (mut delta, mut units) = (0.0, 0.0);
        for ((label, cfg), row) in &self.rows {
            if *cfg != config {
                continue;
            }
            let Some(b) = self
                .rows
                .iter()
                .find(|((l, c), _)| l == label && *c == base)
                .map(|(_, r)| r)
            else {
                continue;
            };
            delta += row.ns_per_run() - b.ns_per_run();
            units += per(row) / row.runs.max(1) as f64;
        }
        (units > 0.0).then(|| delta / units)
    }
}

/// Geometric mean (`None` for no samples), summed in sorted order so
/// the same samples in any order give the same bits.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

/// Nearest-rank percentile `p` (0..=100) of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest whole percentile that leaves at least ten of `n` samples
/// beyond its nearest rank (50 when `n` is too small for any).
pub fn tail_pct(n: usize) -> f64 {
    (50..100)
        .rev()
        .find(|p| n.saturating_sub((p * n).div_ceil(100)) >= 10)
        .unwrap_or(50) as f64
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// SplitMix64: the benchmark's own seeded generator for its draws.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median_by_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(median(&xs), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_beyond() {
        assert_eq!(tail_pct(208), 95.0);
        assert_eq!(tail_pct(168), 94.0);
        assert_eq!(tail_pct(56), 82.0);
        assert_eq!(tail_pct(12), 50.0);
        for n in [20, 56, 100, 168, 208, 1000] {
            let xs: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let p = tail_pct(n);
            assert!(
                xs.iter().filter(|x| **x > percentile(&xs, p)).count() >= 10,
                "{n}"
            );
            assert!(
                xs.iter().filter(|x| **x > percentile(&xs, p + 1.0)).count() < 10,
                "{n}"
            );
        }
    }

    #[test]
    fn permutations_repeat_per_seed() {
        let a = Rng::new(7, "x").permutation(28);
        assert_eq!(a, Rng::new(7, "x").permutation(28));
        assert_ne!(a, Rng::new(8, "x").permutation(28));
        let mut s = a.clone();
        s.sort();
        assert_eq!(s, (0..28).collect::<Vec<_>>());
    }

    #[test]
    fn paired_delta_subtracts_the_base_row() {
        let mut l = Ledger::default();
        l.row("p", "null-client", 300, 100, 0, 1.0);
        l.row("p", "native", 100, 100, 0, 1.0);
        l.row("q", "native", 100, 100, 0, 1.0);
        assert_eq!(
            l.paired_delta("null-client", "native", |r| r.insns as f64),
            Some(2.0)
        );
        assert_eq!(
            l.paired_delta("jasan-hybrid", "native", |r| r.insns as f64),
            None
        );
    }
}
