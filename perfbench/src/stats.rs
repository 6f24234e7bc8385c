//! Estimators that hold up under a host whose speed moves in phases.
//!
//! The timed phase of every workload is cut into *rounds*. On a small
//! shared virtual machine the host mostly runs in a contended steady
//! state and now and then in faster bursts lasting seconds; a whole run
//! may see no burst at all. A run-long mean or an upper percentile
//! therefore reports how many bursts the run caught. For rounds of equal
//! work the end-to-end figures are taken over the [`BAND`] of rounds
//! ranked from fastest to slowest: the steady state, without the bursts
//! above it and without the rare stalls below it.

/// Rounds the end-to-end figures use, as a range of ranks from fastest
/// (0.0) to slowest (1.0), when rounds are equal work.
pub const BAND: (f64, f64) = (0.5, 0.9);

/// Every round: for rounds of unequal work (each fuzz case is a new
/// design), where a band would select inputs rather than host phases.
pub const ALL: (f64, f64) = (0.0, 1.0);

/// One round of a workload's timed phase.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the whole round, in seconds.
    pub secs: f64,
    /// Simulated cycles executed in the round.
    pub cycles: f64,
    /// Wall time of each operation in the round, in milliseconds.
    pub op_ms: Vec<f64>,
}

/// The end-to-end figures of a timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Simulated cycles per second over the band's rounds.
    pub cycles_per_s: f64,
    /// Operations per second over the band's rounds.
    pub ops_per_s: f64,
    /// Median operation latency over the band's rounds.
    pub op_p50_ms: f64,
    /// The slowest operation of a round, median over the band's rounds:
    /// a tail that one stalled operation cannot move.
    pub op_tail_ms: f64,
    /// Rounds the figures were taken over.
    pub rounds: usize,
    /// Operations the latency percentiles were taken over.
    pub ops: usize,
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Indices of the rounds ranked (fastest first) inside `band`; at least
/// one round when there is any.
pub fn band_rounds(rounds: &[Round], band: (f64, f64)) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rounds.len()).collect();
    idx.sort_by(|&a, &b| rounds[a].secs.total_cmp(&rounds[b].secs));
    let n = rounds.len() as f64;
    let lo = ((n * band.0).floor() as usize).min(rounds.len().saturating_sub(1));
    let hi = ((n * band.1).ceil() as usize).clamp(lo + 1, rounds.len().max(lo + 1));
    idx.into_iter().skip(lo).take(hi - lo).collect()
}

/// The end-to-end figures over the `band` of `rounds`. Returns `None`
/// when no round holds an operation.
pub fn estimate(rounds: &[Round], band: (f64, f64)) -> Option<Estimate> {
    let keep = band_rounds(rounds, band);
    let secs: f64 = keep.iter().map(|&i| rounds[i].secs).sum();
    let cycles: f64 = keep.iter().map(|&i| rounds[i].cycles).sum();
    let ops: Vec<f64> = keep
        .iter()
        .flat_map(|&i| rounds[i].op_ms.iter().copied())
        .collect();
    if ops.is_empty() || secs <= 0.0 {
        return None;
    }
    Some(Estimate {
        cycles_per_s: cycles / secs,
        ops_per_s: ops.len() as f64 / secs,
        op_p50_ms: percentile(&ops, 50.0),
        op_tail_ms: median(
            &keep
                .iter()
                .filter_map(|&i| rounds[i].op_ms.iter().copied().reduce(f64::max))
                .collect::<Vec<_>>(),
        ),
        rounds: keep.len(),
        ops: ops.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` equal-work rounds of 1M cycles in 10 ops: `burst` of them in a
    /// fast phase (7 ms ops), `stall` in rare stalls (40 ms ops), the rest
    /// in the steady state (14 ms ops), in scrambled order.
    fn phases(n: usize, burst: usize, stall: usize) -> Vec<Round> {
        (0..n)
            .map(|i| {
                let k = (i * 7919) % n;
                let op = if k < burst {
                    7.0
                } else if k >= n - stall {
                    40.0
                } else {
                    14.0
                };
                Round {
                    secs: op * 10.0 / 1000.0,
                    cycles: 1e6,
                    op_ms: vec![op; 10],
                }
            })
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn band_keeps_at_least_one_round() {
        let one = vec![Round {
            secs: 1.0,
            cycles: 1.0,
            op_ms: vec![1.0],
        }];
        assert_eq!(band_rounds(&one, BAND), vec![0]);
        assert!(band_rounds(&[], BAND).is_empty());
        assert!(estimate(&[], BAND).is_none());
        let rounds = phases(100, 0, 0);
        assert_eq!(band_rounds(&rounds, BAND).len(), 40);
        assert_eq!(band_rounds(&rounds, ALL).len(), 100);
    }

    #[test]
    fn bursts_and_stalls_do_not_decide_the_rate() {
        // However many fast bursts a run catches (up to half of it) and
        // however many stalls it suffers (up to a tenth), the estimate
        // reads the steady state: 1M cycles per 140 ms.
        for burst in [0, 40, 100, 200] {
            for stall in [0, 5, 20, 40] {
                let e = estimate(&phases(400, burst, stall), BAND).unwrap();
                assert!(
                    close(e.cycles_per_s, 1e6 / 0.14),
                    "{burst} bursts, {stall} stalls: {}",
                    e.cycles_per_s
                );
                assert!(close(e.ops_per_s, 1000.0 / 14.0));
                assert_eq!(e.op_p50_ms, 14.0);
                assert_eq!(e.op_tail_ms, 14.0);
                assert_eq!(e.rounds, 160);
                assert_eq!(e.ops, 1600);
            }
        }
    }

    #[test]
    fn run_long_mean_and_upper_percentiles_would_follow_the_bursts() {
        // The contrast the estimator exists for: between a run that caught
        // no burst and one that was half bursts, the mean moves by a
        // third and the fastest quarter doubles; the estimate does not
        // move.
        let mean = |r: &[Round]| {
            r.iter().map(|x| x.cycles).sum::<f64>() / r.iter().map(|x| x.secs).sum::<f64>()
        };
        let quiet = phases(400, 0, 4);
        let bursty = phases(400, 200, 4);
        assert!(mean(&bursty) / mean(&quiet) > 1.3);
        let fastest = |r: &[Round]| {
            let i = band_rounds(r, (0.0, 0.25));
            i.iter().map(|&k| r[k].cycles).sum::<f64>() / i.iter().map(|&k| r[k].secs).sum::<f64>()
        };
        assert!(close(fastest(&bursty) / fastest(&quiet), 2.0));
        let a = estimate(&quiet, BAND).unwrap().cycles_per_s;
        let b = estimate(&bursty, BAND).unwrap().cycles_per_s;
        assert!(close(a, b));
    }

    #[test]
    fn unequal_rounds_use_every_round() {
        // Rounds of 1, 2 and 3 ms of work: the rate over all of them is
        // the total work over the total time.
        let rounds: Vec<Round> = (1..=3)
            .map(|k| Round {
                secs: k as f64 / 1000.0,
                cycles: 10.0,
                op_ms: vec![k as f64],
            })
            .collect();
        let e = estimate(&rounds, ALL).unwrap();
        assert!(close(e.cycles_per_s, 30.0 / 0.006));
        assert!(close(e.ops_per_s, 3.0 / 0.006));
        assert_eq!(e.op_p50_ms, 2.0);
        assert_eq!(e.op_tail_ms, 2.0);
    }

    #[test]
    fn tail_is_the_typical_round_maximum() {
        // Every steady round holds two 50 ms operations among 98 of 1 ms:
        // the tail reads them. One round in ten with a burst of 900 ms
        // stalls would put a pooled 99th percentile on the stalls; the
        // median of round maxima stays put.
        let rounds: Vec<Round> = (0..100)
            .map(|i| {
                let mut op_ms = vec![1.0; 100];
                op_ms[0] = 50.0;
                op_ms[1] = 50.0;
                if i % 10 == 0 {
                    op_ms[2..20].fill(900.0);
                }
                Round {
                    secs: 1.0 + i as f64 * 1e-6,
                    cycles: 100.0,
                    op_ms,
                }
            })
            .collect();
        let e = estimate(&rounds, BAND).unwrap();
        assert_eq!(e.rounds, 40);
        assert_eq!(e.op_p50_ms, 1.0);
        assert_eq!(e.op_tail_ms, 50.0);
        let pooled: Vec<f64> = band_rounds(&rounds, BAND)
            .iter()
            .flat_map(|&i| rounds[i].op_ms.clone())
            .collect();
        assert_eq!(percentile(&pooled, 99.0), 900.0);
    }
}
