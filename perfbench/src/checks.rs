//! Correctness checks. Each compares a program output with a value this
//! benchmark computes on its own (or with a property the method must
//! have), and names the first difference.

/// Primes below `limit`, by a sieve (a different method from both the
/// program under test and `koika_riscv::programs::primes_expected`).
pub fn count_primes_below(limit: u32) -> u32 {
    let n = limit as usize;
    if n < 3 {
        return 0;
    }
    let mut composite = vec![false; n];
    let mut count = 0;
    for i in 2..n {
        if !composite[i] {
            count += 1;
            let mut j = i * i;
            while j < n {
                composite[j] = true;
                j += i;
            }
        }
    }
    count
}

/// The word the core stored at `RESULT_ADDR` must be the prime count.
pub fn prime_count(stored: u32, limit: u32) -> Result<(), String> {
    let want = count_primes_below(limit);
    if stored == want {
        Ok(())
    } else {
        Err(format!(
            "core counted {stored} primes below {limit}, want {want}"
        ))
    }
}

/// Two register files must agree register by register.
pub fn same_regs<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[(String, T)],
    want: &[(String, T)],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} registers, want {}",
            got.len(),
            want.len()
        ));
    }
    for ((gn, gv), (wn, wv)) in got.iter().zip(want) {
        if gn != wn || gv != wv {
            return Err(format!("{what}: {gn}={gv:?}, want {wn}={wv:?}"));
        }
    }
    Ok(())
}

/// A campaign's outcome counts (`[masked, sdc, divergence, hang, panic,
/// flaky]`) must cover every member, with no panic and no flaky member.
pub fn campaign_counts(counts: &[usize; 6], members: usize) -> Result<(), String> {
    let total: usize = counts.iter().sum();
    if total != members {
        return Err(format!(
            "outcome counts {counts:?} sum to {total}, want {members}"
        ));
    }
    if counts[4] != 0 || counts[5] != 0 {
        return Err(format!(
            "{} panicked and {} flaky members in {counts:?}",
            counts[4], counts[5]
        ));
    }
    Ok(())
}

/// A member re-run on the reference interpreter must get the outcome the
/// campaign reported.
pub fn same_outcome(member: usize, campaign: &str, reference: &str) -> Result<(), String> {
    if campaign == reference {
        Ok(())
    } else {
        Err(format!(
            "member {member}: campaign says {campaign}, reference interpreter says {reference}"
        ))
    }
}

/// Every case of a fuzz round must be clean and must have built one
/// native artifact per optimization level (so the native column of the
/// matrix really ran).
pub fn fuzz_round(seeds: &[u64], clean: usize, builds: usize, levels: usize) -> Result<(), String> {
    if clean != seeds.len() {
        return Err(format!(
            "{} of the fuzz cases {seeds:x?} have findings",
            seeds.len() - clean
        ));
    }
    if builds != levels * seeds.len() {
        return Err(format!(
            "fuzz cases {seeds:x?} built {builds} native artifacts, want one per case and level ({})",
            levels * seeds.len()
        ));
    }
    Ok(())
}

/// A step reply must advance the session's cycle counter by exactly `n`.
pub fn exact_cycles(session: &str, before: u64, n: u64, reported: u64) -> Result<(), String> {
    if before + n == reported {
        Ok(())
    } else {
        Err(format!(
            "{session}: step {n} from cycle {before} reported cycle {reported}, want {}",
            before + n
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sieve_agrees_with_known_counts() {
        let known = [
            (0, 0),
            (2, 0),
            (3, 1),
            (10, 4),
            (100, 25),
            (1000, 168),
            (10_000, 1229),
        ];
        for (limit, want) in known {
            assert_eq!(count_primes_below(limit), want, "limit {limit}");
        }
        for limit in 0..600 {
            assert_eq!(
                count_primes_below(limit),
                koika_riscv::programs::primes_expected(limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn prime_count_rejects_off_by_one() {
        assert!(prime_count(168, 1000).is_ok());
        assert!(prime_count(167, 1000).is_err());
        assert!(prime_count(169, 1000).is_err());
    }

    #[test]
    fn same_regs_rejects_one_flipped_bit() {
        let want: Vec<(String, u64)> = vec![("pc".into(), 0x40), ("x".into(), 27)];
        assert!(same_regs("s", &want, &want).is_ok());
        let mut got = want.clone();
        got[1].1 ^= 1 << 3;
        let e = same_regs("s", &got, &want).unwrap_err();
        assert!(e.contains("x=19"), "{e}");
        assert!(same_regs("s", &got[..1], &want).is_err());
        let renamed = vec![("pc".to_string(), 0x40), ("y".to_string(), 27)];
        assert!(same_regs("s", &renamed, &want).is_err());
    }

    #[test]
    fn campaign_counts_reject_missing_panicked_or_flaky_members() {
        assert!(campaign_counts(&[5, 2, 2, 1, 0, 0], 10).is_ok());
        assert!(campaign_counts(&[5, 2, 2, 0, 0, 0], 10).is_err());
        assert!(campaign_counts(&[5, 2, 2, 0, 1, 0], 10).is_err());
        assert!(campaign_counts(&[5, 2, 2, 0, 0, 1], 10).is_err());
    }

    #[test]
    fn same_outcome_rejects_a_different_class_or_cycle() {
        assert!(same_outcome(3, "divergence@120", "divergence@120").is_ok());
        assert!(same_outcome(3, "divergence@120", "divergence@121").is_err());
        assert!(same_outcome(3, "masked", "sdc").is_err());
    }

    #[test]
    fn fuzz_round_rejects_findings_and_a_missing_native_column() {
        assert!(fuzz_round(&[1, 2], 2, 12, 6).is_ok());
        assert!(fuzz_round(&[1, 2], 1, 12, 6).is_err());
        assert!(fuzz_round(&[1, 2], 2, 0, 6).is_err());
        assert!(fuzz_round(&[1, 2], 2, 11, 6).is_err());
    }

    #[test]
    fn exact_cycles_rejects_a_repeated_or_lost_step() {
        assert!(exact_cycles("s", 100, 5, 105).is_ok());
        assert!(exact_cycles("s", 100, 5, 110).is_err());
        assert!(exact_cycles("s", 100, 5, 100).is_err());
    }
}
