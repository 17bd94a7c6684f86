//! Retry/timeout/backoff policy for the reliable request/response layer.
//!
//! The control-plane exchange (see the crate docs' failure model)
//! wraps each agent call in a sequence-numbered envelope and retransmits
//! it until a matching response arrives or the policy's attempt budget is
//! exhausted. [`RetryPolicy`] carries every knob: attempt count, the
//! exponential backoff curve with deterministic jitter, and the per-poll
//! I/O timeout used while waiting for the response.

/// Knobs for the reliable call layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of times a call is transmitted (first send
    /// included). At least 1 is always attempted.
    pub max_attempts: u32,
    /// Base backoff before the second attempt (ms); doubles per attempt.
    /// Zero disables sleeping entirely (synchronous in-process mode).
    pub base_backoff_ms: u64,
    /// Upper bound on the backoff (ms).
    pub max_backoff_ms: u64,
    /// Fraction of the backoff added/removed as deterministic jitter,
    /// in `[0, 1]`: the actual sleep is `backoff × (1 ± jitter_frac/2)`.
    pub jitter_frac: f64,
    /// How long one receive poll waits for the response (ms). Zero means
    /// non-blocking polls (synchronous in-process mode, where the master
    /// is pumped on the same thread between send and receive).
    pub io_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 200,
            jitter_frac: 0.2,
            io_timeout_ms: 500,
        }
    }
}

impl RetryPolicy {
    /// Policy for the synchronous in-process (channel) pairing: the
    /// master runs on the same thread, so polls never need to wait and
    /// sleeping would only slow the run down. Retransmits are still
    /// bounded by the attempt budget; the outcome depends only on message
    /// counts, never on timing, keeping runs deterministic across thread
    /// pools.
    pub fn synchronous() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            jitter_frac: 0.0,
            io_timeout_ms: 0,
        }
    }

    /// Backoff before attempt `attempt` (1-based; attempt 0 is the first
    /// transmission and never sleeps) of call `seq`, in milliseconds.
    /// Exponential with a deterministic jitter derived from `(seq,
    /// attempt)`, so reruns sleep identically.
    pub fn backoff_ms(&self, seq: u64, attempt: u32) -> u64 {
        if attempt == 0 || self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.max_backoff_ms.max(self.base_backoff_ms));
        // Deterministic jitter in [-jitter/2, +jitter/2] of the backoff.
        let unit = splitmix64(seq.wrapping_mul(0x9E37).wrapping_add(attempt as u64)) as f64
            / u64::MAX as f64;
        let factor = 1.0 + self.jitter_frac.clamp(0.0, 1.0) * (unit - 0.5);
        (capped as f64 * factor).round().max(0.0) as u64
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ms(1, 0), 0);
        assert_eq!(p.backoff_ms(1, 1), 10);
        assert_eq!(p.backoff_ms(1, 2), 20);
        assert_eq!(p.backoff_ms(1, 3), 40);
        assert_eq!(p.backoff_ms(1, 10), 200, "capped at max_backoff_ms");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let a = p.backoff_ms(7, 3);
        assert_eq!(a, p.backoff_ms(7, 3), "same (seq, attempt) same sleep");
        let spread: std::collections::BTreeSet<u64> =
            (0..50).map(|seq| p.backoff_ms(seq, 3)).collect();
        assert!(spread.len() > 1, "jitter must vary across seqs");
        let nominal = 40.0;
        for &v in &spread {
            assert!((v as f64 - nominal).abs() <= nominal * 0.5 + 1.0);
        }
    }

    #[test]
    fn synchronous_policy_never_sleeps() {
        let p = RetryPolicy::synchronous();
        for attempt in 0..10 {
            assert_eq!(p.backoff_ms(3, attempt), 0);
        }
        assert_eq!(p.io_timeout_ms, 0);
    }
}
