//! Validated parsing for the `PREMA_*` environment knobs.
//!
//! Before this module each knob rolled its own `.parse().ok()`, with
//! different failure behaviors: some silently ignored malformed values, and
//! `ChaosConfig::from_env` accepted out-of-range probabilities (loss above
//! `1.0` quietly saturates the fate dice). A typo in an env var is exactly
//! the situation where silence is costliest — the operator believes a knob
//! is set and it is not — so every knob now routes through one helper that
//!
//! * warns (once per variable, on stderr) when a set value does not parse,
//!   then behaves as if the variable were unset;
//! * range-checks probabilities to `[0, 1]` and rejects non-finite floats;
//! * keeps the *semantics* of every existing knob unchanged for well-formed
//!   values.
//!
//! Each `*_var` reader has a pure `parse_*` core taking the raw string, so
//! tests can cover the validation matrix without mutating the process
//! environment (which is racy under a multithreaded test harness).

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Emit `msg` for `key` at most once per process. Repeated reads of the
/// same malformed variable (every rank re-reads the env at launch) must not
/// spam stderr.
fn warn_once(key: &str, msg: &str) {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let mut warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new())).lock();
    if warned.insert(key.to_string()) {
        eprintln!("prema: ignoring {key}: {msg}");
    }
}

/// Parse a `u64` knob from a raw (possibly absent) value. Malformed input
/// warns once and reads as unset.
pub fn parse_u64(key: &str, raw: Option<&str>) -> Option<u64> {
    let raw = raw?;
    match raw.trim().parse::<u64>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(key, &format!("{raw:?} is not an unsigned integer"));
            None
        }
    }
}

/// Parse a `usize` knob (same rules as [`parse_u64`]).
pub fn parse_usize(key: &str, raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(key, &format!("{raw:?} is not an unsigned integer"));
            None
        }
    }
}

/// Parse a finite `f64` knob. Non-finite values (NaN, ±inf) warn and read
/// as unset.
pub fn parse_f64(key: &str, raw: Option<&str>) -> Option<f64> {
    let raw = raw?;
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() => Some(v),
        Ok(_) => {
            warn_once(key, &format!("{raw:?} is not finite"));
            None
        }
        Err(_) => {
            warn_once(key, &format!("{raw:?} is not a number"));
            None
        }
    }
}

/// Parse a probability knob: a finite `f64` in `[0, 1]`. Out-of-range
/// values warn once and read as unset (they do **not** clamp — a clamped
/// `PREMA_CHAOS_LOSS=10` would silently run at 100% loss, which is never
/// what the operator meant).
pub fn parse_prob(key: &str, raw: Option<&str>) -> Option<f64> {
    let v = parse_f64(key, raw)?;
    if !(0.0..=1.0).contains(&v) {
        warn_once(key, &format!("probability {v} is outside [0, 1]"));
        return None;
    }
    Some(v)
}

fn raw(key: &str) -> Option<String> {
    std::env::var(key).ok()
}

/// Read + validate a `u64` knob from the process environment.
pub fn u64_var(key: &str) -> Option<u64> {
    parse_u64(key, raw(key).as_deref())
}

/// Read + validate a `usize` knob from the process environment.
pub fn usize_var(key: &str) -> Option<usize> {
    parse_usize(key, raw(key).as_deref())
}

/// Read + validate a probability knob from the process environment.
pub fn prob_var(key: &str) -> Option<f64> {
    parse_prob(key, raw(key).as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_accepts_and_trims() {
        assert_eq!(parse_u64("K", Some(" 42 ")), Some(42));
        assert_eq!(parse_u64("K", None), None);
    }

    #[test]
    fn u64_rejects_malformed() {
        assert_eq!(parse_u64("K", Some("not-a-number")), None);
        assert_eq!(parse_u64("K", Some("-3")), None);
        assert_eq!(parse_u64("K", Some("1.5")), None);
    }

    #[test]
    fn prob_range_checked() {
        assert_eq!(parse_prob("K", Some("0")), Some(0.0));
        assert_eq!(parse_prob("K", Some("1")), Some(1.0));
        assert_eq!(parse_prob("K", Some("0.02")), Some(0.02));
        assert_eq!(parse_prob("K", Some("1.5")), None);
        assert_eq!(parse_prob("K", Some("-0.1")), None);
        assert_eq!(parse_prob("K", Some("NaN")), None);
        assert_eq!(parse_prob("K", Some("inf")), None);
        assert_eq!(parse_prob("K", Some("lots")), None);
    }

    #[test]
    fn warn_once_does_not_panic_on_repeat() {
        // The dedup set is process-global; just exercise the path twice.
        assert_eq!(parse_u64("PREMA_TEST_WARN_TWICE", Some("x")), None);
        assert_eq!(parse_u64("PREMA_TEST_WARN_TWICE", Some("x")), None);
    }
}
