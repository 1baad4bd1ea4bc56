//! Experiment scale and master seed shared by every experiment driver.
//!
//! The gated suites (`paba repro|churn|queueing`) and the figure tables
//! (`paba figure`) take both from `--scale`/`--quick` and `--seed`.

use std::str::FromStr;

/// Default master seed used across the workspace.
#[allow(clippy::inconsistent_digit_grouping)] // 2017-05-29: IPDPS 2017 opening day
pub const DEFAULT_SEED: u64 = 2017_05_29;

/// Experiment scale selected via `--scale`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scale {
    /// Tiny grids for smoke-testing the experiments (seconds).
    Quick,
    /// Grids that show every qualitative effect in minutes.
    #[default]
    Default,
    /// The paper's exact parameter grids and replication counts.
    Full,
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "quick" | "smoke" | "ci" => Ok(Scale::Quick),
            "default" | "" => Ok(Scale::Default),
            "full" | "paper" => Ok(Scale::Full),
            other => Err(format!(
                "unknown scale '{other}' (expected quick|default|full)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_unset() {
        assert_eq!(Scale::default(), Scale::Default);
        assert_eq!(DEFAULT_SEED, 20_170_529);
    }

    #[test]
    fn scale_aliases() {
        assert_eq!("ci".parse::<Scale>().unwrap(), Scale::Quick);
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Full);
        assert!("nope".parse::<Scale>().is_err());
    }
}
