//! The hand-written answer keys of `minic-pipeline`
//! (`programs/*.expected`): what each program must print and report
//! under each scheduler seed.
//!
//! One rule per line, `#` starts a comment:
//!
//! ```text
//! seed * | reports=- | output=200
//! seed 1 3 | reports=write@7 | output=*
//! ```
//!
//! `seed` lists scheduler seeds (`*` = every seed the benchmark runs);
//! `reports` lists the conflict reports as `kind@line` in the order the
//! VM raises them (`-` = none), kinds being `read`, `write`, `lock`,
//! `oneref`; `output` lists the printed lines (`-` = none, `*` = not
//! determined by the program text: it depends on the schedule or on
//! `random()`, so the key does not pin it). Every run must also end
//! with status `Completed`.

use sharc_interp::{ConflictKind, ExitStatus, RunOutcome};

/// The key for one program under one scheduler seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub reports: Vec<String>,
    /// `None`: any output.
    pub output: Option<Vec<String>>,
}

fn list(field: &str) -> Vec<String> {
    match field {
        "-" => Vec::new(),
        items => items.split(',').map(|s| s.trim().to_string()).collect(),
    }
}

/// Parses a `.expected` file into one key per entry of `seeds`.
///
/// # Errors
///
/// A malformed rule, or a seed no rule covers.
pub fn parse(text: &str, seeds: &[u64]) -> Result<Vec<Expected>, String> {
    let mut keys: Vec<Option<Expected>> = vec![None; seeds.len()];
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: `{raw}`", n + 1);
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        let [seed, reports, output] = fields[..] else {
            return Err(bad("expected `seed .. | reports=.. | output=..`"));
        };
        let covered = seed
            .strip_prefix("seed")
            .ok_or_else(|| bad("missing `seed`"))?
            .trim();
        let reports = reports
            .strip_prefix("reports=")
            .ok_or_else(|| bad("missing `reports=`"))?;
        let output = output
            .strip_prefix("output=")
            .ok_or_else(|| bad("missing `output=`"))?;
        let key = Expected {
            reports: list(reports),
            output: (output != "*").then(|| list(output)),
        };
        for (slot, s) in keys.iter_mut().zip(seeds) {
            let named = covered
                .split_whitespace()
                .any(|c| c == "*" || c.parse() == Ok(*s));
            if named {
                *slot = Some(key.clone());
            }
        }
    }
    keys.into_iter()
        .zip(seeds)
        .map(|(k, s)| k.ok_or_else(|| format!("no rule covers seed {s}")))
        .collect()
}

/// `kind@line` for every report of a run, in order.
pub fn report_keys(outcome: &RunOutcome) -> Vec<String> {
    outcome
        .reports
        .iter()
        .map(|r| {
            let kind = match r.kind {
                ConflictKind::Read => "read",
                ConflictKind::Write => "write",
                ConflictKind::Lock => "lock",
                ConflictKind::OneRef => "oneref",
            };
            // `location` is `file: line`.
            let line = r.who.location.rsplit(':').next().unwrap_or("?").trim();
            format!("{kind}@{line}")
        })
        .collect()
}

impl Expected {
    /// A clean run that prints `output`.
    pub fn clean(output: Vec<String>) -> Self {
        Expected {
            reports: Vec::new(),
            output: Some(output),
        }
    }

    /// Holds a run against the key.
    ///
    /// # Errors
    ///
    /// The first difference, in words.
    pub fn holds(&self, outcome: &RunOutcome) -> Result<(), String> {
        if outcome.status != ExitStatus::Completed {
            return Err(format!("status {:?}", outcome.status));
        }
        let reports = report_keys(outcome);
        if reports != self.reports {
            return Err(format!("reports {reports:?}, key says {:?}", self.reports));
        }
        match &self.output {
            Some(want) if *want != outcome.output => {
                Err(format!("output {:?}, key says {want:?}", outcome.output))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_cover_seeds_and_later_rules_win() {
        let text = "# header\nseed * | reports=- | output=1,2\nseed 3 | reports=write@7,read@9 | output=*\n";
        let keys = parse(text, &[1, 3]).unwrap();
        assert_eq!(keys[0], Expected::clean(vec!["1".into(), "2".into()]));
        assert_eq!(keys[1].reports, ["write@7", "read@9"]);
        assert_eq!(keys[1].output, None);
    }

    #[test]
    fn gaps_and_garbage_are_errors() {
        assert!(parse("seed 1 | reports=- | output=-", &[1, 2])
            .unwrap_err()
            .contains("seed 2"));
        assert!(parse("seed 1 | output=-", &[1]).is_err());
        assert!(parse("seed 1 | reports - | output=-", &[1]).is_err());
    }
}
