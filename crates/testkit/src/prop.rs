//! The property runner: seeded case generation, greedy integrated
//! shrinking, and failing-seed persistence.
//!
//! ```
//! use sharc_testkit::{forall, prop_assert, prop_assert_eq};
//! use sharc_testkit::gen;
//!
//! forall!("addition_commutes", gen::pair(gen::u64_range(0..100), gen::u64_range(0..100)),
//!     |&(a, b)| {
//!         prop_assert_eq!(a + b, b + a);
//!     });
//! ```
//!
//! Reproducibility: every case draws from an rng seeded by
//! `derive_case_seed(base_seed, case_index)`, so a run is fully
//! determined by the base seed (`SHARC_TEST_SEED`, default
//! [`DEFAULT_SEED`]) — two runs with the same seed generate the same
//! case sequence. On failure the runner reports (and optionally
//! persists) the *case seed*, which replays just that case.

use crate::gen::{Gen, Tree};
use crate::rng::{splitmix64, Xoshiro256pp};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The default base seed when `SHARC_TEST_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0x5AC5_0001;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Random cases to run (`SHARC_TEST_CASES` overrides).
    pub cases: u32,
    /// Base seed for the whole run (`SHARC_TEST_SEED` overrides).
    pub seed: u64,
    /// Cap on property evaluations spent shrinking.
    pub max_shrink_steps: u32,
    /// If set, failing case seeds are appended here and replayed
    /// (before random cases) on the next run.
    pub regressions: Option<PathBuf>,
}

impl Config {
    /// `cases` and `seed` from the environment, defaults otherwise.
    pub fn from_env() -> Self {
        Config {
            cases: env_cases().unwrap_or(64),
            seed: crate::rng::seed_from_env(DEFAULT_SEED),
            max_shrink_steps: 4096,
            regressions: None,
        }
    }

    /// Overrides the case count, whatever `SHARC_TEST_CASES` says.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// A property's floor of `n` cases: `SHARC_TEST_CASES` can raise
    /// the count above `n`, never lower it.
    pub fn at_least(mut self, n: u32) -> Self {
        self.cases = env_cases().map_or(n, |c| c.max(n));
        self
    }

    /// Enables failing-seed persistence to `path`.
    pub fn persist_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::from_env()
    }
}

fn env_cases() -> Option<u32> {
    std::env::var("SHARC_TEST_CASES").ok()?.parse().ok()
}

/// The per-case seed: mixes the case index into the base seed so
/// each case has an independent, individually-replayable stream.
pub fn derive_case_seed(base: u64, case: u32) -> u64 {
    let mut s = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

fn eval<T, F>(prop: &F, value: &T) -> Option<String>
where
    F: Fn(&T) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(panic_message(&payload)),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Greedily shrinks a failing tree: repeatedly descend into the
/// first failing child until no child fails or the step budget is
/// exhausted. Returns the local minimum, its failure message, and
/// the evaluations spent.
fn shrink<T, F>(root: Tree<T>, first_msg: String, prop: &F, max_steps: u32) -> (T, String, u32)
where
    T: Clone + 'static,
    F: Fn(&T) -> Result<(), String>,
{
    let mut cur = root;
    let mut msg = first_msg;
    let mut steps = 0u32;
    'descend: loop {
        for child in cur.children() {
            if steps >= max_steps {
                break 'descend;
            }
            steps += 1;
            if let Some(m) = eval(prop, &child.value) {
                cur = child;
                msg = m;
                continue 'descend;
            }
        }
        break;
    }
    (cur.value, msg, steps)
}

fn load_regression_seeds(path: &PathBuf) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                return None;
            }
            crate::rng::parse_seed(l.split_whitespace().next()?)
        })
        .collect()
}

fn persist_seed(path: &PathBuf, name: &str, case_seed: u64, minimal: &str) {
    let existing = load_regression_seeds(path);
    if existing.contains(&case_seed) {
        return;
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let header = if existing.is_empty() && !path.exists() {
        "# sharc-testkit regression seeds: one case seed per line,\n\
         # replayed before random cases. Keep under version control.\n"
    } else {
        ""
    };
    let mut short = minimal.replace('\n', " ");
    short.truncate(160);
    let line = format!("{header}0x{case_seed:016x} # {name}: shrinks to {short}\n");
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Runs `prop` against values from `gen` under `cfg`.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) on the first failing
/// case, after shrinking it to a local minimum. The message includes
/// the case seed needed to replay the failure.
pub fn check_with<T, F>(cfg: &Config, name: &str, gen: &Gen<T>, prop: F)
where
    T: Clone + Debug + 'static,
    F: Fn(&T) -> Result<(), String>,
{
    let run_case = |case_seed: u64, label: &str| {
        let mut rng = Xoshiro256pp::seed_from_u64(case_seed);
        let tree = gen.generate(&mut rng);
        if let Some(msg) = eval(&prop, &tree.value) {
            let original = format!("{:?}", tree.value);
            let (min, min_msg, steps) = shrink(tree, msg, &prop, cfg.max_shrink_steps);
            if let Some(path) = &cfg.regressions {
                persist_seed(path, name, case_seed, &format!("{min:?}"));
            }
            panic!(
                "property '{name}' failed ({label}, case seed 0x{case_seed:016x}, \
                 base seed 0x{:x}; replay with SHARC_TEST_SEED)\n\
                 minimal failing input after {steps} shrink evals:\n  {min:#?}\n\
                 failure: {min_msg}\noriginal input: {original}",
                cfg.seed
            );
        }
    };

    if let Some(path) = &cfg.regressions {
        for seed in load_regression_seeds(path) {
            run_case(seed, "persisted regression");
        }
    }
    for case in 0..cfg.cases {
        run_case(derive_case_seed(cfg.seed, case), &format!("case {case}"));
    }
}

/// [`check_with`] under [`Config::from_env`].
pub fn check<T, F>(name: &str, gen: &Gen<T>, prop: F)
where
    T: Clone + Debug + 'static,
    F: Fn(&T) -> Result<(), String>,
{
    check_with(&Config::from_env(), name, gen, prop);
}

/// Runs a property over generated inputs; the body uses
/// [`prop_assert!`]/[`prop_assert_eq!`] (or plain `assert!`, caught
/// via unwind) to signal failure.
#[macro_export]
macro_rules! forall {
    ($name:expr, $cfg:expr, $gen:expr, |$x:pat_param| $body:block) => {
        $crate::prop::check_with(&$cfg, $name, &$gen, |$x| {
            $body;
            ::std::result::Result::Ok(())
        })
    };
    ($name:expr, $gen:expr, |$x:pat_param| $body:block) => {
        $crate::forall!($name, $crate::prop::Config::from_env(), $gen, |$x| $body)
    };
}

/// Property-scoped assertion: returns an `Err` (shrinkable failure)
/// instead of unwinding.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond), format!($($fmt)+), file!(), line!()
            ));
        }
    };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($a),
                stringify!($b),
                left,
                right,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config {
            cases: 32,
            seed: 1,
            max_shrink_steps: 100,
            regressions: None,
        };
        check_with(&cfg, "tautology", &gen::u64_range(0..100), |_| Ok(()));
    }

    #[test]
    fn same_seed_same_case_sequence() {
        let collect = |seed: u64| {
            let mut seen = Vec::new();
            let cfg = Config {
                cases: 20,
                seed,
                max_shrink_steps: 0,
                regressions: None,
            };
            // Record via interior mutability inside the property.
            let seen_cell = std::cell::RefCell::new(&mut seen);
            check_with(&cfg, "record", &gen::u64_range(0..1_000_000), |&v| {
                seen_cell.borrow_mut().push(v);
                Ok(())
            });
            seen
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn shrinking_reaches_local_minimum() {
        // Fails for v >= 17: greedy shrink must land exactly on 17.
        let prop = |v: &u64| -> Result<(), String> {
            if *v >= 17 {
                Err("too big".into())
            } else {
                Ok(())
            }
        };
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let g = gen::u64_range(0..100_000);
        // Find a failing tree, then shrink it.
        loop {
            let t = g.generate(&mut rng);
            if t.value >= 17 {
                let (min, _, steps) = shrink(t, "seed".into(), &prop, 10_000);
                assert_eq!(min, 17, "greedy integer shrink finds the boundary");
                assert!(steps > 0);
                break;
            }
        }
    }

    #[test]
    fn shrinking_terminates_within_budget() {
        let prop = |_: &Vec<u8>| -> Result<(), String> { Err("always fails".into()) };
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let t = gen::byte_vec(0..64).generate(&mut rng);
        let (min, _, steps) = shrink(t, "x".into(), &prop, 500);
        assert!(steps <= 500);
        assert!(min.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "minimal failing input")]
    fn failing_property_panics_with_shrunk_input() {
        let cfg = Config {
            cases: 64,
            seed: 7,
            max_shrink_steps: 4096,
            regressions: None,
        };
        check_with(&cfg, "fails_high", &gen::u64_range(0..10_000), |&v| {
            if v > 100 {
                Err(format!("{v} > 100"))
            } else {
                Ok(())
            }
        });
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let cfg = Config {
            cases: 64,
            seed: 11,
            max_shrink_steps: 4096,
            regressions: None,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_with(&cfg, "unwinds", &gen::u64_range(0..10_000), |&v| {
                assert!(v <= 100, "{v} too big");
                Ok(())
            });
        }));
        let msg = panic_message(&result.unwrap_err());
        assert!(msg.contains("101"), "shrinks to the boundary: {msg}");
    }

    #[test]
    fn regression_seeds_round_trip() {
        let dir = std::env::temp_dir().join("sharc-testkit-prop-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("seeds.txt");
        persist_seed(&path, "p", 0xABCD, "Minimal { v: 3 }");
        persist_seed(&path, "p", 0x1234, "Minimal { v: 4 }");
        persist_seed(&path, "p", 0xABCD, "duplicate ignored");
        assert_eq!(load_regression_seeds(&path), vec![0xABCD, 0x1234]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
