//! One name-resolution rule for the whole front end: an identifier is
//! the innermost local or formal, then a global, then a function —
//! what the VM calls. The typer records the answer and the sharing
//! analysis, the call graph and the checker read it.
//!
//! Each program below has a function pointer, a local or a formal,
//! that shares a function's name; its twin is the same program with
//! that variable renamed. Both must infer the same sharing modes and
//! give the same `sharc::run` reports on every seed, and the twin must
//! report the race the program is built around.

use sharc::minic::pretty;
use sharc::prelude::*;

/// The twin's name for the shadowing variable; it occurs nowhere else.
const TWIN: &str = "via";

/// The program with `{fp}` spelled `noop` (shadowing the function
/// `noop`) and its twin with `{fp}` spelled [`TWIN`].
fn both(template: &str) -> [String; 2] {
    [
        template.replace("{fp}", "noop"),
        template.replace("{fp}", TWIN),
    ]
}

fn reports(checked: &CheckedProgram, seed: u64) -> Vec<String> {
    let config = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let out = sharc::run(checked, config).expect("the program runs");
    out.reports.iter().map(ToString::to_string).collect()
}

/// Checks the program and its twin: equal solved programs once the
/// twin's variable is named back, and equal reports on seeds 0–3, with
/// at least one report naming `race`.
#[track_caller]
fn assert_resolves_like_its_twin(template: &str, race: &str) {
    let [shadowing, twin] = both(template);
    let shadowing = sharc::check("shadow.c", &shadowing).expect("parses");
    let twin = sharc::check("shadow.c", &twin).expect("parses");
    assert!(!twin.diags.has_errors(), "{}", twin.render_diags());
    assert!(
        !shadowing.diags.has_errors(),
        "{}",
        shadowing.render_diags()
    );
    assert_eq!(
        pretty::program(&shadowing.program),
        pretty::program(&twin.program).replace(TWIN, "noop"),
        "inferred modes differ from the renamed twin's"
    );
    for seed in 0..4 {
        let expected = reports(&twin, seed);
        assert!(
            expected.iter().any(|r| r.contains(race)),
            "seed {seed}: the twin should report `{race}`: {expected:?}"
        );
        assert_eq!(reports(&shadowing, seed), expected, "seed {seed}");
    }
}

/// `noop(x)` calls the local, which holds `stash`: `x` escapes into
/// `keep`, which the reader dereferences.
#[test]
fn a_local_that_shadows_a_function_is_the_callee() {
    assert_resolves_like_its_twin(
        "int * keep;
         void noop(int * p) { }
         void stash(int * p) { keep = p; }
         void reader(int * unused) { int v; v = *keep; }
         void main() {
             int * x;
             void (* {fp})(int * p);
             x = new(int);
             {fp} = stash;
             {fp}(x);
             *x = 1;
             spawn(reader, NULL);
             join_all();
         }",
        "*x",
    );
}

/// The same escape through a formal named like the function.
#[test]
fn a_formal_that_shadows_a_function_is_the_callee() {
    assert_resolves_like_its_twin(
        "int * keep;
         void noop(int * p) { }
         void stash(int * p) { keep = p; }
         void reader(int * unused) { int v; v = *keep; }
         void apply(void (* {fp})(int * p), int * x) { {fp}(x); }
         void main() {
             int * x;
             x = new(int);
             apply(stash, x);
             *x = 1;
             spawn(reader, NULL);
             join_all();
         }",
        "*x",
    );
}

/// `spawn(noop, y)` starts the local's target, `writer`, so `g` is
/// touched by a thread while `main` holds it.
#[test]
fn a_spawned_local_that_shadows_a_function_is_a_pointer_spawn() {
    assert_resolves_like_its_twin(
        "int g;
         void noop(int * p) { }
         void writer(int * p) { g = 1; }
         void main() {
             int * y;
             void (* {fp})(int * p);
             y = new(int);
             {fp} = writer;
             g = 2;
             spawn({fp}, y);
             join_all();
         }",
        "g @",
    );
}
