//! Front-end goldens: one deterministic fingerprint per program of
//! everything `sharc check` computes — the solved program, the
//! instrumentation table, the elision verdicts, the sharing-analysis
//! results and the diagnostics — pinned under
//! `tests/fixtures/frontend/*.golden`.
//!
//! Every map is printed sorted, so a golden changes only when the
//! front end's answer does. On drift the test writes what it computed
//! to `<target>/tmp/frontend/<name>.golden` and names the files, so
//! `diff` shows the change; copy a file over its golden only for an
//! intended change.
//!
//! One more program is pinned the same way but is not in the corpus
//! (`schedule_golden.rs` runs the corpus): [`generated_program`] at
//! [`GENERATED_UNITS`] units, about 60 functions whose calls and
//! spawns go by name and through function-pointer locals, formals,
//! struct fields and a global, in `tests/fixtures/generated.golden`.

mod corpus;

use corpus::corpus;
use sharc::core::check::CheckKind;
use sharc::minic::pretty;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn kind(k: &Option<CheckKind>) -> String {
    match k {
        None => "-".into(),
        Some(CheckKind::Dynamic) => "dynamic".into(),
        Some(CheckKind::Locked(i)) => format!("locked#{i}"),
    }
}

/// Everything the front end computes for `src`, as sorted text.
fn fingerprint(name: &str, src: &str) -> String {
    let c = match sharc::check(&format!("{name}.c"), src) {
        Ok(c) => c,
        Err(d) => return format!("# syntax error\n{}\n", d.message),
    };
    let sm = &c.source_map;
    let mut out = String::new();

    out.push_str("# program\n");
    out.push_str(&pretty::program(&c.program));

    out.push_str("\n# checks\n");
    let checks: BTreeMap<_, _> = c.instr.checks.iter().collect();
    for (id, ac) in checks {
        let at = sm.lookup(ac.span);
        let _ = writeln!(
            out,
            "{id} read={} write={} `{}` {at}",
            kind(&ac.read),
            kind(&ac.write),
            ac.lvalue
        );
    }
    let _ = writeln!(
        out,
        "sites: dynamic {} locked {}",
        c.instr.n_dynamic_sites, c.instr.n_locked_sites
    );

    out.push_str("# lock_exprs\n");
    for (i, e) in c.instr.lock_exprs.iter().enumerate() {
        let _ = writeln!(out, "{i} {} {}", e.id, pretty::expr(e));
    }
    out.push_str("# lib_read_summaries\n");
    let mut summaries: Vec<_> = c.instr.lib_read_summaries.iter().collect();
    summaries.sort();
    for id in summaries {
        let _ = writeln!(out, "{id}");
    }

    out.push_str("# elision\n");
    let _ = writeln!(out, "{:?}", c.elision.summary);
    for line in sharc::explain_elision(&c) {
        let _ = writeln!(out, "{line}");
    }

    out.push_str("# sharing\n");
    let _ = writeln!(out, "{:?}", c.sharing.stats);
    let escapes: BTreeMap<_, _> = c.sharing.param_escapes.iter().collect();
    for ((f, i), escapes) in escapes {
        let _ = writeln!(out, "{f}#{i} escapes={escapes}");
    }

    out.push_str("# diagnostics\n");
    out.push_str(&c.render_diags());
    let _ = writeln!(out, "\n# annotation_count {}", c.annotation_count);
    out
}

#[test]
fn front_end_output_is_pinned_on_every_corpus_program() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/frontend");
    let actual_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend");
    let mut drifted = Vec::new();
    for (name, src) in corpus() {
        let got = fingerprint(name, src);
        let golden =
            std::fs::read_to_string(format!("{fixtures}/{name}.golden")).unwrap_or_default();
        if got != golden {
            std::fs::create_dir_all(&actual_dir).expect("target tmp dir");
            let actual = actual_dir.join(format!("{name}.golden"));
            std::fs::write(&actual, &got).expect("write actual fingerprint");
            drifted.push(format!("{fixtures}/{name}.golden vs {}", actual.display()));
        }
    }
    assert!(
        drifted.is_empty(),
        "front-end output drifted:\n{}",
        drifted.join("\n")
    );
}

/// Units of [`generated_program`] in the pinned fixture: 58 functions.
const GENERATED_UNITS: usize = 8;

/// A program of `units` units of seven functions each, plus `tick`
/// and `main`. Unit `k` mixes signature shapes (`int(int, char *)`,
/// `void(int *)`, `void(void (*)(int *), int *)`, `int(int *, int)`,
/// `void(struct cell<k> *)`) and binds calls every way the sharing
/// analysis distinguishes: direct, through a local, a formal, a struct
/// field and the global `hook`. `main` spawns `worker<k>` by name and
/// `runner<k>` through a pointer; `g<k>` and `hook` are touched by
/// threads; `sum<k>` is called from `main` only. No local or formal
/// shares a name with a function.
fn generated_program(units: usize) -> String {
    let mut src =
        String::from("void (* hook)(int * p);\n\nvoid tick(int * p) {\n    *p = *p + 1;\n}\n\n");
    for k in 0..units {
        let _ = write!(
            src,
            "int g{k};\n\
             struct ops{k} {{\n    void (* step)(int * p);\n    int (* mix)(int a, char * s);\n}};\n\
             struct cell{k} {{\n    int v;\n}};\n\n\
             int mix{k}(int a, char * s) {{\n    return a + {k};\n}}\n\n\
             void bump{k}(int * p) {{\n    *p = *p + {k};\n}}\n\n\
             void store{k}(int * p) {{\n    g{k} = *p;\n}}\n\n\
             void apply{k}(void (* f)(int * p), int * x) {{\n    f(x);\n}}\n\n\
             int sum{k}(int * a, int n) {{\n    int i;\n    int s;\n    s = 0;\n    \
             for (i = 0; i < n; i++) {{\n        s = s + *a + i;\n    }}\n    return s;\n}}\n\n\
             void worker{k}(int * d) {{\n    struct ops{k} * o;\n    int (* m)(int a, char * s);\n    \
             o = new(struct ops{k});\n    o->step = bump{k};\n    o->mix = mix{k};\n    \
             o->step(d);\n    m = o->mix;\n    g{k} = m(*d, NULL);\n    \
             apply{k}(store{k}, d);\n    hook(d);\n}}\n\n\
             void runner{k}(struct cell{k} * c) {{\n    c->v = c->v + g{k};\n}}\n\n"
        );
    }
    src.push_str("void main() {\n    hook = tick;\n");
    for k in 0..units {
        let _ = write!(
            src,
            "    int * p{k} = new(int);\n    int * q{k} = new(int);\n    \
             struct cell{k} * c{k} = new(struct cell{k});\n    \
             void (* sp{k})(struct cell{k} * c);\n    \
             *q{k} = sum{k}(q{k}, {n});\n    spawn(worker{k}, p{k});\n    \
             sp{k} = runner{k};\n    spawn(sp{k}, c{k});\n",
            n = k + 2
        );
    }
    src.push_str("    join_all();\n}\n");
    src
}

#[test]
fn front_end_output_is_pinned_on_the_generated_program() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/generated.golden"
    );
    let got = fingerprint("generated", &generated_program(GENERATED_UNITS));
    let golden = std::fs::read_to_string(fixture).unwrap_or_default();
    if got != golden {
        let actual_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend");
        std::fs::create_dir_all(&actual_dir).expect("target tmp dir");
        let actual = actual_dir.join("generated.golden");
        std::fs::write(&actual, &got).expect("write actual fingerprint");
        panic!(
            "front-end output drifted: {fixture} vs {}",
            actual.display()
        );
    }
}

#[test]
fn every_golden_belongs_to_a_corpus_program() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/frontend");
    let names: Vec<&str> = corpus().iter().map(|(n, _)| *n).collect();
    for entry in std::fs::read_dir(fixtures).expect("fixtures/frontend exists") {
        let path = entry.expect("dir entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert!(
            names.contains(&stem),
            "{} has no program in the corpus",
            path.display()
        );
    }
}
