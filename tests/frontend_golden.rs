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
