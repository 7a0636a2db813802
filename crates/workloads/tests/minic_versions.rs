//! Runs every Table 1 benchmark's MiniC port through the full SharC
//! pipeline *and the VM*: the declared sharing strategies must hold
//! at runtime (no conflict reports) across schedules, and the
//! programs must terminate.

use sharc_interp::{compile_and_run, ExitStatus, VmConfig};
use sharc_workloads::benchmarks::{aget, dillo, fftw, pbzip2, pfscan, stunnel};

fn run_clean(name: &str, src: &str) {
    for seed in [0u64, 1, 7, 42] {
        let out = compile_and_run(
            name,
            src,
            VmConfig {
                seed,
                ..VmConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            out.status,
            ExitStatus::Completed,
            "{name} seed {seed}: {:?}",
            out.status
        );
        assert!(
            out.reports.is_empty(),
            "{name} seed {seed} reported:\n{}",
            out.reports[0]
        );
    }
}

#[test]
fn pfscan_minic_runs_clean() {
    run_clean("pfscan.c", pfscan::minic_source());
}

#[test]
fn aget_minic_runs_clean() {
    run_clean("aget.c", aget::minic_source());
}

#[test]
fn pbzip2_minic_runs_clean() {
    run_clean("pbzip2.c", pbzip2::minic_source());
}

#[test]
fn dillo_minic_runs_clean() {
    run_clean("dillo.c", dillo::minic_source());
}

#[test]
fn fftw_minic_runs_clean() {
    run_clean("fftw.c", fftw::minic_source());
}

#[test]
fn stunnel_minic_runs_clean() {
    run_clean("stunnel.c", stunnel::minic_source());
}

#[test]
fn minic_ports_produce_output() {
    // Each port prints its summary statistic; sanity-check values.
    let out = compile_and_run("aget.c", aget::minic_source(), VmConfig::default()).unwrap();
    assert_eq!(out.output, vec!["4096"], "two 2048-byte segments");

    let out = compile_and_run("dillo.c", dillo::minic_source(), VmConfig::default()).unwrap();
    assert_eq!(out.output, vec!["96"], "96 requests resolved");

    let out = compile_and_run("stunnel.c", stunnel::minic_source(), VmConfig::default()).unwrap();
    assert_eq!(
        out.output,
        vec!["60", "3840"],
        "3 clients x 20 msgs x 64 bytes"
    );
}

#[test]
fn static_elision_is_pinned_per_port() {
    // `(checked_slots, elided_slots, collapsed_reads)` of each port's
    // elision summary: every slot stays, since no rule deletes one and
    // no port has a compound assignment to a dynamic l-value.
    let ports: [(&str, &str, (usize, usize, usize)); 6] = [
        ("pfscan.c", pfscan::minic_source(), (16, 0, 0)),
        ("aget.c", aget::minic_source(), (4, 0, 0)),
        ("pbzip2.c", pbzip2::minic_source(), (14, 0, 0)),
        ("dillo.c", dillo::minic_source(), (14, 0, 0)),
        ("fftw.c", fftw::minic_source(), (8, 0, 0)),
        ("stunnel.c", stunnel::minic_source(), (7, 0, 0)),
    ];
    for (name, src, want) in ports {
        let checked = sharc_core::compile(name, src).expect("port parses");
        assert!(!checked.diags.has_errors(), "{name} must check cleanly");
        let s = &checked.elision.summary;
        assert_eq!(
            (s.checked_slots, s.elided_slots, s.collapsed_reads),
            want,
            "{name}: (checked, elided, collapsed)"
        );
    }
}

#[test]
fn dynamic_fraction_ranks_like_the_paper() {
    // The VM's own %dynamic measurement must rank the MiniC ports the
    // way Table 1 ranks the C programs: pfscan high, pbzip2/fftw low.
    let frac = |name: &str, src: &str| {
        let out = compile_and_run(name, src, VmConfig::default()).unwrap();
        out.stats.dynamic_fraction()
    };
    let pfscan = frac("pfscan.c", pfscan::minic_source());
    let pbzip2 = frac("pbzip2.c", pbzip2::minic_source());
    let fftw = frac("fftw.c", fftw::minic_source());
    assert!(
        pfscan > pbzip2 && pfscan > fftw,
        "pfscan {pfscan:.2} should dominate pbzip2 {pbzip2:.2} and fftw {fftw:.2}"
    );
}
