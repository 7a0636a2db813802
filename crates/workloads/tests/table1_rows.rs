//! Table 1 at quick scale, as `table1 --quick` computes and prints it:
//! every MiniC port checks and fills its source columns, both builds
//! of every native workload run and agree on the checksum, no checked
//! run reports a conflict, and the rendered table has one row per
//! benchmark. Timings are not asserted.

use sharc_workloads::table::{render_table, run_all, Scale};

#[test]
fn every_table1_row_is_filled_at_quick_scale() {
    let rows = run_all(Scale::quick());
    let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        ["pfscan", "aget", "pbzip2", "dillo", "fftw", "stunnel"]
    );
    for r in &rows {
        assert!(r.checksum_match, "{}: the two builds disagree", r.name);
        assert_eq!(r.conflicts, 0, "{}: the checked build reported", r.name);
        assert!(r.threads >= 2, "{}: {} threads", r.name, r.threads);
        assert!(r.lines > 0 && r.annotations > 0, "{}: empty port", r.name);
    }
    let table = render_table(&rows);
    for name in names {
        let row = table.lines().find(|l| l.starts_with(name));
        let row = row.unwrap_or_else(|| panic!("no {name} row in:\n{table}"));
        assert!(row.contains("yes"), "{name}: checksum column: {row}");
    }
}
