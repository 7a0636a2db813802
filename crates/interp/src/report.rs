//! Runtime conflict reports, formatted the way the paper's tool
//! prints them:
//!
//! ```text
//! read conflict(0x75324464):
//!   who(2) S->sdata @ pipeline_test.c: 15
//!   last(1) nextS->sdata @ pipeline_test.c: 27
//! ```

use crate::bytecode::{Addr, CheckSite};
use minic::span::SourceMap;
use sharc_checker::CheckKind;
use std::collections::HashSet;
use std::fmt;

/// One access in a report: thread, l-value text, `file: line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessInfo {
    pub tid: u32,
    pub lvalue: String,
    pub location: String,
}

/// A rendered conflict report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    pub kind: CheckKind,
    pub addr: Addr,
    pub who: AccessInfo,
    /// The previous recorded access (dynamic-mode accesses only).
    pub last: Option<AccessInfo>,
    /// Extra detail for lock/oneref reports.
    pub detail: Option<String>,
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}({}):", self.kind, self.addr)?;
        write!(
            f,
            "  who({}) {} @ {}",
            self.who.tid, self.who.lvalue, self.who.location
        )?;
        if let Some(last) = &self.last {
            write!(
                f,
                "\n  last({}) {} @ {}",
                last.tid, last.lvalue, last.location
            )?;
        }
        if let Some(d) = &self.detail {
            write!(f, "\n  note: {d}")?;
        }
        Ok(())
    }
}

/// Collects deduplicated conflict reports during a run.
#[derive(Debug)]
pub struct Reporter<'m> {
    sm: &'m SourceMap,
    sites: &'m [CheckSite],
    reports: Vec<ConflictReport>,
    seen: HashSet<(CheckKind, u32, Option<u32>)>,
    max: usize,
}

impl<'m> Reporter<'m> {
    /// Creates a reporter resolving site info against `sm`.
    pub fn new(sm: &'m SourceMap, sites: &'m [CheckSite], max: usize) -> Self {
        Reporter {
            sm,
            sites,
            reports: Vec::new(),
            seen: HashSet::new(),
            max,
        }
    }

    fn access(&self, tid: u32, site: u32) -> AccessInfo {
        let s = &self.sites[site as usize];
        AccessInfo {
            tid,
            lvalue: s.lvalue.clone(),
            location: self.sm.location(s.span),
        }
    }

    /// Records a read/write conflict (deduplicated per site pair).
    pub fn conflict(
        &mut self,
        kind: CheckKind,
        addr: Addr,
        tid: u32,
        site: u32,
        last: Option<(u32, u32)>,
    ) {
        if self.reports.len() >= self.max {
            return;
        }
        let key = (kind, site, last.map(|(_, s)| s));
        if !self.seen.insert(key) {
            return;
        }
        self.reports.push(ConflictReport {
            kind,
            addr,
            who: self.access(tid, site),
            last: last.map(|(t, s)| self.access(t, s)),
            detail: None,
        });
    }

    /// Records a `locked(l)` access without the lock held.
    pub fn lock_violation(&mut self, addr: Addr, tid: u32, site: u32) {
        if self.reports.len() >= self.max {
            return;
        }
        let key = (CheckKind::Lock, site, None);
        if !self.seen.insert(key) {
            return;
        }
        self.reports.push(ConflictReport {
            kind: CheckKind::Lock,
            addr,
            who: self.access(tid, site),
            last: None,
            detail: Some("the required lock is not held at this access".into()),
        });
    }

    /// Records a failed `oneref` check at a sharing cast.
    pub fn oneref_violation(&mut self, addr: Addr, tid: u32, site: u32, count: i64) {
        if self.reports.len() >= self.max {
            return;
        }
        let key = (CheckKind::OneRef, site, None);
        if !self.seen.insert(key) {
            return;
        }
        self.reports.push(ConflictReport {
            kind: CheckKind::OneRef,
            addr,
            who: self.access(tid, site),
            last: None,
            detail: Some(format!(
                "object has {count} references; a sharing cast requires exactly one"
            )),
        });
    }

    /// Number of reports collected so far.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True if no reports were collected.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Consumes the reporter, yielding the reports.
    pub fn into_reports(self) -> Vec<ConflictReport> {
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::span::Span;

    fn setup() -> (SourceMap, Vec<CheckSite>) {
        let sm = SourceMap::new("pipeline_test.c", "line one\nS->sdata\nnextS->sdata\n");
        let sites = vec![
            CheckSite {
                lvalue: "S->sdata".into(),
                span: Span::new(9, 17),
            },
            CheckSite {
                lvalue: "nextS->sdata".into(),
                span: Span::new(18, 30),
            },
        ];
        (sm, sites)
    }

    #[test]
    fn report_format_matches_paper() {
        let (sm, sites) = setup();
        let mut r = Reporter::new(&sm, &sites, 10);
        r.conflict(CheckKind::Read, Addr(100), 2, 0, Some((1, 1)));
        let reports = r.into_reports();
        assert_eq!(reports.len(), 1);
        let text = reports[0].to_string();
        assert!(text.starts_with("read conflict(0x"), "{text}");
        assert!(
            text.contains("who(2) S->sdata @ pipeline_test.c: 2"),
            "{text}"
        );
        assert!(
            text.contains("last(1) nextS->sdata @ pipeline_test.c: 3"),
            "{text}"
        );
    }

    #[test]
    fn deduplication() {
        let (sm, sites) = setup();
        let mut r = Reporter::new(&sm, &sites, 10);
        for _ in 0..5 {
            r.conflict(CheckKind::Write, Addr(100), 2, 0, Some((1, 1)));
        }
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn max_reports_cap() {
        let (sm, sites) = setup();
        let mut r = Reporter::new(&sm, &sites, 1);
        r.conflict(CheckKind::Read, Addr(100), 2, 0, None);
        r.conflict(CheckKind::Write, Addr(101), 3, 1, None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn lock_and_oneref_reports() {
        let (sm, sites) = setup();
        let mut r = Reporter::new(&sm, &sites, 10);
        r.lock_violation(Addr(4), 1, 0);
        r.oneref_violation(Addr(5), 2, 1, 3);
        let reports = r.into_reports();
        assert!(reports[0].to_string().contains("lock not held"));
        assert!(reports[1].to_string().contains("3 references"));
    }
}
