//! The benchmark's own in-memory span recorder: one span per call
//! into a layer (name, start, end, parent, lap), kept in memory and
//! written to `out/spans-<workload>.json` when the run ends. No span
//! lives inside any crate under test; the recorder only wraps calls
//! to their public functions.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    /// The measured round this span belongs to.
    pub lap: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Spans::enter`]; `None` while not recording.
#[derive(Debug)]
#[must_use = "pass it to Spans::exit"]
pub struct SpanId(Option<u32>);

/// The recorder. Off by default; the harness switches it on for the
/// traced rounds of a `--trace 1` run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    lap: u32,
    open: Vec<u32>,
    all: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            on: false,
            lap: 0,
            open: Vec::new(),
            all: Vec::new(),
        }
    }
}

impl Spans {
    /// Starts or stops recording; spans entered from now on carry
    /// `lap`.
    pub fn set_recording(&mut self, on: bool, lap: u32) {
        self.on = on;
        self.lap = lap;
    }

    /// True while spans are being recorded.
    pub fn recording(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.all.len() as u32;
        let start_ns = self.now_ns();
        self.all.push(Span {
            name,
            parent: self.open.last().copied(),
            lap: self.lap,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and, after a panic unwound past them, any span
    /// still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.all[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Seconds spent in spans named `name`, summed per lap, one entry
    /// per lap in which the span occurs.
    pub fn per_lap(&self, name: &str) -> Vec<f64> {
        let mut laps: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.all.iter().filter(|s| s.name == name) {
            *laps.entry(s.lap).or_default() += s.secs();
        }
        laps.into_values().collect()
    }

    /// For every span named `root`: the share of its duration its
    /// direct children cover (1 − self time ÷ duration).
    pub fn child_share(&self, root: &str) -> Vec<f64> {
        let mut covered: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.all {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.secs();
            }
        }
        self.all
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.end_ns > s.start_ns)
            .map(|(i, s)| covered.get(&(i as u32)).copied().unwrap_or(0.0) / s.secs())
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Writes every span, with its self time (duration minus the part
    /// its children cover), as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut children_ns = vec![0u64; self.all.len()];
        for s in &self.all {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.all.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"lap\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.name,
                s.lap,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(children_ns[i]),
                if i + 1 == self.all.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_laps_and_shares() {
        let mut s = Spans::default();
        let ignored = s.enter("off");
        s.exit(ignored);
        assert!(s.is_empty(), "nothing recorded while off");

        s.set_recording(true, 7);
        let lap = s.enter("lap");
        let a = s.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(a);
        let b = s.enter("a");
        s.exit(b);
        s.exit(lap);
        assert_eq!(s.len(), 3);
        assert_eq!(s.all[1].parent, Some(0));
        assert_eq!(s.all[2].lap, 7);
        assert_eq!(s.per_lap("a").len(), 1, "two spans, one lap");
        let share = s.child_share("lap");
        assert_eq!(share.len(), 1);
        assert!(share[0] > 0.5 && share[0] <= 1.0, "{share:?}");
    }

    #[test]
    fn exit_closes_spans_a_panic_left_open() {
        let mut s = Spans::default();
        s.set_recording(true, 0);
        let outer = s.enter("outer");
        let _leaked = s.enter("inner");
        s.exit(outer);
        assert!(s.open.is_empty());
        assert!(s.all[1].end_ns >= s.all[1].start_ns);
    }
}
