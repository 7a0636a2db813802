//! # sharc-detectors
//!
//! Baseline dynamic race detectors the SharC paper compares against
//! (§6): the Eraser lockset algorithm and a vector-clock
//! happens-before detector. Both are [`sharc_checker::CheckBackend`]s
//! — they read the same [`sharc_checker::CheckEvent`] traces SharC's
//! own engine does, through the same [`sharc_checker::replay`] — plus
//! a thread-safe sharded front-end for overhead measurement.
//!
//! The key qualitative reproduction: both baselines report *false
//! positives* on ownership-transfer idioms (see the test fixtures),
//! which SharC accepts by modelling the transfer directly with a
//! checked sharing cast. That blindness is a property of the
//! detectors themselves: neither overrides `on_cast_clear`.
//!
//! ## Example
//!
//! ```
//! use sharc_checker::{replay, CheckEvent};
//! use sharc_detectors::{Eraser, VcDetector};
//!
//! let trace = vec![
//!     CheckEvent::Fork { parent: 1, child: 2 },
//!     CheckEvent::Write { tid: 1, granule: 0 },
//!     CheckEvent::Write { tid: 2, granule: 0 },
//! ];
//! assert_eq!(replay(&trace, &mut Eraser::new()).len(), 1);
//! assert_eq!(replay(&trace, &mut VcDetector::new()).len(), 1);
//! ```

pub mod eraser;
#[cfg(test)]
mod fixtures;
pub mod online;
pub mod vectorclock;

pub use eraser::Eraser;
pub use online::Online;
pub use vectorclock::{VcDetector, VectorClock};

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_checker::{replay, BitmapBackend, CheckEvent};

    /// The ownership-transfer idiom: thread 1 initializes a buffer,
    /// transfers it with a sharing cast, thread 2 uses it.
    #[test]
    fn sharc_accepts_handoff_baselines_flag_it() {
        let trace = [
            CheckEvent::Fork {
                parent: 1,
                child: 2,
            },
            CheckEvent::Write { tid: 1, granule: 0 },
            CheckEvent::SharingCast {
                tid: 1,
                granule: 0,
                refs: 1,
            },
            CheckEvent::Write { tid: 2, granule: 0 },
        ];
        let sharc = replay(&trace, &mut BitmapBackend::new());
        assert!(sharc.is_empty(), "SharC models the transfer: {sharc:?}");
        let eraser = replay(&trace, &mut Eraser::new());
        let vc = replay(&trace, &mut VcDetector::new());
        assert!(!eraser.is_empty(), "Eraser misses the cast");
        assert!(!vc.is_empty(), "vector clocks miss the cast");
    }

    #[test]
    fn honest_race_everyone_agrees() {
        let trace = fixtures::unsynchronized_write_race();
        for conflicts in [
            replay(&trace, &mut BitmapBackend::new()),
            replay(&trace, &mut Eraser::new()),
            replay(&trace, &mut VcDetector::new()),
        ] {
            assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        }
    }
}
