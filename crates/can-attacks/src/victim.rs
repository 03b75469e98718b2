//! The victim-armed front end of the four [`FrameWatch`] attackers
//! (stuff-bit overwrite, error flag, truncation, adaptive racing), which
//! differ only in *where* they strike: each keeps only its strike rule and
//! its counters. Each observes a stretch through
//! [`can_core::watch::observe_hunting`] on [`VictimWatch::quiet_hunt`].

use std::fmt;

use can_core::watch::{FrameWatch, Hunt, WatchEvent, WatchTrigger, ID_COMPLETE_CNT};
use can_core::{BitDuration, BitInstant, CanId, Level};
use can_obs::{Journal, JournalKind};

/// A [`FrameWatch`] armed on one victim: a frame is armed once its
/// identifier is complete and the victim's, and disarms when the next
/// frame opens, when it dies on a stuff violation, when it ends, or when
/// the attacker strikes it.
#[derive(Debug, Clone)]
pub(crate) struct VictimWatch {
    watch: FrameWatch,
    victim: CanId,
    armed: bool,
    /// Causal event journal; disabled (no-op) by default.
    journal: Journal,
    /// Node index stamped on journal events.
    node_label: u32,
}

impl VictimWatch {
    pub(crate) fn new(victim: CanId) -> Self {
        VictimWatch {
            watch: FrameWatch::new(),
            victim,
            armed: false,
            journal: Journal::disabled(),
            node_label: 0,
        }
    }

    pub(crate) fn set_journal(&mut self, journal: Journal, node: u32) {
        self.journal = journal;
        self.node_label = node;
    }

    pub(crate) fn watch(&self) -> &FrameWatch {
        &self.watch
    }

    /// Whether the frame in progress is the victim's and not yet struck.
    pub(crate) fn armed(&self) -> bool {
        self.armed
    }

    /// Feeds one sampled wire bit. Returns what it amounted to and whether
    /// the frame was armed before it, so an attacker can tell how an armed
    /// frame ended.
    pub(crate) fn push(&mut self, level: Level) -> (WatchEvent, bool) {
        let was_armed = self.armed;
        let event = self.watch.push(level);
        if matches!(
            event,
            WatchEvent::Sof | WatchEvent::Violation(_) | WatchEvent::FrameEnd
        ) {
            self.armed = false;
        }
        if !self.armed
            && self.watch.cnt() >= ID_COMPLETE_CNT
            && self.watch.id() == Some(self.victim)
        {
            self.armed = true;
        }
        (event, was_armed)
    }

    /// Gives up the armed frame after a strike destroys it: the watch
    /// hunts again, and the error delimiter plus intermission re-arm the
    /// hunt before the next SOF.
    pub(crate) fn abort(&mut self) {
        self.armed = false;
        self.watch.abort();
    }

    /// The quiet test behind `BitAgent::next_activity`: hunting on an
    /// idle bus while not `driving` only counts recessive bits, which
    /// [`Hunt::hunt_word`] does in closed form.
    pub(crate) fn next_activity(&self, now: BitInstant, driving: bool) -> Option<BitInstant> {
        (driving || !self.watch.is_idle()).then_some(now)
    }

    /// The hunt while its owner is quiet: the watch hunts and the owner
    /// is not `driving`. A hunting bit then only feeds the hunt, since an
    /// idle watch is never armed; a strike still driving (an error flag
    /// into an aborted watch) must see its bits one by one.
    pub(crate) fn quiet_hunt(&mut self, driving: bool) -> Option<&mut Hunt> {
        if driving {
            return None;
        }
        self.watch.hunting()
    }

    /// The least number of further pushes after which `trigger` could
    /// fire in a frame this attacker may strike: the armed frame, or one
    /// whose identifier is not complete yet. Any other frame must end
    /// first ([`FrameWatch::pushes_until`]).
    pub(crate) fn pushes_until(&self, trigger: WatchTrigger) -> u64 {
        let eligible = self.armed || self.watch.cnt() < ID_COMPLETE_CNT;
        self.watch.pushes_until(trigger, eligible)
    }

    /// `BitAgent::drive_horizon` of an attacker that strikes when
    /// `trigger` fires: `now` while `driving`, else
    /// [`VictimWatch::pushes_until`] ahead.
    pub(crate) fn drive_horizon(
        &self,
        now: BitInstant,
        driving: bool,
        trigger: WatchTrigger,
    ) -> Option<BitInstant> {
        if driving {
            return Some(now);
        }
        Some(now + BitDuration::bits(self.pushes_until(trigger)))
    }

    /// Journals a `kind` event at `now`; `detail` is only formatted when
    /// the journal is enabled.
    pub(crate) fn event(&self, now: BitInstant, kind: JournalKind, detail: fmt::Arguments<'_>) {
        if self.journal.is_enabled() {
            self.journal
                .event(now.bits(), self.node_label, kind, &detail.to_string());
        }
    }
}
