//! A simulated ECU: controller + application + optional bit agent.
//!
//! The node mirrors the paper's "CAN node C" (Fig. 1c): an MCU whose
//! integrated CAN controller handles frames for the application, while pin
//! multiplexing optionally grants a software *bit agent* (e.g. MichiCAN)
//! direct access to the `CAN_RX`/`CAN_TX` lines. The node's contribution to
//! the bus is the wired-AND of its controller output and its agent output —
//! exactly what two drivers on the same open-collector pin produce.

use can_core::agent::BitAgent;
use can_core::app::{Application, MAX_ENQUEUE_PER_BIT};
use can_core::{packed, BitInstant, Level};

use crate::controller::{Controller, ControllerConfig, StepOutput, StretchRole};
use crate::fault::TxFault;
use crate::parser::RxParser;
use crate::telemetry::FallbackCause;

/// One node's side of a packed stretch (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodePlan {
    /// How the controller advances over the stretch.
    pub(crate) role: StretchRole,
    /// The dominant mask the node drives (LSB = the upcoming bit): the
    /// controller role's word OR the agent's forced run, or the word of an
    /// active transmitter fault, which overrides both. The packed
    /// wired-AND is the OR of these.
    pub(crate) drive: u64,
    /// The application's polls inside the stretch are re-posts, settled
    /// at commit ([`Application::settle_reposts`]).
    pub(crate) reposts: bool,
}

/// A simulated ECU.
pub struct Node {
    name: String,
    controller: Controller,
    app: Box<dyn Application>,
    agent: Option<Box<dyn BitAgent>>,
    tx_fault: Option<TxFault>,
    /// Level forced by an active TX fault during the current bit, cached
    /// by [`Node::prepare_bit`] so [`Node::tx_level`] stays `&self`.
    forced_tx: Option<Level>,
}

impl Node {
    /// Creates a node with the given application and default controller
    /// configuration.
    pub fn new(name: impl Into<String>, app: Box<dyn Application>) -> Self {
        Node {
            name: name.into(),
            controller: Controller::new(ControllerConfig::default()),
            app,
            agent: None,
            tx_fault: None,
            forced_tx: None,
        }
    }

    /// Creates a node with an explicit controller configuration.
    pub fn with_config(
        name: impl Into<String>,
        app: Box<dyn Application>,
        config: ControllerConfig,
    ) -> Self {
        Node {
            name: name.into(),
            controller: Controller::new(config),
            app,
            agent: None,
            tx_fault: None,
            forced_tx: None,
        }
    }

    /// Attaches a bit agent (pin-multiplexed defense) to this node.
    pub fn with_agent(mut self, agent: Box<dyn BitAgent>) -> Self {
        self.agent = Some(agent);
        self
    }

    /// Attaches a transmitter-side fault (stuck-dominant transceiver,
    /// babbling node, transient crash/restart) to this node.
    pub fn with_tx_fault(mut self, fault: TxFault) -> Self {
        self.tx_fault = Some(fault);
        self
    }

    /// The node's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Immutable access to the controller (for assertions and statistics).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the controller (e.g. to pre-load mailboxes).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// Immutable access to the application.
    pub fn app(&self) -> &dyn Application {
        self.app.as_ref()
    }

    /// Immutable access to the attached agent, if any.
    pub fn agent(&self) -> Option<&dyn BitAgent> {
        self.agent.as_deref()
    }

    /// Advances the node's fault state to bit time `now`: delivers a
    /// pending restart reset and caches the fault's TX override. The
    /// simulator calls this once per bit, before collecting TX levels.
    /// Returns `true` when a restart reset was delivered this bit (the
    /// mailboxes were flushed, so any open causal chain is void).
    pub fn prepare_bit(&mut self, now: BitInstant) -> bool {
        self.forced_tx = None;
        let mut restarted = false;
        if let Some(fault) = &mut self.tx_fault {
            if fault.take_restart(now.bits()) {
                self.controller.reset();
                restarted = true;
            }
            self.forced_tx = fault.tx_override(now.bits());
        }
        restarted
    }

    /// The level this node contributes to the bus during the next bit.
    pub fn tx_level(&self) -> Level {
        if let Some(forced) = self.forced_tx {
            return forced;
        }
        let controller = self.controller.tx_level();
        let agent = self
            .agent
            .as_ref()
            .and_then(|a| a.tx_level())
            .unwrap_or(Level::Recessive);
        controller & agent
    }

    /// Whether the node's MCU is crashed at `now` (a [`TxFault`] crash
    /// window): controller, application and agent are frozen.
    fn is_down(&self, now: BitInstant) -> bool {
        self.tx_fault
            .as_ref()
            .is_some_and(|fault| fault.is_down(now.bits()))
    }

    /// Whether the node is down at `now` with its controller frozen in a
    /// busy state (mid-frame or error signalling). Lockstep bus-load
    /// accounting counts every such bit as busy, so the accelerated
    /// engines must too.
    pub(crate) fn is_frozen_busy(&self, now: BitInstant) -> bool {
        self.controller.is_busy() && self.is_down(now)
    }

    /// The earliest bit time at or after `now` at which this node may
    /// drive the bus, emit an event or otherwise needs per-bit processing,
    /// assuming the bus stays recessive until then. `None` means "never"
    /// under that assumption.
    ///
    /// The horizon is the minimum over the node's four per-bit seams:
    /// transmitter fault, controller, application poll and bit agent. A
    /// crashed MCU is special: its controller, application and agent are
    /// frozen, so only the fault's restart instant matters.
    pub fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        if let Some(fault) = &self.tx_fault {
            if fault.is_down(now.bits()) {
                return fault.next_activity(now.bits()).map(BitInstant::from_bits);
            }
        }
        let mut horizon: Option<BitInstant> = None;
        let mut fold = |h: Option<BitInstant>| {
            horizon = match (horizon, h) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        };
        if let Some(fault) = &self.tx_fault {
            fold(fault.next_activity(now.bits()).map(BitInstant::from_bits));
        }
        fold(self.controller.next_activity(now));
        fold(self.app.next_activity(now));
        if let Some(agent) = &self.agent {
            fold(agent.next_activity(now));
        }
        horizon
    }

    /// Advances the node over `bits` consecutive recessive bus bits
    /// starting at `from`, in closed form — exactly equivalent to `bits`
    /// calls of [`Node::prepare_bit`] + [`Node::sample_into`] with a
    /// recessive bus, given the window lies inside a horizon declared by
    /// [`Node::next_activity`].
    pub fn advance_idle(&mut self, bits: u64, from: BitInstant) {
        if self.is_down(from) {
            // Crashed MCU: everything is frozen until the restart, and the
            // fault itself has no per-bit state while down.
            return;
        }
        // Application polls inside the window return `None` without state
        // change (the quiescence contract), so they are skipped entirely.
        self.controller.advance_idle(bits);
        if let Some(agent) = &mut self.agent {
            agent.skip_idle(bits, from);
        }
    }

    /// The node's side of the packed kernel's stretch negotiation
    /// (DESIGN.md §11): how it participates in a stretch starting at `now`
    /// and what it drives, or `Err(cause)` when the next bit needs
    /// lockstep processing — the cause names the seam that refused, for
    /// the kernel's fallback telemetry.
    ///
    /// Lowers `*cap` to the earliest of the node's per-bit seams: a TX
    /// fault window edge or the end of its known word, the application's
    /// next poll or the end of its re-post run, the agent's drive horizon
    /// or the end of its forced run, and the controller's own bound. Like
    /// the controller plan, this has no side effects.
    pub(crate) fn stretch_plan(
        &self,
        now: BitInstant,
        cap: &mut u64,
    ) -> Result<NodePlan, FallbackCause> {
        let t = now.bits();
        // The word of an active stuck-dominant or babbling window, which
        // overrides the controller and the agent (as in `tx_level`).
        let mut forced = None;
        if let Some(fault) = &self.tx_fault {
            if fault.is_down(t) {
                // Crashed MCU: frozen until the restart instant, which the
                // fault reports as its next activity.
                if let Some(h) = fault.next_activity(t) {
                    if h <= t {
                        return Err(FallbackCause::NodeFault);
                    }
                    *cap = (*cap).min(h - t);
                }
                return Ok(NodePlan {
                    role: StretchRole::Down,
                    drive: 0,
                    reposts: false,
                });
            }
            // The fault windows are evaluated directly rather than through
            // the `forced_tx` cache: `prepare_bit` is not called inside a
            // stretch, so the cache may be stale.
            match fault.next_activity(t) {
                // Active override (known word) or pending restart.
                Some(h) if h <= t => {
                    forced = Some(fault.stretch_word(t, cap).ok_or(FallbackCause::NodeFault)?);
                }
                Some(h) => *cap = (*cap).min(h - t),
                None => {}
            }
        }
        let mut reposts = false;
        match self.app.next_activity(now) {
            // A poll is due now: only a re-post run lets it be skipped.
            Some(h) if h.bits() <= t => {
                let until = self.app.repost_until(now).bits();
                if until <= t {
                    return Err(FallbackCause::AppPoll);
                }
                *cap = (*cap).min(until - t);
                reposts = true;
            }
            Some(h) => *cap = (*cap).min(h.bits() - t),
            None => {}
        }
        let mut agent_word = 0;
        if let (None, Some(agent)) = (forced, &self.agent) {
            match agent.drive_horizon(now) {
                // May drive this bit: only a forced dominant run is known.
                Some(h) if h.bits() <= t => {
                    let until = agent.drive_until(now).bits();
                    if until <= t {
                        return Err(FallbackCause::AgentDrive);
                    }
                    *cap = (*cap).min(until - t);
                    agent_word =
                        packed::low_mask((until - t).min(u64::from(packed::WORD_BITS)) as u32);
                }
                Some(h) => *cap = (*cap).min(h.bits() - t),
                None => {}
            }
        }
        let role = self
            .controller
            .stretch_plan(now, cap)
            .ok_or(FallbackCause::Controller)?;
        Ok(NodePlan {
            role,
            drive: forced.unwrap_or(role.drive_word() | agent_word),
            reposts,
        })
    }

    /// Commits one packed stretch of `n` bits of resolved bus word `bus`
    /// to this node's controller, in its negotiated role.
    ///
    /// `rx_scratch` is the node's dry-run parser from planning;
    /// `install_dry_run` says it covered exactly this stretch, so it is
    /// copied in instead of feeding the bits again. A node whose frame parser
    /// equals another's commits with [`Controller::commit_parser`]
    /// instead. The attached agent observes the stretch separately,
    /// through [`Node::finish_stretch`].
    pub(crate) fn commit_stretch(
        &mut self,
        role: StretchRole,
        bus: u64,
        n: u32,
        rx_scratch: &RxParser,
        install_dry_run: bool,
    ) {
        match role {
            StretchRole::Down => {}
            StretchRole::Transmit { .. } => self.controller.commit_transmit(n),
            StretchRole::Receive => {
                if install_dry_run {
                    self.controller.commit_parser(rx_scratch, n);
                } else {
                    self.controller.commit_receive_push(bus, n);
                }
            }
            // Idle / intermission / suspend: the stretch caps guarantee an
            // all-recessive window for this node, so the closed-form idle
            // advance applies.
            StretchRole::Passive => self.controller.advance_idle(u64::from(n)),
            StretchRole::Integrating { .. } | StretchRole::BusOff => {
                self.controller.commit_passive_word(bus, n);
            }
            StretchRole::Signal { .. } => self.controller.commit_signal(bus, n),
        }
    }

    /// Lets the node's other seams catch up on one committed packed
    /// stretch starting at `now`, in lockstep's order: an active TX fault
    /// consumes its drawn levels, the skipped re-post polls settle in one
    /// [`Application::settle_reposts`] call, and the agent observes the
    /// bits in one [`BitAgent::observe_stretch`] call — its promise was
    /// only about what it *drives*, not to skip observations.
    pub(crate) fn finish_stretch(&mut self, plan: NodePlan, bus: u64, n: u32, now: BitInstant) {
        if let Some(fault) = &mut self.tx_fault {
            fault.commit_stretch(now.bits(), n);
        }
        if plan.role == StretchRole::Down {
            return;
        }
        if plan.reposts {
            self.app
                .settle_reposts(u64::from(n) * MAX_ENQUEUE_PER_BIT as u64);
        }
        if let Some(agent) = &mut self.agent {
            let own = matches!(plan.role, StretchRole::Transmit { .. });
            agent.observe_stretch(bus, n, own, now);
        }
    }

    /// Processes the sampled bus level for the current bit.
    pub fn on_sample(&mut self, bus: Level, now: BitInstant) -> StepOutput {
        let mut out = StepOutput::default();
        self.sample_into(bus, now, &mut out);
        out
    }

    /// [`Node::on_sample`] writing into a caller-provided output.
    ///
    /// `out` must be [`StepOutput::clear`]ed (or fresh); the simulator
    /// recycles one buffer across every node and bit so the hot path does
    /// not allocate.
    pub fn sample_into(&mut self, bus: Level, now: BitInstant, out: &mut StepOutput) {
        // A crashed MCU samples nothing: controller, application and
        // agent are all frozen until the restart.
        if self.is_down(now) {
            return;
        }

        // Application poll first: a frame due at bit `t` can be on the bus
        // at `t + 1`.
        for _ in 0..MAX_ENQUEUE_PER_BIT {
            match self.app.poll(now) {
                Some(frame) => self.controller.enqueue(frame),
                None => break,
            }
        }

        self.controller.on_sample_into(bus, now, out);

        // Deliver controller callbacks to the application.
        if let Some(frame) = &out.received {
            self.app.on_frame(frame, now);
        }
        if let Some(frame) = &out.transmitted {
            self.app.on_transmit_success(frame, now);
        }
        for event in &out.events {
            use crate::event::EventKind;
            match event {
                EventKind::BusOff => self.app.on_bus_off(now),
                EventKind::Recovered => self.app.on_recovered(now),
                _ => {}
            }
        }

        // The bit agent sees the same sample, plus whether the frame on the
        // bus is this node's own transmission.
        if let Some(agent) = &mut self.agent {
            agent.set_own_transmission(self.controller.is_transmitting());
            agent.on_bit(bus, now);
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("controller", &self.controller)
            .field("has_agent", &self.agent.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::app::{PeriodicSender, SilentApplication};
    use can_core::{CanFrame, CanId};

    struct DominantAgent;
    impl BitAgent for DominantAgent {
        fn on_bit(&mut self, _level: Level, _now: BitInstant) {}
        fn tx_level(&self) -> Option<Level> {
            Some(Level::Dominant)
        }
    }

    #[test]
    fn node_combines_controller_and_agent_levels() {
        let node = Node::new("quiet", Box::new(SilentApplication));
        assert_eq!(node.tx_level(), Level::Recessive);

        let node =
            Node::new("agented", Box::new(SilentApplication)).with_agent(Box::new(DominantAgent));
        assert_eq!(node.tx_level(), Level::Dominant);
    }

    #[test]
    fn application_frames_reach_the_mailbox() {
        let frame = CanFrame::data_frame(CanId::from_raw(0x42), &[1]).unwrap();
        let mut node = Node::new("tx", Box::new(PeriodicSender::new(frame, 1000, 0)));
        node.on_sample(Level::Recessive, BitInstant::ZERO);
        assert_eq!(node.controller().pending_count(), 1);
    }

    #[test]
    fn flooding_application_is_bounded_per_bit() {
        struct Flood;
        impl Application for Flood {
            fn poll(&mut self, _now: BitInstant) -> Option<CanFrame> {
                // An unbounded stream of distinct ids.
                use std::sync::atomic::{AtomicU16, Ordering};
                static NEXT: AtomicU16 = AtomicU16::new(0);
                let raw = NEXT.fetch_add(1, Ordering::Relaxed) % 0x7FF;
                Some(CanFrame::data_frame(CanId::from_raw(raw), &[]).unwrap())
            }
        }
        let mut node = Node::new("flood", Box::new(Flood));
        node.on_sample(Level::Recessive, BitInstant::ZERO);
        assert!(node.controller().pending_count() <= MAX_ENQUEUE_PER_BIT);
    }

    #[test]
    fn name_is_reported() {
        let node = Node::new("body-ecu", Box::new(SilentApplication));
        assert_eq!(node.name(), "body-ecu");
        assert!(format!("{node:?}").contains("body-ecu"));
    }
}
