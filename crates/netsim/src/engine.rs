//! The discrete-event core: clock, deterministic event queue, RNG.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use tm_rand::StdRng;
use tm_telemetry::Telemetry;

use openflow::OfMessage;
use sdn_types::packet::EthernetFrame;
use sdn_types::{DatapathId, Duration, HostId, IpAddr, MacAddr, PortNo, SimTime};

/// The IEEE 802.3 link-integrity-pulse window: a switch declares a port down
/// after `16 ± 8` ms without link pulses (§V-A). The simulator samples the
/// detection delay uniformly from `[8 ms, 24 ms)`.
pub const PULSE_WINDOW: (Duration, Duration) =
    (Duration::from_millis(8), Duration::from_millis(24));

/// An event in the simulation.
///
/// Payloads are carried inline: a pending event sits still in its slab
/// slot while the heap sifts 24-byte run entries, so the size of this enum
/// costs one move in and one move out, not one per sift. See the
/// `scheduled_entries_are_sift_cheap` test for the enforced bounds.
#[derive(Debug)]
pub(crate) enum Event {
    /// A dataplane frame arrives at a switch port.
    DeliverToSwitch {
        /// Receiving switch.
        dpid: DatapathId,
        /// Ingress port.
        port: PortNo,
        /// The frame.
        frame: EthernetFrame,
    },
    /// A dataplane frame arrives at a host interface.
    DeliverToHost {
        /// Receiving host.
        host: HostId,
        /// The frame.
        frame: EthernetFrame,
    },
    /// An out-of-band (side channel) frame arrives at a host.
    DeliverOob {
        /// Receiving host.
        to: HostId,
        /// Sending host.
        from: HostId,
        /// The frame.
        frame: EthernetFrame,
    },
    /// A control message arrives at a switch.
    CtrlToSwitch {
        /// The switch end of the control channel.
        dpid: DatapathId,
        /// The message.
        msg: OfMessage,
    },
    /// A control message arrives at the controller.
    CtrlToController {
        /// The switch end of the control channel.
        dpid: DatapathId,
        /// The message.
        msg: OfMessage,
    },
    /// A controller timer fires.
    ControllerTimer {
        /// Timer id chosen by the controller.
        id: u64,
    },
    /// A host timer fires.
    HostTimer {
        /// Owning host.
        host: HostId,
        /// Timer id chosen by the host app.
        id: u64,
    },
    /// Periodic flow-table expiry scan on a switch.
    SwitchExpiryTick {
        /// The switch.
        dpid: DatapathId,
    },
    /// Link-integrity-pulse deadline: if the host interface attached to this
    /// port has been down continuously since `down_epoch`, the switch
    /// declares the port down.
    PulseCheck {
        /// The switch.
        dpid: DatapathId,
        /// The port.
        port: PortNo,
        /// The interface down-epoch this check corresponds to.
        down_epoch: u64,
    },
    /// Link pulses resumed on a port whose attached interface came back up;
    /// the switch re-detects the link unless traffic already did.
    PulseCheckUp {
        /// The switch.
        dpid: DatapathId,
        /// The port.
        port: PortNo,
    },
    /// An in-progress `ifconfig`-style interface bring-up completes.
    HostIfaceUp {
        /// The host.
        host: HostId,
        /// The bring-up epoch (stale events are ignored).
        epoch: u64,
        /// New identity to assume, if the bring-up changes identifiers.
        identity: Option<(MacAddr, IpAddr)>,
    },
    /// A windowed fault (loss / latency spike / control congestion)
    /// activates.
    FaultWindowStart {
        /// Which fault table the index points into.
        kind: crate::faults::FaultWindowKind,
        /// Index into that table of the installed plan.
        index: usize,
    },
    /// A windowed fault deactivates.
    FaultWindowEnd {
        /// Which fault table the index points into.
        kind: crate::faults::FaultWindowKind,
        /// Index into that table of the installed plan.
        index: usize,
    },
    /// An injected link flap takes the port down.
    FaultLinkDown {
        /// Index into the plan's flap table.
        index: usize,
    },
    /// An injected link flap brings the port back up.
    FaultLinkUp {
        /// Index into the plan's flap table.
        index: usize,
    },
    /// A flow-level traffic arrival for a traffic group. Arrivals carry
    /// the group's on-phase epoch so a chain cancelled by an off-phase
    /// toggle cannot fire stale events.
    TrafficArrival {
        /// Index into the installed traffic plan's group table.
        group: u32,
        /// The group on-phase epoch this arrival belongs to.
        epoch: u32,
    },
    /// A traffic group's on/off phase edge (the first one, at the group's
    /// window start, turns the group on).
    TrafficPhase {
        /// Index into the installed traffic plan's group table.
        group: u32,
    },
    /// An injected switch restart wipes the flow table.
    FaultSwitchRestart {
        /// Index into the plan's restart table.
        index: usize,
    },
    /// A restarted switch re-runs its controller handshake.
    FaultSwitchReconnect {
        /// Index into the plan's restart table.
        index: usize,
    },
}

impl Event {
    /// A stable `&'static str` name for per-kind telemetry counters.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Event::DeliverToSwitch { .. } => "netsim.event.deliver_to_switch",
            Event::DeliverToHost { .. } => "netsim.event.deliver_to_host",
            Event::DeliverOob { .. } => "netsim.event.deliver_oob",
            Event::CtrlToSwitch { .. } => "netsim.event.ctrl_to_switch",
            Event::CtrlToController { .. } => "netsim.event.ctrl_to_controller",
            Event::ControllerTimer { .. } => "netsim.event.controller_timer",
            Event::HostTimer { .. } => "netsim.event.host_timer",
            Event::SwitchExpiryTick { .. } => "netsim.event.switch_expiry_tick",
            Event::PulseCheck { .. } => "netsim.event.pulse_check",
            Event::PulseCheckUp { .. } => "netsim.event.pulse_check_up",
            Event::HostIfaceUp { .. } => "netsim.event.host_iface_up",
            Event::FaultWindowStart { .. } => "netsim.event.fault_window_start",
            Event::FaultWindowEnd { .. } => "netsim.event.fault_window_end",
            Event::FaultLinkDown { .. } => "netsim.event.fault_link_down",
            Event::FaultLinkUp { .. } => "netsim.event.fault_link_up",
            Event::TrafficArrival { .. } => "netsim.event.traffic_arrival",
            Event::TrafficPhase { .. } => "netsim.event.traffic_phase",
            Event::FaultSwitchRestart { .. } => "netsim.event.fault_switch_restart",
            Event::FaultSwitchReconnect { .. } => "netsim.event.fault_switch_reconnect",
        }
    }
}

/// Size in bytes of one heap entry — what every heap sift moves per swap.
/// The heap holds runs of same-instant events, not the events themselves,
/// so this stays 24 bytes whatever the payloads weigh; exposed so benches
/// can record the footprint next to their throughput numbers.
pub fn sched_entry_bytes() -> usize {
    std::mem::size_of::<Run>()
}

/// Slots per slab page. A page is allocated whole and never moves, so the
/// slab grows without copying live events and without the doubling
/// overshoot of one contiguous buffer.
const PAGE_SLOTS: usize = 128;

/// The end of a slot chain (run tail or free list).
const NIL: u32 = u32::MAX;

/// One pending event, linked to the next event of its run (or, once
/// freed, to the next free slot). `seq` is the event's tie-break number,
/// kept per slot so the debug pop checker sees every event's own seq.
struct Slot {
    event: Option<Event>,
    seq: u64,
    next: u32,
}

/// Paged storage for pending events. Slots are addressed by `u32` index
/// and reused LIFO through a free list threaded through `next`.
struct Slab {
    pages: Vec<Box<[Slot]>>,
    /// Head of the free list.
    free: u32,
    /// Slots ever handed out; every slot below this index exists.
    used: u32,
}

impl Slab {
    fn new() -> Self {
        Slab {
            pages: Vec::new(),
            free: NIL,
            used: 0,
        }
    }

    fn slot_mut(&mut self, index: u32) -> &mut Slot {
        let index = index as usize;
        match self
            .pages
            .get_mut(index / PAGE_SLOTS)
            .and_then(|page| page.get_mut(index % PAGE_SLOTS))
        {
            Some(slot) => slot,
            None => unreachable!("slab slot {index} was never allocated"),
        }
    }

    /// Stores `event` in a free slot and returns the slot's index.
    fn insert(&mut self, event: Event, seq: u64) -> u32 {
        let index = if self.free == NIL {
            let index = self.used;
            assert!(index < NIL, "event slab exhausted");
            if index as usize % PAGE_SLOTS == 0 {
                self.pages.push(
                    (0..PAGE_SLOTS)
                        .map(|_| Slot {
                            event: None,
                            seq: 0,
                            next: NIL,
                        })
                        .collect(),
                );
            }
            self.used += 1;
            index
        } else {
            let index = self.free;
            self.free = self.slot_mut(index).next;
            index
        };
        *self.slot_mut(index) = Slot {
            event: Some(event),
            seq,
            next: NIL,
        };
        index
    }

    /// Takes the event out of slot `index` and frees the slot. Returns the
    /// event, its seq and the next slot of its run.
    fn remove(&mut self, index: u32) -> (Event, u64, u32) {
        let free = self.free;
        let slot = self.slot_mut(index);
        let next = std::mem::replace(&mut slot.next, free);
        let Some(event) = slot.event.take() else {
            unreachable!("slab slot {index} removed twice");
        };
        let seq = slot.seq;
        self.free = index;
        (event, seq, next)
    }
}

/// A run: the events of a maximal block of consecutive `schedule` calls
/// for the same instant, chained FIFO through their slab slots.
///
/// Seqs are handed out densely, so a run is a contiguous block of seqs and
/// no two runs interleave. Ordering runs by `(at, first seq)` and draining
/// each one front to back therefore pops events in exactly `(at, seq)`
/// order. A run's `seq` stays its first event's even as the head advances,
/// so draining a run in place never moves it within the heap.
struct Run {
    at: SimTime,
    /// Seq of the run's first event.
    seq: u64,
    /// Slot of the next event to pop.
    head: u32,
    /// Slot of the last event; the open run appends here.
    tail: u32,
}

impl Run {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    /// Takes the head event out of `slab` and advances the head. Returns
    /// the event, its seq and whether that drained the run.
    fn pop_head(&mut self, slab: &mut Slab) -> (Event, u64, bool) {
        let (event, seq, next) = slab.remove(self.head);
        let drained = self.head == self.tail;
        self.head = next;
        (event, seq, drained)
    }
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Run {}
impl PartialOrd for Run {
    // tm-lint: allow(float-ordering) -- PartialOrd impl over integer (SimTime, seq) keys; no floats involved
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Run {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest (time, seq).
        other.key().cmp(&self.key())
    }
}

/// Debug-build runtime invariant checker: the dynamic half of the
/// determinism contract that `tm-lint` enforces statically (see DESIGN.md
/// §"Determinism contract"). Tracks the last popped `(time, seq)` pair and
/// panics the moment a scheduler bug lets time run backwards or a tie pop
/// out of insertion order — the exact ordering sensitivities topology
/// tampering attacks exploit, caught at the source instead of three
/// scenarios downstream in a diverged BENCH_JSON snapshot.
#[cfg(debug_assertions)]
#[derive(Default)]
struct PopInvariants {
    last: Option<(SimTime, u64)>,
}

#[cfg(debug_assertions)]
impl PopInvariants {
    fn check(&mut self, at: SimTime, seq: u64, clock: SimTime) {
        assert!(
            at >= clock,
            "invariant violated: popped event at {at:?} is before the clock {clock:?}"
        );
        if let Some((last_at, last_seq)) = self.last {
            assert!(
                at >= last_at,
                "invariant violated: pop times went backwards ({at:?} after {last_at:?})"
            );
            assert!(
                at > last_at || seq > last_seq,
                "invariant violated: tie at {at:?} popped out of insertion order \
                 (seq {seq} after {last_seq})"
            );
        }
        self.last = Some((at, seq));
    }
}

/// Clock + queue + RNG. Shared mutably by every dispatch path.
///
/// The queue is one [`BinaryHeap`] of [`Run`]s over a [`Slab`] of events.
/// The most recent run stays open outside the heap, so a burst of
/// schedules for one instant (an LLDP round, an echo sweep, a flood)
/// appends to it in O(1) and costs a single heap entry.
pub(crate) struct SimCore {
    clock: SimTime,
    seq: u64,
    runs: BinaryHeap<Run>,
    /// The run the next same-instant schedule appends to.
    open: Option<Run>,
    slab: Slab,
    /// Pending events (not runs).
    pending: usize,
    pub(crate) rng: StdRng,
    /// Shared metrics handle (disabled by default: every publish is a no-op).
    pub(crate) telemetry: Telemetry,
    // Engine totals kept as plain scalars on the hot path and flushed into
    // the registry only when a snapshot is taken.
    events_scheduled: u64,
    events_processed: u64,
    queue_highwater: usize,
    #[cfg(debug_assertions)]
    invariants: PopInvariants,
}

impl SimCore {
    pub(crate) fn new(seed: u64, telemetry: Telemetry) -> Self {
        SimCore {
            clock: SimTime::ZERO,
            seq: 0,
            runs: BinaryHeap::new(),
            open: None,
            slab: Slab::new(),
            pending: 0,
            rng: StdRng::seed_from_u64(seed),
            telemetry,
            events_scheduled: 0,
            events_processed: 0,
            queue_highwater: 0,
            #[cfg(debug_assertions)]
            invariants: PopInvariants::default(),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedules `event` to fire `delay` after the current time (saturating
    /// at the end of time rather than wrapping into the past).
    pub(crate) fn schedule(&mut self, delay: Duration, event: Event) {
        let at = self.clock.saturating_add(delay);
        self.schedule_at(at, event);
    }

    /// Schedules `event` at an absolute time (clamped to the present — the
    /// queue never travels backwards).
    pub(crate) fn schedule_at(&mut self, at: SimTime, event: Event) {
        let at = at.max(self.clock);
        let seq = self.seq;
        // Tie-break seqs are dense by construction (each schedule takes
        // the next integer); overflow would wrap ties back to the front.
        debug_assert!(seq < u64::MAX, "seq counter exhausted");
        self.seq += 1;
        let slot = self.slab.insert(event, seq);
        match &mut self.open {
            Some(run) if run.at == at => {
                self.slab.slot_mut(run.tail).next = slot;
                run.tail = slot;
            }
            open => {
                let fresh = Run {
                    at,
                    seq,
                    head: slot,
                    tail: slot,
                };
                if let Some(closed) = open.replace(fresh) {
                    self.runs.push(closed);
                }
            }
        }
        self.events_scheduled += 1;
        self.pending += 1;
        if self.pending > self.queue_highwater {
            self.queue_highwater = self.pending;
        }
    }

    /// Pops the next event if it fires at or before `horizon`, advancing the
    /// clock to the event time.
    pub(crate) fn pop_until(&mut self, horizon: SimTime) -> Option<Event> {
        // The earlier of the open run and the heap top by (at, first seq).
        let from_open = match (&self.open, self.runs.peek()) {
            (Some(open), Some(top)) => open.key() < top.key(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (event, at, seq) = if from_open {
            let run = self.open.as_mut()?;
            if run.at > horizon {
                return None;
            }
            let at = run.at;
            let (event, seq, drained) = run.pop_head(&mut self.slab);
            if drained {
                self.open = None;
            }
            (event, at, seq)
        } else {
            let mut top = self.runs.peek_mut()?;
            if top.at > horizon {
                return None;
            }
            let at = top.at;
            let (event, seq, drained) = top.pop_head(&mut self.slab);
            if drained {
                PeekMut::pop(top);
            }
            (event, at, seq)
        };
        #[cfg(debug_assertions)]
        self.invariants.check(at, seq, self.clock);
        #[cfg(not(debug_assertions))]
        let _ = seq;
        self.clock = at;
        self.pending -= 1;
        self.events_processed += 1;
        Some(event)
    }

    /// Flushes the scalar engine totals into the registry (idempotent
    /// absolute writes; called when a snapshot is taken).
    pub(crate) fn flush_engine_metrics(&self) {
        self.telemetry
            .counter_set("netsim.engine.events_scheduled", self.events_scheduled);
        self.telemetry
            .counter_set("netsim.engine.events_processed", self.events_processed);
        self.telemetry.gauge_set(
            "netsim.engine.queue_highwater",
            i64::try_from(self.queue_highwater).unwrap_or(i64::MAX),
        );
        self.telemetry.gauge_set(
            "netsim.engine.clock_ns",
            i64::try_from(self.clock.as_nanos()).unwrap_or(i64::MAX),
        );
    }

    /// Advances the clock to `horizon` (used after draining events).
    pub(crate) fn advance_to(&mut self, horizon: SimTime) {
        if horizon > self.clock {
            self.clock = horizon;
        }
    }

    /// Number of pending events.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Number of runs waiting in the heap (the open run excluded).
    #[cfg(test)]
    fn heap_entries(&self) -> usize {
        self.runs.len()
    }

    /// Pushes a raw `(at, seq)` entry as a run of its own, bypassing the
    /// monotonic clamp and the dense seq counter — i.e. deliberately
    /// breaks the scheduler. Exists only so tests can prove the invariant
    /// checker catches it.
    #[cfg(test)]
    pub(crate) fn push_raw_for_test(&mut self, at: SimTime, seq: u64, event: Event) {
        let slot = self.slab.insert(event, seq);
        self.runs.push(Run {
            at,
            seq,
            head: slot,
            tail: slot,
        });
        self.pending += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_entries_are_sift_cheap() {
        // Heap sifts move runs, never events: a run is `at` + first `seq`
        // + two `u32` slot links. A regression here means someone put a
        // payload (or a wider link) into the heap entry.
        assert!(
            std::mem::size_of::<Run>() <= 24,
            "Run grew to {} bytes — the sift bound is 24",
            std::mem::size_of::<Run>()
        );
        // Payloads sit inline in slab slots, so a fatter payload costs slab
        // memory and a wider move in and out. 128 bytes is today's
        // `Event` (112) + seq + link; growing past it must be a decision.
        assert!(
            std::mem::size_of::<Slot>() <= 128,
            "Slot grew to {} bytes — a payload got fatter; box it or raise the bound deliberately",
            std::mem::size_of::<Slot>()
        );
    }

    fn core() -> SimCore {
        SimCore::new(1, Telemetry::disabled())
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut core = core();
        core.schedule(Duration::from_millis(30), Event::ControllerTimer { id: 3 });
        core.schedule(Duration::from_millis(10), Event::ControllerTimer { id: 1 });
        core.schedule(Duration::from_millis(20), Event::ControllerTimer { id: 2 });
        let mut ids = Vec::new();
        while let Some(Event::ControllerTimer { id }) = core.pop_until(SimTime::from_secs(1)) {
            ids.push(id);
        }
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(core.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut core = core();
        for id in 0..5 {
            core.schedule(Duration::from_millis(10), Event::ControllerTimer { id });
        }
        let mut ids = Vec::new();
        while let Some(Event::ControllerTimer { id }) = core.pop_until(SimTime::from_secs(1)) {
            ids.push(id);
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn horizon_is_respected() {
        let mut core = core();
        core.schedule(Duration::from_millis(10), Event::ControllerTimer { id: 1 });
        core.schedule(Duration::from_millis(50), Event::ControllerTimer { id: 2 });
        assert!(core.pop_until(SimTime::from_millis(20)).is_some());
        assert!(core.pop_until(SimTime::from_millis(20)).is_none());
        assert_eq!(core.pending(), 1);
        core.advance_to(SimTime::from_millis(20));
        assert_eq!(core.now(), SimTime::from_millis(20));
    }

    #[test]
    fn far_future_timers_survive() {
        // An hour out, far beyond every periodic timer the models park.
        let mut core = core();
        core.schedule(Duration::from_secs(3600), Event::ControllerTimer { id: 1 });
        core.schedule(Duration::from_millis(5), Event::ControllerTimer { id: 2 });
        assert!(core.pop_until(SimTime::from_secs(1)).is_some());
        assert!(core.pop_until(SimTime::from_secs(1)).is_none());
        assert!(core.pop_until(SimTime::from_secs(7200)).is_some());
        assert_eq!(core.now(), SimTime::from_secs(3600));
        assert_eq!(core.pending(), 0);
    }

    /// Runs `f` on a fresh core and reports whether it panicked, with the
    /// default panic hook silenced so expected panics don't spam test
    /// output.
    fn panics(f: impl FnOnce(&mut SimCore) + std::panic::UnwindSafe) -> bool {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(move || {
            let mut core = core();
            f(&mut core);
        });
        std::panic::set_hook(prev);
        result.is_err()
    }

    #[test]
    fn broken_scheduler_event_in_the_past_is_caught() {
        assert!(panics(|core| {
            core.advance_to(SimTime::from_millis(10));
            // A correct scheduler clamps to the present; push_raw does not.
            core.push_raw_for_test(SimTime::from_millis(5), 0, Event::ControllerTimer { id: 1 });
            core.pop_until(SimTime::from_secs(1));
        }));
    }

    #[test]
    fn broken_scheduler_duplicate_tie_break_is_caught() {
        assert!(panics(|core| {
            // Two entries with the same (at, seq): the second pop violates
            // the strictly-increasing-seq-within-a-tie invariant.
            core.push_raw_for_test(SimTime::from_millis(5), 7, Event::ControllerTimer { id: 1 });
            core.push_raw_for_test(SimTime::from_millis(5), 7, Event::ControllerTimer { id: 2 });
            core.pop_until(SimTime::from_secs(1));
            core.pop_until(SimTime::from_secs(1));
        }));
    }

    #[test]
    fn well_behaved_scheduling_passes_the_invariant_checker() {
        assert!(!panics(|core| {
            for id in 0..100 {
                core.schedule(Duration::from_millis(id % 7), Event::ControllerTimer { id });
            }
            while core.pop_until(SimTime::from_secs(1)).is_some() {}
        }));
    }

    #[test]
    fn clock_does_not_go_backward_on_advance() {
        let mut core = core();
        core.advance_to(SimTime::from_millis(20));
        core.advance_to(SimTime::from_millis(10));
        assert_eq!(core.now(), SimTime::from_millis(20));
    }

    #[test]
    fn schedule_saturates_instead_of_wrapping() {
        // A timer `u64::MAX` ns out from t = 10 ms lies past the end of
        // time. It must park at the end, not overflow: debug builds used
        // to panic in the add, release builds wrapped it into the past
        // and fired it at once.
        let mut core = core();
        core.advance_to(SimTime::from_millis(10));
        core.schedule(
            Duration::from_nanos(u64::MAX),
            Event::ControllerTimer { id: 1 },
        );
        assert!(core.pop_until(SimTime::from_secs(1)).is_none());
        assert_eq!(core.pending(), 1);
        assert_eq!(core.now(), SimTime::from_millis(10));
    }

    fn timer_id(event: Event) -> u64 {
        match event {
            Event::ControllerTimer { id } => id,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// Pops every pending event and returns the timer ids in pop order.
    fn drain_ids(core: &mut SimCore) -> Vec<u64> {
        std::iter::from_fn(|| core.pop_until(SimTime::from_nanos(u64::MAX)))
            .map(timer_id)
            .collect()
    }

    #[test]
    fn a_same_instant_burst_is_one_heap_entry() {
        // One LLDP round of `discovery-4k`: a Packet-Out per port.
        let mut core = core();
        for id in 0..16_024 {
            core.schedule(Duration::from_millis(1), Event::ControllerTimer { id });
        }
        // A later instant closes the burst's run into the heap.
        core.schedule(
            Duration::from_millis(2),
            Event::ControllerTimer { id: 16_024 },
        );
        assert_eq!(core.heap_entries(), 1);
        assert_eq!(core.pending(), 16_025);
        assert_eq!(drain_ids(&mut core), (0..16_025).collect::<Vec<_>>());
        assert_eq!(core.pending(), 0);
    }

    #[test]
    fn alternating_instants_give_one_run_per_event() {
        let mut core = core();
        for id in 0..64 {
            let delay = Duration::from_millis(1 + id % 2);
            core.schedule(delay, Event::ControllerTimer { id });
        }
        // Every schedule changed instant, so each event is its own run:
        // 63 closed into the heap, the last one still open.
        assert_eq!(core.heap_entries(), 63);
        let (even, odd): (Vec<u64>, Vec<u64>) = (0..64).partition(|id| id % 2 == 0);
        assert_eq!(drain_ids(&mut core), [even, odd].concat());
    }

    /// The scheduler the run queue replaced: one heap entry per event,
    /// ordered by `(at, seq)`. The property below holds [`SimCore`] to it.
    #[derive(Default)]
    struct OracleQueue {
        clock: SimTime,
        seq: u64,
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>>,
    }

    impl OracleQueue {
        fn schedule_at(&mut self, at: SimTime, id: u64) {
            let at = at.max(self.clock);
            self.heap.push(std::cmp::Reverse((at, self.seq, id)));
            self.seq += 1;
        }

        fn pop_until(&mut self, horizon: SimTime) -> Option<u64> {
            let std::cmp::Reverse((at, _, _)) = self.heap.peek()?;
            if *at > horizon {
                return None;
            }
            let std::cmp::Reverse((at, _, id)) = self.heap.pop()?;
            self.clock = at;
            Some(id)
        }

        fn advance_to(&mut self, horizon: SimTime) {
            self.clock = self.clock.max(horizon);
        }
    }

    tm_prop::tm_prop! {
        /// The run queue pops exactly what the one-entry-per-event heap
        /// pops. Each step is chosen by `op`: a zero-delay schedule, a
        /// same-instant burst, a burst alternating between two instants, a
        /// schedule in the past (clamped to now), a `pop_until` at a random
        /// horizon, or an `advance_to`. After every step the popped ids,
        /// the clock and `pending()` must agree with the oracle.
        #[test]
        fn run_queue_matches_the_per_event_heap(
            steps in tm_prop::collection::vec((0u8..6, 0u64..8, 1u64..6), 1..64),
        ) {
            let mut core = core();
            let mut oracle = OracleQueue::default();
            let mut next_id = 0u64;
            let mut schedule = |core: &mut SimCore, oracle: &mut OracleQueue, at: SimTime| {
                core.schedule_at(at, Event::ControllerTimer { id: next_id });
                oracle.schedule_at(at, next_id);
                next_id += 1;
            };
            for &(op, a, n) in &steps {
                let now = core.now();
                let ms = Duration::from_millis;
                match op {
                    0 => schedule(&mut core, &mut oracle, now),
                    1 => {
                        for _ in 0..n {
                            schedule(&mut core, &mut oracle, now + ms(a));
                        }
                    }
                    2 => {
                        for i in 0..2 * n {
                            schedule(&mut core, &mut oracle, now + ms(a + i % 2));
                        }
                    }
                    3 => {
                        let past = SimTime::from_nanos(now.as_nanos().saturating_sub(ms(a).as_nanos()));
                        schedule(&mut core, &mut oracle, past);
                    }
                    4 => {
                        let horizon = now + ms(a);
                        for _ in 0..n {
                            let popped = core.pop_until(horizon).map(timer_id);
                            tm_prop::prop_assert_eq!(popped, oracle.pop_until(horizon));
                        }
                    }
                    _ => {
                        // `Simulator::run_until`: drain to the horizon,
                        // then move the clock onto it.
                        let horizon = now + ms(a);
                        loop {
                            let popped = core.pop_until(horizon).map(timer_id);
                            tm_prop::prop_assert_eq!(popped, oracle.pop_until(horizon));
                            if popped.is_none() {
                                break;
                            }
                        }
                        core.advance_to(horizon);
                        oracle.advance_to(horizon);
                    }
                }
                tm_prop::prop_assert_eq!(core.now(), oracle.clock);
                tm_prop::prop_assert_eq!(core.pending(), oracle.heap.len());
            }
        }
    }
}
