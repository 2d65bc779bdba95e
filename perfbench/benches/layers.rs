//! Decorators that time each layer from outside, through the program's
//! public traits, without changing what the layer does.
//!
//! [`TracedController`] wraps the controller behind
//! [`netsim::ControllerLogic`]; [`TracedModule`] wraps one defense behind
//! [`controller::DefenseModule`]. Both forward every call unchanged,
//! including `as_any`/`as_any_mut`, so `Simulator::controller_as` and
//! `SdnController::module_as` still reach the wrapped types.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

use controller::{
    Command, DefenseModule, HostMove, LinkLatencySample, LldpReceive, ModuleCtx, PacketInCtx,
};
use netsim::{ControllerCtx, ControllerLogic, TimerId};
use openflow::{FlowStatsEntry, OfMessage, PortDesc, PortStatsEntry, PortStatusReason};
use sdn_types::{DatapathId, IpAddr, MacAddr, PortNo, SwitchPort};

use crate::trace::Tracer;

/// Span of a dataplane (non-LLDP) Packet-In: host tracking + forwarding.
pub const PACKET_IN_DATA: &str = "controller.packet_in_data";
/// Span of an LLDP Packet-In: link discovery.
pub const PACKET_IN_LLDP: &str = "controller.packet_in_lldp";
/// Span of the discovery timer: one LLDP round plus link expiry.
pub const TIMER_DISCOVERY: &str = "controller.timer_discovery";
/// Span of the echo timer and of echo replies: control-link latency.
pub const ECHO: &str = "controller.echo";
/// Span of every other controller callback.
pub const OTHER: &str = "controller.other";

/// The controller's timer ids, as `SdnController` numbers them. They are
/// private to the controller crate, so the benchmark cross-checks the
/// discovery label's call count against `controller.discovery.rounds`.
const TIMER_ID_DISCOVERY: TimerId = TimerId(1);
const TIMER_ID_ECHO: TimerId = TimerId(2);

const ETHERTYPE_LLDP: [u8; 2] = [0x88, 0xcc];

/// Wraps a controller and opens one span per callback, named by what the
/// callback serves.
pub struct TracedController<C> {
    inner: C,
    tracer: Tracer,
}

impl<C: ControllerLogic> TracedController<C> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: C, tracer: Tracer) -> Self {
        TracedController { inner, tracer }
    }
}

fn message_label(msg: &OfMessage) -> &'static str {
    match msg {
        OfMessage::PacketIn { data, .. } if data.get(12..14) == Some(&ETHERTYPE_LLDP[..]) => {
            PACKET_IN_LLDP
        }
        OfMessage::PacketIn { .. } => PACKET_IN_DATA,
        OfMessage::EchoReply { .. } => ECHO,
        _ => OTHER,
    }
}

fn timer_label(id: TimerId) -> &'static str {
    match id {
        TIMER_ID_DISCOVERY => TIMER_DISCOVERY,
        TIMER_ID_ECHO => ECHO,
        _ => OTHER,
    }
}

impl<C: ControllerLogic + 'static> ControllerLogic for TracedController<C> {
    fn on_start(&mut self, ctx: &mut ControllerCtx<'_>) {
        let inner = &mut self.inner;
        self.tracer.span(OTHER, || inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut ControllerCtx<'_>, dpid: DatapathId, msg: OfMessage) {
        let inner = &mut self.inner;
        self.tracer
            .span(message_label(&msg), || inner.on_message(ctx, dpid, msg));
    }

    fn on_timer(&mut self, ctx: &mut ControllerCtx<'_>, id: TimerId) {
        let inner = &mut self.inner;
        self.tracer
            .span(timer_label(id), || inner.on_timer(ctx, id));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Verdict counts of the hooks that can veto an update, shared by every
/// module of one family (e.g. TopoGuard, CMM and LLI).
#[derive(Clone, Default)]
pub struct Verdicts {
    hooks: Rc<Cell<u64>>,
    blocks: Rc<Cell<u64>>,
}

impl Verdicts {
    fn record(&self, verdict: Command) -> Command {
        self.hooks.set(self.hooks.get() + 1);
        if verdict == Command::Block {
            self.blocks.set(self.blocks.get() + 1);
        }
        verdict
    }

    /// Veto-capable hook calls so far.
    pub fn hooks(&self) -> u64 {
        self.hooks.get()
    }

    /// Of those, how many returned [`Command::Block`].
    pub fn blocks(&self) -> u64 {
        self.blocks.get()
    }
}

/// Wraps one defense module and opens a span named `name` per hook.
pub struct TracedModule {
    inner: Box<dyn DefenseModule>,
    name: &'static str,
    tracer: Tracer,
    verdicts: Verdicts,
}

impl TracedModule {
    /// Wraps `inner`; its spans are called `name` and its veto-capable
    /// hooks are counted into `verdicts`.
    pub fn new(
        inner: Box<dyn DefenseModule>,
        name: &'static str,
        tracer: Tracer,
        verdicts: Verdicts,
    ) -> Self {
        TracedModule {
            inner,
            name,
            tracer,
            verdicts,
        }
    }

    fn span<R>(&mut self, f: impl FnOnce(&mut dyn DefenseModule) -> R) -> R {
        let inner = self.inner.as_mut();
        self.tracer.span(self.name, || f(inner))
    }

    fn veto(&mut self, f: impl FnOnce(&mut dyn DefenseModule) -> Command) -> Command {
        let verdict = self.span(f);
        self.verdicts.record(verdict)
    }
}

impl DefenseModule for TracedModule {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_packet_in(&mut self, cx: &mut ModuleCtx<'_>, ev: &PacketInCtx<'_>) -> Command {
        self.veto(|m| m.on_packet_in(cx, ev))
    }

    fn on_lldp_emit(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, port: PortNo) {
        self.span(|m| m.on_lldp_emit(cx, dpid, port))
    }

    fn on_lldp_receive(&mut self, cx: &mut ModuleCtx<'_>, ev: &LldpReceive<'_>) -> Command {
        self.veto(|m| m.on_lldp_receive(cx, ev))
    }

    fn on_port_status(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        desc: &PortDesc,
        reason: PortStatusReason,
    ) {
        self.span(|m| m.on_port_status(cx, dpid, desc, reason))
    }

    fn on_host_new(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        mac: MacAddr,
        ip: Option<IpAddr>,
        location: SwitchPort,
    ) {
        self.span(|m| m.on_host_new(cx, mac, ip, location))
    }

    fn on_host_move(&mut self, cx: &mut ModuleCtx<'_>, mv: &HostMove) -> Command {
        self.veto(|m| m.on_host_move(cx, mv))
    }

    fn on_link_update(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        link: controller::DirectedLink,
        is_new: bool,
        sample: Option<LinkLatencySample>,
    ) -> Command {
        self.veto(|m| m.on_link_update(cx, link, is_new, sample))
    }

    fn on_link_removed(&mut self, cx: &mut ModuleCtx<'_>, link: controller::DirectedLink) {
        self.span(|m| m.on_link_removed(cx, link))
    }

    fn on_tick(&mut self, cx: &mut ModuleCtx<'_>) {
        self.span(|m| m.on_tick(cx))
    }

    fn on_flow_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        flows: &[FlowStatsEntry],
    ) {
        self.span(|m| m.on_flow_stats(cx, dpid, flows))
    }

    fn on_port_stats(
        &mut self,
        cx: &mut ModuleCtx<'_>,
        dpid: DatapathId,
        ports: &[PortStatsEntry],
    ) {
        self.span(|m| m.on_port_stats(cx, dpid, ports))
    }

    fn on_flow_mod(&mut self, cx: &mut ModuleCtx<'_>, dpid: DatapathId, msg: &OfMessage) {
        self.span(|m| m.on_flow_mod(cx, dpid, msg))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
