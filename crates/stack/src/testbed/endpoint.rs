//! The testbed's transport endpoints: one closed enum per side.
//!
//! A compute server holds one [`ComputeConn`] per storage server it talks
//! to, and a storage server one [`StoragePeer`] per compute server. Which
//! engine sits behind them (the TCP RPC of kernel TCP and LUNA, an RDMA
//! RC queue pair, or SOLAR) is fixed by the variant when the connection
//! opens. Everything that differs between transports lives in this file:
//! engine method names, ports and protocol numbers, wire sizes, ECN and
//! INT handling, and what each engine operation costs the host. The
//! testbed's submit, pump, timer and delivery code is written once
//! against this surface.
//!
//! The order of engine calls, CPU charges and emitted packets is part of
//! the simulated outcome: every function here keeps it fixed.

use std::collections::BTreeMap;

use bytes::Bytes;
use ebs_luna::{read_request, write_request, RpcClient, RpcServer, StackCosts};
use ebs_net::{DeviceId, FabricPacket, FlowLabel};
use ebs_obs::{Journal, Metrics, Sample};
use ebs_rdma::RdmaQp;
use ebs_sa::{IoKind, SubIo, BLOCK_SIZE};
use ebs_sim::{FxHashMap, SimDuration, SimTime};
use ebs_solar::{
    InPacket, OutPacket, ReadBlock, ServerAction, SolarClient, SolarEvent, SolarResponder,
    WriteBlock,
};
use ebs_tcp::TcpConfig;
use ebs_wire::pool::zero_payload;
use ebs_wire::{EbsHeader, EbsOp, FrameDecoder, IntStack, RpcFrame, RpcMethod};

use super::{flow, Dpu, Msg, TestbedConfig, Variant};
use crate::calibrate::{RdmaCosts, SolarCosts};

/// Storage-side TCP port; the compute side uses `10_000 + storage`.
const TCP_PORT: u16 = 7000;
/// RoCEv2's UDP port on the storage side; the compute side uses
/// `20_000 + storage`.
const ROCE_PORT: u16 = 4791;
/// Storage-side SOLAR port; the compute side's source port is the path.
const SOLAR_PORT: u16 = 9000;
const PROTO_TCP: u8 = 6;
const PROTO_UDP: u8 = 17;

/// A packet ready for the fabric: flow, wire size, INT stack to collect
/// en route, payload.
pub(super) type Packet = (FlowLabel, usize, Option<IntStack>, Msg);

/// A finished RPC: id, finish time, and the completion-side SA time
/// attributed to it (§4.7).
pub(super) type Done = (u64, SimTime, SimDuration);

/// The two ends of one connection: the storage server's index (TCP and
/// RDMA derive the compute side's port from it, see [`TCP_PORT`] and
/// [`ROCE_PORT`]) and both fabric devices.
#[derive(Clone, Copy)]
pub(super) struct Link {
    storage: u32,
    cdev: DeviceId,
    sdev: DeviceId,
}

impl Link {
    pub(super) fn new(storage: u32, cdev: DeviceId, sdev: DeviceId) -> Self {
        Link {
            storage,
            cdev,
            sdev,
        }
    }

    /// A compute → storage flow.
    fn up(&self, src_port: u16, dst_port: u16, proto: u8) -> FlowLabel {
        flow(self.cdev, self.sdev, src_port, dst_port, proto)
    }

    /// A storage → compute flow.
    fn down(&self, src_port: u16, dst_port: u16, proto: u8) -> FlowLabel {
        flow(self.sdev, self.cdev, src_port, dst_port, proto)
    }
}

/// What each transport operation costs a compute server's DPU, as
/// calibrated for the variant. A connection reads its own transport's
/// entry only.
#[derive(Debug, Clone, Copy)]
pub(super) struct Costs {
    tcp: StackCosts,
    rdma: RdmaCosts,
    pub(super) solar: SolarCosts,
}

impl Costs {
    pub(super) fn new(variant: Variant) -> Self {
        Costs {
            tcp: match variant {
                Variant::Kernel => StackCosts::kernel(),
                _ => StackCosts::luna(),
            },
            rdma: RdmaCosts::default_costs(),
            solar: SolarCosts::offloaded(),
        }
    }
}

/// The compute server's end of a connection to one storage server.
#[derive(Debug)]
pub(super) enum ComputeConn {
    /// Kernel TCP or LUNA: an RPC client on the TCP engine. Boxed: it is
    /// the largest engine, and SOLAR fleets' connection maps should not
    /// pay for its size.
    Tcp(Box<RpcClient>),
    /// An RDMA RC queue pair carrying encoded RPC frames.
    Rdma(RdmaQp),
    /// A SOLAR client (SOLAR and SOLAR*).
    Solar(SolarClient),
}

impl ComputeConn {
    /// Open the connection `compute` → `storage` for the configured variant.
    pub(super) fn open(cfg: &TestbedConfig, compute: u32, storage: u32) -> Self {
        match cfg.variant {
            Variant::Kernel | Variant::Luna => {
                let cfg = tcp_config(cfg, compute << 8 | storage);
                ComputeConn::Tcp(Box::new(RpcClient::connect(cfg)))
            }
            Variant::Rdma => ComputeConn::Rdma(RdmaQp::new(cfg.rdma.clone())),
            // SOLAR* shares the transport; its extra per-block CPU and
            // PCIe crossings are charged by variant in `guest_io`.
            Variant::SolarStar | Variant::Solar => {
                ComputeConn::Solar(SolarClient::new(cfg.solar.clone()))
            }
        }
    }

    /// Hand one sub-I/O to the engine. TCP and RDMA pay their tx stack
    /// cost first and return the time the host must pump; SOLAR queues
    /// its blocks for the next pump at once.
    pub(super) fn submit(
        &mut self,
        now: SimTime,
        dpu: &mut Dpu,
        rpc_id: u64,
        vd_id: u64,
        kind: IoKind,
        sub: &SubIo,
    ) -> Option<SimTime> {
        let (cpu, costs) = (&mut dpu.cpu, &dpu.costs);
        match self {
            ComputeConn::Tcp(rpc) => {
                let frame = rpc_frame(rpc_id, vd_id, kind, sub);
                let cpu_cost = costs.tcp.cpu_for_rpc(frame.len as usize);
                let crossing = costs.tcp.crossing_latency;
                let t = cpu.run(now, cpu_cost) + crossing.saturating_sub(cpu_cost);
                // The engine is sans-io: submission is immediate; the
                // latency shows up by delaying the pump via a timer.
                rpc.call(t.max(now), &frame);
                Some(t.max(now))
            }
            ComputeConn::Rdma(qp) => {
                let frame = rpc_frame(rpc_id, vd_id, kind, sub);
                let t = cpu.run(now, costs.rdma.cpu_per_rpc) + costs.rdma.crossing_latency;
                qp.post_send(frame.to_bytes());
                Some(t.max(now))
            }
            ComputeConn::Solar(client) => {
                let (seg, blocks) = (sub.segment_id, sub.blocks.iter().copied());
                match kind {
                    IoKind::Write => {
                        let blocks = blocks.map(|block_addr| WriteBlock {
                            block_addr,
                            payload: Bytes::new(),
                            crc: 0,
                        });
                        client.submit_write(now, rpc_id, vd_id, seg, blocks.collect());
                    }
                    IoKind::Read => {
                        let blocks = blocks.map(|block_addr| ReadBlock {
                            block_addr,
                            guest_addr: block_addr * BLOCK_SIZE as u64,
                        });
                        client.submit_read(now, rpc_id, vd_id, seg, blocks.collect());
                    }
                }
                None
            }
        }
    }

    /// Feed one packet from the fabric to the engine.
    pub(super) fn receive(&mut self, now: SimTime, pkt: FabricPacket<Msg>, dpu: &mut Dpu) {
        let (ecn, int) = (pkt.ecn, pkt.int);
        match (self, pkt.payload) {
            (ComputeConn::Tcp(rpc), Msg::Tcp(seg)) => rpc.on_segment(now, seg),
            (ComputeConn::Rdma(qp), Msg::Rdma(mut pkt)) => {
                pkt.ecn |= ecn;
                qp.on_packet(now, pkt);
            }
            (ComputeConn::Solar(client), Msg::Solar(hdr, echo_int)) => {
                // Read data DMAs into guest memory via host PCIe.
                let at = match hdr.op {
                    EbsOp::ReadResp => {
                        let at = now + dpu.costs.solar.pipeline;
                        dpu.pcie.transfer_block(at, dpu.path, hdr.len as usize)
                    }
                    _ => now,
                };
                // Marks applied on the reverse path (ack/read-response
                // direction) also reach the client's controller.
                let hdr = echo_ecn(hdr, ecn);
                let (payload, int) = (Bytes::new(), echo_int.or(int));
                client.on_packet(at.max(now), InPacket { hdr, payload, int });
            }
            // A testbed runs one variant: no other transport's packets.
            _ => {}
        }
    }

    /// Drain finished RPCs into `done`, charging their completion work to
    /// the DPU. `rpc_blocks` maps an RPC id to its `(io, blocks)`.
    pub(super) fn drain(
        &mut self,
        now: SimTime,
        dpu: &mut Dpu,
        rpc_blocks: &FxHashMap<u64, (u64, u32)>,
        journal: &mut Journal,
        done: &mut Vec<Done>,
    ) {
        // Read data crosses the DPU's PCIe on its way to guest memory
        // (Fig. 10a).
        let land = |dpu: &mut Dpu, t: SimTime, bytes: usize| match bytes {
            0 => t.max(now),
            _ => t
                .max(dpu.pcie.transfer_block(now, dpu.path, bytes))
                .max(now),
        };
        let costs = &dpu.costs;
        match self {
            ComputeConn::Tcp(rpc) => {
                let (cpu, crossing) = (costs.tcp.cpu_per_rpc, costs.tcp.crossing_latency);
                while let Some(c) = rpc.poll_completion() {
                    let t = dpu.cpu.run(now, cpu) + crossing.saturating_sub(cpu);
                    let t = land(dpu, t, c.response.payload.len());
                    done.push((c.rpc_id, t, SimDuration::ZERO));
                }
            }
            ComputeConn::Rdma(qp) => {
                let (cpu, crossing) = (costs.rdma.cpu_per_rpc, costs.rdma.crossing_latency);
                while let Some(msg) = qp.poll_recv() {
                    let Some(frame) = decode(&msg) else { continue };
                    let t = dpu.cpu.run(now, cpu) + crossing;
                    let t = land(dpu, t, frame.payload.len());
                    done.push((frame.rpc_id, t, SimDuration::ZERO));
                }
            }
            ComputeConn::Solar(client) => {
                let costs = &costs.solar;
                while let Some(ev) = client.poll_event() {
                    let (name, id) = match ev {
                        SolarEvent::RpcCompleted { rpc_id, .. } => {
                            let blocks = rpc_blocks.get(&rpc_id).map_or(1, |&(_, b)| b);
                            // Only the integrity check + doorbell gates the
                            // I/O; the Path&CC bookkeeping runs after the
                            // doorbell but still occupies the cores — which
                            // is exactly how §4.7's SA tail arises under
                            // intensive I/O: CC backlog delays doorbells.
                            let t = dpu.cpu.run(now, costs.cpu_doorbell).max(now);
                            let cc = costs.cpu_cc_per_ack.saturating_mul(u64::from(blocks));
                            dpu.cpu.run(now, costs.cpu_cc_per_completion + cc);
                            done.push((rpc_id, t, t.saturating_since(now)));
                            continue;
                        }
                        // Leave the I/O incomplete: it will show up as a
                        // hang, like production.
                        SolarEvent::RpcFailed { rpc_id } => ("rpc_failed", rpc_id),
                        SolarEvent::PathDown { path_id } => ("path_down", u64::from(path_id)),
                        SolarEvent::PathUp { path_id } => ("path_up", u64::from(path_id)),
                        _ => continue,
                    };
                    journal.instant(now, "solar", name, id, 0);
                }
            }
        }
    }

    /// Move every packet the engine has ready into `out`.
    pub(super) fn transmit(&mut self, now: SimTime, link: Link, out: &mut Vec<Packet>) {
        match self {
            ComputeConn::Tcp(rpc) => {
                let flow = link.up(10_000 + link.storage as u16, TCP_PORT, PROTO_TCP);
                while let Some(seg) = rpc.poll_segment(now) {
                    out.push((flow, seg.wire_size(), None, Msg::Tcp(seg)));
                }
            }
            ComputeConn::Rdma(qp) => {
                let flow = link.up(20_000 + link.storage as u16, ROCE_PORT, PROTO_UDP);
                while let Some(pkt) = qp.poll_transmit(now) {
                    out.push((flow, pkt.wire_size(), None, Msg::Rdma(pkt)));
                }
            }
            ComputeConn::Solar(client) => {
                while let Some(o) = client.poll_transmit(now) {
                    // Write blocks carry their data; reads and probes don't.
                    let data = match o.hdr.op {
                        EbsOp::WriteBlock => o.hdr.len as usize,
                        _ => 0,
                    };
                    let flow = link.up(o.src_port, SOLAR_PORT, PROTO_UDP);
                    let int = o.int_request.then(IntStack::with_path_capacity);
                    let size = o.wire_size() + data;
                    out.push((flow, size, int, Msg::Solar(o.hdr, None)));
                }
            }
        }
    }

    /// The engine's next timer deadline.
    pub(super) fn poll_timer(&self) -> Option<SimTime> {
        match self {
            ComputeConn::Tcp(rpc) => rpc.poll_timer(),
            ComputeConn::Rdma(qp) => qp.poll_timer(),
            ComputeConn::Solar(client) => client.poll_timer(),
        }
    }

    /// Fire the engine's timer if it is due.
    pub(super) fn fire_timer(&mut self, now: SimTime) {
        if matches!(self.poll_timer(), Some(t) if t <= now) {
            match self {
                ComputeConn::Tcp(rpc) => rpc.on_timer(now),
                ComputeConn::Rdma(qp) => qp.on_timer(now),
                ComputeConn::Solar(client) => client.on_timer(now),
            }
        }
    }

    /// The SOLAR client, for SOLAR-only diagnostics.
    pub(super) fn solar(&self) -> Option<&SolarClient> {
        match self {
            ComputeConn::Solar(client) => Some(client),
            _ => None,
        }
    }

    /// Sample the engine's counters (RDMA QPs report none).
    pub(super) fn sample_into(&self, now: SimTime, m: &mut Metrics) {
        match self {
            ComputeConn::Tcp(rpc) => rpc.sample_into(now, m),
            ComputeConn::Rdma(_) => {}
            ComputeConn::Solar(client) => client.sample_into(now, m),
        }
    }
}

/// The storage server's end of a connection from one compute server. The
/// engines differ in size by up to 4×, so each sits behind a box.
#[derive(Debug)]
pub(super) enum StoragePeer {
    /// Kernel TCP or LUNA: an RPC server on the TCP engine.
    Tcp(Box<RpcServer>),
    /// An RDMA RC queue pair carrying encoded RPC frames.
    Rdma(Box<RdmaQp>),
    /// SOLAR's stateless responder: every reply leaves as soon as the
    /// block server has served it, so it has nothing to pump.
    Solar(Box<SolarResponder>),
}

/// One unit of work a storage peer hands its block server.
pub(super) struct Request {
    /// The RPC it belongs to (keys the storage breakdown).
    pub(super) rpc_id: u64,
    /// Backend I/O to do first, as `(kind, blocks)`; `None` sends the
    /// reply at once.
    pub(super) io: Option<(IoKind, usize)>,
    /// What goes back to the compute server afterwards.
    pub(super) reply: PeerReply,
}

/// A storage-side reply, built when its request arrives and sent when the
/// block server has served it.
#[derive(Debug)]
pub(super) enum PeerReply {
    /// A response frame for the RPC engine (TCP or RDMA) to send.
    Frame(RpcFrame),
    /// A SOLAR response, ready for the fabric.
    Solar(Packet),
}

impl StoragePeer {
    /// Accept a connection from `compute` for the configured variant.
    pub(super) fn open(cfg: &TestbedConfig, compute: u32) -> Self {
        match cfg.variant {
            Variant::Kernel | Variant::Luna => {
                let cfg = tcp_config(cfg, 0x8000_0000 | (compute << 8));
                StoragePeer::Tcp(Box::new(RpcServer::listen(cfg)))
            }
            Variant::Rdma => StoragePeer::Rdma(Box::new(RdmaQp::new(cfg.rdma.clone()))),
            Variant::SolarStar | Variant::Solar => StoragePeer::Solar(Box::default()),
        }
    }

    /// Feed one packet from the fabric to the engine and append the
    /// requests it completes to `reqs`, in the order they must be served.
    pub(super) fn receive(
        &mut self,
        now: SimTime,
        pkt: FabricPacket<Msg>,
        link: Link,
        reqs: &mut Vec<Request>,
    ) {
        let (ecn, int, reply_port) = (pkt.ecn, pkt.int, pkt.flow.src_port);
        match (self, pkt.payload) {
            (StoragePeer::Tcp(srv), Msg::Tcp(seg)) => {
                srv.on_segment(now, seg);
                while let Some(frame) = srv.poll_request() {
                    reqs.extend(Request::rpc(frame));
                }
            }
            (StoragePeer::Rdma(qp), Msg::Rdma(mut pkt)) => {
                // A fabric ECN mark rides into the QP packet so the
                // responder echoes it on the ack (DCQCN's CNP role).
                pkt.ecn |= ecn;
                qp.on_packet(now, pkt);
                while let Some(msg) = qp.poll_recv() {
                    reqs.extend(decode(&msg).and_then(Request::rpc));
                }
            }
            (StoragePeer::Solar(resp), Msg::Solar(hdr, _)) => {
                // The responder copies the request header into its ack, so
                // the ECN mark stamped here comes back to the sender.
                let (hdr, payload) = (echo_ecn(hdr, ecn), Bytes::new());
                let action = resp.on_packet(InPacket { hdr, payload, int });
                let reply = |out, echo| PeerReply::Solar(solar_reply(link, out, echo, reply_port));
                // Gap reports go straight back (tiny control packets),
                // ahead of the request's own reply.
                while let Some(nack) = resp.poll_gap_nack() {
                    reqs.push(Request::new(0, None, reply(nack, None)));
                }
                reqs.push(match action {
                    ServerAction::StoreBlock { hdr, int, .. } => {
                        let (ack, echo) = resp.write_ack(&hdr, int);
                        Request::new(hdr.rpc_id, Some((IoKind::Write, 1)), reply(ack, echo))
                    }
                    ServerAction::FetchBlock { hdr } => {
                        let out = resp.read_resp(&hdr, Bytes::new(), 0);
                        Request::new(hdr.rpc_id, Some((IoKind::Read, 1)), reply(out, None))
                    }
                    ServerAction::Reply(out) => Request::new(0, None, reply(out, None)),
                    ServerAction::None => return,
                });
            }
            _ => {}
        }
    }

    /// Whether replies queue in the engine and leave on the next pump.
    pub(super) fn queues_replies(&self) -> bool {
        !matches!(self, StoragePeer::Solar(_))
    }

    /// Move every packet the engine has ready into `out`.
    pub(super) fn transmit(&mut self, now: SimTime, link: Link, out: &mut Vec<Packet>) {
        match self {
            StoragePeer::Tcp(srv) => {
                let flow = link.down(TCP_PORT, 10_000 + link.storage as u16, PROTO_TCP);
                while let Some(seg) = srv.poll_segment(now) {
                    out.push((flow, seg.wire_size(), None, Msg::Tcp(seg)));
                }
            }
            StoragePeer::Rdma(qp) => {
                let flow = link.down(ROCE_PORT, 20_000 + link.storage as u16, PROTO_UDP);
                while let Some(pkt) = qp.poll_transmit(now) {
                    out.push((flow, pkt.wire_size(), None, Msg::Rdma(pkt)));
                }
            }
            StoragePeer::Solar(_) => {}
        }
    }

    /// The engine's next timer deadline.
    pub(super) fn poll_timer(&self) -> Option<SimTime> {
        match self {
            StoragePeer::Tcp(srv) => srv.poll_timer(),
            StoragePeer::Rdma(qp) => qp.poll_timer(),
            StoragePeer::Solar(_) => None,
        }
    }

    /// Fire the engine's timer if it is due.
    pub(super) fn fire_timer(&mut self, now: SimTime) {
        if matches!(self.poll_timer(), Some(t) if t <= now) {
            match self {
                StoragePeer::Tcp(srv) => srv.on_timer(now),
                StoragePeer::Rdma(qp) => qp.on_timer(now),
                StoragePeer::Solar(_) => {}
            }
        }
    }

    /// Sample the engine's counters (only the TCP server reports any).
    pub(super) fn sample_into(&self, now: SimTime, m: &mut Metrics) {
        if let StoragePeer::Tcp(srv) = self {
            srv.sample_into(now, m);
        }
    }
}

impl PeerReply {
    /// Send a served reply from the storage server whose connections are
    /// `peers`. An RPC frame is queued on the connection to `compute` for
    /// the next pump; a SOLAR reply comes back as the packet to send now.
    pub(super) fn send(
        self,
        peers: &mut BTreeMap<u32, StoragePeer>,
        compute: u32,
    ) -> Option<Packet> {
        let frame = match self {
            PeerReply::Solar(packet) => return Some(packet),
            PeerReply::Frame(frame) => frame,
        };
        match peers.get_mut(&compute) {
            Some(StoragePeer::Tcp(srv)) => srv.respond(&frame),
            Some(StoragePeer::Rdma(qp)) => qp.post_send(frame.to_bytes()),
            _ => {}
        }
        None
    }
}

impl Request {
    fn new(rpc_id: u64, io: Option<(IoKind, usize)>, reply: PeerReply) -> Self {
        Request { rpc_id, io, reply }
    }

    /// Serve an RPC request frame: backend I/O, then the response frame.
    /// Other frames never reach a server and yield nothing.
    fn rpc(req: RpcFrame) -> Option<Request> {
        let blocks = (req.len / BLOCK_SIZE).max(1) as usize;
        let (kind, method, len, payload) = match req.method {
            RpcMethod::Write => (IoKind::Write, RpcMethod::WriteResp, 0, Bytes::new()),
            RpcMethod::Read => {
                let payload = zero_payload(req.len as usize);
                (IoKind::Read, RpcMethod::ReadResp, req.len, payload)
            }
            _ => return None,
        };
        let (rpc_id, vd_id, offset) = (req.rpc_id, req.vd_id, req.offset);
        let resp = RpcFrame {
            rpc_id,
            method,
            vd_id,
            offset,
            len,
            payload,
        };
        let io = Some((kind, blocks));
        Some(Request::new(rpc_id, io, PeerReply::Frame(resp)))
    }
}

/// The TCP engine configuration of either end; `iss` tells the ends and
/// connections apart.
fn tcp_config(cfg: &TestbedConfig, iss: u32) -> TcpConfig {
    TcpConfig {
        iss,
        // Jumbo-capable NICs with TSO/GSO.
        mss: 8960,
        swift: cfg.tcp_swift,
        ..TcpConfig::default()
    }
}

/// The request frame of one sub-I/O. Writes view the shared zero slab:
/// the simulator only cares about payload length, so no frame allocates.
fn rpc_frame(rpc_id: u64, vd_id: u64, kind: IoKind, sub: &SubIo) -> RpcFrame {
    let offset = sub.blocks[0] * BLOCK_SIZE as u64;
    let bytes = sub.blocks.len() * BLOCK_SIZE as usize;
    match kind {
        IoKind::Write => write_request(rpc_id, vd_id, offset, zero_payload(bytes)),
        IoKind::Read => read_request(rpc_id, vd_id, offset, bytes as u32),
    }
}

/// Decode the one RPC frame an RDMA message carries.
fn decode(msg: &[u8]) -> Option<RpcFrame> {
    let mut dec = FrameDecoder::new();
    dec.extend(msg);
    dec.next_frame().ok().flatten()
}

/// A SOLAR response on the wire. It returns to the request's UDP source
/// port, so the reverse flow re-hashes whenever the client remaps a path.
fn solar_reply(link: Link, out: OutPacket, echo_int: Option<IntStack>, reply_port: u16) -> Packet {
    let is_data = out.hdr.op == EbsOp::ReadResp;
    let extra = if is_data {
        out.hdr.len as usize
    } else {
        echo_int.as_ref().map_or(0, IntStack::wire_len)
    };
    let flow = link.down(out.src_port, reply_port, PROTO_UDP);
    // Read responses collect fresh INT on the reverse path.
    let int = is_data.then(IntStack::with_path_capacity);
    let size = ebs_wire::SOLAR_OVERHEAD + extra;
    (flow, size, int, Msg::Solar(out.hdr, echo_int))
}

/// Stamp a fabric ECN mark on a SOLAR header as an echo request.
fn echo_ecn(mut hdr: EbsHeader, ecn: bool) -> EbsHeader {
    if ecn {
        hdr.flags |= ebs_wire::FLAG_ECN_ECHO;
    }
    hdr
}

/// Storage-side stack latency per served request: the rx and tx
/// crossings of whatever stack the variant's storage servers run.
pub(super) fn server_stack_latency(variant: Variant) -> SimDuration {
    match variant {
        Variant::Kernel => StackCosts::kernel().crossing_latency * 2,
        Variant::Luna => StackCosts::luna().crossing_latency * 2,
        Variant::Rdma => RdmaCosts::default_costs().crossing_latency * 2,
        // Storage-side SOLAR is a thin user-space UDP responder.
        Variant::SolarStar | Variant::Solar => SimDuration::from_micros(1),
    }
}
