//! `solar_loopback`: the SOLAR engines on real loopback UDP sockets, in
//! one thread.
//!
//! A `SolarClient` keeps [`DEPTH`] 8-block RPCs outstanding, one per
//! *slot*; each slot owns a private block region, so its reads always
//! know which version of each block they must return. Four in five RPCs
//! are writes. Every written block is ChaCha20-encrypted and CRC'd; the
//! responder checks the CRC before storing it; every read is checked with
//! `SegmentChecker`, decrypted and compared with the plaintext written.
//!
//! A run is a sequence of *rounds*. A round binds fresh sockets and
//! prefills every slot's region (the set-up), runs the closed loop until
//! [`ROUND_RPCS`] RPCs have completed, timing each [`CHUNK`] of them, then
//! lets the RPCs in flight finish untimed. Every round replays the same
//! RPCs, so a chunk does the same work in every round. With tracing on,
//! untraced and traced rounds alternate;
//! a traced round times every public call (span) it makes, and the time
//! no span covers is `host.other`.

use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use ebs_crc::{block_crc_raw, SegmentChecker, SegmentVerdict};
use ebs_crypto::SecEngine;
use ebs_sim::SimTime;
use ebs_solar::{
    InPacket, OutPacket, ReadBlock, RpcKind, ServerAction, SolarClient, SolarConfig, SolarEvent,
    SolarResponder, SolarStats, WriteBlock,
};
use ebs_wire::EbsHeader;

use crate::report::{quantile, sum_of_fastest, tail, Outcome};

const BLOCK: usize = 4096;
/// Blocks per RPC (32 KiB).
const RPC_BLOCKS: u64 = 8;
/// RPCs kept outstanding.
const DEPTH: usize = 4;
/// Blocks in each slot's region.
const SLOT_BLOCKS: u64 = 256;
/// Writes per thousand RPCs.
const WRITES_PER_MILLE: u64 = 800;
/// RPCs completed in the timed phase of one round.
const ROUND_RPCS: u64 = 4096;
/// RPCs per timed chunk. A chunk boundary falls with up to `DEPTH` RPCs
/// part done, which moves at most 1.6% of a chunk's work to its
/// neighbour.
const CHUNK: u64 = 256;
/// An RPC slower than this counts as failed, and one still in flight
/// this long ends its round. It is ten maximum retransmission timeouts.
const DEADLINE: Duration = Duration::from_millis(200);
/// Datagrams the client sends before the responder drains its socket,
/// which keeps bursts within the default socket buffer.
const TX_BURST: usize = RPC_BLOCKS as usize;
const VD: u64 = 1;
const SEGMENT: u64 = 100;

/// What a traced round times: one span per call into a layer.
#[derive(Debug, Clone, Copy)]
enum Span {
    Encode,
    Decode,
    Crc,
    Crypto,
    Client,
    Responder,
    Syscall,
}
const SPANS: usize = 7;

/// Span time per layer; free when off.
struct Ledger {
    on: bool,
    ns: [u64; SPANS],
}

impl Ledger {
    #[inline]
    fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns[span as usize] += t0.elapsed().as_nanos() as u64;
        r
    }
}

/// splitmix64: the benchmark's own input stream.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The plaintext of `version` of block `addr` under `seed`.
fn plaintext(seed: u64, addr: u64, version: u64) -> Vec<u8> {
    let base = mix(seed ^ addr.rotate_left(20) ^ version.rotate_left(44));
    (0..BLOCK as u64 / 8)
        .flat_map(|i| base.wrapping_add(i.wrapping_mul(GOLDEN)).to_le_bytes())
        .collect()
}

struct Inflight {
    rpc_id: u64,
    kind: RpcKind,
    first: u64,
    submitted: Instant,
    blocks: Vec<Option<(Bytes, u32)>>,
}

/// One outstanding-RPC slot and its private region.
struct Slot {
    base: u64,
    state: u64,
    /// Next block to prefill; `SLOT_BLOCKS` once the region is written.
    prefill: u64,
    versions: Vec<u64>,
    inflight: Option<Inflight>,
}

impl Slot {
    fn new(seed: u64, index: usize) -> Slot {
        Slot {
            base: index as u64 * SLOT_BLOCKS,
            state: mix(seed ^ (index as u64 + 1).wrapping_mul(GOLDEN)),
            prefill: 0,
            versions: vec![0; SLOT_BLOCKS as usize],
            inflight: None,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// The next RPC: sequential writes until the region is prefilled,
    /// then the seeded mix.
    fn choose(&mut self) -> (RpcKind, u64) {
        if self.prefill < SLOT_BLOCKS {
            let first = self.prefill;
            self.prefill += RPC_BLOCKS;
            return (RpcKind::Write, self.base + first);
        }
        let r = self.next();
        let kind = if r % 1000 < WRITES_PER_MILLE {
            RpcKind::Write
        } else {
            RpcKind::Read
        };
        let chunk = (r >> 32) % (SLOT_BLOCKS / RPC_BLOCKS);
        (kind, self.base + chunk * RPC_BLOCKS)
    }
}

/// Counts and span time of one round.
#[derive(Default)]
struct Tally {
    rpcs: u64,
    dgrams: u64,
    encoded: u64,
    decoded: u64,
    client_pkts: u64,
    responder_pkts: u64,
    blocks: u64,
}

struct RoundResult {
    setup: Duration,
    wall: Duration,
    /// Wall time of each chunk of the timed phase, seconds.
    chunks: Vec<f64>,
    /// Latency of each RPC that passed its checks, µs.
    lat_us: Vec<f64>,
    tally: Tally,
    /// RPCs that finished in set-up and the timed phase, and those of
    /// them that failed.
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    ns: [u64; SPANS],
    stats: SolarStats,
}

/// One round's sockets, engines, store and slots.
struct Round<'a> {
    seed: u64,
    sec: &'a SecEngine,
    client: SolarClient,
    responder: SolarResponder,
    csock: UdpSocket,
    ssock: UdpSocket,
    disk: Vec<Option<(Bytes, u32)>>,
    slots: Vec<Slot>,
    epoch: Instant,
    next_rpc: u64,
    ledger: Ledger,
    tx: BytesMut,
    rx: Vec<u8>,
    tally: Tally,
    lat_us: Vec<f64>,
    /// When each RPC that passed its checks completed.
    done_at: Vec<Instant>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// A full socket buffer drops the datagram, as a full queue would; the
/// transport's retransmission recovers it.
fn sent(r: std::io::Result<usize>) -> std::io::Result<()> {
    match r {
        Err(e) if e.kind() != ErrorKind::WouldBlock => Err(e),
        _ => Ok(()),
    }
}

fn bind() -> std::io::Result<(UdpSocket, UdpSocket)> {
    let ssock = UdpSocket::bind("127.0.0.1:0")?;
    let csock = UdpSocket::bind("127.0.0.1:0")?;
    csock.connect(ssock.local_addr()?)?;
    ssock.set_nonblocking(true)?;
    csock.set_nonblocking(true)?;
    Ok((csock, ssock))
}

impl<'a> Round<'a> {
    fn new(seed: u64, sec: &'a SecEngine) -> std::io::Result<Round<'a>> {
        let (csock, ssock) = bind()?;
        let now = Instant::now();
        Ok(Round {
            seed,
            sec,
            client: SolarClient::new(SolarConfig::default()),
            responder: SolarResponder::new(),
            csock,
            ssock,
            disk: vec![None; DEPTH * SLOT_BLOCKS as usize],
            slots: (0..DEPTH).map(|i| Slot::new(seed, i)).collect(),
            epoch: now,
            next_rpc: 1,
            ledger: Ledger {
                on: false,
                ns: [0; SPANS],
            },
            tx: BytesMut::with_capacity(EbsHeader::LEN + BLOCK),
            rx: vec![0; 16 * 1024],
            tally: Tally::default(),
            lat_us: Vec::new(),
            done_at: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn encode(&mut self, pkt: &OutPacket) {
        let tx = &mut self.tx;
        self.ledger.time(Span::Encode, || {
            tx.clear();
            pkt.hdr.encode(tx);
            tx.extend_from_slice(&pkt.payload);
        });
        self.tally.encoded += 1;
    }

    fn decode(&mut self, len: usize) -> Option<InPacket> {
        let rx = &self.rx[..len];
        self.tally.decoded += 1;
        self.ledger.time(Span::Decode, || {
            let mut cursor = rx;
            let hdr = EbsHeader::decode(&mut cursor).ok()?;
            Some(InPacket {
                hdr,
                payload: Bytes::copy_from_slice(cursor),
                int: None,
            })
        })
    }

    fn submit(&mut self, slot: usize) {
        let (kind, first) = self.slots[slot].choose();
        let rpc_id = self.next_rpc;
        self.next_rpc += 1;
        let now = self.now();
        match kind {
            RpcKind::Write => {
                let mut blocks = Vec::with_capacity(RPC_BLOCKS as usize);
                for addr in first..first + RPC_BLOCKS {
                    let s = &mut self.slots[slot];
                    let v = &mut s.versions[(addr - s.base) as usize];
                    *v += 1;
                    let mut data = plaintext(self.seed, addr, *v);
                    let sec = self.sec;
                    self.ledger
                        .time(Span::Crypto, || sec.encrypt_block(VD, addr, &mut data));
                    let crc = self.ledger.time(Span::Crc, || block_crc_raw(&data, BLOCK));
                    blocks.push(WriteBlock {
                        block_addr: addr,
                        payload: Bytes::from(data),
                        crc,
                    });
                }
                let client = &mut self.client;
                self.ledger.time(Span::Client, || {
                    client.submit_write(now, rpc_id, VD, SEGMENT, blocks)
                });
            }
            RpcKind::Read => {
                let blocks = (first..first + RPC_BLOCKS)
                    .map(|addr| ReadBlock {
                        block_addr: addr,
                        guest_addr: addr * BLOCK as u64,
                    })
                    .collect();
                let client = &mut self.client;
                self.ledger.time(Span::Client, || {
                    client.submit_read(now, rpc_id, VD, SEGMENT, blocks)
                });
            }
        }
        self.tally.blocks += RPC_BLOCKS;
        self.slots[slot].inflight = Some(Inflight {
            rpc_id,
            kind,
            first,
            submitted: Instant::now(),
            blocks: vec![None; RPC_BLOCKS as usize],
        });
    }

    /// Client transmit, at most `TX_BURST` datagrams.
    fn transmit(&mut self) -> std::io::Result<()> {
        for _ in 0..TX_BURST {
            let now = self.now();
            let client = &mut self.client;
            let Some(out) = self.ledger.time(Span::Client, || client.poll_transmit(now)) else {
                break;
            };
            self.tally.client_pkts += 1;
            self.encode(&out);
            let (sock, tx) = (&self.csock, &self.tx);
            sent(self.ledger.time(Span::Syscall, || sock.send(tx)))?;
            self.tally.dgrams += 1;
        }
        Ok(())
    }

    /// The responder drains its socket and answers every request.
    fn serve(&mut self) -> std::io::Result<()> {
        loop {
            let (sock, rx) = (&self.ssock, &mut self.rx);
            let (len, peer) = match self.ledger.time(Span::Syscall, || sock.recv_from(rx)) {
                Ok(x) => x,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            self.tally.dgrams += 1;
            let Some(pkt) = self.decode(len) else {
                self.problems
                    .push("responder got an undecodable datagram".into());
                continue;
            };
            self.tally.responder_pkts += 1;
            let responder = &mut self.responder;
            let reply = match self
                .ledger
                .time(Span::Responder, || responder.on_packet(pkt))
            {
                ServerAction::StoreBlock { hdr, data, int } => {
                    let crc = self.ledger.time(Span::Crc, || block_crc_raw(&data, BLOCK));
                    if crc != hdr.payload_crc {
                        self.problems
                            .push(format!("block {} arrived corrupt", hdr.block_addr));
                    }
                    match self.disk.get_mut(hdr.block_addr as usize) {
                        Some(b) => *b = Some((data, crc)),
                        None => self
                            .problems
                            .push(format!("write to block {} off the disk", hdr.block_addr)),
                    }
                    let responder = &mut self.responder;
                    Some(
                        self.ledger
                            .time(Span::Responder, || responder.write_ack(&hdr, int).0),
                    )
                }
                ServerAction::FetchBlock { hdr } => {
                    let (data, crc) = self
                        .disk
                        .get(hdr.block_addr as usize)
                        .cloned()
                        .flatten()
                        .unwrap_or_else(|| {
                            let zero = vec![0; BLOCK];
                            let crc = block_crc_raw(&zero, BLOCK);
                            (Bytes::from(zero), crc)
                        });
                    let responder = &mut self.responder;
                    Some(
                        self.ledger
                            .time(Span::Responder, || responder.read_resp(&hdr, data, crc)),
                    )
                }
                ServerAction::Reply(p) => Some(p),
                ServerAction::None => None,
            };
            if let Some(p) = reply {
                self.send_from_responder(&p, peer)?;
            }
        }
        loop {
            let responder = &mut self.responder;
            let Some(nack) = self
                .ledger
                .time(Span::Responder, || responder.poll_gap_nack())
            else {
                break;
            };
            let peer = self.csock.local_addr()?;
            self.send_from_responder(&nack, peer)?;
        }
        Ok(())
    }

    fn send_from_responder(
        &mut self,
        p: &OutPacket,
        peer: std::net::SocketAddr,
    ) -> std::io::Result<()> {
        self.encode(p);
        let (sock, tx) = (&self.ssock, &self.tx);
        sent(self.ledger.time(Span::Syscall, || sock.send_to(tx, peer)))?;
        self.tally.dgrams += 1;
        Ok(())
    }

    /// The client drains its socket, fires due timers and handles events,
    /// adding to `finished` each slot whose RPC finished.
    fn receive(&mut self, finished: &mut Vec<usize>) -> std::io::Result<()> {
        loop {
            let (sock, rx) = (&self.csock, &mut self.rx);
            let len = match self.ledger.time(Span::Syscall, || sock.recv(rx)) {
                Ok(len) => len,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            self.tally.dgrams += 1;
            let Some(pkt) = self.decode(len) else {
                self.problems
                    .push("client got an undecodable datagram".into());
                continue;
            };
            self.tally.client_pkts += 1;
            let now = self.now();
            let client = &mut self.client;
            self.ledger
                .time(Span::Client, || client.on_packet(now, pkt));
        }
        let now = self.now();
        let client = &mut self.client;
        self.ledger.time(Span::Client, || {
            if client.poll_timer().is_some_and(|t| t <= now) {
                client.on_timer(now);
            }
        });
        loop {
            let client = &mut self.client;
            let Some(ev) = self.ledger.time(Span::Client, || client.poll_event()) else {
                break;
            };
            match ev {
                SolarEvent::BlockReceived {
                    rpc_id,
                    block_addr,
                    data,
                    crc,
                    ..
                } => {
                    let slot = self.slot_of(rpc_id);
                    let Some(f) = slot.and_then(|s| self.slots[s].inflight.as_mut()) else {
                        continue;
                    };
                    if let Some(b) = block_addr
                        .checked_sub(f.first)
                        .and_then(|i| f.blocks.get_mut(i as usize))
                    {
                        *b = Some((data, crc));
                    }
                }
                SolarEvent::RpcCompleted { rpc_id, .. } => {
                    if let Some(s) = self.slot_of(rpc_id) {
                        self.complete(s, true);
                        finished.push(s);
                    }
                }
                SolarEvent::RpcFailed { rpc_id } => {
                    if let Some(s) = self.slot_of(rpc_id) {
                        self.complete(s, false);
                        finished.push(s);
                    }
                }
                SolarEvent::PathDown { .. } | SolarEvent::PathUp { .. } => {}
            }
        }
        Ok(())
    }

    fn slot_of(&self, rpc_id: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.inflight.as_ref().is_some_and(|f| f.rpc_id == rpc_id))
    }

    /// Finish the slot's RPC: time it and verify what a read returned.
    fn complete(&mut self, slot: usize, ok: bool) {
        let f = self.slots[slot]
            .inflight
            .take()
            .expect("only in-flight slots complete");
        let latency = f.submitted.elapsed();
        self.attempted += 1;
        let mut why = None;
        if !ok {
            why = Some("failed upward".to_string());
        } else if latency > DEADLINE {
            why = Some(format!("missed the deadline ({latency:?})"));
        } else if f.kind == RpcKind::Read {
            why = self.verify_read(slot, &f).err();
        }
        match why {
            Some(w) => {
                self.failed += 1;
                self.problems.push(format!("rpc {}: {w}", f.rpc_id));
            }
            None => {
                self.tally.rpcs += 1;
                self.lat_us.push(latency.as_secs_f64() * 1e6);
                self.done_at.push(Instant::now());
            }
        }
    }

    fn verify_read(&mut self, slot: usize, f: &Inflight) -> Result<(), String> {
        let mut blocks = Vec::with_capacity(f.blocks.len());
        for (i, b) in f.blocks.iter().enumerate() {
            blocks.push(b.clone().ok_or_else(|| format!("block {i} missing"))?);
        }
        let verdict = self.ledger.time(Span::Crc, || {
            let mut checker = SegmentChecker::new(BLOCK);
            for (data, crc) in &blocks {
                checker.add_block(data, *crc);
            }
            checker.verify_and_reset()
        });
        if verdict != SegmentVerdict::Ok {
            return Err(format!("segment CRC check: {verdict:?}"));
        }
        let s = &self.slots[slot];
        for (i, (data, _)) in blocks.into_iter().enumerate() {
            let addr = f.first + i as u64;
            let mut data = data.to_vec();
            let sec = self.sec;
            self.ledger
                .time(Span::Crypto, || sec.decrypt_block(VD, addr, &mut data));
            let version = s.versions[(addr - s.base) as usize];
            if data != plaintext(self.seed, addr, version) {
                return Err(format!("block {addr} does not read back version {version}"));
            }
        }
        Ok(())
    }

    /// Run the closed loop until `stop` says so; a slot whose RPC finished
    /// submits again when `refill` allows it. An RPC in flight for longer
    /// than [`DEADLINE`] fails and ends the loop.
    fn drive(
        &mut self,
        stop: impl Fn(&Round) -> bool,
        refill: impl Fn(&Slot) -> bool,
    ) -> std::io::Result<()> {
        let mut finished = Vec::with_capacity(DEPTH);
        while !stop(self) {
            self.transmit()?;
            self.serve()?;
            self.receive(&mut finished)?;
            for s in finished.drain(..) {
                if refill(&self.slots[s]) {
                    self.submit(s);
                }
            }
            let oldest = self.slots.iter().filter_map(|s| s.inflight.as_ref());
            if let Some(f) = oldest.min_by_key(|f| f.submitted) {
                if f.submitted.elapsed() > DEADLINE {
                    let why = format!("rpc {}: still in flight after {DEADLINE:?}", f.rpc_id);
                    self.attempted += 1;
                    self.failed += 1;
                    self.problems.push(why);
                    break;
                }
            }
        }
        Ok(())
    }
}

fn round(seed: u64, sec: &SecEngine, traced: bool) -> std::io::Result<RoundResult> {
    let idle = |r: &Round| r.slots.iter().all(|s| s.inflight.is_none());
    let t0 = Instant::now();
    let mut r = Round::new(seed, sec)?;
    // Set-up: prefill each slot's region with sequential writes.
    for s in 0..DEPTH {
        r.submit(s);
    }
    r.drive(idle, |s| s.prefill < SLOT_BLOCKS)?;
    let setup = t0.elapsed();

    r.tally = Tally::default();
    r.lat_us.clear();
    r.done_at.clear();
    r.ledger.on = traced;
    let stats0 = r.client.stats();
    let start = Instant::now();
    for s in 0..DEPTH {
        r.submit(s);
    }
    r.drive(|r| r.tally.rpcs >= ROUND_RPCS, |_| true)?;
    let wall = start.elapsed();
    let mut chunks = Vec::new();
    let mut from = start;
    for at in r
        .done_at
        .iter()
        .skip(CHUNK as usize - 1)
        .step_by(CHUNK as usize)
    {
        chunks.push(at.duration_since(from).as_secs_f64());
        from = *at;
    }
    let stats = r.client.stats();
    let tally = std::mem::take(&mut r.tally);
    let ns = r.ledger.ns;
    // Untimed: the RPCs still in flight finish, under the same checks and
    // deadline, before the round's failures are counted.
    r.ledger.on = false;
    r.drive(idle, |_| false)?;
    Ok(RoundResult {
        setup,
        wall,
        chunks,
        lat_us: std::mem::take(&mut r.lat_us),
        attempted: r.attempted,
        failed: r.failed,
        problems: std::mem::take(&mut r.problems),
        ns,
        stats: SolarStats {
            pkts_sent: stats.pkts_sent - stats0.pkts_sent,
            retransmits: stats.retransmits - stats0.retransmits,
            timeouts: stats.timeouts - stats0.timeouts,
            ..stats
        },
        tally,
    })
}

/// Run `solar_loopback` for `budget`, alternating traced rounds in when
/// `trace`.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let start = Instant::now();
    let sec = SecEngine::new(
        mix(seed)
            .to_le_bytes()
            .repeat(4)
            .try_into()
            .expect("32-byte key"),
    );
    let mut out = Outcome::default();
    let (mut plain, mut traced): (Vec<RoundResult>, Vec<RoundResult>) = (Vec::new(), Vec::new());
    loop {
        let tracing = trace && traced.len() < plain.len();
        let t0 = Instant::now();
        let r = match round(seed, &sec, tracing) {
            Ok(r) => r,
            Err(e) => {
                out.problems.push(format!("socket error: {e}"));
                return out;
            }
        };
        let last = t0.elapsed();
        eprintln!(
            "  round {}{}: set-up {:.4} s, {:.0} RPCs/s",
            plain.len() + traced.len() + 1,
            if tracing { " (traced)" } else { "" },
            r.setup.as_secs_f64(),
            r.tally.rpcs as f64 / r.wall.as_secs_f64()
        );
        out.record_peak_rss();
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.problems.extend(r.problems.iter().cloned());
        if tracing {
            traced.push(r);
        } else {
            plain.push(r);
        }
        // Stop before a round would overrun the budget.
        let enough = plain.len() >= 2 && (!trace || !traced.is_empty());
        if enough && start.elapsed() + last >= budget {
            break;
        }
    }

    // Every round does the same work in every chunk, so a chunk's fastest
    // time across rounds is its time with the least interference from
    // the rest of the host.
    let fastest_rate = |rounds: &[RoundResult]| {
        let chunks: Vec<&[f64]> = rounds.iter().map(|r| r.chunks.as_slice()).collect();
        let n = chunks.iter().map(|c| c.len()).min().unwrap_or(0);
        (n as u64 * CHUNK) as f64 / sum_of_fastest(&chunks)
    };
    let plain_rate = fastest_rate(&plain);
    let lat: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.lat_us.iter().copied())
        .collect();
    out.set("ios_per_s", plain_rate);
    out.set("step_p50_us", quantile(&lat, 0.50));
    out.set("step_p99_us", tail(&lat));
    // The fastest set-up, for the same reason as the fastest chunks.
    out.set(
        "setup_s",
        plain
            .iter()
            .map(|r| r.setup.as_secs_f64())
            .fold(f64::INFINITY, f64::min),
    );
    out.set("bench.step_samples", lat.len() as f64);

    let rpcs: u64 = plain.iter().map(|r| r.tally.rpcs).sum();
    let sum = |f: fn(&SolarStats) -> u64| plain.iter().map(|r| f(&r.stats)).sum::<u64>();
    out.set(
        "solar.pkts_per_io",
        sum(|s| s.pkts_sent) as f64 / rpcs.max(1) as f64,
    );
    out.set("solar.retransmits", sum(|s| s.retransmits) as f64);
    out.set("solar.timeouts", sum(|s| s.timeouts) as f64);

    if !traced.is_empty() {
        let mut ns = [0u64; SPANS];
        let mut t = Tally::default();
        let mut wall = 0u64;
        for r in &traced {
            for (a, b) in ns.iter_mut().zip(r.ns) {
                *a += b;
            }
            t.encoded += r.tally.encoded;
            t.decoded += r.tally.decoded;
            t.dgrams += r.tally.dgrams;
            t.client_pkts += r.tally.client_pkts;
            t.responder_pkts += r.tally.responder_pkts;
            t.blocks += r.tally.blocks;
            wall += r.wall.as_nanos() as u64;
        }
        let spanned: u64 = ns.iter().sum();
        // Spans never nest, so they cannot cover more than the wall.
        let Some(other) = wall.checked_sub(spanned) else {
            out.problems
                .push(format!("spans cover {spanned} ns of a {wall} ns round"));
            return out;
        };
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        out.set("wire.encode_ns", per(ns[Span::Encode as usize], t.encoded));
        out.set("wire.decode_ns", per(ns[Span::Decode as usize], t.decoded));
        out.set("crc.ns_per_block", per(ns[Span::Crc as usize], t.blocks));
        out.set(
            "crypto.ns_per_block",
            per(ns[Span::Crypto as usize], t.blocks),
        );
        out.set(
            "solar.client_ns_per_pkt",
            per(ns[Span::Client as usize], t.client_pkts),
        );
        out.set(
            "solar.responder_ns_per_pkt",
            per(ns[Span::Responder as usize], t.responder_pkts),
        );
        out.set(
            "host.syscall_ns_per_dgram",
            per(ns[Span::Syscall as usize], t.dgrams),
        );
        out.set("host.other_ns_per_block", per(other, t.blocks));
        let traced_rate = fastest_rate(&traced);
        out.set("bench.trace_overhead_frac", plain_rate / traced_rate - 1.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(plaintext(1, 5, 2), plaintext(1, 5, 2));
        assert_ne!(plaintext(1, 5, 2), plaintext(1, 5, 3));
        assert_ne!(plaintext(1, 5, 2), plaintext(2, 5, 2));
        let picks = |seed| {
            let mut s = Slot::new(seed, 1);
            (0..64).map(|_| s.choose()).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn slot_prefills_its_region_then_stays_in_it() {
        let mut s = Slot::new(3, 2);
        let prefill: Vec<_> = (0..SLOT_BLOCKS / RPC_BLOCKS).map(|_| s.choose()).collect();
        assert!(prefill.iter().all(|(k, _)| *k == RpcKind::Write));
        assert_eq!(prefill[0].1, 2 * SLOT_BLOCKS);
        let mut writes = 0;
        for _ in 0..10_000 {
            let (kind, first) = s.choose();
            assert!(first >= s.base && first + RPC_BLOCKS <= s.base + SLOT_BLOCKS);
            assert_eq!(first % RPC_BLOCKS, 0);
            writes += u64::from(kind == RpcKind::Write);
        }
        assert!((7_500..8_500).contains(&writes), "{writes} writes of 10000");
    }

    #[test]
    fn an_rpc_past_its_deadline_fails() {
        let sec = SecEngine::new([7; 32]);
        let mut r = Round::new(5, &sec).expect("loopback sockets");
        r.submit(0);
        let f = r.slots[0].inflight.as_mut().expect("submitted");
        f.submitted = Instant::now() - 2 * DEADLINE;
        r.drive(|r| r.slots.iter().all(|s| s.inflight.is_none()), |_| false)
            .expect("loopback I/O");
        assert_eq!((r.attempted, r.failed), (1, 1), "{:?}", r.problems);
    }

    #[test]
    fn a_short_run_verifies_every_read() {
        let out = run(11, Duration::from_millis(1), true);
        assert!(out.correct(), "{:?}", out.problems);
        assert!(out.attempted > 0);
        assert!(out.values["bench.step_samples"] > 0.0);
        assert!(out.values["host.other_ns_per_block"] >= 0.0);
    }
}
