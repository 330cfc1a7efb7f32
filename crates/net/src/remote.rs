//! TCP-loopback engine: the protocols over a real socket.
//!
//! [`RemoteEngine`] hosts the server coordinator in the current process and
//! the node population as *client connections*: construction binds a TCP
//! listener on `127.0.0.1`, spawns one client per shard (a contiguous node
//! range, the same `partition.rs` arithmetic the sharded engine uses), and
//! waits for each client to connect and identify itself with a `Join` frame. Every [`Network`] operation is then encoded with
//! `topk-wire`, framed, and moved through the sockets — the messages the
//! paper charges for genuinely cross a transport instead of a function call.
//!
//! ## Frame discipline
//!
//! Each `Network` call produces at most one [`Frame::Batch`] per involved
//! shard connection. Pure commands (observations, filter/group updates,
//! parameter broadcasts, end-of-run announcements) are *fire-and-forget*:
//! TCP's per-connection ordering guarantees a shard applies them before any
//! later frame, so the server never blocks on them. Operations that the
//! model answers upstream — probes and existence rounds — set the batch's
//! `wants_reply` flag and a per-connection sequence number, and the server
//! then reads exactly one matching [`Frame::Replies`] per queried shard,
//! *in shard order*. Shards are contiguous ascending id ranges and every
//! shard replies in ascending node id order, so the concatenation is the
//! global id order — the reply order of
//! [`DeterministicEngine`](crate::DeterministicEngine).
//!
//! Observations — from `advance_time` and `advance_time_sparse` alike — go
//! out as whichever of a dense `ObserveRow` and a sparse `ObserveSparse`
//! list of the changed entries encodes shorter, per shard, and a shard none
//! of whose values changed gets no frame: re-observing an unchanged value is
//! a no-op for a [`SimNode`] (see its invariant).
//!
//! **Idle shards.** A shard answering an existence round also
//! says whether *none* of its nodes satisfies the round's predicate, and
//! the server then skips it for the rest of that run. The shard computes
//! the signal in the pass that flips the coins; a node whose predicate
//! fails neither replies nor draws randomness, and its predicate can change
//! only through a frame the server sends to its shard. Hence the rules:
//! every frame sent to a shard ends its idle mark (one place, `Conn::send`);
//! a reconnect starts without one; a round with a different `(predicate,
//! population)` clears every mark; round 0 of every run asks every shard;
//! and every round is charged to the meter whether any shard was asked or
//! not. Replies, `CommStats`, RNG streams and node state therefore stay
//! bit-identical, while a silent step costs each occupied shard at most
//! three frames (observation, round-0 query, reply) instead of
//! `1 + 2·(⌈log₂ n⌉ + 1)`.
//!
//! ## Timeouts, polls and lossy transports
//!
//! [`RemoteEngine::with_fault_spec`] arms the reply path against loss: the
//! server sets a read timeout on every connection and, when the answer to a
//! `wants_reply` batch does not arrive within the deadline, sends a
//! [`Frame::Poll`] for the missing sequence number instead of hanging. The
//! client retains its last reply and answers the poll from that copy;
//! sequence numbers let the server discard a duplicate (original and poll
//! answer both arriving) instead of mistaking it for the next round's
//! answer. Each poll is charged one model downstream unicast under
//! [`ProtocolLabel::Recovery`], so recovery traffic is separable in the
//! `CommStats`; the replies themselves are charged once, on acceptance.
//! Mid-frame timeouts are safe because the reply path reads through a
//! [`FrameAccumulator`] (`topk-wire`), which parks partial frames across
//! timeouts instead of desynchronising the stream.
//!
//! The injected faults are *frame-granular*: the client drops whole reply
//! frames with the spec's upstream-drop probability, seeded per shard from
//! [`FaultSpec::seed`]. Message-granular faults (per-reply latency, crash /
//! rejoin, reordering) live in [`FaultyTransport`](crate::FaultyTransport),
//! which wraps in-process engines — the two layers exercise the same spec
//! vocabulary at the granularity each transport actually has. Poll *counts*
//! depend on real socket timing and are therefore not bit-reproducible;
//! correctness (replies, node state, non-recovery `CommStats`) is.
//!
//! ## Membership, reconnects and the wire version
//!
//! [`Network::apply_membership`] churns the *model* population: leavers'
//! streams collapse to `0`, joiners are reseeded from `(master seed, id,
//! generation)` and brought up to date under the `Recovery` label — the
//! normative semantics in `docs/FAULTS.md`, applied here by shipping the
//! events to the owning shard as [`ServerOp::Membership`] so both sides of
//! the socket make the identical state transitions.
//!
//! Orthogonally, [`RemoteEngine::disconnect_shard`] /
//! [`RemoteEngine::reconnect_shard`] churn the *transport*: once every slot
//! of a shard has left the population, its connection can be torn down
//! through an orderly goodbye ([`Frame::Shutdown`] out, [`Frame::Leave`]
//! back) and later re-established with a fresh client. Two defenses keep a
//! stale reconnected shard from poisoning the stream: the `Join` handshake
//! names the shard (a connection claiming the wrong shard is refused), and
//! the replacement connection inherits the retired one's sequence counter,
//! so any reply a previous incarnation left in flight is numbered below
//! every awaited sequence and falls into the duplicate-discard path.
//! Reconnection is free in the model — parameters are replayed as
//! connection state transfer; the slots stay dead until membership `Join`
//! events re-admit them (charging their recovery replay normally).
//!
//! There is no version negotiation. The engine spawns its own shard clients
//! from the same build, so both ends seal every frame, the `Join` included,
//! at [`WIRE_VERSION`](topk_wire::WIRE_VERSION), and either end refuses a
//! frame at any other version (`docs/WIRE.md`, "Versioning rules"). The
//! handshake also refuses a `Join` naming a shard the engine does not have:
//! any local process can reach the loopback listener.
//!
//! ## Why the engine is bit-identical to the in-process baseline
//!
//! The clients drive the very same [`SimNode`] state machine on the very
//! same per-node `(master seed, node id)` RNG streams, and the wire format
//! round-trips every message losslessly (`topk-wire`'s proptests). A node's
//! RNG advances only inside its own coin flip, so neither the sharding nor
//! the transport can perturb any random stream; the id-ordered reply merge
//! restores the baseline's reply sequence; and the server charges the
//! [`CostMeter`] with exactly the baseline's accounting rules. Hence
//! replies, `CommStats` and all node state match the baseline bit for bit —
//! `tests/indexed_differential.rs` proves it over randomized schedules, and
//! `topk-core`'s monitors run unchanged over loopback.
//!
//! ## Server-side state mirror
//!
//! The free `peek_*` inspection API must not generate traffic (peeks are
//! not part of the model). The server therefore mirrors the deterministic
//! part of node state — values it delivered, filters/groups/params it sent —
//! in a [`NodeStateSoA`] and answers peeks locally. The mirror cannot drift:
//! filters derive through the same pure [`filter_for`] both sides evaluate,
//! and the differential battery asserts mirror state equals the baseline's
//! node state after every schedule.

use crate::network::Network;
use crate::node::{Coin, SimNode};
use crate::partition::{shard_bounds, shard_of};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_model::rule::filter_for;
use topk_model::soa::NodeStateSoA;
use topk_wire::{read_frame, varint, write_frame, Frame, FrameAccumulator, ServerOp, WireError};

/// Deterministic retry schedule for the reply-wait and reconnect paths.
///
/// Attempt `i` (0-indexed) waits `min(base · multiplierⁱ, cap)`; after
/// `max_attempts` misses the peer is declared dead and the engine panics.
/// The schedule is pure data — two engines configured with the same policy
/// arm the same sequence of deadlines, so fault experiments can state their
/// retry behaviour exactly instead of inheriting a hardcoded constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline of the first attempt.
    pub base: Duration,
    /// Multiplicative backoff applied per further attempt (1 = fixed).
    pub multiplier: u32,
    /// Ceiling no deadline exceeds, however many attempts have passed.
    pub cap: Duration,
    /// Attempts before the peer is declared dead.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Creates a policy, validating every field.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero (not a valid socket deadline), `multiplier`
    /// is zero (deadlines would collapse to zero), `cap < base`, or
    /// `max_attempts` is zero (the first miss would be fatal).
    pub fn new(base: Duration, multiplier: u32, cap: Duration, max_attempts: u32) -> RetryPolicy {
        assert!(!base.is_zero(), "retry base deadline must be non-zero");
        assert!(multiplier >= 1, "retry multiplier must be at least 1");
        assert!(cap >= base, "retry cap must be at least the base deadline");
        assert!(max_attempts >= 1, "at least one retry attempt is required");
        RetryPolicy {
            base,
            multiplier,
            cap,
            max_attempts,
        }
    }

    /// Capped exponential backoff from `base`: doubling deadlines up to
    /// `base × 8`, 32 attempts. The drop-in replacement for the former
    /// fixed-deadline, 32-poll rule — same first deadline, same give-up
    /// point, but patient with a peer that is slow rather than lossy.
    pub fn backoff_from(base: Duration) -> RetryPolicy {
        RetryPolicy::new(base, 2, base.saturating_mul(8), 32)
    }

    /// The deadline armed for 0-indexed `attempt`.
    pub fn deadline(&self, attempt: u32) -> Duration {
        self.base
            .saturating_mul(self.multiplier.saturating_pow(attempt.min(32)))
            .min(self.cap)
    }
}

impl Default for RetryPolicy {
    /// 20 ms doubling to a 160 ms cap, 32 attempts.
    fn default() -> RetryPolicy {
        RetryPolicy::backoff_from(Duration::from_millis(20))
    }
}

/// Transport-level counters of a [`RemoteEngine`] (all connections summed).
///
/// These measure *wire* activity — frames and bytes — as opposed to the
/// `CommStats` *model* accounting (one unit per protocol message). The
/// throughput harness's remote rows report both, per step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames the server wrote to shard connections.
    pub frames_sent: u64,
    /// Frames the server read from shard connections.
    pub frames_received: u64,
    /// Bytes written, including length prefixes and frame headers.
    pub bytes_sent: u64,
    /// Bytes read, including length prefixes and frame headers.
    pub bytes_received: u64,
    /// Reply deadlines that elapsed and were degraded to [`Frame::Poll`]
    /// retries ([`RetryPolicy`] attempts past the first). Zero on a reliable
    /// transport; timing-dependent on a lossy one.
    pub polls_sent: u64,
    /// Times this connection was torn down and re-established through the
    /// reconnect path.
    pub reconnects: u64,
}

impl TransportStats {
    /// Total frames moved in either direction.
    pub fn frames(&self) -> u64 {
        self.frames_sent + self.frames_received
    }

    /// Total bytes moved in either direction.
    pub fn bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Folds `other` into `self`, field by field.
    fn absorb(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.polls_sent += other.polls_sent;
        self.reconnects += other.reconnects;
    }
}

/// One framed server-side connection to a shard client.
struct Conn {
    writer: BufWriter<TcpStream>,
    /// Raw stream + resumable accumulator instead of a blocking buffered
    /// reader: a read timeout may strike mid-frame, and the accumulator
    /// parks the partial frame instead of desynchronising the stream.
    reader: TcpStream,
    acc: FrameAccumulator,
    /// Next sequence number for a `wants_reply` batch (0 is reserved for
    /// fire-and-forget batches). Survives reconnects — a replacement
    /// connection inherits the old one's counter, so any stale reply a
    /// previous incarnation produced is numbered below every sequence this
    /// one awaits and falls into the duplicate-discard path instead of
    /// poisoning the stream.
    next_seq: u64,
    /// The read deadline currently armed on the socket (`None` = blocking
    /// reads). Tracked so the engine can prove the backoff schedule resets:
    /// after a successful reply — and on a freshly accepted (re)connection —
    /// this must be back at the policy's *base* deadline, never a leftover
    /// escalated one.
    armed_deadline: Option<Duration>,
    /// The idle mark: the shard's accepted answer to the last existence
    /// round carried the idle signal — none of its nodes satisfies the
    /// round's predicate — and the server has sent it nothing since. Set
    /// only by [`Conn::recv_replies`]; cleared by every [`Conn::send`] and by
    /// a round that asks a new question; `false` on a fresh (re)connection.
    idle: bool,
    stats: TransportStats,
}

impl Conn {
    fn send(&mut self, frame: &Frame) {
        // Any frame may change what the shard's predicates evaluate to, so
        // it ends the idle mark — one place, not one per mutator.
        self.idle = false;
        let bytes = write_frame(&mut self.writer, frame)
            .unwrap_or_else(|e| panic!("remote transport: failed to send frame: {e}"));
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes as u64;
    }

    /// Sends a `wants_reply` batch, stamping it with the next sequence
    /// number, and returns that number for the matching receive.
    fn send_query(&mut self, ops: Vec<ServerOp>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.send(&Frame::Batch {
            wants_reply: true,
            seq,
            ops,
        });
        seq
    }

    /// Receives the reply for `seq`, degrading a missed deadline to a
    /// [`Frame::Poll`] (charged as a recovery downstream unicast on `meter`)
    /// and discarding duplicate answers to earlier polls. Each further wait
    /// re-arms the socket with the policy's next backoff deadline; the base
    /// deadline is restored once the reply lands. The accepted reply's idle
    /// signal becomes the connection's idle mark (a poll answer carries the
    /// signal of the reply it repeats).
    ///
    /// Without a configured read timeout this never observes a deadline and
    /// behaves exactly like the blocking v1 reader.
    fn recv_replies(
        &mut self,
        seq: u64,
        meter: &mut CostMeter,
        policy: Option<&RetryPolicy>,
    ) -> Vec<NodeMessage> {
        let mut attempts = 0u32;
        loop {
            match self.acc.read_frame(&mut self.reader) {
                Ok(Some((frame, bytes))) => {
                    self.stats.frames_received += 1;
                    self.stats.bytes_received += bytes as u64;
                    match frame {
                        Frame::Replies {
                            seq: got,
                            replies,
                            idle,
                        } if got == seq => {
                            if attempts > 0 {
                                let policy = policy.expect("attempts imply a policy");
                                self.arm_deadline(policy.deadline(0));
                            }
                            self.idle = idle;
                            return replies;
                        }
                        Frame::Replies { seq: got, .. } if got < seq => {
                            // A duplicate answer to an earlier poll (both the
                            // original and the poll answer arrived), or a
                            // stale reply from before a reconnect: discard.
                        }
                        Frame::Replies { seq: got, .. } => {
                            panic!("remote transport: reply {got} from the future (awaiting {seq})")
                        }
                        other => panic!("remote transport: expected a reply frame, got {other:?}"),
                    }
                }
                Ok(None) => {
                    // Deadline missed: the reply (or the batch's effect) may
                    // be lost. Degrade to a poll instead of hanging, and back
                    // off so a slow-but-healthy peer is not buried in polls.
                    let policy =
                        policy.expect("remote transport: deadline observed without a retry policy");
                    attempts += 1;
                    assert!(
                        attempts <= policy.max_attempts,
                        "remote transport: no reply for seq {seq} within {} deadlines — peer unresponsive",
                        policy.max_attempts
                    );
                    self.arm_deadline(policy.deadline(attempts));
                    meter.push_label(ProtocolLabel::Recovery);
                    meter.record(MessageKind::DownstreamUnicast);
                    meter.pop_label();
                    self.stats.polls_sent += 1;
                    self.send(&Frame::Poll { seq });
                }
                Err(e) => panic!("remote transport: failed to read reply frame: {e}"),
            }
        }
    }

    fn arm_deadline(&mut self, deadline: Duration) {
        self.reader
            .set_read_timeout(Some(deadline))
            .expect("remote transport: cannot set read timeout");
        self.armed_deadline = Some(deadline);
    }
}

/// TCP-loopback engine (see the module documentation).
pub struct RemoteEngine {
    /// Server-side mirror of node values/filters/groups, for free peeks.
    mirror: NodeStateSoA,
    /// Last broadcast parameters (for the mirror's filter re-derivation).
    params: Option<FilterParams>,
    /// One connection per shard, indexed by shard; `bounds[s]..bounds[s+1]`
    /// is the node range of shard `s`. `None` while a shard is disconnected
    /// (between [`RemoteEngine::disconnect_shard`] and
    /// [`RemoteEngine::reconnect_shard`]).
    conns: Vec<Option<Conn>>,
    bounds: Vec<usize>,
    handles: Vec<Option<JoinHandle<()>>>,
    meter: CostMeter,
    /// Retained for reseeding joining nodes and respawning shard clients.
    master_seed: u64,
    /// Live/generation map driving observation masking and join replay.
    population: Population,
    /// Scratch row for masking dead slots out of dense observations.
    masked_row: Vec<Value>,
    /// Per-shard observation changes awaiting an `ObserveSparse` frame, and
    /// the shard row of an `ObserveRow` frame: both recycled across steps.
    routed: Vec<Vec<(NodeId, Value)>>,
    row: Vec<Value>,
    /// The op list of the last fire-and-forget batch, recycled likewise.
    ops: Vec<ServerOp>,
    /// `(predicate, population)` of the last existence round sent. The idle
    /// marks answer "does any node satisfy this predicate?", so they refer
    /// to this key only.
    round_key: Option<(ExistencePredicate, u32)>,
    /// Kept open for the reconnect path (dropping it would close the port).
    listener: TcpListener,
    /// `(seed, drop_permille)` of the fault spec, if lossy — respawned shard
    /// clients inherit it.
    faults: Option<(u64, u32)>,
    /// Reply-deadline/backoff schedule; `None` means blocking reads.
    policy: Option<RetryPolicy>,
    /// Per-shard counters of connections that were since torn down, so
    /// transport totals never move backwards across reconnects.
    retired: Vec<TransportStats>,
    /// Per-shard sequence floor carried across reconnects: a replacement
    /// connection resumes numbering here, keeping every awaited sequence
    /// strictly above anything a previous incarnation could have produced.
    seq_floor: Vec<u64>,
}

impl std::fmt::Debug for RemoteEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteEngine")
            .field("n", &self.mirror.len())
            .field("shards", &self.conns.len())
            .field("transport", &self.transport_stats())
            .finish()
    }
}

impl RemoteEngine {
    /// Creates an engine with `n` nodes on as many shard connections as the
    /// machine has usable parallelism (at least one, at most `n`), with
    /// per-node RNGs derived from `master_seed` exactly like every other
    /// engine's.
    ///
    /// ```
    /// use topk_net::{Network, RemoteEngine};
    ///
    /// let mut net = RemoteEngine::new(4, 7);
    /// net.advance_time(&[10, 20, 30, 40]);
    /// assert_eq!(net.probe(topk_model::NodeId(2)), 30);
    /// ```
    pub fn new(n: usize, master_seed: u64) -> RemoteEngine {
        let parallelism = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        RemoteEngine::with_shards(n, master_seed, parallelism.clamp(1, n.max(1)))
    }

    /// Creates an engine with an explicit shard (connection) count.
    ///
    /// Shard `s` hosts the contiguous node range `⌊s·n/W⌋ .. ⌊(s+1)·n/W⌋`;
    /// shard counts above `n` leave the surplus connections empty but
    /// functional.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or if binding the loopback listener or
    /// completing the join handshake fails.
    pub fn with_shards(n: usize, master_seed: u64, shards: usize) -> RemoteEngine {
        RemoteEngine::build(n, master_seed, shards, None, None)
    }

    /// Creates an engine on a lossy transport: shard clients drop whole
    /// reply frames with the spec's upstream-drop probability (seeded per
    /// shard from [`FaultSpec::seed`]), and the server arms every connection
    /// with `timeout` so a missing reply degrades to a [`Frame::Poll`]
    /// within the deadline instead of hanging (see the module docs).
    ///
    /// Only `seed` and `drop_upstream_permille` of the spec apply here —
    /// the wire transport injects faults at frame granularity; the
    /// message-granular fault families live in
    /// [`FaultyTransport`](crate::FaultyTransport).
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed, if `shards == 0`, if `timeout` is
    /// zero (a zero read timeout is not a valid socket deadline), or if the
    /// handshake fails.
    pub fn with_fault_spec(
        n: usize,
        master_seed: u64,
        shards: usize,
        spec: &FaultSpec,
        timeout: Duration,
    ) -> RemoteEngine {
        assert!(!timeout.is_zero(), "reply deadline must be non-zero");
        RemoteEngine::with_fault_policy(
            n,
            master_seed,
            shards,
            spec,
            RetryPolicy::backoff_from(timeout),
        )
    }

    /// Like [`RemoteEngine::with_fault_spec`], but with an explicit
    /// [`RetryPolicy`] instead of the default capped-exponential schedule
    /// derived from a single deadline.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed, if `shards == 0`, or if the
    /// handshake fails.
    pub fn with_fault_policy(
        n: usize,
        master_seed: u64,
        shards: usize,
        spec: &FaultSpec,
        policy: RetryPolicy,
    ) -> RemoteEngine {
        spec.validate();
        RemoteEngine::build(
            n,
            master_seed,
            shards,
            Some((spec.seed, spec.drop_upstream_permille)),
            Some(policy),
        )
    }

    fn build(
        n: usize,
        master_seed: u64,
        shards: usize,
        faults: Option<(u64, u32)>,
        policy: Option<RetryPolicy>,
    ) -> RemoteEngine {
        assert!(shards > 0, "at least one shard connection is required");
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).expect("remote transport: cannot bind loopback");
        let addr = listener
            .local_addr()
            .expect("remote transport: listener has no local address");
        let bounds = shard_bounds(n, shards);
        let handles: Vec<Option<JoinHandle<()>>> = (0..shards)
            .map(|s| {
                let (lo, hi) = (bounds[s], bounds[s + 1]);
                let table = ShardNodes::new(lo, master_seed, vec![0; hi - lo]);
                Some(
                    std::thread::Builder::new()
                        .name(format!("topk-shard-{s}"))
                        .spawn(move || run_shard_client(addr, s as u32, master_seed, faults, table))
                        .expect("remote transport: cannot spawn shard client"),
                )
            })
            .collect();
        // Accept every client and slot it by the shard index in its Join
        // frame — accept order is scheduler-dependent, the handshake is not.
        let mut slots: Vec<Option<Conn>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            let (conn, shard) = accept_shard(&listener, policy.as_ref(), shards);
            let slot = &mut slots[shard];
            assert!(slot.is_none(), "shard {shard} joined twice");
            *slot = Some(conn);
        }
        debug_assert!(slots.iter().all(Option::is_some), "all shards joined");
        RemoteEngine {
            mirror: NodeStateSoA::new(n),
            params: None,
            conns: slots,
            bounds,
            handles,
            meter: CostMeter::new(),
            master_seed,
            population: Population::new(n),
            masked_row: Vec::new(),
            routed: vec![Vec::new(); shards],
            row: Vec::new(),
            ops: Vec::new(),
            round_key: None,
            listener,
            faults,
            policy,
            retired: vec![TransportStats::default(); shards],
            seq_floor: vec![1; shards],
        }
    }

    /// Number of shard connections (client processes in a real deployment).
    pub fn shard_count(&self) -> usize {
        self.conns.len()
    }

    /// Total [`Frame::Poll`] retries sent over all connections (including
    /// retired ones). Zero on a reliable transport; timing-dependent (not
    /// bit-reproducible) on a lossy one.
    pub fn polls_sent(&self) -> u64 {
        self.transport_stats().polls_sent
    }

    /// Aggregated wire-level counters over all shard connections, including
    /// the retired incarnations of reconnected shards.
    pub fn transport_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for s in 0..self.conns.len() {
            total.absorb(&self.shard_transport_stats(s));
        }
        total
    }

    /// Wire-level counters of shard `s` alone: its live connection plus any
    /// retired incarnations. Lets experiments attribute polls and
    /// reconnects to the shard that suffered them.
    pub fn shard_transport_stats(&self, s: usize) -> TransportStats {
        let mut total = self.retired[s];
        if let Some(conn) = &self.conns[s] {
            total.absorb(&conn.stats);
        }
        total
    }

    /// The read deadline currently armed on shard `s`'s connection (`None`
    /// for blocking reads or while the shard is disconnected).
    ///
    /// The invariant this exposes: outside a retry exchange the armed
    /// deadline equals the policy's *base* deadline. Reply waits escalate it
    /// along the backoff schedule, but a successful reply — and a successful
    /// reconnect — restore the base, so one slow exchange never taxes every
    /// later one with an inflated first deadline.
    pub fn armed_deadline(&self, s: usize) -> Option<Duration> {
        self.conns[s].as_ref().and_then(|c| c.armed_deadline)
    }

    /// The node range of shard `s`.
    fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The live connection of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if the shard is disconnected — every model operation requires
    /// the full population's transport to be up; churn is expressed with
    /// membership events, not silently skipped traffic.
    fn conn(&mut self, s: usize) -> &mut Conn {
        self.conns[s]
            .as_mut()
            .unwrap_or_else(|| panic!("remote transport: shard {s} is disconnected"))
    }

    /// Sends a fire-and-forget single-op batch to one shard and hands the op
    /// back, so a caller can recycle its buffers.
    fn command(&mut self, shard: usize, op: ServerOp) -> ServerOp {
        let mut ops = std::mem::take(&mut self.ops);
        ops.push(op);
        let frame = Frame::Batch {
            wants_reply: false,
            seq: 0,
            ops,
        };
        self.conn(shard).send(&frame);
        let Frame::Batch { mut ops, .. } = frame else {
            unreachable!("built as a batch above")
        };
        let op = ops.pop().expect("the batch holds one op");
        self.ops = ops;
        op
    }

    /// Ships shard `s`'s routed observation changes in one frame: as an
    /// `ObserveSparse` list, or as the shard's dense `ObserveRow` (read from
    /// the mirror, which already holds the step's values) when that encodes
    /// shorter — exact varint bytes, the common op tag left out. A shard
    /// without changes gets no frame. Either way the shard's nodes end in the
    /// same state: by the [`SimNode`] invariant, re-observing an unchanged
    /// value is a no-op. The buffers are kept for the next step.
    fn ship_observations(&mut self, s: usize) {
        let changes = &self.routed[s];
        if changes.is_empty() {
            return;
        }
        let range = self.range(s);
        let sparse = varint::encoded_len(changes.len() as u64)
            + changes
                .iter()
                .map(|&(node, v)| varint::encoded_len(node.index() as u64) + varint::encoded_len(v))
                .sum::<usize>();
        // A dense row spends at least a byte on its start, its count and
        // each value; a change list no longer than that needs no measuring,
        // which keeps a sparse step O(changes).
        let dense_shorter = sparse > range.len() + 2 && {
            let dense = varint::encoded_len(range.start as u64)
                + varint::encoded_len(range.len() as u64)
                + self.mirror.values()[range.clone()]
                    .iter()
                    .map(|&v| varint::encoded_len(v))
                    .sum::<usize>();
            dense < sparse
        };
        if dense_shorter {
            self.routed[s].clear();
            let mut row = std::mem::take(&mut self.row);
            row.clear();
            row.extend_from_slice(&self.mirror.values()[range.clone()]);
            let op = ServerOp::ObserveRow {
                start: NodeId(range.start),
                values: row,
            };
            if let ServerOp::ObserveRow { values, .. } = self.command(s, op) {
                self.row = values;
            }
        } else {
            let changes = std::mem::take(&mut self.routed[s]);
            if let ServerOp::ObserveSparse { mut changes } =
                self.command(s, ServerOp::ObserveSparse { changes })
            {
                changes.clear();
                self.routed[s] = changes;
            }
        }
    }

    /// Delivers a server message to every node via per-shard broadcasts.
    fn broadcast_command(&mut self, msg: ServerMessage) {
        for s in 0..self.conns.len() {
            if self.range(s).is_empty() {
                continue;
            }
            self.command(s, ServerOp::Broadcast { msg });
        }
    }

    /// Tears down shard `s`'s connection through the orderly goodbye path:
    /// a [`Frame::Shutdown`] out, the client's [`Frame::Leave`] back, then
    /// the thread is joined and the connection retired. The transport-level
    /// counterpart of the slots having left the population — which is why
    /// every slot of the shard must be dead first.
    ///
    /// # Panics
    ///
    /// Panics if any slot in the shard's range is still live, if the shard
    /// is already disconnected, or on a transport error during the goodbye.
    pub fn disconnect_shard(&mut self, s: usize) {
        for i in self.range(s) {
            assert!(
                !self.population.is_live(NodeId(i)),
                "disconnect of shard {s} requires slot {i} to have left the population"
            );
        }
        let mut conn = self.conns[s]
            .take()
            .unwrap_or_else(|| panic!("shard {s} is already disconnected"));
        conn.send(&Frame::Shutdown);
        // The goodbye is read without a deadline: the client answers
        // promptly or the connection is genuinely broken (a panic either
        // way, not a poll).
        conn.reader
            .set_read_timeout(None)
            .expect("remote transport: cannot clear read timeout");
        loop {
            match conn.acc.read_frame(&mut conn.reader) {
                Ok(Some((frame, bytes))) => {
                    conn.stats.frames_received += 1;
                    conn.stats.bytes_received += bytes as u64;
                    match frame {
                        Frame::Leave { shard } => {
                            assert_eq!(shard as usize, s, "leave frame from the wrong shard");
                            break;
                        }
                        // Stale poll answers may still be in flight: drain.
                        Frame::Replies { .. } => {}
                        other => {
                            panic!("remote transport: expected a leave frame, got {other:?}")
                        }
                    }
                }
                Ok(None) => unreachable!("no deadline is armed"),
                Err(e) => panic!("remote transport: goodbye handshake failed: {e}"),
            }
        }
        self.retired[s].absorb(&conn.stats);
        // The replacement connection continues this sequence counter; see
        // the field docs on `Conn::next_seq`.
        self.seq_floor[s] = conn.next_seq;
        drop(conn);
        if let Some(handle) = self.handles[s].take() {
            handle
                .join()
                .expect("remote transport: shard client panicked");
        }
    }

    /// Re-establishes shard `s`'s connection after
    /// [`RemoteEngine::disconnect_shard`]: spawns a fresh client (seeded
    /// with the slots' current generations), accepts it with the retry
    /// policy's capped backoff, re-runs the `Join` handshake (a connection
    /// claiming a different shard is refused), and replays the current
    /// filter parameters so later group reassignments re-derive filters
    /// exactly like every other engine. Free in the model — the parameter
    /// replay is connection state transfer, not protocol traffic; the
    /// *slots* are still dead until membership `Join` events re-admit them
    /// (and those charge their recovery replay normally).
    ///
    /// # Panics
    ///
    /// Panics if the shard is not disconnected or the client fails to
    /// connect within the policy's attempt budget.
    pub fn reconnect_shard(&mut self, s: usize) {
        assert!(
            self.conns[s].is_none(),
            "shard {s} is still connected — disconnect it first"
        );
        let addr = self
            .listener
            .local_addr()
            .expect("remote transport: listener has no local address");
        let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
        let gens: Vec<u32> = (lo..hi)
            .map(|i| self.population.generation(NodeId(i)))
            .collect();
        let master_seed = self.master_seed;
        let faults = self.faults;
        let table = ShardNodes::new(lo, master_seed, gens);
        self.handles[s] = Some(
            std::thread::Builder::new()
                .name(format!("topk-shard-{s}"))
                .spawn(move || run_shard_client(addr, s as u32, master_seed, faults, table))
                .expect("remote transport: cannot spawn shard client"),
        );
        let (mut conn, shard) =
            accept_shard(&self.listener, self.policy.as_ref(), self.conns.len());
        assert_eq!(
            shard, s,
            "remote transport: reconnect handshake answered by a stale shard"
        );
        conn.next_seq = self.seq_floor[s];
        self.retired[s].reconnects += 1;
        self.conns[s] = Some(conn);
        // Connection state transfer: the fresh client's nodes never saw the
        // parameter broadcast the population retains, so replay it
        // (uncharged — the model's nodes never lost it).
        if let Some(params) = self.params {
            self.command(
                s,
                ServerOp::Broadcast {
                    msg: ServerMessage::BroadcastParams(params),
                },
            );
        }
    }

    /// Mirror bookkeeping for a group change (the `SimNode` rule: the filter
    /// re-derives only once parameters were broadcast).
    fn mirror_group(&mut self, i: usize, group: NodeGroup) {
        self.mirror.set_group(i, group);
        if let Some(p) = self.params {
            self.mirror.set_filter(i, filter_for(group, &p));
        }
    }

    /// The shard owning node `node`.
    fn owner(&self, node: NodeId) -> usize {
        assert!(
            node.index() < self.mirror.len(),
            "node {node} out of range (n = {})",
            self.mirror.len()
        );
        shard_of(self.mirror.len(), self.conns.len(), node.index())
    }
}

impl Network for RemoteEngine {
    fn n(&self) -> usize {
        self.mirror.len()
    }

    fn advance_time(&mut self, values: &[Value]) {
        assert_eq!(
            values.len(),
            self.mirror.len(),
            "one observation per node required"
        );
        // Dead slots stop receiving workload observations: mask their
        // entries to 0 before the row crosses the wire or hits the mirror.
        // The fast path (full population) skips the copy entirely.
        let mut scratch = std::mem::take(&mut self.masked_row);
        let values = if self.population.live_count() == self.population.n() {
            values
        } else {
            scratch.clear();
            scratch.extend_from_slice(values);
            self.population.mask_row(&mut scratch);
            scratch.as_slice()
        };
        // The mirror comparison finds each shard's changed entries; shipping
        // then picks the shorter of the change list and the dense row.
        for s in 0..self.conns.len() {
            let range = self.range(s);
            for (i, &v) in (range.start..).zip(&values[range]) {
                if self.mirror.value(i) != v {
                    self.mirror.set_value(i, v);
                    self.routed[s].push((NodeId(i), v));
                }
            }
            self.ship_observations(s);
        }
        self.masked_row = scratch;
        self.meter.record_time_step();
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        // Route each change to its owning shard; one frame per shard that
        // has any. Per-shard order preserves the caller's order, so
        // duplicate entries still resolve last-wins like the baseline (and
        // a dense row, read from the mirror, holds the last value anyway).
        // Changes naming dead slots are masked to 0, not dropped, so the
        // value path stays uniform across engines.
        for &(node, v) in changes {
            let v = if self.population.is_live(node) { v } else { 0 };
            let owner = self.owner(node);
            self.routed[owner].push((node, v));
            self.mirror.set_value(node.index(), v);
        }
        for s in 0..self.conns.len() {
            self.ship_observations(s);
        }
        self.meter.record_time_step();
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        for &event in events {
            let node = event.node();
            let owner = self.owner(node);
            match event {
                MembershipEvent::Leave(_) => {
                    self.population.apply(event);
                    // The leaver's stream ends: the client node observes 0
                    // (possibly tripping its filter), and the mirror tracks
                    // the delivered value. Free, like any observation.
                    self.command(
                        owner,
                        ServerOp::Membership {
                            events: vec![event],
                        },
                    );
                    if self.mirror.value(node.index()) != 0 {
                        self.mirror.set_value(node.index(), 0);
                    }
                }
                MembershipEvent::Join(_) => {
                    self.population.apply(event);
                    let i = node.index();
                    let group = self.mirror.group(i);
                    let filter = self.mirror.filter(i);
                    // The client reseeds the slot from (master seed, id,
                    // generation) and resets it; the mirror does the same.
                    self.command(
                        owner,
                        ServerOp::Membership {
                            events: vec![event],
                        },
                    );
                    self.mirror.reset_node(i);
                    // Bring the joiner up to date: replay the slot's current
                    // group and filter under the Recovery label (2 unicasts),
                    // mirroring the crash-rejoin replay of FaultyTransport.
                    self.meter.push_label(ProtocolLabel::Recovery);
                    self.assign_group(node, group);
                    self.assign_filter(node, filter);
                    self.meter.pop_label();
                }
            }
        }
    }

    fn broadcast_params(&mut self, params: FilterParams) {
        self.meter.record(MessageKind::Broadcast);
        self.broadcast_command(ServerMessage::BroadcastParams(params));
        self.params = Some(params);
        for i in 0..self.mirror.len() {
            let f = filter_for(self.mirror.group(i), &params);
            self.mirror.set_filter(i, f);
        }
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.meter.record(MessageKind::DownstreamUnicast);
        let owner = self.owner(node);
        self.command(
            owner,
            ServerOp::Unicast {
                node,
                msg: ServerMessage::AssignGroup(group),
            },
        );
        self.mirror_group(node.index(), group);
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.meter.record(MessageKind::Broadcast);
        self.broadcast_command(ServerMessage::BroadcastGroup(group));
        for i in 0..self.mirror.len() {
            self.mirror_group(i, group);
        }
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.meter.record(MessageKind::DownstreamUnicast);
        let owner = self.owner(node);
        self.command(
            owner,
            ServerOp::Unicast {
                node,
                msg: ServerMessage::AssignFilter(filter),
            },
        );
        self.mirror.set_filter(node.index(), filter);
    }

    fn assign_query_filter(&mut self, query: QueryId, node: NodeId, filter: Filter) {
        self.meter.record(MessageKind::DownstreamUnicast);
        let owner = self.owner(node);
        // The QueryId is pure attribution: the node applies the filter
        // exactly like a plain assignment, so the cost, the mirror and the
        // node's state transition match the in-process engines exactly.
        self.command(
            owner,
            ServerOp::Unicast {
                node,
                msg: ServerMessage::AssignQueryFilter { query, filter },
            },
        );
        self.mirror.set_filter(node.index(), filter);
    }

    fn probe(&mut self, node: NodeId) -> Value {
        self.meter.record(MessageKind::DownstreamUnicast);
        let owner = self.owner(node);
        let policy = self.policy;
        let conn = self.conns[owner]
            .as_mut()
            .unwrap_or_else(|| panic!("remote transport: shard {owner} is disconnected"));
        let seq = conn.send_query(vec![ServerOp::Unicast {
            node,
            msg: ServerMessage::Probe,
        }]);
        let replies = conn.recv_replies(seq, &mut self.meter, policy.as_ref());
        self.meter.record(MessageKind::Upstream);
        match replies.as_slice() {
            [NodeMessage::ValueReport { value, .. }] => *value,
            other => panic!("probe must be answered with one value report, got {other:?}"),
        }
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        // Charged for every round, queried or not: the model's round count
        // does not depend on which shards the wire had to ask.
        self.meter.record_round();
        let msg = ServerMessage::ExistenceRound {
            round,
            population,
            predicate,
        };
        // Round 0 starts a run, and a different (predicate, population)
        // asks a different question: either way every shard is asked again.
        if round == 0 || self.round_key != Some((predicate, population)) {
            for conn in self.conns.iter_mut().flatten() {
                conn.idle = false;
            }
            self.round_key = Some((predicate, population));
        }
        // Send the round to every occupied shard that is not idle first,
        // then collect the replies in shard order: the shards flip their
        // coins concurrently and the ordered collection restores the global
        // id order. An idle shard is skipped — none of its nodes satisfies
        // the predicate, so none would reply or draw randomness, and only a
        // frame from the server (which ends the mark) can change that.
        for s in 0..self.conns.len() {
            if self.range(s).is_empty() || self.conn(s).idle {
                continue;
            }
            self.conn(s).send_query(vec![ServerOp::Broadcast { msg }]);
        }
        replies.clear();
        let policy = self.policy;
        for s in 0..self.conns.len() {
            if self.range(s).is_empty() {
                continue;
            }
            let conn = self.conns[s]
                .as_mut()
                .unwrap_or_else(|| panic!("remote transport: shard {s} is disconnected"));
            // Sending cleared the mark of every shard asked above, so a
            // marked shard is one that was skipped.
            if conn.idle {
                continue;
            }
            // Nothing interleaved since the send above, so the shard's round
            // query is the last sequence number the connection issued.
            let seq = conn.next_seq - 1;
            let shard_replies = conn.recv_replies(seq, &mut self.meter, policy.as_ref());
            replies.extend(shard_replies);
        }
        self.meter
            .record_many(MessageKind::Upstream, replies.len() as u64);
    }

    fn end_existence_run(&mut self) {
        self.meter.record(MessageKind::Broadcast);
        self.broadcast_command(ServerMessage::EndExistenceRun);
    }

    fn meter(&mut self) -> &mut CostMeter {
        &mut self.meter
    }

    fn stats(&self) -> CommStats {
        self.meter.snapshot()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.mirror.value(node.index())
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.mirror.filter(node.index())
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.mirror.group(node.index())
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        out.clear();
        out.extend(self.mirror.filters().map(|(_, f)| f));
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(self.mirror.values());
    }
}

impl Drop for RemoteEngine {
    fn drop(&mut self) {
        for conn in self.conns.iter_mut().flatten() {
            // Best effort: a client that already died closed its socket, and
            // the join below reaps it either way.
            let _ = write_frame(&mut conn.writer, &Frame::Shutdown);
        }
        for handle in self.handles.drain(..).flatten() {
            let _ = handle.join();
        }
    }
}

/// Accepts one client connection and completes its `Join` handshake.
///
/// Under a retry policy both waits are bounded: the wait for a connection
/// ([`accept_with_policy`]) and the wait for its `Join` ([`read_join`]).
/// Without one, both block. Arms the policy's base deadline when a retry
/// policy is set, and returns the connection together with the shard index
/// the client claimed (the caller slots or verifies it).
///
/// # Panics
///
/// Panics, naming the cause, if the handshake fails — a `Join` at another
/// wire version, corrupt bytes, any other frame, no whole `Join` within the
/// policy's deadlines — or if the `Join` names a shard at or above
/// `shards`.
fn accept_shard(
    listener: &TcpListener,
    policy: Option<&RetryPolicy>,
    shards: usize,
) -> (Conn, usize) {
    let stream = match policy {
        None => {
            listener
                .accept()
                .expect("remote transport: accept failed")
                .0
        }
        Some(policy) => accept_with_policy(listener, policy),
    };
    stream
        .set_nodelay(true)
        .expect("remote transport: cannot set TCP_NODELAY");
    let mut reader = stream.try_clone().expect("remote transport: clone stream");
    let (frame, bytes) = match policy {
        None => read_frame(&mut reader),
        Some(policy) => read_join(&mut reader, policy),
    }
    .unwrap_or_else(|e| panic!("remote transport: join handshake failed: {e}"));
    let Frame::Join { shard } = frame else {
        panic!("remote transport: expected a join frame, got {frame:?}");
    };
    let shard = shard as usize;
    assert!(
        shard < shards,
        "remote transport: join names shard {shard}, but the engine has {shards} shards"
    );
    let mut conn = Conn {
        writer: BufWriter::new(stream),
        reader,
        acc: FrameAccumulator::new(),
        next_seq: 1,
        armed_deadline: None,
        idle: false,
        stats: TransportStats {
            frames_received: 1,
            bytes_received: bytes as u64,
            ..TransportStats::default()
        },
    };
    if let Some(policy) = policy {
        conn.arm_deadline(policy.deadline(0));
    }
    (conn, shard)
}

/// Reads a new connection's first frame under the retry policy's deadline
/// schedule, as [`accept_with_policy`] waits for the connection: attempt `i`
/// waits the policy's deadline for `i`, keeping any partial frame, and once
/// `max_attempts` deadlines have elapsed without a whole frame the client is
/// declared silent. A connected process that never writes therefore cannot
/// hold up [`RemoteEngine::build`] or [`RemoteEngine::reconnect_shard`].
fn read_join(reader: &mut TcpStream, policy: &RetryPolicy) -> Result<(Frame, usize), WireError> {
    let mut acc = FrameAccumulator::new();
    for attempt in 0..policy.max_attempts {
        reader
            .set_read_timeout(Some(policy.deadline(attempt)))
            .expect("remote transport: cannot set read timeout");
        if let Some(frame) = acc.read_frame(reader)? {
            return Ok(frame);
        }
    }
    panic!(
        "remote transport: no join frame within {} read deadlines — client silent",
        policy.max_attempts
    );
}

/// Accepts a connection under the retry policy's deadline schedule instead of
/// blocking forever: the listener goes non-blocking, attempt `i` waits the
/// policy's deadline for `i` before polling again, and once `max_attempts`
/// deadlines have elapsed with no client the peer is declared dead — the
/// attempt budget [`RemoteEngine::reconnect_shard`] documents. The listener
/// is restored to blocking mode on success (later accepts start fresh).
fn accept_with_policy(listener: &TcpListener, policy: &RetryPolicy) -> TcpStream {
    listener
        .set_nonblocking(true)
        .expect("remote transport: cannot make listener non-blocking");
    let mut attempts = 0u32;
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(
                    attempts < policy.max_attempts,
                    "remote transport: no shard connected within {} accept deadlines — client dead",
                    policy.max_attempts
                );
                std::thread::sleep(policy.deadline(attempts));
                attempts += 1;
            }
            Err(e) => panic!("remote transport: accept failed: {e}"),
        }
    };
    listener
        .set_nonblocking(false)
        .expect("remote transport: cannot restore blocking listener");
    // Accepted sockets do not inherit the listener's non-blocking flag on
    // the platforms we run on, but the reply deadlines depend on it — pin it.
    stream
        .set_nonblocking(false)
        .expect("remote transport: cannot make stream blocking");
    stream
}

/// The node table one shard client drives: the [`SimNode`]s of global ids
/// `lo..lo + nodes.len()` and the membership generation of each slot (all
/// zeros for an initial connection; the population's current generations
/// for a reconnect).
///
/// Built on the thread that spawns the client and moved into it. Memory a
/// thread frees in its own malloc arena (glibc's per-thread arenas) stays
/// resident after the thread exits; a table allocated by the spawner goes
/// back to the spawner's heap instead, so dropping an engine or bouncing a
/// shard leaves no dead node table resident in the process.
struct ShardNodes {
    lo: usize,
    gens: Vec<u32>,
    nodes: Vec<SimNode>,
}

impl ShardNodes {
    fn new(lo: usize, master_seed: u64, gens: Vec<u32>) -> ShardNodes {
        let nodes = (lo..)
            .zip(&gens)
            .map(|(i, &gen)| {
                let mut node = SimNode::new(NodeId(i), master_seed);
                if gen > 0 {
                    node.rejoin_generation(master_seed, gen);
                }
                node
            })
            .collect();
        ShardNodes { lo, gens, nodes }
    }
}

/// Body of one shard-client thread: connect, join, then serve batches until
/// shutdown.
///
/// The client owns the [`SimNode`] state machines of its [`ShardNodes`] and
/// is driven *only* by decoded frames — it shares no memory with the server.
/// Replies accumulate in ascending node-id order because every op iterates
/// the shard's nodes in ascending order.
///
/// Every frame either way is sealed at [`WIRE_VERSION`](topk_wire::WIRE_VERSION).
/// A frame the client cannot read — another version, corrupt bytes — ends
/// the client with a panic naming the error, before it writes anything more.
///
/// [`ServerOp::Membership`] events advance the slots' generations: a `Join`
/// reseeds the slot via [`SimNode::rejoin_generation`] and a `Leave`
/// collapses its stream to a 0 observation — the same transitions every
/// in-process engine makes, so the RNG streams stay aligned bit for bit.
///
/// With `faults` set to `(seed, drop_permille)`, the client simulates a
/// lossy upstream link: each *first* transmission of a reply frame is
/// dropped with the given probability (from a per-shard ChaCha8 stream), and
/// the retained copy is re-sent — always, so retries converge — when the
/// server polls for it.
fn run_shard_client(
    addr: SocketAddr,
    shard: u32,
    master_seed: u64,
    faults: Option<(u64, u32)>,
    table: ShardNodes,
) {
    let ShardNodes {
        lo,
        mut gens,
        mut nodes,
    } = table;
    let stream = TcpStream::connect(addr).expect("shard client: cannot connect to server");
    stream
        .set_nodelay(true)
        .expect("shard client: cannot set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("shard client: clone stream"));
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &Frame::Join { shard }).expect("shard client: join handshake failed");

    let mut drop_rng = faults.map(|(seed, _)| {
        // Golden-ratio mix so shard streams are disjoint even for small seeds.
        ChaCha8Rng::seed_from_u64(
            seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(shard) + 1),
        )
    });
    let drop_permille = faults.map_or(0, |(_, p)| p.min(1000));
    let mut replies: Vec<NodeMessage> = Vec::new();
    // The last reply produced — seq, messages and idle signal — kept for
    // answering polls (the two reply buffers ping-pong so one pair of
    // allocations serves the connection).
    let mut last: (u64, Vec<NodeMessage>, bool) = (0, Vec::new(), false);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok((frame, _)) => frame,
            // The server dropped without an orderly shutdown (e.g. a test
            // panicked): exit quietly, the Drop impl reaps the thread.
            Err(WireError::Io(_)) => return,
            Err(e) => panic!("shard client {shard}: corrupt frame: {e}"),
        };
        match frame {
            Frame::Batch {
                wants_reply,
                seq,
                ops,
            } => {
                replies.clear();
                // Whether the batch ends in an existence round no local node
                // is active in: the idle signal of the reply.
                let mut idle = false;
                for op in ops {
                    idle = match op {
                        ServerOp::Membership { events } => {
                            for event in events {
                                let local = event.node().index() - lo;
                                match event {
                                    MembershipEvent::Join(_) => {
                                        gens[local] += 1;
                                        nodes[local].rejoin_generation(master_seed, gens[local]);
                                    }
                                    MembershipEvent::Leave(_) => nodes[local].observe(0),
                                }
                            }
                            false
                        }
                        op => apply_op(&mut nodes, lo, op, &mut replies),
                    };
                }
                if wants_reply {
                    // The drop coin applies to the first transmission only;
                    // poll answers always go out, so one poll recovers any
                    // lost frame.
                    let lost = drop_permille > 0
                        && drop_rng
                            .as_mut()
                            .is_some_and(|rng| rng.gen_ratio(drop_permille, 1000));
                    let frame = Frame::Replies {
                        seq,
                        replies: std::mem::take(&mut replies),
                        idle,
                    };
                    if !lost {
                        write_frame(&mut writer, &frame)
                            .expect("shard client: cannot send replies");
                    }
                    let Frame::Replies {
                        seq,
                        replies: sent,
                        idle,
                    } = frame
                    else {
                        unreachable!("frame constructed as Replies above")
                    };
                    replies = std::mem::replace(&mut last, (seq, sent, idle)).1;
                }
            }
            Frame::Poll { seq } => {
                // TCP ordering guarantees the polled batch arrived before
                // the poll, so the retained reply must be the one asked for.
                assert_eq!(
                    last.0, seq,
                    "shard client {shard}: poll for a reply never produced"
                );
                let answer = Frame::Replies {
                    seq,
                    replies: last.1.clone(),
                    idle: last.2,
                };
                write_frame(&mut writer, &answer).expect("shard client: cannot answer poll");
            }
            Frame::Shutdown => {
                // Orderly goodbye: name the shard so the disconnect path can
                // tell this farewell from a stale connection's. Best effort —
                // on a plain engine drop nobody is listening any more.
                let _ = write_frame(&mut writer, &Frame::Leave { shard });
                return;
            }
            other => panic!("shard client {shard}: unexpected frame {other:?}"),
        }
    }
}

/// Applies one decoded batch operation to a shard's nodes, appending any
/// upstream messages to `replies` in ascending node-id order.
///
/// Returns whether the op was an existence round in which no node's
/// predicate held — computed in the same pass that flips the coins.
fn apply_op(
    nodes: &mut [SimNode],
    lo: usize,
    op: ServerOp,
    replies: &mut Vec<NodeMessage>,
) -> bool {
    match op {
        ServerOp::Broadcast {
            msg:
                ServerMessage::ExistenceRound {
                    round,
                    population,
                    predicate,
                },
        } => {
            let mut active = false;
            let coin = Coin::new(round, population);
            for node in nodes.iter_mut() {
                if let Some(reply) = node.existence_round(coin, predicate) {
                    active = true;
                    replies.extend(reply);
                }
            }
            return !active;
        }
        ServerOp::ObserveRow { start, values } => {
            let base = start.index() - lo;
            for (j, v) in values.into_iter().enumerate() {
                nodes[base + j].observe(v);
            }
        }
        ServerOp::ObserveSparse { changes } => {
            for (node, v) in changes {
                nodes[node.index() - lo].observe(v);
            }
        }
        ServerOp::Unicast { node, msg } => {
            if let Some(reply) = nodes[node.index() - lo].handle(&msg) {
                replies.push(reply);
            }
        }
        ServerOp::Broadcast { msg } => {
            for node in nodes.iter_mut() {
                if let Some(reply) = node.handle(&msg) {
                    replies.push(reply);
                }
            }
        }
        // Membership needs the generation table and is handled inline by the
        // client loop before ops reach this function.
        ServerOp::Membership { .. } => {
            unreachable!("membership ops are applied by the client loop")
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicEngine;

    #[test]
    fn basic_flow_matches_baseline_semantics() {
        let mut net = RemoteEngine::with_shards(5, 1, 2);
        net.advance_time(&[10, 20, 30, 40, 50]);
        net.broadcast_params(FilterParams::Separator { lo: 25, hi: 25 });
        net.assign_filter(NodeId(0), Filter::at_least(40));
        net.assign_group(NodeId(1), NodeGroup::Upper);
        assert_eq!(net.probe(NodeId(4)), 50);
        let stats = net.stats();
        assert_eq!(stats.messages_of_kind(MessageKind::Broadcast), 1);
        assert_eq!(stats.messages_of_kind(MessageKind::DownstreamUnicast), 3);
        assert_eq!(stats.messages_of_kind(MessageKind::Upstream), 1);
        assert_eq!(stats.time_steps, 1);
        assert_eq!(net.peek_filter(NodeId(1)), Filter::at_least(25));
        assert_eq!(net.peek_filter(NodeId(2)), Filter::at_most(25));
        assert_eq!(net.peek_group(NodeId(1)), NodeGroup::Upper);
        assert_eq!(net.peek_values(), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn matches_baseline_on_a_scripted_run() {
        let script = |net: &mut dyn Network| {
            net.advance_time(&[3, 1, 4, 1, 5, 9, 2, 6]);
            net.assign_group(NodeId(5), NodeGroup::Upper);
            net.broadcast_params(FilterParams::Separator { lo: 5, hi: 5 });
            let mut found = Vec::new();
            for round in 0..=3 {
                let r = net.existence_round(round, 8, ExistencePredicate::PendingViolation);
                if !r.is_empty() {
                    found = r;
                    net.end_existence_run();
                    break;
                }
            }
            net.advance_time_sparse(&[(NodeId(7), 4), (NodeId(0), 9)]);
            let max = net.existence_round(10, 8, ExistencePredicate::AtLeast(9));
            (found, max, net.stats())
        };
        for shards in [1, 3, 8] {
            let mut base = DeterministicEngine::new(8, 1234);
            let mut remote = RemoteEngine::with_shards(8, 1234, shards);
            let (f_base, m_base, s_base) = script(&mut base);
            let (f_rem, m_rem, s_rem) = script(&mut remote);
            assert_eq!(
                f_base, f_rem,
                "violation replies diverge at {shards} shards"
            );
            assert_eq!(
                m_base, m_rem,
                "threshold replies diverge at {shards} shards"
            );
            assert_eq!(s_base, s_rem, "stats diverge at {shards} shards");
            assert_eq!(base.peek_filters(), remote.peek_filters());
            assert_eq!(base.peek_values(), remote.peek_values());
            for i in 0..8 {
                assert_eq!(base.peek_group(NodeId(i)), remote.peek_group(NodeId(i)));
            }
        }
    }

    #[test]
    fn transport_counters_track_wire_activity() {
        let mut net = RemoteEngine::with_shards(4, 9, 2);
        let after_handshake = net.transport_stats();
        assert_eq!(after_handshake.frames_received, 2, "one join per shard");
        net.advance_time(&[1, 2, 3, 4]);
        let after_row = net.transport_stats();
        assert_eq!(after_row.frames_sent, 2, "one observation frame per shard");
        assert!(after_row.bytes_sent > 0);
        // A probe costs one frame out and one reply frame back on one conn.
        net.probe(NodeId(0));
        let after_probe = net.transport_stats();
        assert_eq!(after_probe.frames_sent, after_row.frames_sent + 1);
        assert_eq!(
            after_probe.frames_received,
            after_handshake.frames_received + 1
        );
    }

    #[test]
    fn more_shards_than_nodes_leaves_surplus_connections_idle() {
        let mut net = RemoteEngine::with_shards(2, 3, 5);
        assert_eq!(net.shard_count(), 5);
        net.advance_time(&[7, 8]);
        let replies = net.existence_round(10, 2, ExistencePredicate::GreaterThan(0));
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].sender(), NodeId(0));
        assert_eq!(replies[1].sender(), NodeId(1));
    }

    #[test]
    fn silent_rounds_cost_model_nothing_but_cross_the_wire() {
        let mut net = RemoteEngine::with_shards(8, 5, 2);
        net.advance_time(&[10; 8]);
        let before = net.stats().total_messages();
        let wire_before = net.transport_stats().frames();
        let replies = net.existence_round(10, 8, ExistencePredicate::GreaterThan(100));
        assert!(replies.is_empty());
        assert_eq!(
            net.stats().total_messages(),
            before,
            "silent round is free in the model"
        );
        assert!(
            net.transport_stats().frames() > wire_before,
            "but the round schedule genuinely crossed the socket"
        );
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let net = RemoteEngine::with_shards(3, 1, 3);
        drop(net); // must not hang or panic
    }

    #[test]
    fn membership_churn_matches_baseline_bit_for_bit() {
        let script = |net: &mut dyn Network| {
            net.advance_time(&[10, 20, 30, 40, 50, 60]);
            net.broadcast_params(FilterParams::Separator { lo: 35, hi: 35 });
            net.assign_group(NodeId(5), NodeGroup::Upper);
            net.apply_membership(&[
                MembershipEvent::Leave(NodeId(5)),
                MembershipEvent::Leave(NodeId(1)),
            ]);
            net.advance_time(&[11, 21, 31, 41, 51, 61]); // dead slots masked to 0
            net.apply_membership(&[MembershipEvent::Join(NodeId(5))]);
            net.advance_time_sparse(&[(NodeId(5), 62), (NodeId(1), 99)]);
            let mut replies = Vec::new();
            for round in 0..4 {
                replies.extend(net.existence_round(round, 6, ExistencePredicate::AtLeast(30)));
            }
            net.end_existence_run();
            let p = net.probe(NodeId(5));
            (replies, p, net.stats())
        };
        for shards in [1, 2, 3] {
            let mut base = DeterministicEngine::new(6, 42);
            let mut remote = RemoteEngine::with_shards(6, 42, shards);
            let (r_base, p_base, s_base) = script(&mut base);
            let (r_rem, p_rem, s_rem) = script(&mut remote);
            assert_eq!(r_base, r_rem, "replies diverge at {shards} shards");
            assert_eq!(p_base, p_rem, "probe diverges at {shards} shards");
            assert_eq!(s_base, s_rem, "stats diverge at {shards} shards");
            assert_eq!(base.peek_values(), remote.peek_values());
            assert_eq!(base.peek_filters(), remote.peek_filters());
            for i in 0..6 {
                assert_eq!(base.peek_group(NodeId(i)), remote.peek_group(NodeId(i)));
            }
            // The dead slot's later traffic was masked, the joiner's was not.
            assert_eq!(remote.peek_value(NodeId(1)), 0);
            assert_eq!(remote.peek_value(NodeId(5)), 62);
        }
    }

    #[test]
    fn reconnect_lifecycle_is_transport_only_and_bit_identical() {
        // Shard 1 of 2 owns nodes 3..6; empty it, bounce its connection,
        // refill it, and the run must match a baseline that only saw the
        // membership events (the transport churn is invisible to the model).
        let pre = |net: &mut dyn Network| {
            net.advance_time(&[5, 6, 7, 8, 9, 10]);
            net.broadcast_params(FilterParams::Separator { lo: 7, hi: 7 });
            net.apply_membership(&[
                MembershipEvent::Leave(NodeId(3)),
                MembershipEvent::Leave(NodeId(4)),
                MembershipEvent::Leave(NodeId(5)),
            ]);
        };
        let post = |net: &mut dyn Network| {
            net.apply_membership(&[
                MembershipEvent::Join(NodeId(3)),
                MembershipEvent::Join(NodeId(4)),
                MembershipEvent::Join(NodeId(5)),
            ]);
            net.advance_time(&[1, 2, 3, 40, 50, 60]);
            let mut out = Vec::new();
            for round in 0..3 {
                out.extend(net.existence_round(round, 6, ExistencePredicate::AtLeast(10)));
            }
            let p = net.probe(NodeId(4));
            (out, p, net.stats())
        };
        let mut base = DeterministicEngine::new(6, 7);
        let mut remote = RemoteEngine::with_shards(6, 7, 2);
        pre(&mut base);
        pre(&mut remote);
        remote.disconnect_shard(1);
        remote.reconnect_shard(1);
        let (o_base, p_base, s_base) = post(&mut base);
        let (o_rem, p_rem, s_rem) = post(&mut remote);
        assert_eq!(o_base, o_rem, "replies diverge across a reconnect");
        assert_eq!(p_base, p_rem);
        assert_eq!(s_base, s_rem, "a reconnect must not charge the model");
        assert_eq!(base.peek_values(), remote.peek_values());
        assert_eq!(base.peek_filters(), remote.peek_filters());
        let bounced = remote.shard_transport_stats(1);
        assert_eq!(bounced.reconnects, 1, "the bounce is visible on the wire");
        assert_eq!(remote.shard_transport_stats(0).reconnects, 0);
        assert_eq!(remote.transport_stats().reconnects, 1);
        assert!(
            bounced.frames() > 0,
            "retired counters must survive the old connection"
        );
    }

    #[test]
    fn reconnect_resets_the_armed_deadline_to_the_policy_base() {
        // A policy-armed engine on a lossless transport: deadlines are set,
        // no frame is ever dropped, so every read succeeds on attempt 0.
        let policy = RetryPolicy::backoff_from(Duration::from_millis(250));
        let mut net = RemoteEngine::with_fault_policy(6, 7, 2, &FaultSpec::none(), policy);
        assert_eq!(net.armed_deadline(0), Some(policy.deadline(0)));
        assert_eq!(net.armed_deadline(1), Some(policy.deadline(0)));
        net.advance_time(&[5, 6, 7, 8, 9, 10]);
        net.apply_membership(&[
            MembershipEvent::Leave(NodeId(3)),
            MembershipEvent::Leave(NodeId(4)),
            MembershipEvent::Leave(NodeId(5)),
        ]);
        net.disconnect_shard(1);
        assert_eq!(net.armed_deadline(1), None, "no socket while disconnected");
        net.reconnect_shard(1);
        // The replacement connection starts the schedule over at the base
        // deadline — a successful reconnect is a success, not another retry.
        assert_eq!(net.armed_deadline(1), Some(policy.deadline(0)));
        assert_eq!(net.armed_deadline(0), Some(policy.deadline(0)));
        // Blocking-mode engines (no policy) never arm a deadline at all.
        let blocking = RemoteEngine::with_shards(4, 7, 2);
        assert_eq!(blocking.armed_deadline(0), None);
    }

    #[test]
    fn accept_honors_the_retry_policy_budget() {
        // A client that connects only after a few deadlines have elapsed is
        // still accepted within the policy budget.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let policy = RetryPolicy::new(Duration::from_millis(5), 2, Duration::from_millis(40), 32);
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            let stream = TcpStream::connect(addr).expect("connect");
            // Keep the socket open until the server side has accepted it.
            std::thread::sleep(Duration::from_millis(100));
            drop(stream);
        });
        let _accepted = accept_with_policy(&listener, &policy);
        client.join().expect("client thread");
        // With no client at all, the accept must exhaust `max_attempts`
        // deadlines and give up instead of blocking forever.
        let lonely = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let tiny = RetryPolicy::new(Duration::from_millis(1), 1, Duration::from_millis(1), 3);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            accept_with_policy(&lonely, &tiny)
        }));
        assert!(outcome.is_err(), "an absent client must exhaust the budget");
    }

    #[test]
    fn a_silent_client_cannot_stall_the_handshake() {
        // A process that connects and never sends its `Join`: under a retry
        // policy the handshake refuses it once the policy's read deadlines
        // have elapsed, instead of waiting forever.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let silent = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let policy = RetryPolicy::new(Duration::from_millis(5), 1, Duration::from_millis(5), 4);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                accept_shard(&listener, Some(&policy), 2)
            }));
            let refusal = outcome
                .err()
                .map(|panic| panic.downcast_ref::<String>().cloned().unwrap_or_default());
            let _ = tx.send(refusal);
        });
        let refusal = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the handshake must give up on a silent client");
        drop(silent);
        let refusal = refusal.expect("the handshake must refuse a silent client");
        assert!(
            refusal.contains("no join frame within 4 read deadlines"),
            "{refusal}"
        );
    }

    #[test]
    #[should_panic(expected = "requires slot 3 to have left")]
    fn disconnecting_a_live_shard_is_refused() {
        let mut net = RemoteEngine::with_shards(6, 7, 2);
        net.disconnect_shard(1);
    }

    /// Runs the server's handshake against a client that connects and
    /// writes `wire`, and returns the message the handshake refused it with.
    fn handshake_refusal(wire: Vec<u8>, shards: usize) -> String {
        use std::io::{Read, Write};
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&wire).expect("join");
            // Hold the socket open until the server side lets go of it.
            let _ = stream.read(&mut [0u8; 1]);
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            accept_shard(&listener, None, shards)
        }));
        // Consuming the outcome closes an accepted connection, which lets
        // the client thread finish either way.
        let refusal = outcome
            .err()
            .map(|panic| panic.downcast_ref::<String>().cloned().unwrap_or_default());
        client.join().expect("client thread");
        refusal.expect("the handshake must refuse the join")
    }

    #[test]
    fn the_handshake_refuses_a_join_at_another_version() {
        use topk_wire::frame::MAGIC;
        // A Join framed at version 2: no trailer, and a byte after the shard
        // index advertising the newest version the client speaks.
        let payload = [MAGIC, 2, 0, 0, 5];
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        let refusal = handshake_refusal(wire, 2);
        assert!(
            refusal.contains("unsupported wire format version 2"),
            "{refusal}"
        );
    }

    #[test]
    fn the_handshake_refuses_a_shard_out_of_range() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Join { shard: 9 }).expect("join");
        let refusal = handshake_refusal(wire, 2);
        assert!(
            refusal.contains("shard 9") && refusal.contains("2 shards"),
            "{refusal}"
        );
    }

    #[test]
    fn a_client_refuses_a_batch_at_another_version() {
        use std::io::{Read, Write};
        use topk_wire::crc32::crc32;
        use topk_wire::frame::MAGIC;
        use topk_wire::WireEncode;
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            run_shard_client(addr, 0, 99, None, ShardNodes::new(0, 99, vec![0; 2]))
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let (join, _) = read_frame(&mut stream).expect("join");
        assert_eq!(join, Frame::Join { shard: 0 });
        // A probe, sealed with a valid trailer but at version 5.
        let mut payload = vec![MAGIC, 5];
        Frame::Batch {
            wants_reply: true,
            seq: 1,
            ops: vec![ServerOp::Unicast {
                node: NodeId(1),
                msg: ServerMessage::Probe,
            }],
        }
        .encode(&mut payload);
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        stream.write_all(&wire).expect("batch");
        let refusal = client.join().expect_err("the client must refuse the batch");
        let refusal = refusal
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            refusal.contains("unsupported wire format version 5"),
            "{refusal}"
        );
        // The connection closed with no reply on it.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read to the end");
        assert!(rest.is_empty(), "the client answered with {rest:?}");
    }

    /// `⌈log₂ n⌉ + 1`, the round budget of one existence run.
    fn round_budget(n: usize) -> u32 {
        (n as u64).next_power_of_two().trailing_zeros() + 1
    }

    /// Frames moved on shard `s`'s connection, both directions.
    fn shard_frames(net: &RemoteEngine, s: usize) -> u64 {
        net.shard_transport_stats(s).frames()
    }

    #[test]
    fn a_silent_step_costs_at_most_three_frames_per_occupied_shard() {
        // No filter ever trips (no parameters are broadcast), so every
        // violation check runs all R rounds silently. Before the idle signal
        // a shard paid 1 + 2·R frames per step; now it pays the observation
        // frame plus the round-0 query and its reply.
        let n = 64;
        let rounds = round_budget(n);
        for shards in [1, 3, 8] {
            let mut net = RemoteEngine::with_shards(n, 11, shards);
            let mut base = DeterministicEngine::new(n, 11);
            for t in 0..6u64 {
                // Odd steps repeat the previous row: no observation frame.
                let row: Vec<Value> = (0..n as u64).map(|i| 1000 + i + t / 2).collect();
                let before = net.transport_stats().frames();
                for engine in [&mut net as &mut dyn Network, &mut base] {
                    engine.advance_time(&row);
                    let mut replies = Vec::new();
                    for round in 0..rounds {
                        engine.existence_round_into(
                            round,
                            n as u32,
                            ExistencePredicate::PendingViolation,
                            &mut replies,
                        );
                        assert!(replies.is_empty());
                    }
                }
                let frames = net.transport_stats().frames() - before;
                let per_shard = if t % 2 == 0 { 3 } else { 2 };
                assert_eq!(
                    frames,
                    per_shard * shards as u64,
                    "step {t} at {shards} shards (was {} per shard)",
                    1 + 2 * u64::from(rounds)
                );
            }
            assert_eq!(net.stats(), base.stats(), "every round is still charged");
            assert_eq!(net.stats().rounds, 6 * u64::from(rounds));
        }
    }

    #[test]
    fn later_rounds_go_only_to_shards_with_an_active_node() {
        // Three shards of four nodes; only node 5 (shard 1) holds a value
        // the predicate accepts. Rounds are raw — no run ends on a reply —
        // so every round of the budget is checked.
        let n = 12;
        let predicate = ExistencePredicate::AtLeast(50);
        let mut net = RemoteEngine::with_shards(n, 3, 3);
        let mut base = DeterministicEngine::new(n, 3);
        let mut row = vec![1; n];
        row[5] = 100;
        net.advance_time(&row);
        base.advance_time(&row);
        let round = |net: &mut RemoteEngine, base: &mut DeterministicEngine, r: u32| {
            let before: Vec<u64> = (0..3).map(|s| shard_frames(net, s)).collect();
            let got = net.existence_round(r, n as u32, predicate);
            assert_eq!(got, base.existence_round(r, n as u32, predicate));
            (0..3)
                .map(|s| shard_frames(net, s) - before[s])
                .collect::<Vec<u64>>()
        };
        assert_eq!(round(&mut net, &mut base, 0), vec![2, 2, 2]);
        for r in 1..=round_budget(n) {
            assert_eq!(round(&mut net, &mut base, r), vec![0, 2, 0], "round {r}");
        }
        // A frame to shard 0 ends its mark: the next round asks it again.
        net.assign_filter(NodeId(0), Filter::at_most(7));
        base.assign_filter(NodeId(0), Filter::at_most(7));
        assert_eq!(round(&mut net, &mut base, 2), vec![2, 2, 0]);
        assert_eq!(round(&mut net, &mut base, 3), vec![0, 2, 0]);
        // So does a membership op on shard 2.
        net.apply_membership(&[MembershipEvent::Leave(NodeId(9))]);
        base.apply_membership(&[MembershipEvent::Leave(NodeId(9))]);
        assert_eq!(round(&mut net, &mut base, 3), vec![0, 2, 2]);
        // A different question clears every mark.
        let other = ExistencePredicate::AtLeast(200);
        let before: Vec<u64> = (0..3).map(|s| shard_frames(&net, s)).collect();
        assert_eq!(
            net.existence_round(4, n as u32, other),
            base.existence_round(4, n as u32, other)
        );
        for (s, b) in before.iter().enumerate() {
            assert_eq!(shard_frames(&net, s) - b, 2);
        }
        assert_eq!(net.stats(), base.stats());
        assert_eq!(net.peek_values(), base.peek_values());
    }

    #[test]
    fn dense_and_sparse_delivery_leave_identical_node_state() {
        // Two copies of a shard: one re-observes every value of each row,
        // the other sees only the entries that changed. Filters, groups and
        // parameters move in between so pending violations appear and clear.
        let (lo, len) = (4usize, 16usize);
        let fresh = || -> Vec<SimNode> {
            (lo..lo + len)
                .map(|i| SimNode::new(NodeId(i), 99))
                .collect()
        };
        let (mut dense, mut sparse) = (fresh(), fresh());
        let mut prev = vec![0u64; len];
        let mut state = 0x5EEDu64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for step in 0..200u64 {
            let both = |op: ServerOp, a: &mut Vec<SimNode>, b: &mut Vec<SimNode>| {
                let (mut ra, mut rb) = (Vec::new(), Vec::new());
                let ia = apply_op(a, lo, op.clone(), &mut ra);
                let ib = apply_op(b, lo, op, &mut rb);
                assert_eq!((ra, ia), (rb, ib));
            };
            let node = NodeId(lo + (next() as usize) % len);
            let msg = match step % 4 {
                0 => ServerMessage::AssignFilter(Filter::at_most(next() % 100)),
                1 => ServerMessage::AssignGroup(if next() % 2 == 0 {
                    NodeGroup::Upper
                } else {
                    NodeGroup::Lower
                }),
                2 => ServerMessage::BroadcastParams(FilterParams::Separator {
                    lo: 50,
                    hi: 50 + next() % 20,
                }),
                _ => ServerMessage::Probe,
            };
            let op = match msg {
                ServerMessage::BroadcastParams(_) => ServerOp::Broadcast { msg },
                _ => ServerOp::Unicast { node, msg },
            };
            both(op, &mut dense, &mut sparse);
            // About a quarter of the values move each step.
            let row: Vec<Value> = prev
                .iter()
                .map(|&v| if next() % 4 == 0 { next() % 120 } else { v })
                .collect();
            let changes: Vec<(NodeId, Value)> = (lo..)
                .zip(row.iter().zip(&prev))
                .filter(|(_, (new, old))| new != old)
                .map(|(i, (&new, _))| (NodeId(i), new))
                .collect();
            let mut none = Vec::new();
            apply_op(
                &mut dense,
                lo,
                ServerOp::ObserveRow {
                    start: NodeId(lo),
                    values: row.clone(),
                },
                &mut none,
            );
            apply_op(
                &mut sparse,
                lo,
                ServerOp::ObserveSparse { changes },
                &mut none,
            );
            for (a, b) in dense.iter().zip(&sparse) {
                assert_eq!(a.value(), b.value());
                assert_eq!(a.filter(), b.filter());
                assert_eq!(a.group(), b.group());
                assert_eq!(a.pending_violation(), b.pending_violation());
            }
            // The RNG streams agree too: a round draws on both alike.
            let predicate = ExistencePredicate::PendingViolation;
            let msg = ServerMessage::ExistenceRound {
                round: (step % 5) as u32,
                population: len as u32,
                predicate,
            };
            both(ServerOp::Broadcast { msg }, &mut dense, &mut sparse);
            prev = row;
        }
    }

    #[test]
    fn observations_ship_in_the_shorter_form() {
        let n = 64;
        let frame_len = |op: ServerOp| {
            let batch = Frame::Batch {
                wants_reply: false,
                seq: 0,
                ops: vec![op],
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &batch).unwrap() as u64
        };
        let row: Vec<Value> = (0..n as u64).map(|i| 1_000_000 + i).collect();
        let changes: Vec<(NodeId, Value)> = (0..n).map(|i| (NodeId(i), row[i])).collect();
        // Every value changes: both delivery modes send the two dense rows.
        let dense: u64 = [0..32, 32..64]
            .into_iter()
            .map(|r| {
                frame_len(ServerOp::ObserveRow {
                    start: NodeId(r.start),
                    values: row[r].to_vec(),
                })
            })
            .sum();
        let mut by_row = RemoteEngine::with_shards(n, 1, 2);
        let mut by_changes = RemoteEngine::with_shards(n, 1, 2);
        by_row.advance_time(&row);
        by_changes.advance_time_sparse(&changes);
        assert_eq!(by_row.transport_stats().bytes_sent, dense);
        assert_eq!(by_changes.transport_stats().bytes_sent, dense);
        // One value changes: one short sparse frame, nothing for shard 0.
        let mut next = row.clone();
        next[40] += 1;
        for (dense_delivery, net) in [(true, &mut by_row), (false, &mut by_changes)] {
            let before = net.transport_stats();
            if dense_delivery {
                net.advance_time(&next);
            } else {
                net.advance_time_sparse(&[(NodeId(40), next[40])]);
            }
            let after = net.transport_stats();
            assert_eq!(after.frames_sent - before.frames_sent, 1);
            assert_eq!(
                after.bytes_sent - before.bytes_sent,
                frame_len(ServerOp::ObserveSparse {
                    changes: vec![(NodeId(40), next[40])],
                })
            );
            assert_eq!(net.peek_values(), next);
            assert_eq!(net.probe(NodeId(40)), next[40]);
        }
    }

    #[test]
    fn a_silent_round_reply_keeps_its_bytes() {
        use std::io::Read;
        use topk_wire::crc32::crc32;
        use topk_wire::frame::MAGIC;
        // Play the server: read the client's Join, send one existence round
        // no node satisfies, and take the raw bytes of the client's answer.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            run_shard_client(addr, 0, 5, None, ShardNodes::new(0, 5, vec![0; 2]))
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = stream.try_clone().expect("clone");
        let mut writer = BufWriter::new(stream);
        let (join, _) = read_frame(&mut reader).expect("join");
        assert_eq!(join, Frame::Join { shard: 0 });
        let round = ServerMessage::ExistenceRound {
            round: 0,
            population: 2,
            predicate: ExistencePredicate::GreaterThan(100),
        };
        let batch = Frame::Batch {
            wants_reply: true,
            seq: 1,
            ops: vec![
                ServerOp::ObserveRow {
                    start: NodeId(0),
                    values: vec![4, 9],
                },
                ServerOp::Broadcast { msg: round },
            ],
        };
        write_frame(&mut writer, &batch).expect("batch");
        let mut prefix = [0u8; 4];
        reader.read_exact(&mut prefix).expect("reply prefix");
        let mut raw = prefix.to_vec();
        raw.resize(4 + u32::from_le_bytes(prefix) as usize, 0);
        reader.read_exact(&mut raw[4..]).expect("reply payload");
        write_frame(&mut writer, &Frame::Shutdown).expect("bye");
        let (leave, _) = read_frame(&mut reader).expect("leave");
        assert_eq!(leave, Frame::Leave { shard: 0 });
        client.join().expect("client exits cleanly");
        // Replies tag, seq 1, no replies, the idle byte, then the trailer.
        let mut payload = vec![MAGIC, topk_wire::WIRE_VERSION, 2, 1, 0, 1];
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        assert_eq!(raw, expected);
    }

    #[test]
    fn lossy_replies_degrade_to_polls_and_converge() {
        let spec = FaultSpec::drop_upstream(0xBEEF, 800);
        let script = |net: &mut RemoteEngine| {
            let mut out = Vec::new();
            net.advance_time(&[10, 20, 30, 40, 50, 60]);
            for round in 0..4 {
                out.push(net.existence_round(round, 6, ExistencePredicate::AtLeast(35)));
            }
            out.push(vec![NodeMessage::ValueReport {
                node: NodeId(0),
                value: net.probe(NodeId(3)),
            }]);
            out
        };
        let mut clean = RemoteEngine::with_shards(6, 77, 2);
        let mut lossy = RemoteEngine::with_fault_spec(6, 77, 2, &spec, Duration::from_millis(20));
        let clean_out = script(&mut clean);
        let lossy_out = script(&mut lossy);
        assert_eq!(clean_out, lossy_out, "polls must recover every lost reply");
        assert!(
            lossy.polls_sent() > 0,
            "an 80% drop rate over 9 reply frames cannot go unnoticed"
        );
        // Recovery traffic is separable: strip it and the clean run remains.
        let mut lossy_stats = lossy.stats();
        let recovery = lossy_stats.messages_of_label(ProtocolLabel::Recovery);
        assert_eq!(recovery, lossy.polls_sent(), "one recovery unit per poll");
        lossy_stats
            .by_label_kind
            .retain(|(label, _), _| *label != ProtocolLabel::Recovery);
        assert_eq!(lossy_stats, clean.stats());
    }
}
