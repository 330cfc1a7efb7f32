//! Node-side state machine.
//!
//! [`SimNode`] is the *entire* logic a distributed node needs: store the filter
//! (or derive it from the last broadcast parameters and the assigned group),
//! watch the locally observed value for filter violations, answer probes, and
//! participate in existence-protocol rounds by flipping the prescribed coin.
//!
//! `SimNode` serves one engine: [`DeterministicEngine`](crate::DeterministicEngine)
//! drives one per node and is the reference the other engines are tested
//! against. Each node owns a `ChaCha8` RNG seeded from `(master seed, node
//! id)` and flips with `Coin::flip`. The indexed engine, the sharded
//! engine's shards and the remote engine's TCP shard clients run the node
//! table (`crate::node_table`) instead: they keep the same streams in a
//! keystream table (`crate::keystream`) that draws the same words in
//! batches, and compare each draw with `Coin::accepts`.
//!
//! Every engine flips the same `Coin`: the caller builds it once per round
//! from `(round, population)`, and a flip is one `u64` draw from the node's
//! RNG compared against a precomputed threshold. The coin documents why that
//! comparison is exactly the integer coin `gen_ratio(min(2^r, P), P)` the
//! engines flipped before, outcome for outcome and draw for draw.

use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_model::rule::filter_for;

/// The state machine executed by every simulated node.
///
/// **Invariant:** after every transition, `pending_violation ==
/// filter.check(value)`. Every transition that touches the value, the
/// filter, the group or the parameters recomputes it, and nothing else
/// writes it. Two consequences the engines rely on:
///
/// - Re-observing an unchanged value is a no-op, so a caller may deliver
///   only the values that changed.
/// - Whether an [`ExistencePredicate`] holds depends only on
///   `(id, value, pending_violation)`, so it can change only through a
///   message or an observation. A node whose predicate fails neither
///   replies nor draws randomness, and stays so until one arrives.
#[derive(Debug, Clone)]
pub struct SimNode {
    id: NodeId,
    value: Value,
    filter: Filter,
    group: NodeGroup,
    params: Option<FilterParams>,
    pending_violation: Option<Violation>,
    rng: ChaCha8Rng,
}

impl SimNode {
    /// Creates a node with the all-embracing filter `[0, ∞)`, value 0 and a
    /// deterministic RNG derived from `(master_seed, id)`.
    pub fn new(id: NodeId, master_seed: u64) -> SimNode {
        let seed = node_seed(master_seed, id);
        SimNode {
            id,
            value: 0,
            filter: Filter::FULL,
            group: NodeGroup::Lower,
            params: None,
            pending_violation: None,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The value observed most recently.
    pub fn value(&self) -> Value {
        self.value
    }

    /// The filter currently in effect.
    pub fn filter(&self) -> Filter {
        self.filter
    }

    /// The group currently assigned by the server.
    pub fn group(&self) -> NodeGroup {
        self.group
    }

    /// The violation the node is waiting to report, if any.
    pub fn pending_violation(&self) -> Option<Violation> {
        self.pending_violation
    }

    /// Observes a new value from the node's private stream.
    ///
    /// Observation is free of communication cost: the node merely records the
    /// value and notes whether it violates the current filter.
    pub fn observe(&mut self, v: Value) {
        self.value = v;
        self.pending_violation = self.filter.check(v);
    }

    /// Handles a message from the server, returning an immediate reply if the
    /// protocol calls for one.
    pub fn handle(&mut self, msg: &ServerMessage) -> Option<NodeMessage> {
        match *msg {
            // A query-scoped assignment carries the node's new *effective*
            // filter (the intersection the server computed); the node applies
            // it exactly like a plain assignment — the QueryId is a cost
            // attribution tag, not node state.
            ServerMessage::AssignFilter(f) | ServerMessage::AssignQueryFilter { filter: f, .. } => {
                self.filter = f;
                self.pending_violation = self.filter.check(self.value);
                None
            }
            ServerMessage::AssignGroup(g) | ServerMessage::BroadcastGroup(g) => {
                self.group = g;
                if let Some(p) = self.params {
                    self.filter = filter_for(g, &p);
                }
                self.pending_violation = self.filter.check(self.value);
                None
            }
            ServerMessage::BroadcastParams(p) => {
                self.params = Some(p);
                self.filter = filter_for(self.group, &p);
                self.pending_violation = self.filter.check(self.value);
                None
            }
            ServerMessage::Probe => Some(NodeMessage::ValueReport {
                node: self.id,
                value: self.value,
            }),
            ServerMessage::ExistenceRound {
                round,
                population,
                predicate,
            } => self.existence_round(Coin::new(round, population), predicate),
            ServerMessage::EndExistenceRun => None,
        }
    }

    /// Re-creates this node as the generation-`generation` joiner of its slot:
    /// fresh monitoring state (value 0, the all-embracing filter, group
    /// `Lower`, no pending violation) and an RNG reseeded from
    /// `(master_seed, id, generation)`, so the joiner shares no randomness with
    /// any previous occupant of the slot.
    ///
    /// The last broadcast parameters are *retained*: the broadcast channel is
    /// reliable in this model, and a joiner synchronises the current parameters
    /// on arrival (the same doctrine `docs/FAULTS.md` establishes for
    /// crash-rejoin). The server separately replays the slot's group and filter
    /// under the `Recovery` cost label.
    pub fn rejoin_generation(&mut self, master_seed: u64, generation: u32) {
        self.value = 0;
        self.filter = Filter::FULL;
        self.group = NodeGroup::Lower;
        self.pending_violation = None;
        self.rng = ChaCha8Rng::seed_from_u64(node_seed_gen(master_seed, self.id, generation));
    }

    /// Participates in one round of an existence run: if the predicate holds
    /// locally, send a message when `coin` (the round's [`Coin`]) comes up.
    ///
    /// When the predicate fails the node neither replies nor draws
    /// randomness.
    pub(crate) fn existence_round(
        &mut self,
        coin: Coin,
        predicate: ExistencePredicate,
    ) -> Option<NodeMessage> {
        if !predicate.evaluate(self.id, self.value, self.pending_violation)
            || !coin.flip(&mut self.rng)
        {
            return None;
        }
        Some(match (predicate, self.pending_violation) {
            (ExistencePredicate::PendingViolation, Some(direction)) => {
                NodeMessage::ViolationReport {
                    node: self.id,
                    value: self.value,
                    direction,
                }
            }
            _ => NodeMessage::ExistenceResponse {
                node: self.id,
                value: self.value,
            },
        })
    }
}

/// Seed of the per-node RNG: a fixed mix of the engine's master seed and the
/// node id, shared by every engine so their random streams agree node for node.
pub(crate) fn node_seed(master_seed: u64, id: NodeId) -> u64 {
    master_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id.index() as u64 + 1)
}

/// Seed of the generation-`generation` occupant of slot `id`: the master seed
/// is displaced by a per-generation odd constant before the [`node_seed`] mix,
/// so generation 0 is *exactly* `node_seed(master_seed, id)` (fresh engines are
/// bit-for-bit unchanged) while every later generation draws from an unrelated
/// stream. Shared by every engine and by the remote shard clients, which
/// compute it independently and must agree with the server's bookkeeping.
pub(crate) fn node_seed_gen(master_seed: u64, id: NodeId, generation: u32) -> u64 {
    node_seed(
        master_seed.wrapping_add(u64::from(generation).wrapping_mul(0xA076_1D64_78BD_642F)),
        id,
    )
}

/// The Lemma 3.1 coin of one existence round: a node whose predicate holds
/// sends a message in round `round` of a run over `population` nodes with
/// probability `min(1, 2^round / population)`.
///
/// The caller builds the coin once per round; [`Coin::flip`] then costs one
/// `u64` draw and one comparison. With `P = max(population, 1)` and
/// `N = min(2^round, P)` (a shift past 31 saturates to `u32::MAX`), a flip
/// draws `x` and returns `x < ⌈N·2⁶⁴/P⌉`. That is exactly the integer coin
/// `gen_ratio(N, P)`, which returns `⌊x·P/2⁶⁴⌋ < N` for the same draw:
///
/// ```text
/// ⌊x·P/2⁶⁴⌋ < N  ⟺  x·P/2⁶⁴ < N     (N is an integer)
///               ⟺  x < N·2⁶⁴/P
///               ⟺  x < ⌈N·2⁶⁴/P⌉    (x is an integer)
/// ```
///
/// Both consume one `next_u64`, so every outcome and every stream position
/// is unchanged. When `N = P` the threshold is `2⁶⁴` and the flip is always
/// true, but it still consumes its draw.
///
/// Every engine flips this coin on the node's own RNG, and *only* for nodes
/// whose predicate holds, so an engine that skips inactive nodes entirely
/// (like `IndexedEngine`) consumes each node's random stream bit-for-bit
/// identically to one that visits all nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coin {
    /// `⌈N·2⁶⁴/P⌉ − 1`, the largest accepted draw: `u64::MAX` when `N = P`.
    max_accept: u64,
}

impl Coin {
    /// The coin of round `round` of an existence run over `population` nodes.
    pub(crate) fn new(round: u32, population: u32) -> Coin {
        let p = population.max(1);
        let n = 1u32.checked_shl(round).unwrap_or(u32::MAX).min(p);
        // ⌈N·2⁶⁴/P⌉ − 1 = ⌊(N·2⁶⁴ − 1)/P⌋, which is below 2⁶⁴ because N ≤ P.
        let max_accept = ((u128::from(n) << 64) - 1) / u128::from(p);
        Coin {
            max_accept: max_accept as u64,
        }
    }

    /// Draws one `u64` from `rng` and reports whether the node sends.
    #[inline]
    pub(crate) fn flip(self, rng: &mut ChaCha8Rng) -> bool {
        self.accepts(rng.next_u64())
    }

    /// Whether a node that drew `draw` sends: the comparison half of
    /// [`Coin::flip`], for callers that draw from the keystream table.
    #[inline]
    pub(crate) fn accepts(self, draw: u64) -> bool {
        draw <= self.max_accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> SimNode {
        SimNode::new(NodeId(0), 42)
    }

    /// The integer coin the engines flipped before [`Coin`]: kept as the
    /// oracle the threshold comparison must reproduce exactly.
    fn existence_coin(rng: &mut ChaCha8Rng, round: u32, population: u32) -> bool {
        use rand::Rng;
        let population = population.max(1);
        let numerator = 1u32.checked_shl(round).unwrap_or(u32::MAX).min(population);
        rng.gen_ratio(numerator, population)
    }

    #[test]
    fn coin_is_certain_once_two_to_round_reaches_population() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..32 {
            assert!(Coin::new(10, 1024).flip(&mut rng));
            assert!(Coin::new(40, 7).flip(&mut rng)); // 2^40 overflows the shl
        }
    }

    #[test]
    fn coin_equals_the_gen_ratio_oracle_flip_for_flip() {
        let populations = [0, 1, 2, 3, 7, 1000, 4096, 5000, 65537, u32::MAX];
        for population in populations {
            for round in 0..=40 {
                let coin = Coin::new(round, population);
                let mut fast = ChaCha8Rng::seed_from_u64(u64::from(population) ^ u64::from(round));
                let mut oracle = fast.clone();
                for flip in 0..200 {
                    assert_eq!(
                        coin.flip(&mut fast),
                        existence_coin(&mut oracle, round, population),
                        "round {round}, population {population}, flip {flip}"
                    );
                    assert_eq!(
                        fast.clone().next_u32(),
                        oracle.clone().next_u32(),
                        "round {round}, population {population}: stream position"
                    );
                }
            }
        }
    }

    #[test]
    fn coin_threshold_sits_exactly_on_the_gen_ratio_boundary() {
        // Random draws rarely land next to the threshold; check the two
        // draws on either side of it against the oracle's arithmetic.
        let populations = [1, 2, 3, 7, 1000, 4096, 5000, 65537, u32::MAX];
        for population in populations {
            for round in 0..=40 {
                let coin = Coin::new(round, population);
                let numerator = 1u32.checked_shl(round).unwrap_or(u32::MAX).min(population);
                let oracle = |x: u64| {
                    ((u128::from(x) * u128::from(population)) >> 64) < u128::from(numerator)
                };
                for x in [coin.max_accept, coin.max_accept.wrapping_add(1)] {
                    assert_eq!(
                        x <= coin.max_accept,
                        oracle(x),
                        "round {round}, population {population}, draw {x:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_node_never_violates() {
        let mut n = node();
        n.observe(12345);
        assert_eq!(n.pending_violation(), None);
        assert_eq!(n.value(), 12345);
        assert_eq!(n.filter(), Filter::FULL);
    }

    #[test]
    fn filter_assignment_detects_immediate_violation() {
        let mut n = node();
        n.observe(100);
        // The paper allows "invalid" filters: assigning [0, 50] to a node holding
        // 100 makes the node observe a violation right away.
        n.handle(&ServerMessage::AssignFilter(Filter::at_most(50)));
        assert_eq!(n.pending_violation(), Some(Violation::FromBelow));
        // And assigning [200, ∞) gives a violation from above.
        n.handle(&ServerMessage::AssignFilter(Filter::at_least(200)));
        assert_eq!(n.pending_violation(), Some(Violation::FromAbove));
        // A containing filter clears the pending violation.
        n.handle(&ServerMessage::AssignFilter(
            Filter::bounded(50, 150).unwrap(),
        ));
        assert_eq!(n.pending_violation(), None);
    }

    #[test]
    fn query_scoped_assignment_behaves_like_plain_assignment() {
        let mut plain = node();
        let mut scoped = node();
        plain.observe(100);
        scoped.observe(100);
        plain.handle(&ServerMessage::AssignFilter(Filter::at_most(50)));
        scoped.handle(&ServerMessage::AssignQueryFilter {
            query: QueryId(7),
            filter: Filter::at_most(50),
        });
        assert_eq!(plain.filter(), scoped.filter());
        assert_eq!(plain.pending_violation(), scoped.pending_violation());
        // An empty effective filter (disjoint query bands) always violates.
        scoped.handle(&ServerMessage::AssignQueryFilter {
            query: QueryId(7),
            filter: Filter::EMPTY,
        });
        assert_eq!(scoped.pending_violation(), Some(Violation::FromBelow));
    }

    #[test]
    fn observation_after_filter_triggers_violation() {
        let mut n = node();
        n.handle(&ServerMessage::AssignFilter(
            Filter::bounded(10, 20).unwrap(),
        ));
        n.observe(15);
        assert_eq!(n.pending_violation(), None);
        n.observe(25);
        assert_eq!(n.pending_violation(), Some(Violation::FromBelow));
        n.observe(5);
        assert_eq!(n.pending_violation(), Some(Violation::FromAbove));
    }

    #[test]
    fn group_and_params_derive_filter() {
        let mut n = node();
        n.observe(100);
        n.handle(&ServerMessage::AssignGroup(NodeGroup::Upper));
        // No params yet: filter unchanged.
        assert_eq!(n.filter(), Filter::FULL);
        n.handle(&ServerMessage::BroadcastParams(FilterParams::Separator {
            lo: 80,
            hi: 80,
        }));
        assert_eq!(n.filter(), Filter::at_least(80));
        // Switching the group re-derives from the stored params.
        n.handle(&ServerMessage::AssignGroup(NodeGroup::Lower));
        assert_eq!(n.filter(), Filter::at_most(80));
        assert_eq!(n.pending_violation(), Some(Violation::FromBelow));
        assert_eq!(n.group(), NodeGroup::Lower);
    }

    #[test]
    fn probe_reports_current_value() {
        let mut n = node();
        n.observe(77);
        let reply = n.handle(&ServerMessage::Probe);
        assert_eq!(
            reply,
            Some(NodeMessage::ValueReport {
                node: NodeId(0),
                value: 77
            })
        );
    }

    #[test]
    fn existence_round_only_fires_when_predicate_holds() {
        let mut n = node();
        n.observe(10);
        // Predicate false: never responds, regardless of probability 1.
        for round in 0..8 {
            let reply = n.handle(&ServerMessage::ExistenceRound {
                round,
                population: 1,
                predicate: ExistencePredicate::GreaterThan(10),
            });
            assert_eq!(reply, None);
        }
        // Predicate true with probability 1 (round so that 2^r >= population).
        let reply = n.handle(&ServerMessage::ExistenceRound {
            round: 0,
            population: 1,
            predicate: ExistencePredicate::AtLeast(10),
        });
        assert!(matches!(
            reply,
            Some(NodeMessage::ExistenceResponse {
                node: NodeId(0),
                value: 10
            })
        ));
    }

    #[test]
    fn existence_round_reports_violation_direction() {
        let mut n = node();
        n.handle(&ServerMessage::AssignFilter(
            Filter::bounded(10, 20).unwrap(),
        ));
        n.observe(30);
        let reply = n.handle(&ServerMessage::ExistenceRound {
            round: 10,
            population: 1,
            predicate: ExistencePredicate::PendingViolation,
        });
        assert_eq!(
            reply,
            Some(NodeMessage::ViolationReport {
                node: NodeId(0),
                value: 30,
                direction: Violation::FromBelow
            })
        );
    }

    #[test]
    fn existence_round_respects_probability_zero_rounds() {
        // With a large population and round 0 the probability is 1/population;
        // over many trials the empirical rate should be roughly 1/population.
        let mut hits = 0;
        let trials = 2000;
        for seed in 0..trials {
            let mut n = SimNode::new(NodeId(0), seed);
            n.observe(100);
            let reply = n.handle(&ServerMessage::ExistenceRound {
                round: 0,
                population: 16,
                predicate: ExistencePredicate::GreaterThan(0),
            });
            if reply.is_some() {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(trials as u32);
        assert!(
            (rate - 1.0 / 16.0).abs() < 0.03,
            "empirical rate {rate} too far from 1/16"
        );
    }

    #[test]
    fn same_seed_gives_same_decisions() {
        let mut a = SimNode::new(NodeId(3), 7);
        let mut b = SimNode::new(NodeId(3), 7);
        a.observe(5);
        b.observe(5);
        for round in 0..10 {
            let msg = ServerMessage::ExistenceRound {
                round,
                population: 64,
                predicate: ExistencePredicate::GreaterThan(0),
            };
            assert_eq!(a.handle(&msg), b.handle(&msg));
        }
    }
}
