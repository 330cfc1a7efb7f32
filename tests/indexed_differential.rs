//! Differential test: the indexed, sharded and remote engines are
//! bit-identical to the baseline.
//!
//! `IndexedEngine` skips nodes whose predicate does not hold; `ShardedEngine`
//! additionally partitions the population into per-worker shards and merges
//! per-shard replies; `RemoteEngine` moves every interaction through the
//! `topk-wire` binary format over loopback TCP connections; the baseline
//! `DeterministicEngine` visits every node in-process. Because a node only
//! consumes randomness *after* its predicate evaluated to true — and RNG
//! streams are per node, so neither the visiting thread nor the transport can
//! matter — all engines must agree on every reply, every message count (full
//! `CommStats` equality, per label and kind) and every piece of node state,
//! for *any* schedule of operations and *any* shard count.
//!
//! The schedules here are adversarially random: interleaved dense and sparse
//! observations, explicit filters, group unicasts and broadcasts, parameter
//! broadcasts of all three rule families, probes, existence runs with every
//! predicate shape, and raw existence rounds at any round of the budget. A
//! raw round can land at round r > 0 right after a mutation, which is what
//! the remote engine's idle marks (skip a shard none of whose nodes
//! satisfies the predicate) must survive: whole runs always restart at
//! round 0, which asks every shard anyway. The in-process engines' per-run
//! active sets (collect once, reuse while the predicate and the node state
//! stand still) get their own battery of back-to-back rounds, and so do the
//! keystream table's eight-stream refills, at populations of 9, 37 and 300
//! where rounds that every node joins fill whole batches, and so do the
//! one-pass broadcasts and the complement collections of open rank windows,
//! at 200 nodes, where node state spans several 64-node chunks. 256 randomized
//! schedules are checked per in-process battery (32 for the keystream
//! battery's longer schedules, 24 for the broadcast battery's larger
//! population, 64 for the loopback battery, which pays real
//! socket round-trips per operation), plus full monitor runs on random
//! traces.
//!
//! The fault layer is held to the same standard: a `FaultyTransport` wrapping
//! any engine with `FaultSpec::none()` must stay bit-identical to the bare
//! baseline, and a *seeded* fault plan must replay bit-identically — same
//! replies, same `CommStats`, same `FaultStats` — both across runs and
//! across different inner engines.

use proptest::prelude::*;
use topk_core::existence::{existence, round_budget};
use topk_core::monitor::{run_on_rows, Monitor};
use topk_core::{CombinedMonitor, ExactTopKMonitor, TopKMonitor};
use topk_model::fault::{FaultSpec, FaultStats, LatencySpec};
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_net::{
    DeterministicEngine, Dispatch, FaultyTransport, IndexedEngine, Network, RemoteEngine,
    ShardedEngine,
};

const N: usize = 8;

/// One encoded schedule entry: `(kind, node-ish, x, y)` decoded by [`apply`].
type Op = (u8, usize, u64, u64);

/// Number of operation kinds [`apply`] decodes.
const OPS: u8 = 9;

/// Applies one decoded operation and returns whatever upstream traffic it
/// produced (so the caller can compare engine outputs op by op).
fn apply(net: &mut dyn Network, op: Op) -> Vec<NodeMessage> {
    let (kind, a, x, y) = op;
    let node = NodeId(a % N);
    match kind % OPS {
        0 => {
            // Dense observation row, derived deterministically from the seeds.
            let row: Vec<Value> = (0..N as u64).map(|i| (x + i * y) % 997).collect();
            net.advance_time(&row);
            Vec::new()
        }
        1 => {
            net.advance_time_sparse(&[(node, x % 997), (NodeId((a + 3) % N), y % 997)]);
            Vec::new()
        }
        2 => {
            let filter = match y % 3 {
                0 => Filter::at_least(x % 997),
                1 => Filter::at_most(x % 997),
                _ => {
                    let (lo, hi) = ((x % 997).min(y % 997), (x % 997).max(y % 997));
                    Filter::bounded(lo, hi).unwrap()
                }
            };
            net.assign_filter(node, filter);
            Vec::new()
        }
        3 => {
            net.assign_group(node, group_from(x));
            Vec::new()
        }
        4 => {
            net.broadcast_group(group_from(x));
            Vec::new()
        }
        5 => {
            net.broadcast_params(params_from(x, y));
            Vec::new()
        }
        6 => vec![NodeMessage::ValueReport {
            node,
            value: net.probe(node),
        }],
        7 => {
            let predicate = match y % 5 {
                0 => ExistencePredicate::PendingViolation,
                1 => ExistencePredicate::GreaterThan(x % 997),
                2 => ExistencePredicate::AtLeast(x % 997),
                3 => ExistencePredicate::LessThan(x % 997),
                _ => ExistencePredicate::RankWindow {
                    above: (x % 2 == 0).then_some((x % 997, node)),
                    below: (y % 3 == 0).then_some((y % 997, NodeId((a + 1) % N))),
                },
            };
            existence(net, predicate).responses
        }
        _ => {
            // One raw round of a run in progress, at any round of the
            // budget. The predicates come from a small set, so consecutive
            // raw rounds often ask the same question with a mutation between.
            let round = (x % (u64::from(round_budget(N)) + 1)) as u32;
            let predicate = match y % 3 {
                0 => ExistencePredicate::PendingViolation,
                1 => ExistencePredicate::AtLeast(500),
                _ => ExistencePredicate::LessThan(500),
            };
            let mut replies = Vec::new();
            net.existence_round_into(round, N as u32, predicate, &mut replies);
            replies
        }
    }
}

fn group_from(x: u64) -> NodeGroup {
    match x % 6 {
        0 => NodeGroup::Upper,
        1 => NodeGroup::Lower,
        2 => NodeGroup::V1,
        3 => NodeGroup::V3,
        4 => NodeGroup::V2_PLAIN,
        _ => NodeGroup::V2 {
            s1: x % 2 == 0,
            s2: x % 3 == 0,
        },
    }
}

fn params_from(x: u64, y: u64) -> FilterParams {
    let (lo, hi) = ((x % 997).min(y % 997), (x % 997).max(y % 997));
    match (x ^ y) % 3 {
        0 => FilterParams::Separator { lo, hi },
        1 => FilterParams::Dense {
            l_r: lo,
            u_r: hi,
            z_lo: lo / 2,
            z_hi: hi.saturating_mul(2),
        },
        _ => FilterParams::SubDense {
            l_r: lo,
            l_rp: lo + (hi - lo) / 3,
            u_rp: hi,
            z_lo: lo / 2,
            z_hi: hi.saturating_mul(2),
        },
    }
}

/// The shard counts the sharded battery runs at, paired with the dispatch
/// placement used for each: the channel path (`Parallel`) is forced for most
/// multi-shard counts even on single-CPU machines, `Inline` and `Auto` cover
/// the other placements, and `num_cpus` ties the battery to whatever the
/// current machine would actually use.
fn sharded_configs() -> Vec<(usize, Dispatch)> {
    let num_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    vec![
        (1, Dispatch::Auto),
        (2, Dispatch::Inline),
        (3, Dispatch::Parallel),
        (7, Dispatch::Parallel),
        (num_cpus, Dispatch::Auto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Identical replies, identical `CommStats`, identical node state over
    /// random schedules of every transport operation.
    #[test]
    fn indexed_engine_matches_baseline_on_random_schedules(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..40,
        ),
        seed in 0u64..10_000,
    ) {
        let mut base = DeterministicEngine::new(N, seed);
        let mut indexed = IndexedEngine::new(N, seed);
        for &op in &ops {
            let replies_base = apply(&mut base, op);
            let replies_indexed = apply(&mut indexed, op);
            prop_assert_eq!(replies_base, replies_indexed, "replies diverge on {:?}", op);
        }
        prop_assert_eq!(base.stats(), indexed.stats());
        prop_assert_eq!(base.peek_filters(), indexed.peek_filters());
        prop_assert_eq!(base.peek_values(), indexed.peek_values());
        for i in 0..N {
            prop_assert_eq!(base.peek_group(NodeId(i)), indexed.peek_group(NodeId(i)));
        }
    }

    /// The sharded engine replays the same schedules bit-identically at every
    /// shard count — replies, full `CommStats`, filters, values, groups.
    #[test]
    fn sharded_engine_matches_baseline_on_random_schedules(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..40,
        ),
        seed in 0u64..10_000,
    ) {
        let mut base = DeterministicEngine::new(N, seed);
        let mut engines: Vec<ShardedEngine> = sharded_configs()
            .into_iter()
            .map(|(workers, dispatch)| ShardedEngine::with_dispatch(N, seed, workers, dispatch))
            .collect();
        for &op in &ops {
            let replies_base = apply(&mut base, op);
            for sharded in &mut engines {
                let replies_sharded = apply(sharded, op);
                prop_assert_eq!(
                    &replies_base,
                    &replies_sharded,
                    "replies diverge on {:?} at {} shards",
                    op,
                    sharded.shard_count()
                );
            }
        }
        for sharded in &engines {
            prop_assert_eq!(base.stats(), sharded.stats(), "stats diverge at {} shards", sharded.shard_count());
            prop_assert_eq!(base.peek_filters(), sharded.peek_filters());
            prop_assert_eq!(base.peek_values(), sharded.peek_values());
            for i in 0..N {
                prop_assert_eq!(base.peek_group(NodeId(i)), sharded.peek_group(NodeId(i)));
            }
        }
    }

    /// Active sets never go stale. The indexed and sharded engines collect a
    /// run's active ids once and reuse them while the predicate and the node
    /// state's write count stay the same. After every operation of a random
    /// schedule, each predicate kind asks one fixed question in two
    /// back-to-back raw rounds, the kinds in alternating order. So every
    /// mutation sits between two rounds of the same question, and every
    /// change of kind between two rounds of different ones. A mutation that
    /// kept the old ids, or a reuse across predicates, would flip coins for
    /// the wrong nodes, and replies or `CommStats` would leave the baseline.
    #[test]
    fn active_sets_never_go_stale(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..30,
        ),
        thresholds in proptest::collection::vec(0u64..997, 4),
        anchor in 0usize..N,
        rounds in proptest::collection::vec(0u64..64, 2),
        seed in 0u64..10_000,
    ) {
        let questions = [
            ExistencePredicate::PendingViolation,
            ExistencePredicate::GreaterThan(thresholds[0]),
            ExistencePredicate::AtLeast(thresholds[1]),
            ExistencePredicate::LessThan(thresholds[2]),
            ExistencePredicate::RankWindow {
                above: Some((thresholds[3], NodeId(anchor))),
                below: None,
            },
        ];
        let budget = u64::from(round_budget(N)) + 1;
        let rounds = [(rounds[0] % budget) as u32, (rounds[1] % budget) as u32];
        let raw_round = |net: &mut dyn Network, round: u32, predicate| {
            let mut replies = Vec::new();
            net.existence_round_into(round, N as u32, predicate, &mut replies);
            replies
        };
        let mut base = DeterministicEngine::new(N, seed);
        let mut engines: Vec<(String, Box<dyn Network>)> =
            vec![("indexed".to_string(), Box::new(IndexedEngine::new(N, seed)))];
        for workers in [1, 3] {
            for dispatch in [Dispatch::Inline, Dispatch::Parallel] {
                engines.push((
                    format!("{workers} shards, {dispatch:?}"),
                    Box::new(ShardedEngine::with_dispatch(N, seed, workers, dispatch)),
                ));
            }
        }
        for (step, &op) in ops.iter().enumerate() {
            let expected = apply(&mut base, op);
            for (name, net) in &mut engines {
                prop_assert_eq!(&expected, &apply(net.as_mut(), op), "{}: replies diverge on {:?}", name, op);
            }
            let mut order = questions;
            if step % 2 == 1 {
                order.reverse();
            }
            for predicate in order {
                for round in rounds {
                    let expected = raw_round(&mut base, round, predicate);
                    for (name, net) in &mut engines {
                        prop_assert_eq!(
                            &expected,
                            &raw_round(net.as_mut(), round, predicate),
                            "{}: round {} of {:?} diverges after {:?}",
                            name,
                            round,
                            predicate,
                            op
                        );
                    }
                }
            }
            for (name, net) in &engines {
                prop_assert_eq!(base.stats(), net.stats(), "{}: stats diverge after {:?}", name, op);
            }
        }
    }

    /// Full monitor runs — protocol stack on top of the engines — agree on the
    /// output set, the validity record and the complete message accounting.
    #[test]
    fn monitors_agree_between_baseline_and_indexed(
        rows in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000, N),
            3..25,
        ),
        k_seed in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let k = k_seed.clamp(1, N - 1);
        let eps = Epsilon::new(1, 8).unwrap();
        for which in 0..3 {
            let make = || -> Box<dyn Monitor> {
                match which {
                    0 => Box::new(ExactTopKMonitor::new(k)),
                    1 => Box::new(TopKMonitor::new(k, eps)),
                    _ => Box::new(CombinedMonitor::new(k, eps)),
                }
            };
            let mut m_base = make();
            let mut base = DeterministicEngine::new(N, seed);
            let r_base = run_on_rows(m_base.as_mut(), &mut base, rows.iter().cloned(), eps);
            let mut m_idx = make();
            let mut indexed = IndexedEngine::new(N, seed);
            let r_idx = run_on_rows(m_idx.as_mut(), &mut indexed, rows.iter().cloned(), eps);
            prop_assert_eq!(&r_base, &r_idx, "run reports diverge for monitor {}", m_base.name());
            prop_assert_eq!(m_base.output(), m_idx.output());
            prop_assert_eq!(base.peek_filters(), indexed.peek_filters());

            let mut m_shard = make();
            let mut sharded = ShardedEngine::with_dispatch(N, seed, 3, Dispatch::Parallel);
            let r_shard = run_on_rows(m_shard.as_mut(), &mut sharded, rows.iter().cloned(), eps);
            prop_assert_eq!(&r_base, &r_shard, "sharded run reports diverge for monitor {}", m_base.name());
            prop_assert_eq!(m_base.output(), m_shard.output());
            prop_assert_eq!(base.peek_filters(), sharded.peek_filters());
        }
    }
}

/// Populations that fill keystream batches of eight streams. On one table,
/// 9 is a batch and one stream left over, 37 four batches and five left
/// over, 300 thirty-seven batches and four left over; on 3 shards, 9 leaves
/// each shard a short batch of three and 37 a batch and a short one.
const BATCH_POPULATIONS: [usize; 3] = [9, 37, 300];

/// One operation of the keystream battery, `(kind, x, y)` decoded by
/// [`apply_batch_op`] over a population of `n`.
type BatchOp = (u8, u64, u64);

/// Kind of the battery's existence round; the kinds below it mutate.
const BATCH_ROUND: u8 = 4;

/// Applies one keystream-battery operation and returns its replies. Every
/// value stays below 1000, so the broadcast of kind 3 (an `Upper` filter of
/// at least 1000) puts every node in violation, and the round's predicates
/// hold for every node once it has run.
fn apply_batch_op(net: &mut dyn Network, n: usize, (kind, x, y): BatchOp) -> Vec<NodeMessage> {
    let node = NodeId((x % n as u64) as usize);
    match kind {
        0 => {
            let row: Vec<Value> = (0..n as u64).map(|i| (x + i * y) % 997).collect();
            net.advance_time(&row);
        }
        1 => net.advance_time_sparse(&[(node, y % 997)]),
        2 => net.apply_membership(&[MembershipEvent::Leave(node), MembershipEvent::Join(node)]),
        3 => {
            net.broadcast_group(NodeGroup::Upper);
            net.broadcast_params(FilterParams::Separator {
                lo: 1000 + x,
                hi: 1000 + x,
            });
        }
        _ => {
            let predicate = match y % 3 {
                0 => ExistencePredicate::AtLeast(0),
                1 => ExistencePredicate::RankWindow {
                    above: Some((Value::MAX, NodeId(0))),
                    below: None,
                },
                _ => ExistencePredicate::PendingViolation,
            };
            let round = (x % (u64::from(round_budget(n)) + 1)) as u32;
            let mut replies = Vec::new();
            net.existence_round_into(round, n as u32, predicate, &mut replies);
            return replies;
        }
    }
    Vec::new()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Keystream batches through the engines. The indexed and sharded
    /// engines draw coins from a keystream table that refills the streams a
    /// round finds exhausted eight at a time. At `N = 8` a shard of two or
    /// three nodes never fills a batch, so this property runs at
    /// populations that do, with at least 64 rounds whose predicate every
    /// node satisfies: `AtLeast(0)`, a rank window wider than any value,
    /// and `PendingViolation` after a broadcast that puts every node in
    /// violation. Every node then draws in every round, all go stale
    /// together every eight rounds, and the batches are full. Observations
    /// change the replies in between, and a Leave/Join reseeds one slot's
    /// stream mid-stream. Replies and `CommStats` must equal the baseline's
    /// after every operation, on the indexed engine, on 1 and 3 shards
    /// with inline and parallel dispatch, and on the remote engine's TCP
    /// shard clients at 1 and 3 connections.
    #[test]
    fn keystream_batches_match_baseline(
        which in 0usize..3,
        script in proptest::collection::vec((0u8..6, 0u64..2000, 0u64..2000), 64..100),
        seed in 0u64..10_000,
    ) {
        let n = BATCH_POPULATIONS[which];
        let mut base = DeterministicEngine::new(n, seed);
        let mut engines: Vec<(String, Box<dyn Network>)> =
            vec![("indexed".to_string(), Box::new(IndexedEngine::new(n, seed)))];
        for workers in [1, 3] {
            for dispatch in [Dispatch::Inline, Dispatch::Parallel] {
                engines.push((
                    format!("{workers} shards, {dispatch:?}"),
                    Box::new(ShardedEngine::with_dispatch(n, seed, workers, dispatch)),
                ));
            }
            engines.push((
                format!("remote, {workers} connections"),
                Box::new(RemoteEngine::with_shards(n, seed, workers)),
            ));
        }
        // Observe, put every node in violation, then one round after each
        // script entry, behind the entry's mutation if it has one.
        let mut ops: Vec<BatchOp> = vec![(0, seed, seed / 7 + 1), (3, 0, 0)];
        for &(kind, x, y) in &script {
            if kind < BATCH_ROUND {
                ops.push((kind, x, y));
            }
            ops.push((BATCH_ROUND, x, y));
        }
        for (step, &op) in ops.iter().enumerate() {
            let expected = apply_batch_op(&mut base, n, op);
            for (name, net) in &mut engines {
                prop_assert_eq!(
                    &expected,
                    &apply_batch_op(net.as_mut(), n, op),
                    "{}: replies diverge at op {} {:?}, n = {}",
                    name,
                    step,
                    op,
                    n
                );
                prop_assert_eq!(
                    base.stats(),
                    net.stats(),
                    "{}: stats diverge at op {} {:?}, n = {}",
                    name,
                    step,
                    op,
                    n
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loopback differential: `RemoteEngine` replays the same schedules over
    /// real TCP connections through the `topk-wire` binary format — replies,
    /// full `CommStats`, filters, values and groups must be bit-identical to
    /// the baseline at every connection count. 64 schedules (every operation
    /// pays genuine socket round-trips, so this battery is costlier per case
    /// than the in-process ones above).
    #[test]
    fn remote_engine_matches_baseline_on_random_schedules(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..30,
        ),
        seed in 0u64..10_000,
    ) {
        let mut base = DeterministicEngine::new(N, seed);
        let mut engines: Vec<RemoteEngine> = [1usize, 3]
            .into_iter()
            .map(|shards| RemoteEngine::with_shards(N, seed, shards))
            .collect();
        for &op in &ops {
            let replies_base = apply(&mut base, op);
            for remote in &mut engines {
                let replies_remote = apply(remote, op);
                prop_assert_eq!(
                    &replies_base,
                    &replies_remote,
                    "replies diverge on {:?} at {} connections",
                    op,
                    remote.shard_count()
                );
            }
        }
        for remote in &engines {
            prop_assert_eq!(base.stats(), remote.stats(), "stats diverge at {} connections", remote.shard_count());
            prop_assert_eq!(base.peek_filters(), remote.peek_filters());
            prop_assert_eq!(base.peek_values(), remote.peek_values());
            for i in 0..N {
                prop_assert_eq!(base.peek_group(NodeId(i)), remote.peek_group(NodeId(i)));
            }
        }
    }

    /// The remote engine's idle marks never go stale. Every operation of a
    /// random schedule is followed by one raw round of a run in progress,
    /// always with the schedule's one predicate, so each mutation sits
    /// between two rounds that ask the same question: if the mutation did
    /// not end a shard's mark, the second round would skip a shard whose
    /// nodes may now reply, and the replies would diverge from the baseline.
    #[test]
    fn remote_idle_marks_never_go_stale(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..30,
        ),
        rounds in proptest::collection::vec(0u64..2000, 30),
        question in 0u64..3,
        seed in 0u64..10_000,
    ) {
        let mut base = DeterministicEngine::new(N, seed);
        let mut engines: Vec<RemoteEngine> = [1usize, 3]
            .into_iter()
            .map(|shards| RemoteEngine::with_shards(N, seed, shards))
            .collect();
        for (&op, &round) in ops.iter().zip(&rounds) {
            // Kind 8 is the raw round; `question` picks its predicate.
            for op in [op, (8, 0, round, question)] {
                let replies_base = apply(&mut base, op);
                for remote in &mut engines {
                    prop_assert_eq!(
                        &replies_base,
                        &apply(remote, op),
                        "replies diverge on {:?} at {} connections",
                        op,
                        remote.shard_count()
                    );
                }
            }
        }
        for remote in &engines {
            prop_assert_eq!(base.stats(), remote.stats());
            prop_assert_eq!(base.peek_filters(), remote.peek_filters());
            prop_assert_eq!(base.peek_values(), remote.peek_values());
        }
    }

    /// The protocol stack end to end over the wire: monitor runs on the
    /// remote engine produce the same reports, outputs and filters as on the
    /// baseline.
    #[test]
    fn monitors_agree_between_baseline_and_remote(
        rows in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000, N),
            3..15,
        ),
        k_seed in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let k = k_seed.clamp(1, N - 1);
        let eps = Epsilon::new(1, 8).unwrap();
        let mut m_base: Box<dyn Monitor> = Box::new(TopKMonitor::new(k, eps));
        let mut base = DeterministicEngine::new(N, seed);
        let r_base = run_on_rows(m_base.as_mut(), &mut base, rows.iter().cloned(), eps);
        let mut m_rem: Box<dyn Monitor> = Box::new(TopKMonitor::new(k, eps));
        let mut remote = RemoteEngine::with_shards(N, seed, 3);
        let r_rem = run_on_rows(m_rem.as_mut(), &mut remote, rows.iter().cloned(), eps);
        prop_assert_eq!(&r_base, &r_rem, "remote run reports diverge");
        prop_assert_eq!(m_base.output(), m_rem.output());
        prop_assert_eq!(base.peek_filters(), remote.peek_filters());
    }
}

/// Population of the broadcast battery: three full 64-node chunks of node
/// state plus a ragged tail, so one-pass broadcasts cross chunk boundaries.
const BROADCAST_POPULATION: usize = 200;

/// Applies one broadcast-battery operation and returns its replies: rows,
/// group unicasts, both broadcast kinds under all three parameter families,
/// and existence runs whose rank windows are open at the bottom, at the top
/// or on both sides, so that whole-population collections take their
/// complement path.
fn apply_broadcast_op(net: &mut dyn Network, (kind, x, y): BatchOp) -> Vec<NodeMessage> {
    let n = BROADCAST_POPULATION;
    let node = NodeId((x % n as u64) as usize);
    match kind % 5 {
        0 => {
            let row: Vec<Value> = (0..n as u64).map(|i| (x + i * y) % 997).collect();
            net.advance_time(&row);
        }
        1 => net.assign_group(node, group_from(y)),
        2 => net.broadcast_group(group_from(x)),
        3 => net.broadcast_params(params_from(x, y)),
        _ => {
            let bound = Some((y % 997, node));
            let predicate = match y % 4 {
                0 => ExistencePredicate::PendingViolation,
                1 => ExistencePredicate::RankWindow {
                    above: None,
                    below: bound,
                },
                2 => ExistencePredicate::RankWindow {
                    above: bound,
                    below: None,
                },
                _ => ExistencePredicate::RankWindow {
                    above: None,
                    below: None,
                },
            };
            return existence(net, predicate).responses;
        }
    }
    Vec::new()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broadcasts across chunk boundaries. The table engines apply a
    /// broadcast to every node in one pass over the node-state columns, 64
    /// nodes a chunk, and the remote engine's server mirror takes the same
    /// pass. At 200 nodes, after random rows, group unicasts, group and
    /// parameter broadcasts, the replies of every existence run and the
    /// `CommStats` must equal the baseline's after every operation, and the
    /// filters, values and groups at the end: on the indexed engine, on 1
    /// and 3 shards, and on the remote engine at 1 and 3 connections.
    #[test]
    fn broadcasts_across_chunks_match_baseline(
        ops in proptest::collection::vec((0u8..5, 0u64..2000, 0u64..2000), 8..40),
        seed in 0u64..10_000,
    ) {
        let n = BROADCAST_POPULATION;
        let mut base = DeterministicEngine::new(n, seed);
        let mut engines: Vec<(String, Box<dyn Network>)> =
            vec![("indexed".to_string(), Box::new(IndexedEngine::new(n, seed)))];
        for workers in [1, 3] {
            engines.push((
                format!("{workers} shards"),
                Box::new(ShardedEngine::with_dispatch(n, seed, workers, Dispatch::Inline)),
            ));
            engines.push((
                format!("remote, {workers} connections"),
                Box::new(RemoteEngine::with_shards(n, seed, workers)),
            ));
        }
        for (step, &op) in ops.iter().enumerate() {
            let expected = apply_broadcast_op(&mut base, op);
            for (name, net) in &mut engines {
                prop_assert_eq!(
                    &expected,
                    &apply_broadcast_op(net.as_mut(), op),
                    "{}: replies diverge at op {} {:?}",
                    name,
                    step,
                    op
                );
                prop_assert_eq!(base.stats(), net.stats(), "{}: stats at op {}", name, step);
            }
        }
        for (name, net) in &mut engines {
            prop_assert_eq!(base.peek_filters(), net.peek_filters(), "{}: filters", name);
            prop_assert_eq!(base.peek_values(), net.peek_values(), "{}: values", name);
            for i in 0..n {
                prop_assert_eq!(
                    base.peek_group(NodeId(i)),
                    net.peek_group(NodeId(i)),
                    "{}: group of node {}",
                    name,
                    i
                );
            }
        }
    }
}

/// The fault plan the seeded-replay battery sweeps: one spec per family plus
/// a mixed plan, all with non-trivial probabilities so the fault RNG stream
/// is genuinely consumed.
fn fault_plan(which: usize, fault_seed: u64) -> FaultSpec {
    match which % 4 {
        0 => FaultSpec::latency_rounds(fault_seed, 0, 2),
        1 => FaultSpec::drop_upstream(fault_seed, 300),
        2 => FaultSpec::crash_rejoin(fault_seed, 100, 2, 4),
        _ => {
            let mut spec = FaultSpec::drop_upstream(fault_seed, 200);
            spec.drop_downstream_permille = 150;
            spec.reorder_permille = 400;
            spec.latency = LatencySpec::Uniform { lo: 0, hi: 1 };
            spec
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The zero-fault wrapper is bit-transparent: `FaultyTransport` with
    /// `FaultSpec::none()` around any engine must reproduce the bare
    /// baseline's replies, `CommStats` and node state on every schedule —
    /// the fault layer may not consume a single random draw or charge a
    /// single message of its own.
    #[test]
    fn zero_fault_wrapper_is_bit_identical_to_the_bare_engines(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..40,
        ),
        seed in 0u64..10_000,
    ) {
        let mut base = DeterministicEngine::new(N, seed);
        let mut wrapped_det =
            FaultyTransport::new(DeterministicEngine::new(N, seed), FaultSpec::none());
        let mut wrapped_idx =
            FaultyTransport::new(IndexedEngine::new(N, seed), FaultSpec::none());
        for &op in &ops {
            let replies_base = apply(&mut base, op);
            prop_assert_eq!(
                &replies_base,
                &apply(&mut wrapped_det, op),
                "wrapped baseline diverges on {:?}",
                op
            );
            prop_assert_eq!(
                &replies_base,
                &apply(&mut wrapped_idx, op),
                "wrapped indexed diverges on {:?}",
                op
            );
        }
        for stats in [wrapped_det.stats(), wrapped_idx.stats()] {
            prop_assert_eq!(base.stats(), stats);
        }
        prop_assert_eq!(base.peek_filters(), wrapped_det.peek_filters());
        prop_assert_eq!(base.peek_filters(), wrapped_idx.peek_filters());
        prop_assert_eq!(base.peek_values(), wrapped_det.peek_values());
        prop_assert_eq!(base.peek_values(), wrapped_idx.peek_values());
        for i in 0..N {
            prop_assert_eq!(base.peek_group(NodeId(i)), wrapped_det.peek_group(NodeId(i)));
            prop_assert_eq!(base.peek_group(NodeId(i)), wrapped_idx.peek_group(NodeId(i)));
        }
        prop_assert_eq!(wrapped_det.fault_stats(), FaultStats::default());
        prop_assert_eq!(wrapped_idx.fault_stats(), FaultStats::default());
    }

    /// A seeded fault plan is an experiment, not noise: the same spec over the
    /// same schedule reproduces every reply, the full `CommStats` and the
    /// `FaultStats` — and since the plan's RNG stream is independent of the
    /// inner engine, two *different* (bit-identical) engines under the same
    /// plan stay bit-identical to each other.
    #[test]
    fn seeded_fault_plans_replay_bit_identically(
        ops in proptest::collection::vec(
            (0u8..OPS, 0usize..N, 0u64..2000, 0u64..2000),
            1..40,
        ),
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        which in 0usize..4,
    ) {
        let spec = fault_plan(which, fault_seed);
        let mut first = FaultyTransport::new(IndexedEngine::new(N, seed), spec);
        let mut again = FaultyTransport::new(IndexedEngine::new(N, seed), spec);
        let mut other = FaultyTransport::new(DeterministicEngine::new(N, seed), spec);
        for &op in &ops {
            let replies = apply(&mut first, op);
            prop_assert_eq!(
                &replies,
                &apply(&mut again, op),
                "replay diverges on {:?} under {}",
                op,
                spec
            );
            prop_assert_eq!(
                &replies,
                &apply(&mut other, op),
                "engines diverge under the same plan on {:?} under {}",
                op,
                spec
            );
        }
        prop_assert_eq!(first.stats(), again.stats());
        prop_assert_eq!(first.stats(), other.stats());
        prop_assert_eq!(first.fault_stats(), again.fault_stats());
        prop_assert_eq!(first.fault_stats(), other.fault_stats());
        prop_assert_eq!(first.peek_values(), other.peek_values());
        prop_assert_eq!(first.peek_filters(), other.peek_filters());
    }
}
