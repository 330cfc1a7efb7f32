//! The keystream table: every node's ChaCha8 stream, stored column by column
//! so that one existence round refills up to eight streams per kernel call.
//!
//! [`Keystream`] holds, per node, the 16-word ChaCha input block (constants,
//! key, the 64-bit counter of the next block, nonce), the buffered keystream
//! block and a dense `u8` word index. A node's entry is built from its
//! `ChaCha8Rng` through the generator's `get_seed`, `get_stream` and
//! `get_word_pos` accessors, and from then on the table draws exactly the
//! `u64`s that the generator's `next_u64` would have drawn (module tests
//! check it draw for draw).
//!
//! ## The three passes of a round
//!
//! [`Keystream::draw_each`] takes a round's active ids (distinct, so each
//! stream draws once) and
//!
//! 1. gathers, without a branch, the streams whose buffer cannot serve a
//!    whole `u64` — the dense index column is all this pass reads;
//! 2. refills those streams, eight blocks per kernel call;
//! 3. draws one `u64` per id in the order given, two words straight from
//!    the buffer.
//!
//! A `u64` whose low word is the last word of a block takes its high word
//! from the next block. The buffer row therefore has a 17th slot: slot 0
//! carries the last word of the previous block, slots 1–16 hold the current
//! one, and every draw reads two adjacent slots. A refill moves slot 16 to
//! slot 0 and moves the index back by 16, so the straddling draw needs no
//! branch either.
//!
//! ## The kernel
//!
//! [`chacha8`] runs ChaCha8 on `L` streams at once over a transposed state,
//! `x[word][lane]`, so each step of a quarter round is one lane-wise
//! operation on a row. With `L = 8` a row is one 256-bit vector. Once the
//! CPU reports AVX2, a round's stale streams go through the eight-lane
//! kernel compiled for AVX2, eight at a time, the last batch padded. Without
//! AVX2, and off x86-64, every refill runs the same kernel one lane at a
//! time, which is the scalar ChaCha8 block function: there the eight-lane
//! kernel would be slower than eight one-lane calls, because LLVM leaves
//! its rotates scalar. `docs/ARCHITECTURE.md` ("Keystream table") has the
//! measured costs.

use rand_chacha::ChaCha8Rng;

/// "expand 32-byte k": words 0–3 of every ChaCha input block.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Streams per wide kernel call.
const LANES: usize = 8;

/// A word index at or past this leaves fewer than two unread words: the
/// stream needs a refill before its next `u64`.
const STALE: u8 = 16;

/// The word index of a stream whose buffer is fully read.
const EXHAUSTED: u8 = 17;

/// Per-node ChaCha8 streams as a struct of arrays (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Keystream {
    /// Per stream: the ChaCha input block of the next block to generate.
    input: Vec<[u32; 16]>,
    /// Per stream: slot 0 carries the previous block's last word, slots
    /// 1..=16 hold the current block.
    buffer: Vec<[u32; 17]>,
    /// Per stream: the slot of the next unread word, `0..=EXHAUSTED`.
    pos: Vec<u8>,
    /// Scratch for pass 1, never shorter than the longest id list drawn.
    stale: Vec<u32>,
}

impl Keystream {
    /// One stream per generator, each continuing where its generator stands.
    pub(crate) fn new(rngs: impl ExactSizeIterator<Item = ChaCha8Rng>) -> Keystream {
        let len = rngs.len();
        let mut table = Keystream {
            input: vec![[0; 16]; len],
            buffer: vec![[0; 17]; len],
            pos: vec![EXHAUSTED; len],
            stale: Vec::new(),
        };
        for (i, rng) in rngs.enumerate() {
            table.reseed(i, &rng);
        }
        table
    }

    /// Replaces stream `i` with one that continues where `rng` stands.
    pub(crate) fn reseed(&mut self, i: usize, rng: &ChaCha8Rng) {
        let seed = rng.get_seed();
        let stream = rng.get_stream();
        let word_pos = rng.get_word_pos();
        let block = (word_pos >> 4) as u64;
        let input = &mut self.input[i];
        input[..4].copy_from_slice(&SIGMA);
        for (word, bytes) in input[4..12].iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        input[12] = block as u32;
        input[13] = (block >> 32) as u32;
        input[14] = stream as u32;
        input[15] = (stream >> 32) as u32;
        self.pos[i] = EXHAUSTED;
        // Mid-block: generate the block and skip the words already read.
        let word = (word_pos & 15) as u8;
        if word != 0 {
            self.refill_one(i);
            self.pos[i] += word;
        }
    }

    /// Draws the next `u64` of each stream in `ids` — exactly what the
    /// stream's `ChaCha8Rng::next_u64` would return — and hands it to `each`
    /// with the id, in the order of `ids`. The ids must be distinct.
    pub(crate) fn draw_each(&mut self, ids: &[u32], mut each: impl FnMut(u32, u64)) {
        // Pass 1: gather the streams that need a refill. Every id is written
        // and only a stale one is kept, so the loop has no branch to miss.
        if self.stale.len() < ids.len() {
            self.stale.resize(ids.len(), 0);
        }
        let mut stale = 0;
        for &i in ids {
            self.stale[stale] = i;
            stale += usize::from(self.pos[i as usize] >= STALE);
        }
        // Pass 2: refill them.
        let scratch = std::mem::take(&mut self.stale);
        self.refill(&scratch[..stale]);
        self.stale = scratch;
        // Pass 3: draw in the order given.
        for &i in ids {
            let s = i as usize;
            let p = usize::from(self.pos[s]);
            let words = &self.buffer[s][p..p + 2];
            let draw = u64::from(words[0]) | u64::from(words[1]) << 32;
            self.pos[s] = p as u8 + 2;
            each(i, draw);
        }
    }

    /// Refills the streams `ids` (distinct, all stale): eight per wide
    /// kernel call when the CPU has AVX2, else one at a time.
    fn refill(&mut self, ids: &[u32]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            for batch in ids.chunks(LANES) {
                // Lanes past a short batch compute a block nobody installs.
                let mut lanes = [[0u32; LANES]; 16];
                for (lane, &i) in batch.iter().enumerate() {
                    for (row, &word) in lanes.iter_mut().zip(&self.input[i as usize]) {
                        row[lane] = word;
                    }
                }
                // SAFETY: `chacha8_avx2` requires a CPU with AVX2, and
                // `is_x86_feature_detected!("avx2")` reported one above.
                #[allow(unsafe_code)]
                let blocks = unsafe { chacha8_avx2(&lanes) };
                for (lane, &i) in batch.iter().enumerate() {
                    self.install(i as usize, &std::array::from_fn(|w| blocks[w][lane]));
                }
            }
            return;
        }
        for &i in ids {
            self.refill_one(i as usize);
        }
    }

    /// Refills stream `i` with the one-lane kernel.
    fn refill_one(&mut self, i: usize) {
        let block = chacha8(&self.input[i].map(|w| [w])).map(|[w]| w);
        self.install(i, &block);
    }

    /// Makes `block`, the keystream block of stream `i`'s input, its current
    /// block: the unread last word of the old block moves to slot 0, the
    /// index moves back by a block, and the block counter advances.
    fn install(&mut self, i: usize, block: &[u32; 16]) {
        let buffer = &mut self.buffer[i];
        buffer[0] = buffer[16];
        buffer[1..].copy_from_slice(block);
        self.pos[i] -= 16;
        let input = &mut self.input[i];
        let next = (u64::from(input[12]) | u64::from(input[13]) << 32).wrapping_add(1);
        input[12] = next as u32;
        input[13] = (next >> 32) as u32;
    }
}

/// The eight-lane kernel compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // `#[target_feature]` requires an `unsafe fn` on Rust 1.75
unsafe fn chacha8_avx2(input: &[[u32; LANES]; 16]) -> [[u32; LANES]; 16] {
    chacha8(input)
}

/// The ChaCha8 block function on `L` streams at once: `input[w][l]` is word
/// `w` of lane `l`'s input block, and the result holds the keystream blocks
/// in the same layout. It and its helpers are always inlined, so that inside
/// `chacha8_avx2` they compile to AVX2 code.
#[inline(always)]
fn chacha8<const L: usize>(input: &[[u32; L]; 16]) -> [[u32; L]; 16] {
    let mut x = *input;
    for _ in 0..4 {
        // Column round.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (row, start) in x.iter_mut().zip(input) {
        for (word, &first) in row.iter_mut().zip(start) {
            *word = word.wrapping_add(first);
        }
    }
    x
}

#[inline(always)]
fn quarter_round<const L: usize>(x: &mut [[u32; L]; 16], a: usize, b: usize, c: usize, d: usize) {
    mix(x, a, b, d, 16);
    mix(x, c, d, b, 12);
    mix(x, a, b, d, 8);
    mix(x, c, d, b, 7);
}

/// One step of a quarter round, lane by lane: `x[p] += x[q]`, then
/// `x[r] = (x[r] ^ x[p]) <<< n`.
#[inline(always)]
fn mix<const L: usize>(x: &mut [[u32; L]; 16], p: usize, q: usize, r: usize, n: u32) {
    let (mut xp, xq, mut xr) = (x[p], x[q], x[r]);
    for ((a, b), d) in xp.iter_mut().zip(xq).zip(&mut xr) {
        *a = a.wrapping_add(b);
        *d = (*d ^ *a).rotate_left(n);
    }
    x[p] = xp;
    x[r] = xr;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// Draws `rounds` rounds over all of `table`'s streams and checks each
    /// draw against the matching generator.
    fn assert_draws_match(table: &mut Keystream, rngs: &mut [ChaCha8Rng], rounds: usize) {
        let ids: Vec<u32> = (0..rngs.len() as u32).collect();
        for round in 0..rounds {
            let mut drawn = Vec::new();
            table.draw_each(&ids, |i, draw| drawn.push((i, draw)));
            let expected: Vec<(u32, u64)> = rngs
                .iter_mut()
                .enumerate()
                .map(|(i, rng)| (i as u32, rng.next_u64()))
                .collect();
            assert_eq!(drawn, expected, "round {round}");
        }
    }

    /// A stream's input block and its next 16 words, read off `rng` at the
    /// start of block `block`.
    fn block_of(rng: &ChaCha8Rng, block: u64) -> ([u32; 16], [u32; 16]) {
        let mut at = rng.clone();
        at.set_word_pos(u128::from(block) << 4);
        let table = Keystream::new([at.clone()].into_iter());
        (table.input[0], std::array::from_fn(|_| at.next_u32()))
    }

    #[test]
    fn draws_equal_next_u64_from_every_word_offset() {
        // Offset 15 straddles a refill; 16 starts on an exhausted block.
        for offset in 0..=16 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xdead_beef);
            for _ in 0..offset {
                rng.next_u32();
            }
            let mut table = Keystream::new([rng.clone()].into_iter());
            assert_draws_match(&mut table, std::slice::from_mut(&mut rng), 40);
        }
    }

    #[test]
    fn batches_of_every_size_draw_like_their_generators() {
        // 1..=8 streams fill one batch; up to 20 leave every remainder after
        // one or two full batches, and every stream goes stale together.
        for streams in 1..=20u64 {
            for offset in [0, 15] {
                let mut rngs: Vec<ChaCha8Rng> = (0..streams)
                    .map(|s| {
                        let mut rng = ChaCha8Rng::seed_from_u64(s * 7 + offset);
                        rng.set_word_pos(u128::from(offset));
                        rng
                    })
                    .collect();
                let mut table = Keystream::new(rngs.clone().into_iter());
                assert_draws_match(&mut table, &mut rngs, 24);
            }
        }
    }

    #[test]
    fn subsets_in_any_order_draw_like_their_generators() {
        // Streams drift apart when rounds draw different subsets, so the
        // stale ones of a round are any mix of ids.
        let mut rngs: Vec<ChaCha8Rng> = (0..37).map(ChaCha8Rng::seed_from_u64).collect();
        let mut table = Keystream::new(rngs.clone().into_iter());
        let mut x = 1u64;
        for round in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut ids: Vec<u32> = (0..37).filter(|i| x >> (i % 61) & 1 == 1).collect();
            if round % 2 == 1 {
                ids.reverse();
            }
            let mut drawn = Vec::new();
            table.draw_each(&ids, |i, draw| drawn.push((i, draw)));
            let expected: Vec<(u32, u64)> = ids
                .iter()
                .map(|&i| (i, rngs[i as usize].next_u64()))
                .collect();
            assert_eq!(drawn, expected, "round {round}");
        }
    }

    #[test]
    fn the_eight_lane_kernel_computes_each_lane_block() {
        let rngs: Vec<ChaCha8Rng> = (0..8).map(|s| ChaCha8Rng::seed_from_u64(s + 100)).collect();
        let blocks: Vec<([u32; 16], [u32; 16])> = rngs
            .iter()
            .enumerate()
            .map(|(lane, rng)| block_of(rng, 3 + lane as u64))
            .collect();
        let mut lanes = [[0u32; 8]; 16];
        for (lane, (input, _)) in blocks.iter().enumerate() {
            for (row, &word) in lanes.iter_mut().zip(input) {
                row[lane] = word;
            }
        }
        let out = chacha8(&lanes);
        for (lane, (_, expected)) in blocks.iter().enumerate() {
            let got: [u32; 16] = std::array::from_fn(|w| out[w][lane]);
            assert_eq!(&got, expected, "lane {lane}");
        }
    }

    #[test]
    fn the_one_lane_kernel_computes_the_block() {
        let rng = ChaCha8Rng::seed_from_u64(5);
        for block in [0, 1, 2, 1000] {
            let (input, expected) = block_of(&rng, block);
            assert_eq!(
                chacha8(&input.map(|w| [w])).map(|[w]| w),
                expected,
                "block {block}"
            );
        }
    }

    #[test]
    fn the_one_lane_refill_path_draws_like_the_generators() {
        // The path of every refill on a CPU without AVX2, taken here on any
        // CPU: refill each stale stream one lane at a time before drawing,
        // so pass 2 finds nothing left to refill.
        let mut rngs: Vec<ChaCha8Rng> = (0..11).map(ChaCha8Rng::seed_from_u64).collect();
        for (s, rng) in rngs.iter_mut().enumerate() {
            rng.set_word_pos(s as u128 * 3);
        }
        let mut table = Keystream::new(rngs.clone().into_iter());
        for round in 0..40 {
            for i in 0..rngs.len() {
                if table.pos[i] >= STALE {
                    table.refill_one(i);
                }
            }
            let expected: Vec<u64> = rngs.iter_mut().map(RngCore::next_u64).collect();
            let mut drawn = Vec::new();
            table.draw_each(&(0..11).collect::<Vec<u32>>(), |_, draw| drawn.push(draw));
            assert_eq!(drawn, expected, "round {round}");
        }
    }

    #[test]
    fn the_block_counter_carries_into_its_high_word() {
        // Block 2³² − 1 is the last before the low counter word wraps; start
        // mid-block and at its last word, and let batches of several streams
        // cross the carry together.
        for word in [0, 1, 15] {
            let mut rngs: Vec<ChaCha8Rng> = (0..9)
                .map(|s| {
                    let mut rng = ChaCha8Rng::seed_from_u64(s);
                    rng.set_word_pos((u128::from(u32::MAX) << 4) + word);
                    rng
                })
                .collect();
            let mut table = Keystream::new(rngs.clone().into_iter());
            assert_draws_match(&mut table, &mut rngs, 40);
            assert_eq!(table.input[0][13], 1, "the counter's high word");
        }
    }

    #[test]
    fn reseeding_a_slot_restarts_only_that_stream() {
        let mut rngs: Vec<ChaCha8Rng> = (0..10).map(ChaCha8Rng::seed_from_u64).collect();
        let mut table = Keystream::new(rngs.clone().into_iter());
        assert_draws_match(&mut table, &mut rngs, 11);
        // A joiner's fresh stream in slot 4, and a used one in slot 9.
        rngs[4] = ChaCha8Rng::seed_from_u64(1_000);
        rngs[9] = ChaCha8Rng::seed_from_u64(2_000);
        for _ in 0..5 {
            rngs[9].next_u32();
        }
        table.reseed(4, &rngs[4]);
        table.reseed(9, &rngs[9]);
        assert_draws_match(&mut table, &mut rngs, 30);
    }
}
