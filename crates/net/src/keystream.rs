//! The keystream table: every node's ChaCha8 stream, stored row by row so
//! that one existence round refills its exhausted streams four blocks at a
//! time, each block read from and written to its stream's own rows.
//!
//! [`Keystream`] holds, per node, the 12 words of the ChaCha input block
//! that differ between blocks and streams (key, the 64-bit counter of the
//! next block, nonce — the four constant words live in the kernels), the
//! buffered keystream block and a dense `u8` word index. A node's entry is
//! built from its `ChaCha8Rng` through the generator's `get_seed`,
//! `get_stream` and `get_word_pos` accessors, and from then on the table
//! draws exactly the `u64`s that the generator's `next_u64` would have drawn
//! (module tests check it draw for draw).
//!
//! ## The two passes of a round
//!
//! [`Keystream::draw_each`] takes a round's active ids (distinct, so each
//! stream draws once) and
//!
//! 1. draws one `u64` per id in the order given, two words straight from
//!    the buffer, and gathers, without a branch, the streams whose buffer
//!    can no longer serve a whole `u64`;
//! 2. refills those streams, four blocks per kernel iteration.
//!
//! So a stream is refilled as soon as it runs dry, and every stream that
//! has drawn since it was seeded holds a whole `u64` when its next round
//! comes. Only a freshly seeded stream can still be dry at its first draw;
//! the draw pass refills it on the spot, a branch taken once per stream.
//! Seeding does not refill, so a node that never draws never touches its
//! buffer row.
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
//! A ChaCha state is a 4×4 matrix of words: the constants, the two halves of
//! the key, and the counter with the nonce. Every step of a round works on
//! whole rows — the column round adds, xors and rotates row against row, and
//! the diagonal round is the same once rows 1–3 are rotated by one, two and
//! three words. Once the CPU reports AVX2, `refill_avx2` keeps one stream's
//! row in each 128-bit half of a 256-bit register, two streams per register
//! and two such pairs side by side, so a refill loads the stream's input row
//! as it lies in the table and stores the block straight into the stream's
//! buffer row: no transpose on either side. Without AVX2, and off x86-64,
//! every refill runs [`chacha8`], the scalar one-lane block function, which
//! is also the reference the AVX2 kernel is tested against.
//! `docs/ARCHITECTURE.md` ("Keystream table") has the measured costs.

use rand_chacha::ChaCha8Rng;

/// "expand 32-byte k": words 0–3 of every ChaCha input block.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A word index at or past this leaves fewer than two unread words: the
/// stream needs a refill before its next `u64`.
const STALE: u8 = 16;

/// The word index of a stream whose buffer is fully read.
const EXHAUSTED: u8 = 17;

/// Per-node ChaCha8 streams as a struct of arrays (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Keystream {
    /// Per stream: words 4–15 of the ChaCha input block of the next block to
    /// generate — the key in 0–7, the 64-bit block counter in 8–9 (low word
    /// first) and the nonce in 10–11. Words 0–3 are [`SIGMA`] for every
    /// stream, so the table does not store them.
    input: Vec<[u32; 12]>,
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
            input: vec![[0; 12]; len],
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
        for (word, bytes) in input[..8].iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        input[8] = block as u32;
        input[9] = (block >> 32) as u32;
        input[10] = stream as u32;
        input[11] = (stream >> 32) as u32;
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
    pub(crate) fn draw_each(&mut self, ids: &[u32], each: impl FnMut(u32, u64)) {
        let stale = self.draw_and_gather(ids, each);
        self.refill_gathered(stale);
    }

    /// Pass 1 of [`Keystream::draw_each`]: draws for every id in order and
    /// gathers, at the front of the scratch list, the streams the draw left
    /// without a whole `u64`; returns how many. Every id is written and only
    /// a stale one is kept, so the gather has no branch to miss.
    ///
    /// The columns are taken apart into slices before the loop, the
    /// per-stream ones cut to one length, so a draw checks its stream index
    /// against one length and reloads no column through `self`.
    fn draw_and_gather(&mut self, ids: &[u32], mut each: impl FnMut(u32, u64)) -> usize {
        if self.stale.len() < ids.len() {
            self.stale.resize(ids.len(), 0);
        }
        let streams = self.pos.len();
        let input = &mut self.input[..streams];
        let buffer = &mut self.buffer[..streams];
        let pos = &mut self.pos[..];
        let gathered = &mut self.stale[..];
        let mut stale = 0;
        for &i in ids {
            let s = i as usize;
            if pos[s] >= STALE {
                // Not drawn from since it was seeded (module docs).
                refill_row(&mut input[s], &mut buffer[s], &mut pos[s]);
            }
            let p = usize::from(pos[s]);
            let words = &buffer[s][p..p + 2];
            let draw = u64::from(words[0]) | u64::from(words[1]) << 32;
            let next = p as u8 + 2;
            pos[s] = next;
            gathered[stale] = i;
            stale += usize::from(next >= STALE);
            each(i, draw);
        }
        stale
    }

    /// Pass 2 of [`Keystream::draw_each`]: refills the first `count`
    /// gathered streams (distinct, all stale), four per iteration of the
    /// row-wise kernel when the CPU has AVX2, else one at a time.
    fn refill_gathered(&mut self, count: usize) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `refill_avx2` requires a CPU with AVX2, and
            // `is_x86_feature_detected!("avx2")` reported one above.
            #[allow(unsafe_code)]
            unsafe {
                refill_avx2(
                    &mut self.input,
                    &mut self.buffer,
                    &mut self.pos,
                    &self.stale[..count],
                );
            }
            return;
        }
        self.refill_one_lane(count);
    }

    /// The refill of a CPU without AVX2: the first `count` gathered streams,
    /// one at a time.
    fn refill_one_lane(&mut self, count: usize) {
        for k in 0..count {
            self.refill_one(self.stale[k] as usize);
        }
    }

    /// Refills stream `i` with the one-lane kernel (see [`refill_row`]).
    fn refill_one(&mut self, i: usize) {
        refill_row(&mut self.input[i], &mut self.buffer[i], &mut self.pos[i]);
    }
}

/// Refills one stream with the one-lane kernel, given its input row, buffer
/// row and word index: the unread last word of the old block moves to slot
/// 0, and the new block fills slots 1–16.
fn refill_row(input: &mut [u32; 12], row: &mut [u32; 17], pos: &mut u8) {
    let block = chacha8(input);
    row[0] = row[16];
    row[1..].copy_from_slice(&block);
    advance(input, pos);
}

/// Moves a stream on past the block just written to slots 1–16 of its
/// buffer row: its word index moves back by a block, and its block counter
/// advances, carrying into the high word.
#[inline(always)]
fn advance(input: &mut [u32; 12], pos: &mut u8) {
    *pos -= 16;
    let next = (u64::from(input[8]) | u64::from(input[9]) << 32).wrapping_add(1);
    input[8] = next as u32;
    input[9] = (next >> 32) as u32;
}

/// Refills the streams `ids` (distinct, all stale) in place, four per
/// iteration. Streams `ids[4g..4g + 4]` share the eight registers of one
/// iteration: registers `[row][pair]` hold input row `row` of stream `4g +
/// 2·pair` in their low half and of stream `4g + 2·pair + 1` in their high
/// half. Each stream's key, counter and nonce rows are loaded from its row
/// of `input` as they lie, and its block is stored straight into slots 1–16
/// of its row of `buffer`, after slot 16 moves to slot 0; then [`advance`]
/// moves it on, exactly like the one-lane path. A short last group repeats
/// its first stream in the lanes it does not fill and stores only the
/// streams it holds.
///
/// # Safety
///
/// The CPU must support AVX2. That is the only precondition: every row is
/// taken by checked indexing, and every load or store moves 16 or 32 bytes
/// through a pointer to a slice of exactly that many bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // `#[target_feature]` requires an `unsafe fn` on Rust 1.75
unsafe fn refill_avx2(
    input: &mut [[u32; 12]],
    buffer: &mut [[u32; 17]],
    pos: &mut [u8],
    ids: &[u32],
) {
    use std::arch::x86_64::*;

    let [s0, s1, s2, s3] = SIGMA.map(|w| w as i32);
    let sigma = _mm256_setr_epi32(s0, s1, s2, s3, s0, s1, s2, s3);

    // Words `w..w + 4` of the input rows of streams `lo` and `hi`, one per
    // 128-bit half.
    macro_rules! pair_row {
        ($lo:expr, $hi:expr, $w:literal) => {
            _mm256_loadu2_m128i(
                input[$hi][$w..$w + 4].as_ptr().cast(),
                input[$lo][$w..$w + 4].as_ptr().cast(),
            )
        };
    }
    // Every rotation is two shifts and an or; LLVM compiles those by 16 and
    // by 8 to byte shuffles.
    macro_rules! rotate_left {
        ($x:expr, $n:literal) => {{
            let x = $x;
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>(x),
                _mm256_srli_epi32::<{ 32 - $n }>(x),
            )
        }};
    }
    // One quarter round on every column of both states in a register set.
    macro_rules! quarter_round {
        ($a:expr, $b:expr, $c:expr, $d:expr) => {
            $a = _mm256_add_epi32($a, $b);
            $d = rotate_left!(_mm256_xor_si256($d, $a), 16);
            $c = _mm256_add_epi32($c, $d);
            $b = rotate_left!(_mm256_xor_si256($b, $c), 12);
            $a = _mm256_add_epi32($a, $b);
            $d = rotate_left!(_mm256_xor_si256($d, $a), 8);
            $c = _mm256_add_epi32($c, $d);
            $b = rotate_left!(_mm256_xor_si256($b, $c), 7);
        };
    }

    for group in ids.chunks(4) {
        let lane: [usize; 4] =
            std::array::from_fn(|l| group.get(l).map_or(group[0], |&i| i) as usize);
        let start = [
            [
                pair_row!(lane[0], lane[1], 0),
                pair_row!(lane[2], lane[3], 0),
            ],
            [
                pair_row!(lane[0], lane[1], 4),
                pair_row!(lane[2], lane[3], 4),
            ],
            [
                pair_row!(lane[0], lane[1], 8),
                pair_row!(lane[2], lane[3], 8),
            ],
        ];
        let [mut a, mut b, mut c, mut d] = [[sigma; 2], start[0], start[1], start[2]];
        for _ in 0..4 {
            for pair in 0..2 {
                quarter_round!(a[pair], b[pair], c[pair], d[pair]);
                // Line the diagonals up as columns, run the diagonal round
                // as a column round, and rotate the rows back.
                b[pair] = _mm256_shuffle_epi32::<0b00_11_10_01>(b[pair]);
                c[pair] = _mm256_shuffle_epi32::<0b01_00_11_10>(c[pair]);
                d[pair] = _mm256_shuffle_epi32::<0b10_01_00_11>(d[pair]);
                quarter_round!(a[pair], b[pair], c[pair], d[pair]);
                b[pair] = _mm256_shuffle_epi32::<0b10_01_00_11>(b[pair]);
                c[pair] = _mm256_shuffle_epi32::<0b01_00_11_10>(c[pair]);
                d[pair] = _mm256_shuffle_epi32::<0b00_11_10_01>(d[pair]);
            }
        }
        for pair in 0..2 {
            a[pair] = _mm256_add_epi32(a[pair], sigma);
            b[pair] = _mm256_add_epi32(b[pair], start[0][pair]);
            c[pair] = _mm256_add_epi32(c[pair], start[1][pair]);
            d[pair] = _mm256_add_epi32(d[pair], start[2][pair]);
        }
        // Per stream, words 0–7 and 8–15 of its block: the low halves of a
        // pair's rows for its first stream, the high halves for its second.
        let blocks = [
            (
                _mm256_permute2x128_si256::<0x20>(a[0], b[0]),
                _mm256_permute2x128_si256::<0x20>(c[0], d[0]),
            ),
            (
                _mm256_permute2x128_si256::<0x31>(a[0], b[0]),
                _mm256_permute2x128_si256::<0x31>(c[0], d[0]),
            ),
            (
                _mm256_permute2x128_si256::<0x20>(a[1], b[1]),
                _mm256_permute2x128_si256::<0x20>(c[1], d[1]),
            ),
            (
                _mm256_permute2x128_si256::<0x31>(a[1], b[1]),
                _mm256_permute2x128_si256::<0x31>(c[1], d[1]),
            ),
        ];
        for (&i, (first, second)) in group.iter().zip(blocks) {
            let i = i as usize;
            let row = &mut buffer[i];
            row[0] = row[16];
            _mm256_storeu_si256(row[1..9].as_mut_ptr().cast(), first);
            _mm256_storeu_si256(row[9..17].as_mut_ptr().cast(), second);
            advance(&mut input[i], &mut pos[i]);
        }
    }
}

/// The ChaCha8 block function on one stream: the keystream block of the
/// input block whose words 4–15 are `input` (words 0–3 are [`SIGMA`]).
fn chacha8(input: &[u32; 12]) -> [u32; 16] {
    let mut start = [0; 16];
    start[..4].copy_from_slice(&SIGMA);
    start[4..].copy_from_slice(input);
    let mut x = start;
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
    for (word, first) in x.iter_mut().zip(start) {
        *word = word.wrapping_add(first);
    }
    x
}

#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
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

    /// A stream's input row and its next 16 words, read off `rng` at the
    /// start of block `block`.
    fn block_of(rng: &ChaCha8Rng, block: u64) -> ([u32; 12], [u32; 16]) {
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
    fn the_row_kernel_refills_each_lane_with_its_one_lane_block() {
        // On a CPU with AVX2 (checked below) `refill_gathered` runs the row
        // kernel, else the one-lane path. Random keys, nonces and buffers at
        // three block counters; 1 to 8 of ten stale streams, in shuffled
        // order, so the last group of a call holds 1 to 4 live streams.
        // Each refilled stream must hold the one-lane block of its own
        // input, and every other stream must keep its rows.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut word = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        };
        let order = [4u32, 1, 9, 0, 7, 2, 8, 5];
        for counter in [0, u64::from(u32::MAX), u64::MAX] {
            for live in 1..=order.len() {
                let input = (0..10)
                    .map(|_| {
                        let mut row: [u32; 12] = std::array::from_fn(|_| word());
                        row[8] = counter as u32;
                        row[9] = (counter >> 32) as u32;
                        row
                    })
                    .collect();
                let mut table = Keystream {
                    input,
                    buffer: (0..10).map(|_| std::array::from_fn(|_| word())).collect(),
                    pos: (0..10).map(|i| STALE + i % 2).collect(),
                    stale: order[..live].to_vec(),
                };
                let before = table.clone();
                table.refill_gathered(live);
                let next = counter.wrapping_add(1);
                for i in 0..10 {
                    let what = format!("stream {i}, {live} live, counter {counter:#x}");
                    if !order[..live].contains(&(i as u32)) {
                        assert_eq!(table.buffer[i], before.buffer[i], "{what}");
                        assert_eq!(table.input[i], before.input[i], "{what}");
                        assert_eq!(table.pos[i], before.pos[i], "{what}");
                        continue;
                    }
                    let block = chacha8(&before.input[i]);
                    assert_eq!(table.buffer[i][0], before.buffer[i][16], "{what}");
                    assert_eq!(table.buffer[i][1..], block, "{what}");
                    assert_eq!(table.pos[i], before.pos[i] - 16, "{what}");
                    let mut advanced = before.input[i];
                    advanced[8] = next as u32;
                    advanced[9] = (next >> 32) as u32;
                    assert_eq!(table.input[i], advanced, "{what}");
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        if !is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this CPU: only the one-lane path was checked");
        }
    }

    #[test]
    fn the_one_lane_kernel_computes_the_block() {
        let rng = ChaCha8Rng::seed_from_u64(5);
        for block in [0, 1, 2, 1000] {
            let (input, expected) = block_of(&rng, block);
            assert_eq!(chacha8(&input), expected, "block {block}");
        }
    }

    #[test]
    fn the_one_lane_refill_path_draws_like_the_generators() {
        // The path of every refill on a CPU without AVX2, taken here on any
        // CPU: each round is pass 1 of `draw_each`, then the one-lane refill
        // of the streams it gathered.
        let mut rngs: Vec<ChaCha8Rng> = (0..11).map(ChaCha8Rng::seed_from_u64).collect();
        for (s, rng) in rngs.iter_mut().enumerate() {
            rng.set_word_pos(s as u128 * 3);
        }
        let mut table = Keystream::new(rngs.clone().into_iter());
        let ids: Vec<u32> = (0..11).collect();
        let mut refilled = 0;
        for round in 0..40 {
            let expected: Vec<u64> = rngs.iter_mut().map(RngCore::next_u64).collect();
            let mut drawn = Vec::new();
            let stale = table.draw_and_gather(&ids, |_, draw| drawn.push(draw));
            table.refill_one_lane(stale);
            refilled += stale;
            assert_eq!(drawn, expected, "round {round}");
        }
        // Each stream read 80 words, five blocks or more: all but its first
        // came through the one-lane refill.
        assert!(refilled >= 4 * ids.len(), "{refilled} one-lane refills");
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
            assert_eq!(table.input[0][9], 1, "the counter's high word");
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
