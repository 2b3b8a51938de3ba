//! The interned weight-set table of an owned
//! [`WeightedBloomFilter`](crate::WeightedBloomFilter).
//!
//! The paper gives every set bit "a pointer to a queue of weights"
//! (Section II-B), and neighbouring band keys point at identical queues: a
//! standing filter with thousands of set bits holds a few hundred distinct
//! sets over a few dozen weights. The table holds each distinct set once,
//! as a bitmask over the filter's weights, and every occupied position
//! names its set by a `u32` id, so a mutation pays per distinct set, not
//! per position:
//!
//! * bit `b` of a mask stands for the table's `b`-th weight, numbered in
//!   the order weights first arrive. A mask is held as its nonzero 64-bit
//!   words, each with its word index: one word while the filter holds at
//!   most 64 weights, and never more words than the set has weights, so a
//!   table over a wide weight universe costs what its sets hold, not
//!   `sets × weights / 64` words;
//! * each entry keeps a count of the positions naming it, and a mask → id
//!   index covers every entry;
//! * an entry no position names any more stays in the index, where the
//!   next mutation that needs its set revives it. An insert only adds a
//!   weight to a position, so an insert-only history leaves at most one
//!   entry per weight it attached at a position: what one set per position
//!   would hold, most of it dead. A bulk build
//!   ([`WeightedBloomFilter::from_pairs`](crate::WeightedBloomFilter::from_pairs))
//!   interns each position's final set alone, so up to 64 weights it leaves
//!   no dead entry. Deltas can churn a table forever, so a delta that leaves
//!   dead entries outnumbering live ones by more than [`SLACK`] rebuilds
//!   the table from its live entries, dropping the weights no live entry
//!   holds and renumbering the ids. A station's table thus stays within
//!   twice its live sets plus the slack over any delta history.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::hash::mix64;
use crate::probe::{FoldEntries, FoldState, MASK_WIDTH};
use crate::wbf::WeightDiff;
use crate::weight::Weight;
use crate::weight_set::WeightSet;

/// The id of a position that carries no weights.
pub(crate) const EMPTY: u32 = u32::MAX;

/// How many dead entries beyond the live ones, and weights beyond twice
/// those its last rebuild kept, a table tolerates before a delta rebuilds
/// it.
pub(crate) const SLACK: usize = 64;

/// A [`WeightDiff`] as masks over one [`SetTable`]'s weights, from
/// [`SetTable::diff_masks`]: the removed weights (`None` for a weight the
/// table has never seen) and the added ones.
pub(crate) type DiffMask = (Option<Vec<MaskWord>>, Vec<MaskWord>);

/// One nonzero word of a mask, `(word index, bits)`: bit `b` of the word
/// at index `i` stands for the table's weight `64·i + b`. A mask lists its
/// words by ascending index.
pub(crate) type MaskWord = (u32, u64);

/// Folds 64-bit words through [`mix64`]: a fast hasher for keys that are
/// ids, packed id pairs, masks or weights.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Passes a key that is a hash already through unchanged.
#[derive(Debug, Default, Clone, Copy)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only mask hashes key the index");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Two `u32` ids as one map key.
pub(crate) fn pair_key(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// The words of `a` and `b` side by side, by ascending word index:
/// `(index, word of a, word of b)`, a missing word reading as zero.
fn zip_words<'a>(
    a: &'a [MaskWord],
    b: &'a [MaskWord],
) -> impl Iterator<Item = (u32, u64, u64)> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let item = match (a.get(i), b.get(j)) {
            (Some(&(ia, x)), Some(&(ib, y))) if ia == ib => {
                i += 1;
                j += 1;
                (ia, x, y)
            }
            (Some(&(ia, x)), Some(&(ib, _))) if ia < ib => {
                i += 1;
                (ia, x, 0)
            }
            (Some(&(ia, x)), None) => {
                i += 1;
                (ia, x, 0)
            }
            (_, Some(&(ib, y))) => {
                j += 1;
                (ib, 0, y)
            }
            (None, None) => return None,
        };
        Some(item)
    })
}

/// The bits set in `mask`, ascending.
fn mask_bits(mask: &[MaskWord]) -> impl Iterator<Item = u32> + '_ {
    mask.iter().flat_map(|&(index, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros();
            rest &= rest.wrapping_sub(1);
            (bit < 64).then_some(index * 64 + bit)
        })
    })
}

/// Appends the mask of the weight bits `bits` (any order, no repeats) to
/// `out`, sorting `bits` in place.
fn push_mask(bits: &mut [u32], out: &mut Vec<MaskWord>) {
    bits.sort_unstable();
    let start = out.len();
    for &bit in bits.iter() {
        let (index, flag) = (bit / 64, 1u64 << (bit % 64));
        match out[start..].last_mut() {
            Some((last, word)) if *last == index => *word |= flag,
            _ => out.push((index, flag)),
        }
    }
}

/// Separates the removed from the added words of a [`diff_key`]; no mask
/// holds a zero word.
const SEPARATOR: MaskWord = (u32::MAX, 0);

/// The change from mask `before` to mask `after` as one map key: the words
/// of the weights that left, [`SEPARATOR`], then the words of those that
/// arrived.
pub(crate) fn diff_key(before: &[MaskWord], after: &[MaskWord], out: &mut Vec<MaskWord>) {
    let words = || zip_words(before, after);
    out.clear();
    out.extend(
        words()
            .map(|(index, was, now)| (index, was & !now))
            .filter(|w| w.1 != 0),
    );
    out.push(SEPARATOR);
    out.extend(
        words()
            .map(|(index, was, now)| (index, now & !was))
            .filter(|w| w.1 != 0),
    );
}

/// The [`WeightDiff`] a [`diff_key`] stands for, its bits numbering the
/// ascending weights `sorted`.
pub(crate) fn key_diff(key: &[MaskWord], sorted: &[Weight]) -> WeightDiff {
    let at = key
        .iter()
        .position(|&word| word == SEPARATOR)
        .expect("a diff key");
    let set = |mask| {
        let mut set = WeightSet::new();
        set.assign_sorted(mask_bits(mask).map(|bit| sorted[bit as usize]));
        set
    };
    WeightDiff {
        removed: set(&key[..at]),
        added: set(&key[at + 1..]),
    }
}

/// Entry `id`'s mask out of a table's `words` and `ends` (empty for
/// [`EMPTY`]), borrowing those two fields alone.
fn entry_mask<'a>(words: &'a [MaskWord], ends: &[u32], id: u32) -> &'a [MaskWord] {
    if id == EMPTY {
        return &[];
    }
    let entry = id as usize;
    let start = if entry == 0 { 0 } else { ends[entry - 1] };
    &words[start as usize..ends[entry] as usize]
}

fn hash_mask(mask: &[MaskWord]) -> u64 {
    let mut hasher = WordHasher::default();
    for &(index, word) in mask {
        hasher.write_u64(word ^ u64::from(index).rotate_right(7));
    }
    hasher.finish()
}

/// The interned weight sets of one filter; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetTable {
    /// Bit `b` of every mask stands for `weights[b]`.
    weights: Vec<Weight>,
    /// Each weight's bit.
    bit_of: WordMap<Weight, u32>,
    /// Every entry's mask, back to back: entry `e` holds
    /// `words[ends[e - 1]..ends[e]]` (from 0 for the first entry).
    words: Vec<MaskWord>,
    ends: Vec<u32>,
    /// Per entry, how many positions name it; zero marks a dead entry.
    refs: Vec<u32>,
    /// How many entries have a nonzero count.
    live: usize,
    /// Mask hash → the newest entry with that hash; `older[e]` is the next
    /// older entry with entry `e`'s hash, or [`EMPTY`].
    index: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    older: Vec<u32>,
    /// How many weights the table held after its last rebuild.
    kept_weights: usize,
    /// The mask buffer of [`SetTable::with_bit`] and [`SetTable::edit`].
    scratch: Vec<MaskWord>,
}

impl SetTable {
    /// A table over `fold`'s universe holding `fold`'s entries, with
    /// entry `e` at id `e` and no position naming any of them yet: the
    /// table of a decoded frame, whose entries are distinct.
    pub(crate) fn from_fold(fold: &FoldState) -> SetTable {
        let mut table = SetTable::default();
        for weight in fold.universe.iter() {
            table.bit(weight);
        }
        table.kept_weights = table.weights.len();
        match &fold.entries {
            FoldEntries::Masks(masks) => {
                for &mask in masks {
                    table.intern(&[(0, mask)]);
                }
            }
            FoldEntries::Sets(sets) => {
                let (mut bits, mut mask) = (Vec::new(), Vec::new());
                for set in sets {
                    bits.clear();
                    bits.extend(set.iter().map(|w| {
                        let bit = fold.universe.position(w);
                        bit.expect("the universe holds every entry's weights") as u32
                    }));
                    mask.clear();
                    push_mask(&mut bits, &mut mask);
                    table.intern(&mask);
                }
            }
        }
        table
    }

    /// How many entries the table holds, dead ones included.
    pub(crate) fn len(&self) -> usize {
        self.refs.len()
    }

    /// How many entries some position names.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// The mask of entry `id`; empty for [`EMPTY`].
    fn mask(&self, id: u32) -> &[MaskWord] {
        entry_mask(&self.words, &self.ends, id)
    }

    /// `weight`'s bit, numbering it next if the table has not seen it.
    pub(crate) fn bit(&mut self, weight: Weight) -> u32 {
        let next = self.weights.len() as u32;
        let bit = *self.bit_of.entry(weight).or_insert(next);
        if bit == next {
            self.weights.push(weight);
        }
        bit
    }

    /// The id of the entry holding `mask` (non-empty), appended as a dead
    /// entry if no entry holds it yet.
    pub(crate) fn intern(&mut self, mask: &[MaskWord]) -> u32 {
        let hash = hash_mask(mask);
        let mut id = self.index.get(&hash).copied().unwrap_or(EMPTY);
        while id != EMPTY {
            if self.mask(id) == mask {
                return id;
            }
            id = self.older[id as usize];
        }
        let id = self.refs.len() as u32;
        self.words.extend_from_slice(mask);
        self.ends.push(self.words.len() as u32);
        self.refs.push(0);
        self.older
            .push(self.index.insert(hash, id).unwrap_or(EMPTY));
        id
    }

    /// Counts one more position naming `id` (nothing for [`EMPTY`]).
    pub(crate) fn retain(&mut self, id: u32) {
        if id != EMPTY {
            let refs = &mut self.refs[id as usize];
            self.live += usize::from(*refs == 0);
            *refs += 1;
        }
    }

    /// Counts one position fewer naming `id` (nothing for [`EMPTY`]).
    pub(crate) fn release(&mut self, id: u32) {
        if id != EMPTY {
            let refs = &mut self.refs[id as usize];
            *refs -= 1;
            self.live -= usize::from(*refs == 0);
        }
    }

    /// The entry of `id`'s set with the weight of `bit` added.
    pub(crate) fn with_bit(&mut self, id: u32, bit: u32) -> u32 {
        let (index, flag) = (bit / 64, 1u64 << (bit % 64));
        let mask = entry_mask(&self.words, &self.ends, id);
        let at = mask.binary_search_by_key(&index, |&(at, _)| at);
        if at.is_ok_and(|at| mask[at].1 & flag != 0) {
            return id;
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.extend_from_slice(mask);
        match at {
            Ok(at) => out[at].1 |= flag,
            Err(at) => out.insert(at, (index, flag)),
        }
        let next = self.intern(&out);
        self.scratch = out;
        next
    }

    /// Each of `diffs` as a mask pair over this table's weights: the
    /// removed weights' mask — `None` when it names a weight the table has
    /// never seen, which no position can carry — and the added weights'
    /// mask, numbering the added weights the table has not seen.
    pub(crate) fn diff_masks(&mut self, diffs: &[WeightDiff]) -> Vec<DiffMask> {
        let mut bits = Vec::new();
        let mask = |bits: &mut Vec<u32>| {
            let mut out = Vec::new();
            push_mask(bits, &mut out);
            out
        };
        diffs
            .iter()
            .map(|diff| {
                bits.clear();
                let known = diff.removed.iter().all(|w| {
                    let bit = self.bit_of.get(&w);
                    bits.extend(bit);
                    bit.is_some()
                });
                let removed = known.then(|| mask(&mut bits));
                bits.clear();
                bits.extend(diff.added.iter().map(|w| self.bit(w)));
                (removed, mask(&mut bits))
            })
            .collect()
    }

    /// The entry `id`'s set turns into under `diff`: [`EMPTY`] when no
    /// weight is left. Mutates no count.
    ///
    /// # Errors
    ///
    /// [`CoreError::Decode`] when the diff removes a weight the set lacks,
    /// or adds one it holds.
    pub(crate) fn edit(&mut self, id: u32, diff: &DiffMask) -> Result<u32> {
        let (removed, added) = (diff.0.as_deref(), diff.1.as_slice());
        let mask = entry_mask(&self.words, &self.ends, id);
        let carried = removed.is_some_and(|removed| {
            zip_words(mask, removed).all(|(_, held, gone)| gone & !held == 0)
        });
        if !carried {
            return Err(CoreError::decode(
                "delta removes a weight the position does not carry",
            ));
        }
        if zip_words(mask, added).any(|(_, held, new)| held & new != 0) {
            return Err(CoreError::decode(
                "delta adds a weight the position already carries",
            ));
        }
        // Every removed word sits at an index of `mask`, so one cursor over
        // the removed words keeps pace with the walk over `mask` and `added`.
        let mut gone = removed.unwrap_or_default().iter().peekable();
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.extend(zip_words(mask, added).filter_map(|(index, held, new)| {
            let gone = gone.next_if(|&&(at, _)| at == index).map_or(0, |&(_, w)| w);
            let word = (held & !gone) | new;
            (word != 0).then_some((index, word))
        }));
        let next = if out.is_empty() {
            EMPTY
        } else {
            self.intern(&out)
        };
        self.scratch = out;
        Ok(next)
    }

    /// The weights the table's bits stand for, by bit.
    pub(crate) fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Writes entry `id`'s mask into `out` renumbered by `rank`: bit `b`
    /// becomes bit `rank[b]` (`bits` is scratch).
    pub(crate) fn remapped(
        &self,
        id: u32,
        rank: &[u32],
        bits: &mut Vec<u32>,
        out: &mut Vec<MaskWord>,
    ) {
        bits.clear();
        bits.extend(mask_bits(self.mask(id)).map(|bit| rank[bit as usize]));
        out.clear();
        push_mask(bits, out);
    }

    /// Marks, per weight bit, whether some live entry holds it.
    fn held_bits(&self) -> Vec<bool> {
        let mut held = vec![false; self.weights.len()];
        for (id, &refs) in self.refs.iter().enumerate() {
            if refs > 0 {
                for bit in mask_bits(self.mask(id as u32)) {
                    held[bit as usize] = true;
                }
            }
        }
        held
    }

    /// The fold state of the live entries: the weights they hold, sorted,
    /// and each entry as a mask over that universe (or as its sorted set,
    /// past [`MASK_WIDTH`] weights). Dead entries read as empty.
    pub(crate) fn fold_state(&self) -> FoldState {
        let held = self.held_bits();
        let mut order: Vec<u32> = (0..held.len() as u32)
            .filter(|&bit| held[bit as usize])
            .collect();
        order.sort_unstable_by_key(|&bit| self.weights[bit as usize]);
        let mut rank = vec![0u32; held.len()];
        for (r, &bit) in order.iter().enumerate() {
            rank[bit as usize] = r as u32;
        }
        let mut universe = WeightSet::new();
        universe.assign_sorted(order.iter().map(|&bit| self.weights[bit as usize]));
        let live = |id: usize| self.refs[id] > 0;
        let ranks = |id: usize| mask_bits(self.mask(id as u32)).map(|bit| rank[bit as usize]);
        let entries = if order.len() <= MASK_WIDTH {
            FoldEntries::Masks(
                (0..self.len())
                    .map(|id| {
                        if live(id) {
                            ranks(id).fold(0, |mask, r| mask | 1u64 << r)
                        } else {
                            0
                        }
                    })
                    .collect(),
            )
        } else {
            let mut sorted = Vec::new();
            FoldEntries::Sets(
                (0..self.len())
                    .map(|id| {
                        sorted.clear();
                        if live(id) {
                            sorted.extend(ranks(id));
                        }
                        sorted.sort_unstable();
                        let mut set = WeightSet::new();
                        set.assign_sorted(sorted.iter().map(|&r| universe.as_slice()[r as usize]));
                        set
                    })
                    .collect(),
            )
        };
        FoldState { universe, entries }
    }

    /// Rebuilds the table from its live entries once its dead entries
    /// outnumber the live ones, or its weights double those the last
    /// rebuild kept, by more than [`SLACK`]: the weights no live entry
    /// holds are dropped, and ids are renumbered in `slots` at the
    /// positions set in `occupied`.
    pub(crate) fn compact_if_sparse(&mut self, slots: &mut [u32], occupied: &BitSet) {
        let dead = self.len() - self.live;
        if dead <= self.live + SLACK && self.weights.len() <= 2 * self.kept_weights + SLACK {
            return;
        }
        let mut table = SetTable::default();
        let renumber: Vec<u32> = (self.weights.iter().zip(self.held_bits()))
            .map(|(&weight, held)| if held { table.bit(weight) } else { EMPTY })
            .collect();
        table.kept_weights = table.weights.len();
        let mut ids = vec![EMPTY; self.len()];
        let (mut bits, mut mask) = (Vec::new(), Vec::new());
        for (id, &refs) in self.refs.iter().enumerate() {
            if refs > 0 {
                bits.clear();
                bits.extend(mask_bits(self.mask(id as u32)).map(|bit| renumber[bit as usize]));
                mask.clear();
                push_mask(&mut bits, &mut mask);
                let new = table.intern(&mask);
                table.refs[new as usize] = refs;
                ids[id] = new;
            }
        }
        table.live = self.live;
        for position in occupied.iter_ones() {
            slots[position] = ids[slots[position] as usize];
        }
        *self = table;
    }
}
