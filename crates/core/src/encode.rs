//! Compact binary wire encoding for filters.
//!
//! The data center broadcasts one encoded filter to every base station, so
//! the encoded length *is* the query's downstream communication cost
//! (Fig. 4c/4d use these sizes). Callers read that cost off the encoded
//! frame; no second description of the layout computes it. The format is
//! deterministic — weight entries are emitted in ascending bit order —
//! self-describing, and versioned.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  u32  = 0x4449_504d ("DIPM")
//! version u8  = 2
//! kind   u8   = 0 (Bloom) | 1 (Weighted Bloom)
//! hashes u16
//! seed   u64
//! bits   u64  (filter length in bits)
//! inserted u64
//! words  [u64]                    (bits.div_ceil(64) raw words)
//! -- weighted only --
//! dict_len u32
//! dict*    { num u64, den u64 }   (distinct weights in lowest terms,
//!                                  ascending)
//! sets_len u32                    (at most 65,536)
//! set*     { len u16, ids u16×len }   (distinct weight SETS, first-seen
//!                                      order; ids strictly ascending)
//! id_width u8                     (1 if sets_len ≤ 256, else 2)
//! per set bit, in ascending bit order:
//!   set_id  u8 | u16              (index into the set table, id_width bytes)
//! ```
//!
//! Decoders accept exactly what the encoder writes, so each filter has one
//! encoding:
//!
//! * every dictionary weight is held by some set-table entry;
//! * set-table entries are distinct, and each is named by some set bit;
//! * entries come in first-seen order: over the set bits, the ids' first
//!   occurrences run 0, 1, 2, …;
//! * the id width is the narrowest that indexes the set table; any other
//!   width byte, a valid wider one included, is rejected.
//!
//! So the dictionary of an accepted frame *is* the filter's weight universe.
//!
//! Two levels of interning keep broadcasts small: distinct weights are few
//! (one per combination pattern), and neighbouring band keys carry *identical*
//! weight sets, so thousands of bits typically share a handful of set
//! entries.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bitset::BitSet;
use crate::bloom::BloomFilter;
use crate::error::{CoreError, Result};
use crate::hash::HashFamily;
use crate::params::{FilterParams, MAX_HASHES};
use crate::probe::sealed::Sealed;
use crate::probe::{FoldEntries, FoldState, WeightedProbe, MASK_WIDTH};
use crate::wbf::WeightedBloomFilter;
use crate::weight::Weight;
use crate::weight_set::WeightSet;

const MAGIC: u32 = 0x4449_504d;
const VERSION: u8 = 2;
const KIND_BLOOM: u8 = 0;
const KIND_WEIGHTED: u8 = 1;
/// The most set-table entries a frame may hold: every id fits 2 bytes.
const MAX_SETS: usize = 1 << 16;

fn put_header(buf: &mut BytesMut, kind: u8, hashes: u16, seed: u64, bits: usize, inserted: u64) {
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
    buf.put_u16_le(hashes);
    buf.put_u64_le(seed);
    buf.put_u64_le(bits as u64);
    buf.put_u64_le(inserted);
}

struct Header {
    kind: u8,
    hashes: u16,
    seed: u64,
    bits: usize,
    inserted: u64,
}

fn take_header(buf: &mut Bytes) -> Result<Header> {
    if buf.remaining() < 4 + 1 + 1 + 2 + 8 + 8 + 8 {
        return Err(CoreError::decode("truncated header"));
    }
    if buf.get_u32_le() != MAGIC {
        return Err(CoreError::decode("bad magic"));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CoreError::decode(format!("unsupported version {version}")));
    }
    let kind = buf.get_u8();
    if kind != KIND_BLOOM && kind != KIND_WEIGHTED {
        return Err(CoreError::decode(format!("unknown filter kind {kind}")));
    }
    let hashes = buf.get_u16_le();
    if hashes == 0 || hashes > MAX_HASHES {
        return Err(CoreError::decode("hash count out of range"));
    }
    let seed = buf.get_u64_le();
    let bits = buf.get_u64_le();
    if bits == 0 || bits > u32::MAX as u64 {
        return Err(CoreError::decode("bit length out of range"));
    }
    let inserted = buf.get_u64_le();
    Ok(Header {
        kind,
        hashes,
        seed,
        bits: bits as usize,
        inserted,
    })
}

fn put_words(buf: &mut BytesMut, bits: &BitSet) {
    for &word in bits.as_words() {
        buf.put_u64_le(word);
    }
}

fn take_bits(buf: &mut Bytes, bits: usize) -> Result<BitSet> {
    let word_count = bits.div_ceil(64);
    if buf.remaining() < word_count * 8 {
        return Err(CoreError::decode("truncated bit payload"));
    }
    let mut words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        words.push(buf.get_u64_le());
    }
    BitSet::from_words(words, bits)
}

/// Encodes a classic Bloom filter.
pub fn encode_bloom(filter: &BloomFilter) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_bloom_len(filter));
    put_header(
        &mut buf,
        KIND_BLOOM,
        filter.hashes(),
        filter.seed(),
        filter.bit_len(),
        filter.inserted(),
    );
    put_words(&mut buf, filter.bits());
    buf.freeze()
}

/// The exact byte length [`encode_bloom`] will produce.
pub fn encoded_bloom_len(filter: &BloomFilter) -> usize {
    32 + filter.bits().byte_len()
}

/// Decodes a classic Bloom filter.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] on any malformed input.
pub fn decode_bloom(mut data: Bytes) -> Result<BloomFilter> {
    let header = take_header(&mut data)?;
    if header.kind != KIND_BLOOM {
        return Err(CoreError::decode("expected a bloom filter"));
    }
    let bits = take_bits(&mut data, header.bits)?;
    FilterParams::new(header.bits, header.hashes)?;
    if data.remaining() > 0 {
        return Err(CoreError::decode("trailing bytes after filter payload"));
    }
    let family = HashFamily::new(header.hashes, header.seed);
    Ok(BloomFilter::from_parts(bits, family, header.inserted))
}

/// The per-bit set-id width, in bytes, for a set table of at most
/// [`MAX_SETS`] entries: the narrower of 1 or 2 that indexes every entry.
fn id_width(sets: usize) -> usize {
    if sets <= 1 << 8 {
        1
    } else {
        2
    }
}

/// The wire's set table, taken from a filter's interned sets: the filter's
/// weight universe is the dictionary, and the table ids its set bits name
/// are renumbered in first-seen order over ascending bits.
struct WireTable<'a> {
    fold: &'a FoldState,
    /// The filter's table ids in wire order.
    order: Vec<u32>,
    /// Per filter table id, its wire id (`u32::MAX` for an id no set bit
    /// names).
    wire_id: Vec<u32>,
}

fn intern(filter: &WeightedBloomFilter) -> Result<WireTable<'_>> {
    let fold = filter.fold_state();
    if fold.universe.len() > u16::MAX as usize {
        return Err(CoreError::invalid_params(
            "more distinct weights than the wire format supports",
        ));
    }
    let entries = match &fold.entries {
        FoldEntries::Masks(masks) => masks.len(),
        FoldEntries::Sets(sets) => sets.len(),
    };
    let mut wire_id = vec![u32::MAX; entries];
    let mut order = Vec::new();
    for id in filter.set_ids() {
        let wire = &mut wire_id[id as usize];
        if *wire == u32::MAX {
            if order.len() == MAX_SETS {
                return Err(CoreError::invalid_params(
                    "more distinct weight sets than the wire format supports",
                ));
            }
            *wire = order.len() as u32;
            order.push(id);
        }
    }
    Ok(WireTable {
        fold,
        order,
        wire_id,
    })
}

/// Encodes a weighted Bloom filter.
///
/// Per-bit weight sets are interned: the payload carries each distinct set
/// once plus one set id per set bit (emitted in set-bit order — the decoder
/// already knows which bits are set from the bit array). Each id takes 1 or
/// 2 bytes, the narrower width that indexes the frame's set table. The
/// filter already holds its sets interned, so the set table is its own,
/// renumbered; nothing is hashed per set bit.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParams`] if the filter holds more than
/// `u16::MAX` distinct weights or more than 65,536 distinct weight sets
/// (beyond the wire format's index widths).
pub fn encode_wbf(filter: &WeightedBloomFilter) -> Result<Bytes> {
    let table = intern(filter)?;
    let mut buf = BytesMut::new();
    put_header(
        &mut buf,
        KIND_WEIGHTED,
        filter.hashes(),
        filter.seed(),
        filter.bit_len(),
        filter.inserted(),
    );
    put_words(&mut buf, filter.bits());
    let universe = &table.fold.universe;
    buf.put_u32_le(universe.len() as u32);
    for weight in universe.iter() {
        buf.put_u64_le(weight.numerator());
        buf.put_u64_le(weight.denominator());
    }
    buf.put_u32_le(table.order.len() as u32);
    for &id in &table.order {
        match &table.fold.entries {
            FoldEntries::Masks(masks) => {
                let mut mask = masks[id as usize];
                buf.put_u16_le(mask.count_ones() as u16);
                while mask != 0 {
                    buf.put_u16_le(mask.trailing_zeros() as u16);
                    mask &= mask - 1;
                }
            }
            FoldEntries::Sets(sets) => {
                let set = &sets[id as usize];
                buf.put_u16_le(set.len() as u16);
                for weight in set.iter() {
                    let index = universe.position(weight);
                    buf.put_u16_le(index.expect("the universe holds every set's weights") as u16);
                }
            }
        }
    }
    let width = id_width(table.order.len());
    buf.put_u8(width as u8);
    for id in filter.set_ids() {
        let wire = table.wire_id[id as usize];
        if width == 1 {
            buf.put_u8(wire as u8);
        } else {
            buf.put_u16_le(wire as u16);
        }
    }
    Ok(buf.freeze())
}

/// Everything of a weighted wire frame up to (but not including) the
/// per-bit set-id region.
pub(crate) struct WbfWireBody {
    pub(crate) bits: BitSet,
    pub(crate) family: HashFamily,
    pub(crate) inserted: u64,
    /// The weight dictionary as the universe — every weight in it is held
    /// by some set-table entry, so once the id region names every entry it
    /// is the filter's weight universe — and the set table as the fold
    /// reads it: a mask over the dictionary per entry, or past
    /// [`MASK_WIDTH`] dictionary weights the entry's sorted set.
    pub(crate) fold: FoldState,
    /// How many entries the set table holds.
    pub(crate) sets: usize,
    /// Bytes per set id in the region that follows: 1 or 2, the narrower
    /// that indexes the set table.
    pub(crate) id_width: usize,
}

/// Parses header, bit array, weight dictionary, set table and id width,
/// leaving `data` positioned at the per-bit set-id region. Checks every
/// canonical-form rule the set table carries alone: the dictionary is
/// referenced in full, entries are distinct, and the width byte matches
/// the table.
pub(crate) fn take_wbf_body(data: &mut Bytes) -> Result<WbfWireBody> {
    let header = take_header(data)?;
    if header.kind != KIND_WEIGHTED {
        return Err(CoreError::decode("expected a weighted bloom filter"));
    }
    let bits = take_bits(data, header.bits)?;
    FilterParams::new(header.bits, header.hashes)?;
    if data.remaining() < 4 {
        return Err(CoreError::decode("truncated weight dictionary length"));
    }
    let dict_len = data.get_u32_le() as usize;
    if dict_len > u16::MAX as usize {
        return Err(CoreError::decode("weight dictionary too large"));
    }
    if data.remaining() < dict_len * 16 {
        return Err(CoreError::decode("truncated weight dictionary"));
    }
    let mut dict: Vec<Weight> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let num = data.get_u64_le();
        let den = data.get_u64_le();
        let weight =
            Weight::new(num, den).map_err(|_| CoreError::decode("zero weight denominator"))?;
        if (weight.numerator(), weight.denominator()) != (num, den) {
            return Err(CoreError::decode("weight not in lowest terms"));
        }
        if dict.last().is_some_and(|&last| weight <= last) {
            return Err(CoreError::decode(
                "weight dictionary must be strictly ascending",
            ));
        }
        dict.push(weight);
    }
    if data.remaining() < 4 {
        return Err(CoreError::decode("truncated weight set table length"));
    }
    let sets_len = data.get_u32_le() as usize;
    if sets_len > MAX_SETS {
        return Err(CoreError::decode("weight set table too large"));
    }
    // The declared count is attacker-controlled; every encoded set costs at
    // least 4 bytes (u16 length + one u16 id), so clamp the up-front
    // reservation to what the remaining payload could possibly hold and let
    // the per-entry truncation checks reject the lie.
    let reserve = sets_len.min(data.remaining() / 4);
    // Over a dictionary narrow enough for masks an entry is its mask, and
    // no sorted set is built; wider dictionaries keep each entry's set.
    let fits = dict_len <= MASK_WIDTH;
    let mut masks = Vec::with_capacity(if fits { reserve } else { 0 });
    let mut sets: Vec<WeightSet> = Vec::with_capacity(if fits { 0 } else { reserve });
    let mut referenced = vec![false; dict_len];
    for _ in 0..sets_len {
        if data.remaining() < 2 {
            return Err(CoreError::decode("truncated weight set header"));
        }
        let len = data.get_u16_le() as usize;
        if len == 0 {
            return Err(CoreError::decode("empty weight set entry"));
        }
        if data.remaining() < len * 2 {
            return Err(CoreError::decode("truncated weight set indices"));
        }
        // Ids ascend strictly, as the encoder writes them; over the
        // ascending dictionary every insert then appends.
        let mut set = WeightSet::new();
        let (mut previous, mut mask) = (None, 0u64);
        for _ in 0..len {
            let idx = data.get_u16_le() as usize;
            if previous.is_some_and(|p| idx <= p) {
                return Err(CoreError::decode(
                    "weight set ids must be strictly ascending",
                ));
            }
            previous = Some(idx);
            let weight = dict
                .get(idx)
                .copied()
                .ok_or_else(|| CoreError::decode("weight index outside dictionary"))?;
            referenced[idx] = true;
            if fits {
                mask |= 1 << idx;
            } else {
                set.insert(weight);
            }
        }
        if fits {
            masks.push(mask);
        } else {
            sets.push(set);
        }
    }
    if referenced.contains(&false) {
        return Err(CoreError::decode(
            "weight dictionary entry held by no weight set",
        ));
    }
    let duplicate = if fits {
        let mut sorted = masks.clone();
        sorted.sort_unstable();
        sorted.windows(2).any(|pair| pair[0] == pair[1])
    } else {
        let mut distinct = std::collections::HashSet::with_capacity(sets.len());
        !sets.iter().all(|set| distinct.insert(set))
    };
    if duplicate {
        return Err(CoreError::decode("duplicate weight set table entry"));
    }
    if data.remaining() < 1 {
        return Err(CoreError::decode("truncated set id width"));
    }
    let width = data.get_u8() as usize;
    if width != id_width(sets_len) {
        return Err(CoreError::decode(format!(
            "set id width {width} does not fit a {sets_len}-entry set table"
        )));
    }
    Ok(WbfWireBody {
        bits,
        family: HashFamily::new(header.hashes, header.seed),
        inserted: header.inserted,
        fold: FoldState {
            universe: dict.into_iter().collect(),
            entries: if fits {
                FoldEntries::Masks(masks)
            } else {
                FoldEntries::Sets(sets)
            },
        },
        sets: sets_len,
        id_width: width,
    })
}

/// Decodes a weighted Bloom filter into an owned, mutable filter: the
/// frame is validated once by [`view_wbf`], and the filter takes the
/// view's set table and per-bit ids as its own interned sets, so nothing
/// is copied per set bit.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] on any malformed input, including weight
/// indices outside the dictionary.
pub fn decode_wbf(data: Bytes) -> Result<WeightedBloomFilter> {
    view_wbf(data).map(WeightedBloomFilter::from)
}

/// Decodes a weighted frame into a zero-copy
/// [`WbfFrameView`](crate::WbfFrameView): the frame validator behind
/// [`decode_wbf`], which keeps the per-bit set-id region as a borrowed byte
/// slice of `data`, indexed on demand, instead of copying a weight set out
/// to every set bit.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] on any malformed input.
pub fn view_wbf(data: Bytes) -> Result<crate::WbfFrameView> {
    crate::view::parse_frame(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_wbf() -> WeightedBloomFilter {
        let params = FilterParams::new(4096, 3).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, 77);
        for (i, v) in [10u64, 20, 30, 40, 50].iter().enumerate() {
            wbf.insert(*v, Weight::new(i as u64 + 1, 10).unwrap());
        }
        wbf
    }

    #[test]
    fn bloom_roundtrip() {
        let params = FilterParams::new(2048, 5).unwrap();
        let mut bf = BloomFilter::new(params, 13);
        for v in 0..100u64 {
            bf.insert(v * 3);
        }
        let encoded = encode_bloom(&bf);
        assert_eq!(encoded.len(), encoded_bloom_len(&bf));
        let decoded = decode_bloom(encoded).unwrap();
        assert_eq!(decoded, bf);
    }

    #[test]
    fn wbf_roundtrip() {
        let wbf = sample_wbf();
        let encoded = encode_wbf(&wbf).unwrap();
        let decoded = decode_wbf(encoded).unwrap();
        assert_eq!(decoded, wbf);
    }

    #[test]
    fn decoded_wbf_answers_queries_identically() {
        let wbf = sample_wbf();
        let decoded = decode_wbf(encode_wbf(&wbf).unwrap()).unwrap();
        for v in [10u64, 20, 30, 999] {
            assert_eq!(wbf.query_sequence([v]), decoded.query_sequence([v]));
        }
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let wbf = sample_wbf();
        assert!(decode_bloom(encode_wbf(&wbf).unwrap()).is_err());
        let bf = BloomFilter::new(FilterParams::new(64, 1).unwrap(), 0);
        assert!(decode_wbf(encode_bloom(&bf)).is_err());
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let encoded = encode_wbf(&sample_wbf()).unwrap();
        for cut in [0, 3, 5, 20, 31, encoded.len() - 1] {
            let slice = encoded.slice(0..cut);
            assert!(decode_wbf(slice).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // A frame that decodes and then has bytes left over is corrupt —
        // accepting it would let framing bugs pass silently.
        let mut raw = encode_wbf(&sample_wbf()).unwrap().to_vec();
        raw.push(0);
        assert!(decode_wbf(Bytes::from(raw)).is_err());
        let params = FilterParams::new(2048, 5).unwrap();
        let mut bf = BloomFilter::new(params, 13);
        bf.insert(3);
        let mut raw = encode_bloom(&bf).to_vec();
        raw.extend_from_slice(&[0xAA; 3]);
        assert!(decode_bloom(Bytes::from(raw)).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = encode_wbf(&sample_wbf()).unwrap().to_vec();
        raw[0] ^= 0xff;
        assert!(decode_wbf(Bytes::from(raw)).is_err());
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut raw = encode_wbf(&sample_wbf()).unwrap().to_vec();
        raw[4] = 99;
        assert!(decode_wbf(Bytes::from(raw)).is_err());
    }

    /// A filter whose set table holds exactly `sets` entries: one hash
    /// function over a wide bit array, and the `n`-th key to land on a
    /// fresh bit (counting from 1) carries the weights named by `n`'s
    /// binary digits, so every set bit holds a distinct weight set.
    fn filter_with_sets(sets: usize) -> WeightedBloomFilter {
        let params = FilterParams::new(1 << 20, 1).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, 5);
        let digits: Vec<Weight> = (0..usize::BITS - sets.leading_zeros())
            .map(|d| Weight::new(1, u64::from(d) + 2).unwrap())
            .collect();
        let (mut n, mut key) = (0usize, 0u64);
        while n < sets {
            if !wbf.contains(key) {
                n += 1;
                for (d, &weight) in digits.iter().enumerate() {
                    if n >> d & 1 == 1 {
                        wbf.insert(key, weight);
                    }
                }
            }
            key += 1;
        }
        wbf
    }

    #[test]
    fn set_ids_take_the_narrowest_width_that_indexes_the_set_table() {
        for (sets, width) in [(1, 1), (256, 1), (257, 2), (65_536, 2)] {
            let wbf = filter_with_sets(sets);
            assert_eq!(intern(&wbf).unwrap().order.len(), sets);
            let frame = encode_wbf(&wbf).unwrap();
            // The width byte sits right before the id region.
            let region = wbf.bits().count_ones() * width;
            assert_eq!(usize::from(frame[frame.len() - region - 1]), width);
            assert_eq!(view_wbf(frame.clone()).unwrap(), wbf, "{sets} sets");
            assert_eq!(decode_wbf(frame.clone()).unwrap(), wbf, "{sets} sets");
            let mut v1 = frame.to_vec();
            v1[4] = 1;
            let v1 = Bytes::from(v1);
            let unsupported = CoreError::decode("unsupported version 1");
            assert_eq!(decode_wbf(v1.clone()).unwrap_err(), unsupported);
            assert_eq!(view_wbf(v1).unwrap_err(), unsupported);
        }
        // Past 65,536 sets an id would need a third byte: the set table is
        // capped there, like the weight dictionary at 65,535 weights.
        let wbf = filter_with_sets(65_537);
        let err = encode_wbf(&wbf).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err}");
    }

    #[test]
    fn filters_with_more_weights_than_the_dictionary_indexes_are_unencodable() {
        let params = FilterParams::new(1 << 20, 1).unwrap();
        let mut wbf = WeightedBloomFilter::new(params, 5);
        for key in 0..=u64::from(u16::MAX) {
            wbf.insert(key, Weight::new(1, key + 1).unwrap());
        }
        let err = encode_wbf(&wbf).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParams { .. }), "{err}");
    }

    #[test]
    fn wbf_is_larger_than_bloom_of_same_geometry() {
        // Fig. 4d: the weight table is the storage premium WBF pays.
        let wbf = sample_wbf();
        let params = FilterParams::new(4096, 3).unwrap();
        let mut bf = BloomFilter::new(params, 77);
        for v in [10u64, 20, 30, 40, 50] {
            bf.insert(v);
        }
        assert!(encode_wbf(&wbf).unwrap().len() > encoded_bloom_len(&bf));
    }

    #[test]
    fn empty_filters_roundtrip() {
        let params = FilterParams::new(64, 2).unwrap();
        let bf = BloomFilter::new(params, 1);
        assert_eq!(decode_bloom(encode_bloom(&bf)).unwrap(), bf);
        let wbf = WeightedBloomFilter::new(params, 1);
        assert_eq!(decode_wbf(encode_wbf(&wbf).unwrap()).unwrap(), wbf);
    }
}
