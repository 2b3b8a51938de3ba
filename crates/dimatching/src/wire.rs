//! Wire encodings for protocol messages.
//!
//! Station reports and raw-data shipments are encoded into real byte buffers
//! so the metered communication costs (Fig. 4c) reflect honest message
//! sizes, and the center does honest decode work.
//!
//! Two hardening rules hold across the whole module:
//!
//! * **length prefixes never truncate** — every element count crosses
//!   [`frame_count`], so an impossible frame errors at the encoder instead
//!   of writing a prefix that lies about the body;
//! * **decoders consume frames exactly** — bytes left over after the
//!   declared counts are a framing bug or corruption and are rejected, never
//!   silently ignored (the only exceptions are frames whose *final* field is
//!   defined as "the rest of the buffer": the report payload of
//!   [`decode_batch_reports`] and the filter bytes of
//!   [`decode_filter_broadcast`], both of which are validated exhaustively
//!   by their inner decoders).

use bytes::{Buf, BufMut, Bytes, BytesMut};
pub use dipm_core::FilterDelta;
use dipm_core::{encode, BloomFilter, WbfFrameView, Weight, WeightDiff, WeightSet};
use dipm_mobilenet::UserId;
use dipm_timeseries::{Pattern, ToleranceMode};

use crate::config::HashScheme;
use crate::error::{ProtocolError, Result};

/// Bounds an element count to the wire format's `u32` length prefix.
///
/// Every encoder in this module routes its counts through here instead of a
/// truncating `as u32` cast. The overflow is impractical to provoke with
/// real allocations (> 4 Gi elements), which is exactly why the guard is a
/// separate, directly testable function.
///
/// # Errors
///
/// Returns [`ProtocolError::FrameTooLarge`] when `len` exceeds `u32::MAX`.
pub fn frame_count(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| {
        ProtocolError::frame_too_large(format!(
            "{len} elements exceed the u32 length prefix (max {})",
            u32::MAX
        ))
    })
}

/// Rejects bytes left over after a frame's declared contents.
fn expect_consumed(data: &Bytes, frame: &str) -> Result<()> {
    if data.remaining() > 0 {
        return Err(ProtocolError::malformed_report(format!(
            "{} trailing bytes after {frame}",
            data.remaining()
        )));
    }
    Ok(())
}

/// Writes a weight as `{num u64, den u64}`, in lowest terms.
fn put_weight(buf: &mut BytesMut, weight: Weight) {
    buf.put_u64_le(weight.numerator());
    buf.put_u64_le(weight.denominator());
}

/// Reads a weight [`put_weight`] wrote. It must be in lowest terms, as
/// every encoder writes it, so the frame re-encodes to itself; `what` names
/// the frame family in the refusal.
fn take_weight(data: &mut Bytes, what: &str) -> Result<Weight> {
    let (num, den) = (data.get_u64_le(), data.get_u64_le());
    let weight = Weight::new(num, den)
        .map_err(|_| ProtocolError::malformed_report("zero weight denominator"))?;
    if (weight.numerator(), weight.denominator()) != (num, den) {
        return Err(ProtocolError::malformed_report(format!(
            "{what} weight not in lowest terms"
        )));
    }
    Ok(weight)
}

/// Frames a batch broadcast: one strategy-encoded filter section per query,
/// each tagged with its query id (`u32` section count, then per section
/// `{query id u32, len u32, bytes×len}`), ids strictly ascending.
///
/// The sections are opaque to the frame — WBF sections carry query volumes
/// plus a weighted filter, Bloom sections a plain filter — so one frame
/// layout serves every [`FilterStrategy`](crate::FilterStrategy), and every
/// framing byte still crosses the metered network (Fig. 4c stays honest).
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] if the query ids are not
/// strictly ascending (the decoder would reject the frame), and
/// [`ProtocolError::FrameTooLarge`] if the section count or any section
/// length exceeds the `u32` prefix.
pub fn encode_batch_broadcast(sections: &[(u32, Bytes)]) -> Result<Bytes> {
    let body: usize = sections.iter().map(|(_, b)| 8 + b.len()).sum();
    let mut buf = BytesMut::with_capacity(4 + body);
    buf.put_u32_le(frame_count(sections.len())?);
    let mut previous = None;
    for (query, bytes) in sections {
        ascending_query_id(&mut previous, *query)?;
        buf.put_u32_le(*query);
        buf.put_u32_le(frame_count(bytes.len())?);
        buf.extend_from_slice(bytes);
    }
    Ok(buf.freeze())
}

/// Splits a batch-broadcast frame back into `(query id, section bytes)`
/// pairs.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on a truncated header or
/// section, on query ids that are not strictly ascending (so a station
/// never scans the same query twice in one pass), and on trailing bytes
/// after the last declared section. The declared section count is
/// validated against the remaining bytes before any allocation.
pub fn decode_batch_broadcast(mut data: Bytes) -> Result<Vec<(u32, Bytes)>> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report("truncated batch header"));
    }
    let count = data.get_u32_le() as usize;
    // Every section takes at least 8 header bytes; reject impossible counts
    // before allocating.
    if data.remaining() < count.saturating_mul(8) {
        return Err(ProtocolError::malformed_report("truncated batch sections"));
    }
    let mut out: Vec<(u32, Bytes)> = Vec::with_capacity(count);
    let mut previous = None;
    for _ in 0..count {
        if data.remaining() < 8 {
            return Err(ProtocolError::malformed_report("truncated section header"));
        }
        let query = data.get_u32_le();
        let len = data.get_u32_le() as usize;
        if data.remaining() < len {
            return Err(ProtocolError::malformed_report("truncated section body"));
        }
        ascending_query_id(&mut previous, query)?;
        let section = data.slice(0..len);
        data.advance(len);
        out.push((query, section));
    }
    expect_consumed(&data, "batch broadcast sections")?;
    Ok(out)
}

/// Checks that a batch section's query id follows `previous` strictly, and
/// records it: one comparison per section, whatever the section count.
fn ascending_query_id(previous: &mut Option<u32>, query: u32) -> Result<()> {
    if previous.is_some_and(|p| query <= p) {
        return Err(ProtocolError::malformed_report(
            "batch query ids must be strictly ascending",
        ));
    }
    *previous = Some(query);
    Ok(())
}

/// One decoded station batch-report frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportFrame {
    /// The reporting station's index, as declared on the wire.
    pub station: u32,
    /// Modeled tick at which the station sent the report (`0` on a network
    /// without a latency model).
    pub sent_tick: u64,
    /// The strategy-encoded report payload.
    pub payload: Bytes,
}

/// Frames a station's batch report: the station's shard count, its station
/// id and the virtual send tick, followed by the strategy-encoded report
/// payload.
///
/// The 16-byte header is a protocol sanity check three ways: the center
/// configured the deployment's shard layout, so a station reporting under a
/// different `shard_count` indicates a rebalance race; the `station` id lets
/// the center reject duplicate reports instead of double-counting a
/// retransmit; and the `sent_tick` stamp lets it reject out-of-order
/// arrivals (the simulated network delivers in send order, so a regression
/// indicates corruption). All validation lives in [`ReportCollector`].
pub fn encode_batch_reports(
    shard_count: u32,
    station: u32,
    sent_tick: u64,
    payload: Bytes,
) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + payload.len());
    buf.put_u32_le(shard_count);
    buf.put_u32_le(station);
    buf.put_u64_le(sent_tick);
    buf.extend_from_slice(&payload);
    buf.freeze()
}

/// Unwraps a batch-report frame, validating the station's declared shard
/// count against the deployment's configured one.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on truncation or a shard-count
/// mismatch.
pub fn decode_batch_reports(mut data: Bytes, expected_shards: u32) -> Result<ReportFrame> {
    if data.remaining() < 16 {
        return Err(ProtocolError::malformed_report(
            "truncated batch report header",
        ));
    }
    let declared = data.get_u32_le();
    if declared != expected_shards {
        return Err(ProtocolError::malformed_report(format!(
            "shard-count mismatch: station declared {declared}, center expects {expected_shards}"
        )));
    }
    let station = data.get_u32_le();
    let sent_tick = data.get_u64_le();
    Ok(ReportFrame {
        station,
        sent_tick,
        payload: data,
    })
}

/// Center-side admission control for station report frames.
///
/// Wraps [`decode_batch_reports`] with the cross-frame checks a single
/// decode cannot make: each station may report **once** per batch (a
/// duplicate or retransmit must error, never double-count), the station id
/// must belong to the deployment, a frame cannot claim to have been sent
/// *after* it was delivered, and delivery ticks must be non-decreasing in
/// admission order (the center works through its inbox in modeled arrival
/// order, so a regression means the transport corrupted the queue — note
/// that **send** ticks may legitimately regress across stations, since a
/// small report on a slow link overtakes nothing).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use dipm_protocol::wire::{encode_batch_reports, ReportCollector};
///
/// let mut collector = ReportCollector::new(1, 4);
/// let frame = encode_batch_reports(1, 2, 10, Bytes::from_static(b"rows"));
/// let accepted = collector.accept(frame.clone(), 25).unwrap();
/// assert_eq!(accepted.station, 2);
/// // The same station reporting again is rejected, not double-counted.
/// assert!(collector.accept(frame, 26).is_err());
/// ```
#[derive(Debug)]
pub struct ReportCollector {
    expected_shards: u32,
    station_count: u32,
    seen: std::collections::BTreeSet<u32>,
    last_delivered: u64,
}

impl ReportCollector {
    /// A collector for a deployment of `station_count` stations sharded
    /// `expected_shards` ways.
    pub fn new(expected_shards: u32, station_count: u32) -> ReportCollector {
        ReportCollector {
            expected_shards,
            station_count,
            seen: std::collections::BTreeSet::new(),
            last_delivered: 0,
        }
    }

    /// Decodes and admits one report frame delivered at `delivered_tick`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MalformedReport`] on truncation, a
    /// shard-count mismatch, or any [`ReportCollector::admit`] rejection.
    pub fn accept(&mut self, data: Bytes, delivered_tick: u64) -> Result<ReportFrame> {
        let frame = decode_batch_reports(data, self.expected_shards)?;
        self.admit(&frame, delivered_tick)?;
        Ok(frame)
    }

    /// Admits an already-decoded frame delivered at `delivered_tick`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MalformedReport`] on an out-of-range or
    /// duplicate station id, a send tick later than the delivery tick, or a
    /// delivery tick older than the previously admitted frame's. A rejected
    /// frame leaves the collector untouched, so its rows can never be
    /// counted.
    pub fn admit(&mut self, frame: &ReportFrame, delivered_tick: u64) -> Result<()> {
        if frame.station >= self.station_count {
            return Err(ProtocolError::malformed_report(format!(
                "report from unknown station {} (deployment has {})",
                frame.station, self.station_count
            )));
        }
        if self.seen.contains(&frame.station) {
            return Err(ProtocolError::malformed_report(format!(
                "duplicate report from station {}",
                frame.station
            )));
        }
        if frame.sent_tick > delivered_tick {
            return Err(ProtocolError::malformed_report(format!(
                "station {} report delivered at tick {} before it was sent at tick {}",
                frame.station, delivered_tick, frame.sent_tick
            )));
        }
        if delivered_tick < self.last_delivered {
            return Err(ProtocolError::malformed_report(format!(
                "out-of-order report arrival: station {} delivered at tick {} after tick {}",
                frame.station, delivered_tick, self.last_delivered
            )));
        }
        // Admit only after every check passed, so a rejected frame leaves
        // the collector untouched.
        self.seen.insert(frame.station);
        self.last_delivered = delivered_tick;
        Ok(())
    }

    /// How many stations have reported so far.
    pub fn accepted(&self) -> usize {
        self.seen.len()
    }
}

/// Encodes query-tagged `(query, user, weight)` reports: `u32` count then
/// `{query u32, id u64, num u64, den u64}` per entry (28 bytes/candidate —
/// the communication saving DI-matching claims over shipping patterns).
///
/// # Errors
///
/// Returns [`ProtocolError::FrameTooLarge`] if the report count exceeds the
/// `u32` prefix.
pub fn encode_tagged_weight_reports(reports: &[(u32, UserId, Weight)]) -> Result<Bytes> {
    let mut buf = BytesMut::with_capacity(4 + reports.len() * 28);
    buf.put_u32_le(frame_count(reports.len())?);
    for (query, user, weight) in reports {
        buf.put_u32_le(*query);
        buf.put_u64_le(user.0);
        put_weight(&mut buf, *weight);
    }
    Ok(buf.freeze())
}

/// Decodes a query-tagged weight-report payload. Weights must be in
/// lowest terms, as the encoder writes them, so every accepted payload
/// re-encodes to itself.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on truncation, a zero
/// denominator or a weight not in lowest terms.
pub fn decode_tagged_weight_reports(mut data: Bytes) -> Result<Vec<(u32, UserId, Weight)>> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report("truncated report count"));
    }
    let count = data.get_u32_le() as usize;
    if data.remaining() < count.saturating_mul(28) {
        return Err(ProtocolError::malformed_report("truncated report entries"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let query = data.get_u32_le();
        let user = UserId(data.get_u64_le());
        out.push((query, user, take_weight(&mut data, "report")?));
    }
    expect_consumed(&data, "tagged weight reports")?;
    Ok(out)
}

/// Encodes query-tagged candidate ids (the Bloom baseline's batch reports):
/// `u32` count then `{query u32, id u64}` per entry.
///
/// # Errors
///
/// Returns [`ProtocolError::FrameTooLarge`] if the report count exceeds the
/// `u32` prefix.
pub fn encode_tagged_id_reports(reports: &[(u32, UserId)]) -> Result<Bytes> {
    let mut buf = BytesMut::with_capacity(4 + reports.len() * 12);
    buf.put_u32_le(frame_count(reports.len())?);
    for (query, user) in reports {
        buf.put_u32_le(*query);
        buf.put_u64_le(user.0);
    }
    Ok(buf.freeze())
}

/// Decodes a query-tagged id payload.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on truncation.
pub fn decode_tagged_id_reports(mut data: Bytes) -> Result<Vec<(u32, UserId)>> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report("truncated id count"));
    }
    let count = data.get_u32_le() as usize;
    if data.remaining() < count.saturating_mul(12) {
        return Err(ProtocolError::malformed_report("truncated id entries"));
    }
    let out = (0..count)
        .map(|_| (data.get_u32_le(), UserId(data.get_u64_le())))
        .collect();
    expect_consumed(&data, "tagged id reports")?;
    Ok(out)
}

/// Frames a filter broadcast: the per-query global volumes followed by the
/// encoded filter (`u32` count, `u64`×count totals, filter bytes).
///
/// # Errors
///
/// Returns [`ProtocolError::FrameTooLarge`] if the volume count exceeds the
/// `u32` prefix.
pub fn encode_filter_broadcast(query_totals: &[u64], filter: Bytes) -> Result<Bytes> {
    let mut buf = BytesMut::with_capacity(4 + query_totals.len() * 8 + filter.len());
    buf.put_u32_le(frame_count(query_totals.len())?);
    for &t in query_totals {
        buf.put_u64_le(t);
    }
    buf.extend_from_slice(&filter);
    Ok(buf.freeze())
}

/// Splits a filter-broadcast frame back into query volumes and filter bytes.
///
/// The filter bytes are the frame's final, rest-of-buffer field; the filter
/// decoder validates them exhaustively (including trailing garbage).
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on truncation.
pub fn decode_filter_broadcast(mut data: Bytes) -> Result<(Vec<u64>, Bytes)> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(
            "truncated broadcast header",
        ));
    }
    let count = data.get_u32_le() as usize;
    if data.remaining() < count.saturating_mul(8) {
        return Err(ProtocolError::malformed_report("truncated query volumes"));
    }
    let totals = (0..count).map(|_| data.get_u64_le()).collect();
    Ok((totals, data))
}

/// A station's zero-copy view of one WBF broadcast section: the query
/// volumes plus a [`WbfFrameView`] that borrows the received frame bytes —
/// validated once at decode time, then probed in place. The batch scan
/// path uses this instead of materializing an owned
/// [`WeightedBloomFilter`](dipm_core::WeightedBloomFilter), so a broadcast
/// frame is never copied bit-by-bit into station-side structures. Owned
/// decode remains for the one path that must *mutate* filter state: a
/// streaming station applying deltas to its full filter.
#[derive(Debug, Clone)]
pub struct WbfSectionView {
    /// The zero-copy filter view to probe.
    pub filter: WbfFrameView,
    /// The query group's global volumes (the weight-plausibility anchors).
    pub query_totals: Vec<u64>,
}

/// Decodes a filter broadcast into a zero-copy [`WbfSectionView`].
///
/// Accepts and rejects exactly the frames the owned path
/// ([`decode_filter_broadcast`] + [`decode_wbf`](encode::decode_wbf))
/// does, with identical error messages — property-checked in the
/// `wire_fuzz` suite.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on a truncated broadcast
/// header and propagates the frame-view parser's exhaustive validation for
/// the filter bytes.
pub fn view_filter_broadcast(data: Bytes) -> Result<WbfSectionView> {
    let (query_totals, filter_bytes) = decode_filter_broadcast(data)?;
    let filter = encode::view_wbf(filter_bytes)?;
    Ok(WbfSectionView {
        filter,
        query_totals,
    })
}

/// A station's decoded view of one Bloom broadcast section.
///
/// The plain filter has no per-bit weight tables, so its decode is already
/// a single aligned copy of the bit words; the wrapper exists so the
/// station-side decode surface is uniform across filter families.
#[derive(Debug, Clone)]
pub struct BloomSectionView {
    /// The decoded baseline filter.
    pub filter: BloomFilter,
}

/// Decodes a Bloom section broadcast into a [`BloomSectionView`].
///
/// # Errors
///
/// Propagates the filter decoder's exhaustive validation (truncation,
/// geometry, trailing bytes).
pub fn view_bloom_section(data: Bytes) -> Result<BloomSectionView> {
    Ok(BloomSectionView {
        filter: encode::decode_bloom(data)?,
    })
}

/// Encodes a station's full local data (the naive method's shipment):
/// `u32` user count, then per user `{id u64, len u32, values u64×len}`.
///
/// # Errors
///
/// Returns [`ProtocolError::FrameTooLarge`] if the entry count or any
/// pattern length exceeds the `u32` prefix.
pub fn encode_station_data<'a, I>(entries: I) -> Result<Bytes>
where
    I: IntoIterator<Item = (UserId, &'a Pattern)>,
{
    let mut buf = BytesMut::new();
    let mut count = 0usize;
    let mut body = BytesMut::new();
    for (user, pattern) in entries {
        body.put_u64_le(user.0);
        body.put_u32_le(frame_count(pattern.len())?);
        for v in pattern.iter() {
            body.put_u64_le(v);
        }
        count += 1;
    }
    buf.put_u32_le(frame_count(count)?);
    buf.extend_from_slice(&body);
    Ok(buf.freeze())
}

/// Decodes a naive-method data shipment.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on truncation.
pub fn decode_station_data(mut data: Bytes) -> Result<Vec<(UserId, Pattern)>> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report("truncated user count"));
    }
    let count = data.get_u32_le() as usize;
    // Every entry takes at least 12 bytes; reject impossible counts before
    // allocating (a malicious count must not drive `with_capacity`).
    if data.remaining() < count.saturating_mul(12) {
        return Err(ProtocolError::malformed_report("truncated station data"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if data.remaining() < 12 {
            return Err(ProtocolError::malformed_report("truncated user header"));
        }
        let user = UserId(data.get_u64_le());
        let len = data.get_u32_le() as usize;
        if data.remaining() < len.saturating_mul(8) {
            return Err(ProtocolError::malformed_report("truncated pattern values"));
        }
        let values: Vec<u64> = (0..len).map(|_| data.get_u64_le()).collect();
        out.push((user, Pattern::new(values)));
    }
    expect_consumed(&data, "station data")?;
    Ok(out)
}

const UPDATE_KIND_FULL: u8 = 0;
const UPDATE_KIND_DELTA: u8 = 1;

/// One epoch's broadcast in a streaming session: either the full filter
/// (session start, or a deliberate rebuild) or the delta since the previous
/// epoch. Both carry the epoch number — stations reject gaps and replays —
/// and the current per-query global volumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StationUpdate {
    /// A full filter broadcast: the station replaces its state wholesale.
    Full {
        /// The session epoch this update begins.
        epoch: u64,
        /// The live queries' global volumes.
        query_totals: Vec<u64>,
        /// The complete encoded filter
        /// ([`encode_wbf`](dipm_core::encode::encode_wbf) bytes).
        filter: Bytes,
    },
    /// A delta broadcast: only the positions whose visible state changed.
    Delta {
        /// The session epoch this update begins.
        epoch: u64,
        /// The live queries' global volumes (replaced wholesale; they only
        /// change with query churn, but re-sending them keeps the frame
        /// self-contained and they are a few bytes).
        query_totals: Vec<u64>,
        /// The changed positions.
        delta: FilterDelta,
    },
}

impl StationUpdate {
    /// The epoch this update begins.
    pub fn epoch(&self) -> u64 {
        match self {
            StationUpdate::Full { epoch, .. } | StationUpdate::Delta { epoch, .. } => *epoch,
        }
    }
}

/// Writes a LEB128 varint — the delta frame's integer form for position
/// gaps and diff references, both overwhelmingly one byte in practice.
fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn take_varint(data: &mut Bytes) -> Result<u64> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        if data.remaining() < 1 {
            return Err(ProtocolError::malformed_report("truncated varint"));
        }
        let byte = data.get_u8();
        // The 10th byte (shift 63) has one bit of capacity left: any higher
        // payload bit, or a further continuation, overflows u64 — reject it
        // rather than silently truncating to the low bit.
        if shift == 63 && byte > 1 {
            return Err(ProtocolError::malformed_report("varint exceeds 64 bits"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            if shift > 0 && byte == 0 {
                return Err(ProtocolError::malformed_report(
                    "non-canonical varint padding",
                ));
            }
            return Ok(value);
        }
    }
    Err(ProtocolError::malformed_report("varint exceeds 64 bits"))
}

/// Checks a delta's diff table against its entries in the canonical form
/// [`WeightedBloomFilter::diff_from`](dipm_core::WeightedBloomFilter::diff_from)
/// produces, which the encoder requires and the decoder accepts alone:
/// every entry references a diff inside the table, the entries' first
/// references run 0, 1, 2, … (first-seen order), every diff is referenced,
/// and no diff repeats.
fn check_diff_table(delta: &FilterDelta) -> Result<()> {
    let mut named = 0;
    for &(_, diff_ref) in &delta.entries {
        let diff_ref = diff_ref as usize;
        if diff_ref >= delta.diffs.len() {
            return Err(ProtocolError::malformed_report(
                "delta diff reference outside table",
            ));
        }
        if diff_ref > named {
            return Err(ProtocolError::malformed_report(
                "delta diff table out of first-seen order",
            ));
        }
        named += usize::from(diff_ref == named);
    }
    if named < delta.diffs.len() {
        return Err(ProtocolError::malformed_report(
            "delta diff referenced by no position",
        ));
    }
    let mut distinct = std::collections::HashSet::with_capacity(delta.diffs.len());
    if !delta.diffs.iter().all(|diff| distinct.insert(diff)) {
        return Err(ProtocolError::malformed_report(
            "duplicate delta diff table entry",
        ));
    }
    Ok(())
}

/// Serializes a delta with the same weight-set interning idea the
/// full-filter encoding uses, applied to *diffs*: a dictionary of distinct
/// weights (`u16` ids), the diff table as `(removed, added)` id lists, and
/// each entry as its position's varint gap from the previous entry plus a
/// varint reference into the diff table. A churned pattern stamps the same
/// diff onto every position it touches, so the table stays tiny however
/// many positions change.
fn put_filter_delta(buf: &mut BytesMut, delta: &FilterDelta) -> Result<()> {
    check_diff_table(delta)?;
    // Dictionary of distinct weights across all diffs, ascending.
    let mut dict_set = WeightSet::new();
    for diff in &delta.diffs {
        if diff.is_empty() {
            return Err(ProtocolError::malformed_report("empty delta entry"));
        }
        if !diff.removed.intersection(&diff.added).is_empty() {
            return Err(ProtocolError::malformed_report(
                "diff removes and adds the same weight",
            ));
        }
        if diff.removed.len().max(diff.added.len()) > u16::MAX as usize {
            return Err(ProtocolError::frame_too_large(
                "more weights in one diff than the delta format supports",
            ));
        }
        dict_set.union_with(&diff.removed);
        dict_set.union_with(&diff.added);
    }
    let dict: Vec<Weight> = dict_set.iter().collect();
    if dict.len() > u16::MAX as usize {
        return Err(ProtocolError::frame_too_large(
            "more distinct weights than the delta format's u16 dictionary",
        ));
    }
    buf.put_u32_le(frame_count(dict.len())?);
    for &weight in &dict {
        put_weight(buf, weight);
    }
    buf.put_u32_le(frame_count(delta.diffs.len())?);
    for diff in &delta.diffs {
        buf.put_u16_le(diff.removed.len() as u16);
        buf.put_u16_le(diff.added.len() as u16);
        for w in diff.removed.iter().chain(diff.added.iter()) {
            let id = dict
                .binary_search(&w)
                .expect("dictionary contains every delta weight");
            buf.put_u16_le(id as u16);
        }
    }
    buf.put_u32_le(frame_count(delta.entries.len())?);
    let mut previous: Option<u32> = None;
    for &(pos, diff_ref) in &delta.entries {
        // First entry: the absolute position. Later entries: the gap minus
        // one (strict ascent makes gap ≥ 1, so the common consecutive-run
        // case encodes as a zero byte).
        let gap = match previous {
            None => u64::from(pos),
            Some(p) if p < pos => u64::from(pos - p - 1),
            Some(_) => {
                return Err(ProtocolError::malformed_report(
                    "delta positions must be strictly ascending",
                ))
            }
        };
        previous = Some(pos);
        put_varint(buf, gap);
        put_varint(buf, u64::from(diff_ref));
    }
    Ok(())
}

fn take_filter_delta(data: &mut Bytes) -> Result<FilterDelta> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(
            "truncated delta dictionary length",
        ));
    }
    let dict_len = data.get_u32_le() as usize;
    if dict_len > u16::MAX as usize {
        return Err(ProtocolError::malformed_report(
            "delta dictionary too large",
        ));
    }
    if data.remaining() < dict_len.saturating_mul(16) {
        return Err(ProtocolError::malformed_report(
            "truncated delta dictionary",
        ));
    }
    let mut dict: Vec<Weight> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let weight = take_weight(data, "delta")?;
        if dict.last().is_some_and(|&last| weight <= last) {
            return Err(ProtocolError::malformed_report(
                "delta dictionary must be strictly ascending",
            ));
        }
        dict.push(weight);
    }
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(
            "truncated delta diff table length",
        ));
    }
    let diffs_len = data.get_u32_le() as usize;
    // Every diff takes at least 4 header bytes; bound before allocating.
    if data.remaining() < diffs_len.saturating_mul(4) {
        return Err(ProtocolError::malformed_report(
            "truncated delta diff table",
        ));
    }
    let mut diffs: Vec<WeightDiff> = Vec::with_capacity(diffs_len);
    let mut referenced = vec![false; dict_len];
    for _ in 0..diffs_len {
        if data.remaining() < 4 {
            return Err(ProtocolError::malformed_report(
                "truncated delta diff header",
            ));
        }
        let removed_len = data.get_u16_le() as usize;
        let added_len = data.get_u16_le() as usize;
        if removed_len + added_len == 0 {
            return Err(ProtocolError::malformed_report("empty diff table entry"));
        }
        if data.remaining() < (removed_len + added_len).saturating_mul(2) {
            return Err(ProtocolError::malformed_report(
                "truncated delta diff indices",
            ));
        }
        // Ids ascend strictly, as the encoder writes them; over the
        // ascending dictionary every insert then appends.
        let mut take_side = |len: usize| -> Result<WeightSet> {
            let mut side = WeightSet::new();
            let mut previous = None;
            for _ in 0..len {
                let idx = data.get_u16_le() as usize;
                if previous.is_some_and(|p| idx <= p) {
                    return Err(ProtocolError::malformed_report(
                        "delta diff ids must be strictly ascending",
                    ));
                }
                previous = Some(idx);
                let weight = dict.get(idx).copied().ok_or_else(|| {
                    ProtocolError::malformed_report("delta weight index outside dictionary")
                })?;
                side.insert(weight);
                referenced[idx] = true;
            }
            Ok(side)
        };
        let removed = take_side(removed_len)?;
        let added = take_side(added_len)?;
        if !removed.intersection(&added).is_empty() {
            return Err(ProtocolError::malformed_report(
                "diff removes and adds the same weight",
            ));
        }
        diffs.push(WeightDiff { removed, added });
    }
    if referenced.contains(&false) {
        return Err(ProtocolError::malformed_report(
            "delta dictionary weight held by no diff",
        ));
    }
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(
            "truncated delta entry count",
        ));
    }
    let entry_count = data.get_u32_le() as usize;
    // Every entry takes at least 2 varint bytes; bound before allocating.
    if data.remaining() < entry_count.saturating_mul(2) {
        return Err(ProtocolError::malformed_report("truncated delta entries"));
    }
    let mut entries = Vec::with_capacity(entry_count);
    let mut previous: Option<u32> = None;
    for _ in 0..entry_count {
        let gap = take_varint(data)?;
        let pos = match previous {
            None => Some(gap),
            // Checked: a hostile gap near u64::MAX must error, not wrap
            // into a duplicate or backwards position.
            Some(p) => gap.checked_add(1).and_then(|g| u64::from(p).checked_add(g)),
        };
        let pos = pos.and_then(|pos| u32::try_from(pos).ok()).ok_or_else(|| {
            ProtocolError::malformed_report("delta position exceeds the u32 filter range")
        })?;
        previous = Some(pos);
        // References inside the table are checked with the table's form.
        let diff_ref = u32::try_from(take_varint(data)?)
            .map_err(|_| ProtocolError::malformed_report("delta diff reference outside table"))?;
        entries.push((pos, diff_ref));
    }
    let delta = FilterDelta { diffs, entries };
    check_diff_table(&delta)?;
    Ok(delta)
}

/// Frames one streaming epoch's broadcast.
///
/// Layout: `kind u8` (0 full, 1 delta), `epoch u64`, `u32` volume count,
/// `u64`×count volumes, then the full filter bytes (kind 0) or the interned
/// delta (kind 1).
///
/// # Errors
///
/// Returns [`ProtocolError::FrameTooLarge`] if any count exceeds its wire
/// prefix.
pub fn encode_station_update(update: &StationUpdate) -> Result<Bytes> {
    let mut buf = BytesMut::new();
    match update {
        StationUpdate::Full {
            epoch,
            query_totals,
            filter,
        } => {
            buf.put_u8(UPDATE_KIND_FULL);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(frame_count(query_totals.len())?);
            for &t in query_totals {
                buf.put_u64_le(t);
            }
            buf.extend_from_slice(filter);
        }
        StationUpdate::Delta {
            epoch,
            query_totals,
            delta,
        } => {
            buf.put_u8(UPDATE_KIND_DELTA);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(frame_count(query_totals.len())?);
            for &t in query_totals {
                buf.put_u64_le(t);
            }
            put_filter_delta(&mut buf, delta)?;
        }
    }
    Ok(buf.freeze())
}

/// Decodes one streaming epoch's broadcast.
///
/// Delta frames are validated here (counts bounded before allocation,
/// dictionary and diff references in range, strictly ascending positions,
/// no trailing bytes) and must be canonical: a dictionary of reduced
/// weights that the diffs hold in full, and a diff table of distinct,
/// referenced diffs in first-seen order. Full frames hand their
/// rest-of-buffer filter bytes to the filter decoder, which performs the
/// equivalent validation.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on any malformed input.
pub fn decode_station_update(mut data: Bytes) -> Result<StationUpdate> {
    if data.remaining() < 1 + 8 + 4 {
        return Err(ProtocolError::malformed_report(
            "truncated station update header",
        ));
    }
    let kind = data.get_u8();
    let epoch = data.get_u64_le();
    let count = data.get_u32_le() as usize;
    if data.remaining() < count.saturating_mul(8) {
        return Err(ProtocolError::malformed_report(
            "truncated station update volumes",
        ));
    }
    let query_totals: Vec<u64> = (0..count).map(|_| data.get_u64_le()).collect();
    match kind {
        UPDATE_KIND_FULL => Ok(StationUpdate::Full {
            epoch,
            query_totals,
            filter: data,
        }),
        UPDATE_KIND_DELTA => {
            let delta = take_filter_delta(&mut data)?;
            expect_consumed(&data, "station update delta")?;
            Ok(StationUpdate::Delta {
                epoch,
                query_totals,
                delta,
            })
        }
        other => Err(ProtocolError::malformed_report(format!(
            "unknown station update kind {other}"
        ))),
    }
}

/// Encodes one station's routing-summary upload: `u32` station index
/// followed by the station's encoded summary Bloom filter. The data center
/// unions these into the routing tree.
pub fn encode_routing_summary(station: u32, filter: &BloomFilter) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + encode::encoded_bloom_len(filter));
    buf.put_u32_le(station);
    buf.extend_from_slice(&encode::encode_bloom(filter));
    buf.freeze()
}

/// Decodes a routing-summary upload.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on a truncated header and
/// propagates the filter decoder's exhaustive validation (which also
/// rejects trailing bytes) for the rest.
pub fn decode_routing_summary(mut data: Bytes) -> Result<(u32, BloomFilter)> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(
            "truncated routing summary header",
        ));
    }
    let station = data.get_u32_le();
    let filter = encode::decode_bloom(data)?;
    Ok((station, filter))
}

/// One surviving bottom-level subtree of the routing tree: the leaf range
/// `[lo, hi)` it claims and the target stations inside it, strictly
/// ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedProbes {
    /// First station index the subtree covers (inclusive).
    pub lo: u32,
    /// One past the last station index the subtree covers.
    pub hi: u32,
    /// The stations the query's probe keys route to, strictly ascending,
    /// all within `[lo, hi)`.
    pub targets: Vec<u32>,
}

fn check_routed_probes(lo: u32, hi: u32, targets: &[u32]) -> Result<()> {
    if lo > hi {
        return Err(ProtocolError::malformed_report(format!(
            "routed probe range [{lo}, {hi}) is inverted"
        )));
    }
    let mut prev: Option<u32> = None;
    for &target in targets {
        if target < lo || target >= hi {
            return Err(ProtocolError::malformed_report(format!(
                "routed target {target} outside claimed range [{lo}, {hi})"
            )));
        }
        if prev.is_some_and(|p| p >= target) {
            return Err(ProtocolError::malformed_report(
                "routed targets must be strictly ascending (no duplicate station ids)",
            ));
        }
        prev = Some(target);
    }
    Ok(())
}

/// Encodes one routed-probe frame: `u32` range lo, `u32` range hi, `u32`
/// target count, then the target station indices. The encoder enforces the
/// same invariants the decoder checks (range not inverted, targets strictly
/// ascending within the range) so a malformed frame cannot be produced.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on an invalid range or
/// target list.
pub fn encode_routed_probes(lo: u32, hi: u32, targets: &[u32]) -> Result<Bytes> {
    check_routed_probes(lo, hi, targets)?;
    let mut buf = BytesMut::with_capacity(12 + targets.len() * 4);
    buf.put_u32_le(lo);
    buf.put_u32_le(hi);
    buf.put_u32_le(frame_count(targets.len())?);
    for &target in targets {
        buf.put_u32_le(target);
    }
    Ok(buf.freeze())
}

/// Decodes one routed-probe frame, validating structure exhaustively: the
/// count is bounded by the claimed range before any allocation, targets
/// must be strictly ascending inside `[lo, hi)` (duplicate station ids are
/// rejected), and trailing bytes are refused.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on any malformed input.
pub fn decode_routed_probes(mut data: Bytes) -> Result<RoutedProbes> {
    if data.remaining() < 12 {
        return Err(ProtocolError::malformed_report(
            "truncated routed probe header",
        ));
    }
    let lo = data.get_u32_le();
    let hi = data.get_u32_le();
    let count = data.get_u32_le() as usize;
    if lo > hi {
        return Err(ProtocolError::malformed_report(format!(
            "routed probe range [{lo}, {hi}) is inverted"
        )));
    }
    if count > (hi - lo) as usize {
        return Err(ProtocolError::malformed_report(format!(
            "routed probe frame claims {count} targets in a range of {}",
            hi - lo
        )));
    }
    if data.remaining() < count.saturating_mul(4) {
        return Err(ProtocolError::malformed_report(
            "truncated routed probe targets",
        ));
    }
    let targets: Vec<u32> = (0..count).map(|_| data.get_u32_le()).collect();
    expect_consumed(&data, "routed probe")?;
    check_routed_probes(lo, hi, targets.as_slice())?;
    Ok(RoutedProbes { lo, hi, targets })
}

/// Assembles a batch's routed-probe frames into the final recipient set,
/// rejecting plans whose subtree claims overlap: each station index may be
/// covered by at most one claimed range, so no station can be targeted (or
/// skipped) twice.
#[derive(Debug, Clone, Default)]
pub struct RoutingPlan {
    station_count: u32,
    claims: Vec<(u32, u32)>,
    targets: Vec<u32>,
}

impl RoutingPlan {
    /// An empty plan over `station_count` stations.
    pub fn new(station_count: u32) -> RoutingPlan {
        RoutingPlan {
            station_count,
            claims: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Admits one decoded frame's claim.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MalformedReport`] if the claim reaches past
    /// the deployment's station count or overlaps a previously admitted
    /// claim.
    pub fn claim(&mut self, frame: &RoutedProbes) -> Result<()> {
        if frame.hi > self.station_count {
            return Err(ProtocolError::malformed_report(format!(
                "subtree claim [{}, {}) exceeds the {} deployed stations",
                frame.lo, frame.hi, self.station_count
            )));
        }
        for &(lo, hi) in &self.claims {
            if frame.lo < hi && lo < frame.hi {
                return Err(ProtocolError::malformed_report(format!(
                    "subtree claim [{}, {}) overlaps earlier claim [{lo}, {hi})",
                    frame.lo, frame.hi
                )));
            }
        }
        self.claims.push((frame.lo, frame.hi));
        self.targets.extend_from_slice(&frame.targets);
        Ok(())
    }

    /// The assembled recipient set, ascending.
    pub fn into_targets(mut self) -> Vec<u32> {
        self.targets.sort_unstable();
        self.targets
    }
}

/// Magic prefix of a session checkpoint frame (`DIPC`).
const CHECKPOINT_MAGIC: u32 = 0x4449_5043;
/// Magic prefix of a service checkpoint frame (`DIPS`).
const SERVICE_MAGIC: u32 = 0x4449_5053;
/// Version byte both checkpoint frame families currently carry. Version 2
/// keeps only the query registry, split at the last delta drain, and
/// records the configuration the queries' keys were derived under.
const CHECKPOINT_VERSION: u8 = 2;

/// One query as a checkpoint records it: the exact pairs the center
/// inserted, so recovery can replay them and removal keeps working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointQuery {
    /// The query's [`StreamQueryId`](crate::StreamQueryId) value.
    pub id: u64,
    /// The query's global volume.
    pub total: u64,
    /// The query's combination count (build statistics).
    pub combinations: u64,
    /// The `(key, weight)` pairs inserted for this query, strictly
    /// ascending.
    pub pairs: Vec<(u64, Weight)>,
}

/// One base station's cross-epoch protocol position as the center records
/// it: whether the station holds a filter, and the last epoch it applied.
///
/// The filter itself is deliberately **not** in the checkpoint — stations
/// retain their own state across a center crash, and resyncing them via the
/// next delta instead of re-shipping filters is the entire economic point
/// of recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStation {
    /// Whether the station holds a decoded filter.
    pub has_filter: bool,
    /// The last epoch the station applied.
    pub applied_epoch: u64,
}

/// A versioned serialization of one streaming session's center state: the
/// query registry split at the last delta drain, the configuration its
/// keys were derived under, and the epoch bookkeeping.
///
/// No filter is in the frame, because the center's filters are functions
/// of the registry: each epoch builds the live queries' filter and the one
/// of the registry as of the last drain (the live queries below
/// `drained_next_id` plus `retired`) and sends their diff. A recovered
/// center therefore sends the same delta the crashed one would have (see
/// [`StreamingSession::recover`](crate::StreamingSession::recover)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// The next epoch the session will run.
    pub epoch: u64,
    /// The virtual tick the session has reached (async latency modeling).
    pub clock_base: u64,
    /// Whether the next epoch must broadcast the full filter.
    pub needs_full: bool,
    /// Filter length in positions.
    pub bits: u64,
    /// Number of hash functions.
    pub hashes: u16,
    /// Hash seed shared between center and stations.
    pub seed: u64,
    /// Sampled points per pattern the queries were prepared with.
    pub samples: u64,
    /// Per-interval tolerance the queries were prepared with.
    pub eps: u64,
    /// How `eps` expanded into bands.
    pub tolerance: ToleranceMode,
    /// What the hash functions saw per sampled point.
    pub hash_scheme: HashScheme,
    /// The next [`StreamQueryId`](crate::StreamQueryId) to assign.
    pub next_id: u64,
    /// The next id as of the last delta drain: live queries at or above it
    /// were registered since.
    pub drained_next_id: u64,
    /// The live queries, in ascending id order.
    pub queries: Vec<CheckpointQuery>,
    /// The queries removed since the last drain that were live at it, in
    /// ascending id order.
    pub retired: Vec<CheckpointQuery>,
    /// Per-station protocol positions (empty before the first epoch
    /// initializes stations).
    pub stations: Vec<CheckpointStation>,
}

/// Reads one byte as an index into `choices`, rejecting any other value.
/// Encoders write a fieldless enum's discriminant (`as u8`), so `choices`
/// lists its variants in declaration order.
fn take_checkpoint_choice<T: Copy>(data: &mut Bytes, choices: &[T], what: &str) -> Result<T> {
    let byte = data.get_u8();
    choices.get(usize::from(byte)).copied().ok_or_else(|| {
        ProtocolError::malformed_report(format!("checkpoint {what} byte {byte} is unknown"))
    })
}

/// The rules one query list of a checkpoint obeys: ids strictly ascending
/// and below `limit` (named `limit_name`), every query with a volume and
/// pairs, and each query's pairs strictly ascending, as the registry holds
/// them.
fn validate_checkpoint_queries(
    queries: &[CheckpointQuery],
    what: &str,
    limit: u64,
    limit_name: &str,
) -> Result<()> {
    let mut previous: Option<u64> = None;
    for query in queries {
        if previous.is_some_and(|p| p >= query.id) {
            return Err(ProtocolError::malformed_report(format!(
                "checkpoint {what} ids must be strictly ascending"
            )));
        }
        previous = Some(query.id);
        if query.id >= limit {
            return Err(ProtocolError::malformed_report(format!(
                "checkpoint {what} id {} not below {limit_name} {limit}",
                query.id
            )));
        }
        if query.total == 0 {
            return Err(ProtocolError::malformed_report(format!(
                "checkpoint {what} with zero global volume"
            )));
        }
        if query.pairs.is_empty() {
            return Err(ProtocolError::malformed_report(format!(
                "checkpoint {what} with no pairs"
            )));
        }
        if query.pairs.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(ProtocolError::malformed_report(format!(
                "checkpoint {what} pairs must be strictly ascending"
            )));
        }
    }
    Ok(())
}

/// The structural rules shared by the checkpoint encoder and decoder, so a
/// buggy caller errors as loudly as hostile bytes.
fn validate_session_checkpoint(checkpoint: &SessionCheckpoint) -> Result<()> {
    if checkpoint.bits == 0 || checkpoint.bits > u64::from(u32::MAX) {
        return Err(ProtocolError::malformed_report(format!(
            "checkpoint filter length {} outside (0, u32::MAX]",
            checkpoint.bits
        )));
    }
    if checkpoint.hashes == 0 || checkpoint.hashes > dipm_core::MAX_HASHES {
        return Err(ProtocolError::malformed_report(format!(
            "checkpoint hash count {} outside (0, {}]",
            checkpoint.hashes,
            dipm_core::MAX_HASHES
        )));
    }
    // A session increments both counters, so it never reaches their
    // maximum: a frame holding it would overflow the next epoch or insert.
    if checkpoint.epoch == u64::MAX || checkpoint.next_id == u64::MAX {
        return Err(ProtocolError::malformed_report(format!(
            "checkpoint epoch {} or next id {} is u64::MAX",
            checkpoint.epoch, checkpoint.next_id
        )));
    }
    if checkpoint.drained_next_id > checkpoint.next_id {
        return Err(ProtocolError::malformed_report(format!(
            "checkpoint drain mark {} beyond next id {}",
            checkpoint.drained_next_id, checkpoint.next_id
        )));
    }
    validate_checkpoint_queries(&checkpoint.queries, "query", checkpoint.next_id, "next id")?;
    validate_checkpoint_queries(
        &checkpoint.retired,
        "retired query",
        checkpoint.drained_next_id,
        "drain mark",
    )?;
    let live = |id: u64| {
        checkpoint
            .queries
            .binary_search_by_key(&id, |query| query.id)
            .is_ok()
    };
    if let Some(query) = checkpoint.retired.iter().find(|query| live(query.id)) {
        return Err(ProtocolError::malformed_report(format!(
            "checkpoint query {} is both live and retired",
            query.id
        )));
    }
    for (station, state) in checkpoint.stations.iter().enumerate() {
        // An epoch regression: the center can never trail a station it
        // itself updated.
        if state.applied_epoch > checkpoint.epoch {
            return Err(ProtocolError::malformed_report(format!(
                "station {station} applied epoch {} beyond checkpoint epoch {}",
                state.applied_epoch, checkpoint.epoch
            )));
        }
        // A filter is only ever installed by applying an update; a station
        // that never applied one cannot hold state.
        if !state.has_filter && state.applied_epoch != 0 {
            return Err(ProtocolError::malformed_report(format!(
                "station {station} applied epoch {} without holding a filter",
                state.applied_epoch
            )));
        }
    }
    Ok(())
}

fn put_checkpoint_queries(buf: &mut BytesMut, queries: &[CheckpointQuery]) -> Result<()> {
    buf.put_u32_le(frame_count(queries.len())?);
    for query in queries {
        buf.put_u64_le(query.id);
        buf.put_u64_le(query.total);
        buf.put_u64_le(query.combinations);
        buf.put_u32_le(frame_count(query.pairs.len())?);
        for &(key, weight) in &query.pairs {
            buf.put_u64_le(key);
            put_weight(buf, weight);
        }
    }
    Ok(())
}

fn take_checkpoint_queries(data: &mut Bytes, what: &str) -> Result<Vec<CheckpointQuery>> {
    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(format!(
            "truncated checkpoint {what} count"
        )));
    }
    let count = data.get_u32_le() as usize;
    // Every query takes at least 28 header bytes; bound before allocating.
    if data.remaining() < count.saturating_mul(28) {
        return Err(ProtocolError::malformed_report(format!(
            "truncated checkpoint {what} list"
        )));
    }
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        if data.remaining() < 28 {
            return Err(ProtocolError::malformed_report(format!(
                "truncated checkpoint {what} header"
            )));
        }
        let id = data.get_u64_le();
        let total = data.get_u64_le();
        let combinations = data.get_u64_le();
        let pair_count = data.get_u32_le() as usize;
        if data.remaining() < pair_count.saturating_mul(24) {
            return Err(ProtocolError::malformed_report(format!(
                "truncated checkpoint {what} pairs"
            )));
        }
        let mut pairs = Vec::with_capacity(pair_count);
        for _ in 0..pair_count {
            let key = data.get_u64_le();
            let weight = take_weight(data, "checkpoint")?;
            pairs.push((key, weight));
        }
        queries.push(CheckpointQuery {
            id,
            total,
            combinations,
            pairs,
        });
    }
    Ok(queries)
}

/// Frames one streaming session's checkpoint.
///
/// Layout: `magic u32` (`DIPC`), `version u8`, `epoch u64`,
/// `clock_base u64`, `needs_full u8`, `bits u64`, `hashes u16`, `seed u64`,
/// `samples u64`, `eps u64`, `tolerance u8` (0 accumulated, 1 uniform),
/// `hash_scheme u8` (0 value-only, 1 position-tagged), `next_id u64`,
/// `drained_next_id u64`, then the live queries, the retired queries and
/// the per-station protocol positions, each behind a `u32` count.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] if the checkpoint violates
/// the structural rules the decoder enforces (disorder, ids outside their
/// range, unreachable counters, station epoch regressions) and
/// [`ProtocolError::FrameTooLarge`] if any count exceeds its wire prefix.
pub fn encode_session_checkpoint(checkpoint: &SessionCheckpoint) -> Result<Bytes> {
    validate_session_checkpoint(checkpoint)?;
    let mut buf = BytesMut::new();
    buf.put_u32_le(CHECKPOINT_MAGIC);
    buf.put_u8(CHECKPOINT_VERSION);
    buf.put_u64_le(checkpoint.epoch);
    buf.put_u64_le(checkpoint.clock_base);
    buf.put_u8(u8::from(checkpoint.needs_full));
    buf.put_u64_le(checkpoint.bits);
    buf.put_u16_le(checkpoint.hashes);
    buf.put_u64_le(checkpoint.seed);
    buf.put_u64_le(checkpoint.samples);
    buf.put_u64_le(checkpoint.eps);
    buf.put_u8(checkpoint.tolerance as u8);
    buf.put_u8(checkpoint.hash_scheme as u8);
    buf.put_u64_le(checkpoint.next_id);
    buf.put_u64_le(checkpoint.drained_next_id);
    put_checkpoint_queries(&mut buf, &checkpoint.queries)?;
    put_checkpoint_queries(&mut buf, &checkpoint.retired)?;
    buf.put_u32_le(frame_count(checkpoint.stations.len())?);
    for state in &checkpoint.stations {
        buf.put_u8(u8::from(state.has_filter));
        buf.put_u64_le(state.applied_epoch);
    }
    Ok(buf.freeze())
}

/// Decodes one streaming session's checkpoint, enforcing every structural
/// rule the encoder promises: counts bounded against the remaining buffer
/// before allocation, known configuration bytes, strictly ascending ids in
/// range, retired queries never live, each query's pairs strictly
/// ascending with weights in lowest terms, station epochs never beyond the
/// session epoch, and no trailing bytes. So every accepted frame re-encodes
/// to itself.
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on any malformed input,
/// including a frame of another checkpoint version.
pub fn decode_session_checkpoint(mut data: Bytes) -> Result<SessionCheckpoint> {
    if data.remaining() < 4 + 1 {
        return Err(ProtocolError::malformed_report(
            "truncated checkpoint header",
        ));
    }
    let magic = data.get_u32_le();
    if magic != CHECKPOINT_MAGIC {
        return Err(ProtocolError::malformed_report(format!(
            "bad checkpoint magic {magic:#010x}"
        )));
    }
    let version = data.get_u8();
    if version != CHECKPOINT_VERSION {
        return Err(ProtocolError::malformed_report(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    // epoch + clock + needs_full + bits + hashes + seed + samples + eps +
    // tolerance + hash scheme + next_id + drained_next_id.
    if data.remaining() < 8 + 8 + 1 + 8 + 2 + 8 + 8 + 8 + 1 + 1 + 8 + 8 {
        return Err(ProtocolError::malformed_report(
            "truncated checkpoint header",
        ));
    }
    let epoch = data.get_u64_le();
    let clock_base = data.get_u64_le();
    let needs_full = take_checkpoint_choice(&mut data, &[false, true], "needs-full")?;
    let bits = data.get_u64_le();
    let hashes = data.get_u16_le();
    let seed = data.get_u64_le();
    let samples = data.get_u64_le();
    let eps = data.get_u64_le();
    let tolerances = [ToleranceMode::Accumulated, ToleranceMode::Uniform];
    let tolerance = take_checkpoint_choice(&mut data, &tolerances, "tolerance")?;
    let schemes = [HashScheme::ValueOnly, HashScheme::PositionTagged];
    let hash_scheme = take_checkpoint_choice(&mut data, &schemes, "hash-scheme")?;
    let next_id = data.get_u64_le();
    let drained_next_id = data.get_u64_le();
    let queries = take_checkpoint_queries(&mut data, "query")?;
    let retired = take_checkpoint_queries(&mut data, "retired query")?;

    if data.remaining() < 4 {
        return Err(ProtocolError::malformed_report(
            "truncated checkpoint station table",
        ));
    }
    let station_count = data.get_u32_le() as usize;
    if data.remaining() < station_count.saturating_mul(9) {
        return Err(ProtocolError::malformed_report(
            "truncated checkpoint stations",
        ));
    }
    let mut stations = Vec::with_capacity(station_count);
    for _ in 0..station_count {
        let has_filter = take_checkpoint_choice(&mut data, &[false, true], "station has-filter")?;
        let applied_epoch = data.get_u64_le();
        stations.push(CheckpointStation {
            has_filter,
            applied_epoch,
        });
    }
    expect_consumed(&data, "session checkpoint")?;

    let checkpoint = SessionCheckpoint {
        epoch,
        clock_base,
        needs_full,
        bits,
        hashes,
        seed,
        samples,
        eps,
        tolerance,
        hash_scheme,
        next_id,
        drained_next_id,
        queries,
        retired,
        stations,
    };
    validate_session_checkpoint(&checkpoint)?;
    Ok(checkpoint)
}

/// Frames a whole service's checkpoint: every tenant's session checkpoint
/// behind its tenant id, ids strictly ascending (`magic u32` `DIPS`,
/// `version u8`, `u32` tenant count, then per tenant `{id u64, len u32,
/// bytes×len}`).
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] if tenant ids repeat or
/// regress and [`ProtocolError::FrameTooLarge`] if any count exceeds its
/// wire prefix.
pub fn encode_service_checkpoint(tenants: &[(u64, Bytes)]) -> Result<Bytes> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(SERVICE_MAGIC);
    buf.put_u8(CHECKPOINT_VERSION);
    buf.put_u32_le(frame_count(tenants.len())?);
    let mut previous: Option<u64> = None;
    for (tenant, frame) in tenants {
        if previous.is_some_and(|p| p >= *tenant) {
            return Err(ProtocolError::malformed_report(
                "service checkpoint tenant ids must be strictly ascending",
            ));
        }
        previous = Some(*tenant);
        buf.put_u64_le(*tenant);
        buf.put_u32_le(frame_count(frame.len())?);
        buf.extend_from_slice(frame);
    }
    Ok(buf.freeze())
}

/// Decodes a service checkpoint into `(tenant id, session frame)` pairs.
///
/// Tenant ids must be strictly ascending — a duplicated or regressing id
/// is rejected (two checkpoints for one tenant would make recovery
/// ambiguous). The per-tenant frames stay opaque here; feed each to
/// [`decode_session_checkpoint`].
///
/// # Errors
///
/// Returns [`ProtocolError::MalformedReport`] on any malformed input.
pub fn decode_service_checkpoint(mut data: Bytes) -> Result<Vec<(u64, Bytes)>> {
    if data.remaining() < 4 + 1 + 4 {
        return Err(ProtocolError::malformed_report(
            "truncated service checkpoint header",
        ));
    }
    let magic = data.get_u32_le();
    if magic != SERVICE_MAGIC {
        return Err(ProtocolError::malformed_report(format!(
            "bad service checkpoint magic {magic:#010x}"
        )));
    }
    let version = data.get_u8();
    if version != CHECKPOINT_VERSION {
        return Err(ProtocolError::malformed_report(format!(
            "unsupported service checkpoint version {version}"
        )));
    }
    let tenant_count = data.get_u32_le() as usize;
    // Every tenant takes at least 12 header bytes; bound before allocating.
    if data.remaining() < tenant_count.saturating_mul(12) {
        return Err(ProtocolError::malformed_report(
            "truncated service checkpoint tenants",
        ));
    }
    let mut tenants = Vec::with_capacity(tenant_count);
    let mut previous: Option<u64> = None;
    for _ in 0..tenant_count {
        if data.remaining() < 12 {
            return Err(ProtocolError::malformed_report(
                "truncated service checkpoint tenant header",
            ));
        }
        let tenant = data.get_u64_le();
        if previous.is_some_and(|p| p >= tenant) {
            return Err(ProtocolError::malformed_report(
                "service checkpoint tenant ids must be strictly ascending",
            ));
        }
        previous = Some(tenant);
        let len = data.get_u32_le() as usize;
        if data.remaining() < len {
            return Err(ProtocolError::malformed_report(
                "truncated service checkpoint tenant frame",
            ));
        }
        tenants.push((tenant, Bytes::from(data.take_bytes(len).to_vec())));
    }
    expect_consumed(&data, "service checkpoint")?;
    Ok(tenants)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: u64, d: u64) -> Weight {
        Weight::new(n, d).unwrap()
    }

    #[test]
    fn weight_reports_roundtrip() {
        // One query's reports, as a single-section scan emits them: every
        // tag is 0, and ids and weights use their full 64-bit range.
        let reports = vec![
            (0u32, UserId(1), w(1, 3)),
            (0u32, UserId(u64::MAX), Weight::ONE),
            (0u32, UserId(42), w(u64::MAX - 1, u64::MAX)),
        ];
        let encoded = encode_tagged_weight_reports(&reports).unwrap();
        assert_eq!(encoded.len(), 4 + 3 * 28);
        assert_eq!(decode_tagged_weight_reports(encoded).unwrap(), reports);
    }

    #[test]
    fn empty_reports_roundtrip() {
        assert!(
            decode_tagged_weight_reports(encode_tagged_weight_reports(&[]).unwrap())
                .unwrap()
                .is_empty()
        );
        assert!(
            decode_tagged_id_reports(encode_tagged_id_reports(&[]).unwrap())
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn id_reports_roundtrip() {
        // Ids come back in the order sent, not sorted, with the tag and the
        // id at their full range.
        let reports = vec![
            (0u32, UserId(3)),
            (0u32, UserId(1)),
            (u32::MAX, UserId(u64::MAX)),
        ];
        let encoded = encode_tagged_id_reports(&reports).unwrap();
        assert_eq!(encoded.len(), 4 + 3 * 12);
        assert_eq!(decode_tagged_id_reports(encoded).unwrap(), reports);
    }

    #[test]
    fn station_data_roundtrip() {
        let p1 = Pattern::from([1u64, 2, 3]);
        let p2 = Pattern::from([0u64; 5]);
        let encoded = encode_station_data(vec![(UserId(1), &p1), (UserId(2), &p2)]).unwrap();
        let decoded = decode_station_data(encoded).unwrap();
        assert_eq!(decoded, vec![(UserId(1), p1), (UserId(2), p2)]);
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let p = Pattern::from([1u64, 2]);
        let data = encode_station_data(vec![(UserId(1), &p)]).unwrap();
        for cut in [0, 3, 10, data.len() - 1] {
            assert!(decode_station_data(data.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn zero_denominator_rejected() {
        // A zero denominator in any entry, not only the last, fails the
        // whole frame. Entries are 28 bytes after the 4-byte count; the
        // denominator is each entry's last 8 bytes.
        let reports = [
            (0, UserId(1), w(1, 2)),
            (1, UserId(2), w(2, 3)),
            (1, UserId(3), Weight::ONE),
        ];
        let encoded = encode_tagged_weight_reports(&reports).unwrap();
        for entry in 0..reports.len() {
            let mut raw = encoded.to_vec();
            let den = 4 + entry * 28 + 20;
            raw[den..den + 8].fill(0);
            assert!(
                decode_tagged_weight_reports(Bytes::from(raw)).is_err(),
                "entry {entry}"
            );
        }
    }

    #[test]
    fn filter_broadcast_roundtrip() {
        let filter_bytes = Bytes::from_static(b"FILTERPAYLOAD");
        let framed = encode_filter_broadcast(&[100, 250], filter_bytes.clone()).unwrap();
        let (totals, rest) = decode_filter_broadcast(framed).unwrap();
        assert_eq!(totals, vec![100, 250]);
        assert_eq!(rest, filter_bytes);
        assert!(decode_filter_broadcast(Bytes::from_static(b"\x01")).is_err());
    }

    #[test]
    fn batch_broadcast_roundtrip() {
        let sections = vec![
            (0u32, Bytes::from_static(b"SECTION-A")),
            (1u32, Bytes::from_static(b"")),
            (7u32, Bytes::from_static(b"SECTION-C-LONGER")),
        ];
        let framed = encode_batch_broadcast(&sections).unwrap();
        assert_eq!(framed.len(), 4 + sections.len() * 8 + 9 + 16);
        assert_eq!(decode_batch_broadcast(framed).unwrap(), sections);
        assert!(decode_batch_broadcast(encode_batch_broadcast(&[]).unwrap())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batch_broadcast_rejects_duplicate_query_ids() {
        for ids in [[3, 3], [4, 3]] {
            let sections = ids.map(|id| (id, Bytes::from_static(b"x")));
            assert!(encode_batch_broadcast(&sections).is_err(), "{ids:?}");
            // The frame the encoder refuses, written by hand.
            let mut buf = BytesMut::new();
            buf.put_u32_le(2);
            for id in ids {
                buf.put_u32_le(id);
                buf.put_u32_le(1);
                buf.put_u8(b'x');
            }
            assert!(decode_batch_broadcast(buf.freeze()).is_err(), "{ids:?}");
        }
    }

    #[test]
    fn batch_broadcast_rejects_truncation() {
        let framed = encode_batch_broadcast(&[(0, Bytes::from_static(b"PAYLOAD"))]).unwrap();
        for cut in [0, 3, 7, framed.len() - 1] {
            assert!(decode_batch_broadcast(framed.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn batch_reports_validate_shard_count() {
        let framed = encode_batch_reports(4, 7, 1234, Bytes::from_static(b"inner"));
        let frame = decode_batch_reports(framed.clone(), 4).unwrap();
        assert_eq!(frame.station, 7);
        assert_eq!(frame.sent_tick, 1234);
        assert_eq!(frame.payload.as_ref(), b"inner");
        assert!(decode_batch_reports(framed, 2).is_err());
        assert!(decode_batch_reports(Bytes::from_static(b"\x01"), 1).is_err());
    }

    #[test]
    fn report_collector_rejects_structural_lies() {
        let mut collector = ReportCollector::new(2, 3);
        let ok = collector
            .accept(encode_batch_reports(2, 0, 5, Bytes::from_static(b"a")), 9)
            .unwrap();
        assert_eq!((ok.station, ok.sent_tick), (0, 5));
        // Duplicate station (a retransmit must never double-count).
        assert!(collector
            .accept(encode_batch_reports(2, 0, 6, Bytes::from_static(b"b")), 10)
            .is_err());
        // Out-of-order arrival (delivery-tick regression).
        assert!(collector
            .accept(encode_batch_reports(2, 1, 4, Bytes::from_static(b"c")), 8)
            .is_err());
        // Delivered before it was sent.
        assert!(collector
            .accept(encode_batch_reports(2, 1, 30, Bytes::from_static(b"t")), 20)
            .is_err());
        // Unknown station id.
        assert!(collector
            .accept(encode_batch_reports(2, 9, 8, Bytes::from_static(b"d")), 11)
            .is_err());
        // Shard-count mismatch still caught underneath.
        assert!(collector
            .accept(encode_batch_reports(1, 1, 8, Bytes::from_static(b"e")), 11)
            .is_err());
        // A rejected frame leaves no trace: the same station admits cleanly,
        // and a *send* tick older than an earlier station's is legal (a
        // small report on a slow link regresses nothing).
        assert!(collector
            .accept(encode_batch_reports(2, 1, 3, Bytes::from_static(b"f")), 11)
            .is_ok());
        assert_eq!(collector.accepted(), 2);
    }

    #[test]
    fn tagged_weight_reports_roundtrip() {
        let reports = vec![
            (0u32, UserId(1), w(1, 3)),
            (2u32, UserId(999), Weight::ONE),
            (2u32, UserId(42), w(7, 9)),
        ];
        let encoded = encode_tagged_weight_reports(&reports).unwrap();
        assert_eq!(encoded.len(), 4 + 3 * 28);
        assert_eq!(decode_tagged_weight_reports(encoded).unwrap(), reports);
    }

    #[test]
    fn tagged_id_reports_roundtrip() {
        let reports = vec![(0u32, UserId(3)), (1u32, UserId(1)), (0u32, UserId(4))];
        let encoded = encode_tagged_id_reports(&reports).unwrap();
        assert_eq!(encoded.len(), 4 + 3 * 12);
        assert_eq!(decode_tagged_id_reports(encoded).unwrap(), reports);
    }

    #[test]
    fn tagged_decoders_reject_truncation_and_zero_denominators() {
        let encoded = encode_tagged_weight_reports(&[(0, UserId(1), w(1, 2))]).unwrap();
        for cut in [0, 3, 10, encoded.len() - 1] {
            assert!(decode_tagged_weight_reports(encoded.slice(0..cut)).is_err());
        }
        // The denominator is the last 8 bytes; zero it.
        let mut raw = encoded.to_vec();
        let n = raw.len();
        raw[n - 8..].fill(0);
        assert!(decode_tagged_weight_reports(Bytes::from(raw)).is_err());
        let ids = encode_tagged_id_reports(&[(0, UserId(1))]).unwrap();
        for cut in [0, 3, ids.len() - 1] {
            assert!(decode_tagged_id_reports(ids.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn report_weights_not_in_lowest_terms_are_rejected() {
        // One report of 2/4 written by hand: its value is the encoder's
        // 1/2, but accepting it would re-encode to other bytes.
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u32_le(0);
        raw.put_u64_le(7);
        raw.put_u64_le(2);
        raw.put_u64_le(4);
        let err = decode_tagged_weight_reports(raw.freeze()).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::malformed_report("report weight not in lowest terms")
        );
    }

    #[test]
    fn frame_count_guards_the_length_prefix() {
        // The regression the checked casts fix: a count above u32::MAX used
        // to truncate silently (`len() as u32`), producing a prefix that
        // lies about the body. Constructing > 4 Gi real elements is not
        // feasible in a test, which is why the guard is its own function.
        assert_eq!(frame_count(0).unwrap(), 0);
        assert_eq!(frame_count(u32::MAX as usize).unwrap(), u32::MAX);
        for len in [u32::MAX as usize + 1, usize::MAX] {
            let err = frame_count(len).unwrap_err();
            assert!(
                matches!(err, ProtocolError::FrameTooLarge { .. }),
                "{len} must refuse to encode, got {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected_on_report_frames() {
        let valid = encode_tagged_weight_reports(&[(0, UserId(1), w(1, 2))]).unwrap();
        let mut raw = valid.to_vec();
        raw.push(0xEE);
        assert!(decode_tagged_weight_reports(Bytes::from(raw)).is_err());
        let valid = encode_tagged_id_reports(&[(0, UserId(9))]).unwrap();
        let mut raw = valid.to_vec();
        raw.extend_from_slice(&[1, 2, 3]);
        assert!(decode_tagged_id_reports(Bytes::from(raw)).is_err());
    }

    fn ws(weights: &[Weight]) -> WeightSet {
        weights.iter().copied().collect()
    }

    fn diff(removed: &[Weight], added: &[Weight]) -> WeightDiff {
        WeightDiff {
            removed: ws(removed),
            added: ws(added),
        }
    }

    #[test]
    fn station_update_delta_roundtrips_with_interning() {
        let churn = diff(&[w(1, 3)], &[w(2, 3)]);
        let delta = FilterDelta {
            diffs: vec![
                churn.clone(),
                diff(&[Weight::ONE], &[]),
                diff(&[], &[Weight::ONE]),
            ],
            entries: vec![(3, 0), (9, 1), (17, 0), (18, 0), (40, 2)],
        };
        let update = StationUpdate::Delta {
            epoch: 7,
            query_totals: vec![100, 250],
            delta: delta.clone(),
        };
        let encoded = encode_station_update(&update).unwrap();
        assert_eq!(decode_station_update(encoded.clone()).unwrap(), update);
        // Interning + varint gaps: the repeated churn diff crosses the wire
        // once and each entry costs a couple of bytes, so the frame stays
        // well below one uninterned 16-byte weight pair per entry.
        let header = 1 + 8 + 4 + 2 * 8;
        let uninterned = 5 * (4 + 2 * 16);
        assert!(
            encoded.len() < header + (3 * uninterned) / 4,
            "delta frame too large: {} bytes",
            encoded.len()
        );
        assert_eq!(update.epoch(), 7);
        assert!(!delta.is_empty());
        assert!(FilterDelta::default().is_empty());
    }

    #[test]
    fn delta_encoder_rejects_disorder_and_empty_diffs() {
        let rejected = |diffs: Vec<WeightDiff>, entries: Vec<(u32, u32)>| {
            let delta = FilterDelta { diffs, entries };
            encode_station_update(&StationUpdate::Delta {
                epoch: 0,
                query_totals: vec![],
                delta,
            })
            .is_err()
        };
        let add_one = || vec![diff(&[], &[Weight::ONE])];
        assert!(rejected(add_one(), vec![(9, 0), (3, 0)]), "out of order");
        assert!(rejected(add_one(), vec![(3, 0), (3, 0)]), "duplicate");
        assert!(rejected(vec![WeightDiff::default()], vec![(3, 0)]), "empty");
        // Encode/decode symmetry: an overlapping diff is rejected at the
        // encoder too, so the center can never frame an update every
        // station would refuse.
        let overlapping = vec![diff(&[Weight::ONE], &[Weight::ONE])];
        assert!(rejected(overlapping, vec![(3, 0)]), "overlapping");
        // An entry must reference a diff inside the table.
        assert!(rejected(add_one(), vec![(3, 1)]), "dangling");
    }

    #[test]
    fn overlong_varints_are_rejected_not_truncated() {
        // A 10-byte varint whose final byte carries payload above bit 63
        // must error: silently keeping only the low bit would decode a
        // corrupt frame to wrong positions. Frame: a delta with one dict
        // weight and one diff, whose single entry's gap varint is hostile.
        let mut frame = BytesMut::new();
        frame.put_u8(1);
        frame.put_u64_le(0);
        frame.put_u32_le(0);
        frame.put_u32_le(1); // dict: one weight
        frame.put_u64_le(1);
        frame.put_u64_le(2);
        frame.put_u32_le(1); // one diff
        frame.put_u16_le(0); // removes nothing
        frame.put_u16_le(1); // adds weight 0
        frame.put_u16_le(0);
        frame.put_u32_le(1); // one entry
        frame.extend_from_slice(&[0x80; 9]); // gap varint: 9 continuations…
        frame.put_u8(0x7E); // …then payload bits above the u64 range
        frame.put_u8(0); // diff ref
        assert!(decode_station_update(frame.freeze()).is_err());
    }

    #[test]
    fn hostile_position_gaps_error_instead_of_wrapping() {
        // Entry 1 at position 5, entry 2 with gap u64::MAX: the position
        // reconstruction must error, not overflow (a wraparound would land
        // back on position 5, double-applying a diff to one position).
        let mut frame = BytesMut::new();
        frame.put_u8(1); // delta kind
        frame.put_u64_le(0); // epoch
        frame.put_u32_le(0); // totals
        frame.put_u32_le(1); // dict: one weight
        frame.put_u64_le(1);
        frame.put_u64_le(2);
        frame.put_u32_le(1); // one diff
        frame.put_u16_le(0); // removes nothing
        frame.put_u16_le(1); // adds weight 0
        frame.put_u16_le(0);
        frame.put_u32_le(2); // two entries
        frame.put_u8(5); // entry 1: position 5
        frame.put_u8(0); // diff ref
        frame.extend_from_slice(&[0xFF; 9]); // entry 2: gap = u64::MAX…
        frame.put_u8(0x01); // …(canonical 10-byte varint)
        frame.put_u8(0); // diff ref
        assert!(decode_station_update(frame.freeze()).is_err());
    }

    #[test]
    fn station_update_full_roundtrips() {
        let update = StationUpdate::Full {
            epoch: 0,
            query_totals: vec![42],
            filter: Bytes::from_static(b"FILTERBYTES"),
        };
        let encoded = encode_station_update(&update).unwrap();
        assert_eq!(decode_station_update(encoded).unwrap(), update);
    }

    #[test]
    fn station_update_rejects_structural_corruption() {
        // Unknown kind byte.
        let mut raw = encode_station_update(&StationUpdate::Delta {
            epoch: 1,
            query_totals: vec![],
            delta: FilterDelta::default(),
        })
        .unwrap()
        .to_vec();
        raw[0] = 9;
        assert!(decode_station_update(Bytes::from(raw)).is_err());
        // A diff reference outside the table: entry count 1, reference 2
        // while the table holds nothing.
        let mut buf = BytesMut::new();
        buf.put_u8(1); // delta
        buf.put_u64_le(0); // epoch
        buf.put_u32_le(0); // totals
        buf.put_u32_le(0); // dict
        buf.put_u32_le(0); // diffs
        buf.put_u32_le(1); // entries
        buf.put_u8(5); // pos varint
        buf.put_u8(2); // diff ref → out of range
        assert!(decode_station_update(buf.freeze()).is_err());
        // An empty diff in the table.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(0); // dict
        buf.put_u32_le(1); // one diff…
        buf.put_u16_le(0); // …removing nothing
        buf.put_u16_le(0); // …and adding nothing
        buf.put_u32_le(0); // entries
        assert!(decode_station_update(buf.freeze()).is_err());
        // A diff that removes and adds the same weight.
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(1); // dict: one weight
        buf.put_u64_le(1);
        buf.put_u64_le(2);
        buf.put_u32_le(1); // one diff
        buf.put_u16_le(1); // removes weight 0…
        buf.put_u16_le(1); // …and adds weight 0
        buf.put_u16_le(0);
        buf.put_u16_le(0);
        buf.put_u32_le(0); // entries
        assert!(decode_station_update(buf.freeze()).is_err());
    }

    #[test]
    fn weight_report_is_much_smaller_than_pattern_shipment() {
        // The core communication claim: 28 bytes per candidate (query tag,
        // id, weight) vs a full pattern (8 bytes × intervals) per user.
        let long = Pattern::from(vec![5u64; 336]); // one week at 30-min slots
        let shipment = encode_station_data(vec![(UserId(1), &long)]).unwrap();
        let report = encode_tagged_weight_reports(&[(0, UserId(1), Weight::ONE)]).unwrap();
        assert!(report.len() * 50 < shipment.len());
    }

    #[test]
    fn routing_summary_roundtrip() {
        let params = dipm_core::FilterParams::new(256, 3).unwrap();
        let mut filter = BloomFilter::new(params, 9);
        filter.insert(42);
        filter.insert(77);
        let frame = encode_routing_summary(6, &filter);
        let (station, decoded) = decode_routing_summary(frame).unwrap();
        assert_eq!(station, 6);
        assert_eq!(decoded, filter);
    }

    #[test]
    fn routing_summary_rejects_truncation_and_trailing_bytes() {
        let params = dipm_core::FilterParams::new(256, 3).unwrap();
        let filter = BloomFilter::new(params, 9);
        let frame = encode_routing_summary(0, &filter);
        // Truncation anywhere — mid-header and mid-filter.
        for cut in [0, 3, 4, 20, frame.len() - 1] {
            assert!(
                decode_routing_summary(frame.slice(..cut)).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage after a valid filter payload.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&frame);
        buf.put_u8(0xEE);
        assert!(decode_routing_summary(buf.freeze()).is_err());
    }

    #[test]
    fn routed_probes_roundtrip() {
        let frame = encode_routed_probes(4, 8, &[4, 6, 7]).unwrap();
        assert_eq!(
            decode_routed_probes(frame).unwrap(),
            RoutedProbes {
                lo: 4,
                hi: 8,
                targets: vec![4, 6, 7],
            }
        );
        // Empty target lists and empty ranges are legal (nothing routed).
        let frame = encode_routed_probes(0, 0, &[]).unwrap();
        let probes = decode_routed_probes(frame).unwrap();
        assert!(probes.targets.is_empty());
    }

    #[test]
    fn routed_probes_encoder_and_decoder_reject_the_same_invariants() {
        // Encoder-side: inverted range, out-of-range and duplicate ids.
        assert!(encode_routed_probes(8, 4, &[]).is_err());
        assert!(encode_routed_probes(4, 8, &[3]).is_err());
        assert!(encode_routed_probes(4, 8, &[8]).is_err());
        assert!(encode_routed_probes(4, 8, &[5, 5]).is_err());
        assert!(encode_routed_probes(4, 8, &[6, 5]).is_err());
        // Decoder-side: the same frames hand-built hostile.
        let hostile = |lo: u32, hi: u32, ids: &[u32]| {
            let mut buf = BytesMut::new();
            buf.put_u32_le(lo);
            buf.put_u32_le(hi);
            buf.put_u32_le(frame_count(ids.len()).unwrap());
            for &id in ids {
                buf.put_u32_le(id);
            }
            buf.freeze()
        };
        assert!(decode_routed_probes(hostile(8, 4, &[])).is_err());
        assert!(decode_routed_probes(hostile(4, 8, &[3])).is_err());
        assert!(decode_routed_probes(hostile(4, 8, &[8])).is_err());
        assert!(decode_routed_probes(hostile(4, 8, &[5, 5])).is_err());
        assert!(decode_routed_probes(hostile(4, 8, &[6, 5])).is_err());
        // A count larger than the claimed range is rejected before any
        // allocation, however large it lies.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_u32_le(4);
        buf.put_u32_le(u32::MAX);
        assert!(decode_routed_probes(buf.freeze()).is_err());
        // Truncation and trailing bytes.
        let frame = encode_routed_probes(0, 4, &[1, 2]).unwrap();
        for cut in [0, 3, 11, frame.len() - 1] {
            assert!(decode_routed_probes(frame.slice(..cut)).is_err());
        }
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&frame);
        buf.put_u8(0xEE);
        assert!(decode_routed_probes(buf.freeze()).is_err());
    }

    #[test]
    fn routing_plan_rejects_overlapping_subtree_claims() {
        let mut plan = RoutingPlan::new(12);
        plan.claim(&RoutedProbes {
            lo: 0,
            hi: 4,
            targets: vec![1, 3],
        })
        .unwrap();
        plan.claim(&RoutedProbes {
            lo: 8,
            hi: 12,
            targets: vec![9],
        })
        .unwrap();
        // Overlaps an admitted claim (even partially) → rejected.
        let overlap = RoutedProbes {
            lo: 3,
            hi: 6,
            targets: vec![5],
        };
        assert!(plan.claim(&overlap).is_err());
        // Reaches past the deployment → rejected.
        let beyond = RoutedProbes {
            lo: 4,
            hi: 13,
            targets: vec![4],
        };
        assert!(plan.claim(&beyond).is_err());
        // The gap in between is still claimable, and targets assemble
        // ascending whatever the claim order.
        plan.claim(&RoutedProbes {
            lo: 4,
            hi: 8,
            targets: vec![4],
        })
        .unwrap();
        assert_eq!(plan.into_targets(), vec![1, 3, 4, 9]);
    }

    fn sample_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            epoch: 5,
            clock_base: 940,
            needs_full: false,
            bits: 1 << 12,
            hashes: 4,
            seed: 0xfeed,
            samples: 12,
            eps: 2,
            tolerance: ToleranceMode::Uniform,
            hash_scheme: HashScheme::PositionTagged,
            next_id: 3,
            drained_next_id: 2,
            queries: vec![
                CheckpointQuery {
                    id: 0,
                    total: 40,
                    combinations: 12,
                    pairs: vec![(7, w(3, 4)), (11, w(1, 4))],
                },
                CheckpointQuery {
                    id: 2,
                    total: 9,
                    combinations: 1,
                    pairs: vec![(99, w(9, 9))],
                },
            ],
            retired: vec![CheckpointQuery {
                id: 1,
                total: 3,
                combinations: 2,
                pairs: vec![(5, w(1, 2))],
            }],
            stations: vec![
                CheckpointStation {
                    has_filter: true,
                    applied_epoch: 4,
                },
                CheckpointStation {
                    has_filter: false,
                    applied_epoch: 0,
                },
            ],
        }
    }

    #[test]
    fn session_checkpoint_roundtrips() {
        let checkpoint = sample_checkpoint();
        let frame = encode_session_checkpoint(&checkpoint).unwrap();
        let decoded = decode_session_checkpoint(frame).unwrap();
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn session_checkpoint_rejects_truncation_everywhere() {
        let frame = encode_session_checkpoint(&sample_checkpoint()).unwrap();
        for len in 0..frame.len() {
            assert!(
                decode_session_checkpoint(frame.slice(..len)).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn session_checkpoint_rejects_trailing_bytes() {
        let frame = encode_session_checkpoint(&sample_checkpoint()).unwrap();
        let mut padded = BytesMut::new();
        padded.extend_from_slice(&frame);
        padded.put_u8(0);
        let err = decode_session_checkpoint(padded.freeze()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn session_checkpoint_rejects_structural_violations() {
        // The decoder re-runs the same validation, so rejecting these on
        // encode proves both directions.
        let rejects = |c: &SessionCheckpoint, needle: &str| {
            let err = encode_session_checkpoint(c).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        };
        let mut c = sample_checkpoint();
        c.stations[1].applied_epoch = 9;
        c.stations[1].has_filter = true;
        rejects(&c, "beyond checkpoint epoch");

        let mut c = sample_checkpoint();
        c.stations[1].applied_epoch = 2;
        rejects(&c, "without holding a filter");

        let mut c = sample_checkpoint();
        c.queries[1].id = 0;
        rejects(&c, "strictly ascending");

        let mut c = sample_checkpoint();
        c.queries[1].id = 77;
        rejects(&c, "not below next id");

        // Counters a session can never reach: the next epoch or insert
        // would overflow.
        let mut c = sample_checkpoint();
        c.epoch = u64::MAX;
        rejects(&c, "u64::MAX");

        let mut c = sample_checkpoint();
        c.next_id = u64::MAX;
        rejects(&c, "u64::MAX");

        // The drain split: the mark never passes the next id, and retired
        // queries were live at the drain and are live no more.
        let mut c = sample_checkpoint();
        c.drained_next_id = 4;
        rejects(&c, "beyond next id");

        let mut c = sample_checkpoint();
        c.retired[0].id = 2;
        rejects(&c, "not below drain mark");

        let mut c = sample_checkpoint();
        c.drained_next_id = 3;
        c.retired[0].id = 2;
        rejects(&c, "both live and retired");

        let mut c = sample_checkpoint();
        c.retired.insert(0, c.retired[0].clone());
        rejects(&c, "strictly ascending");
    }

    #[test]
    fn session_checkpoint_rejects_huge_declared_counts() {
        let frame = encode_session_checkpoint(&sample_checkpoint()).unwrap();
        // The query count lives right after the 74-byte fixed header;
        // inflate it far beyond the remaining bytes.
        let mut bytes = frame.to_vec();
        bytes[74..78].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_session_checkpoint(Bytes::from(bytes)).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn session_checkpoint_rejects_bad_magic_and_version() {
        let frame = encode_session_checkpoint(&sample_checkpoint()).unwrap();
        let mut bytes = frame.to_vec();
        bytes[0] ^= 0xff;
        assert!(decode_session_checkpoint(Bytes::from(bytes.clone())).is_err());
        bytes[0] ^= 0xff;
        // Any other version is refused on the version byte alone, however
        // short the rest of the frame.
        for version in [1, 3] {
            bytes[4] = version;
            for len in [5, bytes.len()] {
                let err =
                    decode_session_checkpoint(Bytes::from(bytes[..len].to_vec())).unwrap_err();
                assert!(
                    matches!(err, ProtocolError::MalformedReport { .. }),
                    "{err}"
                );
                let needle = format!("unsupported checkpoint version {version}");
                assert!(err.to_string().contains(&needle), "{err}");
            }
        }
        let mut service = encode_service_checkpoint(&[]).unwrap().to_vec();
        service[4] = 1;
        let err = decode_service_checkpoint(Bytes::from(service)).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported service checkpoint version 1"),
            "{err}"
        );
    }

    #[test]
    fn session_checkpoint_rejects_unknown_config_bytes() {
        let frame = encode_session_checkpoint(&sample_checkpoint()).unwrap();
        // tolerance and hash scheme sit after magic, version, epoch, clock,
        // needs_full, bits, hashes, seed, samples and eps.
        let at = 4 + 1 + 8 + 8 + 1 + 8 + 2 + 8 + 8 + 8;
        for (offset, needle) in [(at, "tolerance byte 2"), (at + 1, "hash-scheme byte 2")] {
            let mut bytes = frame.to_vec();
            bytes[offset] = 2;
            let err = decode_session_checkpoint(Bytes::from(bytes)).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn service_checkpoint_roundtrips_and_rejects_disorder() {
        let frames = vec![
            (1u64, Bytes::from_static(b"alpha")),
            (4, Bytes::from_static(b"")),
            (9, Bytes::from_static(b"gamma")),
        ];
        let encoded = encode_service_checkpoint(&frames).unwrap();
        assert_eq!(decode_service_checkpoint(encoded.clone()).unwrap(), frames);

        for len in 0..encoded.len() {
            assert!(
                decode_service_checkpoint(encoded.slice(..len)).is_err(),
                "prefix of {len} bytes decoded"
            );
        }

        let duplicated = vec![
            (4u64, Bytes::from_static(b"a")),
            (4, Bytes::from_static(b"b")),
        ];
        let err = encode_service_checkpoint(&duplicated).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");
    }
}
