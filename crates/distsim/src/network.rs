//! An in-memory, byte-accounted message-passing network.
//!
//! Mirrors the paper's experiment environment: all "nodes" live in one
//! process (one thread per base station, Section V-A) and exchange real
//! messages whose payload sizes are metered — the numbers behind the
//! communication-cost comparison in Figure 4(c).
//!
//! A network can additionally carry a [`LatencyModel`]: every envelope is
//! then stamped with its modeled send and delivery ticks, which is what the
//! async mode's `makespan_ticks` meter is computed from. The stamps are
//! simulation metadata — they ride outside the payload, so byte accounting
//! is identical with and without a model.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::{DistSimError, Result};
use crate::metrics::{CostMeter, TrafficClass};
use crate::node::NodeId;

/// Deterministic per-message flight-time model, in virtual ticks.
///
/// Flight time is `base_ticks + ticks_per_byte · payload_len + jitter`,
/// where the jitter is a pure hash of `(seed, from, to)` bounded by
/// `jitter_ticks` — the same pair of nodes always sees the same extra
/// delay, so repeated runs produce identical makespans. `ticks_per_row`
/// does not affect messages at all; it is the station-side scan cost the
/// async pipeline charges per stored pattern row, kept here so one struct
/// describes the whole latency dimension of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    /// Fixed per-message propagation delay (one-way), in ticks.
    pub base_ticks: u64,
    /// Serialization cost per payload byte, in ticks.
    pub ticks_per_byte: u64,
    /// Station-side scan cost per stored pattern row, in ticks.
    pub ticks_per_row: u64,
    /// Upper bound on the deterministic per-link jitter, in ticks.
    pub jitter_ticks: u64,
    /// Seed of the jitter hash.
    pub seed: u64,
}

impl Default for LatencyModel {
    /// A mild default: 100-tick propagation, one tick per byte on the wire
    /// and per row scanned, no jitter.
    fn default() -> Self {
        LatencyModel {
            base_ticks: 100,
            ticks_per_byte: 1,
            ticks_per_row: 1,
            jitter_ticks: 0,
            seed: 0,
        }
    }
}

impl LatencyModel {
    /// A model where every message and scan takes zero ticks.
    pub fn zero() -> LatencyModel {
        LatencyModel {
            base_ticks: 0,
            ticks_per_byte: 0,
            ticks_per_row: 0,
            jitter_ticks: 0,
            seed: 0,
        }
    }

    /// Modeled one-way flight time of a `payload_len`-byte message.
    pub fn flight_ticks(&self, from: NodeId, to: NodeId, payload_len: usize) -> u64 {
        self.base_ticks
            .saturating_add(self.ticks_per_byte.saturating_mul(payload_len as u64))
            .saturating_add(self.link_jitter(from, to))
    }

    /// Modeled cost of scanning `rows` stored pattern rows.
    pub fn scan_ticks(&self, rows: usize) -> u64 {
        self.ticks_per_row.saturating_mul(rows as u64)
    }

    /// The deterministic jitter of the `from → to` link.
    fn link_jitter(&self, from: NodeId, to: NodeId) -> u64 {
        if self.jitter_ticks == 0 {
            return 0;
        }
        // SplitMix64 finalizer over (seed, from, to): stateless and stable.
        let mut x = self.seed ^ ((from.0 as u64) << 32 | to.0 as u64);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Saturating like the other tick math: jitter_ticks == u64::MAX
        // must not overflow the modulus.
        x % self.jitter_ticks.saturating_add(1)
    }
}

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Traffic class, for cost breakdown.
    pub class: TrafficClass,
    /// Opaque payload; its length is the metered communication cost.
    pub payload: Bytes,
    /// Virtual tick at which the message was sent (`0` without a
    /// [`LatencyModel`]).
    pub sent_at: u64,
    /// Modeled virtual delivery tick (`sent_at` plus flight time; `0`
    /// without a model). Simulation metadata, not payload.
    pub deliver_at: u64,
}

struct NetworkInner {
    meter: CostMeter,
    mailboxes: Mutex<HashMap<NodeId, Sender<Envelope>>>,
    latency: Option<LatencyModel>,
}

/// A shared in-memory network with per-message byte accounting.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use dipm_distsim::{Network, NodeId, TrafficClass, DATA_CENTER};
///
/// # fn main() -> Result<(), dipm_distsim::DistSimError> {
/// let network = Network::new();
/// let center = network.register(DATA_CENTER)?;
/// let station = NodeId::base_station(0);
/// network.register(station)?; // station mailbox unused in this example
///
/// network.send(station, DATA_CENTER, TrafficClass::Report, Bytes::from_static(b"id+w"))?;
/// let env = center.try_recv().expect("delivered");
/// assert_eq!(env.from, station);
/// assert_eq!(network.meter().report().report_bytes, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// Creates an empty network with no latency model (all stamps zero).
    pub fn new() -> Network {
        Network {
            inner: Arc::new(NetworkInner {
                meter: CostMeter::new(),
                mailboxes: Mutex::new(HashMap::new()),
                latency: None,
            }),
        }
    }

    /// Creates an empty network that stamps every envelope with modeled
    /// send/delivery ticks.
    pub fn with_latency(model: LatencyModel) -> Network {
        Network {
            inner: Arc::new(NetworkInner {
                meter: CostMeter::new(),
                mailboxes: Mutex::new(HashMap::new()),
                latency: Some(model),
            }),
        }
    }

    /// The latency model, if this network stamps delivery times.
    pub fn latency_model(&self) -> Option<&LatencyModel> {
        self.inner.latency.as_ref()
    }

    /// The shared cost meter.
    pub fn meter(&self) -> &CostMeter {
        &self.inner.meter
    }

    /// Registers `node`, returning its mailbox.
    ///
    /// # Errors
    ///
    /// Returns [`DistSimError::DuplicateNode`] if `node` already registered.
    pub fn register(&self, node: NodeId) -> Result<Mailbox> {
        let mut boxes = self.inner.mailboxes.lock();
        if boxes.contains_key(&node) {
            return Err(DistSimError::DuplicateNode(node));
        }
        let (tx, rx) = unbounded();
        boxes.insert(node, tx);
        Ok(Mailbox { node, rx })
    }

    /// Sends one metered message, stamped as sent at tick zero (the start
    /// of a modeled run; use [`Network::send_at`] for any later tick).
    ///
    /// # Errors
    ///
    /// Returns [`DistSimError::UnknownNode`] if `to` never registered and
    /// [`DistSimError::Disconnected`] if its mailbox was dropped.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        class: TrafficClass,
        payload: Bytes,
    ) -> Result<()> {
        self.send_at(from, to, class, payload, 0)
    }

    /// Sends one metered message stamped as sent at the given virtual tick.
    ///
    /// Stations report with this instead of [`Network::send`]: a station's
    /// send time is a fact of *its own* modeled timeline (its broadcast
    /// copy's delivery tick plus its modeled scan time), not of when the
    /// simulation happened to run it. Stamping from that timeline keeps
    /// delivery times (and therefore `makespan_ticks`) independent of the
    /// order stations run in.
    ///
    /// # Errors
    ///
    /// Returns [`DistSimError::UnknownNode`] if `to` never registered and
    /// [`DistSimError::Disconnected`] if its mailbox was dropped.
    pub fn send_at(
        &self,
        from: NodeId,
        to: NodeId,
        class: TrafficClass,
        payload: Bytes,
        sent_at: u64,
    ) -> Result<()> {
        let sender = {
            let boxes = self.inner.mailboxes.lock();
            boxes
                .get(&to)
                .cloned()
                .ok_or(DistSimError::UnknownNode(to))?
        };
        self.inner.meter.record_message(class, payload.len() as u64);
        let deliver_at = match &self.inner.latency {
            Some(model) => sent_at.saturating_add(model.flight_ticks(from, to, payload.len())),
            None => sent_at,
        };
        sender
            .send(Envelope {
                from,
                to,
                class,
                payload,
                sent_at,
                deliver_at,
            })
            .map_err(|_| DistSimError::Disconnected(to))
    }

    /// Broadcasts the same payload to every given node, metering each copy
    /// separately (the data center pays per-station dissemination cost).
    ///
    /// # Errors
    ///
    /// Fails on the first unknown or disconnected target.
    pub fn broadcast<I>(
        &self,
        from: NodeId,
        targets: I,
        class: TrafficClass,
        payload: &Bytes,
    ) -> Result<usize>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut delivered = 0;
        for node in targets {
            self.send(from, node, class, payload.clone())?;
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Broadcasts the same payload to every given node, stamping every copy
    /// as sent at the given virtual tick.
    ///
    /// The data center's send time can be a fact of a longer timeline than
    /// one run's: a streaming session's next epoch starts at the previous
    /// epoch's makespan, so each copy is stamped from the tick the center
    /// actually reached — and per-epoch makespans accumulate
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown or disconnected target.
    pub fn broadcast_at<I>(
        &self,
        from: NodeId,
        targets: I,
        class: TrafficClass,
        payload: &Bytes,
        sent_at: u64,
    ) -> Result<usize>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut delivered = 0;
        for node in targets {
            self.send_at(from, node, class, payload.clone(), sent_at)?;
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Broadcasts the same payload with a *per-recipient* send tick,
    /// metering each copy separately.
    ///
    /// This is the dissemination primitive of a multi-tenant service
    /// epoch: concurrent tenants share each station's downlink, so the
    /// second tenant's frame cannot start its flight until the link
    /// finished serializing the first — its copy is stamped from a later
    /// tick than a lone tenant's would be. The stagger is pure simulation
    /// metadata, exactly like [`Network::broadcast_at`]'s single stamp:
    /// byte accounting is identical whatever ticks the copies carry.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown or disconnected target.
    pub fn broadcast_each_at<I>(
        &self,
        from: NodeId,
        targets: I,
        class: TrafficClass,
        payload: &Bytes,
    ) -> Result<usize>
    where
        I: IntoIterator<Item = (NodeId, u64)>,
    {
        let mut delivered = 0;
        for (node, sent_at) in targets {
            self.send_at(from, node, class, payload.clone(), sent_at)?;
            delivered += 1;
        }
        Ok(delivered)
    }

    /// The number of registered mailboxes.
    pub fn node_count(&self) -> usize {
        self.inner.mailboxes.lock().len()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// The receiving end of one node's message queue.
#[derive(Debug)]
pub struct Mailbox {
    node: NodeId,
    rx: Receiver<Envelope>,
}

impl Mailbox {
    /// The node this mailbox belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Receives the next message without blocking.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// Receives, blocking until a message arrives or every sender is gone.
    ///
    /// # Errors
    ///
    /// Returns [`DistSimError::Disconnected`] when the network was dropped.
    pub fn recv(&self) -> Result<Envelope> {
        self.rx
            .recv()
            .map_err(|_| DistSimError::Disconnected(self.node))
    }

    /// Drains all currently queued messages.
    pub fn drain(&self) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Some(env) = self.try_recv() {
            out.push(env);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DATA_CENTER;

    #[test]
    fn register_send_receive() {
        let net = Network::new();
        let center = net.register(DATA_CENTER).unwrap();
        net.register(NodeId(1)).unwrap();
        net.send(
            NodeId(1),
            DATA_CENTER,
            TrafficClass::Report,
            Bytes::from_static(b"abc"),
        )
        .unwrap();
        let env = center.recv().unwrap();
        assert_eq!(env.payload.as_ref(), b"abc");
        assert_eq!(env.from, NodeId(1));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let net = Network::new();
        net.register(NodeId(1)).unwrap();
        assert_eq!(
            net.register(NodeId(1)).unwrap_err(),
            DistSimError::DuplicateNode(NodeId(1))
        );
    }

    #[test]
    fn unknown_target_rejected() {
        let net = Network::new();
        let err = net
            .send(NodeId(1), NodeId(9), TrafficClass::Control, Bytes::new())
            .unwrap_err();
        assert_eq!(err, DistSimError::UnknownNode(NodeId(9)));
    }

    #[test]
    fn broadcast_meters_each_copy() {
        let net = Network::new();
        let mut boxes = Vec::new();
        for i in 0..4 {
            boxes.push(net.register(NodeId::base_station(i)).unwrap());
        }
        let payload = Bytes::from(vec![0u8; 100]);
        let delivered = net
            .broadcast(
                DATA_CENTER,
                (0..4).map(NodeId::base_station),
                TrafficClass::Query,
                &payload,
            )
            .unwrap();
        assert_eq!(delivered, 4);
        assert_eq!(net.meter().report().query_bytes, 400);
        for mailbox in &boxes {
            assert_eq!(mailbox.drain().len(), 1);
        }
    }

    #[test]
    fn broadcast_at_stamps_from_the_given_tick() {
        let model = LatencyModel {
            base_ticks: 10,
            ticks_per_byte: 0,
            ticks_per_row: 0,
            jitter_ticks: 0,
            seed: 0,
        };
        let net = Network::with_latency(model);
        let mailbox = net.register(NodeId(1)).unwrap();
        net.broadcast_at(
            DATA_CENTER,
            [NodeId(1)],
            TrafficClass::Query,
            &Bytes::from_static(b"delta"),
            500,
        )
        .unwrap();
        let env = mailbox.recv().unwrap();
        assert_eq!(env.sent_at, 500);
        assert_eq!(env.deliver_at, 510);
        assert_eq!(net.meter().report().query_bytes, 5);
    }

    #[test]
    fn broadcast_each_at_staggers_per_recipient_stamps() {
        let model = LatencyModel {
            base_ticks: 10,
            ticks_per_byte: 1,
            ticks_per_row: 0,
            jitter_ticks: 0,
            seed: 0,
        };
        let net = Network::with_latency(model);
        let a = net.register(NodeId(1)).unwrap();
        let b = net.register(NodeId(2)).unwrap();
        let payload = Bytes::from_static(b"frame");
        let delivered = net
            .broadcast_each_at(
                DATA_CENTER,
                [(NodeId(1), 100), (NodeId(2), 105)],
                TrafficClass::Query,
                &payload,
            )
            .unwrap();
        assert_eq!(delivered, 2);
        let first = a.recv().unwrap();
        let second = b.recv().unwrap();
        assert_eq!((first.sent_at, first.deliver_at), (100, 115));
        assert_eq!((second.sent_at, second.deliver_at), (105, 120));
        // Byte accounting ignores the stamps: two metered copies.
        assert_eq!(net.meter().report().query_bytes, 10);
        assert_eq!(net.meter().report().messages, 2);
    }

    #[test]
    fn drain_empties_queue() {
        let net = Network::new();
        let mailbox = net.register(NodeId(1)).unwrap();
        for _ in 0..3 {
            net.send(DATA_CENTER, NodeId(1), TrafficClass::Control, Bytes::new())
                .unwrap();
        }
        assert_eq!(mailbox.drain().len(), 3);
        assert!(mailbox.try_recv().is_none());
    }

    #[test]
    fn latency_model_stamps_envelopes_deterministically() {
        let model = LatencyModel {
            base_ticks: 10,
            ticks_per_byte: 2,
            ticks_per_row: 1,
            jitter_ticks: 5,
            seed: 99,
        };
        let net = Network::with_latency(model);
        let mailbox = net.register(NodeId(1)).unwrap();
        net.send(
            DATA_CENTER,
            NodeId(1),
            TrafficClass::Query,
            Bytes::from_static(b"abcd"),
        )
        .unwrap();
        let env = mailbox.recv().unwrap();
        assert_eq!(env.sent_at, 0);
        let expected = model.flight_ticks(DATA_CENTER, NodeId(1), 4);
        assert_eq!(env.deliver_at, expected);
        assert!(expected >= 18, "base + 2·4 bytes before jitter");
        assert!(expected <= 23, "jitter bounded by jitter_ticks");
        // Same link, same model ⇒ same stamp, run after run.
        assert_eq!(expected, model.flight_ticks(DATA_CENTER, NodeId(1), 4));
        // Byte accounting is untouched by the stamps.
        assert_eq!(net.meter().report().query_bytes, 4);
    }

    #[test]
    fn unmodeled_network_stamps_zero() {
        let net = Network::new();
        let mailbox = net.register(NodeId(1)).unwrap();
        net.send(
            DATA_CENTER,
            NodeId(1),
            TrafficClass::Control,
            Bytes::from_static(b"x"),
        )
        .unwrap();
        let env = mailbox.recv().unwrap();
        assert_eq!((env.sent_at, env.deliver_at), (0, 0));
        assert!(net.latency_model().is_none());
    }

    #[test]
    fn zero_model_is_all_zeros() {
        let model = LatencyModel::zero();
        assert_eq!(model.flight_ticks(NodeId(1), NodeId(2), 10_000), 0);
        assert_eq!(model.scan_ticks(5_000), 0);
    }

    #[test]
    fn extreme_model_values_saturate_instead_of_panicking() {
        let model = LatencyModel {
            base_ticks: u64::MAX,
            ticks_per_byte: u64::MAX,
            ticks_per_row: u64::MAX,
            jitter_ticks: u64::MAX,
            seed: 1,
        };
        assert_eq!(
            model.flight_ticks(NodeId(1), NodeId(2), usize::MAX),
            u64::MAX
        );
        assert_eq!(model.scan_ticks(usize::MAX), u64::MAX);
    }

    #[test]
    fn network_clones_share_state() {
        let net = Network::new();
        let clone = net.clone();
        let _mailbox = net.register(NodeId(1)).unwrap();
        clone
            .send(
                DATA_CENTER,
                NodeId(1),
                TrafficClass::Data,
                Bytes::from_static(b"xy"),
            )
            .unwrap();
        assert_eq!(net.meter().report().data_bytes, 2);
        assert_eq!(clone.node_count(), 1);
    }
}
