//! # microfaas-net
//!
//! A store-and-forward Ethernet model: NICs with line rates and
//! autonegotiation delays, a managed switch with per-port FIFO queues, and
//! a [`Network`] that computes message delivery times for the cluster
//! simulator.
//!
//! The model charges each message:
//!
//! 1. serialization onto the sender's link (`bytes / line_rate`), queued
//!    FIFO behind any transfer already occupying that port;
//! 2. propagation + switch forwarding latency, **pipelined** — frames of
//!    a large message stream through the switch while later frames are
//!    still being serialized (cut-through at message granularity), so a
//!    transfer costs one bottleneck-rate serialization, not two;
//! 3. occupancy of the receiver's RX port for its own serialization time,
//!    again queued FIFO per port.
//!
//! This is enough to reproduce the paper's bandwidth asymmetry (Fast
//! Ethernet SBCs vs bridged Gigabit VMs) and the queueing that appears
//! when many workers share one service node.
//!
//! A node is its link and the instants its two port directions free up;
//! nothing else is kept. The network does not name nodes or count
//! traffic: the engines' `NetTransfer` trace events and `*_net_bytes`
//! counters are that record. A message lost in flight reserves the ports
//! exactly as a delivered one does, so the engines send it like any
//! other and decide the loss themselves.
//!
//! # Examples
//!
//! ```
//! use microfaas_net::{LinkSpec, Network};
//! use microfaas_sim::SimTime;
//!
//! let mut net = Network::new();
//! let sbc = net.add_node(LinkSpec::fast_ethernet());
//! let service = net.add_node(LinkSpec::fast_ethernet());
//!
//! // 1 MB from the SBC to the service node: dominated by the sender's
//! // 100 Mb/s link (~80 ms).
//! let delivered = net.send(SimTime::ZERO, sbc, service, 1_000_000);
//! assert!(delivered.as_secs_f64() > 0.08);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use microfaas_sim::{SimDuration, SimTime};

/// Physical characteristics of an Ethernet link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub bits_per_sec: u64,
    /// One-way propagation + PHY latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// 10/100 Fast Ethernet (the BeagleBone Black's NIC).
    pub fn fast_ethernet() -> Self {
        LinkSpec {
            bits_per_sec: 100_000_000,
            latency: SimDuration::from_micros(100),
        }
    }

    /// Gigabit Ethernet (the rack server's NIC and the ToR switch ports).
    pub fn gigabit() -> Self {
        LinkSpec {
            bits_per_sec: 1_000_000_000,
            latency: SimDuration::from_micros(50),
        }
    }
}

/// Identifies a node attached to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// The port-independent timing of one message: its serialization onto
/// the sender's link and off the receiver's, and the path latency
/// between them. It depends only on the payload and the two nodes'
/// links, so every pair of nodes with the same two links shares it.
/// [`Network::route`] computes it; [`Network::send_on`] queues a message
/// on its ports with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    up: SimDuration,
    down: SimDuration,
    latency: SimDuration,
}

#[derive(Debug)]
struct Node {
    link: LinkSpec,
    /// When the last transfer reserved on the TX direction of the node's
    /// switch port completes (zero while unused): each direction carries
    /// one transfer at a time, FIFO.
    tx_busy_until: SimTime,
    /// The same for the RX direction.
    rx_busy_until: SimTime,
}

/// Line rate of every switch port: the paper's testbed switch is GigE.
const SWITCH_PORT_BITS_PER_SEC: u64 = 1_000_000_000;

/// The switch's store-and-forward latency per message.
const FORWARDING_LATENCY: SimDuration = SimDuration::from_micros(10);

/// The switched network: every node connects to one managed switch, as in
/// the paper's testbed (one 24-port managed GigE switch).
#[derive(Debug, Default)]
pub struct Network {
    nodes: Vec<Node>,
}

impl Network {
    /// Creates a network with no nodes behind the paper's GigE switch.
    pub fn new() -> Self {
        Network::default()
    }

    /// Attaches a node with the given NIC and returns its id.
    pub fn add_node(&mut self, link: LinkSpec) -> NodeId {
        self.nodes.push(Node {
            link,
            tx_busy_until: SimTime::ZERO,
            rx_busy_until: SimTime::ZERO,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Sends `bytes` from `from` to `to` starting at `now`; returns the
    /// delivery completion time.
    ///
    /// The effective path rate is the slower of the sender's NIC, the
    /// switch port, and the receiver's NIC, with FIFO queueing on the
    /// sender's TX and receiver's RX sides; frames pipeline through the
    /// switch, so the message pays one bottleneck-rate serialization.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either id is foreign to this network.
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        let route = self.route(from, to, bytes);
        self.send_on(now, from, to, route)
    }

    /// The port-independent timing of `bytes` from `from` to `to`: each
    /// side's serialization at the slower of its NIC and the switch port,
    /// and the latency of both links plus the switch's forwarding. It
    /// reads no port state, so a caller sending the same payload between
    /// nodes with the same links may compute it once and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either id is foreign to this network.
    pub fn route(&self, from: NodeId, to: NodeId, bytes: u64) -> Route {
        assert_ne!(from, to, "a node cannot send to itself over the switch");
        let (up, down) = (&self.nodes[from.0].link, &self.nodes[to.0].link);
        Route {
            up: serialization(bytes, up.bits_per_sec.min(SWITCH_PORT_BITS_PER_SEC)),
            down: serialization(bytes, down.bits_per_sec.min(SWITCH_PORT_BITS_PER_SEC)),
            latency: up.latency + FORWARDING_LATENCY + down.latency,
        }
    }

    /// Sends a message timed by `route` from `from` to `to` starting at
    /// `now`, queueing it FIFO on the sender's TX and the receiver's RX
    /// port; returns the delivery completion time. With `route` equal to
    /// `self.route(from, to, bytes)` this is [`Self::send`].
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either id is foreign to this network.
    #[inline]
    pub fn send_on(&mut self, now: SimTime, from: NodeId, to: NodeId, route: Route) -> SimTime {
        assert_ne!(from, to, "a node cannot send to itself over the switch");
        // Sender serializes onto its link (FIFO behind earlier sends).
        let sender = &mut self.nodes[from.0];
        let tx_start = sender.tx_busy_until.max(now);
        let tx_done = tx_start + route.up;
        sender.tx_busy_until = tx_done;
        // First byte reaches the receiver's port after the path latency;
        // the RX port is then occupied for its own serialization time.
        let receiver = &mut self.nodes[to.0];
        let rx_done = receiver.rx_busy_until.max(tx_start + route.latency) + route.down;
        receiver.rx_busy_until = rx_done;
        // The last byte cannot arrive before the sender finishes pushing
        // it onto the wire.
        rx_done.max(tx_done + route.latency)
    }
}

fn serialization(bytes: u64, bits_per_sec: u64) -> SimDuration {
    assert!(bits_per_sec > 0, "line rate must be positive");
    SimDuration::from_micros(bytes * 8 * 1_000_000 / bits_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node(LinkSpec::fast_ethernet());
        let b = net.add_node(LinkSpec::fast_ethernet());
        (net, a, b)
    }

    #[test]
    fn serialization_dominates_large_transfers() {
        let (mut net, a, b) = two_node_net();
        // 1 MB at 100 Mb/s = 80 ms, pipelined through the switch.
        let delivered = net.send(SimTime::ZERO, a, b, 1_000_000);
        let secs = delivered.as_secs_f64();
        assert!((0.080..0.082).contains(&secs), "got {secs}");
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let (mut net, a, b) = two_node_net();
        let delivered = net.send(SimTime::ZERO, a, b, 64);
        // 64 B at 100 Mb/s is ~5 µs each way; latency is 210 µs total.
        assert!(delivered.as_micros() < 300, "got {}", delivered.as_micros());
        assert!(delivered.as_micros() >= 210);
    }

    #[test]
    fn gigabit_is_ten_times_faster() {
        let mut net = Network::new();
        let fast = net.add_node(LinkSpec::fast_ethernet());
        let gig = net.add_node(LinkSpec::gigabit());
        let sink1 = net.add_node(LinkSpec::gigabit());
        let sink2 = net.add_node(LinkSpec::gigabit());
        let slow = net.send(SimTime::ZERO, fast, sink1, 10_000_000);
        let quick = net.send(SimTime::ZERO, gig, sink2, 10_000_000);
        // Fast Ethernet bottleneck: ~800 ms; full GigE path: ~80 ms.
        assert!((0.80..0.81).contains(&slow.as_secs_f64()), "slow {slow}");
        assert!(
            (0.080..0.081).contains(&quick.as_secs_f64()),
            "quick {quick}"
        );
        let ratio = slow.as_secs_f64() / quick.as_secs_f64();
        assert!((9.0..11.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sender_port_queues_fifo() {
        let (mut net, a, b) = two_node_net();
        let first = net.send(SimTime::ZERO, a, b, 1_000_000);
        // Second send at t=0 must wait for the first to leave the TX port.
        let second = net.send(SimTime::ZERO, a, b, 1_000_000);
        assert!(second > first);
        let gap = second.duration_since(first);
        // The gap is one full serialization (80 ms up at the queue, and the
        // downlink also queues behind the first frame).
        assert!(gap.as_millis_f64() >= 79.0, "gap {gap}");
    }

    #[test]
    fn receiver_port_is_shared_bottleneck() {
        let mut net = Network::new();
        let senders: Vec<NodeId> = (0..4).map(|_| net.add_node(LinkSpec::gigabit())).collect();
        let service = net.add_node(LinkSpec::fast_ethernet());
        let times: Vec<SimTime> = senders
            .iter()
            .map(|&s| net.send(SimTime::ZERO, s, service, 1_000_000))
            .collect();
        // All four converge on the service's 100 Mb/s RX: deliveries
        // serialize at ~80 ms apart.
        for pair in times.windows(2) {
            let gap = pair[1].duration_since(pair[0]);
            assert!(gap.as_millis_f64() >= 79.0, "gap {gap}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_send_panics() {
        let (mut net, a, _) = two_node_net();
        net.send(SimTime::ZERO, a, a, 1);
    }
}
