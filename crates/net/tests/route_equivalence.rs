//! A message's delivery time on the switched network, three ways: the
//! one-call `send`, its split into the port-independent `route` and the
//! per-message `send_on`, and a model of the store-and-forward rules
//! written out here. All three must agree to the microsecond on every
//! node pair of a cluster-shaped network, for empty to 8 MiB payloads,
//! including back-to-back sends that queue behind each other on a port.

use microfaas_net::{LinkSpec, Network, NodeId};
use microfaas_sim::{SimDuration, SimTime};

/// Payload sizes: empty, one byte, 1 MiB and 8 MiB (the COSGet object).
const SIZES: [u64; 4] = [0, 1, 1 << 20, 8 << 20];

/// The switch's forwarding latency the model charges per message.
const FORWARDING: SimDuration = SimDuration::from_micros(10);

/// A cluster-shaped network: `workers` on `worker_link`, the
/// orchestrator on GigE, and four service hosts on `service_link`, all
/// behind one GigE switch. Returns the network, its node ids and each
/// node's link, workers first, then the orchestrator, then the services.
fn cluster(
    workers: usize,
    worker_link: LinkSpec,
    service_link: LinkSpec,
) -> (Network, Vec<NodeId>, Vec<LinkSpec>) {
    let mut net = Network::new();
    let mut links = vec![worker_link; workers];
    links.push(LinkSpec::gigabit());
    links.extend([service_link; 4]);
    let ids = links.iter().map(|&link| net.add_node(link)).collect();
    (net, ids, links)
}

/// The three shapes the engines build: Fast Ethernet SBCs, GigE VMs, and
/// SBCs whose backing services also sit on Fast Ethernet.
fn shapes() -> [(LinkSpec, LinkSpec); 3] {
    [
        (LinkSpec::fast_ethernet(), LinkSpec::gigabit()),
        (LinkSpec::gigabit(), LinkSpec::gigabit()),
        (LinkSpec::fast_ethernet(), LinkSpec::fast_ethernet()),
    ]
}

/// The store-and-forward rules, one FIFO per port direction.
struct Model {
    links: Vec<LinkSpec>,
    switch: LinkSpec,
    tx: Vec<Option<SimTime>>,
    rx: Vec<Option<SimTime>>,
}

impl Model {
    fn new(links: Vec<LinkSpec>) -> Self {
        let n = links.len();
        Model {
            links,
            switch: LinkSpec::gigabit(),
            tx: vec![None; n],
            rx: vec![None; n],
        }
    }

    fn send(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        let serialize = |rate: u64| SimDuration::from_micros(bytes * 8 * 1_000_000 / rate);
        let up = serialize(self.links[from].bits_per_sec.min(self.switch.bits_per_sec));
        let down = serialize(self.links[to].bits_per_sec.min(self.switch.bits_per_sec));
        let latency = self.links[from].latency + FORWARDING + self.links[to].latency;
        let tx_start = self.tx[from].map_or(now, |busy| busy.max(now));
        let tx_done = tx_start + up;
        self.tx[from] = Some(tx_done);
        let first_byte = tx_start + latency;
        let rx_done = self.rx[to].map_or(first_byte, |busy| busy.max(first_byte)) + down;
        self.rx[to] = Some(rx_done);
        rx_done.max(tx_done + latency)
    }
}

/// Every ordered pair of distinct nodes, each size sent twice at the
/// same instant (the second queues behind the first on both ports), the
/// clock advancing 1 ms per pair so earlier transfers still hold ports.
fn schedule(nodes: usize) -> Vec<(SimTime, usize, usize, u64)> {
    let mut messages = Vec::new();
    let mut now = SimTime::ZERO;
    for from in 0..nodes {
        for to in (0..nodes).filter(|&to| to != from) {
            for bytes in SIZES {
                messages.push((now, from, to, bytes));
                messages.push((now, from, to, bytes));
            }
            now += SimDuration::from_millis(1);
        }
    }
    messages
}

#[test]
fn send_matches_the_store_and_forward_model_on_every_pair() {
    for (worker_link, service_link) in shapes() {
        let (mut net, ids, links) = cluster(3, worker_link, service_link);
        let n = links.len();
        let mut model = Model::new(links);
        for (now, from, to, bytes) in schedule(n) {
            let got = net.send(now, ids[from], ids[to], bytes);
            let want = model.send(now, from, to, bytes);
            assert_eq!(got, want, "{from} -> {to}, {bytes} B at {now}");
        }
    }
}

#[test]
fn route_then_send_on_equals_send_on_every_pair() {
    for (worker_link, service_link) in shapes() {
        let (mut whole, ids, links) = cluster(3, worker_link, service_link);
        let (mut split, _, _) = cluster(3, worker_link, service_link);
        for (now, from, to, bytes) in schedule(links.len()) {
            let (from, to) = (ids[from], ids[to]);
            let route = split.route(from, to, bytes);
            assert_eq!(route, split.route(from, to, bytes), "a route is pure");
            let via_send = whole.send(now, from, to, bytes);
            let via_route = split.send_on(now, from, to, route);
            assert_eq!(via_send, via_route, "{from} -> {to}, {bytes} B at {now}");
        }
    }
}

#[test]
fn a_route_is_shared_by_every_worker_on_the_same_link() {
    for (worker_link, service_link) in shapes() {
        let (net, ids, _) = cluster(4, worker_link, service_link);
        let orchestrator = ids[4];
        for bytes in SIZES {
            for peer in [orchestrator, ids[5], ids[7]] {
                let up = net.route(ids[0], peer, bytes);
                let down = net.route(peer, ids[0], bytes);
                for &w in &ids[1..4] {
                    assert_eq!(net.route(w, peer, bytes), up);
                    assert_eq!(net.route(peer, w, bytes), down);
                }
            }
        }
    }
}
