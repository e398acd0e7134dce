//! The network topology both evaluation clusters share: workers behind
//! their NIC link, the orchestrator on GigE, and the four backing
//! services (kvstore, sqldb, objstore, mqueue) that network-bound
//! functions talk to.

use microfaas_net::{LinkSpec, Network, NodeId, Route};
use microfaas_sim::trace::Endpoint;
use microfaas_sim::SimTime;
use microfaas_workloads::calibration::service_time;
use microfaas_workloads::FunctionId;

/// A cluster's switch plus the node roster: `count` workers, the
/// orchestrator, and one host per backing service.
pub(crate) struct ClusterNet {
    net: Network,
    workers: Vec<NodeId>,
    /// The node each function's result transfer talks to, by
    /// [`FunctionId::index`].
    peers: [NodeId; FunctionId::ALL.len()],
    /// Each function's result-transfer route, by [`FunctionId::index`].
    /// Every worker sits on the same link, so a function's route is the
    /// same from (or to) any of them and is resolved once.
    routes: [Route; FunctionId::ALL.len()],
}

impl ClusterNet {
    /// Builds the topology on a GigE backbone. The orchestrator always
    /// sits on GigE; workers and services use the links the config asks
    /// for (Fast Ethernet SBCs, GigE VMs, SBC-hosted services, ...).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize, worker_link: LinkSpec, service_link: LinkSpec) -> Self {
        assert!(count > 0, "a cluster network needs at least one worker");
        let mut net = Network::new();
        let workers: Vec<NodeId> = (0..count).map(|_| net.add_node(worker_link)).collect();
        let orchestrator = net.add_node(LinkSpec::gigabit());
        let kv = net.add_node(service_link);
        let sql = net.add_node(service_link);
        let cos = net.add_node(service_link);
        let mq = net.add_node(service_link);
        let peers = FunctionId::ALL.map(|function| match function {
            FunctionId::RedisInsert | FunctionId::RedisUpdate => kv,
            FunctionId::SqlSelect | FunctionId::SqlUpdate => sql,
            FunctionId::CosGet | FunctionId::CosPut => cos,
            FunctionId::MqProduce | FunctionId::MqConsume => mq,
            _ => orchestrator,
        });
        let routes = FunctionId::ALL.map(|function| {
            let (from, to) = Self::ends(function, workers[0], peers[function.index() as usize]);
            net.route(from, to, service_time(function).transfer_bytes())
        });
        ClusterNet {
            net,
            workers,
            peers,
            routes,
        }
    }

    /// The sender and receiver of `function`'s result transfer between
    /// `worker` and `peer`: COSGet downloads, so its bytes flow service →
    /// worker; everything else uploads.
    fn ends<T>(function: FunctionId, worker: T, peer: T) -> (T, T) {
        if function == FunctionId::CosGet {
            (peer, worker)
        } else {
            (worker, peer)
        }
    }

    /// The trace-level endpoint label for `function`'s peer.
    fn endpoint_of(function: FunctionId) -> Endpoint {
        match function {
            FunctionId::RedisInsert | FunctionId::RedisUpdate => Endpoint::Service("kvstore"),
            FunctionId::SqlSelect | FunctionId::SqlUpdate => Endpoint::Service("sqldb"),
            FunctionId::CosGet | FunctionId::CosPut => Endpoint::Service("objstore"),
            FunctionId::MqProduce | FunctionId::MqConsume => Endpoint::Service("mqueue"),
            _ => Endpoint::Orchestrator,
        }
    }

    /// Runs the result transfer for `function` on worker `w` through the
    /// switch, returning the delivery time and the trace endpoints. The
    /// payload is the function's calibrated transfer size. A transfer the
    /// caller decides was lost occupies the wire identically; the
    /// returned instant is when it would have arrived.
    pub fn transfer(
        &mut self,
        now: SimTime,
        w: usize,
        function: FunctionId,
    ) -> (SimTime, Endpoint, Endpoint) {
        let f = function.index() as usize;
        let (from, to) = Self::ends(function, self.workers[w], self.peers[f]);
        let (src, dst) = Self::ends(function, Endpoint::Worker(w), Self::endpoint_of(function));
        let delivered = self.net.send_on(now, from, to, self.routes[f]);
        (delivered, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use microfaas_sim::SimDuration;

    use super::*;

    fn cnet() -> ClusterNet {
        ClusterNet::new(4, LinkSpec::fast_ethernet(), LinkSpec::gigabit())
    }

    #[test]
    fn network_bound_functions_map_to_their_service() {
        let cnet = cnet();
        // Two functions talk to one peer node exactly when their traces
        // name one endpoint, and that node is never a worker.
        for f in FunctionId::ALL {
            let peer = cnet.peers[f.index() as usize];
            assert!(!cnet.workers.contains(&peer), "{f:?}");
            for g in FunctionId::ALL {
                assert_eq!(
                    peer == cnet.peers[g.index() as usize],
                    ClusterNet::endpoint_of(f) == ClusterNet::endpoint_of(g),
                    "{f:?} and {g:?}"
                );
            }
        }
        assert_eq!(
            ClusterNet::endpoint_of(FunctionId::RedisInsert),
            Endpoint::Service("kvstore")
        );
        assert_eq!(
            ClusterNet::endpoint_of(FunctionId::SqlUpdate),
            Endpoint::Service("sqldb")
        );
        assert_eq!(
            ClusterNet::endpoint_of(FunctionId::MqConsume),
            Endpoint::Service("mqueue")
        );
        assert_eq!(
            ClusterNet::endpoint_of(FunctionId::CosGet),
            Endpoint::Service("objstore")
        );
        assert_eq!(
            ClusterNet::endpoint_of(FunctionId::FloatOps),
            Endpoint::Orchestrator
        );
    }

    #[test]
    fn cosget_downloads_everything_else_uploads() {
        let mut cnet = cnet();
        let (_, src, dst) = cnet.transfer(SimTime::ZERO, 2, FunctionId::CosGet);
        assert_eq!(src, Endpoint::Service("objstore"));
        assert_eq!(dst, Endpoint::Worker(2));
        let (_, src, dst) = cnet.transfer(SimTime::ZERO, 1, FunctionId::RedisInsert);
        assert_eq!(src, Endpoint::Worker(1));
        assert_eq!(dst, Endpoint::Service("kvstore"));
    }

    #[test]
    fn resolved_routes_deliver_like_a_fresh_send_from_every_worker() {
        let links = [
            (LinkSpec::fast_ethernet(), LinkSpec::gigabit()),
            (LinkSpec::gigabit(), LinkSpec::gigabit()),
            (LinkSpec::fast_ethernet(), LinkSpec::fast_ethernet()),
        ];
        for (worker_link, service_link) in links {
            let mut resolved = ClusterNet::new(4, worker_link, service_link);
            let mut fresh = ClusterNet::new(4, worker_link, service_link);
            let mut now = SimTime::ZERO;
            for (i, function) in FunctionId::ALL.into_iter().cycle().take(200).enumerate() {
                let w = i % 4;
                let bytes = service_time(function).transfer_bytes();
                let (from, to) = ClusterNet::ends(
                    function,
                    fresh.workers[w],
                    fresh.peers[function.index() as usize],
                );
                let want = fresh.net.send(now, from, to, bytes);
                let (got, _, _) = resolved.transfer(now, w, function);
                assert_eq!(got, want, "{function:?} on worker {w}");
                now += SimDuration::from_millis(20);
            }
        }
    }
}
