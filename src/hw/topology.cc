#include "src/hw/topology.h"

#include <cstddef>
#include <sstream>

#include "src/util/check.h"

namespace harmony {
namespace {

std::size_t Slot(int id) { return static_cast<std::size_t>(id); }

// AddDuplexLink appends each direction pair at link ids 2k and 2k + 1.
LinkId ReverseLink(LinkId lid) { return lid ^ 1; }

}  // namespace

const char* LinkTierName(LinkTier tier) {
  switch (tier) {
    case LinkTier::kPcie:
      return "pcie";
    case LinkTier::kNic:
      return "nic";
    case LinkTier::kRack:
      return "rack";
  }
  return "unknown";
}

NodeId Topology::AddNode(NodeKind kind, std::string name) {
  HCHECK(!finalized_);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  TopologyNode node{kind, std::move(name), -1};
  if (kind == NodeKind::kHost) {
    if (host_node_ == kInvalidNode) {
      host_node_ = id;
    }
    host_nodes_.push_back(id);
  } else if (kind == NodeKind::kGpu) {
    node.gpu_index = static_cast<int>(gpu_nodes_.size());
    gpu_nodes_.push_back(id);
  } else if (kind == NodeKind::kNic) {
    nic_nodes_.push_back(id);
  } else if (kind == NodeKind::kTor) {
    tor_nodes_.push_back(id);
  }
  nodes_.push_back(std::move(node));
  out_links_.emplace_back();
  return id;
}

void Topology::AddDuplexLink(NodeId a, NodeId b, const LinkSpec& spec, LinkTier tier) {
  HCHECK(!finalized_);
  HCHECK_NE(a, b);
  HCHECK_GE(a, 0);
  HCHECK_GE(b, 0);
  HCHECK_LT(a, num_nodes());
  HCHECK_LT(b, num_nodes());
  const LinkId forward = static_cast<LinkId>(links_.size());
  links_.push_back(TopologyLink{a, b, spec, tier});
  out_links_[static_cast<std::size_t>(a)].push_back(forward);
  const LinkId backward = static_cast<LinkId>(links_.size());
  links_.push_back(TopologyLink{b, a, spec, tier});
  out_links_[static_cast<std::size_t>(b)].push_back(backward);
}

void Topology::Finalize() {
  HCHECK(!finalized_);
  HCHECK_NE(host_node_, kInvalidNode) << "topology needs a host node";
  // Catch bad link specs here with a clear message rather than deep inside the flow model,
  // where a zero bandwidth would only surface as an opaque rate-check failure mid-run.
  for (const TopologyLink& l : links_) {
    HCHECK_GT(l.spec.bandwidth_bytes_per_sec, 0.0)
        << "link '" << l.spec.name << "' (" << node(l.src).name << " -> " << node(l.dst).name
        << ") must have positive bandwidth";
    HCHECK_GE(l.spec.latency_sec, 0.0)
        << "link '" << l.spec.name << "' (" << node(l.src).name << " -> " << node(l.dst).name
        << ") must have non-negative latency";
  }
  const int n = num_nodes();

  // One BFS from node 0 (out_links_ in insertion order) roots the tree. Reaching a node a
  // second time, over any link but the one back to the parent, closes a cycle.
  parent_.assign(Slot(n), kInvalidNode);
  up_link_.assign(Slot(n), -1);
  depth_.assign(Slot(n), -1);
  std::vector<NodeId> order;
  order.reserve(Slot(n));
  depth_[0] = 0;
  order.push_back(0);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId at = order[head];
    for (LinkId lid : out_links_[Slot(at)]) {
      if (lid == up_link_[Slot(at)]) {
        continue;
      }
      const NodeId next = links_[Slot(lid)].dst;
      HCHECK_LT(depth_[Slot(next)], 0)
          << "topology is not a tree: link " << node(at).name << " -> " << node(next).name
          << " closes a cycle";
      parent_[Slot(next)] = at;
      up_link_[Slot(next)] = ReverseLink(lid);
      depth_[Slot(next)] = depth_[Slot(at)] + 1;
      order.push_back(next);
    }
  }
  for (NodeId dst = 1; dst < n; ++dst) {
    HCHECK_GE(depth_[Slot(dst)], 0) << "topology is disconnected: no path 0 -> " << dst;
  }
  finalized_ = true;

  // Each GPU swaps to its nearest host (fewest hops; ties to the lowest host id). The dense
  // index of that host within host_nodes_ is the GPU's server — the node grouping the
  // hierarchical collective and the plan's two-level group structure use. A BFS seeded with
  // every host in id order claims each node for that host: each BFS level is claimed in
  // non-decreasing host order, so a node's first claimant is its lowest-id nearest host.
  std::vector<int> server(Slot(n), -1);
  order.clear();
  for (int h = 0; h < num_hosts(); ++h) {
    server[Slot(host_nodes_[Slot(h)])] = h;
    order.push_back(host_nodes_[Slot(h)]);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId at = order[head];
    for (LinkId lid : out_links_[Slot(at)]) {
      const NodeId next = links_[Slot(lid)].dst;
      if (server[Slot(next)] < 0) {
        server[Slot(next)] = server[Slot(at)];
        order.push_back(next);
      }
    }
  }
  gpu_swap_host_.clear();
  gpu_server_.clear();
  for (NodeId gpu : gpu_nodes_) {
    const int s = server[Slot(gpu)];
    gpu_swap_host_.push_back(host_nodes_[Slot(s)]);
    gpu_server_.push_back(s);
  }
}

RouteLinks Topology::Route(NodeId src, NodeId dst) const {
  HCHECK(finalized_);
  HCHECK_GE(src, 0);
  HCHECK_GE(dst, 0);
  HCHECK_LT(src, num_nodes());
  HCHECK_LT(dst, num_nodes());
  // Climb from both ends to the lowest common ancestor. The src side gives the route's
  // head in order; the dst side gives its tail as child -> parent links, appended reversed.
  RouteLinks route;
  RouteLinks tail;
  const auto climb = [this](NodeId* at, RouteLinks* links) {
    links->push_back(up_link_[Slot(*at)]);
    *at = parent_[Slot(*at)];
  };
  while (depth_[Slot(src)] > depth_[Slot(dst)]) {
    climb(&src, &route);
  }
  while (depth_[Slot(dst)] > depth_[Slot(src)]) {
    climb(&dst, &tail);
  }
  while (src != dst) {
    climb(&src, &route);
    climb(&dst, &tail);
  }
  for (std::size_t i = tail.size(); i > 0; --i) {
    route.push_back(ReverseLink(tail[i - 1]));
  }
  return route;
}

bool Topology::RouteAvoidsHost(NodeId src, NodeId dst) const {
  if (src == dst) {
    return true;
  }
  for (LinkId lid : Route(src, dst)) {
    const TopologyLink& l = link(lid);
    if (node(l.src).kind == NodeKind::kHost || node(l.dst).kind == NodeKind::kHost) {
      return false;
    }
  }
  return true;
}

std::string Topology::DescribeRoutes() const {
  std::ostringstream os;
  auto describe = [&](NodeId src, NodeId dst) {
    os << node(src).name << " -> " << node(dst).name << ": ";
    const RouteLinks route = Route(src, dst);
    for (std::size_t i = 0; i < route.size(); ++i) {
      const TopologyLink& l = link(route[i]);
      if (i == 0) {
        os << node(l.src).name;
      }
      os << " --[" << l.spec.name << "]--> " << node(l.dst).name;
    }
    os << "\n";
  };
  for (int g = 0; g < num_gpus(); ++g) {
    describe(gpu_node(g), host_node());
  }
  for (int a = 0; a < num_gpus(); ++a) {
    for (int b = 0; b < num_gpus(); ++b) {
      if (a != b) {
        describe(gpu_node(a), gpu_node(b));
      }
    }
  }
  return os.str();
}

Topology MakeCommodityServerTopology(const ServerConfig& config) {
  HCHECK_GT(config.num_gpus, 0);
  HCHECK_GT(config.gpus_per_switch, 0);
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const int num_switches =
      (config.num_gpus + config.gpus_per_switch - 1) / config.gpus_per_switch;
  std::vector<NodeId> switches;
  switches.reserve(static_cast<std::size_t>(num_switches));
  for (int s = 0; s < num_switches; ++s) {
    const NodeId sw = topo.AddNode(NodeKind::kSwitch, "pcie-sw" + std::to_string(s));
    topo.AddDuplexLink(sw, host, config.host_link);
    switches.push_back(sw);
  }
  for (int g = 0; g < config.num_gpus; ++g) {
    const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu" + std::to_string(g));
    const NodeId sw = switches[static_cast<std::size_t>(g / config.gpus_per_switch)];
    topo.AddDuplexLink(gpu, sw, config.gpu_link);
  }
  topo.Finalize();
  return topo;
}

Machine MakeCommodityServer(const ServerConfig& config) {
  Machine machine;
  machine.topology = MakeCommodityServerTopology(config);
  machine.gpus.assign(static_cast<std::size_t>(config.num_gpus), config.gpu);
  machine.p2p_enabled = config.p2p_enabled;
  return machine;
}

Topology MakeClusterTopology(const ClusterConfig& config) {
  HCHECK_GT(config.num_servers, 0);
  HCHECK_GE(config.nodes_per_rack, 0);
  const ServerConfig& server = config.server;
  HCHECK_GT(server.num_gpus, 0);
  HCHECK_GT(server.gpus_per_switch, 0);
  // Widen before multiplying: both factors may be as large as 1 << 20 (the cluster-spec
  // limit), so the product overflows int. The bound itself is a typed error at the parse /
  // validation layer; reaching here past it is an internal invariant violation.
  HCHECK_LE(std::int64_t{config.num_servers} * server.num_gpus, kMaxClusterGpus)
      << "cluster topology of " << config.num_servers << " nodes x " << server.num_gpus
      << " GPUs exceeds kMaxClusterGpus";

  const int nodes_per_rack =
      config.nodes_per_rack == 0 ? config.num_servers : config.nodes_per_rack;
  const int num_racks = (config.num_servers + nodes_per_rack - 1) / nodes_per_rack;

  Topology topo;
  std::vector<NodeId> tors;
  tors.reserve(static_cast<std::size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) {
    tors.push_back(topo.AddNode(NodeKind::kTor, "rack" + std::to_string(r)));
  }
  // A single rack needs no aggregation tier; with several, the ToRs meet at a spine over the
  // (faster but shared) rack links.
  if (num_racks > 1) {
    const NodeId spine = topo.AddNode(NodeKind::kSwitch, "spine");
    for (NodeId tor : tors) {
      topo.AddDuplexLink(tor, spine, config.rack, LinkTier::kRack);
    }
  }
  for (int s = 0; s < config.num_servers; ++s) {
    std::string prefix = "n";  // appended: `"n" + std::string` trips GCC 12's -Wrestrict
    prefix.append(std::to_string(s)).append(".");
    const NodeId host = topo.AddNode(NodeKind::kHost, prefix + "host");
    const NodeId nic = topo.AddNode(NodeKind::kNic, prefix + "nic");
    topo.AddDuplexLink(host, nic, config.nic, LinkTier::kNic);
    topo.AddDuplexLink(nic, tors[static_cast<std::size_t>(s / nodes_per_rack)], config.nic,
                       LinkTier::kNic);
    const int num_switches =
        (server.num_gpus + server.gpus_per_switch - 1) / server.gpus_per_switch;
    std::vector<NodeId> switches;
    for (int sw = 0; sw < num_switches; ++sw) {
      const NodeId node = topo.AddNode(NodeKind::kSwitch, prefix + "pcie-sw" + std::to_string(sw));
      topo.AddDuplexLink(node, host, server.host_link);
      switches.push_back(node);
    }
    for (int g = 0; g < server.num_gpus; ++g) {
      const NodeId gpu =
          topo.AddNode(NodeKind::kGpu, prefix + "gpu" + std::to_string(g));
      topo.AddDuplexLink(gpu, switches[static_cast<std::size_t>(g / server.gpus_per_switch)],
                         server.gpu_link);
    }
  }
  topo.Finalize();
  return topo;
}

Machine MakeCluster(const ClusterConfig& config) {
  Machine machine;
  machine.topology = MakeClusterTopology(config);
  machine.gpus.assign(
      static_cast<std::size_t>(std::int64_t{config.num_servers} * config.server.num_gpus),
      config.server.gpu);
  machine.p2p_enabled = config.server.p2p_enabled;
  return machine;
}

}  // namespace harmony
