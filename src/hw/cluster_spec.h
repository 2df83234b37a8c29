// Textual cluster-shape grammar for the `--cluster=` flag and the cluster fuzz tests.
//
// A ClusterSpec is the plain-data description of a simulated fleet: how many nodes, GPUs
// per node, nodes per rack, and the NIC / rack link speeds in Gbit/s. The grammar is
// comma-separated key=value pairs, e.g.
//
//   nodes=8,gpus_per_node=4,nodes_per_rack=4,nic_gbps=25,rack_gbps=100
//
// Parse and Render round-trip: Render(Parse(Render(s))) == Render(s) for every valid spec,
// and malformed specs return a typed error carrying the byte offset of the offending field
// (util/spec.h, shared by every spec grammar).
#ifndef HARMONY_SRC_HW_CLUSTER_SPEC_H_
#define HARMONY_SRC_HW_CLUSTER_SPEC_H_

#include <string>

#include "src/hw/topology.h"
#include "src/util/status.h"

namespace harmony {

struct ClusterSpec {
  int nodes = 1;
  int gpus_per_node = 4;
  int nodes_per_rack = 0;   // 0 = one rack holds every node
  double nic_gbps = 25.0;   // host <-> NIC <-> ToR speed, Gbit/s
  double rack_gbps = 100.0; // ToR <-> spine speed, Gbit/s
};

// Parses a `--cluster=` spec. Keys may appear in any order; each at most once; unknown keys,
// duplicates and malformed values reject with the byte offset of the offending field.
StatusOr<ClusterSpec> ParseClusterSpec(const std::string& spec);

// Canonical rendering (fixed key order, %g numbers). Rendered specs re-parse to an
// identical spec — the round-trip contract the fuzz tests pin down.
std::string RenderClusterSpec(const ClusterSpec& spec);

// Link presets from a speed in Gbit/s (25 -> 3.125 GB/s). NIC links model commodity
// Ethernet NICs (20us), rack links the ToR<->spine aggregation tier (25us).
LinkSpec NicLinkSpec(double gbps);
LinkSpec RackLinkSpec(double gbps);

// The hardware config a spec describes, with per-node shape taken from `server`
// (server.num_gpus is overridden by spec.gpus_per_node).
ClusterConfig ToClusterConfig(const ClusterSpec& spec, ServerConfig server);

}  // namespace harmony

#endif  // HARMONY_SRC_HW_CLUSTER_SPEC_H_
