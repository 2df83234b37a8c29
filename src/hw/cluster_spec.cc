#include "src/hw/cluster_spec.h"

#include <cstdint>
#include <cstdio>

#include "src/util/spec.h"

namespace harmony {
namespace {

// Shortest stable rendering for link speeds ("25", "12.5", "0.4").
std::string FormatG(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

StatusOr<ClusterSpec> ParseClusterSpec(const std::string& spec) {
  const SpecReader reader("cluster spec", "--cluster");
  ClusterSpec out;
  const auto count = [&reader](const SpecOption& o, int min, int* value) {
    return reader.ReadInt(o.key, o.value, min, kMaxSpecCount,
                          "an integer >= " + std::to_string(min), value);
  };
  const auto gbps = [&reader](const SpecOption& o, double* value) {
    return reader.ReadDouble(o.key, o.value, kSpecPositive, kSpecMaxDouble,
                             "a positive number of Gbit/s", value);
  };
  HARMONY_RETURN_IF_ERROR(reader.ForEachOption(
      SpecField{spec, 0}, "cluster",
      {"nodes", "gpus_per_node", "nodes_per_rack", "nic_gbps", "rack_gbps"},
      [&](const SpecOption& o) {
        switch (o.slot) {
          case 0:
            return count(o, 1, &out.nodes);
          case 1:
            return count(o, 1, &out.gpus_per_node);
          case 2:
            return count(o, 0, &out.nodes_per_rack);
          case 3:
            return gbps(o, &out.nic_gbps);
          default:
            return gbps(o, &out.rack_gbps);
        }
      }));
  // Each factor is individually bounded by kMaxSpecCount, but the *product* is the machine
  // size; widen before multiplying (int would overflow at the limits) and bound the total.
  const std::int64_t total_gpus = std::int64_t{out.nodes} * out.gpus_per_node;
  if (total_gpus > kMaxClusterGpus) {
    return reader.Error(0, "nodes * gpus_per_node = " + std::to_string(total_gpus) +
                               " GPUs exceeds the supported maximum of " +
                               std::to_string(kMaxClusterGpus));
  }
  return out;
}

std::string RenderClusterSpec(const ClusterSpec& spec) {
  std::string out = "nodes=" + std::to_string(spec.nodes);
  out += ",gpus_per_node=" + std::to_string(spec.gpus_per_node);
  out += ",nodes_per_rack=" + std::to_string(spec.nodes_per_rack);
  out += ",nic_gbps=" + FormatG(spec.nic_gbps);
  out += ",rack_gbps=" + FormatG(spec.rack_gbps);
  return out;
}

LinkSpec NicLinkSpec(double gbps) {
  return LinkSpec{FormatG(gbps) + "GbE", gbps * 1e9 / 8.0, 20e-6};
}

LinkSpec RackLinkSpec(double gbps) {
  return LinkSpec{FormatG(gbps) + "GbE", gbps * 1e9 / 8.0, 25e-6};
}

ClusterConfig ToClusterConfig(const ClusterSpec& spec, ServerConfig server) {
  server.num_gpus = spec.gpus_per_node;
  ClusterConfig config;
  config.num_servers = spec.nodes;
  config.nodes_per_rack = spec.nodes_per_rack;
  config.server = server;
  config.nic = NicLinkSpec(spec.nic_gbps);
  config.rack = RackLinkSpec(spec.rack_gbps);
  return config;
}

}  // namespace harmony
