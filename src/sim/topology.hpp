// Cluster topologies matching the paper's three hardware environments
// (§5.4): NVLink inside nodes, PCIe inside nodes, 10 Gb Ethernet between
// nodes. Bandwidths are *effective* point-to-point figures (peak x a
// practical efficiency), latencies include software stack overhead.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace weipipe::sim {

struct Link {
  double bandwidth = 0.0;  // bytes/second
  double latency = 0.0;    // seconds
};

// Effective per-direction P2P figures.
inline constexpr double kNvlinkA800Bw = 170e9;  // 400 GB/s aggregate NVLink
inline constexpr double kNvlinkA800Lat = 5e-6;
inline constexpr double kPcie4Bw = 22e9;  // PCIe 4.0 x16 ~ 32 GB/s peak
inline constexpr double kPcie4Lat = 10e-6;
inline constexpr double kEth10GBw = 1.05e9;  // 10 Gb Ethernet ~ 1.25 GB/s peak
inline constexpr double kEth10GLat = 5e-5;
inline constexpr double kEthCrossClusterBw = 1.6e9;  // bonded-10GbE-class uplink

class Topology {
 public:
  // Uniform fabric (every pair identical).
  static Topology uniform(int ranks, Link link, std::string name);

  // Nodes of `gpus_per_node` ranks; intra-node pairs use `intra`, pairs in
  // different nodes use `inter`. Ranks are laid out node-contiguously, so a
  // ring has exactly one inter-node hop per node boundary.
  static Topology hierarchical(int ranks, int gpus_per_node, Link intra,
                               Link inter, std::string name);

  // Paper presets.
  // Table 2 environment: 16 GPUs, NVLink-connected.
  static Topology nvlink(int ranks, int gpus_per_node = 8);
  // Table 3 environment: PCIe within 4-GPU nodes, 10 Gb Ethernet between.
  static Topology pcie_ethernet(int ranks, int gpus_per_node = 4);
  // Figures 6/8 environment: NVLink in 4-GPU servers, Ethernet between.
  static Topology nvlink_ethernet(int ranks, int gpus_per_node);

  int ranks() const { return ranks_; }
  const std::string& name() const { return name_; }

  Link link(int src, int dst) const {
    WEIPIPE_CHECK(src >= 0 && src < ranks_ && dst >= 0 && dst < ranks_);
    if (gpus_per_node_ <= 0 || src / gpus_per_node_ == dst / gpus_per_node_) {
      return intra_;
    }
    return inter_;
  }

  // Slowest link on the ring 0->1->...->P-1->0 (collective bottleneck).
  Link bottleneck_ring_link() const;

  // True if some ring hop crosses nodes.
  bool has_internode_hops() const {
    return gpus_per_node_ > 0 && ranks_ > gpus_per_node_;
  }

  // Number of nodes spanned (1 for uniform/single-node fabrics).
  int nodes() const {
    if (gpus_per_node_ <= 0) {
      return 1;
    }
    return (ranks_ + gpus_per_node_ - 1) / gpus_per_node_;
  }

 private:
  int ranks_ = 0;
  int gpus_per_node_ = 0;  // 0 => uniform
  Link intra_;
  Link inter_;
  std::string name_;
};

}  // namespace weipipe::sim
