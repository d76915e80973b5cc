#include "rf/netlist.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace ofdm::rf {

Netlist::NodeId Netlist::add_source_ptr(std::unique_ptr<Source> src) {
  OFDM_REQUIRE(src != nullptr, "Netlist: null source");
  Node node;
  node.source = std::move(src);
  nodes_.push_back(std::move(node));
  return NodeId{nodes_.size() - 1};
}

Netlist::NodeId Netlist::add_block_ptr(std::unique_ptr<Block> block) {
  OFDM_REQUIRE(block != nullptr, "Netlist: null block");
  Node node;
  node.block = std::move(block);
  nodes_.push_back(std::move(node));
  return NodeId{nodes_.size() - 1};
}

void Netlist::connect(NodeId from, NodeId to) {
  OFDM_REQUIRE(from.index < nodes_.size() && to.index < nodes_.size(),
               "Netlist::connect: unknown node");
  OFDM_REQUIRE(!nodes_[to.index].is_source(),
               "Netlist::connect: cannot drive a source node");
  OFDM_REQUIRE(from.index != to.index,
               "Netlist::connect: self-loop");
  nodes_[to.index].inputs.push_back(from.index);
}

std::vector<std::size_t> Netlist::topo_order() const {
  // Kahn's algorithm over the explicit edge lists.
  std::vector<std::size_t> in_degree(nodes_.size(), 0);
  std::vector<std::vector<std::size_t>> out_edges(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    in_degree[i] = nodes_[i].inputs.size();
    for (std::size_t src : nodes_[i].inputs) {
      out_edges[src].push_back(i);
    }
    if (!nodes_[i].is_source()) {
      OFDM_REQUIRE(!nodes_[i].inputs.empty(),
                   "Netlist: block node has no inputs");
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree[i] == 0) ready.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const std::size_t n = ready.back();
    ready.pop_back();
    order.push_back(n);
    for (std::size_t next : out_edges[n]) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  OFDM_REQUIRE(order.size() == nodes_.size(),
               "Netlist: the block graph contains a cycle");
  return order;
}

RunStats Netlist::run(std::size_t total, std::size_t chunk) {
  using clock = std::chrono::steady_clock;
  OFDM_REQUIRE(chunk > 0 || total == 0,
               "Netlist::run: chunk size must be positive");
  const std::vector<std::size_t> order = topo_order();

  // Consumer counts: nodes nobody reads are the graph's leaves, whose
  // output is what samples_out accounts for.
  std::vector<std::size_t> consumers(nodes_.size(), 0);
  for (const Node& node : nodes_) {
    for (std::size_t src : node.inputs) ++consumers[src];
  }

  RunStats stats;
  const auto t0 = clock::now();
  // Per-node output buffers plus one fan-in summing scratch, all reused
  // across chunks so the steady-state loop never allocates.
  std::vector<cvec> values(nodes_.size());
  cvec fanin;
  std::size_t produced = 0;
  while (produced < total) {
    const std::size_t n = std::min(chunk, total - produced);
    for (std::size_t id : order) {
      Node& node = nodes_[id];
      if (node.is_source()) {
        const auto s0 = clock::now();
        node.source->pull_observed(n, values[id]);
        stats.source_seconds +=
            std::chrono::duration<double>(clock::now() - s0).count();
        stats.samples_in += values[id].size();
      } else if (node.inputs.size() == 1) {
        // Single input: feed the upstream buffer straight through
        // (distinct from values[id]; self-loops are rejected).
        const auto b0 = clock::now();
        node.block->process_observed(values[node.inputs.front()],
                                     values[id]);
        stats.block_seconds +=
            std::chrono::duration<double>(clock::now() - b0).count();
      } else {
        // Summing fan-in.
        const auto b0 = clock::now();
        const cvec& first = values[node.inputs.front()];
        fanin.assign(first.begin(), first.end());
        for (std::size_t j = 1; j < node.inputs.size(); ++j) {
          const cvec& other = values[node.inputs[j]];
          OFDM_REQUIRE_DIM(other.size() == fanin.size(),
                           "Netlist: fan-in length mismatch (rate change "
                           "on one branch?)");
          for (std::size_t k = 0; k < fanin.size(); ++k) {
            fanin[k] += other[k];
          }
        }
        node.block->process_observed(fanin, values[id]);
        stats.block_seconds +=
            std::chrono::duration<double>(clock::now() - b0).count();
      }
      // Count samples leaving leaf nodes (no consumers) every chunk.
      if (consumers[id] == 0) stats.samples_out += values[id].size();
    }
    produced += n;
  }
  stats.elapsed_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();
  return stats;
}

void Netlist::reset() {
  for (Node& node : nodes_) {
    if (node.source) node.source->reset();
    if (node.block) node.block->reset();
  }
}

void Netlist::attach_probes(obs::ProbeSet& probes) {
  for (Node& node : nodes_) {
    if (node.source) {
      node.source->set_probe(&probes.add(node.source->name()));
    } else {
      node.block->set_probe(&probes.add(node.block->name()));
    }
  }
}

void Netlist::detach_probes() {
  for (Node& node : nodes_) {
    if (node.source) node.source->set_probe(nullptr);
    if (node.block) node.block->set_probe(nullptr);
  }
}

void Netlist::attach_guards(GuardSet& guards) {
  for (Node& node : nodes_) {
    if (node.source) {
      node.source->set_guard(&guards.add(node.source->name()));
    } else {
      node.block->set_guard(&guards.add(node.block->name()));
    }
  }
}

void Netlist::detach_guards() {
  for (Node& node : nodes_) {
    if (node.source) node.source->set_guard(nullptr);
    if (node.block) node.block->set_guard(nullptr);
  }
}

namespace {
// "OFDMSNAP" as a little-endian u64, plus the format version.
constexpr std::uint64_t kSnapshotMagic = 0x50414E534D44464FULL;
constexpr std::uint64_t kSnapshotVersion = 1;
}  // namespace

void Netlist::snapshot(StateWriter& w) const {
  w.u64(kSnapshotMagic);
  w.u64(kSnapshotVersion);
  w.u64(nodes_.size());
  for (const Node& node : nodes_) {
    const std::string name =
        node.is_source() ? node.source->name() : node.block->name();
    w.begin_node(name);
    if (node.is_source()) {
      node.source->save_state(w);
    } else {
      node.block->save_state(w);
    }
    w.end_node();
  }
}

std::vector<std::uint8_t> Netlist::snapshot() const {
  StateWriter w;
  snapshot(w);
  return w.bytes();
}

void Netlist::restore(StateReader& r) {
  if (r.u64() != kSnapshotMagic) {
    throw StateError("Netlist::restore: not a netlist snapshot "
                     "(bad magic)");
  }
  const std::uint64_t version = r.u64();
  if (version != kSnapshotVersion) {
    throw StateError("Netlist::restore: unsupported snapshot version " +
                     std::to_string(version));
  }
  const std::uint64_t count = r.u64();
  if (count != nodes_.size()) {
    throw StateError("Netlist::restore: snapshot has " +
                     std::to_string(count) + " nodes, graph has " +
                     std::to_string(nodes_.size()));
  }
  for (Node& node : nodes_) {
    const std::string name =
        node.is_source() ? node.source->name() : node.block->name();
    r.enter_node(name);
    if (node.is_source()) {
      node.source->load_state(r);
    } else {
      node.block->load_state(r);
    }
    r.exit_node();
  }
}

void Netlist::restore(std::span<const std::uint8_t> bytes) {
  StateReader r(bytes);
  restore(r);
  if (!r.done()) {
    throw StateError("Netlist::restore: trailing bytes after the last "
                     "node -- snapshot from a different graph?");
  }
}

}  // namespace ofdm::rf
