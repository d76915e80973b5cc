// Netlist: a directed block graph with sources, fan-out and summing
// fan-in — the general form of the RF system simulator (Chain covers
// the linear case). Fan-in nodes sum their inputs, matching RF combiner
// semantics; fan-out broadcasts the same stream to every consumer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rf/block.hpp"
#include "rf/chain.hpp"

namespace ofdm::rf {

class Netlist {
 public:
  /// Opaque node handle.
  struct NodeId {
    std::size_t index = SIZE_MAX;
  };

  /// Add a source node (no inputs allowed).
  template <typename T, typename... Args>
  NodeId add_source(Args&&... args) {
    return add_source_ptr(
        std::make_unique<T>(std::forward<Args>(args)...));
  }

  /// Add a processing node; returns its handle. Use node<T>() to read a
  /// sink back after a run.
  template <typename T, typename... Args>
  NodeId add_block(Args&&... args) {
    return add_block_ptr(std::make_unique<T>(std::forward<Args>(args)...));
  }

  NodeId add_source_ptr(std::unique_ptr<Source> src);
  NodeId add_block_ptr(std::unique_ptr<Block> block);

  /// Typed access to a node's block (e.g. reading a PowerMeter).
  template <typename T>
  T& node(NodeId id) {
    return dynamic_cast<T&>(*nodes_.at(id.index).block);
  }

  /// Wire an edge from -> to. `to` must be a block node.
  void connect(NodeId from, NodeId to);

  /// Drive every source for `total` samples in chunks, propagating
  /// through the graph in topological order. Throws on cycles, dangling
  /// block inputs, or mismatched fan-in lengths (e.g. summing across a
  /// rate changer). RunStats::samples_out accumulates what leaves leaf
  /// nodes (no consumers) per chunk.
  RunStats run(std::size_t total, std::size_t chunk = 4096);

  /// Reset every node's streaming state.
  void reset();

  /// Register and attach one probe per node (sources included), in node
  /// insertion order. The set must outlive the netlist or
  /// detach_probes() must run first.
  void attach_probes(obs::ProbeSet& probes);

  /// Detach every node's probe.
  void detach_probes();

  /// Register and attach one numerical-health guard per node (sources
  /// included), in node insertion order; lifetime rules as for probes.
  void attach_guards(GuardSet& guards);

  /// Detach every node's guard.
  void detach_guards();

  /// Checkpoint: serialize every node's streaming state into a named,
  /// length-prefixed frame (plus a magic/version header), so a long run
  /// can be resumed bit-identically by restore().
  void snapshot(StateWriter& w) const;
  std::vector<std::uint8_t> snapshot() const;

  /// Restore a snapshot into this (identically built) graph; throws
  /// ofdm::StateError on a header/shape/name mismatch or truncation.
  void restore(StateReader& r);
  void restore(std::span<const std::uint8_t> bytes);

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::unique_ptr<Source> source;  // exactly one of source/block set
    std::unique_ptr<Block> block;
    std::vector<std::size_t> inputs;
    bool is_source() const { return source != nullptr; }
  };

  std::vector<std::size_t> topo_order() const;

  std::vector<Node> nodes_;
};

}  // namespace ofdm::rf
