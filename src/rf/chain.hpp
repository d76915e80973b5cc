// Composition of RF blocks into a processing chain and a simple
// simulation driver — the "RF system simulation" loop of the paper.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rf/block.hpp"
#include "rf/guard.hpp"

namespace ofdm::rf {

/// An ordered chain of blocks; itself a Block. Intermediate results
/// ping-pong between `out` and one reusable scratch buffer, so a chain
/// of allocation-free blocks is itself allocation-free in steady state.
/// `in` must not overlap `out`.
class Chain : public Block {
 public:
  Chain() = default;

  /// Append a block, constructed in place. Returns a reference to it so
  /// callers can keep handles for inspection (e.g. sinks).
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto block = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *block;
    blocks_.push_back(std::move(block));
    return ref;
  }

  /// Append an already-constructed block (e.g. from a factory).
  Block& add_ptr(std::unique_ptr<Block> block);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  std::string name() const override { return "chain"; }

  /// Checkpoint/restore: saves every contained block's streaming state
  /// as a named frame, so restoring into a differently composed chain
  /// fails loudly (ofdm::StateError) instead of misreading bytes.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  std::size_t size() const { return blocks_.size(); }

  /// The i-th contained block, for inspection or for driving one block
  /// of the chain on its own.
  Block& at(std::size_t i) { return *blocks_.at(i); }
  const Block& at(std::size_t i) const { return *blocks_.at(i); }

  /// Register one probe per contained block (named after block->name(),
  /// duplicates suffixed #k) and attach them. The set must outlive the
  /// chain or detach_probes() must run first.
  void attach_probes(obs::ProbeSet& probes);

  /// Detach every contained block's probe.
  void detach_probes();

  /// Register one numerical-health guard per contained block and attach
  /// them; lifetime rules are as for attach_probes().
  void attach_guards(GuardSet& guards);

  /// Detach every contained block's guard.
  void detach_guards();

 private:
  std::vector<std::unique_ptr<Block>> blocks_;
  cvec scratch_;  // ping-pong partner of the caller's output buffer
};

/// Simulation statistics returned by run().
struct RunStats {
  std::size_t samples_in = 0;
  /// Samples leaving leaf blocks (no-consumer nodes), summed per chunk
  /// over the whole run.
  std::size_t samples_out = 0;
  double elapsed_seconds = 0.0;     ///< wall-clock simulation time
  double source_seconds = 0.0;      ///< time spent inside the source
  double block_seconds = 0.0;       ///< time inside block processing
};

/// Pull `total` samples from `source`, push them through `chain` in
/// chunks of `chunk` samples, reusing one input and one output buffer
/// for the whole run. The split of wall-clock time between the source
/// and the rest of the chain is what experiment E2 measures ("the
/// digital block had only negligible influence on the total simulation
/// time").
RunStats run(Source& source, Chain& chain, std::size_t total,
             std::size_t chunk = 4096);

}  // namespace ofdm::rf
