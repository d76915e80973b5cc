#include "rf/chain.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace ofdm::rf {

void Chain::process(std::span<const cplx> in, cvec& out) {
  if (blocks_.empty()) {
    // Pass-through without the historical extra copy: the input lands
    // in the output buffer directly.
    out.assign(in.begin(), in.end());
    return;
  }
  // The first block consumes the caller's span directly; after that the
  // stream ping-pongs between `out` and `scratch_`. Parity is chosen so
  // the last block writes into `out`.
  cvec* bufs[2] = {&out, &scratch_};
  std::size_t cur = blocks_.size() % 2 == 1 ? 0 : 1;
  blocks_.front()->process_observed(in, *bufs[cur]);
  for (std::size_t i = 1; i < blocks_.size(); ++i) {
    blocks_[i]->process_observed(*bufs[cur], *bufs[cur ^ 1]);
    cur ^= 1;
  }
}

void Chain::reset() {
  for (auto& block : blocks_) block->reset();
}

Block& Chain::add_ptr(std::unique_ptr<Block> block) {
  OFDM_REQUIRE(block != nullptr, "Chain: null block");
  blocks_.push_back(std::move(block));
  return *blocks_.back();
}

void Chain::attach_probes(obs::ProbeSet& probes) {
  for (auto& block : blocks_) {
    block->set_probe(&probes.add(block->name()));
  }
}

void Chain::detach_probes() {
  for (auto& block : blocks_) block->set_probe(nullptr);
}

void Chain::attach_guards(GuardSet& guards) {
  for (auto& block : blocks_) {
    block->set_guard(&guards.add(block->name()));
  }
}

void Chain::detach_guards() {
  for (auto& block : blocks_) block->set_guard(nullptr);
}

void Chain::save_state(StateWriter& w) const {
  w.u64(blocks_.size());
  for (const auto& block : blocks_) {
    w.begin_node(block->name());
    block->save_state(w);
    w.end_node();
  }
}

void Chain::load_state(StateReader& r) {
  const std::uint64_t count = r.u64();
  if (count != blocks_.size()) {
    throw StateError("Chain: snapshot has " + std::to_string(count) +
                     " blocks, chain has " +
                     std::to_string(blocks_.size()));
  }
  for (auto& block : blocks_) {
    r.enter_node(block->name());
    block->load_state(r);
    r.exit_node();
  }
}

RunStats run(Source& source, Chain& chain, std::size_t total,
             std::size_t chunk) {
  using clock = std::chrono::steady_clock;
  OFDM_REQUIRE(chunk > 0 || total == 0,
               "rf::run: chunk size must be positive");
  RunStats stats;
  const auto t0 = clock::now();
  cvec in;
  cvec out;
  std::size_t produced = 0;
  while (produced < total) {
    const std::size_t n = std::min(chunk, total - produced);
    const auto s0 = clock::now();
    source.pull_observed(n, in);
    const auto s1 = clock::now();
    stats.source_seconds += std::chrono::duration<double>(s1 - s0).count();
    chain.process(in, out);
    stats.block_seconds +=
        std::chrono::duration<double>(clock::now() - s1).count();
    stats.samples_in += in.size();
    stats.samples_out += out.size();
    produced += n;
  }
  stats.elapsed_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();
  return stats;
}

}  // namespace ofdm::rf
