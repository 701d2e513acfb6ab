// Model: the ordered block list (embedding, L transformer layers, head) plus
// the chunking scheme that every distributed strategy shares.
//
// A *chunk* is the unit that pipelines schedule: a contiguous run of blocks
// whose weights live in one flat buffer. For P pipeline stages the L+2 blocks
// are split into P chunks with the embedding glued to the first and the head
// glued to the last — the same stage partitioning Megatron-style pipelines
// use, and the circulation unit of WeiPipe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/block.hpp"
#include "nn/config.hpp"
#include "nn/loss.hpp"

namespace weipipe {

// Block indices [begin, end) composing one chunk.
struct ChunkSpec {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t param_count = 0;

  // The block ids begin..end-1, in buffer order.
  std::vector<std::int64_t> blocks() const {
    std::vector<std::int64_t> out;
    for (std::int64_t b = begin; b < end; ++b) {
      out.push_back(b);
    }
    return out;
  }
};

class Model {
 public:
  explicit Model(const ModelConfig& cfg);

  const ModelConfig& config() const { return cfg_; }
  std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(blocks_.size());
  }
  const Block& block(std::int64_t i) const { return *blocks_[static_cast<std::size_t>(i)]; }
  std::int64_t block_param_count(std::int64_t i) const {
    return blocks_[static_cast<std::size_t>(i)]->param_count();
  }
  std::int64_t total_param_count() const;

  // Contiguous partition of blocks into `num_chunks` chunks, balanced by
  // transformer-layer count (embedding/head ride along with the edges).
  std::vector<ChunkSpec> make_chunks(std::int64_t num_chunks) const;

  // Partition of the transformer layers only (blocks [1, L+1)): the chunking
  // used when the vocabulary matrices are replicated per worker instead of
  // circulated (production WeiPipe; see WeiPipeOptions::replicate_vocab).
  std::vector<ChunkSpec> make_layer_chunks(std::int64_t num_chunks) const;

  // Deterministic initialization: block i draws from rng.fork(i), so any
  // sharding of the blocks starts from identical weights.
  std::vector<std::vector<float>> init_block_params(std::uint64_t seed) const;

  // The initial weights of `blocks`, concatenated in order into one buffer.
  std::vector<float> init_params(std::span<const std::int64_t> blocks,
                                 std::uint64_t seed) const;

  // Offset of block `b` inside its chunk's flat buffer.
  std::int64_t block_offset_in_chunk(const ChunkSpec& chunk,
                                     std::int64_t b) const;

  // -- Single-process reference path -----------------------------------------
  // Forward through all blocks; per-block contexts appended to `ctxs`.
  // Returns logits.
  Tensor forward_all(const std::vector<std::vector<float>>& block_params,
                     const Microbatch& mb, std::vector<BlockCtx>& ctxs) const;
  // Backward through all blocks; dgrads[i] accumulates block i's gradient.
  void backward_all(const std::vector<std::vector<float>>& block_params,
                    const Microbatch& mb, const std::vector<BlockCtx>& ctxs,
                    const Tensor& dlogits,
                    std::vector<std::vector<float>>& dgrads) const;

 private:
  ModelConfig cfg_;
  std::vector<std::unique_ptr<Block>> blocks_;
};

}  // namespace weipipe
