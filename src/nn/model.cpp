#include "nn/model.hpp"

#include "common/check.hpp"

namespace weipipe {

Model::Model(const ModelConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  blocks_.push_back(std::make_unique<EmbeddingBlock>(cfg_));
  for (std::int64_t i = 0; i < cfg_.n_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerLayerBlock>(cfg_));
  }
  blocks_.push_back(std::make_unique<HeadBlock>(cfg_));
}

std::int64_t Model::total_param_count() const {
  std::int64_t n = 0;
  for (const auto& b : blocks_) {
    n += b->param_count();
  }
  return n;
}

std::vector<ChunkSpec> Model::make_chunks(std::int64_t num_chunks) const {
  WEIPIPE_CHECK_MSG(num_chunks >= 1 && num_chunks <= cfg_.n_layers,
                    "num_chunks " << num_chunks << " must be in [1, L="
                                  << cfg_.n_layers << "]");
  // Distribute the L transformer layers as evenly as possible; chunk 0 also
  // receives the embedding block and the last chunk the head block.
  std::vector<ChunkSpec> chunks(static_cast<std::size_t>(num_chunks));
  const std::int64_t base = cfg_.n_layers / num_chunks;
  const std::int64_t extra = cfg_.n_layers % num_chunks;
  std::int64_t block_cursor = 1;  // transformer layers start at block 1
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const std::int64_t layers_here = base + (c < extra ? 1 : 0);
    ChunkSpec& spec = chunks[static_cast<std::size_t>(c)];
    spec.begin = (c == 0) ? 0 : block_cursor;
    block_cursor += layers_here;
    spec.end = (c == num_chunks - 1) ? num_blocks() : block_cursor;
    spec.param_count = 0;
    for (std::int64_t b = spec.begin; b < spec.end; ++b) {
      spec.param_count += block_param_count(b);
    }
  }
  WEIPIPE_CHECK(block_cursor == num_blocks() - 1);
  return chunks;
}

std::vector<ChunkSpec> Model::make_layer_chunks(
    std::int64_t num_chunks) const {
  WEIPIPE_CHECK_MSG(num_chunks >= 1 && num_chunks <= cfg_.n_layers,
                    "num_chunks " << num_chunks << " must be in [1, L="
                                  << cfg_.n_layers << "]");
  std::vector<ChunkSpec> chunks(static_cast<std::size_t>(num_chunks));
  const std::int64_t base = cfg_.n_layers / num_chunks;
  const std::int64_t extra = cfg_.n_layers % num_chunks;
  std::int64_t block_cursor = 1;  // skip the embedding block
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const std::int64_t layers_here = base + (c < extra ? 1 : 0);
    ChunkSpec& spec = chunks[static_cast<std::size_t>(c)];
    spec.begin = block_cursor;
    block_cursor += layers_here;
    spec.end = block_cursor;
    spec.param_count = 0;
    for (std::int64_t b = spec.begin; b < spec.end; ++b) {
      spec.param_count += block_param_count(b);
    }
  }
  WEIPIPE_CHECK(block_cursor == num_blocks() - 1);  // head excluded
  return chunks;
}

std::vector<std::vector<float>> Model::init_block_params(
    std::uint64_t seed) const {
  std::vector<std::vector<float>> params;
  params.reserve(blocks_.size());
  for (std::int64_t b = 0; b < num_blocks(); ++b) {
    params.push_back(init_params(std::span<const std::int64_t>(&b, 1), seed));
  }
  return params;
}

std::vector<float> Model::init_params(std::span<const std::int64_t> blocks,
                                      std::uint64_t seed) const {
  std::int64_t total = 0;
  for (const std::int64_t b : blocks) {
    total += block_param_count(b);
  }
  const Rng root(seed);
  std::vector<float> buf(static_cast<std::size_t>(total));
  std::int64_t off = 0;
  for (const std::int64_t b : blocks) {
    const std::int64_t n = block_param_count(b);
    Rng rng = root.fork(static_cast<std::uint64_t>(b));
    blocks_[static_cast<std::size_t>(b)]->init_params(
        std::span<float>(buf.data() + off, static_cast<std::size_t>(n)), rng);
    off += n;
  }
  return buf;
}

std::int64_t Model::block_offset_in_chunk(const ChunkSpec& chunk,
                                          std::int64_t b) const {
  WEIPIPE_CHECK(b >= chunk.begin && b < chunk.end);
  std::int64_t off = 0;
  for (std::int64_t i = chunk.begin; i < b; ++i) {
    off += block_param_count(i);
  }
  return off;
}

Tensor Model::forward_all(const std::vector<std::vector<float>>& block_params,
                          const Microbatch& mb,
                          std::vector<BlockCtx>& ctxs) const {
  WEIPIPE_CHECK(block_params.size() == blocks_.size());
  ctxs.assign(blocks_.size(), BlockCtx());
  Tensor x;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    x = blocks_[i]->forward(
        std::span<const float>(block_params[i].data(),
                               block_params[i].size()),
        mb, x, ctxs[i], /*save_internals=*/!cfg_.recompute);
  }
  return x;
}

void Model::backward_all(const std::vector<std::vector<float>>& block_params,
                         const Microbatch& mb,
                         const std::vector<BlockCtx>& ctxs,
                         const Tensor& dlogits,
                         std::vector<std::vector<float>>& dgrads) const {
  WEIPIPE_CHECK(block_params.size() == blocks_.size());
  WEIPIPE_CHECK(ctxs.size() == blocks_.size());
  WEIPIPE_CHECK(dgrads.size() == blocks_.size());
  Tensor d = dlogits;
  for (std::int64_t i = num_blocks() - 1; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    WEIPIPE_CHECK(dgrads[idx].size() == block_params[idx].size());
    d = blocks_[idx]->backward(
        std::span<const float>(block_params[idx].data(),
                               block_params[idx].size()),
        mb, ctxs[idx], d,
        std::span<float>(dgrads[idx].data(), dgrads[idx].size()));
  }
}

}  // namespace weipipe
