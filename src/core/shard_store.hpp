// ShardStore: the one representation of a trainer's training state.
//
// Every strategy keeps the state its optimizer owns — fp32 master weights,
// Adam moments and step counters — as a list of shards. A shard covers an
// ordered list of model blocks, concatenated into one flat buffer, and names
// the rank that steps it. Everything else derives from that list:
//   - block_params(): block-major fp32 masters (the equivalence tests'
//     common currency, and what generation reads);
//   - assign():       restore from a store of any sharding of the same model
//                     (checkpoint resume across strategies and worker counts,
//                     the recovery rollback);
//   - serialize():    the bytes of every shard (a checkpoint file) or of the
//                     shards one rank owns (the forked differ's per-rank
//                     blob, byte-identical whether the trainer hosted the
//                     full world or only that rank);
//   - parse():        the inverse of serialize, rejecting malformed bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/adam.hpp"
#include "nn/model.hpp"
#include "obs/ledger.hpp"

namespace weipipe {

struct Shard {
  int owner = 0;                     // rank that steps this shard
  std::vector<std::int64_t> blocks;  // model blocks, in buffer order
  std::vector<float> params;         // fp32 masters
  AdamShard adam;                    // moments + step counter
};

class ShardStore {
 public:
  static constexpr int kAllRanks = -1;

  ShardStore() = default;
  // An empty store over `model`'s blocks.
  explicit ShardStore(const Model& model);

  // Copies charge the ledger for their own weights and optimizer state.
  ShardStore(const ShardStore& other);
  ShardStore& operator=(const ShardStore& other);
  ShardStore(ShardStore&&) = default;
  ShardStore& operator=(ShardStore&&) = default;

  // Appends a shard over `blocks` whose concatenated fp32 weights are
  // `params` (e.g. Model::init_params(blocks)), with zeroed Adam state.
  void add(int owner, std::vector<std::int64_t> blocks,
           std::vector<float> params);

  std::size_t size() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return shards_[i]; }
  const Shard& shard(std::size_t i) const { return shards_[i]; }

  // Block-major fp32 masters; each block comes from the first shard that
  // covers it (replicated shards are identical by construction).
  std::vector<std::vector<float>> block_params() const;

  // Overwrites every shard with `src`'s values for the same blocks. Throws
  // weipipe::Error when the block lists differ in count or size, or when
  // `src` lacks a block.
  void assign(const ShardStore& src);

  // Layout: "WPSTATE1", u64 block count, u64 size per block, u64 shard
  // count, then per shard: i64 owner, u64 block count, u64 block ids,
  // i64 step count, f32 params, f32 first moments, f32 second moments (as
  // many floats each as the shard's blocks hold). Integers little-endian,
  // floats raw host bytes. kAllRanks serializes every shard; a rank, only
  // the shards it owns.
  std::vector<std::uint8_t> serialize(int rank = kAllRanks) const;
  // Throws weipipe::Error on bad magic, truncation, out-of-range sizes or
  // block ids, or trailing bytes.
  static ShardStore parse(std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::int64_t> block_sizes_;
  std::vector<Shard> shards_;
  obs::MemCharge weights_charge_;
  obs::MemCharge optimizer_charge_;

  void recharge_ledger();
};

// Checkpoint files hold ShardStore::serialize() of the full store. Throws
// weipipe::Error on I/O failure or malformed contents.
void save_checkpoint(const std::string& path, const ShardStore& state);
ShardStore load_checkpoint(const std::string& path);

}  // namespace weipipe
