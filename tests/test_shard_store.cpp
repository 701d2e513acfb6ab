// ShardStore tests: every strategy's state is one shard list; restores work
// across any pair of shardings; per-rank blobs partition the store; the
// serialized form parses back exactly and rejects malformed bytes; store
// copies charge the ledger and credit it back.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "core/sequential_trainer.hpp"
#include "core/shard_store.hpp"
#include "core/weipipe_trainer.hpp"
#include "nn/microbatch.hpp"
#include "obs/ledger.hpp"

namespace weipipe {
namespace {

constexpr std::int64_t kWorld = 4;

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.model.vocab_size = 32;
  cfg.model.dim = 16;
  cfg.model.n_layers = 4;
  cfg.model.n_heads = 2;
  cfg.model.seq_len = 8;
  cfg.num_microbatches = 8;
  cfg.microbatch_size = 1;
  cfg.seq_len = 8;
  cfg.seed = 77;
  return cfg;
}

// The sharding-independent content of a store: weights, moments and step
// counters per block, in the sequential (one shard per block) layout.
std::vector<std::uint8_t> canonical(const ShardStore& state) {
  SequentialTrainer holder(tiny_config());
  holder.load_state(state);
  return holder.state().serialize();
}

std::vector<std::unique_ptr<Trainer>> every_sharding() {
  const TrainConfig cfg = tiny_config();
  std::vector<std::unique_ptr<Trainer>> out;
  for (const std::string& name : trainer_names()) {
    out.push_back(make_trainer(name, cfg, kWorld));
  }
  out.push_back(std::make_unique<WeiPipeTrainer>(cfg, 2));
  out.push_back(std::make_unique<WeiPipeTrainer>(
      cfg, 2, WeiPipeOptions{.dp_degree = 2, .replicate_vocab = true}));
  return out;
}

TEST(ShardStore, RestoresAcrossEveryPairOfShardings) {
  const TrainConfig cfg = tiny_config();
  const SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  WeiPipeTrainer origin(cfg, kWorld);
  (void)origin.train_iteration(data, 0);
  (void)origin.train_iteration(data, 1);
  const std::vector<std::uint8_t> want = canonical(origin.state());

  for (const auto& target : every_sharding()) {
    target->load_state(origin.state());
    EXPECT_TRUE(canonical(target->state()) == want) << target->name();
    for (std::size_t i = 0; i < target->state().size(); ++i) {
      EXPECT_EQ(target->state().shard(i).adam.step_count(), 2)
          << target->name() << " shard " << i;
    }
    EXPECT_EQ(target->gather_block_params(), origin.gather_block_params())
        << target->name();
    // ...and back out of this sharding into another one.
    for (const auto& next : every_sharding()) {
      next->load_state(target->state());
      ASSERT_TRUE(canonical(next->state()) == want)
          << target->name() << " -> " << next->name();
    }
  }
}

TEST(ShardStore, RankBlobsPartitionTheStore) {
  for (const auto& t : every_sharding()) {
    const ShardStore& state = t->state();
    std::size_t shards = 0;
    for (int r = 0; r < 8; ++r) {
      const ShardStore mine = ShardStore::parse(state.serialize(r));
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine.shard(i).owner, r) << t->name();
      }
      shards += mine.size();
    }
    EXPECT_EQ(shards, state.size()) << t->name();
  }
}

TEST(ShardStore, ReplicatedVocabShardsCoverEmbeddingAndHead) {
  const TrainConfig cfg = tiny_config();
  WeiPipeTrainer t(cfg, 2,
                   WeiPipeOptions{.dp_degree = 2, .replicate_vocab = true});
  const ShardStore& state = t.state();
  // 2 replicas x 2 layer chunks, then one embedding||head shard per replica.
  ASSERT_EQ(state.size(), 6u);
  const std::int64_t head = cfg.model.n_layers + 1;
  for (std::size_t i = 4; i < 6; ++i) {
    EXPECT_EQ(state.shard(i).blocks, (std::vector<std::int64_t>{0, head}));
  }
  EXPECT_EQ(state.shard(4).owner, 0);
  EXPECT_EQ(state.shard(5).owner, 2);
}

TEST(ShardStore, SerializeParsesBackExactly) {
  const TrainConfig cfg = tiny_config();
  const SyntheticDataset data(cfg.model.vocab_size, cfg.seed);
  for (const auto& t : every_sharding()) {
    (void)t->train_iteration(data, 0);
    const std::vector<std::uint8_t> bytes = t->state().serialize();
    const ShardStore parsed = ShardStore::parse(bytes);
    EXPECT_TRUE(parsed.serialize() == bytes) << t->name();
    EXPECT_EQ(parsed.block_params(), t->gather_block_params()) << t->name();
  }
}

TEST(ShardStore, MalformedBytesAreRejectedCleanly) {
  const TrainConfig cfg = tiny_config();
  const std::vector<std::uint8_t> good =
      WeiPipeTrainer(cfg, 2).state().serialize();
  // Strict prefixes are truncated.
  for (std::size_t n = 0; n < good.size(); n += 7) {
    const std::vector<std::uint8_t> cut(
        good.begin(), good.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)ShardStore::parse(cut), Error) << "prefix " << n;
  }
  std::vector<std::uint8_t> longer = good;
  longer.push_back(0);
  EXPECT_THROW((void)ShardStore::parse(longer), Error);
  // A flipped bit either fails to parse or lands in a float payload, in
  // which case the parse is exact: it re-serializes to the flipped bytes.
  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bad = good;
    // Header bytes get half the flips; they hold every count and id.
    const std::size_t span =
        trial % 2 == 0 ? std::min<std::size_t>(bad.size(), 256) : bad.size();
    const std::size_t at = rng.next_u64() % span;
    bad[at] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    try {
      const ShardStore parsed = ShardStore::parse(bad);
      ASSERT_TRUE(parsed.serialize() == bad) << "flip at byte " << at;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(ShardStore, CopiesChargeTheLedgerAndCreditItBack) {
  const bool was_enabled = obs::ledger().enabled();
  obs::ledger().set_enabled(true);
  {
    const std::int64_t weights0 =
        obs::ledger().live_bytes(obs::MemKind::kWeights);
    const std::int64_t optim0 =
        obs::ledger().live_bytes(obs::MemKind::kOptimizer);
    const TrainConfig cfg = tiny_config();
    Model model(cfg.model);
    {
      SequentialTrainer t(cfg);
      const std::int64_t floats = model.total_param_count();
      EXPECT_EQ(obs::ledger().live_bytes(obs::MemKind::kWeights),
                weights0 + 4 * floats);
      EXPECT_EQ(obs::ledger().live_bytes(obs::MemKind::kOptimizer),
                optim0 + 8 * floats);
      {
        const ShardStore snapshot = t.state();
        EXPECT_EQ(obs::ledger().live_bytes(obs::MemKind::kWeights),
                  weights0 + 8 * floats);
      }
      EXPECT_EQ(obs::ledger().live_bytes(obs::MemKind::kWeights),
                weights0 + 4 * floats);
    }
    EXPECT_EQ(obs::ledger().live_bytes(obs::MemKind::kWeights), weights0);
    EXPECT_EQ(obs::ledger().live_bytes(obs::MemKind::kOptimizer), optim0);
  }
  obs::ledger().set_enabled(was_enabled);
}

}  // namespace
}  // namespace weipipe
