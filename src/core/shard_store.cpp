#include "core/shard_store.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/check.hpp"

namespace weipipe {

namespace {

constexpr char kMagic[8] = {'W', 'P', 'S', 'T', 'A', 'T', 'E', '1'};
// Bounds on counts read from bytes, far above any real model; they keep a
// corrupt count from driving a huge allocation before truncation is seen.
constexpr std::uint64_t kMaxBlocks = 1u << 20;
constexpr std::uint64_t kMaxBlockFloats = 1ull << 36;

class Writer {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  void floats(std::span<const float> v) {
    raw(v.data(), v.size() * sizeof(float));
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::span<const std::uint8_t> take(std::size_t n) {
    WEIPIPE_CHECK_MSG(n <= bytes_.size() - pos_,
                      "state truncated at byte " << pos_);
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  // A count no larger than `limit`.
  std::uint64_t count(std::uint64_t limit, const char* what) {
    const std::uint64_t v = u64();
    WEIPIPE_CHECK_MSG(v <= limit, "state " << what << " " << v
                                           << " out of range (max " << limit
                                           << ")");
    return v;
  }
  std::vector<float> floats(std::size_t n) {
    WEIPIPE_CHECK_MSG(n <= (bytes_.size() - pos_) / sizeof(float),
                      "state truncated at byte " << pos_);
    std::vector<float> v(n);
    const auto b = take(n * sizeof(float));
    if (n > 0) {
      std::memcpy(v.data(), b.data(), b.size());
    }
    return v;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

ShardStore::ShardStore(const Model& model) {
  for (std::int64_t b = 0; b < model.num_blocks(); ++b) {
    block_sizes_.push_back(model.block_param_count(b));
  }
}

ShardStore::ShardStore(const ShardStore& other)
    : block_sizes_(other.block_sizes_), shards_(other.shards_) {
  recharge_ledger();
}

ShardStore& ShardStore::operator=(const ShardStore& other) {
  if (this != &other) {
    block_sizes_ = other.block_sizes_;
    shards_ = other.shards_;
    recharge_ledger();
  }
  return *this;
}

void ShardStore::recharge_ledger() {
  std::int64_t floats = 0;
  for (const Shard& s : shards_) {
    floats += static_cast<std::int64_t>(s.params.size());
  }
  weights_charge_.set(obs::MemKind::kWeights, 4 * floats);
  optimizer_charge_.set(obs::MemKind::kOptimizer, 2 * 4 * floats);
}

void ShardStore::add(int owner, std::vector<std::int64_t> blocks,
                     std::vector<float> params) {
  std::int64_t n = 0;
  for (const std::int64_t b : blocks) {
    WEIPIPE_CHECK(b >= 0 &&
                  b < static_cast<std::int64_t>(block_sizes_.size()));
    n += block_sizes_[static_cast<std::size_t>(b)];
  }
  WEIPIPE_CHECK(static_cast<std::int64_t>(params.size()) == n);
  Shard s;
  s.owner = owner;
  s.blocks = std::move(blocks);
  s.params = std::move(params);
  s.adam = AdamShard(n);
  shards_.push_back(std::move(s));
  recharge_ledger();
}

std::vector<std::vector<float>> ShardStore::block_params() const {
  std::vector<std::vector<float>> out(block_sizes_.size());
  std::vector<bool> seen(block_sizes_.size(), false);
  for (const Shard& s : shards_) {
    std::size_t off = 0;
    for (const std::int64_t b : s.blocks) {
      const auto bi = static_cast<std::size_t>(b);
      const auto n = static_cast<std::size_t>(block_sizes_[bi]);
      if (!seen[bi]) {
        seen[bi] = true;
        out[bi].assign(s.params.begin() + off, s.params.begin() + off + n);
      }
      off += n;
    }
  }
  return out;
}

void ShardStore::assign(const ShardStore& src) {
  if (this == &src) {
    return;
  }
  WEIPIPE_CHECK_MSG(src.block_sizes_.size() == block_sizes_.size(),
                    "state has " << src.block_sizes_.size()
                                 << " blocks, model has "
                                 << block_sizes_.size());
  for (std::size_t b = 0; b < block_sizes_.size(); ++b) {
    WEIPIPE_CHECK_MSG(src.block_sizes_[b] == block_sizes_[b],
                      "state block " << b << " has " << src.block_sizes_[b]
                                     << " params, model block has "
                                     << block_sizes_[b]
                                     << " (different ModelConfig?)");
  }
  // Where each block lives in `src`: (shard, float offset), first cover.
  struct Place {
    const Shard* shard = nullptr;
    std::size_t off = 0;
  };
  std::vector<Place> where(block_sizes_.size());
  for (const Shard& s : src.shards_) {
    std::size_t off = 0;
    for (const std::int64_t b : s.blocks) {
      const auto bi = static_cast<std::size_t>(b);
      if (where[bi].shard == nullptr) {
        where[bi] = Place{&s, off};
      }
      off += static_cast<std::size_t>(block_sizes_[bi]);
    }
  }
  for (Shard& d : shards_) {
    std::vector<float> m(d.params.size());
    std::vector<float> v(d.params.size());
    std::int64_t step = -1;
    std::size_t off = 0;
    for (const std::int64_t b : d.blocks) {
      const auto bi = static_cast<std::size_t>(b);
      const Place& at = where[bi];
      WEIPIPE_CHECK_MSG(at.shard != nullptr,
                        "state has no shard covering block " << b);
      const std::int64_t s_step = at.shard->adam.step_count();
      WEIPIPE_CHECK_MSG(step < 0 || step == s_step,
                        "state blocks of one shard disagree on the step "
                        "count (" << step << " vs " << s_step << ")");
      step = s_step;
      const auto n = static_cast<std::ptrdiff_t>(block_sizes_[bi]);
      const auto src_off = static_cast<std::ptrdiff_t>(at.off);
      const auto dst_off = static_cast<std::ptrdiff_t>(off);
      std::copy_n(at.shard->params.begin() + src_off, n,
                  d.params.begin() + dst_off);
      std::copy_n(at.shard->adam.first_moment().begin() + src_off, n,
                  m.begin() + dst_off);
      std::copy_n(at.shard->adam.second_moment().begin() + src_off, n,
                  v.begin() + dst_off);
      off += static_cast<std::size_t>(n);
    }
    d.adam.restore(std::move(m), std::move(v),
                   std::max<std::int64_t>(step, 0));
  }
}

std::vector<std::uint8_t> ShardStore::serialize(int rank) const {
  Writer w;
  w.raw(kMagic, sizeof(kMagic));
  w.u64(block_sizes_.size());
  for (const std::int64_t n : block_sizes_) {
    w.i64(n);
  }
  const auto selected = [&](const Shard& s) {
    return rank == kAllRanks || s.owner == rank;
  };
  w.u64(static_cast<std::uint64_t>(
      std::count_if(shards_.begin(), shards_.end(), selected)));
  for (const Shard& s : shards_) {
    if (!selected(s)) {
      continue;
    }
    w.i64(s.owner);
    w.u64(s.blocks.size());
    for (const std::int64_t b : s.blocks) {
      w.i64(b);
    }
    w.i64(s.adam.step_count());
    w.floats(s.params);
    w.floats(s.adam.first_moment());
    w.floats(s.adam.second_moment());
  }
  return w.take();
}

ShardStore ShardStore::parse(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const auto magic = r.take(sizeof(kMagic));
  WEIPIPE_CHECK_MSG(std::memcmp(magic.data(), kMagic, sizeof(kMagic)) == 0,
                    "not a weipipe state (bad magic)");
  ShardStore store;
  const std::uint64_t num_blocks = r.count(kMaxBlocks, "block count");
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    store.block_sizes_.push_back(
        static_cast<std::int64_t>(r.count(kMaxBlockFloats, "block size")));
  }
  const std::uint64_t num_shards = r.count(kMaxBlocks, "shard count");
  for (std::uint64_t i = 0; i < num_shards; ++i) {
    Shard s;
    const std::int64_t owner = r.i64();
    WEIPIPE_CHECK_MSG(owner >= 0 && owner <= INT32_MAX,
                      "state shard " << i << " owner " << owner
                                     << " out of range");
    s.owner = static_cast<int>(owner);
    const std::uint64_t nb = r.count(num_blocks, "shard block count");
    std::size_t n = 0;
    for (std::uint64_t k = 0; k < nb; ++k) {
      const std::uint64_t b = r.u64();
      WEIPIPE_CHECK_MSG(b < num_blocks, "state shard " << i << " names block "
                                                       << b << " of "
                                                       << num_blocks);
      s.blocks.push_back(static_cast<std::int64_t>(b));
      n += static_cast<std::size_t>(store.block_sizes_[b]);
    }
    const std::int64_t step = r.i64();
    WEIPIPE_CHECK_MSG(step >= 0, "state shard " << i << " step count "
                                                << step << " is negative");
    s.params = r.floats(n);
    std::vector<float> m = r.floats(n);
    std::vector<float> v = r.floats(n);
    s.adam = AdamShard(static_cast<std::int64_t>(n));
    s.adam.restore(std::move(m), std::move(v), step);
    store.shards_.push_back(std::move(s));
  }
  WEIPIPE_CHECK_MSG(r.done(), "state has trailing bytes");
  store.recharge_ledger();
  return store;
}

void save_checkpoint(const std::string& path, const ShardStore& state) {
  const std::vector<std::uint8_t> bytes = state.serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  WEIPIPE_CHECK_MSG(out.is_open(), "cannot open '" << path << "' for write");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  WEIPIPE_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

ShardStore load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WEIPIPE_CHECK_MSG(in.is_open(), "cannot open '" << path << "'");
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  WEIPIPE_CHECK_MSG(!in.bad(), "read of '" << path << "' failed");
  return ShardStore::parse(bytes);
}

}  // namespace weipipe
