#include "pipeline/sharded_set.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "squish/canonical.hpp"
#include "squish/hash.hpp"

namespace dp::pipeline {

bool ShardedPatternSet::insert(const squish::Topology& t) {
  const squish::Topology canon = squish::canonicalize(t);
  return insertPacked(squish::hashTopology(canon), pack(canon));
}

std::size_t ShardedPatternSet::Shard::probe(
    std::uint64_t hash, const PackedPattern& packed) const {
  const std::size_t mask = index.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t e = index[slot];
    if (e == 0) return slot;
    const Entry& entry = entries[e - 1];
    if (entry.hash == hash && entry.rows == packed.rows &&
        entry.cols == packed.cols && entry.nWords == packed.words.size() &&
        std::equal(packed.words.begin(), packed.words.end(),
                   words.begin() + entry.offset))
      return slot;
  }
}

void ShardedPatternSet::Shard::grow() {
  index.assign(std::max<std::size_t>(64, 2 * index.size()), 0);
  const std::size_t mask = index.size() - 1;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::size_t slot = entries[i].hash & mask;
    while (index[slot] != 0) slot = (slot + 1) & mask;
    index[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

bool ShardedPatternSet::insertPacked(std::uint64_t hash,
                                     const PackedPattern& packed) {
  Shard& shard = shards_[static_cast<std::size_t>(shardOf(hash))];
  LockGuard lock(shard.mutex);
  // Load factor at most 1/2 keeps probe runs short.
  if (2 * (shard.entries.size() + 1) > shard.index.size()) shard.grow();
  const std::size_t slot = shard.probe(hash, packed);
  if (shard.index[slot] != 0) return false;
  Entry entry;
  entry.hash = hash;
  entry.offset = static_cast<std::uint32_t>(shard.words.size());
  entry.nWords = static_cast<std::uint16_t>(packed.words.size());
  entry.rows = packed.rows;
  entry.cols = packed.cols;
  shard.entries.push_back(entry);
  shard.words.insert(shard.words.end(), packed.words.begin(),
                     packed.words.end());
  shard.index[slot] = static_cast<std::uint32_t>(shard.entries.size());
  ++shard.histogram[{packed.cx(), packed.cy()}];
  return true;
}

bool ShardedPatternSet::containsPacked(std::uint64_t hash,
                                       const PackedPattern& packed) const {
  const Shard& shard = shards_[static_cast<std::size_t>(shardOf(hash))];
  LockGuard lock(shard.mutex);
  if (shard.index.empty()) return false;
  return shard.index[shard.probe(hash, packed)] != 0;
}

std::uint64_t ShardedPatternSet::size() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    LockGuard lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

std::vector<std::uint64_t> ShardedPatternSet::shardSizes() const {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(kShards);
  for (const Shard& shard : shards_) {
    LockGuard lock(shard.mutex);
    sizes.push_back(shard.entries.size());
  }
  return sizes;
}

void ShardedPatternSet::forEach(
    const std::function<void(std::uint64_t, const PackedPattern&)>& fn)
    const {
  PackedPattern p;
  std::vector<std::uint32_t> order;
  for (const Shard& shard : shards_) {
    LockGuard lock(shard.mutex);
    const std::vector<Entry>& entries = shard.entries;
    // Ascending hash; equal hashes (collisions) in insertion order.
    order.resize(entries.size());
    std::iota(order.begin(), order.end(), 0U);
    std::sort(order.begin(), order.end(),
              [&entries](std::uint32_t a, std::uint32_t b) {
                return entries[a].hash != entries[b].hash
                           ? entries[a].hash < entries[b].hash
                           : a < b;
              });
    for (const std::uint32_t i : order) {
      const Entry& e = entries[i];
      p.rows = e.rows;
      p.cols = e.cols;
      const auto first = shard.words.begin() + e.offset;
      p.words.assign(first, first + e.nWords);
      fn(e.hash, p);
    }
  }
}

std::map<std::pair<int, int>, std::uint64_t>
ShardedPatternSet::complexityHistogram() const {
  std::map<std::pair<int, int>, std::uint64_t> merged;
  for (const Shard& shard : shards_) {
    LockGuard lock(shard.mutex);
    for (const auto& [key, count] : shard.histogram) merged[key] += count;
  }
  return merged;
}

double ShardedPatternSet::diversity() const {
  return shannonFromCounts(complexityHistogram());
}

double shannonFromCounts(
    const std::map<std::pair<int, int>, std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  if (total == 0) return 0.0;
  const double n = static_cast<double>(total);
  double h = 0.0;
  for (const auto& [key, count] : counts) {
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace dp::pipeline
