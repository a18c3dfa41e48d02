#ifndef PPSM_UTIL_LRU_CACHE_H_
#define PPSM_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace ppsm {

/// Fixed-capacity least-recently-used map. Backs the cloud's decomposition
/// plan cache: Get promotes the entry to most-recently-used; Put evicts the
/// LRU entry once `capacity` is exceeded. Capacity 0 disables the cache
/// (every Get misses, Put is a no-op).
///
/// NOT internally synchronized — concurrent users (CloudCluster) hold their
/// own mutex around every call. Get returns a copy for that reason: no
/// pointers into the cache escape the caller's critical section.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  LruCache() : LruCache(0) {}
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// Copy of the cached value, or nullopt. A hit becomes most-recently-used.
  std::optional<Value> Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites; the entry becomes most-recently-used. Evicts the
  /// least-recently-used entry when over capacity.
  void Put(Key key, Value value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(std::move(key), order_.begin());
    if (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  // Front = most recently used.
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      index_;
};

}  // namespace ppsm

#endif  // PPSM_UTIL_LRU_CACHE_H_
