/**
 * @file
 * Open-addressed hash map with u64 keys for per-access hot paths.
 *
 * The coherence sharers directory is consulted on every shared-memory
 * access (tens of millions of times per simulated second), and
 * std::unordered_map's node allocation + bucket chasing made it the
 * single hottest function of the figure benches; the profiler's
 * reuse-distance curve (profile::StackDistanceCurve) looks up every
 * profiled access's last use the same way. This table is the
 * flat alternative: power-of-two capacity, linear probing, keys and
 * values in separate contiguous arrays, no erase (directories only
 * grow), Fibonacci hashing to spread clustered line addresses.
 */

#ifndef DITTO_CORE_FLAT_MAP64_H_
#define DITTO_CORE_FLAT_MAP64_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ditto::core {

/**
 * Minimal flat hash map: u64 keys to `Value`s, insert-or-find only.
 *
 * The key ~0ull is reserved as the empty marker (line addresses are
 * byte addresses divided by 64, so they can never reach 2^64-1).
 */
template <class Value>
class BasicFlatMap64
{
  public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    BasicFlatMap64() { rehash(kInitialCapacity); }

    /**
     * Insert-or-find: reference to the value for `key`, default 0 on
     * first touch. Invalidated by the next ref() (growth may move it).
     */
    Value &
    ref(std::uint64_t key)
    {
        if ((size_ + 1) * 10 >= capacity() * 7)
            rehash(capacity() * 2);
        std::size_t idx = probe(key);
        if (keys_[idx] == kEmptyKey) {
            keys_[idx] = key;
            vals_[idx] = 0;
            ++size_;
        }
        return vals_[idx];
    }

    /**
     * The value for `key`, or nullptr when `key` was never inserted
     * (so a stored 0 and an absent key differ). Invalidated by the
     * next ref().
     */
    Value *
    find(std::uint64_t key)
    {
        const std::size_t idx = probe(key);
        return keys_[idx] == kEmptyKey ? nullptr : &vals_[idx];
    }

    /** Call fn(key, Value &) for every entry, in table order. */
    template <class Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmptyKey)
                fn(keys_[i], vals_[i]);
        }
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return keys_.size(); }

    void
    clear()
    {
        keys_.assign(keys_.size(), kEmptyKey);
        vals_.assign(vals_.size(), 0);
        size_ = 0;
    }

  private:
    static constexpr std::size_t kInitialCapacity = 1024;

    std::size_t
    probe(std::uint64_t key) const
    {
        // Fibonacci hashing: line addresses arrive in arithmetic
        // progressions, which would chain badly under masking alone.
        std::size_t idx = static_cast<std::size_t>(
                              (key * 0x9e3779b97f4a7c15ull) >> 32) &
            (keys_.size() - 1);
        while (keys_[idx] != kEmptyKey && keys_[idx] != key)
            idx = (idx + 1) & (keys_.size() - 1);
        return idx;
    }

    void
    rehash(std::size_t newCapacity)
    {
        std::vector<std::uint64_t> oldKeys = std::move(keys_);
        std::vector<Value> oldVals = std::move(vals_);
        keys_.assign(newCapacity, kEmptyKey);
        vals_.assign(newCapacity, 0);
        for (std::size_t i = 0; i < oldKeys.size(); ++i) {
            if (oldKeys[i] == kEmptyKey)
                continue;
            const std::size_t idx = probe(oldKeys[i]);
            keys_[idx] = oldKeys[i];
            vals_[idx] = oldVals[i];
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<Value> vals_;
    std::size_t size_ = 0;
};

/** u64 -> u64: the coherence sharers directory's bitmasks. */
using FlatMap64 = BasicFlatMap64<std::uint64_t>;

} // namespace ditto::core

#endif // DITTO_CORE_FLAT_MAP64_H_
