/**
 * @file
 * A hash index over elements that the caller keeps in its own flat
 * arrays and names by dense ids 0, 1, 2, ... in insertion order.
 *
 * Open addressing with linear probing, at most half full, no erase.
 * A slot holds an id and the low 32 bits of its element's 64-bit hash,
 * which place the slot; so a rehash never revisits the elements, and a
 * probe compares an element only when those bits match.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetarch {

class FlatHashIndex
{
  public:
    static constexpr std::uint32_t kAbsent = UINT32_MAX;

    /** The murmur3 finalizer: spreads every input bit over the word. */
    static std::uint64_t mix(std::uint64_t h)
    {
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        return h ^ (h >> 33);
    }

    /** The id of an element with @p hash that @p same(id) accepts. */
    template <typename Same>
    std::uint32_t find(std::uint64_t hash, Same&& same) const
    {
        if (slots.empty())
            return kAbsent;
        const auto h = static_cast<std::uint32_t>(hash);
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const Slot s = slots[i];
            if (s.idPlus1 == 0)
                return kAbsent;
            if (s.hash == h && same(s.idPlus1 - 1))
                return s.idPlus1 - 1;
        }
    }

    /** Index @p id, the next dense id, for an element not yet found. */
    void insert(std::uint64_t hash, std::uint32_t id)
    {
        if (2 * (std::size_t{id} + 1) > slots.size()) {
            std::vector<Slot> old(slots.empty() ? 1024 : 2 * slots.size());
            old.swap(slots);
            for (const Slot s : old)
                if (s.idPlus1 != 0)
                    place(s);
        }
        place({static_cast<std::uint32_t>(hash), id + 1});
    }

  private:
    struct Slot
    {
        std::uint32_t hash = 0, idPlus1 = 0; ///< idPlus1 0: empty
    };

    void place(Slot s)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = s.hash & mask;
        while (slots[i].idPlus1 != 0)
            i = (i + 1) & mask;
        slots[i] = s;
    }

    std::vector<Slot> slots;
};

} // namespace hetarch
