#include "core/rng.hh"

#include <cmath>

#include "core/logging.hh"

namespace hetarch {

namespace {

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& word : s)
        word = splitmix64(sm);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double rate)
{
    HETARCH_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = uniform();
    // uniform() can return exactly 0; log(0) is -inf, so nudge.
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -std::log(u) / rate;
}

double
Rng::normal()
{
    if (haveCachedNormal) {
        haveCachedNormal = false;
        return cachedNormal;
    }
    double u1 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    haveCachedNormal = true;
    return r * std::cos(theta);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa0761d6478bd642full);
}

std::uint64_t
Rng::deriveStream(std::uint64_t seed, std::uint64_t stream)
{
    // Feed the pair through SplitMix64 twice so that both nearby seeds
    // and nearby stream indices land in unrelated states.  stream + 1
    // keeps stream 0 from collapsing to a plain re-hash of the seed.
    std::uint64_t x = seed;
    std::uint64_t mixed = splitmix64(x);
    x = mixed ^ ((stream + 1) * 0x9e3779b97f4a7c15ull);
    mixed = splitmix64(x);
    return mixed;
}

} // namespace hetarch
