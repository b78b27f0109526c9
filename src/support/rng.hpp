#pragma once

// Deterministic random number generation.
//
// All stochastic behaviour in the library (execution-time noise, randomized
// search techniques) flows through Rng so that every experiment is exactly
// reproducible from a seed. The generator is xoshiro256**, seeded via
// SplitMix64, following the reference implementations by Blackman & Vigna.
//
// Standard normals come from a 256-layer ziggurat (Marsaglia & Tsang, "The
// Ziggurat Method for Generating Random Variables", J. Stat. Software 5(8),
// 2000), with the layer index and the uniform taken from disjoint bits of
// one draw (Doornik, "An Improved Ziggurat Method to Generate Normal Random
// Samples", 2005). About 98.5% of draws take the inline path: one next(),
// one table compare and one multiply, with no libm call. The rest fall into
// a wedge (exp-based rejection) or the tail beyond R (Marsaglia's method,
// log of a uniform in (0, 1]). Each normal() consumes a variable number of
// next() values and keeps no cached sample, so the stream position after a
// draw depends only on the draws made so far.

#include <array>
#include <cmath>
#include <cstdint>
#include <cstddef>

namespace automap {

// The seed-derivation and noise-draw helpers below are defined inline: the
// simulator draws one noise factor per task per iteration per run, so they
// run tens of millions of times per search.

/// SplitMix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes a value through one SplitMix64 round (stateless convenience).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t value) {
  std::uint64_t state = value;
  return splitmix64(state);
}

/// The 256-layer normal ziggurat for the unnormalized density
/// f(x) = exp(-x^2/2): every layer has area kV. Layer 0 is the base strip
/// (the rectangle [0, kR] x [0, f(kR)] plus the tail beyond kR) and kX[0] =
/// kV / f(kR) is its equivalent width; layer i >= 1 spans heights f(kX[i])
/// to f(kX[i+1]) with kX[1] = kR and kX[256] = 0. Defined in rng.cpp as
/// constexpr, so the tables are constant-initialized.
namespace ziggurat {
inline constexpr double kR = 3.6541528853610088;
inline constexpr double kV = 4.92867323399e-3;
/// Strip edges x[0..256].
extern const std::array<double, 257> kX;
/// kRatio[i] = kX[i+1] / kX[i]: a point of layer i with |u| below it lies
/// under the density without testing it.
extern const std::array<double, 256> kRatio;
}  // namespace ziggurat

/// xoshiro256** PRNG with distribution helpers. Satisfies the
/// UniformRandomBitGenerator requirements so it can drive <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t uniform_index(std::uint64_t bound);

  /// Standard normal from the ziggurat: layer index from bits 0-7 of one
  /// next(), signed uniform in [-1, 1) from bits 11-63 of the same value.
  double normal() {
    for (;;) {
      const std::uint64_t bits = next();
      const std::size_t layer = bits & 0xff;
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
      if (std::abs(u) < ziggurat::kRatio[layer])
        return u * ziggurat::kX[layer];
      if (layer == 0) return normal_tail(u < 0.0);
      const double x = u * ziggurat::kX[layer];
      if (in_wedge(layer, x)) return x;
    }
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal multiplicative factor with median 1 and shape sigma:
  /// exp(sigma * N(0,1)). Models run-to-run execution-time variation.
  /// Requires sigma >= 0; sigma = 0 returns exactly 1 and makes no draw.
  double lognormal_factor(double sigma) {
    if (sigma == 0.0) return 1.0;
    if (!(sigma > 0.0)) reject_sigma();
    return std::exp(sigma * normal());
  }

  /// True with probability p.
  bool bernoulli(double p);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Throws Error: lognormal_factor got a negative or NaN sigma.
  [[noreturn]] static void reject_sigma();
  /// A draw from the tail |x| > kR with the given sign.
  double normal_tail(bool negative);
  /// Rejection test for x (|x| in [kX[layer+1], kX[layer])) in a wedge.
  bool in_wedge(std::size_t layer, double x);

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace automap
