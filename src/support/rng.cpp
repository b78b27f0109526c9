#include "src/support/rng.hpp"

#include <cmath>

#include "src/support/error.hpp"

namespace automap {
namespace ziggurat {

// kX[1] = kR, kX[i+1] = sqrt(-2 ln(kV / kX[i] + f(kX[i]))) for i = 1..254,
// evaluated in 50-digit arithmetic and rounded to nearest; kX[0] = kV / f(kR).
// clang-format off
constexpr std::array<double, 257> kX = {
    0x1.f493b7816449cp+1, 0x1.d3bb48209ad33p+1, 0x1.b981f3878f995p+1, 0x1.a8fdc7894718cp+1,
    0x1.9cbee014050dfp+1, 0x1.92ee0946f3d1ap+1, 0x1.8ab0fbfaa7412p+1, 0x1.839030529e9c6p+1,
    0x1.7d42df4d6c5c3p+1, 0x1.779955608fd5cp+1, 0x1.72728f05f70d7p+1, 0x1.6db6b8d09d896p+1,
    0x1.69540be9fdbedp+1, 0x1.653ce7b0060e0p+1, 0x1.61669cf861410p+1, 0x1.5dc8a243ac693p+1,
    0x1.5a5c08b718342p+1, 0x1.571b1a94ad95ap+1, 0x1.54011523a7359p+1, 0x1.5109f53e9a131p+1,
    0x1.4e3250dcd7dccp+1, 0x1.4b7739d6b4ecdp+1, 0x1.48d62759c383ep+1, 0x1.464ce44a72e74p+1,
    0x1.43d98155452d1p+1, 0x1.417a49cb9d9f7p+1, 0x1.3f2dbaa60e871p+1, 0x1.3cf27b316f883p+1,
    0x1.3ac7570ae7cb8p+1, 0x1.38ab3925634aap+1, 0x1.369d27a339bc2p+1, 0x1.349c405ae0607p+1,
    0x1.32a7b5e6897eap+1, 0x1.30becd256a218p+1, 0x1.2ee0db1a96c03p+1, 0x1.2d0d43196ce89p+1,
    0x1.2b4375329fd28p+1, 0x1.2982ecd770132p+1, 0x1.27cb2faa84bccp+1, 0x1.261bcc7764b64p+1,
    0x1.24745a4ac8e8dp+1, 0x1.22d477a6fc63dp+1, 0x1.213bc9d04beb5p+1, 0x1.1fa9fc2e2cb1ap+1,
    0x1.1e1ebfbe4a038p+1, 0x1.1c99ca9719879p+1, 0x1.1b1ad777f215ap+1, 0x1.19a1a564edd5dp+1,
    0x1.182df74d203f9p+1, 0x1.16bf93b9de071p+1, 0x1.1556448601fa0p+1, 0x1.13f1d69c3fab8p+1,
    0x1.129219bbb4e67p+1, 0x1.1136e04206159p+1, 0x1.0fdffefa690b4p+1, 0x1.0e8d4cf115677p+1,
    0x1.0d3ea34aa2dfbp+1, 0x1.0bf3dd1eec4f9p+1, 0x1.0aacd7571b15cp+1, 0x1.0969708e892d2p+1,
    0x1.082988f631e7bp+1, 0x1.06ed023a716b3p+1, 0x1.05b3bf6ada3afp+1, 0x1.047da4e3ee5dep+1,
    0x1.034a983a8f2a9p+1, 0x1.021a8028fb92bp+1, 0x1.00ed447d3903fp+1, 0x1.ff859c118d56cp+0,
    0x1.fd360d22fc6b3p+0, 0x1.faebb187101b9p+0, 0x1.f8a6604897648p+0, 0x1.f665f20c8dffap+0,
    0x1.f42a40fb72bccp+0, 0x1.f1f328ac2314bp+0, 0x1.efc086101ca9fp+0, 0x1.ed923761084fbp+0,
    0x1.eb681c0f74c95p+0, 0x1.e94214b2a9c61p+0, 0x1.e72002f97db46p+0, 0x1.e501c99c1ae74p+0,
    0x1.e2e74c4ea23acp+0, 0x1.e0d06fb49ae9cp+0, 0x1.debd195520a81p+0, 0x1.dcad2f8fc2523p+0,
    0x1.daa0999204a4fp+0, 0x1.d8973f4d7d74ep+0, 0x1.d691096e7cc96p+0, 0x1.d48de1533a183p+0,
    0x1.d28db1037ca25p+0, 0x1.d0906328b6a3bp+0, 0x1.ce95e3068baccp+0, 0x1.cc9e1c73bb0ecp+0,
    0x1.caa8fbd367ccfp+0, 0x1.c8b66e0eb8002p+0, 0x1.c6c6608ec60b7p+0, 0x1.c4d8c136de695p+0,
    0x1.c2ed7e5f0536bp+0, 0x1.c10486cebefa3p+0, 0x1.bf1dc9b81874bp+0, 0x1.bd3936b2e9930p+0,
    0x1.bb56bdb84fdc0p+0, 0x1.b9764f1e5cf53p+0, 0x1.b797db93f6102p+0, 0x1.b5bb541ce14a1p+0,
    0x1.b3e0aa0dfe361p+0, 0x1.b207cf09a6f7ep+0, 0x1.b030b4fc377ffp+0, 0x1.ae5b4e18b89ddp+0,
    0x1.ac878cd5acc36p+0, 0x1.aab563e9fc731p+0, 0x1.a8e4c64a00726p+0, 0x1.a715a724a7f4dp+0,
    0x1.a547f9e0b90f0p+0, 0x1.a37bb21a29d82p+0, 0x1.a1b0c39f90b77p+0, 0x1.9fe7226faa6ecp+0,
    0x1.9e1ec2b6f486fp+0, 0x1.9c5798cd5ad45p+0, 0x1.9a919933f6d93p+0, 0x1.98ccb892dfdc0p+0,
    0x1.9708ebb70a937p+0, 0x1.954627903758dp+0, 0x1.9384612eeddb8p+0, 0x1.91c38dc2855bbp+0,
    0x1.9003a297387bbp+0, 0x1.8e44951443c09p+0, 0x1.8c865aba0de34p+0, 0x1.8ac8e92059191p+0,
    0x1.890c35f47c82fp+0, 0x1.875036f7a4f7bp+0, 0x1.8594e1fd1c625p+0, 0x1.83da2ce896f2fp+0,
    0x1.82200dac85642p+0, 0x1.80667a486b99bp+0, 0x1.7ead68c73ae13p+0, 0x1.7cf4cf3daf1d6p+0,
    0x1.7b3ca3c8ae292p+0, 0x1.7984dc8ba8bc9p+0, 0x1.77cd6faefc22bp+0, 0x1.7616535e540acp+0,
    0x1.745f7dc70bc12p+0, 0x1.72a8e5168e1a6p+0, 0x1.70f27f78b3573p+0, 0x1.6f3c43161c483p+0,
    0x1.6d86261289f27p+0, 0x1.6bd01e8b30f34p+0, 0x1.6a1a229507dcep+0, 0x1.6864283b0fbf5p+0,
    0x1.66ae257c960d1p+0, 0x1.64f8104b6f00ap+0, 0x1.6341de8a27a3fp+0, 0x1.618b860a2e8fdp+0,
    0x1.5fd4fc89f270dp+0, 0x1.5e1e37b2f5543p+0, 0x1.5c672d17d3b46p+0, 0x1.5aafd2323e2f8p+0,
    0x1.58f81c60e4c49p+0, 0x1.574000e552641p+0, 0x1.558774e1b7923p+0, 0x1.53ce6d56a2c3cp+0,
    0x1.5214df20a50d7p+0, 0x1.505abef5e1a6bp+0, 0x1.4ea0016386a9ap+0, 0x1.4ce49acb2d5fbp+0,
    0x1.4b287f6020504p+0, 0x1.496ba3248525cp+0, 0x1.47adf9e6685e7p+0, 0x1.45ef773ca8990p+0,
    0x1.44300e83bf257p+0, 0x1.426fb2da6358ep+0, 0x1.40ae571e05f20p+0, 0x1.3eebede721aa8p+0,
    0x1.3d2869855dd7dp+0, 0x1.3b63bbfb7fc13p+0, 0x1.399dd6fb270e6p+0, 0x1.37d6abe05165ap+0,
    0x1.360e2baca1031p+0, 0x1.3444470261b66p+0, 0x1.3278ee1f4755cp+0, 0x1.30ac10d6e0466p+0,
    0x1.2edd9e8cb647cp+0, 0x1.2d0d862e1729ep+0, 0x1.2b3bb62b7e87dp+0, 0x1.29681c7199014p+0,
    0x1.2792a661d8bcap+0, 0x1.25bb40ca92395p+0, 0x1.23e1d7de97a03p+0, 0x1.2206572c47d13p+0,
    0x1.2028a9940560cp+0, 0x1.1e48b93e088d8p+0, 0x1.1c666f8f7deafp+0, 0x1.1a81b51ee209fp+0,
    0x1.189a71a788c7ap+0, 0x1.16b08bfc3d18ep+0, 0x1.14c3e9f8e41d5p+0, 0x1.12d470730bf72p+0,
    0x1.10e203294c4bap+0, 0x1.0eec84b15b64bp+0, 0x1.0cf3d664b796bp+0, 0x1.0af7d84bc0d04p+0,
    0x1.08f8690719efbp+0, 0x1.06f565b7249f7p+0, 0x1.04eea9e164ed2p+0, 0x1.02e40f5393757p+0,
    0x1.00d56e041db86p+0, 0x1.fd8537df9798bp-1, 0x1.f956d9e872025p-1, 0x1.f51f654d83c82p-1,
    0x1.f0de784efa58ep-1, 0x1.ec93abdf8c38ep-1, 0x1.e83e93379ad00p-1, 0x1.e3debb5d22925p-1,
    0x1.df73aa9f0ae86p-1, 0x1.dafce0022ede7p-1, 0x1.d679d29e35105p-1, 0x1.d1e9f0e7fe5eep-1,
    0x1.cd4c9fe7151c2p-1, 0x1.c8a13a5316303p-1, 0x1.c3e70f95872d9p-1, 0x1.bf1d62abea234p-1,
    0x1.ba4368e51bb28p-1, 0x1.b5584874191d3p-1, 0x1.b05b16d127fcep-1, 0x1.ab4ad6e0f24b2p-1,
    0x1.a62676d76d6eep-1, 0x1.a0eccdca3ab90p-1, 0x1.9b9c98e37c433p-1, 0x1.96347822b180fp-1,
    0x1.90b2ea94dc29fp-1, 0x1.8b1649e7a6323p-1, 0x1.855cc5341f01ap-1, 0x1.7f845ad45d38cp-1,
    0x1.798ad10b200e6p-1, 0x1.736dad345c6aap-1, 0x1.6d2a291feca67p-1, 0x1.66bd261a23772p-1,
    0x1.60231cfd82f8ep-1, 0x1.59580a70673bcp-1, 0x1.5257562196c0fp-1, 0x1.4b1bb363c897fp-1,
    0x1.439ef8dfe16fcp-1, 0x1.3bd9ec1a11bf7p-1, 0x1.33c3fc055e9ddp-1, 0x1.2b52e38621b20p-1,
    0x1.227a28f78455bp-1, 0x1.192a6973f44f9p-1, 0x1.0f5053b004b3ep-1, 0x1.04d32278c831cp-1,
    0x1.f32482d480781p-2, 0x1.dac2f5a6f30f7p-2, 0x1.c004d2f328d65p-2, 0x1.a230c2e46386bp-2,
    0x1.801fce827fa88p-2, 0x1.57cb9383ae505p-2, 0x1.250af3c200a08p-2, 0x1.b8d0be3d697e9p-3,
    0x0p+0,
};
// clang-format on

constexpr std::array<double, 256> kRatio = [] {
  std::array<double, 256> ratio{};
  for (std::size_t i = 0; i < ratio.size(); ++i) ratio[i] = kX[i + 1] / kX[i];
  return ratio;
}();

}  // namespace ziggurat

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) {
  AM_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t bound) {
  AM_REQUIRE(bound > 0, "uniform_index requires a positive bound");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::normal(double mean, double stddev) {
  AM_REQUIRE(stddev >= 0.0, "normal requires non-negative stddev");
  return mean + stddev * normal();
}

void Rng::reject_sigma() {
  throw Error("lognormal_factor requires non-negative sigma");
}

double Rng::normal_tail(bool negative) {
  // Marsaglia (1964): with x = -ln(U1)/R and y = -ln(U2), accept R + x when
  // 2y >= x^2. 1 - uniform() lies in (0, 1], so log never sees 0.
  double x = 0.0;
  double y = 0.0;
  do {
    x = -std::log(1.0 - uniform()) / ziggurat::kR;
    y = -std::log(1.0 - uniform());
  } while (y + y < x * x);
  return negative ? -(ziggurat::kR + x) : ziggurat::kR + x;
}

bool Rng::in_wedge(std::size_t layer, double x) {
  // A height drawn uniformly between the layer's bottom f(kX[layer]) and
  // top f(kX[layer+1]) falls under the density at x.
  const double outer = ziggurat::kX[layer];
  const double inner = ziggurat::kX[layer + 1];
  const double bottom = std::exp(-0.5 * outer * outer);
  const double top = std::exp(-0.5 * inner * inner);
  return bottom + uniform() * (top - bottom) < std::exp(-0.5 * x * x);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace automap
