// Tensor serialization round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/rng.hpp"
#include "nn/conv_ref.hpp"
#include "nn/io.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"

namespace {

using namespace pcnna;
using nn::Shape4;
using nn::Tensor;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TensorIo, RoundTripIsBitExact) {
  Rng rng(5);
  Tensor t(Shape4{2, 3, 4, 5});
  nn::fill_gaussian(t, rng, 0.0, 1.0);
  const std::string path = tmp_path("roundtrip.pcnt");
  nn::save_tensor(path, t);
  const Tensor back = nn::load_tensor(path);
  EXPECT_EQ(t, back);
  std::remove(path.c_str());
}

TEST(TensorIo, PreservesSpecialValues) {
  Tensor t(Shape4{1, 1, 1, 4},
           {0.0, -0.0, 1e-308, std::numeric_limits<double>::max()});
  const std::string path = tmp_path("special.pcnt");
  nn::save_tensor(path, t);
  const Tensor back = nn::load_tensor(path);
  EXPECT_EQ(t, back);
  EXPECT_TRUE(std::signbit(back[1]));
  std::remove(path.c_str());
}

TEST(TensorIo, MissingFileThrows) {
  EXPECT_THROW(nn::load_tensor(tmp_path("does-not-exist.pcnt")), Error);
}

TEST(TensorIo, BadMagicThrows) {
  const std::string path = tmp_path("garbage.pcnt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a tensor at all, just bytes";
  }
  EXPECT_THROW(nn::load_tensor(path), Error);
  std::remove(path.c_str());
}

TEST(TensorIo, TruncatedPayloadThrows) {
  Rng rng(6);
  Tensor t(Shape4{1, 1, 8, 8});
  nn::fill_gaussian(t, rng, 0.0, 1.0);
  const std::string path = tmp_path("trunc.pcnt");
  nn::save_tensor(path, t);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(nn::load_tensor(path), Error);
  std::remove(path.c_str());
}

/// A PCNT file with the given header dimensions followed by `values`
/// zero-valued doubles.
std::string write_raw_tensor(const std::string& name,
                             std::initializer_list<std::uint64_t> dims,
                             std::size_t values) {
  const std::string path = tmp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>(v >> (8 * i)));
  };
  out.write("PCNT", 4);
  u64(1); // version
  for (const std::uint64_t d : dims) u64(d);
  for (std::size_t i = 0; i < values; ++i) u64(0);
  return path;
}

TEST(TensorIo, WrappingShapeProductThrows) {
  // (2^62 + 1) * 4 wraps to 4 mod 2^64, matching the four stored values.
  const std::string path = write_raw_tensor(
      "wrap.pcnt", {(std::uint64_t{1} << 62) + 1, 4, 1, 1}, 4);
  EXPECT_THROW(nn::load_tensor(path), Error);
  std::remove(path.c_str());
}

TEST(TensorIo, ShapeLargerThanTheFileThrows) {
  // A plausible shape of 2^30 values over a file holding four: rejected
  // before the 8 GiB allocation.
  const std::string path =
      write_raw_tensor("oversize.pcnt", {1, 1, 1u << 15, 1u << 15}, 4);
  EXPECT_THROW(nn::load_tensor(path), Error);
  std::remove(path.c_str());
}

TEST(TensorIo, NetworkWeightsRoundTripThroughReference) {
  Rng rng(7);
  const nn::Network net = nn::tiny_cnn();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);

  nn::save_network_weights(::testing::TempDir(), "tiny", weights);
  const auto back = nn::load_network_weights(::testing::TempDir(), "tiny", net);

  // Same weights -> bit-identical forward pass.
  const Tensor ref = nn::forward_reference(net, weights, input);
  const Tensor loaded = nn::forward_reference(net, back, input);
  EXPECT_EQ(ref, loaded);
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    EXPECT_EQ(weights.weight[i], back.weight[i]) << i;
    EXPECT_EQ(weights.bias[i], back.bias[i]) << i;
  }
}

} // namespace
