#include "nn/io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace pcnna::nn {
namespace {

constexpr char kMagic[4] = {'P', 'C', 'N', 'T'};
constexpr std::uint32_t kVersion = 1;

void write_u64(std::ofstream& out, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(bytes), 8);
}

std::uint64_t read_u64(std::ifstream& in) {
  unsigned char bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  PCNNA_CHECK_MSG(in.good(), "tensor file truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return v;
}

} // namespace

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("save_tensor: cannot open '" + path + "'");
  out.write(kMagic, 4);
  write_u64(out, kVersion);
  const Shape4& s = t.shape();
  write_u64(out, s.n);
  write_u64(out, s.c);
  write_u64(out, s.h);
  write_u64(out, s.w);
  for (double v : t.data()) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    write_u64(out, bits);
  }
  if (!out) throw Error("save_tensor: write to '" + path + "' failed");
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("load_tensor: cannot open '" + path + "'");
  char magic[4];
  in.read(magic, 4);
  PCNNA_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 4) == 0,
                  "'" << path << "' is not a PCNT tensor file");
  const std::uint64_t version = read_u64(in);
  PCNNA_CHECK_MSG(version == kVersion,
                  "'" << path << "': unsupported version " << version);
  Shape4 shape;
  shape.n = read_u64(in);
  shape.c = read_u64(in);
  shape.h = read_u64(in);
  shape.w = read_u64(in);
  // Every dimension and their running product stay in (0, 2^34): a product
  // that wrapped past 2^64 would load a tensor whose shape is a lie.
  constexpr std::uint64_t kMaxElements = (1ull << 34) - 1;
  std::uint64_t elements = 1;
  for (const std::uint64_t dim : {shape.n, shape.c, shape.h, shape.w}) {
    PCNNA_CHECK_MSG(dim > 0 && dim <= kMaxElements / elements,
                    "'" << path << "': implausible shape " << shape.n << "x"
                        << shape.c << "x" << shape.h << "x" << shape.w);
    elements *= dim;
  }
  // The values must be exactly what the file still holds — checked before
  // the allocation, so a lying header cannot ask for gigabytes.
  const std::streampos values_at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t remaining =
      static_cast<std::uint64_t>(in.tellg() - values_at);
  in.seekg(values_at);
  PCNNA_CHECK_MSG(remaining == elements * 8,
                  "'" << path << "': shape claims " << elements * 8
                      << " bytes of values but the file holds " << remaining);
  std::vector<double> data(elements);
  for (double& v : data) {
    const std::uint64_t bits = read_u64(in);
    std::memcpy(&v, &bits, 8);
  }
  return Tensor(shape, std::move(data));
}

void save_network_weights(const std::string& directory,
                          const std::string& prefix,
                          const NetWeights& weights) {
  for (std::size_t i = 0; i < weights.weight.size(); ++i) {
    if (weights.weight[i].empty()) continue;
    const std::string base = directory + "/" + prefix + "_";
    save_tensor(base + "w" + std::to_string(i) + ".pcnt", weights.weight[i]);
    if (!weights.bias[i].empty())
      save_tensor(base + "b" + std::to_string(i) + ".pcnt", weights.bias[i]);
  }
}

NetWeights load_network_weights(const std::string& directory,
                                const std::string& prefix,
                                const Network& net) {
  NetWeights weights;
  weights.weight.resize(net.ops().size());
  weights.bias.resize(net.ops().size());
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    const OpKind kind = net.ops()[i].kind;
    if (kind != OpKind::kConv && kind != OpKind::kFullyConnected) continue;
    const std::string base = directory + "/" + prefix + "_";
    weights.weight[i] = load_tensor(base + "w" + std::to_string(i) + ".pcnt");
    weights.bias[i] = load_tensor(base + "b" + std::to_string(i) + ".pcnt");
  }
  return weights;
}

} // namespace pcnna::nn
