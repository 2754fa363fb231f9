#include "nn/serialize.h"

#include <algorithm>

#include "util/error.h"

namespace cpsguard::nn {

namespace {

void require_count(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    throw CpsError(std::string("tensor count mismatch: ") + what + " has " +
                   std::to_string(got) + ", model has " + std::to_string(want));
  }
}

void require_same(const Param& p, const std::string& name, int rows, int cols,
                  const char* what) {
  if (name != p.name || rows != p.value.rows() || cols != p.value.cols()) {
    throw CpsError("tensor mismatch at '" + p.name + "': " + what +
                   " has '" + name + "' " + std::to_string(rows) + "x" +
                   std::to_string(cols));
  }
}

}  // namespace

void bind_params(std::span<Param* const> params,
                 std::span<const WeightView> views) {
  require_count(views.size(), params.size(), "artifact");
  for (std::size_t i = 0; i < params.size(); ++i) {
    const WeightView& v = views[i];
    require_same(*params[i], v.name, v.rows, v.cols, "artifact");
    params[i]->value = Matrix::view(v.data, v.rows, v.cols);
  }
}

void copy_params(std::span<Param* const> src, std::span<Param* const> dst) {
  require_count(src.size(), dst.size(), "source");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const Param& s = *src[i];
    require_same(*dst[i], s.name, s.value.rows(), s.value.cols(), "source");
    const std::span<const float> from = s.value.data();
    std::copy(from.begin(), from.end(), dst[i]->value.data().begin());
  }
}

}  // namespace cpsguard::nn
