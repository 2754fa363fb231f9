// Weight plumbing between classifiers and external storage. Models persist
// only as cpsguard.model.v1 artifacts (src/registry); this header binds a
// classifier's params to an artifact's tensors and deep-copies params
// between two classifiers of the same shape.
#pragma once

#include <span>
#include <string>

#include "nn/classifier.h"

namespace cpsguard::nn {

/// One named tensor living in externally owned storage (an mmap'd model
/// artifact).
struct WeightView {
  std::string name;
  int rows = 0;
  int cols = 0;
  const float* data = nullptr;
};

/// Rebind each param's value as a non-owning Matrix view over the matching
/// WeightView — no float is copied. Names, order and shapes must match the
/// classifier exactly; throws CpsError otherwise. The backing storage must
/// outlive the classifier; bound params are inference-only (mutation trips
/// the borrowed-matrix contract).
void bind_params(std::span<Param* const> params,
                 std::span<const WeightView> views);

/// Copy every value float of `src` into the owned storage of `dst` (raw
/// floats, so the copy is bit-identical). Names, order and shapes must
/// match exactly; throws CpsError otherwise. `src` may be view-bound.
void copy_params(std::span<Param* const> src, std::span<Param* const> dst);

}  // namespace cpsguard::nn
