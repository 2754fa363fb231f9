#include "nn/dropout.h"

#include "util/contracts.h"

namespace cpsguard::nn {

Dropout::Dropout(int size, double rate, util::Rng rng)
    : size_(size), rate_(rate), rng_(rng) {
  expects(rate >= 0.0 && rate < 1.0, "dropout rate must be in [0,1)");
}

Matrix Dropout::infer(const Matrix& x) const {
  expects(x.cols() == size_, "Dropout: width mismatch");
  return x;
}

Matrix Dropout::forward(const Matrix& x, bool training) {
  Matrix y = infer(x);
  mask_valid_ = training && rate_ != 0.0;
  if (!mask_valid_) return y;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_ = Matrix(x.rows(), x.cols());
  auto m = mask_.data();
  auto v = y.data();
  for (std::size_t i = 0; i < v.size(); ++i) {
    m[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    v[i] *= m[i];
  }
  return y;
}

Matrix Dropout::backward(const Matrix& dy) {
  if (!mask_valid_) return dy;  // inference-mode identity
  expects(dy.rows() == mask_.rows() && dy.cols() == mask_.cols(),
          "Dropout: backward shape mismatch");
  return hadamard(dy, mask_);
}

}  // namespace cpsguard::nn
