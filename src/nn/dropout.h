// Inverted dropout: active only in training mode, identity at inference.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace cpsguard::nn {

class Dropout : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1).
  Dropout(int size, double rate, util::Rng rng);

  /// Inference is the identity.
  [[nodiscard]] Matrix infer(const Matrix& x) const override;
  Matrix forward(const Matrix& x, bool training) override;
  Matrix backward(const Matrix& dy) override;

  [[nodiscard]] std::string name() const override { return "Dropout"; }
  [[nodiscard]] int input_size() const override { return size_; }
  [[nodiscard]] int output_size() const override { return size_; }

 private:
  int size_;
  double rate_;
  util::Rng rng_;
  Matrix mask_;
  bool mask_valid_ = false;
};

}  // namespace cpsguard::nn
