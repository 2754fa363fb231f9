#include "eval/batch_eval.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "util/contracts.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace cpsguard::eval {

namespace {

// Chunked fan-out (one gather copy per chunk) is only worth it when several
// chunks can actually run concurrently. Consults the *configured*
// parallelism only: a caller doing serial single-window predictions must
// never cause the process-wide pool to spawn its workers (parallel_for
// instantiates it lazily iff we actually fan out).
bool worth_chunking(int batch, int chunk) {
  return batch > 2 * chunk && util::effective_parallelism() > 1 &&
         !util::in_parallel_region();
}

}  // namespace

int argmax_row(std::span<const float> probs) {
  expects(!probs.empty(), "argmax over an empty probability row");
  int best = 0;
  for (int c = 0; c < static_cast<int>(probs.size()); ++c) {
    const float v = probs[static_cast<std::size_t>(c)];
    if (std::isnan(v)) {
      throw CpsError("batched_predict: NaN probability at class " +
                     std::to_string(c) +
                     " — NaN inputs must be rejected upstream (PR 5 NaN "
                     "policy), not classified");
    }
    if (v > probs[static_cast<std::size_t>(best)]) best = c;
  }
  return best;
}

namespace {

nn::Matrix batched_proba_impl(const monitor::MlMonitor& mon,
                              const nn::Tensor3& windows, int chunk,
                              bool prescaled) {
  expects(mon.trained(), "monitor not trained");
  expects(chunk > 0, "chunk size must be positive");
  const auto one_call = [&](const nn::Tensor3& x) {
    return prescaled ? mon.predict_proba_scaled(x) : mon.predict_proba(x);
  };
  const int batch = windows.batch();
  if (!worth_chunking(batch, chunk)) return one_call(windows);

  const int chunks = (batch + chunk - 1) / chunk;
  std::vector<nn::Matrix> parts(static_cast<std::size_t>(chunks));
  util::parallel_for(chunks, [&](int c) {
    const int b0 = c * chunk;
    const int b1 = std::min(batch, b0 + chunk);
    std::vector<int> idx(static_cast<std::size_t>(b1 - b0));
    std::iota(idx.begin(), idx.end(), b0);
    parts[static_cast<std::size_t>(c)] = one_call(windows.gather(idx));
  });

  const int classes = parts.front().cols();
  nn::Matrix out(batch, classes);
  int row = 0;
  for (const nn::Matrix& part : parts) {
    for (int r = 0; r < part.rows(); ++r, ++row) {
      std::copy(part.row(r).begin(), part.row(r).end(), out.row(row).begin());
    }
  }
  ensures(row == batch, "stitched row count must match the batch");
  return out;
}

}  // namespace

nn::Matrix batched_predict_proba(const monitor::MlMonitor& mon,
                                 const nn::Tensor3& raw_windows,
                                 int chunk) {
  return batched_proba_impl(mon, raw_windows, chunk, /*prescaled=*/false);
}

nn::Matrix batched_predict_proba_scaled(const monitor::MlMonitor& mon,
                                        const nn::Tensor3& scaled_windows,
                                        int chunk) {
  return batched_proba_impl(mon, scaled_windows, chunk, /*prescaled=*/true);
}

std::vector<int> batched_predict(const monitor::MlMonitor& mon,
                                 const nn::Tensor3& raw_windows,
                                 int chunk) {
  const nn::Matrix probs = batched_predict_proba(mon, raw_windows, chunk);
  std::vector<int> out(static_cast<std::size_t>(probs.rows()));
  for (int r = 0; r < probs.rows(); ++r) {
    try {
      out[static_cast<std::size_t>(r)] = argmax_row(probs.row(r));
    } catch (const CpsError& e) {
      throw CpsError("batched_predict: window " + std::to_string(r) + ": " +
                     e.what());
    }
  }
  return out;
}

}  // namespace cpsguard::eval
