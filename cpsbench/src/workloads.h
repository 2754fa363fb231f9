// The benchmark's two workloads. Each runs one seeded set-up-and-measure
// cycle and returns the metrics of an untraced run (end to end) or of a
// traced run (per layer); see README.md for what each one stresses.
#pragma once

#include "common.h"

namespace cpsbench {

/// serve_steady: closed-loop steady traffic through serve::Engine.
[[nodiscard]] Result run_serve(const RunArgs& args);

/// campaign: the paper's Gaussian and FGSM sweeps over the four monitors.
[[nodiscard]] Result run_campaign(const RunArgs& args);

}  // namespace cpsbench
