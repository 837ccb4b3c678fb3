// Per-feature attribution for PCA-FRE detections.
//
// A verdict alone ("flow 8123 is an attack") is not actionable; operators
// ask *which features* made it anomalous. For an FRE score
// ||h - T^{-1}(T(h))||^2 the exact additive decomposition over latent
// features is the squared residual per dimension; this module maps that
// back to a ranked list. For CND-IDS the attribution lives in the CFE's
// latent space; for raw-feature PCA it lands directly on input features.
#pragma once

#include <string>
#include <vector>

#include "ml/pca.hpp"
#include "tensor/matrix.hpp"

namespace cnd::core {

struct FeatureAttribution {
  std::size_t feature = 0;   ///< index in the scored space.
  double contribution = 0.0; ///< additive share of the FRE score.
  double fraction = 0.0;     ///< contribution / total score.
};

/// Exact additive decomposition of each row's FRE over the scored space's
/// dimensions. attributions[i] is sorted by descending contribution and
/// truncated to `top_k` (0 = keep all).
std::vector<std::vector<FeatureAttribution>> explain_fre(
    const ml::Pca& pca, const Matrix& x, std::size_t top_k = 5);

class ContinualDetector;

/// explain_fre for a CND-IDS detector, trained or restored from a snapshot:
/// encode `x` with its CFE encoder and decompose its PCA head's FRE in the
/// latent space. An Adaptive detector is explained through its inner
/// CND-IDS. Throws std::invalid_argument for any other detector.
std::vector<std::vector<FeatureAttribution>> explain_detector(
    const ContinualDetector& det, const Matrix& x, std::size_t top_k = 5);

/// One-line rendering, e.g. "f3 (62%), f7 (21%), f1 (9%)".
std::string format_attribution(const std::vector<FeatureAttribution>& attr,
                               const std::vector<std::string>& names = {});

}  // namespace cnd::core
