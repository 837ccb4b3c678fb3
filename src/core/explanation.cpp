#include "core/explanation.hpp"

#include <algorithm>
#include <sstream>

#include "core/adaptive_cnd_ids.hpp"
#include "core/cnd_ids.hpp"
#include "tensor/assert.hpp"

namespace cnd::core {

std::vector<std::vector<FeatureAttribution>> explain_fre(const ml::Pca& pca,
                                                         const Matrix& x,
                                                         std::size_t top_k) {
  require(pca.fitted(), "explain_fre: PCA not fitted");
  const Matrix recon = pca.inverse_transform(pca.transform(x));

  std::vector<std::vector<FeatureAttribution>> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto xr = x.row(i);
    auto rr = recon.row(i);
    double total = 0.0;
    std::vector<FeatureAttribution> attr(x.cols());
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double d = xr[j] - rr[j];
      attr[j].feature = j;
      attr[j].contribution = d * d;
      total += d * d;
    }
    const double denom = std::max(total, 1e-300);
    for (auto& a : attr) a.fraction = a.contribution / denom;
    std::sort(attr.begin(), attr.end(),
              [](const FeatureAttribution& a, const FeatureAttribution& b) {
                return a.contribution > b.contribution;
              });
    if (top_k > 0 && attr.size() > top_k) attr.resize(top_k);
    out[i] = std::move(attr);
  }
  return out;
}

std::vector<std::vector<FeatureAttribution>> explain_detector(
    const ContinualDetector& det, const Matrix& x, std::size_t top_k) {
  const auto* cnd = dynamic_cast<const CndIds*>(&det);
  if (const auto* adaptive = dynamic_cast<const AdaptiveCndIds*>(&det))
    cnd = &adaptive->detector();
  require(cnd != nullptr, "explain_detector: " + det.name() +
                              " has no CND-IDS encoder and PCA head to explain");
  nn::Sequential encoder = cnd->cfe().autoencoder().encoder_copy();
  return explain_fre(cnd->pca(), encoder.forward(x, /*train=*/false), top_k);
}

std::string format_attribution(const std::vector<FeatureAttribution>& attr,
                               const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t k = 0; k < attr.size(); ++k) {
    if (k) os << ", ";
    if (attr[k].feature < names.size())
      os << names[attr[k].feature];
    else
      os << "f" << attr[k].feature;
    os << " (" << static_cast<int>(attr[k].fraction * 100.0 + 0.5) << "%)";
  }
  return os.str();
}

}  // namespace cnd::core
