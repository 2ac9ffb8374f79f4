#include "serve/request.hpp"

#include <cstring>

#include "common/check.hpp"

namespace tlp::serve {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kRetried:
      return "retried";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kFailed:
      return "failed";
  }
  return "unknown";
}

ServedComparison compare_served(const std::vector<Response>& a,
                                const std::vector<Response>& b) {
  TLP_CHECK_MSG(a.size() == b.size(), "compare_served: " << a.size()
                                          << " vs " << b.size()
                                          << " responses");
  ServedComparison c;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].served() || !b[i].served()) continue;
    ++c.served_in_both;
    const std::vector<float>& x = a[i].output;
    const std::vector<float>& y = b[i].output;
    const bool same =
        x.size() == y.size() &&
        (x.empty() ||
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
    if (!same) c.mismatched.push_back(a[i].id);
  }
  return c;
}

}  // namespace tlp::serve
