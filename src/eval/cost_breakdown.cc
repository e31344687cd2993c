#include "eval/cost_breakdown.h"

#include <cstdio>

namespace terids {

CostBreakdown CostBreakdown::Scaled(double factor) const {
  CostBreakdown out;
  out.cdd_select_seconds = cdd_select_seconds * factor;
  out.impute_seconds = impute_seconds * factor;
  out.er_seconds = er_seconds * factor;
  out.refine_seconds = refine_seconds * factor;
  out.candidate_seconds = candidate_seconds * factor;
  out.queue_wait_seconds = queue_wait_seconds * factor;
  out.maintain_seconds = maintain_seconds * factor;
  return out;
}

CostBreakdown CostBreakdown::PerArrival(long long arrivals) const {
  if (arrivals <= 0) {
    return CostBreakdown();
  }
  return Scaled(1.0 / static_cast<double>(arrivals));
}

CostBreakdown::Shares CostBreakdown::PhaseShares() const {
  Shares shares;
  const double total = total_seconds();
  if (total <= 0.0) {
    return shares;
  }
  shares.cdd_select = cdd_select_seconds / total;
  shares.impute = impute_seconds / total;
  shares.er = er_seconds / total;
  return shares;
}

std::string CostBreakdown::ToJson() const {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"cdd_select_seconds\":%.9g,\"impute_seconds\":%.9g,"
                "\"er_seconds\":%.9g,\"refine_seconds\":%.9g,"
                "\"candidate_seconds\":%.9g,"
                "\"queue_wait_seconds\":%.9g,\"maintain_seconds\":%.9g,"
                "\"total_seconds\":%.9g}",
                cdd_select_seconds, impute_seconds, er_seconds,
                refine_seconds, candidate_seconds,
                queue_wait_seconds, maintain_seconds, total_seconds());
  return std::string(buf);
}

}  // namespace terids
