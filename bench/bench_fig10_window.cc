// Figure 10: TER-iDS efficiency vs the sliding-window size w.
//
// Paper values {500, 800, 1000, 2000, 3000} map to {100, 160, 200, 400,
// 600} under the 1/5 window scaling of the bench harness.

#include "bench_common.h"

int main() {
  using namespace terids;
  using namespace terids::bench;
  TimeSweep("Figure 10", "w", {100, 160, 200, 400, 600},
            [](ExperimentParams* p, double v) {
              p->w = static_cast<int>(v * BenchScale());
              if (p->w < 20) p->w = 20;
              p->max_arrivals = 4 * p->w;
            },
            AllPipelines());
  return 0;
}
