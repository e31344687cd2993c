#include "er/probability.h"

#include "er/similarity.h"
#include "util/status.h"

namespace terids {

RefineResult RefineProbability(const ImputedTuple& a,
                               const TopicQuery::TupleTopic& a_topic,
                               const ImputedTuple& b,
                               const TopicQuery::TupleTopic& b_topic,
                               double gamma, double alpha,
                               SigFilterCounters* sig_counters) {
  RefineResult result;
  // Unprocessed mass starts at the full joint mass; Theorem 4.4's
  // overestimate treats every unprocessed instance pair as a match.
  double remaining = a.total_prob() * b.total_prob();
  for (int m = 0; m < a.num_instances(); ++m) {
    const double pa = a.instance_prob(m);
    const bool ta = a_topic.instance_matches[m];
    for (int mp = 0; mp < b.num_instances(); ++mp) {
      const double joint = pa * b.instance_prob(mp);
      remaining -= joint;
      ++result.pairs_evaluated;
      const bool topical = ta || b_topic.instance_matches[mp];
      if (topical &&
          InstanceSimilarityExceeds(a, m, b, mp, gamma, sig_counters)) {
        result.probability += joint;
      }
      if (result.probability > alpha) {
        result.early_accepted = true;
        return result;
      }
      if (result.probability + remaining <= alpha) {
        result.early_pruned = true;
        return result;
      }
    }
  }
  return result;
}

double ExactProbability(const ImputedTuple& a,
                        const TopicQuery::TupleTopic& a_topic,
                        const ImputedTuple& b,
                        const TopicQuery::TupleTopic& b_topic, double gamma) {
  double prob = 0.0;
  for (int m = 0; m < a.num_instances(); ++m) {
    const double pa = a.instance_prob(m);
    const bool ta = a_topic.instance_matches[m];
    for (int mp = 0; mp < b.num_instances(); ++mp) {
      const bool topical = ta || b_topic.instance_matches[mp];
      if (topical && InstanceSimilarity(a, m, b, mp) > gamma) {
        prob += pa * b.instance_prob(mp);
      }
    }
  }
  return prob;
}

}  // namespace terids
