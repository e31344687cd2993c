// The paper's motivating scenario (Example 1): online health community
// support. Posts from two health forums arrive as incomplete streams
// (extraction sometimes loses the diagnosis or treatment); a medical
// professional subscribes to diabetes-related topics; TER-iDS continuously
// reports matching post pairs for that topic.
//
// Everything is built by hand here — no generator — to show the public API
// on concrete data shaped like the paper's Table 1.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/terids_engine.h"
#include "pivot/pivot_selector.h"
#include "rules/rule_miner.h"
#include "text/tokenizer.h"

using namespace terids;

namespace {

Record MakePost(const Schema& schema, TokenDict* dict, int64_t rid, int forum,
                const std::vector<std::string>& texts) {
  Tokenizer tok(dict);
  Record r;
  r.rid = rid;
  r.stream_id = forum;
  r.values.resize(schema.num_attributes());
  for (int x = 0; x < schema.num_attributes(); ++x) {
    if (texts[x] == "-") {
      r.values[x] = AttrValue::Missing();  // lost by information extraction
    } else {
      r.values[x].text = texts[x];
      r.values[x].tokens = tok.Tokenize(texts[x]);
    }
  }
  return r;
}

}  // namespace

int main() {
  Schema schema(std::vector<std::string>{"gender", "symptom", "diagnosis",
                                         "treatment"});
  TokenDict dict;

  // Historical complete repository R (collected from past posts).
  Repository repo(&schema, &dict);
  const std::vector<std::vector<std::string>> history = {
      {"male", "loss of weight", "diabetes", "dietary therapy drug therapy"},
      {"male", "loss of weight blurred vision", "diabetes", "drug therapy"},
      {"male", "blurred vision thirst", "diabetes", "drug therapy"},
      {"male", "loss of weight thirst", "diabetes", "dietary therapy"},
      {"female", "fever low spirit cough", "pneumonia", "antibiotics rest"},
      {"male", "fever poor appetite cough", "flu", "drink more sleep more"},
      {"female", "fever cough", "flu", "sleep more"},
      {"male", "fever cough headache", "flu", "drink more"},
      {"female", "red eye eye itchy shed tears", "conjunctivitis", "eye drop"},
      {"female", "eye itchy red eye", "conjunctivitis", "eye drop rest"},
  };
  for (size_t i = 0; i < history.size(); ++i) {
    TERIDS_CHECK(repo.AddSample(MakePost(schema, &dict, 1000 + i, 0,
                                         history[i]))
                     .ok());
  }

  // Offline phase: pivots (Section 5.4) and CDD rules (Section 2.2).
  PivotSelector selector(&repo, PivotOptions{});
  repo.AttachPivots(selector.SelectAll());
  MinerOptions mopts;
  mopts.min_support = 2;
  mopts.min_const_freq = 2;
  RuleMiner miner(&repo, mopts);
  std::vector<CddRule> cdds = miner.MineCdds();
  std::printf("mined %zu CDD rules, e.g.:\n", cdds.size());
  for (size_t i = 0; i < cdds.size() && i < 3; ++i) {
    std::printf("  %s\n", cdds[i].ToString(schema).c_str());
  }

  // The professional's subscription: diabetes-related posts, similarity
  // threshold gamma = 2.2 of d = 4, alpha = 0.4.
  EngineConfig config;
  config.keywords = {"diabetes"};
  config.gamma = 2.2;
  config.alpha = 0.4;
  config.window_size = 8;
  TerIdsEngine engine(&repo, config, /*num_streams=*/2, cdds);

  // The live streams: posts a1, a2, ... from forum A interleaved with
  // b1, b2, ... from forum B (Table 1 of the paper; note a2's missing
  // diagnosis/treatment).
  const std::vector<Record> posts = {
      MakePost(schema, &dict, 1, 0,
               {"male", "loss of weight", "diabetes",
                "dietary therapy drug therapy"}),                      // a1
      MakePost(schema, &dict, 101, 1,
               {"female", "fever low spirit cough", "pneumonia", "-"}),  // b1
      MakePost(schema, &dict, 2, 0,
               {"male", "loss of weight blurred vision", "-", "-"}),     // a2
      MakePost(schema, &dict, 102, 1,
               {"male", "fever poor appetite cough", "flu",
                "drink more sleep more"}),                               // b2
      MakePost(schema, &dict, 3, 0,
               {"female", "red eye eye itchy shed tears", "conjunctivitis",
                "eye drop"}),                                            // c1
      MakePost(schema, &dict, 103, 1,
               {"male", "loss of weight thirst", "diabetes",
                "drug therapy"}),                                        // c2
  };

  std::printf(
      "\nstreaming posts (K = {diabetes}, gamma = %.1f, alpha = %.1f):\n",
      config.gamma, config.alpha);
  for (const Record& post : posts) {
    ArrivalOutcome outcome = engine.ProcessArrival(post);
    std::printf("  t=%lld forum %d post %lld (%s)",
                static_cast<long long>(post.timestamp), post.stream_id,
                static_cast<long long>(post.rid),
                post.IsComplete() ? "complete" : "incomplete -> imputed");
    if (outcome.new_matches.empty()) {
      std::printf(" : no new matches\n");
    } else {
      for (const MatchPair& m : outcome.new_matches) {
        std::printf(" : MATCH (%lld, %lld) Pr=%.2f",
                    static_cast<long long>(m.rid_a),
                    static_cast<long long>(m.rid_b), m.probability);
      }
      std::printf("\n");
    }
  }

  std::printf("\nfinal topic-related entity set ES (%zu pairs):\n",
              engine.results().size());
  for (const MatchPair& m : engine.results().ToVector()) {
    std::printf("  (%lld, %lld) with probability %.2f\n",
                static_cast<long long>(m.rid_a),
                static_cast<long long>(m.rid_b), m.probability);
  }
  return 0;
}
