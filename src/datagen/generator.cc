#include "datagen/generator.h"

#include <algorithm>
#include <cmath>

#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/status.h"

namespace terids {

namespace {

/// Canonical (unperturbed) attribute values of one latent entity.
struct Entity {
  int topic = 0;
  // words[x] = canonical word list of attribute x; element 0 of attribute 0
  // is the topic marker keyword and is never perturbed.
  std::vector<std::vector<std::string>> words;
};

std::string WordName(int attr, int idx) {
  return "w" + std::to_string(attr) + "x" + std::to_string(idx);
}

std::string TopicKeyword(int topic) {
  return "topickw" + std::to_string(topic);
}

std::string CoreWord(int attr, int topic, int idx) {
  return "c" + std::to_string(attr) + "t" + std::to_string(topic) + "i" +
         std::to_string(idx);
}

Entity MakeEntity(const DatasetProfile& p, int topic, Rng* rng) {
  Entity e;
  e.topic = topic;
  const int d = p.num_attributes();
  e.words.resize(d);
  for (int x = 0; x < d; ++x) {
    const int count =
        static_cast<int>(rng->NextInt(p.min_tokens[x], p.max_tokens[x]));
    const int vocab = p.vocab_size[x];
    const int slice = std::max(1, vocab / p.num_topics);
    const double core_frac = x < static_cast<int>(p.topic_core_fraction.size())
                                 ? p.topic_core_fraction[x]
                                 : 0.0;
    const int core_count =
        static_cast<int>(std::lround(core_frac * count));
    if (x == 0) {
      e.words[x].push_back(TopicKeyword(topic));
    }
    // Shared topic core: identical tokens for every entity of the topic.
    // This is the cross-tuple attribute dependence CDD mining discovers
    // (e.g. all diabetes posts share diagnosis vocabulary).
    for (int i = 0; i < core_count; ++i) {
      e.words[x].push_back(CoreWord(x, topic, i));
    }
    // Entity-specific remainder: skewed draw from the topic's vocab slice
    // (70%) or the global vocabulary (30%).
    for (int i = core_count; i < count; ++i) {
      int idx;
      if (rng->NextBool(0.7)) {
        idx = topic * slice + static_cast<int>(rng->NextZipf(
                                  static_cast<uint64_t>(slice), 1.1));
      } else {
        idx = static_cast<int>(rng->NextBounded(vocab));
      }
      e.words[x].push_back(WordName(x, idx));
    }
  }
  return e;
}

/// Derives a record's raw attribute texts from an entity by token-wise
/// perturbation (the marker keyword is kept intact).
std::vector<std::string> PerturbEntity(const DatasetProfile& p,
                                       const Entity& e, Rng* rng) {
  const int d = p.num_attributes();
  std::vector<std::string> texts(d);
  for (int x = 0; x < d; ++x) {
    std::string text;
    for (size_t i = 0; i < e.words[x].size(); ++i) {
      const bool is_marker = (x == 0 && i == 0);
      std::string word = e.words[x][i];
      if (!is_marker && rng->NextBool(p.perturbation)) {
        if (rng->NextBool(0.25)) {
          continue;  // Token drop.
        }
        word = WordName(
            x, static_cast<int>(rng->NextBounded(p.vocab_size[x])));
      }
      if (!text.empty()) text += " ";
      text += word;
    }
    texts[x] = text;
  }
  return texts;
}

Record MakeRecord(const Schema& schema, Tokenizer* tokenizer, int64_t rid,
                  const std::vector<std::string>& texts) {
  Record r;
  r.rid = rid;
  r.values.resize(schema.num_attributes());
  for (int x = 0; x < schema.num_attributes(); ++x) {
    r.values[x].text = texts[x];
    r.values[x].tokens = tokenizer->Tokenize(texts[x]);
    r.values[x].missing = false;
  }
  return r;
}

}  // namespace

GeneratedDataset DataGenerator::Generate(const DatasetProfile& profile,
                                         const Options& options) {
  TERIDS_CHECK(options.scale > 0.0);
  GeneratedDataset ds;
  ds.name = profile.name;
  ds.schema = std::make_unique<Schema>(profile.attributes);
  ds.dict = std::make_unique<TokenDict>();
  Tokenizer tokenizer(ds.dict.get());
  Rng rng(options.seed);

  const int size_a = std::max(
      2, static_cast<int>(std::lround(profile.size_a * options.scale)));
  const int size_b = std::max(
      2, static_cast<int>(std::lround(profile.size_b * options.scale)));

  // Latent entities: one per source-A record, plus extras for unmatched
  // source-B records.
  std::vector<Entity> entities;
  entities.reserve(size_a + size_b);
  for (int i = 0; i < size_a; ++i) {
    entities.push_back(MakeEntity(
        profile, static_cast<int>(rng.NextBounded(profile.num_topics)), &rng));
  }

  for (int t = 0; t < profile.num_topics; ++t) {
    ds.topic_keywords.push_back(TopicKeyword(t));
  }

  // Source A: entity i -> rid i.
  for (int i = 0; i < size_a; ++i) {
    ds.source_a.push_back(
        MakeRecord(*ds.schema, &tokenizer, i,
                   PerturbEntity(profile, entities[i], &rng)));
  }

  // Source B: matched records duplicate a random A entity; the rest get
  // fresh entities.
  for (int i = 0; i < size_b; ++i) {
    const int64_t rid = size_a + i;
    if (rng.NextBool(profile.match_fraction)) {
      const int a_entity = static_cast<int>(rng.NextBounded(size_a));
      ds.source_b.push_back(
          MakeRecord(*ds.schema, &tokenizer, rid,
                     PerturbEntity(profile, entities[a_entity], &rng)));
      ds.ground_truth.push_back({a_entity, rid});
    } else {
      entities.push_back(MakeEntity(
          profile, static_cast<int>(rng.NextBounded(profile.num_topics)),
          &rng));
      ds.source_b.push_back(
          MakeRecord(*ds.schema, &tokenizer, rid,
                     PerturbEntity(profile, entities.back(), &rng)));
    }
  }

  // Repository pool: eta * (|A| + |B|) re-perturbed entity copies.
  const int repo_size = std::max(
      2, static_cast<int>(std::lround(options.repo_ratio * (size_a + size_b))));
  for (int i = 0; i < repo_size; ++i) {
    const Entity& e = entities[rng.NextBounded(entities.size())];
    ds.repo_records.push_back(MakeRecord(*ds.schema, &tokenizer, -1,
                                         PerturbEntity(profile, e, &rng)));
  }

  // Shuffle arrival orders within each source.
  rng.Shuffle(&ds.source_a);
  rng.Shuffle(&ds.source_b);
  return ds;
}

std::vector<Record> DataGenerator::WithMissing(
    const std::vector<Record>& records, double xi, int m, uint64_t seed) {
  TERIDS_CHECK(xi >= 0.0 && xi <= 1.0);
  TERIDS_CHECK(m >= 1);
  std::vector<Record> out = records;
  Rng rng(seed ^ 0x5eedbeefULL);
  for (Record& r : out) {
    if (!rng.NextBool(xi)) {
      continue;
    }
    const int d = r.num_attributes();
    const int missing_count = std::min(m, d - 1);  // Keep >= 1 attribute.
    std::vector<int> attrs(d);
    for (int x = 0; x < d; ++x) attrs[x] = x;
    rng.Shuffle(&attrs);
    for (int k = 0; k < missing_count; ++k) {
      r.values[attrs[k]] = AttrValue::Missing();
    }
  }
  return out;
}

}  // namespace terids
