// Index construction on the cluster (Section 7.5 of the paper).
//
// For every (attribute, tokenization) pair referenced by the positive rule Q,
// three MapReduce jobs run in sequence over A's interned token sets: (1)
// count token frequencies, (2) sort tokens into the global ordering, (3)
// reorder every A-row and build the inverted + length indexes. Hash and
// B-tree indexes for equivalence/range filters are built by map-only jobs.
// The builder is incremental: indexes already present in the catalog are
// skipped — this is exactly what makes the masking optimization O1 pay off
// (indexes prebuilt during crowdsourcing are found and reused here).
#ifndef FALCON_BLOCKING_INDEX_BUILDER_H_
#define FALCON_BLOCKING_INDEX_BUILDER_H_

#include <vector>

#include "blocking/filters.h"
#include "mapreduce/cluster.h"
#include "rules/rule.h"

namespace falcon {

/// Builds catalog indexes over table A via simulated MapReduce jobs. Token
/// indexes read A's interned token sets from the feature set's token
/// stores; they must be set before Ensure() builds one.
class IndexBuilder {
 public:
  /// `a`, `fs` and `cluster` must outlive the builder.
  IndexBuilder(const Table* a, const FeatureSet* fs, Cluster* cluster)
      : a_(a), fs_(fs), cluster_(cluster) {}

  /// Distinct index needs of the keep-predicates of `rule`.
  static std::vector<IndexNeed> NeedsOfCnf(const CnfRule& rule,
                                           const FeatureSet& fs);
  /// Needs of one drop-rule (via its complemented predicates).
  static std::vector<IndexNeed> NeedsOfRule(const Rule& rule,
                                            const FeatureSet& fs);
  /// Rule-independent needs the masking optimizer can prebuild during
  /// al_matcher: hash indexes for every corresponded A attribute, B-tree
  /// indexes for numeric ones, and token orderings for string ones
  /// (Section 10.2, optimization 1).
  static std::vector<IndexNeed> GenericNeeds(const FeatureSet& fs);

  /// Ensures every need is present in `catalog`, running MR jobs for the
  /// missing ones. Returns the virtual time spent (zero if all present).
  VDuration Ensure(const std::vector<IndexNeed>& needs, IndexCatalog* catalog);

 private:
  VDuration BuildHash(int col_a, IndexCatalog* catalog);
  VDuration BuildBTree(int col_a, IndexCatalog* catalog);
  VDuration BuildOrdering(int col_a, Tokenization tok, IndexCatalog* catalog);
  VDuration BuildTokenBundle(int col_a, Tokenization tok,
                             IndexCatalog* catalog);
  /// A's token-set view for (col_a, tok).
  const TokenSetView& AView(int col_a, Tokenization tok) const;

  const Table* a_;
  const FeatureSet* fs_;
  Cluster* cluster_;
};

}  // namespace falcon

#endif  // FALCON_BLOCKING_INDEX_BUILDER_H_
