// Seeded inputs of the served-workload benchmark. Everything the server
// receives — tables, statements, mutations — is generated here from the
// run's seed, so one seed always yields byte-identical streams.
#ifndef PREFBENCH_STREAMS_H_
#define PREFBENCH_STREAMS_H_

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "relation/relation.h"

namespace prefbench {

/// The feed's subscribed statements. Both are Pareto terms with
/// LOWEST(price), so every bargain insert (see MakeMutations) enters both
/// result sets and produces a delta frame.
inline constexpr const char* kSubscribeA =
    "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)";
inline constexpr const char* kSubscribeB =
    "SELECT * FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower) AND "
    "HIGHEST(year)";
/// Read on the feed's table without a subscription: every mutation
/// invalidates its exec-cache entry.
inline constexpr const char* kUnsubscribed =
    "SELECT oid, price, mileage, horsepower FROM car PREFERRING "
    "LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)";

/// Distinct ad-hoc analyst statements over the car table, drawn from six
/// templates (multi-dimensional skylines, AROUND, CASCADE over layered
/// categories, TOP k, GROUPING, SKYLINE OF ... LIMIT). Every constant is a
/// quantile of the table's own column values, chosen so that at least a
/// third of the rows pass each WHERE clause and no result is empty.
class AdhocStream {
 public:
  AdhocStream(const prefdb::Relation& cars, uint64_t seed);
  /// The next statement; never one this stream returned before.
  std::string Next();

 private:
  int64_t Quantile(const std::vector<int64_t>& sorted, double lo, double hi);
  std::string Draw();

  std::mt19937_64 rng_;
  std::vector<int64_t> price_, mileage_, horsepower_, year_;
  std::vector<std::string> categories_;
  std::unordered_set<std::string> seen_;
};

/// One write of the feed: an INSERT of `row`, or a DELETE of car `oid`.
struct Mutation {
  bool insert = true;
  prefdb::Tuple row;
  int64_t oid = 0;

  /// The DELETE statement against `table` (deletes only).
  std::string DeleteSql(const std::string& table) const;
};

/// `count` mutations, seven inserts to one delete. Inserts are unseen
/// cars (oids above the table's) from a GenerateCars pool; every second
/// one is a bargain priced below every car listed so far, so it enters
/// each subscribed LOWEST(price) skyline. A delete removes a uniformly
/// drawn live car, tracking earlier inserts and deletes of the stream.
std::vector<Mutation> MakeMutations(const prefdb::Relation& cars,
                                    uint64_t seed, size_t count);

/// Canonical bytes of a statement stream and a mutation stream, for
/// determinism checks.
std::string StreamBytes(const std::vector<std::string>& statements,
                        const std::vector<Mutation>& mutations);

}  // namespace prefbench

#endif  // PREFBENCH_STREAMS_H_
