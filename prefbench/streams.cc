#include "streams.h"

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <set>

#include "datagen/cars.h"
#include "server/protocol.h"

namespace prefbench {

using prefdb::Relation;
using prefdb::Tuple;
using prefdb::Value;

namespace {

std::vector<int64_t> SortedColumn(const Relation& r, const char* name) {
  const size_t col = *r.schema().IndexOf(name);
  std::vector<int64_t> out;
  out.reserve(r.size());
  for (size_t i = 0; i < r.size(); ++i) out.push_back(r.ValueAt(i, col).as_int());
  std::sort(out.begin(), out.end());
  return out;
}

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

AdhocStream::AdhocStream(const Relation& cars, uint64_t seed)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 11),
      price_(SortedColumn(cars, "price")),
      mileage_(SortedColumn(cars, "mileage")),
      horsepower_(SortedColumn(cars, "horsepower")),
      year_(SortedColumn(cars, "year")) {
  const size_t col = *cars.schema().IndexOf("category");
  std::set<std::string> categories;
  for (size_t i = 0; i < cars.size(); ++i) {
    categories.insert(cars.ValueAt(i, col).as_string());
  }
  categories_.assign(categories.begin(), categories.end());
}

int64_t AdhocStream::Quantile(const std::vector<int64_t>& sorted, double lo,
                              double hi) {
  std::uniform_real_distribution<double> q(lo, hi);
  size_t at = static_cast<size_t>(q(rng_) * static_cast<double>(sorted.size()));
  return sorted[std::min(at, sorted.size() - 1)];
}

std::string AdhocStream::Draw() {
  std::uniform_int_distribution<int> pick_template(0, 5);
  switch (pick_template(rng_)) {
    case 0: {
      // Multi-dimensional skyline over three or four of six criteria.
      static const char* kDims[] = {
          "LOWEST(price)",     "LOWEST(mileage)",
          "HIGHEST(horsepower)", "HIGHEST(year)",
          "HIGHEST(fuel_economy)", "LOWEST(insurance_rating)"};
      std::vector<int> dims = {0, 1, 2, 3, 4, 5};
      std::shuffle(dims.begin(), dims.end(), rng_);
      const size_t d = std::uniform_int_distribution<size_t>(3, 4)(rng_);
      std::string term;
      for (size_t i = 0; i < d; ++i) {
        term += (i > 0 ? " AND " : "") + std::string(kDims[dims[i]]);
      }
      return Fmt("SELECT oid, price, mileage, horsepower, year FROM car "
                 "WHERE price < %lld PREFERRING %s",
                 static_cast<long long>(Quantile(price_, 0.4, 0.95)),
                 term.c_str());
    }
    case 1:
      return Fmt("SELECT oid, price, mileage FROM car WHERE year >= %lld "
                 "PREFERRING price AROUND %lld AND LOWEST(mileage)",
                 static_cast<long long>(Quantile(year_, 0.0, 0.6)),
                 static_cast<long long>(Quantile(price_, 0.1, 0.9)));
    case 2: {
      std::uniform_int_distribution<size_t> cat(0, categories_.size() - 1);
      const size_t c1 = cat(rng_);
      size_t c2 = cat(rng_);
      if (c2 == c1) c2 = (c1 + 1) % categories_.size();
      return Fmt("SELECT oid, category, price, mileage FROM car WHERE "
                 "mileage < %lld PREFERRING (category = '%s' ELSE category = "
                 "'%s') CASCADE price AROUND %lld CASCADE LOWEST(mileage)",
                 static_cast<long long>(Quantile(mileage_, 0.35, 0.95)),
                 categories_[c1].c_str(), categories_[c2].c_str(),
                 static_cast<long long>(Quantile(price_, 0.1, 0.9)));
    }
    case 3:
      return Fmt("SELECT TOP %zu oid, price, mileage FROM car WHERE "
                 "horsepower > %lld PREFERRING LOWEST(price) AND "
                 "LOWEST(mileage)",
                 std::uniform_int_distribution<size_t>(5, 50)(rng_),
                 static_cast<long long>(Quantile(horsepower_, 0.0, 0.6)));
    case 4:
      return Fmt("SELECT oid, category, price, year FROM car WHERE price < "
                 "%lld PREFERRING LOWEST(price) AND HIGHEST(year) GROUPING "
                 "category",
                 static_cast<long long>(Quantile(price_, 0.4, 0.95)));
    default:
      return Fmt("SELECT oid, price, mileage, horsepower FROM car WHERE "
                 "year >= %lld SKYLINE OF price MIN, mileage MIN, "
                 "horsepower MAX LIMIT %zu",
                 static_cast<long long>(Quantile(year_, 0.0, 0.6)),
                 std::uniform_int_distribution<size_t>(5, 100)(rng_));
  }
}

std::string AdhocStream::Next() {
  for (;;) {
    std::string sql = Draw();
    if (seen_.insert(sql).second) return sql;
  }
}

std::string Mutation::DeleteSql(const std::string& table) const {
  return "DELETE FROM " + table + " WHERE oid = " + std::to_string(oid);
}

std::vector<Mutation> MakeMutations(const Relation& cars, uint64_t seed,
                                    size_t count) {
  const size_t oid_col = *cars.schema().IndexOf("oid");
  const size_t price_col = *cars.schema().IndexOf("price");
  std::vector<int64_t> live;
  live.reserve(cars.size() + count);
  int64_t max_oid = 0;
  int64_t min_price = INT64_MAX;
  for (size_t i = 0; i < cars.size(); ++i) {
    live.push_back(cars.ValueAt(i, oid_col).as_int());
    max_oid = std::max(max_oid, live.back());
    min_price = std::min(min_price, cars.ValueAt(i, price_col).as_int());
  }
  const Relation pool = prefdb::GenerateCars(count, seed + 0x5EED);
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ULL + 7);
  std::vector<Mutation> out;
  out.reserve(count);
  size_t inserts = 0;
  for (size_t i = 0; i < count; ++i) {
    Mutation m;
    if (i % 8 == 7 && !live.empty()) {
      m.insert = false;
      size_t at = std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng);
      m.oid = live[at];
      live[at] = live.back();
      live.pop_back();
    } else {
      m.row = pool.RowAt(inserts);
      m.row[oid_col] = Value(++max_oid);
      if (inserts % 2 == 0) m.row[price_col] = Value(--min_price);
      live.push_back(max_oid);
      ++inserts;
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::string StreamBytes(const std::vector<std::string>& statements,
                        const std::vector<Mutation>& mutations) {
  std::string out;
  for (const std::string& sql : statements) out += sql + "\n";
  for (const Mutation& m : mutations) {
    if (m.insert) {
      out += "I ";
      prefdb::server::EncodeRow(m.row, &out);
    } else {
      out += m.DeleteSql("car") + "\n";
    }
  }
  return out;
}

}  // namespace prefbench
