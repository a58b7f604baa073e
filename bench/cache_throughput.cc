// Caching-tier throughput: ExecuteBatch queries/sec of a CachingEngine
// over BOTH backend shapes (one-shard and 2-shard QueryEngine)
// across Zipf exponents × cache capacities.
//
// The workload models a repeated-hot-spot query log: a finite pool of
// distinct query points is sampled with Zipf-rank repetition, so the rank-r
// point recurs with probability ∝ 1/(r+1)^s. Exponent 0 spreads queries
// uniformly over the pool (worst case for a cache, every point equally
// warm); higher exponents concentrate traffic on a few points the cache
// can memoize. Capacity 0 is the pass-through baseline each (backend,
// exponent) row's speedup is measured against; a capacity below the pool
// size exercises LRU eviction under load, a capacity above it reaches the
// steady state where every distinct point is memoized.
//
// The cache serves exact memoized answers (see caching_engine.h for the
// exactness contract), so the speedup column is pure recomputation
// avoided, not an approximation trade.
//
// Timed regions repeat to the PVERIFY_MIN_WALL_MS floor (default 100 ms);
// the cache is warmed with one untimed pass first, so rows measure the
// steady state. Results land in BENCH_cache.json for CI trend tracking.
//
// Environment overrides: PVERIFY_QUERIES, PVERIFY_DATASET,
// PVERIFY_THREADS (first entry = worker threads), PVERIFY_MIN_WALL_MS.
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "bench_util/harness.h"
#include "engine/caching_engine.h"

using namespace pverify;

namespace {

/// Samples `count` query points from a finite pool with Zipf-rank
/// repetition: pool rank r is drawn with probability ∝ 1/(r+1)^exponent.
/// Unlike datagen::MakeQueryPointsZipf (which scatters every sample around
/// a hotspot, making each point unique), this repeats EXACT points — the
/// access pattern an exact-match cache can serve.
std::vector<double> SampleZipfStream(const std::vector<double>& pool,
                                     size_t count, double exponent,
                                     uint64_t seed) {
  std::vector<double> weights(pool.size());
  for (size_t r = 0; r < pool.size(); ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), exponent);
  }
  std::discrete_distribution<size_t> rank(weights.begin(), weights.end());
  std::mt19937_64 rng(seed);
  std::vector<double> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) stream.push_back(pool[rank(rng)]);
  return stream;
}

std::unique_ptr<Engine> MakeBackend(const std::string& name,
                                    const Dataset& data, size_t threads) {
  EngineOptions eopt;
  eopt.num_threads = threads;
  if (name == "sharded") eopt.num_shards = 2;
  return std::make_unique<QueryEngine>(data, eopt);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Caching-tier throughput across Zipf skew and cache capacity",
      "Queries/sec of a CachingEngine over both backends on a Zipf-repeated\n"
      "query stream (finite pool of distinct points, rank-skewed repetition;\n"
      "VR strategy, P=0.3, Δ=0.01). Capacity 0 = pass-through baseline per\n"
      "(backend, exponent); hit_rate is the fraction of cacheable lookups\n"
      "served from memory during the timed region.");

  const size_t queries = bench::QueriesFromEnv(256);
  const size_t dataset_size = bench::DatasetSizeFromEnv(20000);
  const double min_wall_ms = bench::MinWallMsFromEnv();
  const size_t threads = bench::ThreadCountsFromEnv({4})[0];
  const size_t pool_size = 64;  // distinct query points in the workload

  std::printf(
      "dataset: %zu objects, %zu queries/rep over %zu distinct points, "
      "%zu worker threads, floor: %.0f ms\n\n",
      dataset_size, queries, pool_size, threads, min_wall_ms);

  bench::BenchJsonWriter json("cache_throughput", "BENCH_cache.json");
  json.Config("queries", static_cast<double>(queries));
  json.Config("dataset", static_cast<double>(dataset_size));
  json.Config("pool_size", static_cast<double>(pool_size));
  json.Config("threads", static_cast<double>(threads));
  json.Config("min_wall_ms", min_wall_ms);

  bench::Environment env = bench::MakeDefaultEnvironment(
      datagen::PdfKind::kUniform, pool_size, dataset_size);

  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;

  const std::vector<double> exponents = {0.0, 0.5, 1.0};
  // Pass-through baseline, eviction-bound (capacity < pool), steady state.
  const std::vector<size_t> capacities = {0, 16, 4096};

  ResultTable table({"backend", "zipf_s", "capacity", "reps", "wall_ms",
                     "queries_per_sec", "hit_rate", "cache_speedup"},
                    "cache_throughput.csv");

  for (const char* backend_name : {"unsharded", "sharded"}) {
    for (double exponent : exponents) {
      const std::vector<double> stream =
          SampleZipfStream(env.query_points, queries, exponent,
                           /*seed=*/211);
      double baseline_qps = 0.0;
      for (size_t capacity : capacities) {
        std::unique_ptr<Engine> backend =
            MakeBackend(backend_name, env.dataset, threads);
        CachingEngineOptions copt;
        copt.capacity = capacity;
        CachingEngine cached(*backend, copt);

        // Untimed warm-up: spawn the pool, size the scratches, populate
        // the cache so the floored loop measures the steady state.
        bench::TimeBatch(cached, stream, opt);
        const CacheStats before = cached.GetCacheStats();
        bench::ThroughputPoint point =
            bench::TimeBatchFloored(cached, stream, opt, min_wall_ms);
        const CacheStats after = cached.GetCacheStats();

        const size_t lookups = (after.hits - before.hits) +
                               (after.misses - before.misses) +
                               (after.rechecks - before.rechecks);
        const double hit_rate =
            lookups > 0
                ? static_cast<double>(after.hits - before.hits) / lookups
                : 0.0;
        const bool is_base = capacity == 0;
        if (is_base) baseline_qps = point.Qps();
        const double speedup =
            baseline_qps > 0.0 ? point.Qps() / baseline_qps : 0.0;

        table.AddRow({backend_name, FormatDouble(exponent, 1),
                      std::to_string(capacity), std::to_string(point.reps),
                      FormatDouble(point.wall_ms, 2),
                      FormatDouble(point.Qps(), 1),
                      FormatDouble(hit_rate, 3), FormatDouble(speedup, 2)});
        json.BeginResult();
        json.Field("section", "cache_sweep");
        json.Field("backend", backend_name);
        json.Field("zipf_exponent", exponent);
        json.Field("capacity", static_cast<double>(capacity));
        json.Field("threads", static_cast<double>(threads));
        json.Field("reps", static_cast<double>(point.reps));
        json.Field("wall_ms", point.wall_ms);
        json.Field("qps", point.Qps());
        json.Field("hit_rate", hit_rate);
        json.Field("speedup", speedup);
      }
    }
  }
  table.Print();
  json.Write();

  std::printf(
      "\nNote: the capacity-0 rows are the uncached pass-through baseline.\n"
      "Speedup grows with the Zipf exponent (more of the stream repeats the\n"
      "hot ranks) and with capacity up to the pool size; the capacity-16\n"
      "rows pay LRU eviction on the long tail. Answers are bit-identical\n"
      "to the uncached backend in every cell.\n");
  return 0;
}
