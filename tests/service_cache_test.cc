// Semantic result cache: canonicalization, bit-identical replay, LRU
// eviction, per-template and maintenance-driven invalidation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/ingest.h"
#include "core/multi_engine.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "test_util.h"

namespace aqpp {
namespace {

RangeQuery SumQuery(int64_t lo1, int64_t hi1) {
  RangeQuery q;
  q.func = AggregateFunction::kSum;
  q.agg_column = 2;
  q.predicate.Add({0, lo1, hi1});
  return q;
}

TEST(QueryCanonicalizerTest, ClampsRangesToColumnDomain) {
  auto table = testutil::MakeSynthetic({.rows = 2000});  // c1 in [1, 100]
  QueryCanonicalizer canon(table.get());

  // [10, 40] and [10, 10'000'000] clamped vs unclamped on the same column:
  // different queries, different keys.
  auto a = canon.Canonicalize(SumQuery(10, 40));
  auto b = canon.Canonicalize(SumQuery(10, 10'000'000));
  EXPECT_NE(a.key, b.key);

  // [10, 10'000'000] and [10, 100] denote the same rectangle once clamped.
  auto c = canon.Canonicalize(SumQuery(10, 100));
  EXPECT_EQ(b.key, c.key);
  EXPECT_EQ(b.seed, c.seed);

  // A range past both ends collapses to the full domain => the condition is
  // vacuous, equal to the unconstrained query.
  auto d = canon.Canonicalize(SumQuery(-500, 10'000'000));
  RangeQuery unconstrained;
  unconstrained.func = AggregateFunction::kSum;
  unconstrained.agg_column = 2;
  auto e = canon.Canonicalize(unconstrained);
  EXPECT_EQ(d.key, e.key);
}

TEST(QueryCanonicalizerTest, MergesAndSortsConditions) {
  auto table = testutil::MakeSynthetic({.rows = 2000});
  QueryCanonicalizer canon(table.get());

  // Two conditions on c1 intersect; order across columns is normalized.
  RangeQuery q1;
  q1.func = AggregateFunction::kSum;
  q1.agg_column = 2;
  q1.predicate.Add({1, 5, 20});
  q1.predicate.Add({0, 10, 80});
  q1.predicate.Add({0, 30, 200});

  RangeQuery q2;
  q2.func = AggregateFunction::kSum;
  q2.agg_column = 2;
  q2.predicate.Add({0, 30, 80});
  q2.predicate.Add({1, 5, 20});

  auto k1 = canon.Canonicalize(q1);
  auto k2 = canon.Canonicalize(q2);
  EXPECT_EQ(k1.key, k2.key);
  ASSERT_EQ(k1.query.predicate.size(), 2u);
  EXPECT_EQ(k1.query.predicate.conditions()[0].column, 0u);
  EXPECT_EQ(k1.query.predicate.conditions()[0].lo, 30);
  EXPECT_EQ(k1.query.predicate.conditions()[0].hi, 80);
}

TEST(QueryCanonicalizerTest, CountIgnoresAggColumn) {
  auto table = testutil::MakeSynthetic({.rows = 2000});
  QueryCanonicalizer canon(table.get());
  RangeQuery q = SumQuery(10, 40);
  q.func = AggregateFunction::kCount;
  q.agg_column = 2;
  auto a = canon.Canonicalize(q);
  q.agg_column = 0;
  auto b = canon.Canonicalize(q);
  EXPECT_EQ(a.key, b.key);
}

TEST(QueryCanonicalizerTest, UnsatisfiableQueriesShareOneSlot) {
  auto table = testutil::MakeSynthetic({.rows = 2000});
  QueryCanonicalizer canon(table.get());
  auto a = canon.Canonicalize(SumQuery(50, 10));  // lo > hi
  RangeQuery q = SumQuery(10, 80);
  q.predicate.Add({1, 40, 5});  // second condition empty
  auto b = canon.Canonicalize(q);
  EXPECT_EQ(a.key, b.key);
}

TEST(ResultCacheTest, HitRefreshesRecencyAndEvictionIsLru) {
  ResultCache cache({.capacity = 2});
  ApproximateResult r;
  r.ci.estimate = 1;
  cache.Insert("a", 0, r);
  r.ci.estimate = 2;
  cache.Insert("b", 0, r);
  ASSERT_TRUE(cache.Lookup("a").has_value());  // a becomes MRU
  r.ci.estimate = 3;
  cache.Insert("c", 0, r);  // evicts b, the LRU
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ResultCacheTest, InvalidateTemplateDropsExactlyThatTemplate) {
  ResultCache cache({.capacity = 16});
  ApproximateResult r;
  cache.Insert("t0-a", 0, r);
  cache.Insert("t0-b", 0, r);
  cache.Insert("t1-a", 1, r);
  cache.Insert("aqp", -1, r);
  cache.InvalidateTemplate(0);
  EXPECT_FALSE(cache.Lookup("t0-a").has_value());
  EXPECT_FALSE(cache.Lookup("t0-b").has_value());
  EXPECT_TRUE(cache.Lookup("t1-a").has_value());
  EXPECT_TRUE(cache.Lookup("aqp").has_value());
  EXPECT_EQ(cache.stats().invalidated, 2u);
}

TEST(ResultCacheTest, CapacityBoundedUnderConcurrentMixedTraffic) {
  constexpr size_t kCapacity = 8;
  ResultCache cache({.capacity = kCapacity});
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&cache, &failed, t] {
      ApproximateResult r;
      for (int i = 0; i < 500; ++i) {
        std::string key =
            "k" + std::to_string((t * 7 + i * 13) % 64);
        if (i % 3 == 0) {
          (void)cache.Lookup(key);
        } else {
          r.ci.estimate = static_cast<double>(i);
          cache.Insert(key, t % 3, r);
        }
        if (i % 50 == 0) cache.InvalidateTemplate(2);
        if (cache.size() > kCapacity) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache.size(), kCapacity);
  auto stats = cache.stats();
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ServiceCacheTest, HitsAreBitIdenticalToFreshExecution) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  EngineOptions opts;
  opts.sample_rate = 0.05;
  opts.cube_budget = 400;
  auto engine = AqppEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  QueryTemplate tmpl;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};
  ASSERT_TRUE((*engine)->Prepare(tmpl).ok());

  ServiceOptions sopts;
  sopts.admission.num_workers = 2;
  QueryService service(EngineRef(engine->get()), sopts);
  auto session = service.sessions().Open("cache-test");
  ASSERT_TRUE(session.ok());
  uint64_t sid = (*session)->id();

  RangeQuery q = SumQuery(10, 60);
  q.predicate.Add({1, 5, 30});
  QueryOutcome first = service.Execute(sid, q);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);

  // Same query again: a hit, bit-identical.
  QueryOutcome second = service.Execute(sid, q);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.ci.estimate, second.ci.estimate);
  EXPECT_EQ(first.ci.half_width, second.ci.half_width);

  // A semantically equal spelling also hits: the c1 range written as two
  // overlapping conditions, the c2 range intersected with a full-domain one.
  RangeQuery wide;
  wide.func = AggregateFunction::kSum;
  wide.agg_column = 2;
  wide.predicate.Add({0, 10, 1'000'000});
  wide.predicate.Add({0, -5, 60});
  wide.predicate.Add({1, 5, 30});
  wide.predicate.Add({1, -100, 1'000'000});
  QueryOutcome third = service.Execute(sid, wide);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(first.ci.estimate, third.ci.estimate);

  // And crucially: dropping the cache and re-running reproduces the exact
  // bits (seeded execution is a pure function of the prepared state).
  service.InvalidateCache();
  QueryOutcome fresh = service.Execute(sid, q);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(first.ci.estimate, fresh.ci.estimate);
  EXPECT_EQ(first.ci.half_width, fresh.ci.half_width);
}

TEST(ServiceCacheTest, MaintenanceObserverInvalidatesOnAppend) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  EngineOptions opts;
  opts.sample_rate = 0.05;
  auto engine = AqppEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());

  QueryService service(EngineRef(engine->get()), {});
  auto session = service.sessions().Open("");
  ASSERT_TRUE(session.ok());
  uint64_t sid = (*session)->id();

  // The service registers invalidation as the ingest commit observer.
  IngestOptions ingest_opts;
  ingest_opts.background = false;
  IngestManager ingest(engine->get(), ingest_opts);
  service.AttachIngest(&ingest);

  RangeQuery q = SumQuery(10, 60);
  ASSERT_TRUE(service.Execute(sid, q).status.ok());
  EXPECT_EQ(service.cache().stats().size, 1u);

  // Appending a batch must flush the cache through the observer.
  auto batch = testutil::MakeSynthetic({.rows = 500, .seed = 777});
  ASSERT_TRUE(ingest.Append(*batch).ok());
  EXPECT_EQ(service.cache().stats().size, 0u);
  EXPECT_GE(service.cache().stats().invalidated, 1u);
}

TEST(ServiceCacheTest, PerTemplateInvalidationWithMultiEngine) {
  auto table = testutil::MakeSynthetic({.rows = 20000});
  MultiEngineOptions mopts;
  mopts.sample_rate = 0.05;
  mopts.total_cube_budget = 800;
  auto engine = MultiTemplateEngine::Create(table, mopts);
  ASSERT_TRUE(engine.ok());
  QueryTemplate t0;
  t0.agg_column = 2;
  t0.condition_columns = {0};
  QueryTemplate t1;
  t1.agg_column = 2;
  t1.condition_columns = {1};
  ASSERT_TRUE((*engine)->Prepare({t0, t1}).ok());

  QueryService service(EngineRef(engine->get()), {});
  auto session = service.sessions().Open("");
  ASSERT_TRUE(session.ok());
  uint64_t sid = (*session)->id();

  RangeQuery q0 = SumQuery(10, 60);  // routes to template 0 (c1)
  RangeQuery q1;
  q1.func = AggregateFunction::kSum;
  q1.agg_column = 2;
  q1.predicate.Add({1, 5, 30});  // routes to template 1 (c2)
  ASSERT_EQ((*engine)->RouteFor(q0), 0);
  ASSERT_EQ((*engine)->RouteFor(q1), 1);

  ASSERT_TRUE(service.Execute(sid, q0).status.ok());
  ASSERT_TRUE(service.Execute(sid, q1).status.ok());
  EXPECT_EQ(service.cache().stats().size, 2u);

  // Rebuilding template 0's cube invalidates only its entries.
  service.InvalidateTemplate(0);
  EXPECT_FALSE(service.Execute(sid, q0).cache_hit);  // miss: re-executed
  EXPECT_TRUE(service.Execute(sid, q1).cache_hit);   // untouched
}

}  // namespace
}  // namespace aqpp
