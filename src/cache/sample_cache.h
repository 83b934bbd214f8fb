/**
 * @file
 * Memory-budgeted decoded-sample cache.
 *
 * The paper's profiles show every epoch repeating the same Loader
 * work (blob read + decode) and deterministic transform prefix on
 * every sample. SampleCache keeps those prefix-stage samples resident
 * so warm epochs skip straight to the random transform suffix:
 *
 *  - keyed on (dataset id, sample index, prefix fingerprint), so a
 *    reconfigured pipeline or a second dataset never serves stale
 *    entries;
 *  - fill once, never evict: an entry is admitted only while the
 *    cache has budget left, and stays until the cache is destroyed.
 *    A map-style epoch looks up every index once in a fresh
 *    permutation, so recency predicts nothing and an evicting policy
 *    only churns; keeping the first entries that fit serves a steady
 *    budget/working-set share of every warm epoch (CoorDL's MinIO
 *    cache). It also makes residency monotone, so the loader can
 *    leave resident samples out of an epoch's read-ahead plan;
 *  - one global byte budget: an admission reserves its bytes with one
 *    compare-and-swap on the resident total, so resident bytes never
 *    exceed budget_bytes, not even for an instant, and no slice of
 *    the budget sits idle in a stripe that happens to fill slower;
 *  - lock-striped: the key hash picks one of kStripes independently
 *    locked maps, so multi-worker loaders do not serialize on one
 *    lock (the stripes split the locking, not the budget);
 *  - storage is pooled (memory::BufferPool via Image/Tensor copies),
 *    so a warm hit's deep clone costs a freelist pop + memcpy, not a
 *    heap allocation;
 *  - optional write-through disk materialization (MaterializeStore):
 *    inserts spill to disk, memory misses fall back to an mmap read
 *    before re-decoding, and corrupt spills degrade recoverably.
 *
 * Telemetry: `lotus_cache_{hits,misses,inserts,rejects,disk_hits,
 * spills,corrupt}_total` counters and the `lotus_cache_bytes`
 * gauge; always-on raw Stats for tests/benches; per-action CacheEvent
 * trace instants ("cache:hit", "cache:miss", ...) in the worker lane.
 */

#ifndef LOTUS_CACHE_SAMPLE_CACHE_H
#define LOTUS_CACHE_SAMPLE_CACHE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cache/materialize.h"
#include "metrics/metrics.h"
#include "pipeline/sample.h"

namespace lotus::cache {

struct CacheKey
{
    std::uint64_t dataset_id = 0;
    std::uint64_t prefix_fingerprint = 0;
    std::int64_t sample_index = -1;

    bool
    operator==(const CacheKey &other) const
    {
        return dataset_id == other.dataset_id &&
               prefix_fingerprint == other.prefix_fingerprint &&
               sample_index == other.sample_index;
    }

    /** splitmix64-style mix over all three fields. */
    std::uint64_t hash() const;
};

struct CacheKeyHash
{
    std::size_t
    operator()(const CacheKey &key) const
    {
        return static_cast<std::size_t>(key.hash());
    }
};

struct CacheConfig
{
    /** Total in-memory budget (one pool shared by every key). */
    std::int64_t budget_bytes = 0;
    /** Non-empty enables write-through disk materialization. */
    std::string materialize_dir;
    /** Prefix fingerprint of the producing pipeline (binds spill
     *  files to their configuration). */
    std::uint64_t fingerprint = 0;
};

class SampleCache
{
  public:
    /** Point-in-time counters (always on, relaxed). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        /** Always 0: nothing is evicted. Kept for readers that report
         *  evictions per epoch (perfbench's cache.evictions_per_epoch). */
        std::uint64_t evictions = 0;
        /** Admissions refused because the budget was full. */
        std::uint64_t rejects = 0;
        std::uint64_t disk_hits = 0;
        std::uint64_t disk_spills = 0;
        std::uint64_t disk_corrupt = 0;
        /** Bytes currently resident in memory (<= budget_bytes). */
        std::int64_t bytes = 0;
    };

    explicit SampleCache(const CacheConfig &config);

    SampleCache(const SampleCache &) = delete;
    SampleCache &operator=(const SampleCache &) = delete;

    /**
     * Fetch a deep, pool-backed clone of the cached sample for
     * @p key, or nullopt on a miss. Falls back to the materialize
     * store (promoting a disk hit into memory) before giving up.
     * Emits CacheEvent trace instants through @p ctx.
     */
    std::optional<pipeline::Sample> lookup(const CacheKey &key,
                                           pipeline::PipelineContext &ctx);

    /**
     * Admit a prefix-stage sample iff the cache's resident bytes plus
     * the sample's stay within budget_bytes; otherwise count a
     * reject. Nothing already resident is ever displaced. Write-through
     * spills to disk when materialization is on, admitted or not.
     */
    void insert(const CacheKey &key, const pipeline::Sample &sample,
                pipeline::PipelineContext &ctx);

    /**
     * Would lookup(@p key) be served? True when the key is resident in
     * memory or has a spill file. Under fill-once a resident key stays
     * resident, so the answer holds for the rest of the epoch (a spill
     * file can still fail validation on load).
     */
    bool holds(const CacheKey &key) const;

    Stats stats() const;

    std::int64_t budgetBytes() const { return budget_bytes_; }
    bool materializing() const { return disk_ != nullptr; }

    /** Payload bytes a cached copy of @p sample occupies. */
    static std::size_t sampleBytes(const pipeline::Sample &sample);

  private:
    /** Lock stripes: a fixed count, enough that a few workers rarely
     *  meet on one lock. */
    static constexpr std::size_t kStripes = 8;

    struct Stripe
    {
        std::mutex mutex;
        std::unordered_map<CacheKey, pipeline::Sample, CacheKeyHash> entries;
    };

    Stripe &stripeFor(const CacheKey &key) const;
    /** Reserve @p bytes of the budget, or return false (one CAS loop
     *  on the resident total). */
    bool reserve(std::int64_t bytes);
    /** Insert into memory only (no disk write). */
    void insertMemory(const CacheKey &key, const pipeline::Sample &sample,
                      pipeline::PipelineContext &ctx);
    void logEvent(pipeline::PipelineContext &ctx, const char *what,
                  std::int64_t sample_index) const;

    std::int64_t budget_bytes_;
    mutable std::array<Stripe, kStripes> stripes_;
    std::unique_ptr<MaterializeStore> disk_;

    struct AtomicStats
    {
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> inserts{0};
        std::atomic<std::uint64_t> rejects{0};
        std::atomic<std::uint64_t> disk_hits{0};
        std::atomic<std::uint64_t> disk_spills{0};
        std::atomic<std::uint64_t> disk_corrupt{0};
        std::atomic<std::int64_t> bytes{0};
    };
    mutable AtomicStats raw_;

    metrics::Counter *hits_metric_;
    metrics::Counter *misses_metric_;
    metrics::Counter *inserts_metric_;
    metrics::Counter *rejects_metric_;
    metrics::Counter *disk_hits_metric_;
    metrics::Counter *disk_spills_metric_;
    metrics::Counter *disk_corrupt_metric_;
    metrics::Gauge *bytes_metric_;
};

} // namespace lotus::cache

#endif // LOTUS_CACHE_SAMPLE_CACHE_H
