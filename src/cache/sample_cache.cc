#include "cache/sample_cache.h"

#include "common/clock.h"
#include "trace/logger.h"

namespace lotus::cache {

namespace {

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

std::uint64_t
CacheKey::hash() const
{
    std::uint64_t h = mix64(dataset_id + 0x9E3779B97F4A7C15ull);
    h = mix64(h ^ prefix_fingerprint);
    h = mix64(h ^ static_cast<std::uint64_t>(sample_index));
    return h;
}

SampleCache::SampleCache(const CacheConfig &config)
    : budget_bytes_(config.budget_bytes)
{
    LOTUS_ASSERT(config.budget_bytes > 0,
                 "cache budget must be positive (validated by the "
                 "DataLoader)");
    if (!config.materialize_dir.empty())
        disk_ = std::make_unique<MaterializeStore>(config.materialize_dir,
                                                   config.fingerprint);

    auto &registry = metrics::MetricsRegistry::instance();
    hits_metric_ = registry.counter("lotus_cache_hits_total");
    misses_metric_ = registry.counter("lotus_cache_misses_total");
    inserts_metric_ = registry.counter("lotus_cache_inserts_total");
    rejects_metric_ = registry.counter("lotus_cache_rejects_total");
    disk_hits_metric_ = registry.counter("lotus_cache_disk_hits_total");
    disk_spills_metric_ = registry.counter("lotus_cache_spills_total");
    disk_corrupt_metric_ = registry.counter("lotus_cache_corrupt_total");
    bytes_metric_ = registry.gauge("lotus_cache_bytes");
}

std::size_t
SampleCache::sampleBytes(const pipeline::Sample &sample)
{
    return (sample.hasImage() ? sample.image->byteSize() : 0) +
           sample.data.byteSize();
}

SampleCache::Stripe &
SampleCache::stripeFor(const CacheKey &key) const
{
    return stripes_[key.hash() % kStripes];
}

bool
SampleCache::reserve(std::int64_t bytes)
{
    std::int64_t resident = raw_.bytes.load(std::memory_order_relaxed);
    do {
        if (resident + bytes > budget_bytes_)
            return false;
    } while (!raw_.bytes.compare_exchange_weak(resident, resident + bytes,
                                               std::memory_order_relaxed));
    return true;
}

void
SampleCache::logEvent(pipeline::PipelineContext &ctx, const char *what,
                      std::int64_t sample_index) const
{
    if (ctx.logger == nullptr)
        return;
    trace::TraceRecord record;
    record.kind = trace::RecordKind::CacheEvent;
    record.batch_id = ctx.batch_id;
    record.pid = ctx.pid;
    record.start = SteadyClock::instance().now();
    record.duration = 0;
    record.op_name = std::string("cache:") + what;
    record.sample_index = sample_index;
    ctx.logger->log(std::move(record));
}

std::optional<pipeline::Sample>
SampleCache::lookup(const CacheKey &key, pipeline::PipelineContext &ctx)
{
    Stripe &stripe = stripeFor(key);
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        const auto it = stripe.entries.find(key);
        if (it != stripe.entries.end()) {
            // Deep clone: the caller's random suffix mutates the sample
            // in place, so it must never touch the resident master
            // copy. The copy is pooled (freelist pop + memcpy).
            pipeline::Sample copy = it->second;
            raw_.hits.fetch_add(1, std::memory_order_relaxed);
            hits_metric_->add(1);
            logEvent(ctx, "hit", key.sample_index);
            return copy;
        }
    }

    if (disk_ != nullptr) {
        Result<pipeline::Sample> loaded = disk_->tryLoad(key.sample_index);
        if (loaded.ok()) {
            pipeline::Sample sample = loaded.take();
            raw_.disk_hits.fetch_add(1, std::memory_order_relaxed);
            disk_hits_metric_->add(1);
            logEvent(ctx, "disk_hit", key.sample_index);
            // Promote to memory so the next epoch skips the read.
            insertMemory(key, sample, ctx);
            return sample;
        }
        if (loaded.error().code == ErrorCode::kCorruptData) {
            raw_.disk_corrupt.fetch_add(1, std::memory_order_relaxed);
            disk_corrupt_metric_->add(1);
            logEvent(ctx, "corrupt", key.sample_index);
        }
        // kNotFound / kIoError fall through to a plain miss: the
        // caller re-decodes from source, which re-spills on insert.
    }

    raw_.misses.fetch_add(1, std::memory_order_relaxed);
    misses_metric_->add(1);
    logEvent(ctx, "miss", key.sample_index);
    return std::nullopt;
}

void
SampleCache::insertMemory(const CacheKey &key,
                          const pipeline::Sample &sample,
                          pipeline::PipelineContext &ctx)
{
    const auto bytes = static_cast<std::int64_t>(sampleBytes(sample));
    Stripe &stripe = stripeFor(key);
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        if (stripe.entries.count(key) != 0)
            return; // Raced with another worker inserting the same key.
        if (reserve(bytes)) {
            stripe.entries.emplace(key, sample); // Pooled deep copy.
            bytes_metric_->add(bytes);
            raw_.inserts.fetch_add(1, std::memory_order_relaxed);
            inserts_metric_->add(1);
            return;
        }
    }
    // Fill once: a full cache keeps what it holds.
    raw_.rejects.fetch_add(1, std::memory_order_relaxed);
    rejects_metric_->add(1);
    logEvent(ctx, "reject", key.sample_index);
}

void
SampleCache::insert(const CacheKey &key, const pipeline::Sample &sample,
                    pipeline::PipelineContext &ctx)
{
    insertMemory(key, sample, ctx);
    if (disk_ != nullptr && !disk_->contains(key.sample_index)) {
        if (disk_->spill(key.sample_index, sample)) {
            raw_.disk_spills.fetch_add(1, std::memory_order_relaxed);
            disk_spills_metric_->add(1);
            logEvent(ctx, "spill", key.sample_index);
        }
    }
}

bool
SampleCache::holds(const CacheKey &key) const
{
    {
        Stripe &stripe = stripeFor(key);
        std::lock_guard<std::mutex> lock(stripe.mutex);
        if (stripe.entries.count(key) != 0)
            return true;
    }
    return disk_ != nullptr && disk_->contains(key.sample_index);
}

SampleCache::Stats
SampleCache::stats() const
{
    Stats out;
    out.hits = raw_.hits.load(std::memory_order_relaxed);
    out.misses = raw_.misses.load(std::memory_order_relaxed);
    out.inserts = raw_.inserts.load(std::memory_order_relaxed);
    out.rejects = raw_.rejects.load(std::memory_order_relaxed);
    out.disk_hits = raw_.disk_hits.load(std::memory_order_relaxed);
    out.disk_spills = raw_.disk_spills.load(std::memory_order_relaxed);
    out.disk_corrupt = raw_.disk_corrupt.load(std::memory_order_relaxed);
    out.bytes = raw_.bytes.load(std::memory_order_relaxed);
    return out;
}

} // namespace lotus::cache
