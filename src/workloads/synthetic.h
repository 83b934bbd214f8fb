/**
 * @file
 * Synthetic dataset builders standing in for the paper's datasets.
 *
 * ImageNet -> LJPG-encoded synthetic photos whose encoded-size
 * distribution is heavy-tailed like the paper's (mean 111 KB, sd
 * 133 KB at full scale); KiTS19 -> serialized u8 CT-like volumes with
 * bright foreground structures; COCO -> larger variable-resolution
 * scenes. A scale knob shrinks dimensions so tests and benches fit
 * the sandbox while preserving the distribution shapes.
 */

#ifndef LOTUS_WORKLOADS_SYNTHETIC_H
#define LOTUS_WORKLOADS_SYNTHETIC_H

#include <memory>
#include <vector>

#include "pipeline/dataset.h"
#include "pipeline/store.h"

namespace lotus::workloads {

struct ImageNetConfig
{
    std::int64_t num_images = 64;
    /** Median image width in pixels (height follows aspect draw). */
    double median_width = 320.0;
    /** Lognormal sigma of the width draw (size-spread driver). */
    double width_sigma = 0.35;
    int quality = 80;
    std::uint64_t seed = 7;
    /** Modelled storage latency (remote-dataset stand-in). */
    TimeNs io_base = 0;
    double io_ns_per_byte = 0.0;
};

struct Kits19Config
{
    std::int64_t num_volumes = 8;
    int channels = 1;
    /** Median spatial extent per axis (D, H, W all drawn near it). */
    int median_extent = 96;
    double extent_sigma = 0.25;
    std::uint64_t seed = 11;
    TimeNs io_base = 0;
    double io_ns_per_byte = 0.0;
};

struct CocoConfig
{
    std::int64_t num_images = 32;
    double median_width = 480.0;
    double width_sigma = 0.25;
    int quality = 85;
    std::uint64_t seed = 13;
    TimeNs io_base = 0;
    double io_ns_per_byte = 0.0;
};

/** Build an in-memory store of LJPG-encoded ImageNet-like photos. */
std::shared_ptr<pipeline::InMemoryStore>
buildImageNetStore(const ImageNetConfig &config);

/** Build an in-memory store of serialized KiTS19-like u8 volumes
 *  (channel-first C, D, H, W with bright foreground lesions). */
std::shared_ptr<pipeline::InMemoryStore>
buildKits19Store(const Kits19Config &config);

/** Build an in-memory store of LJPG-encoded COCO-like scenes. */
std::shared_ptr<pipeline::InMemoryStore>
buildCocoStore(const CocoConfig &config);

/**
 * Heavy-tailed per-sample cost knob for scheduler studies.
 *
 * Per-sample cost is a lognormal draw (median * exp(sigma * z)) with
 * an extra straggler population — the big-JPEG / cold-page / retry
 * shape that makes one slow sample stall its whole batch under
 * round-robin scheduling. Costs are drawn once per index at
 * construction, so a given (seed, size) pins identical costs on every
 * epoch and run, and the same index costs the same no matter which
 * worker fetches it.
 */
struct HeavyTailCostConfig
{
    /** Lognormal median per-sample cost. */
    TimeNs median_cost = 200 * kMicrosecond;
    /** Lognormal sigma: tail heaviness of the cost draw. */
    double sigma = 0.6;
    /** Fraction of samples promoted to stragglers. */
    double straggler_fraction = 0.02;
    /** Straggler cost = median_cost * this. */
    double straggler_multiplier = 40.0;
    /**
     * Fraction of each sample's cost burned as CPU spin; the rest is
     * a blocking stall (modelled I/O / page-cache miss), which
     * overlaps across workers regardless of core count.
     */
    double busy_fraction = 0.1;
    std::uint64_t seed = 17;
};

/**
 * Map-style dataset whose samples cost their drawn time and whose
 * contents are pure functions of (index, ctx.rng draws) — a
 * scheduler-determinism probe: each sample's tensor mixes the index
 * with draws from the per-sample RNG stream, so bit-identical epochs
 * across schedules prove the per-sample reseeding contract end to
 * end.
 */
class HeavyTailCostDataset : public pipeline::Dataset
{
  public:
    HeavyTailCostDataset(std::int64_t size,
                         const HeavyTailCostConfig &config);

    std::int64_t size() const override { return size_; }

    pipeline::Sample get(std::int64_t index,
                         pipeline::PipelineContext &ctx) const override;

    /** The fixed cost assigned to @p index. */
    TimeNs costOf(std::int64_t index) const
    {
        return costs_[static_cast<std::size_t>(index)];
    }

    /** Sum of all per-sample costs (ideal single-stream epoch time). */
    TimeNs totalCost() const;

  private:
    std::int64_t size_;
    HeavyTailCostConfig config_;
    std::vector<TimeNs> costs_;
};

} // namespace lotus::workloads

#endif // LOTUS_WORKLOADS_SYNTHETIC_H
