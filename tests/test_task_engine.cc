/**
 * @file
 * TaskEngine suite: the weighted-fair victim order under concurrent
 * service-time charging, and the engine driven directly
 * through its client interface (submission, generations, outbound
 * messages). Runs under TSan (tools/run_tsan.sh) and ASan/UBSan
 * (tools/run_sanitizers.sh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dataflow/task_engine.h"
#include "pipeline/collate.h"
#include "tensor/tensor.h"

namespace lotus::dataflow {
namespace {

using pipeline::PipelineContext;
using pipeline::Sample;

/** Index-stamped one-float samples. */
class IndexDataset : public pipeline::Dataset
{
  public:
    explicit IndexDataset(std::int64_t size) : size_(size) {}

    std::int64_t size() const override { return size_; }

    Sample
    get(std::int64_t index, PipelineContext &) const override
    {
        Sample sample;
        sample.data = tensor::Tensor(tensor::DType::F32, {1});
        sample.data.data<float>()[0] = static_cast<float>(index);
        sample.label = index;
        return sample;
    }

  private:
    std::int64_t size_;
};

ClientSpec
indexSpec(std::int64_t dataset_size, double weight = 1.0)
{
    ClientSpec spec;
    spec.fetcher = std::make_shared<Fetcher>(
        std::make_shared<IndexDataset>(dataset_size),
        std::make_shared<pipeline::StackCollate>());
    spec.weight = weight;
    return spec;
}

TEST(TaskEngine, VictimOrderStaysConsistentWhileServiceTimeMoves)
{
    // Regression: the victim sort used to read each client's live
    // service_ns inside the comparator while workers charged it, an
    // inconsistent ordering that let std::sort run off the vector.
    // Threads bump service_ns for as long as the order is taken, a
    // fixed iteration budget; every order must stay a permutation of
    // the roster.
    EngineLimits limits;
    limits.max_clients = 32;
    TaskEngine engine(limits);
    std::vector<std::shared_ptr<ClientState>> clients;
    for (int c = 0; c < 32; ++c)
        clients.push_back(engine.connect(indexSpec(4, 1.0 + c % 3)).take());

    std::atomic<bool> done{false};
    std::vector<std::thread> bumpers;
    for (int t = 0; t < 3; ++t) {
        bumpers.emplace_back([&, t] {
            Rng rng(static_cast<std::uint64_t>(t) + 1);
            while (!done.load(std::memory_order_relaxed)) {
                auto &client = clients[rng.nextBelow(clients.size())];
                client->service_ns.fetch_add(rng.nextBelow(1000),
                                             std::memory_order_relaxed);
            }
        });
    }
    for (int iteration = 0; iteration < 5'000; ++iteration) {
        const auto order = engine.victimOrder();
        ASSERT_EQ(order.size(), clients.size());
        std::set<std::int64_t> ids;
        for (const auto &client : order)
            ids.insert(client->id);
        ASSERT_EQ(ids.size(), clients.size());
    }
    done.store(true, std::memory_order_relaxed);
    for (auto &bumper : bumpers)
        bumper.join();

    // Quiescent: the order is ascending virtual time, id tie-break.
    const auto order = engine.victimOrder();
    for (std::size_t i = 1; i < order.size(); ++i) {
        const double a = order[i - 1]->vtime();
        const double b = order[i]->vtime();
        EXPECT_TRUE(a < b || (a == b && order[i - 1]->id < order[i]->id));
    }
    for (auto &client : clients)
        engine.disconnect(*client);
}

TEST(TaskEngine, DeliversSubmittedBatchesAndDropsStaleGenerations)
{
    EngineLimits limits;
    limits.num_workers = 2;
    limits.max_inflight_samples = 64;
    limits.outbound_capacity = 8;
    TaskEngine engine(limits);
    auto client = engine.connect(indexSpec(16)).take();

    // A canceled generation's submission drains as dropped samples;
    // the live generation's batches arrive whole, with their slots in
    // index order.
    const std::uint64_t stale = engine.beginEpoch(*client);
    const std::uint64_t live = engine.beginEpoch(*client);
    ASSERT_NE(stale, live);
    engine.submit(*client, {0, {0, 1, 2, 3}, 7, stale});
    engine.submit(*client, {0, {4, 5, 6, 7}, 7, live});
    engine.submit(*client, {1, {8, 9, 10, 11}, 7, live});
    std::set<std::int64_t> seen;
    for (int received = 0; received < 2; ++received) {
        auto msg = client->outbound.pop();
        ASSERT_TRUE(msg.has_value());
        ASSERT_FALSE(msg->error.has_value());
        EXPECT_EQ(msg->generation, live);
        const std::int64_t first = msg->batch_id == 0 ? 4 : 8;
        ASSERT_EQ(msg->batch.labels.size(), 4u);
        for (std::int64_t slot = 0; slot < 4; ++slot)
            EXPECT_EQ(msg->batch.labels[static_cast<std::size_t>(slot)],
                      first + slot);
        seen.insert(msg->batch_id);
    }
    EXPECT_EQ(seen, (std::set<std::int64_t>{0, 1}));
    EXPECT_EQ(engine.stats().dropped_tasks, 4u);
    EXPECT_EQ(client->executed_tasks.load(), 8u);
    engine.disconnect(*client);
}

} // namespace
} // namespace lotus::dataflow
