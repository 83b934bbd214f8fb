#include "sim/loader_sim.h"

#include <algorithm>
#include <map>
#include <set>

#include "sim/des/engine.h"
#include "sim/des/queue.h"
#include "sim/des/resource.h"

namespace lotus::sim {

namespace {

using des::Engine;
using des::Process;
using des::Resource;
using des::SimQueue;
using trace::RecordKind;
using trace::TraceRecord;

struct IndexRequest
{
    std::int64_t batch_id;
};

struct DataMsg
{
    std::int64_t batch_id;
    int worker_id;
};

/** Shared state of one simulated epoch. */
struct Sim
{
    explicit Sim(const LoaderSimConfig &config)
        : cfg(config), cores(engine, config.cores),
          gpu_queue(engine,
                    static_cast<std::size_t>(config.gpu_max_outstanding)),
          pmu(hwcount::MachineConfig{config.cores, 3.2, 64, 220.0}),
          main_rng(config.seed ^ 0xD1B54A32D192ED03ull)
    {
        const int data_queues =
            config.queue_policy == DataQueuePolicy::Shared
                ? 1
                : config.num_workers;
        for (int q = 0; q < data_queues; ++q)
            this->data_queues.push_back(
                std::make_unique<SimQueue<DataMsg>>(engine));
        for (int w = 0; w < config.num_workers; ++w) {
            index_queues.push_back(
                std::make_unique<SimQueue<IndexRequest>>(engine));
            worker_rngs.emplace_back(config.seed * 0x9E3779B97F4A7C15ull +
                                     static_cast<std::uint64_t>(w) + 1);
        }
    }

    /** Data queue a worker pushes to. */
    SimQueue<DataMsg> &
    dataQueueFor(int worker_id)
    {
        if (cfg.queue_policy == DataQueuePolicy::Shared)
            return *data_queues[0];
        return *data_queues[static_cast<std::size_t>(worker_id)];
    }

    void
    emit(RecordKind kind, std::int64_t batch_id, std::uint32_t pid,
         TimeNs start, TimeNs duration, const std::string &op_name = "",
         std::int64_t sample_index = -1)
    {
        TraceRecord record;
        record.kind = kind;
        record.batch_id = batch_id;
        record.pid = pid;
        record.start = start;
        record.duration = duration;
        record.op_name = op_name;
        record.sample_index = sample_index;
        records.push_back(std::move(record));
    }

    void
    tryPutIndex(int worker_id)
    {
        if (send_idx >= cfg.num_batches)
            return;
        batch_worker[send_idx] = worker_id;
        // Index queues are unbounded: delivery is immediate, no
        // suspension, so a plain non-awaited push is safe here.
        auto awaiter = index_queues[static_cast<std::size_t>(worker_id)]
                           ->push(IndexRequest{send_idx});
        const bool ready = awaiter.await_ready();
        LOTUS_ASSERT(ready, "unbounded index queue refused a push");
        ++send_idx;
    }

    const LoaderSimConfig &cfg;
    Engine engine;
    Resource cores;
    std::vector<std::unique_ptr<SimQueue<DataMsg>>> data_queues;
    SimQueue<std::int64_t> gpu_queue;
    hwcount::SimulatedPmu pmu;
    std::vector<std::unique_ptr<SimQueue<IndexRequest>>> index_queues;
    std::vector<Rng> worker_rngs;
    Rng main_rng;

    std::int64_t send_idx = 0;
    std::map<std::int64_t, int> batch_worker;
    std::set<std::int64_t> reorder_cache;
    std::vector<TraceRecord> records;
    double worker_cpu_ns = 0.0;
    TimeNs finish_time = 0;
};

Process
workerProc(Sim &s, int worker_id)
{
    const auto pid = static_cast<std::uint32_t>(
        LoaderSimResult::kFirstWorkerPid + worker_id);
    Rng &rng = s.worker_rngs[static_cast<std::size_t>(worker_id)];
    auto &index_queue = *s.index_queues[static_cast<std::size_t>(worker_id)];
    const auto &model = s.cfg.model;

    for (;;) {
        auto msg = co_await index_queue.pop();
        if (!msg.has_value())
            break;
        const std::int64_t batch_id = msg->batch_id;

        const TimeNs fetch_start = s.engine.now();
        co_await s.cores.acquire();
        const double inflation =
            (s.cfg.apply_contention
                 ? s.pmu.cpuTimeInflation(s.cores.occupancy())
                 : 1.0) *
            model.drawBatchFactor(rng);

        for (int sample = 0; sample < s.cfg.batch_size; ++sample) {
            // Draw every op's time up front, advance once, then emit
            // the per-op [T3] records at their computed offsets.
            TimeNs sample_total = 0;
            std::vector<TimeNs> op_times(model.per_sample_ops.size());
            for (std::size_t op = 0; op < model.per_sample_ops.size();
                 ++op) {
                op_times[op] = static_cast<TimeNs>(
                    static_cast<double>(model.drawOpTime(op, rng)) *
                    inflation);
                sample_total += op_times[op];
            }
            const TimeNs sample_start = s.engine.now();
            co_await s.engine.delay(sample_total);
            if (s.cfg.log_ops) {
                TimeNs offset = 0;
                for (std::size_t op = 0; op < op_times.size(); ++op) {
                    s.emit(RecordKind::TransformOp, batch_id, pid,
                           sample_start + offset, op_times[op],
                           model.per_sample_ops[op].name,
                           static_cast<std::int64_t>(batch_id) *
                                   s.cfg.batch_size +
                               sample);
                    offset += op_times[op];
                }
            }
        }

        const TimeNs collate_time = static_cast<TimeNs>(
            static_cast<double>(
                model.drawCollateTime(s.cfg.batch_size, rng)) *
            inflation);
        const TimeNs collate_start = s.engine.now();
        co_await s.engine.delay(collate_time);
        if (s.cfg.log_ops) {
            s.emit(RecordKind::TransformOp, batch_id, pid, collate_start,
                   collate_time, model.collate.name);
        }

        s.cores.release();
        const TimeNs fetch_end = s.engine.now();
        s.emit(RecordKind::BatchPreprocessed, batch_id, pid, fetch_start,
               fetch_end - fetch_start);
        s.worker_cpu_ns += static_cast<double>(fetch_end - fetch_start);

        co_await s.dataQueueFor(worker_id).push(
            DataMsg{batch_id, worker_id});
    }
}

Process
gpuProc(Sim &s)
{
    Rng rng(s.cfg.seed ^ 0xA3EC647659359ACDull);
    for (;;) {
        auto msg = co_await s.gpu_queue.pop();
        if (!msg.has_value())
            break;
        const std::int64_t per_gpu =
            (s.cfg.batch_size + s.cfg.num_gpus - 1) / s.cfg.num_gpus;
        TimeNs service = s.cfg.gpu_base + per_gpu * s.cfg.gpu_time_per_sample;
        if (s.cfg.gpu_jitter > 0.0) {
            service = static_cast<TimeNs>(
                static_cast<double>(service) *
                rng.uniform(1.0 - s.cfg.gpu_jitter,
                            1.0 + s.cfg.gpu_jitter));
        }
        const TimeNs start = s.engine.now();
        co_await s.engine.delay(service);
        s.emit(RecordKind::GpuCompute, *msg, LoaderSimResult::kGpuPid,
               start, service);
        s.finish_time = s.engine.now();
    }
}

Process
mainProc(Sim &s)
{
    const std::uint32_t pid = LoaderSimResult::kMainPid;
    const TimeNs pin_time =
        s.cfg.model.pin_per_sample * s.cfg.batch_size;

    // Prime every worker's index queue with prefetch_factor batches.
    for (int round = 0; round < s.cfg.prefetch_factor; ++round) {
        for (int w = 0; w < s.cfg.num_workers; ++w)
            s.tryPutIndex(w);
    }

    for (std::int64_t wanted = 0; wanted < s.cfg.num_batches; ++wanted) {
        const TimeNs wait_start = s.engine.now();
        if (s.cfg.queue_policy == DataQueuePolicy::PerWorker) {
            // Ablation topology: pop the producer's own queue; its
            // front is always the wanted batch, so no reorder cache
            // and no out-of-order sentinel can occur.
            const int producer_id = s.batch_worker.at(wanted);
            auto msg =
                co_await s.dataQueueFor(producer_id).pop();
            LOTUS_ASSERT(msg.has_value() && msg->batch_id == wanted,
                         "per-worker queue out of order");
            s.emit(RecordKind::BatchWait, wanted, pid, wait_start,
                   s.engine.now() - wait_start);
            co_await s.engine.delay(pin_time);
        } else if (s.reorder_cache.erase(wanted) > 0) {
            // Already pinned and cached: the 1 µs sentinel.
            s.emit(RecordKind::BatchWait, wanted, pid, wait_start,
                   trace::kOutOfOrderSentinel);
        } else {
            for (;;) {
                auto msg = co_await s.dataQueueFor(0).pop();
                LOTUS_ASSERT(msg.has_value(),
                             "data queue closed mid-epoch");
                if (msg->batch_id == wanted) {
                    s.emit(RecordKind::BatchWait, wanted, pid, wait_start,
                           s.engine.now() - wait_start);
                    co_await s.engine.delay(pin_time);
                    break;
                }
                // Early arrival: pin and cache.
                co_await s.engine.delay(pin_time);
                s.reorder_cache.insert(msg->batch_id);
            }
        }

        const TimeNs consumed_start = s.engine.now();
        const auto producer = s.batch_worker.find(wanted);
        LOTUS_ASSERT(producer != s.batch_worker.end());
        const int producer_id = producer->second;
        s.batch_worker.erase(producer);
        s.tryPutIndex(producer_id);
        const bool accepted = co_await s.gpu_queue.push(wanted);
        LOTUS_ASSERT(accepted, "gpu queue closed mid-epoch");
        s.emit(RecordKind::BatchConsumed, wanted, pid, consumed_start,
               s.engine.now() - consumed_start);
    }

    for (auto &queue : s.index_queues)
        queue->close();
    s.gpu_queue.close();
}

} // namespace

LoaderSim::LoaderSim(LoaderSimConfig config) : config_(std::move(config))
{
    LOTUS_ASSERT(config_.batch_size > 0 && config_.num_workers > 0 &&
                 config_.prefetch_factor > 0 && config_.num_batches > 0 &&
                 config_.cores > 0 && config_.num_gpus > 0 &&
                 config_.gpu_max_outstanding > 0);
    LOTUS_ASSERT(!config_.model.per_sample_ops.empty(),
                 "service model has no ops");
}

LoaderSimResult
LoaderSim::run()
{
    Sim sim(config_);
    for (int w = 0; w < config_.num_workers; ++w)
        workerProc(sim, w);
    gpuProc(sim);
    mainProc(sim);
    sim.engine.run();

    LoaderSimResult result;
    result.e2e_time = sim.finish_time;
    result.total_cpu_seconds = sim.worker_cpu_ns / 1e9;
    result.avg_occupancy =
        result.e2e_time > 0
            ? sim.cores.busyIntegral() /
                  (static_cast<double>(config_.cores) *
                   static_cast<double>(result.e2e_time))
            : 0.0;
    std::sort(sim.records.begin(), sim.records.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return a.start < b.start;
              });
    result.records = std::move(sim.records);
    return result;
}

} // namespace lotus::sim
