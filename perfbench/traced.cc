/**
 * @file
 * Traced sweep: the same schedule RunMatrix::addReplayGroup and
 * addMixGroup build (one front-end job per distinct stream, one gang
 * walk per benchmark or mix behind it, streams released after their
 * last walk), composed from the lower-level public calls so that
 * every call into a layer is wrapped in a span:
 *
 *   sim.record_job   one stream's front-end job
 *     trace.make       makeBenchmark
 *     sim.record       recordStream (fresh streams)
 *       trace.gen        each Workload::fill call
 *     trace.stream_load loadOrRecordStream (cached streams)
 *   sim.walk_job     one gang walk (solo) / sim.mix_job (mix)
 *     sim.mix_compose  composeMixStream
 *     cache.make_config makeConfig for every lane
 *     sim.walk         replayMany; its GangReplayInfo splits the
 *                      walk into decode and per-lane model time,
 *                      keyed to configs by the l2s order passed in
 *   sim.encode       after the sweep: each fresh stream re-encoded
 *                    (encodeStream) to time the encoder alone, which
 *                    recordStream interleaves with the front end
 *
 * Spans carry name, start, end, parent span and sweep id; they stay
 * in per-thread buffers until the sweep ends, then the layer metrics
 * are derived from them and the spans are written as JSON lines.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "cache/shared_hierarchy.hh"
#include "common/thread_annotations.hh"
#include "perfbench.hh"
#include "sim/mix.hh"
#include "sim/replay.hh"
#include "sim/runner.hh"
#include "trace/benchmarks.hh"

namespace perfbench
{

using namespace ldis;

namespace
{

struct Span
{
    const char *name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0 = none
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span store: one buffer per thread (no lock on the hot
 * path), registered once under the store's mutex and owned by the
 * store, so buffers of exited pool and helper threads survive until
 * the sweep reads them.
 */
class SpanStore
{
  public:
    std::vector<Span> &
    local()
    {
        thread_local std::vector<Span> *buf = nullptr;
        if (!buf) {
            ScopedLock lock(m);
            buffers.push_back(std::make_unique<std::vector<Span>>());
            buffers.back()->reserve(1 << 14);
            buf = buffers.back().get();
        }
        return *buf;
    }

    std::uint32_t nextId() { return ids.fetch_add(1) + 1; }

    std::vector<Span>
    all()
    {
        ScopedLock lock(m);
        std::vector<Span> out;
        for (const auto &b : buffers)
            out.insert(out.end(), b->begin(), b->end());
        return out;
    }

  private:
    Mutex m;
    std::vector<std::unique_ptr<std::vector<Span>>> buffers
        LDIS_GUARDED_BY(m);
    std::atomic<std::uint32_t> ids{0};
};

SpanStore spans;

/** Innermost open span of this thread (the parent of new spans). */
thread_local std::uint32_t currentSpan = 0;

/** The sweep's span: parent of spans opened on pool threads. */
std::atomic<std::uint32_t> rootSpan{0};

/** RAII span: opens at construction, recorded at destruction. */
class Scope
{
  public:
    explicit Scope(const char *span_name)
        : name(span_name),
          parent(currentSpan ? currentSpan : rootSpan.load()),
          id(spans.nextId()), start(now())
    {
        currentSpan = id;
    }

    ~Scope()
    {
        spans.local().push_back({name, id, parent, start, now()});
        currentSpan = parent;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double seconds() const { return now() - start; }
    std::uint32_t spanId() const { return id; }

  private:
    const char *name;
    std::uint32_t parent;
    std::uint32_t id;
    double start;
};

/** Workload wrapper timing every fill() call as a trace.gen span. */
class TimedWorkload : public Workload
{
  public:
    explicit TimedWorkload(Workload &w) : inner(w) {}

    Access
    next() override
    {
        ++generated;
        return inner.next();
    }

    std::size_t
    fill(Access *out, std::size_t max) override
    {
        Scope s("trace.gen");
        std::size_t n = inner.fill(out, max);
        generated += n;
        return n;
    }

    void reset() override { inner.reset(); }
    const CodeModel &codeModel() const override
    {
        return inner.codeModel();
    }
    const ValueProfile &valueProfile() const override
    {
        return inner.valueProfile();
    }
    const std::string &name() const override { return inner.name(); }

    std::uint64_t generated = 0; //!< accesses handed out

  private:
    Workload &inner;
};

/** One distinct stream: its front-end job's outputs and users. */
struct StreamSlot
{
    std::shared_ptr<const L2Stream> stream;
    /** Fresh stream kept for the encoder probe after the sweep. */
    std::shared_ptr<const L2Stream> recorded;
    std::atomic<unsigned> users{0}; //!< walks not yet finished
    double jobSeconds = 0.0;
    std::uint64_t accesses = 0;  //!< generated (fresh streams)
    bool lookedUp = false;       //!< loadOrRecordStream consulted
    bool diskHit = false;
    double fileMb = 0.0;

    /** Drop the stream after its last walk, like StreamHolder. */
    void
    release()
    {
        if (users.fetch_sub(1, std::memory_order_acq_rel) == 1)
            stream.reset();
    }
};

/** One gang walk's counts, recorded by its job. */
struct WalkRecord
{
    std::vector<ConfigKind> kinds; //!< l2s order of replayMany
    GangReplayInfo info;
    double jobSeconds = 0.0;
    double chainSeconds = 0.0; //!< slowest prerequisite + this job
    std::uint64_t mixEvents = 0;
};

/** Layer of the L2 model a config's lane walks. */
const char *
laneLayer(ConfigKind kind)
{
    switch (kind) {
    case ConfigKind::LdisBase:
    case ConfigKind::LdisMT:
    case ConfigKind::LdisMTRC:
    case ConfigKind::Ldis4xTags:
        return "distill.lane_s";
    case ConfigKind::Cmpr4xTags:
    case ConfigKind::Fac4xTags:
        return "compression.lane_s";
    case ConfigKind::Sfp16k:
    case ConfigKind::Sfp64k:
        return "sfp.lane_s";
    default:
        return "cache.trad_lane_s";
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Front-end job of @p slot: record fresh or load from the cache. */
void
frontEnd(const Plan &plan, const std::string &name, StreamSlot &slot)
{
    Scope job("sim.record_job");
    if (plan.cached) {
        StreamLoadInfo info;
        {
            Scope s("trace.stream_load");
            slot.stream = loadOrRecordStream(name, plan.seed, 0,
                                             plan.instructions, {},
                                             &info);
        }
        slot.lookedUp = info.cacheConfigured;
        slot.diskHit = info.fromDiskCache;
        slot.fileMb = fileMegabytes(streamCachePath(
            name, plan.seed, 0, plan.instructions));
    } else {
        std::unique_ptr<Workload> workload;
        {
            Scope s("trace.make");
            workload = makeBenchmark(name, plan.seed);
        }
        TimedWorkload timed(*workload);
        auto stream = std::make_shared<L2Stream>();
        {
            Scope s("sim.record");
            *stream = recordStream(timed, plan.seed, 0,
                                   plan.instructions);
        }
        slot.accesses = timed.generated;
        slot.recorded = stream;
        slot.stream = std::move(stream);
    }
    slot.jobSeconds = job.seconds();
}

/**
 * Encoder probe: @p stream's events through the same StreamEncoder
 * again, into buffers reserved at their final size, timed as one
 * sim.encode span. Runs after the sweep so it adds nothing to it.
 */
void
probeEncoder(const L2Stream &stream)
{
    std::vector<StreamEvent> events = decodeEvents(stream);
    std::vector<StreamVictim> victims = decodeVictims(stream);
    L2Stream copy;
    copy.heads.reserve(stream.heads.size());
    copy.instrBytes.reserve(stream.instrBytes.size());
    copy.addrBytes.reserve(stream.addrBytes.size());
    copy.pcBytes.reserve(stream.pcBytes.size());
    copy.victimBytes.reserve(stream.victimBytes.size());
    {
        Scope s("sim.encode");
        encodeStream(copy, events, victims);
    }
    if (copy.packedBytes() != stream.packedBytes())
        throw std::runtime_error("encoder probe disagrees with the "
                                 "recorded stream");
}

/**
 * Walk @p stream once for every kind; with @p members (mixes) each
 * lane sits behind a per-stream attributing wrapper.
 */
std::vector<RunResult>
walk(const L2Stream &stream, const std::vector<ConfigKind> &kinds,
     WorkerLeaseHub *hub, WalkRecord &rec,
     const std::vector<MixMemberInfo> *members)
{
    std::vector<L2Instance> instances;
    std::vector<std::unique_ptr<StreamAttributingL2>> wraps;
    std::vector<SecondLevelCache *> caches;
    {
        Scope s("cache.make_config");
        for (ConfigKind kind : kinds) {
            instances.push_back(makeConfig(kind, stream.values));
            caches.push_back(instances.back().cache.get());
            if (members) {
                wraps.push_back(std::make_unique<StreamAttributingL2>(
                    *instances.back().cache));
                caches.back() = wraps.back().get();
            }
        }
    }
    GangParallel par;
    par.hub = hub;
    std::vector<RunResult> rs;
    {
        Scope s("sim.walk");
        rs = replayMany(stream, caches, &rec.info, par);
    }
    rec.kinds = kinds;
    for (std::size_t k = 0; k < rs.size(); ++k) {
        rs[k].config = configName(kinds[k]);
        if (members)
            attachStreamStats(rs[k], *wraps[k], *members);
    }
    return rs;
}

} // namespace

int
tracedSweep(const Plan &plan, unsigned workers, const Reference &ref,
            const std::string &spans_path)
{
    std::vector<StreamSlot> slots(plan.solos.size());
    std::vector<WalkRecord> walks(plan.solos.size() +
                                  plan.mixes.size());
    auto slot_of = [&](const std::string &name) -> StreamSlot & {
        auto it = std::find(plan.solos.begin(), plan.solos.end(),
                            name);
        return slots[static_cast<std::size_t>(
            it - plan.solos.begin())];
    };

    double t0 = now();
    std::vector<RunResult> results;
    {
        Scope sweep("sweep");
        rootSpan = sweep.spanId();
        RunMatrix matrix(workers);
        // Submission order as in RunMatrix: each stream's front-end
        // job right before the first walk that needs it.
        std::vector<std::size_t> handles;
        for (std::size_t i = 0; i < plan.solos.size(); ++i) {
            handles.push_back(matrix.addSetup(
                plan.solos[i] + "/frontend", [&, i]() -> InstCount {
                    frontEnd(plan, plan.solos[i], slots[i]);
                    return slots[i].stream->meas.instructions;
                }));
            slots[i].users.fetch_add(1);
            std::vector<std::string> labels;
            for (ConfigKind kind : plan.soloKinds)
                labels.push_back(plan.solos[i] + "/" +
                                 configName(kind));
            matrix.addGroup(
                plan.solos[i] + "/gang", std::move(labels),
                [&, i] {
                    Scope job("sim.walk_job");
                    std::shared_ptr<const L2Stream> stream =
                        slots[i].stream;
                    std::vector<RunResult> rs =
                        walk(*stream, plan.soloKinds,
                             matrix.leaseHub(), walks[i], nullptr);
                    walks[i].jobSeconds = job.seconds();
                    walks[i].chainSeconds =
                        slots[i].jobSeconds + walks[i].jobSeconds;
                    stream.reset();
                    slots[i].release();
                    return rs;
                },
                handles[i]);
        }

        for (std::size_t m = 0; m < plan.mixes.size(); ++m) {
            std::vector<StreamSlot *> distinct;
            std::vector<std::size_t> deps;
            for (const std::string &member : plan.mixes[m].members) {
                StreamSlot &s = slot_of(member);
                if (std::find(distinct.begin(), distinct.end(), &s) ==
                    distinct.end()) {
                    distinct.push_back(&s);
                    s.users.fetch_add(1);
                    deps.push_back(handles[static_cast<std::size_t>(
                        &s - slots.data())]);
                }
            }
            std::vector<std::string> labels;
            for (ConfigKind kind : plan.mixKinds)
                labels.push_back(plan.mixes[m].name + "/" +
                                 configName(kind));
            matrix.addGroup(
                plan.mixes[m].name + "/mix", std::move(labels),
                [&, m, distinct] {
                    Scope job("sim.mix_job");
                    const MixSpec &spec = plan.mixes[m];
                    WalkRecord &rec = walks[plan.solos.size() + m];
                    std::vector<std::shared_ptr<const L2Stream>> ins;
                    std::vector<MixMemberInfo> members;
                    double slowest = 0.0;
                    for (const std::string &member : spec.members) {
                        ins.push_back(slot_of(member).stream);
                        members.push_back(
                            {member, ins.back()->meas.instructions});
                    }
                    for (StreamSlot *s : distinct)
                        slowest = std::max(slowest, s->jobSeconds);
                    std::shared_ptr<const L2Stream> merged;
                    {
                        Scope s("sim.mix_compose");
                        merged = composeMixStream(spec.name, ins);
                    }
                    rec.mixEvents = merged->numEvents();
                    ins.clear();
                    for (StreamSlot *s : distinct)
                        s->release();
                    std::vector<RunResult> rs =
                        walk(*merged, plan.mixKinds,
                             matrix.leaseHub(), rec, &members);
                    rec.jobSeconds = job.seconds();
                    rec.chainSeconds = slowest + rec.jobSeconds;
                    return rs;
                },
                std::move(deps));
        }
        results = matrix.run();
    }
    double sweep_s = now() - t0;
    std::size_t failed = countFailed(plan, results, ref);
    for (StreamSlot &s : slots) {
        if (s.recorded)
            probeEncoder(*s.recorded);
        s.recorded.reset();
    }

    // Self time of recordStream: its span minus its trace.gen
    // children (the rest is the L1 front end plus the encoder).
    std::vector<Span> all = spans.all();
    std::map<std::string, double> total;
    std::map<std::uint32_t, double> child;
    for (const Span &s : all) {
        total[s.name] += s.end - s.start;
        child[s.parent] += s.end - s.start;
    }
    double record_self = 0.0;
    for (const Span &s : all)
        if (std::string(s.name) == "sim.record")
            record_self += s.end - s.start - child[s.id];

    double accesses = 0.0, events = 0.0, bytes = 0.0, file_mb = 0.0;
    double lookups = 0.0, hits = 0.0;
    for (const StreamSlot &s : slots) {
        accesses += static_cast<double>(s.accesses);
        file_mb += s.fileMb;
        lookups += s.lookedUp ? 1.0 : 0.0;
        hits += s.diskHit ? 1.0 : 0.0;
    }
    std::map<std::string, double> lane{{"distill.lane_s", 0.0},
                                       {"cache.trad_lane_s", 0.0},
                                       {"compression.lane_s", 0.0},
                                       {"sfp.lane_s", 0.0}};
    double decode = 0.0, walk_wall = 0.0, lane_total = 0.0;
    double dispatched = 0.0, imbalance = 0.0, granted = 0.0;
    double wanted = 0.0, critical = 0.0, job_sum = 0.0, job_max = 0.0;
    double mix_events = 0.0, walk_events = 0.0;
    for (const WalkRecord &w : walks) {
        const GangReplayInfo &g = w.info;
        events += w.mixEvents ? 0.0 : static_cast<double>(g.events);
        bytes += w.mixEvents ? 0.0
                             : static_cast<double>(g.streamBytes);
        walk_events += static_cast<double>(g.events);
        mix_events += static_cast<double>(w.mixEvents);
        decode += g.decodeWallSeconds;
        walk_wall += g.wallSeconds;
        dispatched +=
            static_cast<double>(g.events) *
            static_cast<double>(g.configs);
        double lane_max = 0.0;
        for (std::size_t k = 0; k < g.laneWallSeconds.size(); ++k) {
            lane[laneLayer(w.kinds[k])] += g.laneWallSeconds[k];
            lane_max = std::max(lane_max, g.laneWallSeconds[k]);
        }
        lane_total += g.replayWallSeconds;
        imbalance += ratio(lane_max * static_cast<double>(g.configs),
                           g.replayWallSeconds);
        granted += g.laneWorkers;
        // replayMany asks the hub for lanes - 1 helpers (at most one
        // per config); LDIS_LANES is pinned to the worker count.
        wanted += static_cast<double>(std::min<std::size_t>(
            std::max(1u, workers - 1), g.configs));
        critical = std::max(critical, w.chainSeconds);
        job_sum += w.jobSeconds;
        job_max = std::max(job_max, w.jobSeconds);
    }
    for (const StreamSlot &s : slots) {
        job_sum += s.jobSeconds;
        job_max = std::max(job_max, s.jobSeconds);
    }
    double woc = 0.0, l2_hits = 0.0, holes = 0.0, misses = 0.0;
    double l1d_line = 0.0, l1i_miss = 0.0;
    for (const RunResult &r : results) {
        woc += static_cast<double>(r.l2.wocHits);
        l2_hits += static_cast<double>(r.l2.hits());
        holes += static_cast<double>(r.l2.holeMisses);
        misses += static_cast<double>(r.l2.misses());
        l1d_line += static_cast<double>(r.l1d.lineMisses);
        l1i_miss += static_cast<double>(r.l1i.misses);
    }
    double gen = total["trace.gen"];
    double encode = total["sim.encode"];

    std::vector<Field> fields = {
        {"sweep_s", sweep_s},
        {"cells", static_cast<double>(plan.cells())},
        {"failed", static_cast<double>(failed)},
        {"trace.gen_s", gen},
        {"trace.gen_maccess_per_s", ratio(accesses, gen) / 1e6},
        {"cache.frontend_s", std::max(0.0, record_self - encode)},
        {"sim.record_s", total["sim.record"]},
        {"sim.encode_s", encode},
        {"sim.stream_events", events},
        {"sim.stream_mb", bytes / 1e6},
        {"sim.bytes_per_event", ratio(bytes, events)},
        {"trace.stream_read_s", total["trace.stream_load"]},
        {"trace.stream_file_mb", file_mb},
        {"trace.stream_cache_hit_ratio", ratio(hits, lookups)},
        {"sim.decode_s", decode},
        {"sim.decode_mevents_per_s", ratio(walk_events, decode) / 1e6},
        {"sim.walk_s", walk_wall},
        {"sim.lane_s", lane_total},
        {"sim.lane_imbalance",
         ratio(imbalance, static_cast<double>(walks.size()))},
        {"sim.dispatch_mevents_per_s",
         ratio(dispatched, walk_wall) / 1e6},
        {"sim.mix_compose_s", total["sim.mix_compose"]},
        {"sim.mix_events", mix_events},
        {"sim.critical_path_s", critical},
        {"sim.runner_idle_s",
         std::max(0.0, workers * sweep_s - job_sum)},
        {"sim.job_max_s", job_max},
        {"common.lanes_granted", granted},
        {"common.lease_grant_ratio", ratio(granted, wanted)},
        {"distill.woc_hit_frac", ratio(woc, l2_hits)},
        {"distill.hole_miss_frac", ratio(holes, misses)},
        {"cache.l1d_line_misses", l1d_line},
        {"cache.l1i_misses", l1i_miss},
    };
    for (const auto &[name, secs] : lane)
        fields.emplace_back(name, secs);

    if (!spans_path.empty()) {
        std::FILE *f = std::fopen(spans_path.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + spans_path);
        long sweep_id = static_cast<long>(getpid());
        for (const Span &s : all)
            std::fprintf(f,
                         "{\"name\": \"%s\", \"id\": %u, \"parent\": "
                         "%u, \"sweep\": %ld, \"start\": %.9f, "
                         "\"end\": %.9f}\n",
                         s.name, s.id, s.parent, sweep_id,
                         s.start - t0, s.end - t0);
        std::fclose(f);
    }
    printFields(fields);
    return 0;
}

} // namespace perfbench
