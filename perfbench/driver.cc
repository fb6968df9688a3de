/**
 * @file
 * End-to-end benchmark driver: one process runs one phase of one
 * workload and prints its figures as a JSON line on stdout.
 *
 *   perfbench_driver <phase> --workload W --seed N [--cache-dir D]
 *       [--reference F] [--spans F]
 *
 * Phases:
 *   setup   build the sweep's inputs (every proxy and every lane's
 *           cache); for fig06-cached also record every stream and
 *           write it into --cache-dir
 *   oracle  direct-simulate every cell (runTrace / runMixDirect)
 *           and write the reference fingerprints to --reference
 *   sweep   one untraced sweep through RunMatrix (the user path),
 *           checked against --reference
 *   traced  one traced sweep (traced.cc), checked likewise, with
 *           its spans written to --spans
 *
 * perfbench/run.py sequences the phases; see perfbench/README.md.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/audit.hh"
#include "perfbench.hh"
#include "sim/mix.hh"
#include "sim/replay.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"

extern char **environ;

namespace perfbench
{

using namespace ldis;

namespace
{

const std::vector<ConfigKind> kFig06Kinds = {
    ConfigKind::Baseline1MB, ConfigKind::LdisBase, ConfigKind::LdisMT,
    ConfigKind::LdisMTRC};

/** Instructions per benchmark (fig06) or per mix member. */
constexpr InstCount kFig06Instructions = 10'000'000;
constexpr InstCount kMixInstructions = 1'000'000;

} // namespace

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan p;
    p.workload = workload;
    p.seed = seed;
    if (workload == "fig06-fresh" || workload == "fig06-cached") {
        p.instructions = kFig06Instructions;
        p.solos = studiedBenchmarks();
        p.soloKinds = kFig06Kinds;
        p.cached = workload == "fig06-cached";
    } else if (workload == "mix-13cfg") {
        // The mix_mpki harness: the 8 canonical mixes over every
        // config, plus the members' solo baselines.
        p.instructions = kMixInstructions;
        for (const MixSpec &mix : mixTable())
            for (const std::string &m : mix.members)
                if (std::find(p.solos.begin(), p.solos.end(), m) ==
                    p.solos.end())
                    p.solos.push_back(m);
        p.soloKinds = allConfigKinds();
        p.mixes = mixTable();
        p.mixKinds = allConfigKinds();
    } else {
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    }
    return p;
}

std::vector<std::string>
cellLabels(const Plan &plan)
{
    std::vector<std::string> labels;
    for (const std::string &name : plan.solos)
        for (ConfigKind kind : plan.soloKinds)
            labels.push_back(name + "/" + configName(kind));
    for (const MixSpec &mix : plan.mixes)
        for (ConfigKind kind : plan.mixKinds)
            labels.push_back(mix.name + "/" + configName(kind));
    return labels;
}

namespace
{

void
appendL2(std::string &s, const L2Stats &l2)
{
    for (std::uint64_t v :
         {l2.accesses, l2.locHits, l2.wocHits, l2.holeMisses,
          l2.lineMisses, l2.compulsoryMisses, l2.writebacks,
          l2.evictions})
        s += " " + std::to_string(v);
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
fingerprint(const RunResult &r)
{
    std::string s = r.benchmark + " " + r.config + " " +
                    std::to_string(r.instructions) + " " +
                    exact(r.mpki);
    appendL2(s, r.l2);
    for (std::uint64_t v : {r.l1d.accesses, r.l1d.hits,
                            r.l1d.sectorMisses, r.l1d.lineMisses,
                            r.l1i.accesses, r.l1i.misses})
        s += " " + std::to_string(v);
    for (const StreamStat &st : r.streams) {
        s += " | " + st.benchmark + " " +
             std::to_string(st.instructions) + " " + exact(st.mpki);
        appendL2(s, st.l2);
    }
    return s;
}

void
writeReference(const std::string &path, const Reference &ref)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &[label, fp] : ref)
        out << label << '\t' << fp << '\n';
    if (!out)
        throw std::runtime_error("cannot write reference " + path);
}

Reference
readReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        auto tab = line.find('\t');
        if (tab == std::string::npos)
            throw std::runtime_error("malformed reference " + path);
        ref.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    return ref;
}

std::size_t
countFailed(const Plan &plan, const std::vector<RunResult> &results,
            const Reference &ref)
{
    std::vector<std::string> labels = cellLabels(plan);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        bool ok = i < results.size() && i < ref.size() &&
                  ref[i].first == labels[i] &&
                  ref[i].second == fingerprint(results[i]);
        if (!ok) {
            std::fprintf(stderr, "perfbench: cell %s differs from "
                                 "the direct-simulation oracle\n",
                         labels[i].c_str());
            ++failed;
        }
    }
    return failed;
}

double
fileMegabytes(const std::string &path)
{
    struct stat st{};
    if (path.empty() || stat(path.c_str(), &st) != 0)
        return 0.0;
    return static_cast<double>(st.st_size) / 1e6;
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
printFields(const std::vector<Field> &fields)
{
    std::string line = "{";
    for (const auto &[name, value] : fields) {
        if (line.size() > 1)
            line += ", ";
        line += "\"" + name + "\": " + exact(value);
    }
    line += "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

namespace
{

/** Parsed command line. */
struct Args
{
    std::string phase;
    std::string workload;
    std::uint64_t seed = 0;
    std::string cacheDir;
    std::string reference;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing phase");
    Args a;
    a.phase = argv[1];
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            throw std::invalid_argument(std::string("missing value "
                                                    "for ") +
                                        argv[i]);
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--cache-dir")
            a.cacheDir = val;
        else if (key == "--reference")
            a.reference = val;
        else if (key == "--spans")
            a.spans = val;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (a.workload.empty() || a.seed == 0)
        throw std::invalid_argument("--workload and a nonzero --seed "
                                    "are required");
    return a;
}

/** CPUs this process may run on (the affinity mask, like nproc). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

/**
 * Input hygiene: drop every LDIS_* variable the caller's environment
 * carries (telemetry, stats, audit and run-length overrides are then
 * off), then pin the ones the sweep reads. Pool jobs and gang-walk
 * lane helpers share one budget of @p workers threads (the lease
 * hub's budget is the larger of the two), so a run never uses more
 * threads than CPUs.
 */
void
pinEnvironment(unsigned workers, const std::string &cache_dir)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "LDIS_", 5) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        unsetenv(n.c_str());
    std::string jobs = std::to_string(workers);
    setenv("LDIS_JOBS", jobs.c_str(), 1);
    setenv("LDIS_LANES", jobs.c_str(), 1);
    setenv("LDIS_GANG", "1", 1);
    setenv("LDIS_REPLAY", "1", 1);
    setenv("LDIS_PROGRESS", "0", 1);
    if (!cache_dir.empty())
        setenv("LDIS_TRACE_CACHE", cache_dir.c_str(), 1);
}

/**
 * Build the inputs a sweep constructs — every proxy workload and
 * every lane's cache — and, for the cached workload, record each
 * stream and write it into the stream cache.
 */
int
setupPhase(const Plan &plan, unsigned workers)
{
    std::vector<ValueProfile> profiles;
    for (const std::string &name : plan.solos)
        profiles.push_back(makeBenchmark(name, plan.seed)
                               ->valueProfile());
    for (const ValueProfile &values : profiles)
        for (ConfigKind kind : plan.soloKinds)
            makeConfig(kind, values);
    for (std::size_t m = 0; m < plan.mixes.size(); ++m)
        for (ConfigKind kind : plan.mixKinds)
            makeConfig(kind);

    std::vector<double> write_s(plan.solos.size(), 0.0);
    std::vector<double> file_mb(plan.solos.size(), 0.0);
    if (plan.cached) {
        RunMatrix matrix(workers);
        for (std::size_t i = 0; i < plan.solos.size(); ++i) {
            matrix.addSetup(plan.solos[i] + "/fill", [&, i] {
                auto workload = makeBenchmark(plan.solos[i],
                                              plan.seed);
                L2Stream s = recordStream(*workload, plan.seed, 0,
                                          plan.instructions);
                std::string path = streamCachePath(
                    plan.solos[i], plan.seed, 0, plan.instructions);
                double t0 = now();
                if (!writeL2Stream(path, s))
                    throw std::runtime_error("cannot fill " + path);
                write_s[i] = now() - t0;
                file_mb[i] = fileMegabytes(path);
                return s.meas.instructions;
            });
        }
        matrix.run();
    }
    double ws = 0.0;
    double mb = 0.0;
    for (std::size_t i = 0; i < write_s.size(); ++i) {
        ws += write_s[i];
        mb += file_mb[i];
    }
    printFields({{"stream_write_s", ws}, {"stream_file_mb", mb}});
    return 0;
}

/** Direct-simulate every cell into the reference file. */
int
oraclePhase(const Plan &plan, unsigned workers,
            const std::string &path)
{
    RunMatrix matrix(workers);
    for (const std::string &name : plan.solos)
        for (ConfigKind kind : plan.soloKinds)
            matrix.add(name, kind, plan.instructions, plan.seed);
    for (const MixSpec &mix : plan.mixes)
        for (ConfigKind kind : plan.mixKinds)
            matrix.add(mix.name + "/" + configName(kind),
                       [&plan, mix, kind] {
                           return runMixDirect(mix, kind,
                                               plan.instructions,
                                               plan.seed);
                       });
    const std::vector<RunResult> &results = matrix.run();
    std::vector<std::string> labels = cellLabels(plan);
    Reference ref;
    for (std::size_t i = 0; i < results.size(); ++i)
        ref.emplace_back(labels[i], fingerprint(results[i]));
    writeReference(path, ref);
    printFields({{"cells", static_cast<double>(ref.size())}});
    return 0;
}

/** Σ simulated instructions over the result cells. */
double
simulatedInstructions(const std::vector<RunResult> &results)
{
    double n = 0.0;
    for (const RunResult &r : results)
        n += static_cast<double>(r.instructions);
    return n;
}

/** One untraced sweep through the RunMatrix user path. */
int
sweepPhase(const Plan &plan, unsigned workers, const Reference &ref)
{
    double cpu0 = cpuSeconds();
    double t0 = now();
    RunMatrix matrix(workers);
    for (const std::string &name : plan.solos)
        matrix.addReplayGroup(name, plan.soloKinds, plan.instructions,
                              plan.seed);
    for (const MixSpec &mix : plan.mixes)
        matrix.addMixGroup(mix, plan.mixKinds, plan.instructions,
                           plan.seed);
    const std::vector<RunResult> &results = matrix.run();
    double sweep_s = now() - t0;
    double cpu_s = cpuSeconds() - cpu0;

    std::size_t failed = countFailed(plan, results, ref);
    // fig06-cached measures loading: a cell whose stream was
    // recorded instead (a cache miss) did not run the workload.
    for (const RunResult &r : results) {
        if (plan.cached && r.streamSource != "disk-cache") {
            std::fprintf(stderr, "perfbench: %s/%s missed the stream "
                                 "cache\n",
                         r.benchmark.c_str(), r.config.c_str());
            ++failed;
        }
    }
    printFields({{"sweep_s", sweep_s},
                 {"cpu_s", cpu_s},
                 {"peak_rss_mb", peakRssMb()},
                 {"cells", static_cast<double>(plan.cells())},
                 {"failed", static_cast<double>(failed)},
                 {"sim_instructions", simulatedInstructions(results)}});
    return 0;
}

int
run(const Args &a)
{
    // Refuse a build the figures must not come from: audited
    // libraries carry extra checks, and anything but Release times
    // other code than users run.
    if (audit::compiledIn() ||
        std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing a %s%s build; "
                             "configure with "
                             "-DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE,
                     audit::compiledIn() ? " audited" : "");
        return 2;
    }
    unsigned workers = std::min(4u, usableCpus());
    Plan plan = makePlan(a.workload, a.seed);
    bool use_cache = plan.cached && a.phase != "oracle";
    if (use_cache && a.cacheDir.empty())
        throw std::invalid_argument(a.workload +
                                    " needs --cache-dir");
    pinEnvironment(workers, use_cache ? a.cacheDir : "");

    if (a.phase == "setup")
        return setupPhase(plan, workers);
    if (a.reference.empty())
        throw std::invalid_argument("--reference is required");
    if (a.phase == "oracle")
        return oraclePhase(plan, workers, a.reference);
    Reference ref = readReference(a.reference);
    if (a.phase == "sweep")
        return sweepPhase(plan, workers, ref);
    if (a.phase == "traced")
        return tracedSweep(plan, workers, ref, a.spans);
    throw std::invalid_argument("unknown phase '" + a.phase + "'");
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
