/**
 * @file
 * Shared pieces of the end-to-end benchmark driver: the sweep plan
 * of each workload, the result-cell fingerprint the correctness gate
 * compares, and small host-measurement helpers.
 *
 * The driver has one untraced sweep (driver.cc, the user path
 * through RunMatrix::addReplayGroup / addMixGroup) and one traced
 * sweep (traced.cc, the same schedule composed from the lower-level
 * calls so each layer boundary can carry a span). Both produce the
 * same result cells, in the same order, as the plan below.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/configs.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** One workload's sweep: solo replay groups, then mix groups. */
struct Plan
{
    std::string workload;
    std::uint64_t seed = 1;
    ldis::InstCount instructions = 0; //!< per benchmark / mix member
    /** Solo benchmarks, each swept over soloKinds. */
    std::vector<std::string> solos;
    std::vector<ldis::ConfigKind> soloKinds;
    /** Mixes, each swept over mixKinds. */
    std::vector<ldis::MixSpec> mixes;
    std::vector<ldis::ConfigKind> mixKinds;
    /** Streams are loaded from a filled LDIS_TRACE_CACHE. */
    bool cached = false;

    /** Result cells of one sweep (solo cells first, then mixes). */
    std::size_t
    cells() const
    {
        return solos.size() * soloKinds.size() +
               mixes.size() * mixKinds.size();
    }
};

/** The plan of @p workload; throws std::invalid_argument if unknown. */
Plan makePlan(const std::string &workload, std::uint64_t seed);

/** Cell labels of @p plan, in result order ("mcf/LDIS-MT"). */
std::vector<std::string> cellLabels(const Plan &plan);

/**
 * Every simulated counter of a result cell as one line: headline
 * instructions and MPKI, the full L2/L1D/L1I counter blocks and, for
 * mix cells, each member stream's slice. Host timing fields and the
 * stream provenance are excluded. Two cells are correct against
 * each other iff their fingerprints are equal.
 */
std::string fingerprint(const ldis::RunResult &r);

/** Reference fingerprints keyed by cell label (tab-separated file). */
using Reference = std::vector<std::pair<std::string, std::string>>;

void writeReference(const std::string &path, const Reference &ref);
Reference readReference(const std::string &path);

/** Cells whose fingerprint differs from (or is missing in) @p ref. */
std::size_t countFailed(const Plan &plan,
                        const std::vector<ldis::RunResult> &results,
                        const Reference &ref);

/** Size of the file at @p path in MB (0 if absent or empty path). */
double fileMegabytes(const std::string &path);

/** Seconds on the steady clock since an arbitrary epoch. */
double now();

/** User + system CPU seconds of this process (all threads). */
double cpuSeconds();

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** One "name": value pair of the driver's JSON output line. */
using Field = std::pair<std::string, double>;

/** Print {"name": value, ...} on one stdout line, all digits kept. */
void printFields(const std::vector<Field> &fields);

/** Traced sweep of @p plan (traced.cc); prints the layer metrics. */
int tracedSweep(const Plan &plan, unsigned workers,
                const Reference &ref, const std::string &spans_path);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
