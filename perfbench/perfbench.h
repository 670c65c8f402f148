/**
 * @file
 * Shared declarations of the cdpc benchmark (perfbench/): the three
 * workloads, the golden-checked job list each one runs, and the
 * metric rows a run prints. See perfbench/METRICS.md for the catalogue.
 */

#ifndef CDPC_PERFBENCH_H
#define CDPC_PERFBENCH_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "verify/golden.h"

namespace perfbench
{

/** One experiment of a workload grid, with its expected outcome. */
struct BenchJob
{
    /** Position in the figure's canonical (seed 1) order. */
    std::size_t canonical = 0;
    std::string figure;
    cdpc::verify::GoldenJob golden;
    /** The committed golden record for this job alone. */
    cdpc::verify::GoldenData expected;
    /** Stored unit of work: simulated demand line accesses, as
     *  counted by a SimOptions::record run (instruction fetches
     *  included), and how many of them were instruction fetches. */
    std::uint64_t accesses = 0;
    std::uint64_t ifetches = 0;
};

/** A workload: golden figure grids run on a fixed worker count. */
struct BenchWorkload
{
    std::string name;
    unsigned workers = 1;
    /** Jobs in the first pass's submission order (the seed's
     *  permutation; seed 1 keeps the canonical order). */
    std::vector<BenchJob> jobs;
    /** Sum of BenchJob::accesses. */
    std::uint64_t accesses = 0;
};

/** The workload names, in catalogue order. */
const std::vector<std::string> &workloadNames();

/**
 * Set up @p name: parse the committed goldens under
 * @p root/tests/golden, build the figure grids, attach the stored
 * work counts from @p root/perfbench/work.tsv (when @p with_work) and
 * permute the submission order by @p seed (seed 1 = canonical order).
 * fatal() on an unknown name, a missing golden record or count.
 */
BenchWorkload setUp(const std::string &name, std::uint64_t seed,
                    const std::string &root, bool with_work = true);

/**
 * The order a timed run submits @p n jobs in on pass @p pass, as
 * indices into BenchWorkload::jobs: pass 0 keeps that list's order,
 * later passes reshuffle it by (@p seed, @p pass). On the parallel
 * workload a job's latency depends on the jobs it runs beside, and a
 * pass's wall on where the long jobs land; reshuffling lets the
 * fastest pass and each job's fastest run sample several orders
 * instead of one.
 */
std::vector<std::size_t> passOrder(std::size_t n, std::uint64_t seed,
                                   std::size_t pass);

/**
 * Compare one finished job against its golden record.
 * @return the first differing field ("<label> <field>: golden X,
 *         actual Y"), or nullopt when the record matches.
 */
std::optional<std::string> checkRecord(const BenchJob &job,
                                       const cdpc::ExperimentResult &r);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Host wall-clock seconds on the steady clock. */
double nowSeconds();

/** Linear-interpolated quantile @p q in [0,1] of @p v (copied). */
double quantile(std::vector<double> v, double q);

/** What one run printed: its metrics and operation counts. */
struct RunOutcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * The traced run (--trace 1): one untraced grid pass through the
 * runner, then one pass on the same worker count in which every job
 * runs with a span around each call into a layer and is then
 * recorded and replayed through each layer. Spans are written to
 * @p spans_path; trace files go to @p scratch.
 */
RunOutcome runTraced(const BenchWorkload &w,
                        const std::string &scratch,
                        const std::string &spans_path);

/**
 * Recount the unit of work of every job of @p w by a record run,
 * check it against the RunCursor count, and append
 * "<figure> <label> <accesses> <ifetches>" lines to @p out.
 * @return the number of jobs whose two counts disagree.
 */
std::uint64_t countWork(const BenchWorkload &w, const std::string &scratch,
                        std::ostream &out);

} // namespace perfbench

#endif // CDPC_PERFBENCH_H
