/**
 * @file
 * Workload set-up for the benchmark: the golden figure grids, their
 * committed expected records, the stored work counts, and the
 * seed-derived submission order.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "perfbench.h"
#include "runner/job.h"

namespace perfbench
{

using cdpc::fatal;
using cdpc::fatalIf;
using namespace cdpc::verify;

namespace
{

struct WorkloadDef
{
    const char *name;
    std::vector<std::string> figures;
    unsigned workers;
};

const std::vector<WorkloadDef> &
definitions()
{
    static const std::vector<WorkloadDef> defs = {
        {"fig6-serial", {"fig6"}, 1},
        {"fig7-fig8-serial", {"fig7", "fig8"}, 1},
        {"table2-jobs4", {"table2"}, 4},
    };
    return defs;
}

/** "<figure> <label>" -> (accesses, ifetches), from work.tsv. */
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
loadWork(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open work counts ", path);
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> work;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string figure, label;
        std::uint64_t accesses = 0, ifetches = 0;
        fatalIf(!(ls >> figure >> label >> accesses >> ifetches), path,
                ": malformed line '", line, "'");
        work[figure + " " + label] = {accesses, ifetches};
    }
    return work;
}

/** 0..n-1 in the order a Fisher-Yates shuffle over the runner's
 *  splitmix64 job-seed stream @p stream leaves them. */
std::vector<std::size_t>
shuffled(std::size_t n, std::uint64_t stream)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; i--) {
        std::size_t j = cdpc::runner::deriveJobSeed(stream, i) % i;
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const WorkloadDef &d : definitions())
            v.push_back(d.name);
        return v;
    }();
    return names;
}

BenchWorkload
setUp(const std::string &name, std::uint64_t seed, const std::string &root,
      bool with_work)
{
    auto def = std::find_if(
        definitions().begin(), definitions().end(),
        [&](const WorkloadDef &d) { return name == d.name; });
    if (def == definitions().end())
        fatal("unknown workload '", name, "'");

    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> work;
    if (with_work)
        work = loadWork(root + "/perfbench/work.tsv");

    BenchWorkload w;
    w.name = def->name;
    w.workers = def->workers;
    std::vector<BenchJob> canonical;
    for (const std::string &figure : def->figures) {
        std::string path = root + "/tests/golden/" + figure + ".golden";
        std::ifstream in(path);
        fatalIf(!in, "cannot open golden file ", path);
        GoldenData golden = parseGolden(in, path);
        for (GoldenJob &g : goldenJobs(figure)) {
            BenchJob job;
            job.canonical = canonical.size();
            job.figure = figure;
            auto rec = golden.records.find(g.label);
            fatalIf(rec == golden.records.end(), path,
                    ": no golden record for ", g.label);
            job.expected.records.insert(*rec);
            if (with_work) {
                auto it = work.find(figure + " " + g.label);
                fatalIf(it == work.end(), "work.tsv has no count for ",
                        figure, " ", g.label);
                job.accesses = it->second.first;
                job.ifetches = it->second.second;
            }
            job.golden = std::move(g);
            w.accesses += job.accesses;
            canonical.push_back(std::move(job));
        }
    }
    if (seed == 1) {
        w.jobs = std::move(canonical);
        return w;
    }
    for (std::size_t i : shuffled(canonical.size(), seed))
        w.jobs.push_back(canonical[i]);
    return w;
}

std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, std::size_t pass)
{
    if (pass == 0) {
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        return order;
    }
    return shuffled(n, cdpc::runner::deriveJobSeed(seed, pass));
}

std::optional<std::string>
checkRecord(const BenchJob &job, const cdpc::ExperimentResult &r)
{
    GoldenData actual =
        goldenFromRecords({goldenRecord(job.golden.label, r)});
    std::vector<GoldenDiff> diffs = diffGolden(job.expected, actual);
    if (diffs.empty())
        return std::nullopt;
    const GoldenDiff &d = diffs.front();
    return d.label + " " + (d.field.empty() ? "<record>" : d.field) +
           ": golden " + d.golden + ", actual " + d.actual;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    fatalIf(v.empty(), "quantile of no samples");
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace perfbench
