/**
 * @file
 * The traced run and the per-layer replays.
 *
 * Every layer is timed from outside, through its public functions:
 * a span is recorded around each call into a layer (name, start,
 * end, parent; a job's spans carry the job's canonical index as
 * their id), kept in memory, and written out as JSON lines when the
 * run ends. End-to-end figures never come from here: they are
 * measured with tracing off (perfbench.cc).
 *
 * The layer replays feed a job's recorded demand stream, held in
 * memory, through one layer at a time: RunCursor generation, a fresh
 * MemorySystem, VirtualMemory::translate and the LruShadow.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>

#include "cdpc/runtime.h"
#include "common/logging.h"
#include "compiler/compiler.h"
#include "ir/exec.h"
#include "machine/tracefile.h"
#include "mem/memsystem.h"
#include "mem/miss_classify.h"
#include "perfbench.h"
#include "runner/runner.h"
#include "vm/hints.h"
#include "vm/physmem.h"
#include "vm/policy.h"
#include "vm/pressure.h"
#include "workloads/workload.h"

namespace perfbench
{

using namespace cdpc;

namespace
{

/** Where the timed loops' results go, so none is optimized away. */
std::atomic<std::uint64_t> g_sink{0};

struct Span
{
    std::string name;
    std::string parent;
    double start = 0;
    double end = 0;
};

/** The spans of one job; each job owns its slot, so no lock. */
struct JobSpans
{
    std::vector<Span> spans;

    /** Run @p fn inside a span; @return the span's seconds. */
    template <typename F>
    double
    span(const char *name, const char *parent, F &&fn)
    {
        double t0 = nowSeconds();
        fn();
        double t1 = nowSeconds();
        spans.push_back({name, parent, t0, t1});
        return t1 - t0;
    }

    double
    total(const std::string &name) const
    {
        double s = 0;
        for (const Span &sp : spans)
            if (sp.name == name)
                s += sp.end - sp.start;
        return s;
    }
};

/** The CompilerOptions runProgram() derives from the machine. */
CompilerOptions
harnessCompilerOptions(const ExperimentConfig &c)
{
    const MachineConfig &m = c.machine;
    CompilerOptions o;
    o.align = c.aligned;
    o.prefetch = c.prefetch;
    o.aligner.lineBytes = m.l2.lineBytes;
    o.aligner.l1SpanBytes = m.l1d.sizeBytes / m.l1d.assoc;
    o.prefetcher.lineBytes = m.l2.lineBytes;
    o.prefetcher.targetLatency = m.memLatencyCycles;
    o.prefetcher.minArrayBytes = m.l2.sizeBytes / 2;
    return o;
}

bool
usesCdpc(const ExperimentConfig &c)
{
    return c.mapping == MappingPolicy::Cdpc ||
           c.mapping == MappingPolicy::CdpcTouchOrder;
}

/** What driving RunCursor over a whole job produced. */
struct CursorCount
{
    /** Records with memory references (what executeLine accesses). */
    std::uint64_t lineAccesses = 0;
    std::uint64_t elems = 0;
};

/**
 * Drive RunCursor the way MpSimulator::run does: the init phase once,
 * then every steady phase warmup + measure rounds, each parallel nest
 * once per CPU and each sequential or suppressed nest on CPU 0.
 */
CursorCount
driveCursors(const Program &p, const ExperimentConfig &c)
{
    const std::uint32_t ncpus = c.machine.numCpus;
    const std::uint32_t line = c.machine.l2.lineBytes;
    CursorCount n;
    LineAccess la;
    auto drain = [&](RunCursor cursor) {
        while (cursor.next(la)) {
            if (la.elems && la.ref) {
                n.lineAccesses++;
                n.elems += la.elems;
            }
        }
    };
    auto phase = [&](const Phase &ph) {
        for (const LoopNest &nest : ph.nests) {
            if (nest.kind == NestKind::Parallel) {
                for (CpuId cpu = 0; cpu < ncpus; cpu++)
                    drain(RunCursor(p, nest, cpu, ncpus, line));
            } else {
                drain(RunCursor(p, nest, 0, 1, line));
            }
        }
    };
    if (c.sim.runInit)
        phase(p.init);
    for (const Phase &ph : p.steady)
        for (std::uint32_t r = 0;
             r < c.sim.warmupRounds + c.sim.measureRounds; r++)
            phase(ph);
    return n;
}

/**
 * Run the job once with SimOptions::record on and load its demand
 * stream into memory (the file at @p path is removed afterwards).
 */
std::vector<TraceRecord>
recordStream(const BenchJob &job, const std::string &path,
             ExperimentResult &result)
{
    {
        TraceWriter writer(path, job.golden.config.machine.numCpus);
        ExperimentConfig c = job.golden.config;
        c.sim.record = &writer;
        result = runWorkload(job.golden.workload, c);
        writer.close();
    }
    std::vector<TraceRecord> recs;
    {
        TraceReader reader(path);
        recs.reserve(reader.records());
        TraceRecord r;
        while (reader.next(r))
            recs.push_back(r);
    }
    std::remove(path.c_str());
    return recs;
}

/**
 * The job's operating-system side, built as runProgram() builds it
 * for the mappings the golden grids use, with the CDPC plan (if any)
 * installed.
 */
struct JobOs
{
    std::unique_ptr<PhysMem> phys;
    std::unique_ptr<ColorFallbackPolicy> fallback;
    std::unique_ptr<PageMappingPolicy> base;
    std::unique_ptr<CdpcHintPolicy> hints;
    std::unique_ptr<VirtualMemory> vm;

    JobOs(const ExperimentConfig &c, const AccessSummaries &summaries)
    {
        const MachineConfig &m = c.machine;
        fatalIf(c.preallocatedPages || c.dynamicRecolor ||
                    !c.colorOverrides.empty(),
                "layer replay supports the golden grids' configs only");
        phys = std::make_unique<PhysMem>(m.physPages, m.indexFunction());
        applyMemoryPressure(*phys, c.pressure);
        fallback = makeFallbackPolicy(c.fallback);
        switch (c.mapping) {
          case MappingPolicy::PageColoring:
          case MappingPolicy::Cdpc:
            base = std::make_unique<PageColoringPolicy>(m.numColors());
            break;
          case MappingPolicy::BinHopping:
          case MappingPolicy::CdpcTouchOrder:
            base = std::make_unique<BinHoppingPolicy>(
                m.numColors(), c.binHopRacy, c.seed);
            break;
          default:
            fatal("layer replay: unsupported mapping ",
                  mappingName(c.mapping));
        }
        hints = std::make_unique<CdpcHintPolicy>(*base);
        PageMappingPolicy &active =
            c.mapping == MappingPolicy::Cdpc
                ? static_cast<PageMappingPolicy &>(*hints)
                : *base;
        vm = std::make_unique<VirtualMemory>(m, *phys, active,
                                             fallback.get());
        if (usesCdpc(c)) {
            CdpcPlan plan =
                computeCdpcPlan(summaries, cdpcParams(m), c.cdpcOptions);
            if (c.mapping == MappingPolicy::Cdpc)
                applyHints(plan, *hints);
            else
                applyByTouchOrder(plan, *vm);
        }
    }
};

/** Sums of one job's layer replays. */
struct LayerTimes
{
    CursorCount cursor;
    std::uint64_t records = 0;
    std::uint64_t ifetches = 0;
    double cursorS = 0, accessS = 0, translateS = 0, shadowS = 0;
};

/** Replay the recorded stream through each layer in isolation. */
LayerTimes
replayLayers(const BenchJob &job, const Program &compiled,
             const AccessSummaries &summaries,
             const std::vector<TraceRecord> &recs, JobSpans &t)
{
    const ExperimentConfig &c = job.golden.config;
    const MachineConfig &m = c.machine;
    LayerTimes lt;
    lt.records = recs.size();
    for (const TraceRecord &r : recs)
        lt.ifetches += r.isIfetch();

    lt.cursorS = t.span("ir.cursor", "job", [&] {
        lt.cursor = driveCursors(compiled, c);
    });

    JobOs os(c, summaries);
    MemorySystem mem(m, *os.vm);
    os.vm->setRemapObserver(
        [&](PageNum vpn) { mem.purgePage(vpn * m.pageBytes); });
    std::vector<Cycles> clock(m.numCpus, 0);
    lt.accessS = t.span("mem.access", "job", [&] {
        for (const TraceRecord &r : recs) {
            Cycles &clk = clock[r.cpu];
            clk += r.insts;
            MemAccess a;
            a.va = r.va;
            a.kind = r.isIfetch()   ? AccessKind::Ifetch
                     : r.isWrite() ? AccessKind::Store
                                   : AccessKind::Load;
            a.wordMask = r.wordMask;
            clk += mem.access(r.cpu, a, clk).stall;
        }
    });

    PAddr sink = 0;
    lt.translateS = t.span("vm.translate", "job", [&] {
        for (const TraceRecord &r : recs)
            sink += os.vm->translate(r.va, r.cpu).pa;
    });

    unsigned line_shift = 0;
    while ((1u << line_shift) < m.l2.lineBytes)
        line_shift++;
    std::vector<Addr> lines;
    lines.reserve(recs.size());
    for (const TraceRecord &r : recs)
        lines.push_back(*os.vm->translateIfMapped(r.va) >> line_shift);
    std::vector<LruShadow> shadows(m.numCpus,
                                   LruShadow(m.l2.numLines()));
    std::uint64_t hits = 0;
    lt.shadowS = t.span("mem.shadow", "job", [&] {
        for (std::size_t i = 0; i < recs.size(); i++)
            hits += shadows[recs[i].cpu].accessAndUpdate(lines[i]);
    });
    // Keep the timed loops' results observable.
    g_sink.fetch_add(sink + hits, std::memory_order_relaxed);
    return lt;
}

/** Accumulates the simulated counts of a grid, in canonical order. */
struct SimCounts
{
    double refs = 0, l1Misses = 0, l2Misses = 0, conflict = 0,
           sharing = 0, tlbMisses = 0, prefIssued = 0, prefUseful = 0,
           busTxns = 0, busQueueing = 0;
    std::uint64_t pageFaults = 0, hintsHonored = 0;

    void
    add(const ExperimentConfig &c, const ExperimentResult &r)
    {
        const WeightedTotals &t = r.totals;
        const MachineConfig &m = c.machine;
        refs += t.refs;
        l1Misses += t.l1Misses;
        l2Misses += t.l2Misses;
        conflict += t.missCountOf(MissKind::Conflict);
        sharing += t.missCountOf(MissKind::TrueSharing) +
                   t.missCountOf(MissKind::FalseSharing);
        tlbMisses += t.tlbMisses;
        prefIssued += t.prefetchesIssued;
        prefUseful += t.prefetchesUseful;
        // Every transaction of a kind occupies the bus a fixed time.
        busTxns += t.busDataBusy / static_cast<double>(m.busDataCycles) +
                   t.busWritebackBusy /
                       static_cast<double>(m.busWritebackCycles) +
                   t.busUpgradeBusy /
                       static_cast<double>(m.busUpgradeCycles);
        busQueueing += t.busQueueing;
        pageFaults += r.degradation.pageFaults;
        hintsHonored += r.degradation.hintHonored;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
writeSpans(const std::string &path, const BenchWorkload &w,
           const std::vector<JobSpans> &traced, double origin)
{
    std::ofstream out(path, std::ios::trunc);
    fatalIf(!out, "cannot write spans to ", path);
    out.precision(17);
    for (std::size_t i = 0; i < traced.size(); i++) {
        for (const Span &s : traced[i].spans) {
            out << "{\"id\":" << w.jobs[i].canonical << ",\"name\":\""
                << s.name << "\",\"parent\":\"" << s.parent
                << "\",\"start_us\":" << (s.start - origin) * 1e6
                << ",\"end_us\":" << (s.end - origin) * 1e6 << "}\n";
        }
    }
    fatalIf(!out.flush(), "cannot write spans to ", path);
}

/** Report and count one failed operation. */
void
noteFailure(std::uint64_t &failed, const std::string &what)
{
    failed++;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

} // namespace

RunOutcome
runTraced(const BenchWorkload &w, const std::string &scratch,
          const std::string &spans_path)
{
    const std::size_t n = w.jobs.size();
    const double origin = nowSeconds();
    RunOutcome out;
    out.attempted = 3 * n;

    // 1. The untraced grid pass, exactly as a timed run does it.
    std::vector<runner::JobSpec> specs;
    for (const BenchJob &j : w.jobs) {
        runner::JobSpec s = runner::makeJob(j.golden.workload,
                                            j.golden.config);
        s.trace = false;
        specs.push_back(std::move(s));
    }
    runner::BatchOptions bopts;
    bopts.jobs = w.workers;
    double t0 = nowSeconds();
    std::vector<runner::JobResult> untraced =
        runner::runBatch(std::move(specs), bopts);
    const double wallUntraced = nowSeconds() - t0;
    double busy = 0, longest = 0;
    std::vector<std::pair<const BenchJob *, const ExperimentResult *>>
        byCanonical(n, {nullptr, nullptr});
    for (std::size_t i = 0; i < n; i++) {
        const runner::JobResult &jr = untraced[i];
        busy += jr.hostSeconds;
        longest = std::max(longest, jr.hostSeconds);
        if (!jr.ok()) {
            noteFailure(out.failed, w.jobs[i].golden.label + ": " +
                                        jr.error);
            continue;
        }
        if (auto diff = checkRecord(w.jobs[i], *jr.result))
            noteFailure(out.failed, *diff);
        byCanonical[w.jobs[i].canonical] = {&w.jobs[i], &*jr.result};
    }

    // 2. The traced pass on the same worker count: each job runs
    //    through the harness with a span around each call into a
    //    layer, then is recorded and replayed through each layer in
    //    isolation, so a job's layer costs are measured right after
    //    its simulation, under the same host load.
    std::vector<JobSpans> traced(n);
    std::vector<LayerTimes> times(n);
    std::vector<std::vector<std::string>> errors(n);
    {
        runner::ThreadPool pool(w.workers);
        for (std::size_t i = 0; i < n; i++) {
            pool.submit([&, i] {
                const BenchJob &job = w.jobs[i];
                const ExperimentConfig &c = job.golden.config;
                JobSpans &t = traced[i];
                double j0 = nowSeconds();
                try {
                    Program p;
                    t.span("workloads.build", "job", [&] {
                        p = buildWorkload(job.golden.workload);
                    });
                    CompileResult cr;
                    t.span("compiler.compile", "job", [&] {
                        cr = compileProgram(p, harnessCompilerOptions(c));
                    });
                    if (usesCdpc(c)) {
                        t.span("cdpc.plan", "job", [&] {
                            computeCdpcPlan(cr.summaries,
                                            cdpcParams(c.machine),
                                            c.cdpcOptions);
                        });
                    }
                    ExperimentResult r;
                    t.span("harness.experiment", "job", [&] {
                        r = runWorkload(job.golden.workload, c);
                    });
                    if (auto diff = checkRecord(job, r))
                        errors[i].push_back(*diff);

                    std::vector<TraceRecord> recs;
                    std::string trc = scratch + "/job-" +
                                      std::to_string(job.canonical) + ".trc";
                    t.span("machine.record", "job",
                           [&] { recs = recordStream(job, trc, r); });
                    LayerTimes &lt = times[i];
                    lt = replayLayers(job, p, cr.summaries, recs, t);
                    if (auto diff = checkRecord(job, r))
                        errors[i].push_back(*diff);
                    else if (lt.records != job.accesses ||
                             lt.ifetches != job.ifetches ||
                             lt.cursor.lineAccesses !=
                                 lt.records - lt.ifetches)
                        errors[i].push_back(
                            job.golden.label + ": counted " +
                            std::to_string(lt.records) + " accesses (" +
                            std::to_string(lt.ifetches) + " ifetch, " +
                            std::to_string(lt.cursor.lineAccesses) +
                            " from RunCursor), stored " +
                            std::to_string(job.accesses));
                } catch (const std::exception &e) {
                    errors[i].push_back(job.golden.label + ": " + e.what());
                }
                t.spans.push_back({"job", "", j0, nowSeconds()});
            });
        }
        pool.waitIdle();
    }
    // Per job, the traced harness calls over the untraced job. The
    // median over jobs is steadier than a ratio of two pass walls,
    // which host load bursts move by ±20%.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < n; i++) {
        for (const std::string &e : errors[i])
            noteFailure(out.failed, e);
        const JobSpans &t = traced[i];
        if (errors[i].empty())
            overhead.push_back((t.total("workloads.build") +
                                t.total("compiler.compile") +
                                t.total("cdpc.plan") +
                                t.total("harness.experiment")) /
                               untraced[i].hostSeconds);
    }
    if (overhead.empty())
        overhead.push_back(1);
    writeSpans(spans_path, w, traced, origin);

    // Metrics. Sums run in canonical order so counts repeat exactly
    // whatever the seed.
    SimCounts sim;
    for (const auto &[job, result] : byCanonical)
        if (result)
            sim.add(job->golden.config, *result);
    double build = 0, compile = 0, plan = 0, experiment = 0;
    for (const JobSpans &t : traced) {
        build += t.total("workloads.build");
        compile += t.total("compiler.compile");
        plan += t.total("cdpc.plan");
        experiment += t.total("harness.experiment");
    }
    double simulate = experiment - build - compile - plan;
    std::uint64_t lineAccesses = 0, elems = 0, records = 0;
    double cursorS = 0, accessS = 0, translateS = 0, shadowS = 0;
    for (const LayerTimes &lt : times) {
        lineAccesses += lt.cursor.lineAccesses;
        elems += lt.cursor.elems;
        records += lt.records;
        cursorS += lt.cursorS;
        accessS += lt.accessS;
        translateS += lt.translateS;
        shadowS += lt.shadowS;
    }
    const double perRecord = 1e9 / static_cast<double>(records ? records : 1);
    const double workers = static_cast<double>(w.workers);

    out.metrics = {
        {"workloads.build_ms", build * 1e3, "ms"},
        {"compiler.compile_ms", compile * 1e3, "ms"},
        {"cdpc.plan_ms", plan * 1e3, "ms"},
        {"harness.experiment_s", experiment, "s"},
        {"machine.simulate_s", simulate, "s"},
        {"ir.line_accesses", static_cast<double>(lineAccesses), "count"},
        {"ir.ns_per_access", ratio(cursorS * 1e9, lineAccesses), "ns"},
        {"ir.elems_per_access", ratio(elems, lineAccesses), "elems"},
        {"mem.access_ns", accessS * perRecord, "ns"},
        {"vm.translate_ns", translateS * perRecord, "ns"},
        {"mem.shadow_ns", shadowS * perRecord, "ns"},
        {"mem.l1_miss_frac", ratio(sim.l1Misses, sim.refs), "frac"},
        {"mem.l2_miss_frac", ratio(sim.l2Misses, sim.refs), "frac"},
        {"mem.conflict_frac", ratio(sim.conflict, sim.l2Misses), "frac"},
        {"mem.sharing_frac", ratio(sim.sharing, sim.l2Misses), "frac"},
        {"mem.tlb_miss_frac", ratio(sim.tlbMisses, sim.refs), "frac"},
        {"mem.prefetch_useful_frac",
         ratio(sim.prefUseful, sim.prefIssued), "frac"},
        {"vm.page_faults", static_cast<double>(sim.pageFaults), "count"},
        {"vm.hints_honored", static_cast<double>(sim.hintsHonored),
         "count"},
        {"bus.txns_per_access", ratio(sim.busTxns, sim.refs), "txn"},
        {"bus.queueing_per_access", ratio(sim.busQueueing, sim.refs),
         "cycles"},
        {"machine.loop_ns", (simulate - cursorS - accessS) * perRecord,
         "ns"},
        {"runner.efficiency", ratio(busy, wallUntraced * workers), "frac"},
        {"runner.idle_s", wallUntraced * workers - busy, "s"},
        {"runner.longest_job_s", longest, "s"},
        {"layers.explained_frac", ratio(cursorS + accessS, simulate),
         "frac"},
        {"trace.overhead_frac", quantile(overhead, 0.5) - 1, "frac"},
    };
    return out;
}

std::uint64_t
countWork(const BenchWorkload &w, const std::string &scratch,
          std::ostream &out)
{
    std::uint64_t disagree = 0;
    for (const BenchJob &job : w.jobs) {
        Program p = buildWorkload(job.golden.workload);
        compileProgram(p, harnessCompilerOptions(job.golden.config));
        CursorCount cursor = driveCursors(p, job.golden.config);
        ExperimentResult r;
        std::vector<TraceRecord> recs =
            recordStream(job, scratch + "/job.trc", r);
        std::uint64_t ifetches = 0;
        for (const TraceRecord &rec : recs)
            ifetches += rec.isIfetch();
        if (auto diff = checkRecord(job, r))
            fatal("work count run does not match the golden: ", *diff);
        if (cursor.lineAccesses != recs.size() - ifetches) {
            disagree++;
            std::fprintf(stderr,
                         "perfbench: %s: RunCursor counts %llu, record "
                         "run %llu demand accesses\n",
                         job.golden.label.c_str(),
                         static_cast<unsigned long long>(cursor.lineAccesses),
                         static_cast<unsigned long long>(recs.size() -
                                                         ifetches));
        }
        out << job.figure << " " << job.golden.label << " " << recs.size()
            << " " << ifetches << "\n";
    }
    return disagree;
}

} // namespace perfbench
