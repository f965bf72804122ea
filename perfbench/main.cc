/**
 * @file
 * Repository benchmark program (perfbench/README.md).
 *
 *   perfbench --workload paper-matrix|static-front|sweep-replay
 *             --seed N --seconds S --trace 0|1
 *             [--variant 0|1|2] [--refs DIR] [--store DIR]
 *             [--limit N] [--dump FILE] [--calibration DIR] [--bless]
 *
 * One process, one thread.  Inputs are built in set-up; then passes
 * over the workload's cells repeat until --seconds have elapsed.  Every
 * cell of every pass is checked against the references in --refs, and
 * the last line of standard output is one JSON object with the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 * Layers are timed from outside, around calls to their public
 * functions; nothing inside src/ is instrumented.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/mg_lint.h"
#include "common/string_util.h"
#include "dse/grid.h"
#include "dse/result_store.h"
#include "dse/sweep.h"
#include "minigraph/candidate.h"
#include "minigraph/rewriter.h"
#include "minigraph/selection.h"
#include "minigraph/selectors.h"
#include "minigraph/static_rank.h"
#include "profile/exec_counts.h"
#include "profile/slack_profile.h"
#include "sim/experiment.h"
#include "trace/stats_json.h"
#include "trace/stats_parse.h"
#include "uarch/config.h"
#include "uarch/core.h"
#include "workloads/workload.h"

namespace
{

using namespace mg;
using minigraph::SelectorKind;

// ---------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
clockSec(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** User+sys CPU of the process. */
double cpuNow() { return clockSec(CLOCK_PROCESS_CPUTIME_ID); }

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

// ---------------------------------------------------------------------
// Layer spans (traced passes only)
// ---------------------------------------------------------------------

enum Layer : size_t
{
    BuildAsm, BuildC, Counts, Train, Candidates, Select, Rewrite, CoreRun,
    Analyze, Lint, StatsJson, StatsParse, Expand, Key, Lookup, Verify,
    SweepRest, kLayers
};

/** Metric name of each layer's busy time, in Layer order. */
const char *const kLayerMetric[kLayers] = {
    "workloads.build_asm_ms", "workloads.build_c_ms", "profile.counts_ms",
    "profile.train_ms", "minigraph.candidates_ms", "minigraph.select_ms",
    "minigraph.rewrite_ms", "uarch.core_ms", "analysis.analyze_ms",
    "check.lint_ms", "trace.stats_json_ms", "trace.stats_parse_ms",
    "dse.expand_ms", "dse.key_ms", "dse.lookup_ms", "dse.verify_ms",
    "dse.doc_ms",
};

/** Deterministic work counters of one traced pass. */
struct Counters
{
    uint64_t coreCalls = 0, simCycles = 0, simInsts = 0, trainCalls = 0;
    uint64_t findings = 0, candidates = 0, chosen = 0, pool = 0;
    uint64_t instances = 0, hits = 0, misses = 0;

    bool operator==(const Counters &) const = default;
};

/**
 * Busy time per layer, measured as thread CPU time so the spans of one
 * pass can never sum to more than the pass's own CPU time.
 */
struct Trace
{
    double sec[kLayers] = {};
    Counters n;
};

/** RAII span: adds its thread-CPU duration to one layer (no-op if off). */
class Span
{
  public:
    Span(Trace *t, Layer l) : trace(t), layer(l)
    {
        if (trace)
            t0 = clockSec(CLOCK_THREAD_CPUTIME_ID);
    }
    ~Span()
    {
        if (trace)
            trace->sec[layer] += clockSec(CLOCK_THREAD_CPUTIME_ID) - t0;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Trace *trace;
    Layer layer;
    double t0 = 0.0;
};

// ---------------------------------------------------------------------
// Options, references, bookkeeping
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    int variant = 0;
    std::string refs = "perfbench/refs";
    std::string store = ".bench_build/perfbench-store";
    size_t limit = 0; ///< 0 = every kernel/program
    std::string dump; ///< write per-cell deterministic outputs here
    std::string calibration; ///< directory of fastest reference times
    bool bless = false;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/**
 * Keyed reference lines: "<key fields...> <value fields...>", where the
 * first `key_fields` whitespace-separated words are the key.
 */
std::map<std::string, std::string>
readRefLines(const std::string &path, size_t key_fields)
{
    std::map<std::string, std::string> out;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t pos = 0;
        for (size_t f = 0; f < key_fields && pos != std::string::npos;
             ++f)
            pos = line.find(' ', pos + (f ? 1 : 0));
        if (pos == std::string::npos)
            throw std::runtime_error(path + ": short line: " + line);
        out[line.substr(0, pos)] = line.substr(pos + 1);
    }
    return out;
}

/** Checked outputs of one run: what was attempted and what failed. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> firstFailures;

    /** Record one checked unit; `problem` empty means it passed. */
    void
    record(const std::string &what, const std::string &problem)
    {
        ++attempted;
        if (problem.empty())
            return;
        ++failed;
        if (firstFailures.size() < 5)
            firstFailures.push_back(what + ": " + problem);
    }
};

/**
 * Wall and CPU seconds of one cell execution, and the CPU seconds of
 * the latest reference run when the cell ended.
 */
struct CellTime
{
    double wall = 0.0;
    double cpu = 0.0;
    double ref = 0.0;
};

/**
 * Every pass's cell times, and the run's estimate of each cell's time
 * on a quiet host.
 *
 * Each sample is scaled by quiet / adjacent: `adjacent` is the mean of
 * the reference times stamped on this cell and on the one before it,
 * and `quiet` is the fastest reference run of the whole run, set-ups
 * included, or of an earlier run of the same build (calibratedQuiet).
 * A cell's estimate is the median of its scaled samples.  Contention
 * slows a
 * cell and its neighbouring reference runs alike, so the scaling
 * cancels it (README.md, "Noise").
 */
struct Samples
{
    std::vector<std::vector<CellTime>> passes;

    void add(std::vector<CellTime> pass) { passes.push_back(std::move(pass)); }

    /** The fastest reference run of these samples. */
    double
    quiet() const
    {
        double q = std::numeric_limits<double>::infinity();
        for (const auto &p : passes)
            for (const CellTime &c : p)
                q = std::min(q, c.ref);
        return q;
    }

    /** Scale factor quiet / adjacent of cell i of one pass. */
    static double
    scale(const std::vector<CellTime> &pass, size_t i, double quiet)
    {
        return quiet / (i ? 0.5 * (pass[i - 1].ref + pass[i].ref)
                          : pass[i].ref);
    }

    std::vector<CellTime>
    estimate(double quiet) const
    {
        std::vector<CellTime> est(passes.front().size());
        for (size_t i = 0; i < est.size(); ++i) {
            std::vector<double> wall, cpu;
            for (const auto &p : passes) {
                wall.push_back(p[i].wall * scale(p, i, quiet));
                cpu.push_back(p[i].cpu * scale(p, i, quiet));
            }
            est[i] = {median(wall), median(cpu), quiet};
        }
        return est;
    }

    /** Σ over cells of each cell's best CPU time, unscaled. */
    double
    rawBestCpu() const
    {
        double s = 0.0;
        for (size_t i = 0; i < passes.front().size(); ++i) {
            double best = std::numeric_limits<double>::infinity();
            for (const auto &p : passes)
                best = std::min(best, p[i].cpu);
            s += best;
        }
        return s;
    }
};

double
sumCpu(const std::vector<CellTime> &cells)
{
    double s = 0.0;
    for (const CellTime &c : cells)
        s += c.cpu;
    return s;
}

double
sumWall(const std::vector<CellTime> &cells)
{
    double s = 0.0;
    for (const CellTime &c : cells)
        s += c.wall;
    return s;
}

/** Times one cell: wall and process CPU. */
class CellTimer
{
  public:
    CellTimer() : w0(wallNow()), c0(cpuNow()) {}
    CellTime
    stop() const
    {
        return {wallNow() - w0, cpuNow() - c0};
    }

  private:
    double w0, c0;
};

/**
 * The reference run that measures how fast the host is right now:
 * `Core::run` of the smallest kernel on the reduced machine, about
 * 2 ms.  It runs twice and the second, cache-warm run is timed (thread
 * CPU), so the time reflects the host rather than what the previous
 * cell left in the caches.  Its own speed cancels out of the scaling
 * in Samples; only its slowdown under contention matters.
 */
class Reference
{
  public:
    /**
     * Replace the default reference job with another, timed once per
     * reference run without a warm-up run.  Its own speed cancels out
     * the same way; only its slowdown under contention must follow
     * the workload's.
     */
    void
    setJob(std::string jobName, std::function<void()> j)
    {
        name = std::move(jobName);
        job = std::move(j);
    }

    /** Names the job, and so its calibration file. */
    const std::string &jobName() const { return name; }

    /**
     * Stop a cell's timer, then run the reference if the last run is
     * older than kPeriod; the cell carries the latest reference time.
     */
    CellTime
    stamp(const CellTimer &timer)
    {
        CellTime t = timer.stop();
        if (wallNow() - lastWall >= kPeriod) {
            latest = run();
            lastWall = wallNow();
        }
        t.ref = latest;
        return t;
    }

    /**
     * Stop the timer of a long span (a set-up) and stamp it with the
     * mean of kLongRuns reference runs: one run shows the host at one
     * moment, and a set-up lasts up to seconds.
     */
    CellTime
    stampLong(const CellTimer &timer)
    {
        CellTime t = timer.stop();
        double sum = 0.0;
        for (int i = 0; i < kLongRuns; ++i)
            sum += run();
        latest = sum / kLongRuns;
        lastWall = wallNow();
        t.ref = latest;
        return t;
    }

  private:
    static constexpr const char *kKernel = "c_isort.0";
    static constexpr double kPeriod = 0.03;
    static constexpr int kLongRuns = 8;

    double
    run()
    {
        if (!job && !program) {
            auto spec = workloads::findWorkload(kKernel);
            if (!spec)
                throw std::runtime_error(std::string("no kernel ") +
                                         kKernel);
            program = workloads::buildWorkload(*spec).program;
        }
        double sec = 0.0;
        if (job) {
            const double t0 = clockSec(CLOCK_THREAD_CPUTIME_ID);
            job();
            return clockSec(CLOCK_THREAD_CPUTIME_ID) - t0;
        }
        for (int warm = 0; warm < 2; ++warm) {
            const double t0 = clockSec(CLOCK_THREAD_CPUTIME_ID);
            uarch::Core core(uarch::reducedConfig(), *program);
            core.run();
            sec = clockSec(CLOCK_THREAD_CPUTIME_ID) - t0;
        }
        return sec;
    }

    std::string name = std::string("core-") + kKernel;
    std::function<void()> job;
    std::optional<assembler::Program> program;
    double lastWall = -1e9;
    double latest = 0.0;
};

uint64_t
resultAt(const uarch::Core &core, const assembler::Program &prog)
{
    return core.architecturalState().memory().read(
        prog.dataLabels.at("result"), 8);
}

/** Seeded permutation of 0..n-1 (the cell order of every pass). */
std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

// ---------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs (timed as setup_s; may run several times). */
    virtual void setup(Trace *trace) = 0;

    /** One pass over every cell; `trace` non-null in traced passes. */
    virtual std::vector<CellTime> pass(Trace *trace, Checks &checks) = 0;

    /** Untimed work after the set-ups, before the passes. */
    virtual void afterSetup(Checks &) {}

    /** Untimed checks made once after the passes (default: none). */
    virtual void finalChecks(Checks &) {}

    /** Cells in one pass. */
    virtual size_t cellCount() const = 0;

    /** Original-program instructions one pass processes. */
    virtual double instsPerPass() const = 0;

    /** Deterministic per-cell outputs of the last pass (--dump). */
    virtual std::string dump() const = 0;

    /** Write the reference files from the last pass (--bless). */
    virtual void bless() = 0;

    /** Simulated headline ratio, 0 where the workload has none. */
    virtual double speedupMean() const { return 0.0; }

    /** Which layers are timed inside a pass; the rest in set-up. */
    virtual bool
    inPassLayer(Layer l) const
    {
        return l != BuildAsm && l != BuildC;
    }

    /** Names the reference job (Reference::jobName). */
    const std::string &referenceName() const { return reference.jobName(); }

    /** Set up once, timed (wall) and stamped as a long span. */
    CellTime
    timedSetup(Trace *trace)
    {
        CellTimer t;
        setup(trace);
        return reference.stampLong(t);
    }

  protected:
    Reference reference;
};

const char *const kPaperPolicies[] = {
    "none", "struct-all", "struct-bounded", "slack-profile",
    "slack-dynamic",
};

struct Kernel
{
    workloads::WorkloadSpec spec;
    assembler::Program program;
    std::optional<uint64_t> expected;
};

Kernel
buildKernel(const workloads::WorkloadSpec &spec, Trace *trace)
{
    Span s(trace, spec.suite == "cbench" ? BuildC : BuildAsm);
    workloads::BuiltWorkload b = workloads::buildWorkload(spec);
    return {spec, std::move(b.program), b.expected};
}

// ---------------------------------------------------------------------
// paper-matrix: the paper's experiment, through ProgramContext::run
// ---------------------------------------------------------------------

class PaperMatrix : public Workload
{
  public:
    explicit PaperMatrix(const Options &o) : opts(o)
    {
        const std::string suffix = "." + std::to_string(o.variant);
        for (const workloads::WorkloadSpec &w : workloads::workloadList())
            if (w.variant == o.variant)
                specs.push_back(w);
        if (o.limit && o.limit < specs.size())
            specs.resize(o.limit);
        refPath = o.refs + "/paper_matrix" + suffix + ".txt";
        if (!o.bless)
            refs = readRefLines(refPath, 3);
        order = seededOrder(specs.size(), o.seed);
    }

    void
    setup(Trace *trace) override
    {
        kernels.clear();
        for (const workloads::WorkloadSpec &w : specs)
            kernels.push_back(buildKernel(w, trace));
    }

    size_t cellCount() const override { return kernels.size() * 6; }

    double instsPerPass() const override { return passInsts; }

    std::vector<CellTime>
    pass(Trace *trace, Checks &checks) override
    {
        std::vector<CellTime> times;
        times.reserve(cellCount());
        passInsts = 0.0;
        for (size_t k : order) {
            const Kernel &kern = kernels[k];
            if (trace)
                tracedKernel(kern, *trace, checks, times);
            else
                plainKernel(kern, checks, times);
        }
        return times;
    }

    /**
     * Architectural results of the original and the Struct-All
     * binary of every kernel, checked once per run outside the timed
     * passes (traced passes check every rewritten binary inline).
     */
    void
    finalChecks(Checks &checks) override
    {
        for (const Kernel &kern : kernels) {
            if (!kern.expected)
                continue;
            std::string what = kern.spec.name() + " result";
            try {
                uarch::Core orig(uarch::reducedConfig(), kern.program);
                orig.run();
                minigraph::ExecCounts counts =
                    profile::countExecutions(kern.program);
                std::vector<minigraph::Candidate> pool =
                    minigraph::enumerateCandidates(kern.program);
                minigraph::SelectionResult sel = minigraph::selectGreedy(
                    minigraph::filterPool(pool, SelectorKind::StructAll,
                                          kern.program, nullptr),
                    counts, 512);
                minigraph::RewrittenProgram rp =
                    minigraph::rewrite(kern.program, sel.chosen);
                uarch::Core mg(uarch::reducedConfig(), rp.program,
                               &rp.info);
                mg.run();
                checks.record(what, resultProblem(kern, orig) +
                                        resultProblem(kern, mg));
            } catch (const std::exception &e) {
                checks.record(what, e.what());
            }
        }
    }

    std::string
    dump() const override
    {
        std::string out;
        for (const auto &[key, val] : last)
            out += key + " " + val + "\n";
        return out;
    }

    void
    bless() override
    {
        writeFile(refPath, "# workload config selector simCycles "
                           "statsHash (FNV-1a 64 of the stats-JSON "
                           "line, as in BENCH_*.json)\n" +
                               dump());
    }

    double
    speedupMean() const override
    {
        double sum = 0.0;
        size_t n = 0;
        for (const Kernel &kern : kernels) {
            auto full = cycles.find(kern.spec.name() + " full none");
            auto sp = cycles.find(kern.spec.name() +
                                  " reduced slack-profile");
            if (full == cycles.end() || sp == cycles.end() ||
                sp->second == 0)
                continue;
            sum += static_cast<double>(full->second) /
                   static_cast<double>(sp->second);
            ++n;
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

  private:
    struct CellSpec
    {
        sim::RunRequest req;
        std::string key; ///< "<workload> <config> <selector>"
    };

    /** The six cells of one kernel, in fixed order. */
    std::vector<CellSpec>
    cellsOf(const Kernel &kern) const
    {
        std::vector<CellSpec> cells;
        for (const char *pol : kPaperPolicies) {
            CellSpec c;
            c.req.workload = kern.spec;
            c.req.config = uarch::reducedConfig();
            if (std::string(pol) != "none")
                c.req.selector = *minigraph::selectorFromName(pol);
            c.key = kern.spec.name() + " reduced " + pol;
            cells.push_back(std::move(c));
        }
        CellSpec full;
        full.req.workload = kern.spec;
        full.req.config = uarch::fullConfig();
        full.key = kern.spec.name() + " full none";
        cells.push_back(std::move(full));
        return cells;
    }

    static std::string
    resultProblem(const Kernel &kern, const uarch::Core &core)
    {
        if (!kern.expected)
            return "";
        uint64_t got = resultAt(core, kern.program);
        if (got == *kern.expected)
            return "";
        return strprintf("result %016llx, expected %016llx ",
                         static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(*kern.expected));
    }

    /** Compare one cell's deterministic output with the references. */
    void
    checkCell(const CellSpec &c, const sim::RunResult &r,
              const std::string &line, const std::string &extra,
              Checks &checks)
    {
        std::string got = strprintf(
            "%llu %s", static_cast<unsigned long long>(r.sim.cycles),
            hex64(fnv1a64(line)).c_str());
        std::string problem = extra;
        if (!r.ok)
            problem += "run failed: " + r.error + " ";
        if (!opts.bless) {
            auto it = refs.find(c.key);
            if (it == refs.end())
                problem += "no reference ";
            else if (it->second != got)
                problem += "got '" + got + "', reference '" +
                           it->second + "' ";
        }
        // Traced and untraced passes must agree exactly.
        auto prev = last.find(c.key);
        if (prev != last.end() && prev->second != got)
            problem += "differs from the previous pass ('" + prev->second +
                       "') ";
        last[c.key] = got;
        cycles[c.key] = r.sim.cycles;
        passInsts += static_cast<double>(r.sim.originalInsts);
        checks.record(c.key, problem);
    }

    void
    plainKernel(const Kernel &kern, Checks &checks,
                std::vector<CellTime> &times)
    {
        std::unique_ptr<sim::ProgramContext> ctx;
        for (const CellSpec &c : cellsOf(kern)) {
            sim::RunResult r;
            std::string line;
            CellTimer t;
            try {
                if (!ctx)
                    ctx = std::make_unique<sim::ProgramContext>(
                        kern.program);
                r = ctx->run(c.req);
                line = trace::statsJson(sim::metaForRun(c.req, r), r.sim);
            } catch (const std::exception &e) {
                r.setError(sim::ErrorClass::Exception, e.what());
            }
            times.push_back(reference.stamp(t));
            checkCell(c, r, line, "", checks);
        }
    }

    /**
     * The ProgramContext::run pipeline, step by step, with a span
     * around each layer call: profile -> pool -> filter -> counts ->
     * select -> rewrite -> core, with the same per-program caching.
     */
    void
    tracedKernel(const Kernel &kern, Trace &tr, Checks &checks,
                 std::vector<CellTime> &times)
    {
        const assembler::Program &prog = kern.program;
        std::optional<minigraph::ExecCounts> counts;
        std::optional<std::vector<minigraph::Candidate>> pool;
        std::optional<profile::SlackProfileData> prof;
        for (const CellSpec &c : cellsOf(kern)) {
            sim::RunResult r;
            std::string line, problem;
            CellTimer t;
            try {
                if (!c.req.selector) {
                    Span s(&tr, CoreRun);
                    uarch::Core core(c.req.config, prog);
                    r.sim = core.run();
                    problem += resultProblem(kern, core);
                } else {
                    const SelectorKind kind = *c.req.selector;
                    if (minigraph::selectorNeedsProfile(kind) && !prof) {
                        Span s(&tr, Train);
                        prof = profile::profileProgram(prog, c.req.config);
                        ++tr.n.trainCalls;
                    }
                    if (!pool) {
                        Span s(&tr, Candidates);
                        pool = minigraph::enumerateCandidates(prog);
                        tr.n.candidates += pool->size();
                    }
                    std::vector<minigraph::Candidate> filtered;
                    {
                        Span s(&tr, Select);
                        filtered = minigraph::filterPool(
                            *pool, kind, prog, prof ? &*prof : nullptr);
                    }
                    if (!counts) {
                        Span s(&tr, Counts);
                        counts = profile::countExecutions(prog);
                    }
                    minigraph::SelectionResult sel;
                    {
                        Span s(&tr, Select);
                        sel = minigraph::selectGreedy(filtered, *counts,
                                                      c.req.templateBudget);
                    }
                    tr.n.chosen += sel.chosen.size();
                    tr.n.pool += pool->size();
                    std::optional<minigraph::RewrittenProgram> rp;
                    {
                        Span s(&tr, Rewrite);
                        rp = minigraph::rewrite(prog, sel.chosen);
                    }
                    tr.n.instances += rp->instanceCount();
                    {
                        Span s(&tr, CoreRun);
                        uarch::Core core(
                            sim::configForSelector(c.req.config, kind),
                            rp->program, &rp->info);
                        r.sim = core.run();
                        problem += resultProblem(kern, core);
                    }
                    r.instances = rp->instanceCount();
                    r.templatesUsed =
                        static_cast<uint32_t>(rp->info.templates.size());
                    for (const isa::MgTemplate &tm : rp->info.templates)
                        r.templateNames.push_back(trace::templateLabel(tm));
                }
                ++tr.n.coreCalls;
                tr.n.simCycles += r.sim.cycles;
                tr.n.simInsts += r.sim.originalInsts;
                Span s(&tr, StatsJson);
                line = trace::statsJson(sim::metaForRun(c.req, r), r.sim);
            } catch (const std::exception &e) {
                r.setError(sim::ErrorClass::Exception, e.what());
            }
            times.push_back(reference.stamp(t));
            checkCell(c, r, line, problem, checks);
        }
    }

    const Options &opts;
    std::vector<workloads::WorkloadSpec> specs;
    std::vector<Kernel> kernels;
    std::vector<size_t> order;
    std::string refPath;
    std::map<std::string, std::string> refs;
    std::map<std::string, std::string> last;  ///< key -> "cycles hash"
    std::map<std::string, uint64_t> cycles;
    double passInsts = 0.0;
};

// ---------------------------------------------------------------------
// static-front: build -> counts -> candidates -> analyze -> select,
// rewrite and lint, for every program; no timing core
// ---------------------------------------------------------------------

class StaticFront : public Workload
{
  public:
    explicit StaticFront(const Options &o) : opts(o)
    {
        specs = workloads::workloadList();
        if (o.limit && o.limit < specs.size())
            specs.resize(o.limit);
        analyzePath = o.refs + "/static_front_analyze.jsonl";
        cellPath = o.refs + "/static_front_cells.txt";
        if (!o.bless) {
            std::istringstream in(readFile(analyzePath));
            std::string line;
            while (std::getline(in, line))
                refAnalyze[programOf(line)] = line;
            refCells = readRefLines(cellPath, 2);
        }
        order = seededOrder(specs.size(), o.seed);
        // The host-speed reference is this workload's own cell work on
        // one small program, so contention slows it as it slows the
        // cells; Core::run, the default, responds differently.
        reference.setJob(std::string("front-") + kReferenceProgram,
                         [this] { referenceJob(); });
    }

    /** Set-up builds every program once; passes build them again. */
    void
    setup(Trace *trace) override
    {
        fingerprints.clear();
        for (const workloads::WorkloadSpec &w : specs)
            fingerprints.push_back(
                dse::programFingerprint(buildKernel(w, trace).program));
    }

    size_t cellCount() const override { return specs.size() * 3; }

    bool inPassLayer(Layer) const override { return true; }

    double instsPerPass() const override { return passInsts; }

    std::vector<CellTime>
    pass(Trace *trace, Checks &checks) override
    {
        std::vector<CellTime> times;
        times.reserve(cellCount());
        passInsts = 0.0;
        for (size_t p : order)
            program(p, trace, checks, times);
        return times;
    }

    std::string
    dump() const override
    {
        std::string out;
        for (const auto &[key, val] : lastCells)
            out += key + " " + val + "\n";
        return out;
    }

    void
    bless() override
    {
        // In workloadList() order, as the golden snapshot has it.
        std::string analyze;
        for (const workloads::WorkloadSpec &w : specs)
            analyze += lastAnalyze.at(w.name()) + "\n";
        writeFile(analyzePath, analyze);
        writeFile(cellPath, "# program selector templates instances "
                            "rewrittenFingerprint lintFindings\n" +
                                dump());
    }

  private:
    static std::string
    programOf(const std::string &line)
    {
        const std::string tag = "{\"program\":\"";
        if (line.compare(0, tag.size(), tag) != 0)
            return "";
        return line.substr(tag.size(),
                           line.find('"', tag.size()) - tag.size());
    }

    /** The three cells of kReferenceProgram, unchecked and untraced. */
    void
    referenceJob()
    {
        if (!referenceSpec) {
            auto spec = workloads::findWorkload(kReferenceProgram);
            if (!spec)
                throw std::runtime_error(std::string("no program ") +
                                         kReferenceProgram);
            referenceSpec = *spec;
        }
        const assembler::Program prog =
            workloads::buildWorkload(*referenceSpec).program;
        const minigraph::ExecCounts counts = profile::countExecutions(prog);
        const std::vector<minigraph::Candidate> pool =
            minigraph::enumerateCandidates(prog);
        minigraph::analyzeReportJson(minigraph::analyzeProgram(prog));
        for (SelectorKind kind : kSelectors) {
            const minigraph::SelectionResult sel = minigraph::selectGreedy(
                minigraph::filterPool(pool, kind, prog, nullptr), counts,
                512);
            const minigraph::RewrittenProgram rp =
                minigraph::rewrite(prog, sel.chosen);
            check::lintRewrite(prog, sel.chosen, rp.program, rp.info);
        }
    }

    void
    program(size_t p, Trace *tr, Checks &checks,
            std::vector<CellTime> &times)
    {
        const std::string name = specs[p].name();
        std::optional<Kernel> kern;
        minigraph::ExecCounts counts;
        std::vector<minigraph::Candidate> pool;
        std::string analyzeLine, problem;

        // Program-level front work, shared by its three cells.
        CellTimer front;
        try {
            kern = buildKernel(specs[p], tr);
            {
                Span s(tr, Counts);
                counts = profile::countExecutions(kern->program);
            }
            {
                Span s(tr, Candidates);
                pool = minigraph::enumerateCandidates(kern->program);
            }
            Span s(tr, Analyze);
            analyzeLine = minigraph::analyzeReportJson(
                minigraph::analyzeProgram(kern->program));
        } catch (const std::exception &e) {
            problem = std::string("front: ") + e.what();
        }
        const CellTime frontTime = front.stop();
        if (kern) {
            for (uint64_t c : counts)
                passInsts += static_cast<double>(c);
            if (tr)
                tr->n.candidates += pool.size();
            if (dse::programFingerprint(kern->program) != fingerprints[p])
                problem += "rebuild differs from the set-up build ";
        }
        lastAnalyze[name] = analyzeLine;
        if (!opts.bless && refAnalyze[name] != analyzeLine)
            problem += "analyze line differs from the golden ";

        for (SelectorKind kind : kSelectors) {
            const std::string key = name + " " + minigraph::nameOf(kind);
            std::string got, cellProblem = problem;
            CellTimer t;
            try {
                if (!kern)
                    throw std::runtime_error("no program");
                minigraph::SelectionResult sel;
                {
                    Span s(tr, Select);
                    sel = minigraph::selectGreedy(
                        minigraph::filterPool(pool, kind, kern->program,
                                              nullptr),
                        counts, 512);
                }
                std::optional<minigraph::RewrittenProgram> rp;
                {
                    Span s(tr, Rewrite);
                    rp = minigraph::rewrite(kern->program, sel.chosen);
                }
                check::LintReport lint;
                {
                    Span s(tr, Lint);
                    lint = check::lintRewrite(kern->program, sel.chosen,
                                              rp->program, rp->info);
                }
                if (tr) {
                    tr->n.chosen += sel.chosen.size();
                    tr->n.pool += pool.size();
                    tr->n.instances += rp->instanceCount();
                    tr->n.findings += lint.findings.size();
                }
                if (!lint.clean())
                    cellProblem += "lint: " + lint.render() + " ";
                got = strprintf(
                    "%zu %zu %s %zu", rp->info.templates.size(),
                    rp->instanceCount(),
                    hex64(dse::programFingerprint(rp->program)).c_str(),
                    lint.findings.size());
            } catch (const std::exception &e) {
                cellProblem += e.what();
            }
            CellTime ct = reference.stamp(t);
            ct.wall += frontTime.wall / 3.0;
            ct.cpu += frontTime.cpu / 3.0;
            times.push_back(ct);
            if (!opts.bless) {
                auto it = refCells.find(key);
                if (it == refCells.end())
                    cellProblem += "no reference ";
                else if (it->second != got)
                    cellProblem += "got '" + got + "', reference '" +
                                   it->second + "' ";
            }
            lastCells[key] = got;
            checks.record(key, cellProblem);
        }
    }

    static constexpr SelectorKind kSelectors[] = {
        SelectorKind::StructAll, SelectorKind::StructBounded,
        SelectorKind::SlackStatic};
    static constexpr const char *kReferenceProgram = "c_adpcm.0";

    const Options &opts;
    std::vector<workloads::WorkloadSpec> specs;
    std::optional<workloads::WorkloadSpec> referenceSpec;
    std::vector<uint64_t> fingerprints; ///< of the set-up builds
    std::vector<size_t> order;
    std::string analyzePath, cellPath;
    std::map<std::string, std::string> refAnalyze, refCells;
    std::map<std::string, std::string> lastAnalyze, lastCells;
    double passInsts = 0.0;
};

// ---------------------------------------------------------------------
// sweep-replay: a cold DSE sweep in set-up, warm merge replays timed
// ---------------------------------------------------------------------

class SweepReplay : public Workload
{
  public:
    /** Replays per pass; the pass's last cell is one store verify. */
    static constexpr size_t kReplays = 100;

    explicit SweepReplay(const Options &o) : opts(o)
    {
        grid = dse::pinnedDseGrid();
        for (std::string &w : grid.workloads)
            w = w.substr(0, w.rfind('.')) + "." +
                std::to_string(o.variant);
        refPath = o.refs + "/sweep_replay." + std::to_string(o.variant) +
                  ".json";
        if (!o.bless)
            refDoc = readFile(refPath);
        coldOpts.storeRoot = o.store;
        coldOpts.batch = sim::BatchOptions{};
        coldOpts.batch.jobs = 1;
        replayOpts = coldOpts;
        replayOpts.merge = true;
    }

    ~SweepReplay() override
    {
        std::error_code ec;
        std::filesystem::remove_all(opts.store, ec);
    }

    /** A cold sweep into a fresh store: every point simulated. */
    void
    setup(Trace *trace) override
    {
        std::filesystem::remove_all(opts.store);
        dse::SweepOutcome out = dse::runSweep(grid, coldOpts);
        if (!out.ok())
            throw std::runtime_error("cold sweep failed: " + out.error);
        if (out.summary.simulated == 0)
            throw std::runtime_error("cold sweep simulated nothing");
        coldDoc = out.doc;
        programs.clear();
        for (const std::string &w : grid.workloads)
            programs.emplace(
                w, buildKernel(*workloads::findWorkload(w), trace).program);
    }

    size_t cellCount() const override { return kReplays + 1; }

    double
    instsPerPass() const override
    {
        return static_cast<double>(kReplays) * replayInsts;
    }

    /** Untimed: learn which points are stored and what they cover. */
    void
    afterSetup(Checks &checks) override
    {
        std::string problem;
        if (!opts.bless && coldDoc != refDoc)
            problem = "cold sweep document differs from the reference";
        checks.record("cold sweep", problem);
        dse::expandGrid(grid, points);
        std::istringstream in(coldDoc);
        std::string line;
        while (std::getline(in, line))
            if (line.find("\"cost\": ") != std::string::npos &&
                line.find("\"status\": ") != std::string::npos)
                pruned.push_back(line.find("\"status\": \"pruned\"") !=
                                 std::string::npos);
        if (pruned.size() != points.size())
            throw std::runtime_error("cold document has " +
                                     std::to_string(pruned.size()) +
                                     " point records, grid has " +
                                     std::to_string(points.size()));
        dse::ResultStore store;
        if (std::string err = store.open(opts.store); !err.empty())
            throw std::runtime_error("cannot open the store: " + err);
        replayInsts = 0.0;
        for (size_t i = 0; i < points.size(); ++i) {
            if (pruned[i])
                continue;
            ++stored;
            auto hit = store.lookup(key(points[i]));
            trace::ParsedStats ps;
            if (!hit || !trace::parseStatsJson(*hit, ps).empty())
                throw std::runtime_error("cold sweep left no entry for " +
                                         points[i].workload);
            replayInsts += static_cast<double>(ps.sim.originalInsts);
        }
    }

    std::vector<CellTime>
    pass(Trace *trace, Checks &checks) override
    {
        std::vector<CellTime> times;
        times.reserve(cellCount());
        for (size_t r = 0; r < kReplays; ++r) {
            std::string problem;
            CellTimer t;
            try {
                double replicas = trace ? tracedReads(*trace, problem) : 0;
                double s0 = clockSec(CLOCK_THREAD_CPUTIME_ID);
                dse::SweepOutcome out = dse::runSweep(grid, replayOpts);
                if (trace)
                    trace->sec[SweepRest] += std::max(
                        0.0,
                        clockSec(CLOCK_THREAD_CPUTIME_ID) - s0 - replicas);
                if (!out.ok())
                    problem += "replay failed: " + out.error + " ";
                if (out.summary.hits != stored || out.summary.misses != 0)
                    problem += strprintf("%zu hits, %zu misses of %zu ",
                                         out.summary.hits,
                                         out.summary.misses, stored);
                if (out.doc != coldDoc)
                    problem += "replay document differs from the cold one ";
            } catch (const std::exception &e) {
                problem += e.what();
            }
            times.push_back(reference.stamp(t));
            checks.record("replay", problem);
        }
        std::string problem;
        CellTimer t;
        try {
            Span s(trace, Verify);
            dse::ResultStore store;
            std::string err = store.open(opts.store);
            dse::VerifyReport v = store.verify();
            if (!err.empty() || !v.clean() || v.checked != stored)
                problem = strprintf("verify: %zu checked, %zu bad %s",
                                    v.checked, v.bad.size(), err.c_str());
        } catch (const std::exception &e) {
            problem = e.what();
        }
        times.push_back(reference.stamp(t));
        checks.record("verify", problem);
        return times;
    }

    std::string dump() const override { return coldDoc; }

    void bless() override { writeFile(refPath, coldDoc); }

  private:
    dse::StoreKey
    key(const dse::SweepPoint &pt) const
    {
        return dse::deriveKey(programs.at(pt.workload), pt.config,
                              pt.selector, pt.templateBudget);
    }

    /**
     * The read path runSweep takes, call by call, with spans: expand,
     * derive each key, look it up in a freshly opened store, and
     * round-trip its stats line.  @return the thread CPU seconds spent
     * in the calls runSweep itself also makes (expand, key, lookup), so
     * the rest of runSweep can be reported as dse.doc_ms.
     */
    double
    tracedReads(Trace &tr, std::string &problem)
    {
        const double before =
            tr.sec[Expand] + tr.sec[Key] + tr.sec[Lookup];
        std::vector<dse::SweepPoint> pts;
        {
            Span s(&tr, Expand);
            dse::expandGrid(grid, pts);
        }
        dse::ResultStore store;
        store.open(opts.store);
        for (size_t i = 0; i < pts.size(); ++i) {
            if (pruned[i])
                continue;
            dse::StoreKey k;
            {
                Span s(&tr, Key);
                k = key(pts[i]);
            }
            std::optional<std::string> line;
            {
                Span s(&tr, Lookup);
                line = store.lookup(k);
            }
            if (!line) {
                ++tr.n.misses;
                problem += "miss ";
                continue;
            }
            ++tr.n.hits;
            trace::ParsedStats ps;
            std::string err;
            {
                Span s(&tr, StatsParse);
                err = trace::parseStatsJson(*line, ps);
            }
            std::string again;
            {
                Span s(&tr, StatsJson);
                again = trace::statsJson(ps.meta, ps.sim);
            }
            if (!err.empty() || again != *line)
                problem += "stats line does not round-trip ";
        }
        return tr.sec[Expand] + tr.sec[Key] + tr.sec[Lookup] - before;
    }

    const Options &opts;
    dse::GridSpec grid;
    dse::SweepOptions coldOpts, replayOpts;
    std::string refPath, refDoc, coldDoc;
    std::map<std::string, assembler::Program> programs;
    std::vector<dse::SweepPoint> points;
    std::vector<bool> pruned;
    size_t stored = 0;
    double replayInsts = 0.0;
};

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

/**
 * Set-ups per run: at least kMinSetups, and more (up to kMaxSetups)
 * while they have taken less than kSetupSeconds in all; setup_s is
 * their median.
 */
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupSeconds = 2.0;

/** Untimed passes never stop before this many have run. */
constexpr unsigned kMinPasses = 2;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper-matrix|static-front|"
                 "sweep-replay --seed N --seconds S --trace 0|1\n"
                 "       [--variant 0|1|2] [--refs DIR] [--store DIR] "
                 "[--limit N] [--dump FILE] [--calibration DIR] "
                 "[--bless]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--bless") {
            o.bless = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v), haveSeed = true;
            else if (a == "--seconds")
                o.seconds = std::stod(v), haveSeconds = true;
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0, haveTrace = true;
            else if (a == "--variant")
                o.variant = std::stoi(v);
            else if (a == "--refs")
                o.refs = v;
            else if (a == "--store")
                o.store = v;
            else if (a == "--limit")
                o.limit = std::stoul(v);
            else if (a == "--dump")
                o.dump = v;
            else if (a == "--calibration")
                o.calibration = v;
            else
                usage("unknown option " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    if (o.variant < 0 || o.variant > 2)
        usage("--variant must be 0, 1 or 2");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "paper-matrix")
        return std::make_unique<PaperMatrix>(o);
    if (o.workload == "static-front")
        return std::make_unique<StaticFront>(o);
    if (o.workload == "sweep-replay")
        return std::make_unique<SweepReplay>(o);
    usage("unknown workload '" + o.workload + "'");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out;
    for (const Metric &m : ms)
        out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         out.empty() ? "" : ", ", m.name.c_str(), m.value,
                         m.unit.c_str());
    return out;
}

/**
 * Per-layer metrics of a traced run.  Busy time per layer is its
 * smallest total over the traced passes (set-up layers: over the
 * set-ups); counters come from the first traced pass and must repeat in
 * every other.  Also checks that no pass's spans sum to more than its
 * CPU time.
 */
std::vector<Metric>
layerMetrics(const Workload &wl, const std::vector<Trace> &traces,
             const std::vector<double> &passCpu, const Trace &setupBest,
             Checks &checks)
{
    Trace best = traces.front();
    double layerFrac = 0.0;
    for (size_t i = 0; i < traces.size(); ++i) {
        double sum = 0.0;
        for (size_t l = 0; l < kLayers; ++l) {
            if (!wl.inPassLayer(static_cast<Layer>(l)))
                continue;
            sum += traces[i].sec[l];
            best.sec[l] = std::min(best.sec[l], traces[i].sec[l]);
        }
        layerFrac = std::max(layerFrac, sum / passCpu[i]);
        checks.record("traced counters",
                      traces[i].n == traces.front().n
                          ? ""
                          : "work counters differ between passes");
    }
    checks.record("span sum", layerFrac <= 1.0
                                  ? ""
                                  : "layer spans exceed the pass CPU");

    std::vector<Metric> ms;
    for (size_t l = 0; l < kLayers; ++l) {
        const double sec = wl.inPassLayer(static_cast<Layer>(l))
                               ? best.sec[l]
                               : setupBest.sec[l];
        ms.push_back({kLayerMetric[l], 1e3 * sec, "ms"});
    }
    const Counters &n = traces.front().n;
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    const double coreSec = best.sec[CoreRun];
    ms.insert(
        ms.end(),
        {
            {"uarch.core_calls", count(n.coreCalls), "count"},
            {"uarch.sim_cycles", count(n.simCycles), "count"},
            {"uarch.sim_insts", count(n.simInsts), "count"},
            {"uarch.core_minsts_per_s",
             coreSec > 0 ? count(n.simInsts) / coreSec / 1e6 : 0.0,
             "Minst/s"},
            {"profile.train_calls", count(n.trainCalls), "count"},
            {"check.findings", count(n.findings), "count"},
            {"minigraph.candidates", count(n.candidates), "count"},
            {"minigraph.kept_frac",
             n.pool ? count(n.chosen) / count(n.pool) : 0.0, "frac"},
            {"minigraph.instances", count(n.instances), "count"},
            {"dse.hits", count(n.hits), "count"},
            {"dse.misses", count(n.misses), "count"},
            {"mg_speedup_mean", wl.speedupMean(), "ratio"},
            {"bench.layer_cpu_frac", layerFrac, "frac"},
        });
    return ms;
}

/**
 * The fastest reference run known for this build: the lower of this
 * run's and the one kept in the calibration directory, which is then
 * updated.  The directory belongs to one build of the program (run.py
 * names it after the binary's hash), so both times come from the same
 * code.  Without --calibration the run's own fastest is used.
 */
double
calibratedQuiet(const Options &o, const std::string &job, double runQuiet)
{
    if (o.calibration.empty())
        return runQuiet;
    const std::string path = o.calibration + "/" + job + ".txt";
    double kept = std::numeric_limits<double>::infinity();
    {
        std::ifstream in(path);
        double v = 0.0;
        if (in >> v && std::isfinite(v) && v > 0.0)
            kept = v;
    }
    if (runQuiet < kept) {
        std::filesystem::create_directories(o.calibration);
        const std::string tmp = path + ".tmp";
        writeFile(tmp, strprintf("%.17g\n", runQuiet));
        std::filesystem::rename(tmp, path);
    }
    std::printf("  reference %s: fastest %.6f ms this run, %s kept\n",
                job.c_str(), 1e3 * runQuiet,
                std::isfinite(kept) ? strprintf("%.6f ms", 1e3 * kept).c_str()
                                    : "none");
    return std::min(runQuiet, kept);
}

int
run(const Options &o)
{
    std::unique_ptr<Workload> wl = makeWorkload(o);

    // Set-up, several times; the last set-up's inputs are used.
    Samples setups; // one "pass" whose cells are the set-ups
    setups.add({});
    double setupTotal = 0.0;
    Trace setupTrace, bestSetupTrace;
    while (setups.passes[0].size() < kMinSetups ||
           (setupTotal < kSetupSeconds &&
            setups.passes[0].size() < kMaxSetups)) {
        setupTrace = Trace{};
        setups.passes[0].push_back(
            wl->timedSetup(o.trace ? &setupTrace : nullptr));
        setupTotal += setups.passes[0].back().wall;
        for (size_t l = 0; l < kLayers; ++l)
            bestSetupTrace.sec[l] =
                setups.passes[0].size() > 1
                    ? std::min(bestSetupTrace.sec[l], setupTrace.sec[l])
                    : setupTrace.sec[l];
    }

    Checks checks;
    wl->afterSetup(checks);

    // Passes.  Traced runs alternate untraced and traced passes.
    Samples plain, traced;
    std::vector<Trace> traces;
    std::vector<double> passCpu; // per traced pass
    const double t0 = wallNow();
    for (;;) {
        const double elapsed = wallNow() - t0;
        const bool enough =
            o.trace ? !plain.passes.empty() && !traced.passes.empty()
                    : plain.passes.size() >= kMinPasses;
        if (enough && (elapsed >= o.seconds || o.bless))
            break;
        const bool doTrace =
            o.trace && traced.passes.size() < plain.passes.size();
        if (doTrace) {
            Trace tr;
            double c0 = cpuNow();
            traced.add(wl->pass(&tr, checks));
            passCpu.push_back(cpuNow() - c0);
            traces.push_back(tr);
        } else {
            plain.add(wl->pass(nullptr, checks));
        }
    }
    if (!o.trace)
        wl->finalChecks(checks);

    if (o.bless)
        wl->bless();
    if (!o.dump.empty())
        writeFile(o.dump, wl->dump());

    const size_t cells = wl->cellCount();
    double quiet = std::min(plain.quiet(), setups.quiet());
    if (o.trace)
        quiet = std::min(quiet, traced.quiet());
    quiet = calibratedQuiet(o, wl->referenceName(), quiet);
    std::vector<Metric> ms;
    if (o.trace)
        ms = layerMetrics(*wl, traces, passCpu, bestSetupTrace, checks);
    const double failedFrac =
        static_cast<double>(checks.failed) /
        static_cast<double>(std::max<uint64_t>(checks.attempted, 1));

    std::printf("perfbench: workload=%s variant=%d seed=%llu passes=%u "
                "cells=%zu\n",
                o.workload.c_str(), o.variant,
                static_cast<unsigned long long>(o.seed),
                static_cast<unsigned>(plain.passes.size()), cells);
    std::printf("  checked %llu outputs, %llu failed (failed_frac %.6f)\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed), failedFrac);
    for (const std::string &f : checks.firstFailures)
        std::printf("  FAILED %s\n", f.c_str());
    if (wl->speedupMean() > 0)
        std::printf("  mg_speedup_mean %.6f: full machine, no mini-graphs "
                    "/ reduced machine, Slack-Profile (paper: ~1.02; "
                    "simulated cycles of a model not validated against "
                    "hardware)\n",
                    wl->speedupMean());

    if (o.trace) {
        ms.insert(ms.end(),
                  {
                      {"bench.trace_overhead_frac",
                       sumCpu(traced.estimate(quiet)) /
                               sumCpu(plain.estimate(quiet)) -
                           1.0,
                       "frac"},
                      {"bench.failed_frac", failedFrac, "frac"},
                      {"bench.raw_cpu_s", plain.rawBestCpu(), "s"},
                      {"bench.cell_samples", static_cast<double>(cells),
                       "count"},
                  });
    } else {
        const std::vector<CellTime> est = plain.estimate(quiet);
        std::vector<double> setupWall;
        for (size_t i = 0; i < setups.passes[0].size(); ++i)
            setupWall.push_back(setups.passes[0][i].wall *
                                Samples::scale(setups.passes[0], i, quiet));
        std::vector<double> cellMs;
        for (const CellTime &c : est)
            cellMs.push_back(1e3 * c.wall);
        const double cpuS = sumCpu(est);
        const double wallS = sumWall(est);
        ms = {
            {"setup_s", median(setupWall), "s"},
            {"cpu_s", cpuS, "s"},
            {"wall_s", wallS, "s"},
            {"cells_per_s", static_cast<double>(cells) / wallS, "1/s"},
            {"cell_ms_p50", quantile(cellMs, 0.5), "ms"},
            {"cell_ms_p90", quantile(cellMs, 0.9), "ms"},
            {"sim_minsts_per_s", wl->instsPerPass() / cpuS / 1e6,
             "Minst/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"ok_frac", 1.0 - failedFrac, "frac"},
        };
        std::printf("  cell_ms_p50/p90 over %zu cells, %zu passes; "
                    "unscaled best-of-passes CPU %.6f s; %zu set-ups\n",
                    cellMs.size(), plain.passes.size(), plain.rawBestCpu(),
                    setups.passes[0].size());
    }
    for (const Metric &m : ms)
        std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    const bool correct = checks.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                metricsJson(ms).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
