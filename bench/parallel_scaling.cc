/**
 * @file
 * Batch-engine scaling: the differential-fuzz workload (sample a
 * random configuration, run both controller models, compare) at 1,
 * 2, 4 and 8 worker threads. Each case is an independent
 * shared-nothing simulation, so ideal scaling is linear up to the
 * core count; the measured runs/sec and speedup-vs-serial quantify
 * how close the engine gets on this host.
 *
 * The same cases (same master seed, same per-case derived seeds) run
 * at every width — the batch engine's determinism contract means the
 * only thing that changes is wall-clock.
 *
 * A second section compares cold-start and warm-start execution of a
 * multi-seed sweep: cold runs the warm-up inside every job, warm runs
 * it once per config group, checkpoints, and fans the measured phases
 * out from the shared snapshot (docs/CHECKPOINT.md). The two modes
 * must produce identical rows; the benchmark reports the wall-clock
 * saved.
 *
 * A third section measures *intra-run* scaling: one 16-channel
 * sharded simulation at increasing --sim-threads widths, the
 * complement of the batch engine's between-runs parallelism (the
 * deeper channels x threads grid lives in bench/channel_scaling).
 * Every width must reproduce the single-threaded stats byte for byte.
 *
 * Usage: parallel_scaling [--runs N] [--seed S]
 *                         [--json BENCH_parallel.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "harness/multichannel.hh"
#include "harness/stimulus.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "validate/config_fuzzer.hh"
#include "validate/diff_runner.hh"

using namespace dramctrl;
using namespace dramctrl::validate;

int
main(int argc, char **argv)
{
    std::uint64_t runs = 48;
    std::uint64_t seed = 1;
    const char *json_path = nullptr;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--runs") == 0)
            runs = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[++i];
    }

    setQuiet(true);
    setThrowOnError(true);

    std::printf("parallel_scaling: %llu differential-fuzz runs per "
                "width (master seed %llu, %u hardware threads)\n\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(seed),
                exec::ThreadPool::hardwareThreads());
    std::printf("%6s %10s %10s %9s %9s\n", "jobs", "seconds",
                "runs/sec", "speedup", "failures");

    DiffOptions dopts;
    FuzzerOptions fopts;

    auto fuzzOnce = [&](std::uint64_t run) {
        Random rng(exec::deriveSeed(seed, run));
        FuzzCase fc = sampleCase(rng, fopts);
        std::uint64_t streamSeed = rng.next();
        return runDiff(fc, streamSeed, dopts).pass;
    };

    struct Width
    {
        unsigned jobs;
        double seconds;
        double runsPerSec;
        double speedup;
        std::uint64_t failures;
    };
    std::vector<Width> widths;

    double serial_s = 0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        exec::BatchRunner runner(jobs);
        std::uint64_t failures = 0;
        auto t0 = std::chrono::steady_clock::now();
        runner.run<bool>(
            runs, [&](std::size_t i) { return fuzzOnce(i); },
            [&](const exec::JobOutcome<bool> &out) {
                if (!out.ok || !out.value)
                    ++failures;
            });
        auto t1 = std::chrono::steady_clock::now();
        Width w;
        w.jobs = jobs;
        w.seconds = std::chrono::duration<double>(t1 - t0).count();
        w.runsPerSec = w.seconds > 0
                           ? static_cast<double>(runs) / w.seconds
                           : 0;
        if (jobs == 1)
            serial_s = w.seconds;
        w.speedup = w.seconds > 0 ? serial_s / w.seconds : 0;
        w.failures = failures;
        widths.push_back(w);
        std::printf("%6u %10.3f %10.2f %8.2fx %9llu\n", w.jobs,
                    w.seconds, w.runsPerSec, w.speedup,
                    static_cast<unsigned long long>(w.failures));
    }

    // --- Warm-start vs cold-start sweep -----------------------------
    // A sweep with a warm-up phase: 2 configurations x 8 seeds. Cold
    // mode repeats the warm-up in all 16 jobs; warm mode runs it twice
    // (once per config group), checkpoints, and restores per seed.
    exec::SweepSpec sspec;
    sspec.presets = {"ddr3_1333", "ddr3_1600"};
    sspec.patterns = {harness::Pattern::Random};
    sspec.numSeeds = 8;
    sspec.masterSeed = seed;
    sspec.warmupRequests = 3000;
    sspec.stimulus.requests = 1000;
    const auto grid = exec::expandGrid(sspec);
    const std::size_t groups =
        grid.size() / std::max(1u, sspec.numSeeds);
    const unsigned sweep_jobs = 8;

    std::vector<exec::SweepRow> cold_rows(grid.size());
    auto c0 = std::chrono::steady_clock::now();
    {
        exec::BatchRunner runner(sweep_jobs);
        runner.run<exec::SweepRow>(
            grid.size(),
            [&](std::size_t i) {
                return exec::runSweepPoint(grid[i], sspec);
            },
            [&](const exec::JobOutcome<exec::SweepRow> &out) {
                cold_rows[out.index] = out.value;
            });
    }
    auto c1 = std::chrono::steady_clock::now();
    double cold_s = std::chrono::duration<double>(c1 - c0).count();

    std::vector<exec::SweepRow> warm_rows(grid.size());
    auto w0 = std::chrono::steady_clock::now();
    {
        std::vector<std::string> snapshots(groups);
        exec::BatchRunner warmup(sweep_jobs);
        warmup.run<std::string>(
            groups,
            [&](std::size_t g) {
                return exec::captureWarmupSnapshot(
                    grid[g * sspec.numSeeds], sspec);
            },
            [&](const exec::JobOutcome<std::string> &out) {
                snapshots[out.index] = out.value;
            });
        exec::BatchRunner measured(sweep_jobs);
        measured.run<exec::SweepRow>(
            grid.size(),
            [&](std::size_t i) {
                return exec::runMeasuredFromSnapshot(
                    grid[i], sspec,
                    snapshots[exec::configGroupOf(grid[i], sspec)]);
            },
            [&](const exec::JobOutcome<exec::SweepRow> &out) {
                warm_rows[out.index] = out.value;
            });
    }
    auto w1 = std::chrono::steady_clock::now();
    double warm_s = std::chrono::duration<double>(w1 - w0).count();

    bool rows_match = true;
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (exec::toCsv(warm_rows[i]) != exec::toCsv(cold_rows[i]))
            rows_match = false;

    // --- Intra-run sharded scaling ----------------------------------
    // One 16-channel stack, one generator per channel, run at 1..8
    // sim threads. The stats JSON must match the 1-thread run exactly
    // at every width (the sharded engine's determinism contract).
    struct IntraWidth
    {
        unsigned simThreads;
        double seconds;
        double speedup;
        bool match;
    };
    const unsigned intra_channels = 16;
    const std::uint64_t intra_reqs = 120;
    auto intraOnce = [&](unsigned sim_threads, std::string &stats_out) {
        harness::MultiChannelConfig mcfg;
        mcfg.channels = intra_channels;
        mcfg.ctrl = presets::hmcVault();
        mcfg.ctrl.writeLowThreshold = 0.0;
        mcfg.ctrl.check();
        mcfg.simThreads = sim_threads;
        harness::MultiChannelSystem mc(mcfg);
        harness::Stimulus stim;
        stim.readPct = 67;
        stim.ittNs = 4.0;
        stim.requests = intra_reqs * intra_channels;
        stim.seed = seed;
        harness::attachStimulus(mc, stim);
        auto i0 = std::chrono::steady_clock::now();
        mc.runToCompletion();
        auto i1 = std::chrono::steady_clock::now();
        std::ostringstream os;
        mc.sim().dumpStatsJson(os);
        stats_out = os.str();
        return std::chrono::duration<double>(i1 - i0).count();
    };

    std::vector<IntraWidth> intra;
    std::string intra_ref;
    double intra_serial_s = 0;
    for (unsigned st : {1u, 2u, 4u, 8u}) {
        std::string stats;
        IntraWidth iw;
        iw.simThreads = st;
        iw.seconds = intraOnce(st, stats);
        if (st == 1) {
            intra_serial_s = iw.seconds;
            intra_ref = stats;
        }
        iw.speedup = iw.seconds > 0 ? intra_serial_s / iw.seconds : 0;
        iw.match = stats == intra_ref;
        intra.push_back(iw);
    }

    std::printf("\nintra-run sharded scaling (%u channels, %llu "
                "requests/gen)\n",
                intra_channels,
                static_cast<unsigned long long>(intra_reqs));
    std::printf("%12s %10s %9s %8s\n", "sim-threads", "seconds",
                "speedup", "match");
    for (const IntraWidth &iw : intra)
        std::printf("%12u %10.3f %8.2fx %8s\n", iw.simThreads,
                    iw.seconds, iw.speedup, iw.match ? "yes" : "NO");

    std::printf("\nwarm-start sweep (%zu points, %zu config groups, "
                "%llu warm-up + %llu measured requests, %u jobs)\n",
                grid.size(), groups,
                static_cast<unsigned long long>(sspec.warmupRequests),
                static_cast<unsigned long long>(sspec.stimulus.requests),
                sweep_jobs);
    std::printf("%12s %10s %9s %8s\n", "mode", "seconds", "speedup",
                "match");
    std::printf("%12s %10.3f %8.2fx %8s\n", "cold-start", cold_s, 1.0,
                "-");
    std::printf("%12s %10.3f %8.2fx %8s\n", "warm-start", warm_s,
                warm_s > 0 ? cold_s / warm_s : 0,
                rows_match ? "yes" : "NO");

    if (json_path != nullptr) {
        std::FILE *f = std::fopen(json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "parallel_scaling: cannot open %s\n",
                         json_path);
            return 1;
        }
        std::fprintf(f,
                     "{\"bench\": \"parallel_scaling\", \"workload\": "
                     "\"differential_fuzz\",\n"
                     " \"runs\": %llu, \"master_seed\": %llu, "
                     "\"hardware_threads\": %u,\n"
                     " \"widths\": [\n",
                     static_cast<unsigned long long>(runs),
                     static_cast<unsigned long long>(seed),
                     exec::ThreadPool::hardwareThreads());
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const Width &w = widths[i];
            std::fprintf(f,
                         "  {\"jobs\": %u, \"seconds\": %.6f, "
                         "\"runs_per_sec\": %.3f, \"speedup\": %.3f, "
                         "\"failures\": %llu}%s\n",
                         w.jobs, w.seconds, w.runsPerSec, w.speedup,
                         static_cast<unsigned long long>(w.failures),
                         i + 1 < widths.size() ? "," : "");
        }
        std::fprintf(f,
                     "],\n \"intra_run\": {\"channels\": %u, "
                     "\"requests_per_gen\": %llu, \"widths\": [\n",
                     intra_channels,
                     static_cast<unsigned long long>(intra_reqs));
        for (std::size_t i = 0; i < intra.size(); ++i) {
            const IntraWidth &iw = intra[i];
            std::fprintf(f,
                         "  {\"sim_threads\": %u, \"seconds\": %.6f, "
                         "\"speedup\": %.3f, \"match\": %s}%s\n",
                         iw.simThreads, iw.seconds, iw.speedup,
                         iw.match ? "true" : "false",
                         i + 1 < intra.size() ? "," : "");
        }
        std::fprintf(f,
                     "]},\n \"warm_start\": {\"points\": %zu, "
                     "\"config_groups\": %zu, \"jobs\": %u,\n"
                     "  \"warmup_requests\": %llu, "
                     "\"measured_requests\": %llu,\n"
                     "  \"cold_seconds\": %.6f, \"warm_seconds\": %.6f, "
                     "\"speedup\": %.3f, \"rows_match\": %s}}\n",
                     grid.size(), groups, sweep_jobs,
                     static_cast<unsigned long long>(
                         sspec.warmupRequests),
                     static_cast<unsigned long long>(sspec.stimulus.requests),
                     cold_s, warm_s,
                     warm_s > 0 ? cold_s / warm_s : 0,
                     rows_match ? "true" : "false");
        std::fclose(f);
        std::printf("\nwrote %s\n", json_path);
    }
    return 0;
}
