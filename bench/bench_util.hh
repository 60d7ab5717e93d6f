/**
 * @file
 * Shared helpers for the benchmark/reproduction binaries: aligned table
 * printing for the paper-style reports each bench emits, and common
 * command-line flag handling.
 */

#ifndef WO_BENCH_BENCH_UTIL_HH
#define WO_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "system/machine_spec.hh"
#include "workload/campaign.hh"

namespace wo::benchutil {

/** Flags shared by the table printers. */
struct BenchOptions
{
    int threads = 0;            ///< campaign workers; 0 = WO_THREADS/auto
    std::uint64_t baseSeed = 1; ///< campaign seed-stream base

    /** Machines selected with --machines=<list>; empty = bench default. */
    std::vector<const MachineSpec *> machines;
};

/**
 * Parse the flags every table printer understands: --threads=N /
 * --threads N (honouring WO_THREADS), --seed=S / --seed S and
 * --machines=LIST of machine-registry names. Exits with status 2 and a
 * one-line diagnostic on a malformed --threads/--seed value, an unknown
 * machine name, or any other argument, so a mistyped flag never runs
 * the defaults silently.
 */
inline BenchOptions
consumeBenchFlags(int argc, char **argv)
{
    BenchOptions opts;
    try {
        opts.threads = consumeThreadsFlag(argc, argv);
        opts.baseSeed = consumeSeedFlag(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        std::exit(2);
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--machines=", 0) == 0) {
            try {
                opts.machines = parseMachineList(arg.substr(11));
            } catch (const std::exception &e) {
                std::cerr << argv[0] << ": " << e.what() << "\n";
                std::exit(2);
            }
        } else {
            std::cerr << argv[0] << ": unknown argument '" << arg
                      << "'\n";
            std::exit(2);
        }
    }
    return opts;
}

/**
 * The machine list a bench sweeps over: the --machines selection, or
 * the bench's default machine. Table banners should name the machine
 * when the selection was explicit (opts.machines non-empty), so the
 * default output stays byte-identical.
 */
inline std::vector<const MachineSpec *>
machinesOr(const BenchOptions &opts, const std::string &default_name)
{
    if (!opts.machines.empty())
        return opts.machines;
    return {&machineOrThrow(default_name)};
}

/** Prints an aligned table: header row then data rows. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    void
    addRow(std::vector<std::string> row)
    {
        rows_.push_back(std::move(row));
    }

    void
    print(std::ostream &os = std::cout) const
    {
        std::vector<std::size_t> width(header_.size(), 0);
        auto widen = [&](const std::vector<std::string> &row) {
            for (std::size_t i = 0; i < row.size() && i < width.size();
                 ++i) {
                width[i] = std::max(width[i], row[i].size());
            }
        };
        widen(header_);
        for (const auto &r : rows_)
            widen(r);
        auto emit = [&](const std::vector<std::string> &row) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                os << std::left
                   << std::setw(static_cast<int>(width[i]) + 2) << row[i];
            }
            os << '\n';
        };
        emit(header_);
        for (std::size_t i = 0; i < width.size(); ++i)
            os << std::string(width[i], '-') << "  ";
        os << '\n';
        for (const auto &r : rows_)
            emit(r);
    }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

} // namespace wo::benchutil

#endif // WO_BENCH_BENCH_UTIL_HH
