/**
 * @file
 * The standing coverage report: the on-disk artifact that accumulates
 * CoverageMap counters across wo-litmus invocations, plus the analyses
 * wo-cover runs over it (heatmap, gaps, diff).
 *
 * Format ("wocover" version 1): a line-oriented, tab-separated text
 * file with a fixed section order and lexicographically sorted lines,
 * so two reports built from the same runs are byte-identical and two
 * different reports diff cleanly with standard tools:
 *
 *   wocover<TAB>1
 *   meta<TAB>runs<TAB><count>                      (summed on merge)
 *   meta<TAB><key><TAB><value>                     (set union on merge)
 *   machine<TAB><name><TAB><protocol><TAB><levels> (registry metadata)
 *   trans<TAB><proto><TAB><state><TAB><event><TAB><count>
 *   stall<TAB><family/reason><TAB><count>
 *   bucket<TAB><histogram/bucket_NN><TAB><count>
 *   outcome<TAB><test><TAB><policy><TAB><machine><TAB><key><TAB><count>
 *
 * Counts are the last field of every counter line; the free-text
 * outcome key may contain spaces but never tabs. A count of 0 is
 * meaningful: it records a cell the fleet *could* produce (an
 * axiomatically-allowed outcome, a seeded key) but has not — exactly
 * the gaps wo-cover hunts. Machine lines carry protocol and cache-level
 * metadata from the registry so a diff across registry growth can tell
 * "new machine, new lines" from "old machine lost coverage".
 */

#ifndef WO_OBS_COVERAGE_REPORT_HH
#define WO_OBS_COVERAGE_REPORT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/coverage.hh"

namespace wo {

/** Parsed/accumulated standing coverage report (see file comment). */
struct StandingCoverage
{
    static constexpr int kVersion = 1;

    /** Number of runner invocations merged into this report. */
    std::uint64_t runs = 0;

    /** Non-count run metadata (key, value), set-union on merge. */
    std::set<std::pair<std::string, std::string>> meta;

    struct MachineMeta
    {
        std::string protocol; ///< "msi".."mesif", or "none" (uncached)
        int cacheLevels = 0;
    };
    std::map<std::string, MachineMeta> machines;

    /** (protocol, state, event) -> hits. String-keyed so a report
     * written by a future binary with more protocols still parses. */
    std::map<std::array<std::string, 3>, std::uint64_t> transitions;

    std::map<std::string, std::uint64_t> stalls;
    std::map<std::string, std::uint64_t> buckets;

    /** (test, policy, machine, outcome key) -> observation count.
     * 0 = allowed but never observed there. Written from the corpus
     * report (litmus_dsl::standingCoverage), not from a CoverageMap. */
    std::map<std::array<std::string, 4>, std::uint64_t> outcomes;

    /** Fold one campaign's CoverageMap (transitions, stall reasons,
     * latency buckets) into this report. */
    void addCoverage(const CoverageMap &map);

    void addMachine(const std::string &name, const std::string &protocol,
                    int cacheLevels);

    /** Accumulate @p other (counts sum, metadata unions). */
    void mergeFrom(const StandingCoverage &other);

    /** Canonical rendering: stable section order, sorted lines. */
    void write(std::ostream &os) const;

    /** Parse a report; throws std::runtime_error (with a line number)
     * on anything that is not a well-formed version-1 document. */
    static StandingCoverage read(std::istream &is);

    /** read() from a file path; throws std::runtime_error if the file
     * cannot be opened. */
    static StandingCoverage readFile(const std::string &path);
};

/**
 * Per-protocol transition heatmap: one row per state in the protocol's
 * state set, one column per LineEvent; cells show the hit count, 0 for
 * a legal-but-unhit transition, '-' for an illegal pair. Each table
 * ends with a "hit H/L legal transitions" summary. Protocols recorded
 * in the report but unknown to this binary are listed raw.
 */
void renderHeatmap(std::ostream &os, const StandingCoverage &rep);

/** The gaps a report exposes, rendered and machine-usable. */
struct CoverageGaps
{
    /** "mesif: F x Store (IssueUpgrade -> S)" — legal, never hit. */
    std::vector<std::string> unhitTransitions;

    /** "test / policy / machine: {outcome}" — allowed, never seen. */
    std::vector<std::string> unobservedOutcomes;

    bool empty() const
    {
        return unhitTransitions.empty() && unobservedOutcomes.empty();
    }
};

/** Compute unhit legal transitions (only for protocols the report has
 * touched at all — an all-zero protocol table just means "this report
 * never ran that protocol", not 60 gaps) and allowed-but-unobserved
 * outcomes per machine x policy. */
CoverageGaps findGaps(const StandingCoverage &rep);

void renderGaps(std::ostream &os, const StandingCoverage &rep);

/** Differences between two standing reports (old -> new). */
struct CoverageDiff
{
    /** Coverage lost: covered in old, unobserved or absent in new.
     * Transitions, outcomes and stall reasons gate regressions. */
    std::vector<std::string> regressions;

    /** Latency-bucket occupancy lost (informational only: bucket
     * boundaries move with latency tuning, so bucket loss alone
     * should not fail a CI gate). */
    std::vector<std::string> bucketLosses;

    /** Newly covered cells (informational). */
    std::vector<std::string> gains;

    bool hasRegressions() const { return !regressions.empty(); }
};

CoverageDiff diffStanding(const StandingCoverage &oldRep,
                          const StandingCoverage &newRep);

void renderDiff(std::ostream &os, const CoverageDiff &diff);

} // namespace wo

#endif // WO_OBS_COVERAGE_REPORT_HH
