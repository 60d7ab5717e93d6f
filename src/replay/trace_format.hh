/**
 * @file
 * Compact on-disk format for recorded multithreaded access/sync traces.
 *
 * A trace is the per-thread sequence of memory operations of one
 * multithreaded program run, with the synchronization structure (locks,
 * barriers, flag waits) preserved as explicit records — the FlexiCAS
 * replayer shape: replay re-synchronizes at locks and barriers instead of
 * re-executing recorded spin iterations verbatim.
 *
 * Layout (all integers little-endian):
 *
 *   magic     8  bytes  "WOTRACE1"
 *   nthreads  u32
 *   ninitial  u32
 *   initials  ninitial x { addr u32, value u64 }
 *   table     nthreads x { offset u64, count u64 }
 *   records   per-thread arrays of { op u8, addr u32, value u64 }
 *
 * The per-thread table makes streaming replay possible: a reader keeps
 * one small refill buffer per thread and never loads the file into
 * memory, so replaying an N-record trace costs O(threads * buffer), not
 * O(N).
 */

#ifndef WO_REPLAY_TRACE_FORMAT_HH
#define WO_REPLAY_TRACE_FORMAT_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace wo {

/** One recorded per-thread operation. */
enum class ReplayOp : std::uint8_t {
    Read = 0,        ///< data read
    Write = 1,       ///< data write of `value`
    Rmw = 2,         ///< sync read-modify-write, writes `value`
    SyncRead = 3,    ///< sync read; replay waits until mem[addr]==value
    SyncWrite = 4,   ///< sync write of `value`
    LockAcquire = 5, ///< spin-acquire of the lock at `addr`
    LockRelease = 6, ///< release of the lock at `addr`
    BarrierWait = 7, ///< barrier episode at `addr` (all threads)
};

const char *toString(ReplayOp op);

struct ReplayRecord
{
    ReplayOp op = ReplayOp::Read;
    Addr addr = 0;
    Word value = 0;

    bool operator==(const ReplayRecord &o) const
    {
        return op == o.op && addr == o.addr && value == o.value;
    }
};

/** Whole trace in memory — tests and small-trace tools. Large traces
 * should go through the streaming reader/writer. */
struct ReplayTraceData
{
    std::vector<std::pair<Addr, Word>> initials;
    std::vector<std::vector<ReplayRecord>> threads;

    int numThreads() const { return static_cast<int>(threads.size()); }
    std::uint64_t totalRecords() const;
};

bool saveReplayTrace(const ReplayTraceData &data, const std::string &path);
bool loadReplayTrace(const std::string &path, ReplayTraceData &out);

/**
 * Streaming writer. Threads must be written in ascending order:
 *
 *   ReplayTraceWriter w(path, nthreads);
 *   w.setInitial(addr, v);            // before the first beginThread
 *   for t in 0..nthreads-1:
 *     w.beginThread(t);
 *     w.append({...}); ...
 *   ok = w.close();
 *
 * Records are buffered and flushed in blocks; the per-thread offset
 * table is patched on close().
 */
class ReplayTraceWriter
{
  public:
    ReplayTraceWriter(const std::string &path, int numThreads);

    void setInitial(Addr addr, Word value);
    void beginThread(int tid);
    void append(const ReplayRecord &r);

    /** Flush, patch the thread table, and return stream health. */
    bool close();

  private:
    void writeHeader();
    void flushBuffer();

    std::ofstream out_;
    int nthreads_;
    int cur_ = -1;
    bool header_written_ = false;
    std::vector<std::pair<Addr, Word>> initials_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> table_;
    std::vector<ReplayRecord> buf_;
    std::uint64_t pos_ = 0; ///< current file write position
};

/**
 * Streaming reader: one pull cursor per thread, each backed by a bounded
 * refill buffer, so resident memory is O(threads * buffer) regardless of
 * trace length.
 */
class ReplayTraceReader
{
  public:
    /** Records buffered per thread between refills. */
    static constexpr std::size_t kBufRecords = 4096;

    /** Open @p path and check its header: false (with error() set) if
     * the file is unreadable, not WOTRACE1, or any thread's records run
     * past the end of the file. */
    bool open(const std::string &path);

    /** Why open() or a later read failed; empty while the trace reads
     * cleanly. */
    const std::string &error() const { return error_; }

    /** A read hit a corrupt or short record block. next() and peek()
     * then return false, so a reader that stops at the first false must
     * check this to tell a corrupt trace from a finished one. */
    bool failed() const { return !error_.empty(); }

    int numThreads() const { return static_cast<int>(cursors_.size()); }
    const std::vector<std::pair<Addr, Word>> &initials() const
    {
        return initials_;
    }

    /** Total records in the trace (all threads). */
    std::uint64_t totalRecords() const { return total_; }

    /** Records of @p tid not yet consumed. */
    std::uint64_t remaining(int tid) const;

    /** Pull the next record of @p tid; false when the thread's stream is
     * exhausted or a read failed (see failed()). */
    bool next(int tid, ReplayRecord &out);

    /** Peek without consuming; false when exhausted or failed. */
    bool peek(int tid, ReplayRecord &out);

    /** Restart every thread cursor at its first record. */
    void rewind();

  private:
    struct Cursor
    {
        std::uint64_t base = 0;  ///< file offset of the thread's records
        std::uint64_t count = 0; ///< total records of this thread
        std::uint64_t taken = 0; ///< records consumed so far
        std::vector<ReplayRecord> buf;
        std::size_t bufPos = 0;
        std::uint64_t bufStart = 0; ///< index of buf[0] within the thread
    };

    bool refill(Cursor &c);
    bool fail(std::string why);

    std::ifstream in_;
    std::string error_;
    std::vector<std::pair<Addr, Word>> initials_;
    std::vector<Cursor> cursors_;
    std::uint64_t total_ = 0;
};

} // namespace wo

#endif // WO_REPLAY_TRACE_FORMAT_HH
