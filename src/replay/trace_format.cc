#include "replay/trace_format.hh"

#include <cassert>
#include <cstring>
#include <utility>

namespace wo {

namespace {

constexpr char kMagic[8] = {'W', 'O', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::size_t kRecordBytes = 1 + 4 + 8;

void
putU32(std::string &s, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &s, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

void
encodeRecord(std::string &s, const ReplayRecord &r)
{
    s.push_back(static_cast<char>(r.op));
    putU32(s, r.addr);
    putU64(s, r.value);
}

ReplayRecord
decodeRecord(const unsigned char *p)
{
    ReplayRecord r;
    r.op = static_cast<ReplayOp>(p[0]);
    r.addr = getU32(p + 1);
    r.value = getU64(p + 5);
    return r;
}

} // namespace

const char *
toString(ReplayOp op)
{
    switch (op) {
    case ReplayOp::Read:
        return "read";
    case ReplayOp::Write:
        return "write";
    case ReplayOp::Rmw:
        return "rmw";
    case ReplayOp::SyncRead:
        return "sync-read";
    case ReplayOp::SyncWrite:
        return "sync-write";
    case ReplayOp::LockAcquire:
        return "lock-acquire";
    case ReplayOp::LockRelease:
        return "lock-release";
    case ReplayOp::BarrierWait:
        return "barrier-wait";
    }
    return "?";
}

std::uint64_t
ReplayTraceData::totalRecords() const
{
    std::uint64_t n = 0;
    for (const auto &t : threads)
        n += t.size();
    return n;
}

// ---------------------------------------------------------------------------
// Writer

ReplayTraceWriter::ReplayTraceWriter(const std::string &path, int numThreads)
    : out_(path, std::ios::binary | std::ios::trunc), nthreads_(numThreads)
{
    table_.assign(static_cast<std::size_t>(numThreads), {0, 0});
}

void
ReplayTraceWriter::setInitial(Addr addr, Word value)
{
    assert(!header_written_);
    initials_.emplace_back(addr, value);
}

void
ReplayTraceWriter::writeHeader()
{
    std::string h;
    h.append(kMagic, sizeof(kMagic));
    putU32(h, static_cast<std::uint32_t>(nthreads_));
    putU32(h, static_cast<std::uint32_t>(initials_.size()));
    for (const auto &[addr, value] : initials_) {
        putU32(h, addr);
        putU64(h, value);
    }
    // Thread table placeholder, patched in close().
    for (int t = 0; t < nthreads_; ++t) {
        putU64(h, 0);
        putU64(h, 0);
    }
    out_.write(h.data(), static_cast<std::streamsize>(h.size()));
    pos_ = h.size();
    header_written_ = true;
}

void
ReplayTraceWriter::beginThread(int tid)
{
    assert(tid == cur_ + 1 && tid < nthreads_);
    if (!header_written_)
        writeHeader();
    flushBuffer();
    cur_ = tid;
    table_[static_cast<std::size_t>(tid)] = {pos_, 0};
}

void
ReplayTraceWriter::append(const ReplayRecord &r)
{
    assert(cur_ >= 0);
    buf_.push_back(r);
    ++table_[static_cast<std::size_t>(cur_)].second;
    if (buf_.size() >= 8192)
        flushBuffer();
}

void
ReplayTraceWriter::flushBuffer()
{
    if (buf_.empty())
        return;
    std::string block;
    block.reserve(buf_.size() * kRecordBytes);
    for (const ReplayRecord &r : buf_)
        encodeRecord(block, r);
    out_.write(block.data(), static_cast<std::streamsize>(block.size()));
    pos_ += block.size();
    buf_.clear();
}

bool
ReplayTraceWriter::close()
{
    if (!header_written_)
        writeHeader();
    flushBuffer();
    // Patch the thread table, which sits right after the initials.
    std::string t;
    for (const auto &[off, count] : table_) {
        putU64(t, off);
        putU64(t, count);
    }
    std::uint64_t tableOff =
        sizeof(kMagic) + 4 + 4 + initials_.size() * (4 + 8);
    out_.seekp(static_cast<std::streamoff>(tableOff));
    out_.write(t.data(), static_cast<std::streamsize>(t.size()));
    out_.flush();
    return static_cast<bool>(out_);
}

// ---------------------------------------------------------------------------
// In-memory save/load

bool
saveReplayTrace(const ReplayTraceData &data, const std::string &path)
{
    ReplayTraceWriter w(path, data.numThreads());
    for (const auto &[addr, value] : data.initials)
        w.setInitial(addr, value);
    for (int t = 0; t < data.numThreads(); ++t) {
        w.beginThread(t);
        for (const ReplayRecord &r : data.threads[static_cast<std::size_t>(t)])
            w.append(r);
    }
    return w.close();
}

bool
loadReplayTrace(const std::string &path, ReplayTraceData &out)
{
    ReplayTraceReader r;
    if (!r.open(path))
        return false;
    out.initials = r.initials();
    out.threads.assign(static_cast<std::size_t>(r.numThreads()), {});
    for (int t = 0; t < r.numThreads(); ++t) {
        auto &vec = out.threads[static_cast<std::size_t>(t)];
        // open() bounded every count by the file size.
        vec.reserve(static_cast<std::size_t>(r.remaining(t)));
        ReplayRecord rec;
        while (r.next(t, rec))
            vec.push_back(rec);
    }
    return !r.failed();
}

// ---------------------------------------------------------------------------
// Streaming reader

bool
ReplayTraceReader::fail(std::string why)
{
    error_ = std::move(why);
    return false;
}

bool
ReplayTraceReader::open(const std::string &path)
{
    error_.clear();
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_)
        return fail("cannot open");
    const auto size = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
    char magic[8];
    in_.read(magic, sizeof(magic));
    if (!in_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("not a WOTRACE1 trace");
    unsigned char hdr[8];
    in_.read(reinterpret_cast<char *>(hdr), 8);
    if (!in_)
        return fail("truncated header");
    std::uint32_t nthreads = getU32(hdr);
    std::uint32_t ninitial = getU32(hdr + 4);
    if (nthreads == 0 || nthreads > 4096)
        return fail("bad thread count " + std::to_string(nthreads));
    initials_.clear();
    for (std::uint32_t i = 0; i < ninitial; ++i) {
        unsigned char e[12];
        in_.read(reinterpret_cast<char *>(e), 12);
        if (!in_)
            return fail("truncated initial values");
        initials_.emplace_back(getU32(e), getU64(e + 4));
    }
    cursors_.assign(nthreads, {});
    total_ = 0;
    const std::uint64_t headerEnd =
        sizeof(kMagic) + 8 + std::uint64_t{ninitial} * 12 +
        std::uint64_t{nthreads} * 16;
    for (std::uint32_t t = 0; t < nthreads; ++t) {
        unsigned char e[16];
        in_.read(reinterpret_cast<char *>(e), 16);
        if (!in_)
            return fail("truncated thread table");
        Cursor &c = cursors_[t];
        c.base = getU64(e);
        c.count = getU64(e + 8);
        // Every record must lie between the header and the end of the
        // file; dividing, not multiplying, keeps a forged count from
        // overflowing the check.
        if (c.count > 0 &&
            (c.base < headerEnd || c.base > size ||
             c.count > (size - c.base) / kRecordBytes)) {
            return fail("thread " + std::to_string(t) + "'s " +
                        std::to_string(c.count) +
                        " records run past the end of the file");
        }
        total_ += c.count;
    }
    return true;
}

std::uint64_t
ReplayTraceReader::remaining(int tid) const
{
    const Cursor &c = cursors_.at(static_cast<std::size_t>(tid));
    return c.count - c.taken;
}

bool
ReplayTraceReader::refill(Cursor &c)
{
    std::uint64_t done = c.bufStart + c.buf.size();
    if (done >= c.count)
        return false;
    std::uint64_t n = std::min<std::uint64_t>(kBufRecords, c.count - done);
    std::vector<unsigned char> raw(static_cast<std::size_t>(n) * kRecordBytes);
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(c.base + done * kRecordBytes));
    in_.read(reinterpret_cast<char *>(raw.data()),
             static_cast<std::streamsize>(raw.size()));
    const auto tid = std::to_string(&c - cursors_.data());
    if (!in_)
        return fail("short read in thread " + tid + "'s records");
    for (std::uint64_t i = 0; i < n; ++i) {
        const unsigned op = raw[i * kRecordBytes];
        if (op > static_cast<unsigned>(ReplayOp::BarrierWait)) {
            return fail("bad op byte " + std::to_string(op) +
                        " at record " + std::to_string(done + i) +
                        " of thread " + tid);
        }
    }
    c.bufStart = done;
    c.buf.clear();
    c.buf.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        c.buf.push_back(decodeRecord(raw.data() + i * kRecordBytes));
    c.bufPos = 0;
    return true;
}

bool
ReplayTraceReader::peek(int tid, ReplayRecord &out)
{
    Cursor &c = cursors_.at(static_cast<std::size_t>(tid));
    if (c.taken >= c.count)
        return false;
    if (c.bufPos >= c.buf.size()) {
        if (!refill(c))
            return false;
    }
    out = c.buf[c.bufPos];
    return true;
}

bool
ReplayTraceReader::next(int tid, ReplayRecord &out)
{
    if (!peek(tid, out))
        return false;
    Cursor &c = cursors_[static_cast<std::size_t>(tid)];
    ++c.bufPos;
    ++c.taken;
    return true;
}

void
ReplayTraceReader::rewind()
{
    for (Cursor &c : cursors_) {
        c.taken = 0;
        c.buf.clear();
        c.bufPos = 0;
        c.bufStart = 0;
    }
}

} // namespace wo
