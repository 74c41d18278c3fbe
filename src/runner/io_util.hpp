// EINTR-safe low-level I/O, shared by everything in the runner that touches
// a file descriptor: the dispatcher's worker links (dispatcher.cpp), the
// worker session (worker_protocol.cpp), and the crash-safe journal
// (journal.cpp). Every loop here retries EINTR and resumes short writes, so
// callers never see a partial transfer — the ad-hoc per-site loops these
// helpers replaced each handled a different subset of those cases.
#pragma once

#include <string>
#include <string_view>

namespace bng::runner::io {

enum class ReadResult {
  kData,   ///< bytes were appended to the buffer
  kEof,    ///< orderly end of stream (peer closed)
  kError,  ///< hard error (ECONNRESET, EBADF, ...); errno is preserved
};

/// write() the whole buffer to a pipe or file, retrying EINTR and short
/// writes. Returns false on any hard error.
bool write_all(int fd, std::string_view bytes);

/// send() the whole buffer to a socket with MSG_NOSIGNAL (a dead peer must
/// surface as EPIPE, not kill the process with SIGPIPE), retrying EINTR and
/// short sends. Returns false on any hard error.
bool send_all(int fd, std::string_view bytes);

/// One read() of up to `chunk` bytes appended to `buf` (blocking fd;
/// callers gate with poll() if they must not block). Retries EINTR.
ReadResult read_some(int fd, std::string& buf, std::size_t chunk = 16384);

/// recv() flavor of read_some for sockets.
ReadResult recv_some(int fd, std::string& buf, std::size_t chunk = 16384);

/// TCP_NODELAY on a connected TCP socket: frames are small and each one is
/// waited on, so Nagle batching would only add latency.
void set_nodelay(int fd);

}  // namespace bng::runner::io
