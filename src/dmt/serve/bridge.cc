#include "dmt/serve/bridge.h"

#include <cerrno>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "dmt/serve/engine.h"

namespace dmt::serve {

namespace {

// EINTR-aware full write; false means the peer is gone (further responses
// have nowhere to go).
bool WriteAll(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t w =
        ::write(fd, data.data() + written, data.size() - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(w);
  }
  return true;
}

// Moves buffered response bytes out to the fd and empties the buffer,
// handing its storage back so the next window writes without regrowing.
bool Drain(std::ostringstream* pending, int out_fd) {
  std::string text = std::move(*pending).str();
  const bool ok = WriteAll(out_fd, text);
  text.clear();
  pending->str(std::move(text));
  return ok;
}

}  // namespace

int RunLineProtocol(ServeEngine* engine, int in_fd, int out_fd,
                    const volatile std::sig_atomic_t* stop,
                    bool flush_when_idle) {
  std::ostringstream pending;
  std::string buffer;
  char chunk[4096];
  bool ok = true;
  bool eof = false;
  while (true) {
    if (stop != nullptr && *stop != 0) break;
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks *stop
      break;                         // read failure: treat as end of input
    }
    if (n == 0) {
      eof = true;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      engine->ServeLine(std::string_view(buffer).substr(start, nl - start),
                        pending);
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (flush_when_idle) {
      // Interactive mode: no more complete lines are buffered, so answer
      // everything received instead of waiting for the window to fill.
      engine->Flush(pending);
    }
    if (!Drain(&pending, out_fd)) {
      ok = false;
      break;
    }
  }
  // An unterminated final line at EOF is a request (std::getline
  // semantics); a partial line cut off by `stop` is not -- it was never
  // fully received and serving half a request would be worse than none.
  if (eof && !buffer.empty()) engine->ServeLine(buffer, pending);
  engine->Flush(pending);
  if (!Drain(&pending, out_fd)) ok = false;
  return ok ? 0 : 1;
}

int RunUnixSocketServer(ServeEngine* engine, const std::string& path,
                        const volatile std::sig_atomic_t* stop) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("dmt_serve: socket");
    return 1;
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "dmt_serve: socket path too long: %s\n",
                 path.c_str());
    ::close(listener);
    return 1;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listener, 1) < 0) {
    std::perror("dmt_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "dmt_serve: listening on %s\n", path.c_str());
  while (stop == nullptr || *stop == 0) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks *stop
      std::perror("dmt_serve: accept");
      break;
    }
    RunLineProtocol(engine, client, client, stop,
                    /*flush_when_idle=*/true);
    ::close(client);
  }
  ::close(listener);
  ::unlink(path.c_str());
  // Graceful shutdown: every connection already drained its responses, so
  // Finish only writes the final checkpoint and flushes telemetry.
  std::ostringstream sink;
  engine->Finish(sink);
  return 0;
}

}  // namespace dmt::serve
