#include "serve/transport.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "serve/json.h"

namespace dapple::serve {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

}  // namespace

long ServeConnection(int in_fd, int out_fd, Server& server) {
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max(1, server.options().max_batch));
  long handled = 0;
  std::string buffer;
  std::vector<std::string> pending;
  char chunk[4096];
  bool open = true;
  bool discarding = false;  // inside the dropped tail of an over-long line
  while (open) {
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) open = false;  // EOF: fall through to flush pending lines
    std::string_view bytes(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t nl = bytes.find('\n');
      bytes.remove_prefix(nl == std::string_view::npos ? bytes.size() : nl + 1);
      discarding = nl == std::string_view::npos;
    }
    buffer.append(bytes);

    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      pending.push_back(buffer.substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
    // Cut an over-long line to kMaxLineBytes + 1 bytes, which the server
    // answers with "line too long", and drop the rest of it as it arrives.
    if (buffer.size() > kMaxLineBytes) {
      buffer.resize(kMaxLineBytes + 1);
      pending.push_back(std::move(buffer));
      buffer.clear();
      discarding = true;
    }
    // An unterminated last line is still a request.
    if (!open && !buffer.empty()) pending.push_back(std::move(buffer));

    while (!pending.empty()) {
      const std::size_t take = std::min(pending.size(), max_batch);
      std::vector<std::string> batch(pending.begin(),
                                     pending.begin() + static_cast<long>(take));
      pending.erase(pending.begin(), pending.begin() + static_cast<long>(take));
      std::string reply;
      for (const std::string& response : server.HandleBatch(batch)) {
        reply += response;
        reply += '\n';
      }
      handled += static_cast<long>(batch.size());
      std::size_t off = 0;
      while (off < reply.size()) {
        const ssize_t wrote = ::write(out_fd, reply.data() + off, reply.size() - off);
        if (wrote < 0) {
          if (errno == EINTR) continue;
          return handled;
        }
        off += static_cast<std::size_t>(wrote);
      }
    }
  }
  return handled;
}

namespace {

long ServeListener(int listen_fd, Server& server, int max_connections) {
  long handled = 0;
  for (int accepted = 0; max_connections <= 0 || accepted < max_connections;
       ++accepted) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) { --accepted; continue; }
      ::close(listen_fd);
      ThrowErrno("accept failed");
    }
    handled += ServeConnection(fd, fd, server);
    ::close(fd);
  }
  ::close(listen_fd);
  return handled;
}

}  // namespace

long ServeUnixSocket(const std::string& path, Server& server, int max_connections) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket failed");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    ThrowErrno("bind failed for " + path);
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    ThrowErrno("listen failed for " + path);
  }
  const long handled = ServeListener(fd, server, max_connections);
  ::unlink(path.c_str());
  return handled;
}

long ServeTcp(int port, Server& server, int max_connections) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    ThrowErrno("bind failed for port " + std::to_string(port));
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    ThrowErrno("listen failed for port " + std::to_string(port));
  }
  return ServeListener(fd, server, max_connections);
}

}  // namespace dapple::serve
