// Transports for the serve protocol: the same newline-delimited JSON
// exchange carried over a pair of file descriptors (`dapple serve --stdio`
// passes 0 and 1) or a listening Unix / TCP socket (long-lived daemon).
//
// Every transport runs one connection loop, ServeConnection. It batches
// greedily: each read's complete lines are dispatched together (up to the
// server's max_batch per HandleBatch call), so a client that writes N
// requests before reading gets them planned across the worker pool.
// Responses always come back in request order. A line longer than
// kMaxLineBytes (serve/json.h) is answered with one "bad_request" and the
// rest of it, up to its newline, is dropped unbuffered, so a connection
// never holds more than the bound plus one read chunk of any line.
#pragma once

#include <string>

#include "serve/server.h"

namespace dapple::serve {

/// Serves requests read from `in_fd`, writing responses to `out_fd`, until
/// EOF or a failed read or write. An unterminated last line is answered
/// at EOF. Returns the number of requests handled. A socket connection
/// passes its fd twice.
long ServeConnection(int in_fd, int out_fd, Server& server);

/// Listens on a Unix-domain socket at `path` (unlinking any stale socket
/// first) and serves connections sequentially, each until its EOF.
/// `max_connections` bounds how many connections are accepted before
/// returning (0 = serve forever); tests use 1. Returns requests handled.
long ServeUnixSocket(const std::string& path, Server& server,
                     int max_connections = 0);

/// Same protocol over TCP on 127.0.0.1:`port`.
long ServeTcp(int port, Server& server, int max_connections = 0);

}  // namespace dapple::serve
